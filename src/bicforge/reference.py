"""Closed-form benchmark potentials and an independent radial solver.

Two classic constructions that support a bound state inside the
continuum serve as references for the momentum-space machinery: the
oscillating local potential built around phi = j0(kr) f(r) with
f = 1/(A^2 + R^2), R = 2kr - sin 2kr, and the tuned separable potential
lambda |g><g| whose coupling is fixed by a single quadrature.  A
Numerov shooting/matching solver for arbitrary local potentials
provides bound-state energies and phase shifts by a route that shares
no code with the momentum-space path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, NormalizabilityError, NotABicError
from .grid import MomentumGrid, RadialGrid, inner_product
from .kernels import Kernel
from .spectral import BoundState

NORMALIZABILITY_TOL = 1e-8
COUPLING_TOL = 1e-6
VNW_MESH_POINTS = 240001


def _vnw_r_factor(k, r):
    kr2 = 2.0 * k * r
    return kr2 - np.sin(kr2)


def _vnw_v(k, a, r):
    r = np.asarray(r, dtype=float)
    s4 = np.sin(k * r) ** 4
    big_r = _vnw_r_factor(k, r)
    denom = a * a + big_r * big_r
    return (-128.0 * a * a * k * k * s4 / denom ** 2
            + (96.0 * k * k * s4 - 16.0 * k * k * big_r * np.sin(2.0 * k * r)) / denom)


def _vnw_phi(k, a, r):
    r = np.asarray(r, dtype=float)
    big_r = _vnw_r_factor(k, r)
    return np.sinc(k * r / np.pi) / (a * a + big_r * big_r)


@dataclass(frozen=True, eq=False)
class VnwPotential:
    """Local oscillating potential with a bound state at E = k_bic^2.

    The wavefunction j0(kr) f(r) with envelope f = 1/(A^2 + R^2),
    R = 2kr - sin 2kr, decays like 1/(2kr)^2, so it is normalizable
    even though its energy lies in the continuum; the potential that
    supports it oscillates as sin(2kr)/2kr at large r and vanishes as
    r^4 at the origin.

    Parameters
    ----------
    k_bic : float
        Embedded-state momentum, fm^-1.
    a_const : float
        Shape constant A, dimensionless and nonzero; larger A makes a
        shallower, wider potential.
    grid : RadialGrid
    v_samples, phi_samples : ndarray
        The closed-form potential and (unnormalized) wavefunction on
        the grid nodes.
    """

    k_bic: float
    a_const: float
    grid: RadialGrid
    v_samples: np.ndarray
    phi_samples: np.ndarray

    def v(self, r):
        """Potential V(r) from the closed form, fm^-2."""
        return _vnw_v(self.k_bic, self.a_const, r)

    def phi(self, r):
        """Wavefunction j0(kr) f(r), unnormalized."""
        return _vnw_phi(self.k_bic, self.a_const, r)

    def f_prime_over_f(self, r):
        """Logarithmic derivative of the envelope; zero at kr = n pi."""
        r = np.asarray(r, dtype=float)
        k = self.k_bic
        big_r = _vnw_r_factor(k, r)
        r_prime = 4.0 * k * np.sin(k * r) ** 2
        return -2.0 * big_r * r_prime / (self.a_const ** 2 + big_r ** 2)

    def norm(self) -> float:
        """Wavefunction norm under the grid's r^2 dr measure."""
        return float(np.sqrt(inner_product(self.phi_samples, self.phi_samples,
                                           self.grid)))


def vnw_build(k: float, A: float, rgrid: RadialGrid) -> VnwPotential:
    """Construct the oscillating local potential for momentum k and shape A.

    Parameters
    ----------
    k : float
        Embedded-state momentum in fm^-1, positive.
    A : float
        Shape constant, nonzero.
    rgrid : RadialGrid
    """
    if k <= 0:
        raise ContractError(f"need k > 0, got {k}")
    if A == 0:
        raise ContractError("the shape constant must be nonzero")
    return VnwPotential(k_bic=float(k), a_const=float(A), grid=rgrid,
                        v_samples=_vnw_v(k, A, rgrid.nodes),
                        phi_samples=_vnw_phi(k, A, rgrid.nodes))


def vnw_verify(model: VnwPotential, energy: Optional[float] = None) -> float:
    """Finite-difference residual of the radial equation for the model.

    Checks (-d^2/dr^2 + V - E) u = 0 for u = r phi on a fine uniform
    mesh (VNW_MESH_POINTS points up to r = 60/k) with the 5-point
    second-derivative stencil, two edge points excluded on each side.
    Returns the rms residual relative to the rms of u; at the
    construction energy E = k^2 this is resolution noise, while an
    offset energy E = k^2 + c returns about c.
    """
    k = model.k_bic
    e = k * k if energy is None else float(energy)
    r = np.linspace(1e-6, 60.0 / k, VNW_MESH_POINTS)
    h = r[1] - r[0]
    u = r * model.phi(r)
    v = model.v(r)
    upp = (-u[:-4] + 16.0 * u[1:-3] - 30.0 * u[2:-2] + 16.0 * u[3:-1] - u[4:]) \
        / (12.0 * h * h)
    res = -upp + (v[2:-2] - e) * u[2:-2]
    return float(np.sqrt(np.mean(res ** 2) / np.mean(u[2:-2] ** 2)))


@dataclass(frozen=True, eq=False)
class SeparableModel:
    """Rank-one potential lambda |g><g| tuned to hold a state at K^2.

    The normalizability condition g(K) = 0 makes the would-be resonance
    wavefunction g(p)/(K^2 - p^2) finite at the on-shell point; the
    critical coupling then embeds it as a genuine square-integrable
    state.

    Parameters
    ----------
    grid : MomentumGrid
    g_samples : ndarray
        Form factor on the grid nodes.
    coupling : float
        The coupling lambda.
    k_bic : float
        Embedded momentum K in fm^-1.
    g_fn : callable, optional
        Off-grid form factor g(p).
    h_fn : callable, optional
        Factored form h with g(p) = (K^2 - p^2) h(p); when present the
        tuning integral and the wavefunction are evaluated without ever
        dividing by K^2 - p^2.
    """

    grid: MomentumGrid
    g_samples: np.ndarray
    coupling: float
    k_bic: float
    g_fn: Optional[Callable] = None
    h_fn: Optional[Callable] = None

    def kernel(self) -> Kernel:
        """The potential as a momentum-space kernel."""
        lam, g = self.coupling, np.asarray(self.g_samples, dtype=float)
        evaluate = None
        if self.g_fn is not None:
            g_fn = self.g_fn

            def evaluate(q, kk):
                return np.multiply.outer(lam * np.asarray(g_fn(q), dtype=float),
                                         np.asarray(g_fn(kk), dtype=float))

        return Kernel(grid=self.grid, values=lam * np.outer(g, g),
                      symmetry="symmetric", evaluate=evaluate)


def _form_factor_callable(g, grid: MomentumGrid):
    if callable(g):
        return g, np.asarray(g(grid.nodes), dtype=float)
    samples = np.asarray(g, dtype=float)
    if samples.shape != grid.nodes.shape:
        raise ContractError("form-factor samples do not match the grid")

    def interp(q):
        return grid.interpolation_matrix(q) @ samples

    return interp, samples


def separable_tune(g, K: float, grid: MomentumGrid, h: Optional[Callable] = None) -> float:
    """Critical coupling 1 / integral p^2 dp/(2 pi)^3 g(p)^2 / (K^2 - p^2).

    The integrand's singularity at p = K is removable thanks to the
    double zero of g^2 there.  With the factored form h supplied the
    cancellation is algebraic; otherwise a guard band of two grid
    spacings around K is patched by a local quadratic fit of the
    regular factor g^2/(K^2 - p^2)^2 through the flanking nodes.

    Parameters
    ----------
    g : callable or ndarray
        Form factor, as a function of momentum or as samples on the
        grid nodes.
    K : float
        Embedded momentum in fm^-1, inside (0, cutoff).
    grid : MomentumGrid
    h : callable, optional
        Factored form factor, g(p) = (K^2 - p^2) h(p).

    Raises
    ------
    NormalizabilityError
        If g(K) is not zero within 1e-8 of the form-factor scale.
    """
    if not (0.0 < K < grid.cutoff):
        raise ContractError(f"embedded momentum {K} outside (0, {grid.cutoff})")
    g_fn, samples = _form_factor_callable(g, grid)
    scale = np.max(np.abs(samples))
    if abs(float(g_fn(K))) > NORMALIZABILITY_TOL * scale:
        raise NormalizabilityError(
            f"g(K) = {float(g_fn(K)):.3e} does not vanish; "
            "the embedded wavefunction would not be normalizable"
        )
    p = grid.nodes
    if h is not None:
        integrand = (K * K - p * p) * np.asarray(h(p), dtype=float) ** 2
    else:
        integrand = np.empty(grid.n)
        near = np.abs(p - K) < _local_spacing(p, K)
        integrand[~near] = samples[~near] ** 2 / (K * K - p[~near] ** 2)
        idx = np.flatnonzero(near)
        if idx.size:
            flank = _flanking_indices(idx, grid.n)
            regular = samples[flank] ** 2 / (K * K - p[flank] ** 2) ** 2
            coeffs = np.polyfit(p[flank], regular, 2)
            integrand[idx] = (K * K - p[idx] ** 2) * np.polyval(coeffs, p[idx])
    total = float(np.sum(grid.measure * integrand))
    if total == 0.0:
        raise ContractError("tuning integral vanished; no finite coupling exists")
    return 1.0 / total


def _local_spacing(p, K):
    j = int(np.argmin(np.abs(p - K)))
    lo = max(j - 1, 0)
    hi = min(j + 1, p.size - 1)
    return (p[hi] - p[lo]) / max(hi - lo, 1)


def _flanking_indices(idx, n, width: int = 3):
    below = np.arange(max(idx[0] - width, 0), idx[0])
    above = np.arange(idx[-1] + 1, min(idx[-1] + 1 + width, n))
    return np.concatenate([below, above])


def separable_bic(model: SeparableModel) -> BoundState:
    """The embedded state of a tuned separable model.

    Verifies that the stored coupling matches the critical one to 1e-6
    relative (raising NotABicError otherwise), then returns the
    normalized wavefunction g(p)/(K^2 - p^2) at energy K^2.
    """
    grid, K = model.grid, model.k_bic
    g = model.g_fn if model.g_fn is not None else model.g_samples
    lam_c = separable_tune(g, K, grid, h=model.h_fn)
    if abs(model.coupling - lam_c) > COUPLING_TOL * abs(lam_c):
        raise NotABicError(
            f"coupling {model.coupling:.6e} is detuned from the critical "
            f"{lam_c:.6e}; the state leaks into the continuum"
        )
    p = grid.nodes
    if model.h_fn is not None:
        raw = np.asarray(model.h_fn(p), dtype=float)
    else:
        raw = np.asarray(model.g_samples, dtype=float) / (K * K - p * p)
    eta = np.sqrt(inner_product(raw, raw, grid))
    samples = raw / eta

    value_at = None
    if model.h_fn is not None:
        h_fn = model.h_fn

        def value_at(q):
            return np.asarray(h_fn(q), dtype=float) / eta

    elif model.g_fn is not None:
        g_fn = model.g_fn

        def value_at(q):
            q = np.asarray(q, dtype=float)
            return np.asarray(g_fn(q), dtype=float) / ((K * K - q * q) * eta)

    return BoundState(energy=K * K, samples=samples, grid=grid, value_at=value_at)


def _numerov_sweep(v_samples, r, energies):
    """Outward Numerov integration of u'' = (V - E) u for a batch of energies.

    Vectorised across energies, marching rolling rows of u through the
    mesh.  Returns the last three rows (u[-3], u[-2], u[-1]), each of
    length len(energies), of the regular S-wave solution seeded with
    u ~ r at the origin.
    """
    h = r[1] - r[0]
    c = h * h / 12.0
    c10 = 10.0 * c
    e_arr = np.asarray(energies, dtype=float)
    f = v_samples[1] - e_arr
    g_prev = 1.0 - c * (v_samples[0] - e_arr)
    g = 1.0 - c * f
    u_prev2 = u_prev = np.full(e_arr.shape, r[0])
    u = np.full(e_arr.shape, r[1])
    for i in range(1, r.size - 1):
        f_next = v_samples[i + 1] - e_arr
        g_next = 1.0 - c * f_next
        u_prev2, u_prev, u = u_prev, u, \
            ((2.0 + c10 * f) * u - g_prev * u_prev) / g_next
        f, g_prev, g = f_next, g, g_next
    return u_prev2, u_prev, u


def _numerov_tail(v_samples, r, energy):
    """Last three values of the outward Numerov solution at one energy.

    The scalar twin of _numerov_sweep: with a = 2 + 10 c f, g = 1 - c f
    and c = h^2/12, each step is u[i+1] = (a[i] u[i] - g[i-1] u[i-1]) /
    g[i+1] on Python floats.
    """
    h = r[1] - r[0]
    c = h * h / 12.0
    f = v_samples - energy
    a = (2.0 + 10.0 * c * f).tolist()
    g = (1.0 - c * f).tolist()
    u_prev2 = u_prev = float(r[0])
    u = float(r[1])
    for a_i, g_before, g_after in zip(a[1:-1], g[:-2], g[2:]):
        u_prev2, u_prev, u = u_prev, u, (a_i * u - g_before * u_prev) / g_after
    return u_prev2, u_prev, u


def local_oracle(v_of_r: Callable, mode: str, k: Optional[float] = None,
                 r_max: float = 12.0, steps: int = 6000):
    """Independent radial-equation solver for a local potential.

    Parameters
    ----------
    v_of_r : callable
        Potential V(r) in fm^-2, short-ranged on (0, r_max).
    mode : {"bound", "phase"}
        "bound" returns the lowest E < 0 by shooting and bisection on
        the large-r boundary value, or None when the potential holds no
        negative-energy state.  "phase" returns the phase shift at
        momentum k from matching u to the free solution at r_max,
        reduced to the principal branch.
    k : float, optional
        On-shell momentum for phase mode, fm^-1.
    r_max : float
        Matching radius; the potential must be negligible there.
    steps : int
        Mesh points of the Numerov integration.

    Notes
    -----
    Shares no code with the momentum-space solvers, which is the point:
    agreement between the two routes validates both.

    The 400-energy bracket scan integrates all energies at once with
    numpy rows.  Bisection and phase mode integrate one energy, and
    there numpy would spend its time on per-call overhead for
    one-element arrays, so that recurrence runs on Python floats.  Both
    paths perform the same IEEE operations in the same order, so they
    agree bit for bit with each other and with a full-array loop.
    """
    if steps < 3:
        raise ContractError(f"need at least 3 Numerov mesh points, got {steps}")
    r = np.linspace(r_max / steps, r_max, steps)
    v = np.asarray(v_of_r(r), dtype=float)

    if mode == "bound":
        floor = float(np.min(v))
        if floor >= 0.0:
            return None
        lo = 1.000001 * floor
        scan = np.linspace(lo, -1e-6, 400)
        tails = _numerov_sweep(v, r, scan)[-1]
        bracket = None
        for i in range(scan.size - 1):
            if tails[i] * tails[i + 1] < 0:
                bracket = (scan[i], scan[i + 1])
                break
        if bracket is None:
            return None
        a, b = bracket
        fa = _numerov_tail(v, r, a)[-1]
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = _numerov_tail(v, r, mid)[-1]
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        return 0.5 * (a + b)

    if mode == "phase":
        if k is None or k <= 0:
            raise ContractError("phase mode needs a positive momentum k")
        u_prev2, u_prev, u = _numerov_tail(v, r, k * k)
        h = r[1] - r[0]
        # central derivative at the second-to-last node
        rm = r[-2]
        du = (u - u_prev2) / (2.0 * h)
        delta = np.arctan2(k * u_prev, du) - k * rm
        return float((delta + 0.5 * np.pi) % np.pi - 0.5 * np.pi)

    raise ContractError(f"unknown oracle mode {mode!r}")
