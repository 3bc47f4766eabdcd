"""Fourier-Bessel transforms to coordinate space and radial diagnostics.

The S-wave transform pair used throughout is

    f(r) = integral k^2 dk/(2 pi)^3  4 pi j0(kr) f(k),
    f(k) = integral r^2 dr          4 pi j0(kr) f(r),

and a two-argument kernel transforms with one such factor per leg.
Momentum-space inputs are first resampled onto a fine auxiliary
quadrature (barycentric interpolation in the Gauss-Legendre map
variable, which is spectrally accurate for smooth kernels); without the
refinement the working grid is too coarse for the oscillatory Bessel
factors and the transforms pick up spurious tails.

Delta-line local parts are never discretized.  A coordinate kernel
carries them as a symbolic coefficient function, applied pointwise by
the residual operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, ShapeError
from .grid import MomentumGrid, RadialGrid, build_momentum_grid
from .kernels import Kernel
from .spectral import BoundState

FINE_MOMENTUM_NODES = 1024


@dataclass(frozen=True, eq=False)
class CoordinateKernel:
    """Nonlocal coordinate-space kernel plus optional symbolic local part.

    Parameters
    ----------
    grid : RadialGrid
    values : ndarray, shape (n, n)
        Nonlocal samples V(r'_i, r_j), fm^-4 scale.  Not assumed
        symmetric; bound-part kernels are not.
    local : callable, optional
        Coefficient V0(r) of a delta-line term, fm^-2.  Present only
        when the kernel was built from a declared local potential.
    """

    grid: RadialGrid
    values: np.ndarray
    local: Optional[Callable] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        n = self.grid.n
        if v.shape != (n, n):
            raise ShapeError(f"kernel values {v.shape} do not match grid of {n} nodes")
        if not np.all(np.isfinite(v)):
            raise ContractError("kernel contains non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.grid.n


def build_uniform_radial_grid(n: int, r_max: float) -> RadialGrid:
    """Midpoint rule on (0, r_max): nodes (i - 1/2) h, weights h.

    Uniform spacing is what the finite-difference diagnostics need;
    the midpoint rule keeps the quadrature O(h^2), ample for them.
    """
    if n < 8:
        raise ContractError(f"need n >= 8 nodes, got {n}")
    h = r_max / n
    nodes = (np.arange(1, n + 1) - 0.5) * h
    return RadialGrid(nodes=nodes, weights=np.full(n, h), r_max=float(r_max))


@lru_cache(maxsize=4)
def _fine_resample(n: int, map_scale: float, cutoff: float):
    """Fine auxiliary momentum grid plus the read-only resampling matrix onto it.

    Cached per grid shape, which fixes a grid from build_momentum_grid.
    """
    fine = build_momentum_grid(FINE_MOMENTUM_NODES, map_scale, cutoff)
    b = build_momentum_grid(n, map_scale, cutoff).interpolation_matrix(fine.nodes)
    b.setflags(write=False)
    return fine, b


def _bessel_block(kf, measure, r):
    """Transform factors 4 pi mu_l j0(k_l r_i) as an (nf, nr) matrix."""
    return 4.0 * np.pi * measure[:, None] * np.sinc(np.multiply.outer(kf, r) / np.pi)


def momentum_to_coordinate(V: Kernel, rgrid: RadialGrid) -> CoordinateKernel:
    """Double Fourier-Bessel transform of a momentum-space kernel.

    Parameters
    ----------
    V : Kernel
        Momentum-space kernel, purely nonlocal.  A declared local part
        must be subtracted by the caller first; its delta line is not
        grid-representable and would alias into garbage.
    rgrid : RadialGrid

    Returns
    -------
    CoordinateKernel
        V(r', r) on the radial grid, no local part.
    """
    if not isinstance(V, Kernel):
        raise ContractError("input kernel must live in momentum space")
    fine, b = _fine_resample(V.n, V.grid.map_scale, V.grid.cutoff)
    vf = b @ V.values @ b.T
    a = _bessel_block(fine.nodes, fine.measure, rgrid.nodes)
    return CoordinateKernel(grid=rgrid, values=a.T @ vf @ a)


def coordinate_to_momentum(ck: CoordinateKernel, kgrid: MomentumGrid) -> Kernel:
    """Inverse double transform back onto a momentum grid.

    The radial quadrature must resolve the Bessel oscillations of every
    momentum it is asked for; with that met, the round trip through
    momentum_to_coordinate reproduces smooth kernels to relative 1e-6.
    The result is flagged general (the transform of an asymmetric
    bound-part kernel stays asymmetric).
    """
    r = ck.grid.nodes
    j = 4.0 * np.pi * (ck.grid.measure[:, None]
                       * np.sinc(np.multiply.outer(r, kgrid.nodes) / np.pi))
    return Kernel(grid=kgrid, values=j.T @ ck.values @ j, symmetry="general")


def wavefunction_to_coordinate(phi: BoundState, rgrid: RadialGrid) -> np.ndarray:
    """Radial wavefunction phi(r) on the grid nodes.

    The transform preserves the norm: a state normalized under the
    momentum measure comes out normalized under integral r^2 dr to
    about 1e-4, limited by the radial truncation.
    """
    return _phi_to_radial(phi.samples, phi.grid, rgrid.nodes)


def _phi_to_radial(samples, kgrid, r):
    fine, b = _fine_resample(kgrid.n, kgrid.map_scale, kgrid.cutoff)
    return _bessel_block(fine.nodes, fine.measure, np.asarray(r, dtype=float)).T @ (b @ samples)


def _radial_laplacian(phi, r):
    """d^2/dr^2 + (2/r) d/dr by windowed polynomial fits.

    Five-point degree-4 fits centered on each node; on a uniform mesh
    the interior weights reduce to the classical central stencils,
    while edge windows are clipped (one-sided).
    """
    phi = np.asarray(phi, dtype=float)
    r = np.asarray(r, dtype=float)
    if phi.shape != r.shape or r.ndim != 1:
        raise ShapeError("samples and radii must be matching 1-d arrays")
    if r.size < 5:
        raise ContractError("need at least 5 radial samples")
    n = r.size
    out = np.empty(n)
    for i in range(n):
        lo = min(max(i - 2, 0), n - 5)
        window = slice(lo, lo + 5)
        c = np.polynomial.polynomial.polyfit(r[window] - r[i], phi[window], 4)
        out[i] = 2.0 * c[2] + 2.0 * c[1] / r[i]
    return out


def vb_profile_node(phi, r, E):
    """First sign change of (E + laplacian) phi(r'), the bound-part profile node.

    A single-state bound part is (E + laplacian') phi(r') phi(r) up to
    normalization, so its r'-profile changes sign where this expression
    does; for an embedded state the node sits at r' near 1/sqrt(E)
    scale and moves inward as E grows.  Only the E phi term depends on
    the energy, so an array of energies shares one laplacian and gives
    the same nodes as one call per energy.

    Parameters
    ----------
    phi : ndarray
        Radial wavefunction samples.
    r : ndarray
        Sample radii, uniformly spaced.
    E : float or 1-d array
        Profile energy or energies in fm^-2.

    Returns
    -------
    float or None, or a list of them
        Interpolated node radius, or None when the profile keeps one
        sign (the case for E below minus the binding energy); a list
        with one entry per energy when E is an array.
    """
    r = np.asarray(r, dtype=float)
    spacing = np.diff(r)
    if np.max(np.abs(spacing - spacing[0])) > 1e-9 * spacing[0]:
        raise ContractError("profile node search needs a uniform radial mesh")
    energies = np.asarray(E, dtype=float)
    if energies.ndim > 1:
        raise ShapeError("profile energies must be a scalar or a 1-d array")
    phi = np.asarray(phi, dtype=float)
    lap = _radial_laplacian(phi, r)
    nodes = [_first_sign_change(e * phi + lap, r) for e in energies.reshape(-1)]
    return nodes if energies.ndim else nodes[0]


def _first_sign_change(g, r):
    """Interpolated radius of g's first clear sign change off the two edge
    nodes at each end, or None."""
    interior = slice(2, r.size - 2)
    gs, rs = g[interior], r[interior]
    tol = 1e-9 * np.max(np.abs(gs))
    for i in range(gs.size - 1):
        if abs(gs[i]) > tol and abs(gs[i + 1]) > tol and gs[i] * gs[i + 1] < 0:
            frac = gs[i] / (gs[i] - gs[i + 1])
            return float(rs[i] + frac * (rs[i + 1] - rs[i]))
    return None


def coordinate_residual(V: CoordinateKernel, phi, E: float) -> float:
    """Measure-norm residual of the radial integro-differential equation.

    Evaluates -(d^2/dr^2 + (2/r) d/dr) phi + integral r'^2 dr'
    V(r, r') phi(r') + V0(r) phi(r) - E phi(r) on the kernel's grid and
    returns its norm under the radial measure.  The two outermost nodes
    at each end are excluded: their one-sided derivative stencils and
    the truncation boundary dominate there and say nothing about the
    equation.
    """
    grid = V.grid
    phi = np.asarray(phi, dtype=float)
    if phi.shape != grid.nodes.shape:
        raise ShapeError("samples do not match the kernel grid")
    r = grid.nodes
    res = -_radial_laplacian(phi, r) + V.values @ (grid.measure * phi) - E * phi
    if V.local is not None:
        res += V.local(r) * phi
    keep = slice(2, grid.n - 2)
    return float(np.sqrt(np.sum(grid.measure[keep] * res[keep] ** 2)))


def local_coordinate_kernel(v_of_r: Callable, rgrid: RadialGrid) -> CoordinateKernel:
    """Purely local potential as a coordinate kernel: zero matrix, symbolic line."""
    return CoordinateKernel(grid=rgrid, values=np.zeros((rgrid.n, rgrid.n)),
                            local=v_of_r)
