"""Half-on-shell T-matrices and phase shifts from the Lippmann-Schwinger equation.

The solver works in the real standing-wave (K-matrix) formulation.  The
principal-value integral over the quadrature grid is handled by the
subtraction method: the on-shell integrand is subtracted node by node and
its integral restored analytically through

    PV integral dp / (k0^2 - p^2) on (0, Lambda)  =  L0
    L0 = ln((Lambda + k0) / (Lambda - k0)) / (2 k0).

When the on-shell momentum coincides with a grid node (the half-on-shell
matrix needs every column at its own node), the subtraction deletes that
node's sample of the smooth part of the integrand.  Its value is restored
through the derivative identity

    lim_{p -> k0} [f(p) - f(k0)] / (k0^2 - p^2) = -(d/du)(u f) / du at k0,
    u = p^2,

evaluated as a Lagrange derivative stencil in the Gauss-Legendre map
variable x (width 17) divided by du/dx.  Differentiating in x rather
than in u keeps the stencil on the natural polynomial variable of the
grid and is what pushes the scheme to 1e-10 class accuracy.  The weights
of all n on-node columns form one n x n matrix, built at once from
closed-form stencil weights (PrincipalValueWeights).

Both the half-on-shell matrix and the phase curve solve many systems
(I - V D) x = b that share V and differ in the diagonal weights D.  The
kernels met in practice have low numerical rank (r = 53 to 113 of
n = 128 to 256), so V is factored once as U Lam U^T over the eigenvalues
above RANK_TOL = 1e-15 of the largest, and each system becomes an r x r
one through the Woodbury identity (Hager, SIAM Rev. 31 (1989) 221): the
discrete form of the separable expansion of Ernst, Shakin & Thaler,
Phys. Rev. C 8 (1973) 46.  The small systems are solved ROW_CHUNK = 8
at a time, and one refinement step against the full V brings every
solution back to the accuracy of the direct dense solve.

The complex T-matrix follows from K by the Heitler relation

    T = K / (1 + i pi rho_k K(k, k)),    rho_k = k / (2 (2 pi)^3),

which enforces on-shell unitarity exactly at the discrete level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SolverError
from .grid import TWO_PI_CUBED, MomentumGrid
from .kernels import Kernel, require_on_grid

STENCIL_WIDTH = 17
# eigenvalues of V below RANK_TOL times the largest |eigenvalue| are left
# out of the low-rank factor of the standing-wave solves
RANK_TOL = 1e-15
# rows per batched small solve
ROW_CHUNK = 8


def density_of_states(k):
    """rho_k = k / (2 (2 pi)^3), the on-shell state density."""
    return k / (2.0 * TWO_PI_CUBED)


@dataclass(frozen=True, eq=False)
class ScatteringSolution:
    """Half-on-shell solution at a single on-shell momentum.

    The column arrays have n + 1 entries: the grid nodes followed by the
    on-shell point itself, which the solver appends as an extra node.

    Parameters
    ----------
    on_shell_momentum : float
    momenta : ndarray
        The n + 1 sample momenta (grid nodes plus the on-shell point).
    half_on_shell_K : ndarray
        Real K(k_i, k) column.
    half_on_shell_T : ndarray
        Complex T(k_i, k) column.
    delta : float
        Phase shift in rad, principal branch of arctan(-pi rho K(k,k)).
    rho : float
        On-shell density of states.
    """

    on_shell_momentum: float
    momenta: np.ndarray
    half_on_shell_K: np.ndarray
    half_on_shell_T: np.ndarray
    delta: float
    rho: float

    @property
    def on_shell_K(self) -> float:
        return float(self.half_on_shell_K[-1])

    @property
    def on_shell_t(self) -> complex:
        return complex(self.half_on_shell_T[-1])


@dataclass(frozen=True, eq=False)
class PhaseShiftCurve:
    """Unwrapped phase-shift curve with its endpoint extrapolations.

    delta0 extrapolates quadratically from the three smallest momenta.
    deltaInf is the asymptote of a d + a/k + b/k^3 tail fit over the top
    third of the samples; the raw value at the last sample still carries
    an O(1/k) tail and would corrupt the bound-state count.
    """

    momenta: np.ndarray
    delta: np.ndarray
    delta0: float
    deltaInf: float


def _x_derivative_stencils(x, width):
    """Lagrange weights of d/dx at every x[m], one clipped window per row.

    Row m of idx holds the window, of the given width, clipped to the
    array and never centered past its ends; row m of d holds its weights.
    With a_l = prod_{k != l} (x_l - x_k) over the window, the weight on
    x_l, l != m, is a_m / (a_l (x_m - x_l)) and the one on x_m itself is
    sum_{k != m} 1 / (x_m - x_k) (Berrut & Trefethen, SIAM Rev. 46
    (2004) 501, sec. 9).
    """
    n = x.size
    width = min(width, n)
    rows = np.arange(n)
    lo = np.clip(rows - width // 2, 0, n - width)
    idx = lo[:, None] + np.arange(width)
    xs = x[idx]
    diff = xs[:, :, None] - xs[:, None, :]
    diff[:, np.arange(width), np.arange(width)] = 1.0
    a = np.prod(diff, axis=2)
    mloc = rows - lo
    gap = x[:, None] - xs
    gap[rows, mloc] = np.inf            # 1/gap is then zero at x_m itself
    inv = 1.0 / gap
    d = a[rows, mloc][:, None] / a * inv
    d[rows, mloc] = np.sum(inv, axis=1)
    return idx, d


class PrincipalValueWeights:
    """Quadrature weights of the on-node subtraction scheme, all columns at once.

    Column m of ``matrix`` holds the weights W for on-shell node m:

        sum_j W_j f(k_j) / (2 pi)^3  ~  PV integral p^2 dp/(2 pi)^3 f(p)/(k_m^2 - p^2)

    for smooth f, including the derivative correction that restores the
    sample the subtraction removes at j = m.  The matrix is built once per
    instance and is read-only; it does not include the 1/(2 pi)^3.
    """

    def __init__(self, grid: MomentumGrid):
        k, w = grid.nodes, grid.weights
        u = k * k
        nodes = np.arange(grid.n)
        idx, d = _x_derivative_stencils(grid.gauss_x, STENCIL_WIDTH)
        dudx = 2.0 * k * grid.map_jacobian
        # row m of rows is column m of the matrix, so columns are contiguous
        gap = u[:, None] - u[None, :]
        gap[nodes, nodes] = np.inf      # drops j = m from the terms and their sum
        rows = (w * u) / gap
        log_term = np.log((grid.cutoff + k) / (grid.cutoff - k)) / (2.0 * k)
        rows[nodes, nodes] = u * (log_term - np.sum(np.divide(w, gap, out=gap), axis=1))
        rows[nodes[:, None], idx] += -w[:, None] * d * u[idx] / dudx[:, None]
        self.matrix = rows.T
        self.matrix.setflags(write=False)

    def column(self, m: int) -> np.ndarray:
        """Weights for on-shell node m, a view of ``matrix``."""
        return self.matrix[:, m]


def _require_scattering_kernel(V: Kernel, grid: MomentumGrid):
    if not isinstance(V, Kernel) or V.symmetry != "symmetric":
        raise ContractError("scattering requires a symmetric momentum-space kernel")
    require_on_grid(V, grid)


def _kernel_rows(V: Kernel, grid: MomentumGrid, qs: np.ndarray):
    """Rows V(q, k_j) over the grid nodes and diagonal values V(q, q), per q in qs.

    Solver-grade with an evaluator; otherwise interpolated from the stored
    samples, fine for phase curves and counting but not for 1e-8 checks.
    """
    if V.evaluate is not None:
        return V.evaluate(qs, grid.nodes), np.diagonal(V.evaluate(qs, qs))
    c = grid.interpolation_matrix(qs)
    rows = c @ V.values
    return rows, np.sum(rows * c, axis=1)


def _off_node_weights(grid: MomentumGrid, ks: np.ndarray) -> np.ndarray:
    """Subtraction weights over 2 pi^3 for off-node on-shell momenta, one row per k.

    Column j < n weighs grid node j; the last column weighs the on-shell
    point appended as an (n+1)-th node and restores the subtracted
    integral through L0.
    """
    k, w = grid.nodes, grid.weights
    u = k * k
    u0 = ks * ks
    gap = u0[:, None] - u
    weights = np.empty((ks.size, grid.n + 1))
    weights[:, :-1] = w * u / gap
    log_term = np.log((grid.cutoff + ks) / (grid.cutoff - ks)) / (2.0 * ks)
    weights[:, -1] = u0 * (log_term - np.sum(w / gap, axis=1))
    return weights / TWO_PI_CUBED


def _k_column(V: Kernel, grid: MomentumGrid, k_on, row, diag) -> np.ndarray:
    """K(k_i, k_on) from the (n+1)-node system bordered by row V(k_on, k_j) and diag."""
    n = grid.n
    v_ext = np.empty((n + 1, n + 1))
    v_ext[:n, :n] = V.values
    v_ext[n, :n] = row
    v_ext[:n, n] = row
    v_ext[n, n] = diag

    weights = _off_node_weights(grid, np.array([k_on]))[0]
    a = np.eye(n + 1) - v_ext * weights[None, :]
    try:
        return np.linalg.solve(a, v_ext[:, n])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular standing-wave system at k_on={k_on}") from exc


def _standing_wave_rows(v: np.ndarray, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i of the result solves (I - v diag(d[i])) x = b[i].

    v is factored once as U Lam U^T over the eigenpairs with |lambda|
    above RANK_TOL times the largest.  By the Woodbury identity each row
    is then x = b + U y with the r x r system (Lam^-1 - U^T D U) y = U^T D b,
    D = diag(d[i]).  The small matrices are built one row at a time into a
    buffer of ROW_CHUNK and solved by one batched np.linalg.solve per
    chunk, so no (rows, r, n) array is formed.  One refinement step
    follows: the residual b - x + v (d * x), taken with the full v, goes
    through the same small systems and its correction is added to x.  It
    undoes the truncation and the rounding that a nearly singular row
    amplifies: the phase of a sample 2.4e-6 from a node at n = 256 differs
    from the direct (n+1)-node solve by up to 2.3e-6 without it, and by
    6e-10 with it.
    """
    lam, u = np.linalg.eigh(v)
    keep = np.abs(lam) > RANK_TOL * np.max(np.abs(lam))
    u = u[:, keep]
    inv_lam = np.diag(1.0 / lam[keep])
    small = np.empty((ROW_CHUNK,) + inv_lam.shape)

    def woodbury(dc, rhs):
        y = np.linalg.solve(small[:len(dc)], ((dc * rhs) @ u)[:, :, None])
        return rhs + y[:, :, 0] @ u.T

    x = np.empty_like(b)
    for lo in range(0, b.shape[0], ROW_CHUNK):
        dc, bc = d[lo:lo + ROW_CHUNK], b[lo:lo + ROW_CHUNK]
        for j, dj in enumerate(dc):
            np.matmul(u.T * dj, u, out=small[j])
            np.subtract(inv_lam, small[j], out=small[j])
        try:
            xc = woodbury(dc, bc)
            x[lo:lo + ROW_CHUNK] = xc + woodbury(dc, bc - xc + (dc * xc) @ v.T)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular standing-wave system in rows {lo} to "
                              f"{lo + len(bc) - 1}") from exc
    return x


def solve_k_matrix(V: Kernel, grid: MomentumGrid, k_on: float) -> ScatteringSolution:
    """Standing-wave solve at one off-node on-shell momentum.

    The on-shell point is appended to the grid as an (n+1)-th node, so
    the subtraction scheme needs no derivative stencil here: the
    appended node itself samples the smooth part of the integrand.

    Parameters
    ----------
    V : Kernel
        Symmetric momentum-space kernel.
    grid : MomentumGrid
    k_on : float
        On-shell momentum, inside (0, cutoff) and not a grid node.

    Raises
    ------
    ContractError
        For on-shell momenta outside the open interval or on a node.
    SolverError
        If the linear system is singular at this momentum.
    """
    _require_scattering_kernel(V, grid)
    k = grid.nodes
    if not (0.0 < k_on < grid.cutoff):
        raise ContractError(f"on-shell momentum {k_on} outside (0, {grid.cutoff})")
    if np.min(np.abs(k - k_on)) < 1e-12 * grid.cutoff:
        raise ContractError(
            f"on-shell momentum {k_on} coincides with a grid node; "
            "the half-on-shell matrix covers that case"
        )

    rows, diag = _kernel_rows(V, grid, np.array([k_on]))
    k_col = _k_column(V, grid, k_on, rows[0], diag[0])
    rho = density_of_states(k_on)
    k_on_shell = k_col[-1]
    delta = float(np.arctan(-np.pi * rho * k_on_shell))
    t_col = k_col / (1.0 + 1j * np.pi * rho * k_on_shell)
    return ScatteringSolution(on_shell_momentum=float(k_on),
                              momenta=np.append(k, k_on),
                              half_on_shell_K=k_col, half_on_shell_T=t_col,
                              delta=delta, rho=float(rho))


def half_on_shell_T_matrix(V: Kernel, grid: MomentumGrid) -> np.ndarray:
    """Complex half-on-shell matrix T(k_i, k_j), column j on shell at k_j.

    Every column is a standing-wave solve with the on-shell point ON its
    grid node, using the derivative-corrected subtraction weights, then
    converted through the Heitler relation.  The weights depend on the
    grid alone and are built here.  The n column solves share V and go
    through the low-rank core: one eigendecomposition of V, truncated at
    RANK_TOL, then one r x r system per column, ROW_CHUNK columns per
    batched solve, and one refinement step with the full V.  The result
    agrees with n direct dense solves to within 1e-13 of its largest
    entry.
    """
    _require_scattering_kernel(V, grid)
    pv = PrincipalValueWeights(grid)
    v = V.values
    k_half = _standing_wave_rows(v, pv.matrix.T / TWO_PI_CUBED, v.T).T
    rho = density_of_states(grid.nodes)
    return k_half / (1.0 + 1j * np.pi * rho * np.diag(k_half))[None, :]


def phase_curve(V: Kernel, grid: MomentumGrid, samples: int = 64) -> PhaseShiftCurve:
    """Continuous phase-shift curve on a log-spaced momentum set.

    Phases are computed modulo pi at each sample, unwrapped to a
    continuous branch, then anchored by the convention delta -> 0 at the
    cutoff (the branch Levinson counting assumes).

    Each sample q borders the grid with its own node.  The bordered node
    is removed by the Schur complement: z solves the grid block
    (I - V D_q) z = V(., q) in the low-rank core (truncation at RANK_TOL,
    ROW_CHUNK samples per batched solve, one refinement step), then
    g = V(q, q) + V(q, .) D_q z and K(q, q) = g / (1 - w0_q g), where D_q
    and w0_q are the grid and on-shell subtraction weights over 2 pi^3.

    Parameters
    ----------
    V : Kernel
    grid : MomentumGrid
    samples : int
        At least 16; the top third feeds the asymptote fit.
    """
    if samples < 16:
        raise ContractError(f"need at least 16 samples, got {samples}")
    _require_scattering_kernel(V, grid)
    lo = 5.0e-4 * grid.cutoff
    hi = 0.97 * grid.cutoff
    ks = np.geomspace(lo, hi, samples)
    # nudge any sample that collides with a grid node
    gap = np.min(np.abs(np.subtract.outer(ks, grid.nodes)), axis=1)
    ks[gap < 1e-9 * grid.cutoff] *= 1.0 + 1e-7

    rows, diag = _kernel_rows(V, grid, ks)
    weights = _off_node_weights(grid, ks)
    d, w0 = weights[:, :-1], weights[:, -1]
    z = _standing_wave_rows(V.values, d, rows)
    g = diag + np.sum(rows * d * z, axis=1)
    raw = np.arctan(-np.pi * density_of_states(ks) * (g / (1.0 - w0 * g)))

    delta = np.unwrap(2.0 * raw) / 2.0
    delta = delta - np.round(delta[-1] / np.pi) * np.pi

    coeffs = np.polyfit(ks[:3], delta[:3], 2)
    delta0 = float(np.polyval(coeffs, 0.0))

    tail = slice(2 * samples // 3, samples)
    kt = ks[tail]
    design = np.vstack([np.ones(kt.size), 1.0 / kt, 1.0 / kt ** 3]).T
    asymptote = float(np.linalg.lstsq(design, delta[tail], rcond=None)[0][0])

    return PhaseShiftCurve(momenta=ks, delta=delta, delta0=delta0,
                           deltaInf=asymptote)
