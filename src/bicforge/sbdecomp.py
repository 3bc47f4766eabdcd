"""SB-decomposition V = V_S + V_B, embedded-state construction and recovery.

The decomposition splits a Hermitian kernel into a scattering part V_S,
fixed entirely by the half-on-shell T-matrix,

    V_S(k',k) = T(k',k) + integral p^2 dp/(2 pi)^3
                T(k',p) [PV/(p^2 - k^2) + i pi delta(p^2 - k^2)] T*(k,p),

and a bound part carried by the (possibly embedded) bound states,

    V_B(k',k) = sum_i (E_i - k'^2) phi_i(k') phi_i(k),

which is manifestly low rank and, for E_i != k'^2 profiles, asymmetric.
Moving a bound state to any target energy without touching V_S is the
rank-one update V -> V + (E_new - E_0)|phi><phi|; pushing E_new above
zero embeds the state in the continuum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ContractError, ExtractionError, ShapeError
from .grid import TWO_PI_CUBED, MomentumGrid, inner_product
from .kernels import Kernel, rank_one_update, require_on_grid
from .scattering import PrincipalValueWeights, density_of_states, half_on_shell_T_matrix
from .spectral import BoundState, _sign_fix, negative_energy_states, schrodinger_residual

ORTHONORMAL_TOL = 1e-8
ORIGIN_SIGN_TOL = 1e-4
EXTRACT_FLOOR = 1e-4
RANK_RATIO_TOL = 1e-6
MAX_EMBEDDED_RANK = 8


@dataclass(frozen=True, eq=False)
class SBDecomposition:
    """The pair (V_S, V_B) plus the bound states V_B encodes, and the
    half-on-shell T-matrix V_S was built from.

    bound_list[:n_negative] holds the negative-energy spectrum in
    ascending order; the rest are the embedded states recovered from
    V_B, each carrying its fitted K^2 as its energy.
    """

    v_s: Kernel
    v_b: Kernel
    bound_list: list
    t_matrix: np.ndarray
    n_negative: int


@dataclass(frozen=True)
class BicSignature:
    """Origin sign and sign-change momenta of a bound-part kernel profile.

    origin_sign is +1, -1 or 0 for the kernel value extrapolated to
    (0, 0); a positive value is the direct fingerprint of an embedded
    state.  node_momenta lists the k' values where the profile at fixed
    small k changes sign; a single-state V_B at energy E > 0 changes
    sign exactly at k' = sqrt(E).
    """

    origin_sign: int
    node_momenta: tuple


def orthonormalize(vectors, grid: MomentumGrid) -> list:
    """Modified Gram-Schmidt under the grid measure."""
    out = []
    for v in vectors:
        v = np.asarray(v, dtype=float).copy()
        for u in out:
            v -= inner_product(u, v, grid) * u
        norm = np.sqrt(inner_product(v, v, grid))
        if norm < 1e-12:
            raise ContractError("linearly dependent input to orthonormalize")
        out.append(v / norm)
    return out


def _check_orthonormal(states, grid):
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            want = 1.0 if i == j else 0.0
            got = inner_product(a.samples, b.samples, grid)
            if abs(got - want) > ORTHONORMAL_TOL:
                raise ContractError(
                    f"states {i},{j} not orthonormal: <i|j> = {got:.3e}"
                )


def _v_b_values(states, grid):
    k = grid.nodes
    values = np.zeros((grid.n, grid.n))
    for st in states:
        values += np.outer((st.energy - k * k) * st.samples, st.samples)
    return values


def build_v_b(states, grid: MomentumGrid) -> Kernel:
    """Bound-part kernel sum_i (E_i - k'^2) phi_i(k') phi_i(k).

    States must be mutually orthonormal under the grid measure, checked
    to 1e-8.  The result is flagged general: the energy prefactor acts
    on the row index only.
    """
    _check_orthonormal(states, grid)
    return Kernel(grid=grid, values=_v_b_values(states, grid), symmetry="general")


def _t_omega_dagger(t_matrix, grid, pv):
    """F = T Omega_+^dagger.

    Column m applies the conjugated outgoing resolvent at energy k_m^2
    to the T columns; the principal value uses the same subtraction
    weights as the solver, the delta term is added analytically.
    """
    t = np.asarray(t_matrix, dtype=complex)
    rho = density_of_states(grid.nodes)
    f = t @ (np.conj(t).T * (pv.matrix / -TWO_PI_CUBED))
    f += t
    f += t * (1j * np.pi * rho * np.conj(np.diag(t)))[None, :]
    return f


def v_s_from_T(t_matrix: np.ndarray, grid: MomentumGrid) -> Kernel:
    """Scattering-part kernel from the half-on-shell T-matrix.

    The principal value uses the subtraction weights of the grid, built
    here as half_on_shell_T_matrix builds them.  The imaginary part must
    cancel between the delta term and the unitarity content of T; a
    residue above 1e-8 relative signals a bad T-matrix and raises
    ConsistencyError.  The real result is genuinely asymmetric whenever
    bound states exist: its asymmetric part is the exact negative of
    V_B's, so that the sum V_S + V_B comes out symmetric.
    """
    t_matrix = np.asarray(t_matrix)
    if t_matrix.shape != (grid.n, grid.n):
        raise ShapeError("T-matrix does not match the grid")
    f = _t_omega_dagger(t_matrix, grid, PrincipalValueWeights(grid))
    scale = np.max(np.abs(f.real))
    if scale > 0 and np.max(np.abs(f.imag)) > 1e-8 * scale:
        raise ConsistencyError(
            f"imaginary residue {np.max(np.abs(f.imag)):.3e} above tolerance; "
            "the T-matrix violates on-shell unitarity"
        )
    return Kernel(grid=grid, values=f.real, symmetry="general")


def energy_shift(V0: Kernel, state: BoundState, e_new: float) -> Kernel:
    """V0 + (E_new - E_0)|phi><phi|, the exact bound-state mover.

    Leaves the half-on-shell T-matrix of V0 invariant while carrying the
    state phi from its eigenenergy E_0 to e_new; e_new > 0 embeds it in
    the continuum.  Requires phi to actually be an eigenstate of V0
    (Schrodinger residual at most 1e-6).
    """
    res = schrodinger_residual(V0, state)
    if res > 1e-6:
        raise ContractError(
            f"state is not an eigenstate of the kernel (residual {res:.3e})"
        )
    return rank_one_update(V0, state.samples, state.samples,
                           e_new - state.energy,
                           left_fn=state.value_at, right_fn=state.value_at)


def detect_bic_signature(V_B: Kernel) -> BicSignature:
    """Origin sign and sign-change nodes of the bound-part kernel.

    The origin value is extrapolated quadratically from the three
    smallest momenta in both arguments; values below 1e-4 of the kernel
    maximum count as zero (the zero-energy case is exact at the origin
    but reaches it only through quadrature noise).
    """
    if not isinstance(V_B, Kernel):
        raise ContractError("the signature needs a momentum-space kernel")
    values = V_B.values
    k = V_B.grid.nodes
    scale = np.max(np.abs(values))
    if scale == 0.0:
        return BicSignature(origin_sign=0, node_momenta=())

    col_fits = [np.polyval(np.polyfit(k[:3], values[:3, j], 2), 0.0) for j in range(3)]
    v00 = np.polyval(np.polyfit(k[:3], col_fits, 2), 0.0)
    origin = 0 if abs(v00) <= ORIGIN_SIGN_TOL * scale else int(np.sign(v00))

    profile = values[:, 0]
    pmax = np.max(np.abs(profile))
    nodes = []
    sig = np.flatnonzero(np.abs(profile) > 1e-6 * pmax)
    for a, b in zip(sig[:-1], sig[1:]):
        if profile[a] * profile[b] < 0:
            frac = profile[a] / (profile[a] - profile[b])
            nodes.append(float(k[a] + frac * (k[b] - k[a])))
    return BicSignature(origin_sign=origin, node_momenta=tuple(nodes))


def extract_bics(V_B: Kernel, negatives) -> list:
    """Recover embedded states from the bound-part kernel.

    Subtracts the contribution of the supplied negative-energy states,
    then factors the remainder by singular value decomposition.  Each
    rank-one component yields the wavefunction (right factor, normalized
    under the measure) and its energy from the zero of the left factor:
    the left factor is alpha (K^2 - k'^2) phi(k'), so regressing it on
    [phi, -k'^2 phi] over the region where phi is significant gives K^2
    as a coefficient ratio, with no bracketing to fail at threshold.

    Returns a list of (BoundState, K^2) pairs, empty when the remainder
    is pure quadrature noise (leading singular value below 1e-4 of the
    kernel norm); raises ExtractionError when the remainder is not
    numerically low rank.
    """
    if not isinstance(V_B, Kernel):
        raise ContractError("extraction needs a momentum-space kernel")
    grid = V_B.grid
    uu = grid.nodes ** 2
    remainder = V_B.values - _v_b_values(negatives, grid)
    scale = np.linalg.norm(V_B.values)
    if scale == 0.0:
        return []
    u_mat, svals, vt_mat = np.linalg.svd(remainder)
    if svals[0] <= EXTRACT_FLOOR * scale:
        return []
    # quadrature noise scales with the full kernel, not with the leading
    # component, so the rank gate gets a kernel-norm floor
    threshold = max(RANK_RATIO_TOL * svals[0], EXTRACT_FLOOR * scale)
    rank = int(np.sum(svals > threshold))
    if rank > MAX_EMBEDDED_RANK:
        raise ExtractionError(
            f"remainder has numerical rank {rank}; not a sum of embedded states"
        )

    out = []
    for i in range(rank):
        phi = vt_mat[i, :]
        phi = phi / np.sqrt(inner_product(phi, phi, grid))
        phi = _sign_fix(phi)
        left = svals[i] * u_mat[:, i]
        mask = np.abs(phi) > 1e-3 * np.max(np.abs(phi))
        design = np.vstack([phi[mask], -uu[mask] * phi[mask]]).T
        coeffs, *_ = np.linalg.lstsq(design, left[mask], rcond=None)
        fit = np.linalg.norm(left[mask] - design @ coeffs) / np.linalg.norm(left[mask])
        if fit > 1e-2 or coeffs[1] == 0.0:
            raise ExtractionError(
                f"component {i} does not factor as (K^2 - k'^2) phi(k') phi(k) "
                f"(fit residual {fit:.2e})"
            )
        k_sq = float(coeffs[0] / coeffs[1])
        out.append((BoundState(energy=k_sq, samples=phi, grid=grid), k_sq))
    return out


def sb_decompose(V: Kernel, grid: MomentumGrid) -> SBDecomposition:
    """Full decomposition of a symmetric momentum-space kernel.

    Solves for the half-on-shell T-matrix, builds V_S from it, takes
    V_B as the remainder V - V_S, and populates the bound list with the
    negative-energy spectrum plus any embedded states recovered from
    V_B.  The T-matrix is returned with the parts, so callers that also
    need it do not solve it again.
    """
    t_matrix = half_on_shell_T_matrix(V, grid)
    v_s = v_s_from_T(t_matrix, grid)
    v_b = Kernel(grid=grid, values=V.values - v_s.values, symmetry="general")
    negatives = negative_energy_states(V, grid)
    embedded = [st for st, _ in extract_bics(v_b, negatives)]
    return SBDecomposition(v_s=v_s, v_b=v_b, bound_list=negatives + embedded,
                           t_matrix=t_matrix, n_negative=len(negatives))


def verify_conditions_AB(t_matrix: np.ndarray, states, grid: MomentumGrid):
    """Residuals of the two consistency conditions tying T to the bound space.

    Condition (A) requires T Omega_+^dagger - Omega_+ T^dagger to equal
    the commutator [H0, P_B] over the bound-space projector; condition
    (B) requires Omega_+^dagger T to be Hermitian.  Both residuals are
    Frobenius norms relative to ||T||; states may be empty (free bound
    space).
    """
    t_matrix = np.asarray(t_matrix, dtype=complex)
    t_norm = np.linalg.norm(t_matrix)
    if t_norm == 0.0:
        return 0.0, 0.0
    pv = PrincipalValueWeights(grid)
    k = grid.nodes

    f = _t_omega_dagger(t_matrix, grid, pv)
    comm = np.zeros((grid.n, grid.n))
    for st in states:
        h0_phi = (k * k) * st.samples
        comm += np.outer(h0_phi, st.samples) - np.outer(st.samples, h0_phi)
    res_a = np.linalg.norm(f - f.conj().T - comm) / t_norm

    rho = density_of_states(k)
    g = (pv.matrix / TWO_PI_CUBED * np.conj(t_matrix)).T @ t_matrix
    g += t_matrix
    g += (1j * np.pi * rho * np.conj(np.diag(t_matrix)))[:, None] * t_matrix
    res_b = np.linalg.norm(g - g.conj().T) / t_norm
    return float(res_a), float(res_b)


def s_space_perturb(V0: Kernel, state: BoundState, A: Kernel,
                    strength: float = 1.0) -> Kernel:
    """V0 + P_S (strength A) P_S with P_S projecting off the given state.

    The projected perturbation leaves phi an exact eigenstate at its
    original energy while changing the scattering content; it is the
    constructive route to an alternate T-matrix over the same bound
    space.  The caller should re-check the negative spectrum: a strong
    perturbation may create additional bound states.
    """
    res = schrodinger_residual(V0, state)
    if res > 1e-6:
        raise ContractError(
            f"state is not an eigenstate of the kernel (residual {res:.3e})"
        )
    grid = state.grid
    require_on_grid(A, grid)
    mu_phi = grid.measure * state.samples
    phi = state.samples
    m_vals = strength * A.values
    y = m_vals @ mu_phi
    s_scal = float(mu_phi @ y)
    values = (V0.values + m_vals - np.outer(phi, y) - np.outer(y, phi)
              + s_scal * np.outer(phi, phi))

    evaluate = None
    if V0.evaluate is not None and A.evaluate is not None and state.value_at is not None:
        v0_eval, a_eval, phi_at = V0.evaluate, A.evaluate, state.value_at
        nodes = grid.nodes

        def evaluate(q, kk):
            phi_q, phi_t = phi_at(q), phi_at(kk)
            y_q = strength * (a_eval(q, nodes) @ mu_phi)
            y_t = strength * (a_eval(kk, nodes) @ mu_phi)
            outer = np.multiply.outer
            return (v0_eval(q, kk) + strength * a_eval(q, kk) - outer(phi_q, y_t)
                    - outer(y_q, phi_t) + outer(s_scal * phi_q, phi_t))

    return Kernel(grid=grid, values=values, symmetry="symmetric", evaluate=evaluate)
