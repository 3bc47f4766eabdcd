"""Bound-state spectra of H = H0 + V on the momentum grid.

The Hamiltonian is symmetrized by the similarity transform with
sqrt(measure) so a dense symmetric eigensolver applies.  Only
negative-energy eigenpairs are physical bound states; positive-energy
eigenvectors of the discretized operator mix any embedded state with
scattering states and are deliberately not returned.  Embedded states
are recovered elsewhere, from the decomposition of the potential.

The eigensolver's smallest wavefunction components (deep in the
low-momentum tail) carry a relative error that does not shrink with
grid size.  Because downstream constructions are sensitive to exactly
those components, every returned state gets a short fixed-point polish:
its lowest components are recomputed from the eigenvalue equation

    phi(k) = [sum_l measure_l V(k, k_l) phi(k_l)] / (E - k^2),

which is well conditioned for E < 0.  Two passes push the relative
defect of the lowest components from about 5e-10 to machine level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, ShapeError
from .grid import MomentumGrid, inner_product
from .kernels import Kernel, require_on_grid

REFRESH_COMPONENTS = 13
REFRESH_PASSES = 2


@dataclass(frozen=True, eq=False)
class BoundState:
    """A normalized bound-state wavefunction on a momentum grid.

    Parameters
    ----------
    energy : float
        Eigenenergy in fm^-2.  Negative for ordinary bound states;
        constructions may carry states at zero or positive energy.
    samples : ndarray
        phi(k_i), normalized so inner_product(phi, phi) = 1.
    grid : MomentumGrid
    value_at : callable, optional
        value_at(q) -> phi(q) at off-grid momentum: a float for a
        scalar q, an array of q's shape for an array q.  Computed from
        the eigenvalue equation; present when the defining kernel had a
        row evaluator.
    """

    energy: float
    samples: np.ndarray
    grid: MomentumGrid
    value_at: Optional[Callable] = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.shape != self.grid.nodes.shape:
            raise ShapeError("state samples do not match the grid")
        object.__setattr__(self, "samples", s)


def _sign_fix(phi):
    """First component exceeding 1e-12 of the max is made positive."""
    idx = np.flatnonzero(np.abs(phi) > 1e-12 * np.max(np.abs(phi)))
    if idx.size and phi[idx[0]] < 0:
        return -phi
    return phi


def _polish(phi, energy, v_values, grid):
    k = grid.nodes
    m = min(REFRESH_COMPONENTS, grid.n // 4)
    if m == 0 or energy >= 0:
        return phi
    for _ in range(REFRESH_PASSES):
        applied = v_values @ (grid.measure * phi)
        phi = phi.copy()
        phi[:m] = applied[:m] / (energy - k[:m] ** 2)
        phi = phi / np.sqrt(inner_product(phi, phi, grid))
    return _sign_fix(phi)


def _hamiltonian(V: Kernel, grid: MomentumGrid) -> np.ndarray:
    """diag(k^2) + s V s with s = sqrt(measure), symmetrized."""
    k = grid.nodes
    s = np.sqrt(grid.measure)
    h = np.diag(k * k) + s[:, None] * V.values * s[None, :]
    return 0.5 * (h + h.T)


def negative_energy_states(V: Kernel, grid: MomentumGrid) -> list:
    """All bound states with E < 0, in ascending energy order.

    Parameters
    ----------
    V : Kernel
        Symmetric momentum-space kernel.
    grid : MomentumGrid

    Returns
    -------
    list of BoundState
        Normalized under the grid measure, signs fixed so the first
        significant component is positive.  Empty for kernels without
        negative-energy states.

    Raises
    ------
    ContractError
        If the kernel is not symmetric momentum-space on this grid.
    """
    if not isinstance(V, Kernel) or V.symmetry != "symmetric":
        raise ContractError("need a symmetric momentum-space kernel")
    require_on_grid(V, grid)
    s = np.sqrt(grid.measure)
    evals, evecs = np.linalg.eigh(_hamiltonian(V, grid))

    states = []
    for i in np.flatnonzero(evals < 0.0):
        phi = evecs[:, i] / s
        phi = phi / np.sqrt(inner_product(phi, phi, grid))
        phi = _polish(_sign_fix(phi), evals[i], V.values, grid)
        value_at = None
        if V.evaluate is not None:
            value_at = _eigen_evaluator(V.evaluate, grid, float(evals[i]), phi)
        states.append(BoundState(energy=float(evals[i]), samples=phi,
                                 grid=grid, value_at=value_at))
    return states


def _eigen_evaluator(row_eval, grid, energy, phi):
    weighted = grid.measure * phi

    def value_at(q):
        q = np.asarray(q, dtype=float)
        return row_eval(q, grid.nodes) @ weighted / (energy - q * q)

    return value_at


def ground_state(V: Kernel, grid: MomentumGrid) -> BoundState:
    """Lowest negative-energy state; raises ContractError if none exists."""
    states = negative_energy_states(V, grid)
    if not states:
        raise ContractError("kernel supports no negative-energy state")
    return states[0]


def schrodinger_residual(V: Kernel, state: BoundState) -> float:
    """Measure-norm of (H - E) applied to a state.

    Returns sqrt(sum_i measure_i r_i^2) with
    r = k^2 phi + V (measure phi) - E phi.
    """
    grid = state.grid
    require_on_grid(V, grid)
    k = grid.nodes
    phi = state.samples
    r = k * k * phi + V.values @ (grid.measure * phi) - state.energy * phi
    return float(np.sqrt(np.sum(grid.measure * r * r)))
