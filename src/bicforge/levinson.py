"""State counting from phase-shift curves.

The phase shift of a well-behaved kernel drops by pi per bound state
between zero and infinite momentum, regardless of where the states sit.
Comparing that count with the number of negative-energy eigenvalues
isolates how many states are embedded in the continuum: they are felt
by the phase but missing from the spectrum below zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CensusAmbiguousError, CensusIndeterminateError, ConsistencyError
from .grid import MomentumGrid
from .kernels import Kernel, require_on_grid
from .scattering import PhaseShiftCurve, phase_curve
from .spectral import _hamiltonian

AMBIGUITY_GATE = 0.25 * np.pi


@dataclass(frozen=True)
class BicCensus:
    """Bound-state bookkeeping for one kernel.

    n_total comes from the phase drop, n_minus from the negative
    spectrum, and n_plus = n_total - n_minus counts states embedded in
    the continuum.
    """

    n_total: int
    n_minus: int
    n_plus: int
    delta0: float
    deltaInf: float


def count_states(curve: PhaseShiftCurve):
    """Bound-state count from the endpoint phase drop.

    Returns (count, residual) where residual is the distance of
    (delta(0) - delta(inf)) / pi from the nearest integer, in radians.
    A residual beyond pi/4 means the curve endpoints are not trustable
    and raises CensusAmbiguousError.
    """
    drop = curve.delta0 - curve.deltaInf
    count = int(round(drop / np.pi))
    residual = abs(drop - count * np.pi)
    if residual > AMBIGUITY_GATE:
        raise CensusAmbiguousError(
            f"phase drop {drop:.4f} rad is {residual:.4f} rad from a multiple of pi"
        )
    return count, residual


def bic_census(V: Kernel, grid: MomentumGrid, samples: int = 64,
               curve: PhaseShiftCurve | None = None) -> BicCensus:
    """Count total, negative-energy, and embedded states of a kernel.

    The phase drop is read from `curve` when one is given (it must be
    V's own curve; samples is then unused), otherwise from a fresh
    `phase_curve(V, grid, samples)`.

    An eigenvalue indistinguishable from zero (below a tenth of the
    smallest grid k^2) sits exactly at threshold, where neither the
    spectrum side nor the phase side can classify it; that case raises
    CensusIndeterminateError rather than guessing.
    """
    if not isinstance(V, Kernel) or V.symmetry != "symmetric":
        raise ConsistencyError("census requires a symmetric momentum-space kernel")
    require_on_grid(V, grid)
    evals = np.linalg.eigvalsh(_hamiltonian(V, grid))
    k0 = grid.nodes[0]
    if np.min(np.abs(evals)) < 0.1 * k0 * k0:
        raise CensusIndeterminateError(
            "an eigenvalue sits at the continuum threshold; "
            "the census cannot assign it to either side"
        )
    n_minus = int(np.sum(evals < 0.0))

    if curve is None:
        curve = phase_curve(V, grid, samples=samples)
    n_total, _ = count_states(curve)
    n_plus = n_total - n_minus
    if n_plus < 0:
        raise ConsistencyError(
            f"phase drop counts {n_total} states but the spectrum holds {n_minus}"
        )
    return BicCensus(n_total=n_total, n_minus=n_minus, n_plus=n_plus,
                     delta0=curve.delta0, deltaInf=curve.deltaInf)
