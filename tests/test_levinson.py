"""Bound-state counting from phase drops and the negative spectrum."""

import numpy as np
import pytest

from bicforge import (
    CensusAmbiguousError,
    CensusIndeterminateError,
    ConsistencyError,
    PhaseShiftCurve,
    bic_census,
    count_states,
    energy_shift,
    gaussian_momentum_kernel,
    phase_curve,
)
from conftest import SEED_B

SEED_DELTA0 = 3.1415930784855473


def _synthetic_curve(drop):
    k = np.linspace(0.1, 30.0, 32)
    return PhaseShiftCurve(momenta=k, delta=np.linspace(drop, 0.0, 32),
                           delta0=drop, deltaInf=0.0)


def test_count_two_states_from_clean_drop():
    count, residual = count_states(_synthetic_curve(2.0 * np.pi))
    assert count == 2
    assert residual <= 1e-12


def test_count_tolerates_small_endpoint_error():
    count, residual = count_states(_synthetic_curve(2.0 * np.pi + 0.1))
    assert count == 2
    assert residual == pytest.approx(0.1, abs=1e-12)


def test_count_rejects_fractional_drop():
    with pytest.raises(CensusAmbiguousError):
        count_states(_synthetic_curve(1.6 * np.pi))


def test_seed_census(grid, v0):
    census = bic_census(v0, grid)
    assert (census.n_total, census.n_minus, census.n_plus) == (1, 1, 0)
    assert census.delta0 == pytest.approx(SEED_DELTA0, abs=1e-9)
    assert abs(census.deltaInf) < 0.1


def test_embedded_state_counted_from_the_phase(grid, v0, phi0):
    shifted = energy_shift(v0, phi0, 4.0)
    census = bic_census(shifted, grid)
    assert (census.n_total, census.n_minus, census.n_plus) == (1, 0, 1)
    assert census.delta0 == pytest.approx(SEED_DELTA0, abs=1e-6)


@pytest.mark.parametrize("energy", [None, 4.0], ids=["seed", "shift+4"])
def test_census_reads_a_given_curve(grid, v0, phi0, energy):
    kernel = v0 if energy is None else energy_shift(v0, phi0, energy)
    curve = phase_curve(kernel, grid, samples=48)
    assert bic_census(kernel, grid, 48, curve=curve) == bic_census(kernel, grid, 48)


def test_census_uses_the_given_curve(grid, v0):
    # a curve dropping by 2 pi counts two states where the seed's own counts one
    census = bic_census(v0, grid, curve=_synthetic_curve(2.0 * np.pi))
    assert (census.n_total, census.n_minus, census.n_plus) == (2, 1, 1)
    assert bic_census(v0, grid).n_total == 1


def test_deep_well_census(grid):
    deep = gaussian_momentum_kernel(-120.0, SEED_B, grid)
    census = bic_census(deep, grid)
    assert (census.n_total, census.n_minus, census.n_plus) == (2, 2, 0)


def test_census_rejects_general_kernel(seed_decomp, grid):
    with pytest.raises(ConsistencyError):
        bic_census(seed_decomp.v_b, grid)


def test_census_indeterminate_at_threshold(grid, v0, phi0):
    at_zero = energy_shift(v0, phi0, 0.0)
    with pytest.raises(CensusIndeterminateError):
        bic_census(at_zero, grid)
