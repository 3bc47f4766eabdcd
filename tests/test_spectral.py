import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicforge import (
    BoundState,
    Kernel,
    SeparableModel,
    gaussian_momentum_kernel,
    ground_state,
    inner_product,
    negative_energy_states,
    schrodinger_residual,
    separable_bic,
    separable_tune,
)
from bicforge.errors import ContractError

SEED_E0 = -5.378305307751852


def test_seed_ground_state_energy(phi0):
    assert_allclose(phi0.energy, SEED_E0, rtol=1e-12)


def test_seed_supports_exactly_one_bound_state(grid, v0):
    states = negative_energy_states(v0, grid)
    assert len(states) == 1


def test_deep_kernel_supports_two_ordered_states(grid):
    deep = gaussian_momentum_kernel(-120.0, 0.5, grid)
    states = negative_energy_states(deep, grid)
    assert len(states) == 2
    assert states[0].energy < states[1].energy < 0.0


def test_bound_state_is_measure_normalized(grid, phi0):
    assert_allclose(inner_product(phi0.samples, phi0.samples, grid), 1.0,
                    rtol=1e-12)


def test_bound_state_sign_convention(phi0):
    assert phi0.samples[np.argmax(np.abs(phi0.samples))] > 0.0


def test_ground_state_residual_is_tiny(v0, phi0):
    assert schrodinger_residual(v0, phi0) < 1e-12


def test_residual_flags_a_wrong_state(grid, v0, phi0):
    wrong = BoundState(energy=phi0.energy, samples=np.flip(phi0.samples),
                       grid=grid)
    assert schrodinger_residual(v0, wrong) > 1.0


def test_state_evaluator_interpolates_through_samples(grid, phi0):
    got = np.array([float(phi0.value_at(k)) for k in grid.nodes[::8]])
    want = phi0.samples[::8]
    # relative agreement is only meaningful above the exponential tail
    assert_allclose(got, want, rtol=1e-8,
                    atol=1e-10 * np.max(np.abs(want)))


def test_diagonalization_requires_symmetric_kernel(grid, v0):
    lop = Kernel(grid=grid, values=np.triu(v0.values), symmetry="general")
    with pytest.raises(ContractError):
        negative_energy_states(lop, grid)


def test_ground_state_requires_a_negative_eigenvalue(grid):
    repulsive = gaussian_momentum_kernel(30.0, 0.5, grid)
    with pytest.raises(ContractError):
        ground_state(repulsive, grid)


def _g(p):
    return (1.0 - p * p) * np.exp(-p * p)


def _h(p):
    return np.exp(-p * p)


def _separable_state(grid, factored):
    # the unfactored model needs the guard-band coupling to count as tuned
    h = _h if factored else None
    lam = separable_tune(_g, 1.0, grid, h=h)
    return separable_bic(SeparableModel(grid=grid, g_samples=_g(grid.nodes),
                                        coupling=lam, k_bic=1.0, g_fn=_g, h_fn=h))


STATE_KINDS = {
    "eigen": lambda grid, phi0: phi0,
    "separable_h": lambda grid, phi0: _separable_state(grid, True),
    "separable_g": lambda grid, phi0: _separable_state(grid, False),
}


@pytest.mark.parametrize("kind", sorted(STATE_KINDS))
def test_state_evaluator_takes_arrays(kind, grid, phi0):
    state = STATE_KINDS[kind](grid, phi0)
    qs = np.append(np.geomspace(0.02, 38.0, 9), grid.nodes[5])
    scalars = [state.value_at(q) for q in qs]
    assert all(isinstance(v, float) for v in scalars)
    want = np.array(scalars)
    got = state.value_at(qs)
    assert got.shape == qs.shape
    assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))
