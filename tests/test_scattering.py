import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicforge import (
    Kernel,
    density_of_states,
    energy_shift,
    gaussian_momentum_kernel,
    phase_curve,
    s_space_perturb,
    solve_k_matrix,
)
from bicforge.errors import ContractError

SEED_DELTA_K1 = -0.6880995026852877
SEED_DELTA0 = 3.1415930784855473
SEED_DELTA_INF = 0.0217069571219443


def test_on_shell_phase_at_unit_momentum(grid, v0):
    sol = solve_k_matrix(v0, grid, 1.0)
    assert_allclose(sol.delta, SEED_DELTA_K1, atol=1e-10)


def test_heitler_damping_is_unitary(grid, v0):
    # Im t = -pi rho |t|^2 on shell
    for k_on in (0.3, 1.0, 3.7):
        sol = solve_k_matrix(v0, grid, k_on)
        t = sol.on_shell_t
        assert_allclose(t.imag, -np.pi * sol.rho * abs(t) ** 2, rtol=1e-12)


def test_half_shell_column_carries_appended_node(grid, v0):
    sol = solve_k_matrix(v0, grid, 2.2)
    assert sol.momenta.shape == (grid.n + 1,)
    assert sol.momenta[-1] == 2.2
    assert sol.half_on_shell_K.shape == (grid.n + 1,)


def test_solver_rejects_momentum_outside_window(grid, v0):
    for bad in (0.0, -1.0, grid.cutoff, grid.cutoff + 1.0):
        with pytest.raises(ContractError):
            solve_k_matrix(v0, grid, bad)


def test_solver_rejects_momentum_on_a_grid_node(grid, v0):
    with pytest.raises(ContractError):
        solve_k_matrix(v0, grid, grid.nodes[40])


def test_interpolated_rows_match_analytic_evaluator(grid, v0):
    # dropping the closed-form evaluator forces barycentric kernel rows
    sampled = Kernel(grid=grid, values=v0.values, symmetry="symmetric",
                     space="momentum")
    for k_on in (0.7, 2.9):
        exact = solve_k_matrix(v0, grid, k_on).delta
        interp = solve_k_matrix(sampled, grid, k_on).delta
        assert abs(exact - interp) < 1e-9


def test_seed_phase_curve_endpoints(seed_curve):
    assert_allclose(seed_curve.delta0, SEED_DELTA0, atol=1e-9)
    assert_allclose(seed_curve.deltaInf, SEED_DELTA_INF, atol=1e-9)


def test_phase_curve_is_continuous(seed_curve):
    assert np.all(np.abs(np.diff(seed_curve.delta)) < 0.5 * np.pi)


def test_phase_curve_needs_enough_samples(grid, v0):
    with pytest.raises(ContractError):
        phase_curve(v0, grid, samples=8)


def test_density_of_states_linear_in_k():
    assert_allclose(density_of_states(2.0), 2.0 * density_of_states(1.0),
                    rtol=1e-15)
    assert density_of_states(1.0) > 0.0


CURVE_KERNELS = {
    "seed": lambda grid, v0, phi0: v0,
    "shifted": lambda grid, v0, phi0: energy_shift(v0, phi0, 4.0),
    "perturbed": lambda grid, v0, phi0: s_space_perturb(
        v0, phi0, gaussian_momentum_kernel(5.0, 1.0, grid)),
    "no_evaluator": lambda grid, v0, phi0: Kernel(
        grid=grid, values=energy_shift(v0, phi0, 4.0).values),
}


@pytest.mark.parametrize("kind", sorted(CURVE_KERNELS))
def test_phase_curve_matches_per_sample_solves(kind, grid, v0, phi0):
    V = CURVE_KERNELS[kind](grid, v0, phi0)
    curve = phase_curve(V, grid, samples=64)
    raw = np.array([solve_k_matrix(V, grid, q).delta for q in curve.momenta])
    # compare modulo pi: the curve is unwrapped and anchored, raw is not
    gap = np.angle(np.exp(2j * (curve.delta - raw))) / 2.0
    assert np.max(np.abs(gap)) < 1e-10
