import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicforge import (
    Kernel,
    SeparableModel,
    bic_census,
    build_momentum_grid,
    build_radial_grid,
    gaussian_momentum_kernel,
    half_on_shell_T_matrix,
    local_oracle,
    local_to_momentum,
    negative_energy_states,
    phase_curve,
    rank_one_update,
    s_space_perturb,
    sb_decompose,
    separable_tune,
    solve_k_matrix,
    vnw_build,
)
from bicforge.errors import ContractError, ShapeError

SEED_ORIGIN = -262.40127491437283


def test_gaussian_kernel_is_symmetric(v0):
    assert v0.symmetry == "symmetric"
    assert_allclose(v0.values, v0.values.T, rtol=0, atol=1e-12)


def test_gaussian_kernel_origin_limit(v0):
    # k, k' -> 0 limit is 4 pi lam (b sqrt(pi))^3
    val = v0.evaluate(1e-9, np.array([1e-9]))[0]
    assert_allclose(val, SEED_ORIGIN, rtol=1e-14)


def test_gaussian_kernel_stable_form_matches_naive(grid):
    lam, b = -30.0, 0.5
    k = grid.nodes[:40]
    kk, kp = np.meshgrid(k, k)
    naive = (4.0 * np.pi * lam * (b * np.sqrt(np.pi)) ** 3
             * np.exp(-(kk ** 2 + kp ** 2) * b * b / 4.0)
             * np.sinh(kk * kp * b * b / 2.0) / (kk * kp * b * b / 2.0))
    V = gaussian_momentum_kernel(lam, b, grid)
    # right above the series branch point the subtractive form loses a
    # few digits to cancellation; away from it agreement is exact
    assert_allclose(V.values[:40, :40], naive, rtol=1e-9)
    z = kk * kp * b * b
    well_separated = z > 1e-3
    assert_allclose(V.values[:40, :40][well_separated], naive[well_separated],
                    rtol=1e-12)


def test_kernel_evaluate_agrees_with_samples(v0, grid):
    row = v0.evaluate(grid.nodes[17], grid.nodes)
    assert_allclose(row, v0.values[17], rtol=1e-12)


def test_kernel_rejects_asymmetric_values_with_symmetric_flag(grid):
    vals = np.outer(grid.nodes, np.ones(grid.n))
    with pytest.raises(ContractError):
        Kernel(grid=grid, values=vals, symmetry="symmetric")


def test_kernel_rejects_wrong_shape(grid):
    with pytest.raises(ShapeError):
        Kernel(grid=grid, values=np.zeros((3, 3)), symmetry="general")


# every entry point that takes a kernel and the grid it lives on
GRID_TAKERS = {
    "negative_energy_states": negative_energy_states,
    "half_on_shell_T_matrix": half_on_shell_T_matrix,
    "solve_k_matrix": lambda V, grid: solve_k_matrix(V, grid, 0.5),
    "phase_curve": phase_curve,
    "bic_census": bic_census,
    "sb_decompose": sb_decompose,
}


@pytest.mark.parametrize("call", GRID_TAKERS.values(), ids=GRID_TAKERS.keys())
def test_a_grid_of_the_same_size_with_another_map_is_refused(v0, call):
    with pytest.raises(ContractError, match="does not live on"):
        call(v0, build_momentum_grid(128, map_scale=1.0))


def test_census_refuses_a_grid_of_another_size(v0):
    with pytest.raises(ContractError, match="does not live on"):
        bic_census(v0, build_momentum_grid(64))


def test_perturbation_refuses_a_bump_on_another_grid(v0, phi0):
    bump = gaussian_momentum_kernel(-10.0, 1.0, build_momentum_grid(128, map_scale=1.0))
    with pytest.raises(ContractError, match="does not live on"):
        s_space_perturb(v0, phi0, bump)


def test_an_equal_grid_built_again_is_accepted(v0, phi0):
    states = negative_energy_states(v0, build_momentum_grid(128))
    assert states[0].energy == phi0.energy


def test_local_to_momentum_matches_analytic_gaussian(grid, v0):
    rg = build_radial_grid(400, 12.0)
    V = local_to_momentum(-30.0 * np.exp(-(rg.nodes / 0.5) ** 2), rg, grid)
    num = np.linalg.norm(V.values - v0.values)
    assert num / np.linalg.norm(v0.values) < 1e-8


def test_local_to_momentum_of_zero_is_zero(grid):
    rg = build_radial_grid(64, 12.0)
    V = local_to_momentum(np.zeros(rg.n), rg, grid)
    assert np.all(V.values == 0.0)


def test_transformed_vnw_phase_matches_radial_oracle():
    # the slowly decaying tail puts near-singular structure in the
    # momentum kernel at k' + k = 2 k_bic, so this cross-check needs a
    # finer momentum grid than the default
    grid = build_momentum_grid(256)
    rmax = 30.0
    rg = build_radial_grid(2500, rmax)
    model = vnw_build(1.0, 10.0, rg)
    Vk = local_to_momentum(model.v_samples, rg, grid)

    def v_fn(r):
        return model.v(np.asarray(r, dtype=float))

    for k in (0.5, 2.0):
        delta_momentum = solve_k_matrix(Vk, grid, k).delta
        delta_radial = local_oracle(v_fn, "phase", k=k, r_max=rmax,
                                    steps=12000)
        assert abs(delta_momentum - delta_radial) < 1e-3


def test_rank_one_update_zero_coefficient_is_identity(v0, phi0):
    out = rank_one_update(v0, phi0.samples, phi0.samples, 0.0)
    assert np.array_equal(out.values, v0.values)


def test_rank_one_update_values_and_symmetry(v0, phi0, grid):
    out = rank_one_update(v0, phi0.samples, phi0.samples, 2.5)
    assert out.symmetry == "symmetric"
    assert_allclose(out.values,
                    v0.values + 2.5 * np.outer(phi0.samples, phi0.samples),
                    rtol=1e-14)
    skew = rank_one_update(v0, phi0.samples, grid.nodes, 1.0)
    assert skew.symmetry == "general"


def test_rank_one_update_composes_evaluators(v0, phi0, grid):
    out = rank_one_update(v0, phi0.samples, phi0.samples, 2.5,
                          left_fn=phi0.value_at, right_fn=phi0.value_at)
    q = 0.5 * (grid.nodes[10] + grid.nodes[11])
    got = out.evaluate(q, grid.nodes)
    want = (v0.evaluate(q, grid.nodes)
            + 2.5 * phi0.value_at(q) * phi0.samples)
    assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def _local_kernel(grid):
    rg = build_radial_grid(200, 12.0)
    return local_to_momentum(-30.0 * np.exp(-(rg.nodes / 0.5) ** 2), rg, grid)


def _separable_kernel(grid):
    def g(p):
        return (1.0 - p * p) * np.exp(-p * p)

    lam = separable_tune(g, 1.0, grid, h=lambda p: np.exp(-p * p))
    return SeparableModel(grid=grid, g_samples=g(grid.nodes), coupling=lam,
                          k_bic=1.0, g_fn=g).kernel()


EVALUATOR_KINDS = {
    "gaussian": lambda grid, v0, phi0: v0,
    "local_to_momentum": lambda grid, v0, phi0: _local_kernel(grid),
    "rank_one_update": lambda grid, v0, phi0: rank_one_update(
        v0, phi0.samples, phi0.samples, 2.5,
        left_fn=phi0.value_at, right_fn=phi0.value_at),
    "s_space_perturb": lambda grid, v0, phi0: s_space_perturb(
        v0, phi0, gaussian_momentum_kernel(5.0, 1.0, grid)),
    "separable": lambda grid, v0, phi0: _separable_kernel(grid),
}


@pytest.mark.parametrize("kind", sorted(EVALUATOR_KINDS))
def test_array_evaluation_matches_stacked_scalar_calls(kind, grid, v0, phi0):
    V = EVALUATOR_KINDS[kind](grid, v0, phi0)
    qs = np.append(np.geomspace(0.02, 38.0, 9), grid.nodes[5])
    kk = np.append(grid.nodes, qs[3])
    want = np.array([V.evaluate(q, kk) for q in qs])
    got = V.evaluate(qs, kk)
    assert got.shape == (qs.size, kk.size)
    assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))
