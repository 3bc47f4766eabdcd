"""End-to-end acceptance checks, one test (or parametrized group) per criterion.

Run with -v to get one pass/fail line per criterion; the sweep criteria
expand to one line per target energy.
"""

import filecmp
import os

import numpy as np
import pytest

from bicforge import (
    BoundState,
    CensusIndeterminateError,
    NotABicError,
    SeparableModel,
    bic_census,
    build_radial_grid,
    build_uniform_radial_grid,
    detect_bic_signature,
    energy_shift,
    extract_bics,
    gaussian_momentum_kernel,
    ground_state,
    half_on_shell_T_matrix,
    inner_product,
    local_oracle,
    momentum_to_coordinate,
    negative_energy_states,
    orthonormalize,
    phase_curve,
    s_space_perturb,
    sb_decompose,
    schrodinger_residual,
    separable_bic,
    separable_tune,
    solve_k_matrix,
    vb_profile_node,
    verify_conditions_AB,
    vnw_build,
    vnw_verify,
    wavefunction_to_coordinate,
    Kernel,
)
from bicforge.cli import main
from conftest import SEED_B, SEED_LAM, SWEEP_ENERGIES

PAPER_E0 = -5.373


def _moved(phi, e):
    return BoundState(energy=e, samples=phi.samples, grid=phi.grid,
                      value_at=phi.value_at)


def _local_spacing_at(grid, k):
    above = np.searchsorted(grid.nodes, k)
    lo = max(above - 1, 0)
    hi = min(above + 1, grid.n - 1)
    return np.max(np.diff(grid.nodes[lo:hi + 1]))


def test_criterion_01_seed_ground_state(phi0):
    assert phi0.energy == pytest.approx(PAPER_E0, rel=5e-3)
    oracle = local_oracle(lambda r: SEED_LAM * np.exp(-(r / SEED_B) ** 2), "bound")
    assert oracle == pytest.approx(PAPER_E0, rel=5e-3)
    assert abs(phi0.energy - oracle) <= 1e-3
    print("criterion 1 PASS: both solvers reproduce the seed binding energy")


@pytest.mark.parametrize("e", SWEEP_ENERGIES)
def test_criterion_02a_shift_keeps_the_state(grid, v0, phi0, e):
    shifted = energy_shift(v0, phi0, e)
    assert schrodinger_residual(shifted, _moved(phi0, e)) <= 1e-8
    print(f"criterion 2a PASS at E={e}: eigenstate carried exactly")


# The threshold shift parks the state at zero energy, and the
# standing-wave systems at the smallest nodes become badly conditioned:
# the column-0 condition number is 9.6 for the seed but 6.6e8 after the
# shift at n=128, and it keeps growing as the smallest node approaches
# k = 0 (5e7, 6.6e8, 3.3e9, 1e10 at n = 64, 128, 192, 256).  So the
# defect does not converge with n: max |dT| is 2.5e-5, 3.4e-5, 1.5e-4
# and 1.4e-4 at those n with two BLAS threads, and 1.2e-3 at n=256 with
# one, since the summation order alone moves the amplified rounding.
T_SWEEP = [pytest.param(e, marks=pytest.mark.xfail(
    strict=True, reason="zero-energy shift leaves the column-0 standing-wave "
    "system ill-conditioned (cond 6.6e8 at n=128); max |dT| = 3.4e-5 misses "
    "the 1e-8 gate and does not shrink with n")) if e == 0.0 else e
    for e in SWEEP_ENERGIES]


@pytest.mark.parametrize("e", T_SWEEP)
def test_criterion_02b_shift_keeps_the_t_matrix(grid, v0, phi0, seed_t, e):
    shifted = energy_shift(v0, phi0, e)
    t_new = half_on_shell_T_matrix(shifted, grid)
    assert np.max(np.abs(t_new - seed_t)) <= 1e-8
    print(f"criterion 2b PASS at E={e}: half-on-shell T-matrix unchanged")


@pytest.mark.parametrize("e", SWEEP_ENERGIES)
def test_criterion_02c_shift_keeps_the_phase_curve(grid, v0, phi0, seed_curve, e):
    shifted = energy_shift(v0, phi0, e)
    curve = phase_curve(shifted, grid, samples=64)
    assert np.max(np.abs(curve.delta - seed_curve.delta)) <= 1e-6
    print(f"criterion 2c PASS at E={e}: phase curve unchanged")


def test_criterion_03_census(grid, v0, phi0):
    seed = bic_census(v0, grid)
    assert (seed.n_total, seed.n_minus, seed.n_plus) == (1, 1, 0)
    assert seed.delta0 - seed.deltaInf == pytest.approx(np.pi, abs=0.05)

    embedded = bic_census(energy_shift(v0, phi0, 1.0), grid)
    assert (embedded.n_total, embedded.n_minus, embedded.n_plus) == (1, 0, 1)
    assert embedded.delta0 - embedded.deltaInf == pytest.approx(np.pi, abs=0.05)

    with pytest.raises(CensusIndeterminateError):
        bic_census(energy_shift(v0, phi0, 0.0), grid)
    print("criterion 3 PASS: census counts and threshold case behave")


def test_criterion_04_bound_part_signature(grid, v0, phi0):
    for e in SWEEP_ENERGIES:
        shifted = energy_shift(v0, phi0, e)
        sig = detect_bic_signature(sb_decompose(shifted, grid).v_b)
        assert (sig.origin_sign > 0) == (e > 0)
        if e == 1.0:
            assert len(sig.node_momenta) == 1
            assert abs(sig.node_momenta[0] - 1.0) <= _local_spacing_at(grid, 1.0)
    print("criterion 4 PASS: origin sign tracks the sweep, node at sqrt(E)")


def test_criterion_05_extraction_round_trip(grid, v0, phi0):
    shifted = energy_shift(v0, phi0, 4.0)
    decomp = sb_decompose(shifted, grid)
    pairs = extract_bics(decomp.v_b, negative_energy_states(shifted, grid))
    assert len(pairs) == 1
    state, k_sq = pairs[0]
    assert k_sq == pytest.approx(4.0, rel=1e-3)
    assert inner_product(state.samples, phi0.samples, grid) ** 2 >= 0.999

    deep = gaussian_momentum_kernel(-120.0, SEED_B, grid)
    deep_phi = ground_state(deep, grid)
    mixed = energy_shift(deep, deep_phi, 4.0)
    negatives = negative_energy_states(mixed, grid)
    assert len(negatives) == 1
    pairs = extract_bics(sb_decompose(mixed, grid).v_b, negatives)
    assert len(pairs) == 1
    assert pairs[0][1] == pytest.approx(4.0, rel=1e-3)
    print("criterion 5 PASS: embedded states recovered, negatives left alone")


def test_criterion_06_coordinate_nodes(grid, v0, phi0):
    mesh = build_uniform_radial_grid(1500, 12.0)
    phi_r = wavefunction_to_coordinate(phi0, mesh)
    assert vb_profile_node(phi_r, mesh.nodes, 0.0) == pytest.approx(0.67, abs=0.02)
    assert vb_profile_node(phi_r, mesh.nodes, 4.0) == pytest.approx(0.54, abs=0.02)
    assert vb_profile_node(phi_r, mesh.nodes, phi0.energy) is None

    shift_term = Kernel(grid=grid,
                        values=(4.0 - phi0.energy) * np.outer(phi0.samples,
                                                              phi0.samples),
                        symmetry="symmetric", space="momentum")
    rgrid = build_uniform_radial_grid(600, 9.0)
    sv = np.linalg.svd(momentum_to_coordinate(shift_term, rgrid).values,
                       compute_uv=False)
    assert sv[1] / sv[0] <= 1e-6
    print("criterion 6 PASS: profile nodes in place, shift term rank one")


def test_criterion_07_consistency_conditions(grid, seed_t, phi0):
    res_a, res_b = verify_conditions_AB(seed_t, [phi0], grid)
    assert res_a <= 1e-5
    assert res_b <= 1e-5

    rng = np.random.default_rng(17)
    wrong_vec = orthonormalize([rng.standard_normal(grid.n)], grid)[0]
    wrong = BoundState(energy=phi0.energy, samples=wrong_vec, grid=grid)
    res_a_wrong, _ = verify_conditions_AB(seed_t, [wrong], grid)
    assert res_a_wrong >= 100.0 * res_a
    print("criterion 7 PASS: conditions hold and reject a wrong bound space")


def test_criterion_08_general_method(grid, v0, phi0, seed_curve):
    # repulsive bump: an attractive one this wide binds a second state,
    # which belongs to criterion 5's mixed case, not the clean signature
    bump = gaussian_momentum_kernel(5.0, 1.0, grid)
    perturbed = s_space_perturb(v0, phi0, bump)
    assert schrodinger_residual(perturbed, phi0) <= 1e-8

    curve = phase_curve(perturbed, grid, samples=64)
    assert np.max(np.abs(curve.delta - seed_curve.delta)) > 1e-2

    shifted = energy_shift(perturbed, phi0, 4.0)
    decomp = sb_decompose(shifted, grid)
    sig = detect_bic_signature(decomp.v_b)
    assert sig.origin_sign > 0
    assert any(abs(node - 2.0) <= _local_spacing_at(grid, 2.0)
               for node in sig.node_momenta)
    pairs = extract_bics(decomp.v_b, negative_energy_states(shifted, grid))
    assert len(pairs) == 1
    state, k_sq = pairs[0]
    assert k_sq == pytest.approx(4.0, rel=1e-3)
    assert inner_product(state.samples, phi0.samples, grid) ** 2 >= 0.999
    print("criterion 8 PASS: perturbed potential carries the same state")


def test_criterion_09_oscillating_benchmark():
    rgrid = build_radial_grid(1500, 30.0)
    model = vnw_build(1.0, 10.0, rgrid)
    assert vnw_verify(model) <= 1e-6

    r_small = np.logspace(-3, -2, 40)
    slope = np.polyfit(np.log(r_small), np.log(np.abs(model.v(r_small))), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.1)

    r_big = np.linspace(20.0, 50.0, 3001)
    s = np.sin(2.0 * r_big)
    mask = np.abs(s) > 0.5
    ratio = model.v(r_big)[mask] * 2.0 * r_big[mask] / s[mask] / (-16.0)
    assert np.all((ratio > 0.5) & (ratio < 1.5))
    print("criterion 9 PASS: oscillating benchmark checks out")


def test_criterion_10_separable_benchmark(grid):
    def h(p):
        return np.exp(-np.asarray(p) ** 2)

    def g(p):
        p = np.asarray(p)
        return (1.0 - p * p) * np.exp(-p * p)

    lam_c = separable_tune(g, 1.0, grid, h=h)
    model = SeparableModel(grid=grid, g_samples=g(grid.nodes), coupling=lam_c,
                           k_bic=1.0, g_fn=g, h_fn=h)
    state = separable_bic(model)
    kernel = model.kernel()
    assert schrodinger_residual(kernel, state) <= 1e-6

    detuned = SeparableModel(grid=grid, g_samples=g(grid.nodes),
                             coupling=0.5 * lam_c, k_bic=1.0, g_fn=g, h_fn=h)
    with pytest.raises(NotABicError):
        separable_bic(detuned)

    census = bic_census(kernel, grid)
    assert census.n_plus == 1
    print("criterion 10 PASS: separable benchmark holds its embedded state")


def _tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = path
    return out


def test_criterion_11_reproduction_is_deterministic(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["--out", str(first), "reproduce-paper"]) == 0
    assert main(["--out", str(second), "reproduce-paper"]) == 0
    tree_a, tree_b = _tree(first), _tree(second)
    assert sorted(tree_a) == sorted(tree_b)
    for rel in tree_a:
        assert filecmp.cmp(tree_a[rel], tree_b[rel], shallow=False), rel
    print("criterion 11 PASS: reproduction trees are byte-identical")
