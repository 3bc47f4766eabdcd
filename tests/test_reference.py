"""Closed-form benchmark models and the independent radial oracle."""

import numpy as np
import pytest

from bicforge import (
    ContractError,
    NormalizabilityError,
    NotABicError,
    SeparableModel,
    bic_census,
    build_radial_grid,
    inner_product,
    local_oracle,
    sb_decompose,
    schrodinger_residual,
    separable_bic,
    separable_tune,
    solve_k_matrix,
    vnw_build,
    vnw_verify,
)
from bicforge.reference import _numerov_sweep, _numerov_tail
from conftest import SEED_B, SEED_LAM

GOLDEN_COUPLING = 6333.293939505397
ORACLE_E0 = -5.378298070780753
NUMEROV_STEPS = 600


def _g(p):
    return (1.0 - p * p) * np.exp(-p * p)


def _h(p):
    return np.exp(-p * p)


@pytest.fixture(scope="module")
def rgrid():
    return build_radial_grid(1500, 30.0)


@pytest.fixture(scope="module")
def oscillating(rgrid):
    return vnw_build(1.0, 10.0, rgrid)


def test_build_rejects_bad_parameters(rgrid):
    with pytest.raises(ContractError):
        vnw_build(0.0, 10.0, rgrid)
    with pytest.raises(ContractError):
        vnw_build(-1.0, 10.0, rgrid)
    with pytest.raises(ContractError):
        vnw_build(1.0, 0.0, rgrid)


@pytest.mark.parametrize("k,a", [(1.0, 10.0), (2.0, 5.0)])
def test_wavefunction_solves_the_radial_equation(rgrid, k, a):
    assert vnw_verify(vnw_build(k, a, rgrid)) <= 1e-6


def test_offset_energy_shows_up_as_residual(oscillating):
    assert vnw_verify(oscillating, energy=1.5) == pytest.approx(0.5, rel=1e-6)


def test_potential_vanishes_quartically_at_origin(oscillating):
    r = np.logspace(-3, -2, 40)
    slope = np.polyfit(np.log(r), np.log(np.abs(oscillating.v(r))), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.1)


def test_potential_tail_oscillates_inside_a_bounded_envelope(oscillating):
    r = np.linspace(20.0, 60.0, 4001)
    s = np.sin(2.0 * r)
    mask = np.abs(s) > 0.5
    ratio = oscillating.v(r)[mask] * 2.0 * r[mask] / s[mask] / (-16.0)
    assert np.all(ratio > 0.5)
    assert np.all(ratio < 1.5)


def test_envelope_decays_inverse_square(oscillating):
    r = (np.arange(5, 40) + 0.5) * np.pi
    env = np.abs(oscillating.phi(r)) * r
    slope = np.polyfit(np.log(r), np.log(env), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.1)


def test_envelope_is_flat_at_the_wavefunction_zeros(oscillating):
    nodes = np.arange(1, 6) * np.pi
    assert np.max(np.abs(oscillating.f_prime_over_f(nodes))) < 1e-12


def test_embedded_state_is_normalizable(oscillating):
    norm = oscillating.norm()
    assert np.isfinite(norm)
    assert norm > 0.0


def test_critical_coupling_golden_value(grid):
    lam = separable_tune(_g, 1.0, grid, h=_h)
    assert lam == pytest.approx(GOLDEN_COUPLING, rel=1e-9)


def test_guard_band_path_agrees_with_factored_form(grid):
    lam_f = separable_tune(_g, 1.0, grid, h=_h)
    lam_u = separable_tune(_g, 1.0, grid)
    assert lam_u == pytest.approx(lam_f, rel=1e-4)


def test_sample_input_matches_callable_input(grid):
    lam_u = separable_tune(_g, 1.0, grid)
    lam_s = separable_tune(_g(grid.nodes), 1.0, grid)
    assert lam_s == pytest.approx(lam_u, rel=1e-12)


def test_coupling_scales_inversely_with_squared_form_factor(grid):
    lam = separable_tune(_g, 1.0, grid, h=_h)
    lam2 = separable_tune(lambda p: 2.0 * _g(p), 1.0, grid,
                          h=lambda p: 2.0 * _h(p))
    assert lam2 * 4.0 == pytest.approx(lam, rel=1e-12)


def test_tuning_requires_vanishing_form_factor(grid):
    with pytest.raises(NormalizabilityError):
        separable_tune(lambda p: _g(p) + 0.1, 1.0, grid)


def test_tuning_requires_momentum_inside_the_grid(grid):
    with pytest.raises(ContractError):
        separable_tune(_g, -1.0, grid)
    with pytest.raises(ContractError):
        separable_tune(_g, grid.cutoff + 1.0, grid)


def test_tuned_model_holds_an_embedded_state(grid):
    lam = separable_tune(_g, 1.0, grid, h=_h)
    model = SeparableModel(grid=grid, g_samples=_g(grid.nodes), coupling=lam,
                           k_bic=1.0, g_fn=_g, h_fn=_h)
    state = separable_bic(model)
    assert state.energy == 1.0
    assert inner_product(state.samples, state.samples, grid) == pytest.approx(1.0)
    assert schrodinger_residual(model.kernel(), state) <= 1e-6


def test_detuned_coupling_is_rejected(grid):
    lam = separable_tune(_g, 1.0, grid, h=_h)
    model = SeparableModel(grid=grid, g_samples=_g(grid.nodes),
                           coupling=0.5 * lam, k_bic=1.0, g_fn=_g, h_fn=_h)
    with pytest.raises(NotABicError):
        separable_bic(model)


def test_decomposition_recovers_the_separable_state(grid):
    lam = separable_tune(_g, 1.0, grid, h=_h)
    model = SeparableModel(grid=grid, g_samples=_g(grid.nodes), coupling=lam,
                           k_bic=1.0, g_fn=_g, h_fn=_h)
    kernel = model.kernel()
    decomp = sb_decompose(kernel, grid)
    assert len(decomp.bound_list) == 1
    assert decomp.bound_list[0].energy == pytest.approx(1.0, abs=1e-3)
    census = bic_census(kernel, grid)
    assert (census.n_minus, census.n_plus) == (0, 1)


def test_oracle_bound_state_of_the_seed(grid):
    e0 = local_oracle(lambda r: SEED_LAM * np.exp(-(r / SEED_B) ** 2), "bound")
    assert e0 == pytest.approx(ORACLE_E0, rel=1e-9)
    assert e0 == pytest.approx(-5.373, rel=5e-3)


def test_oracle_free_phase_is_zero():
    assert abs(local_oracle(lambda r: 0.0 * r, "phase", k=1.0)) <= 1e-6


def test_oracle_phase_matches_momentum_space_solver(grid, v0):
    delta_r = local_oracle(lambda r: SEED_LAM * np.exp(-(r / SEED_B) ** 2),
                           "phase", k=1.0)
    delta_k = solve_k_matrix(v0, grid, 1.0).delta
    assert abs(delta_r - delta_k) <= 1e-4


def test_oracle_reports_no_state_for_repulsion():
    assert local_oracle(lambda r: 5.0 * np.exp(-r * r), "bound") is None


def test_oracle_rejects_bad_mode_and_missing_momentum():
    with pytest.raises(ContractError):
        local_oracle(lambda r: 0.0 * r, "resonance")
    with pytest.raises(ContractError):
        local_oracle(lambda r: 0.0 * r, "phase")


def _gaussian(lam, b=SEED_B):
    return lambda r: lam * np.exp(-(r / b) ** 2)


def _full_array_numerov(v_samples, r, energies):
    """The full-array Numerov loop the oracle once ran: the bit-level reference."""
    h = r[1] - r[0]
    e_arr = np.atleast_1d(np.asarray(energies, dtype=float))
    f = v_samples[:, None] - e_arr[None, :]
    c = h * h / 12.0
    u = np.empty((r.size, e_arr.size))
    u[0] = r[0]
    u[1] = r[1]
    for i in range(1, r.size - 1):
        u[i + 1] = ((2.0 + 10.0 * c * f[i]) * u[i] - (1.0 - c * f[i - 1]) * u[i - 1]) \
            / (1.0 - c * f[i + 1])
    return u


def _reference_oracle(v_of_r, mode, k=None, r_max=12.0, steps=NUMEROV_STEPS):
    """local_oracle's scan, bisection and phase matching over the full-array loop."""
    r = np.linspace(r_max / steps, r_max, steps)
    v = np.asarray(v_of_r(r), dtype=float)
    if mode == "bound":
        scan = np.linspace(1.000001 * float(np.min(v)), -1e-6, 400)
        tails = _full_array_numerov(v, r, scan)[-1]
        i = next(i for i in range(scan.size - 1) if tails[i] * tails[i + 1] < 0)
        a, b = scan[i], scan[i + 1]
        fa = _full_array_numerov(v, r, [a])[-1, 0]
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = _full_array_numerov(v, r, [mid])[-1, 0]
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        return 0.5 * (a + b)
    u = _full_array_numerov(v, r, [k * k])[:, 0]
    du = (u[-1] - u[-3]) / (2.0 * (r[1] - r[0]))
    delta = np.arctan2(k * u[-2], du) - k * r[-2]
    return float((delta + 0.5 * np.pi) % np.pi - 0.5 * np.pi)


@pytest.mark.parametrize("lam", [SEED_LAM, -50.0, -20.0])
def test_oracle_bound_energy_is_bit_identical_to_the_full_array_loop(lam):
    e = local_oracle(_gaussian(lam), "bound", steps=NUMEROV_STEPS)
    assert e == _reference_oracle(_gaussian(lam), "bound")


@pytest.mark.parametrize("k", [0.3, 1.0, 2.7])
def test_oracle_phase_is_bit_identical_to_the_full_array_loop(k):
    delta = local_oracle(_gaussian(SEED_LAM), "phase", k=k, steps=NUMEROV_STEPS)
    assert delta == _reference_oracle(_gaussian(SEED_LAM), "phase", k=k)


def test_batch_and_single_energy_tails_are_bit_identical():
    r = np.linspace(12.0 / NUMEROV_STEPS, 12.0, NUMEROV_STEPS)
    v = _gaussian(SEED_LAM)(r)
    energies = np.array([-29.0, ORACLE_E0, -0.5, 1.0])
    batch = _numerov_sweep(v, r, energies)
    assert np.array_equal(np.array(batch), _full_array_numerov(v, r, energies)[-3:])
    for j, e in enumerate(energies):
        assert _numerov_tail(v, r, e) == tuple(row[j] for row in batch)


def test_oracle_rejects_a_mesh_too_short_to_match():
    with pytest.raises(ContractError):
        local_oracle(_gaussian(SEED_LAM), "phase", k=1.0, steps=2)
