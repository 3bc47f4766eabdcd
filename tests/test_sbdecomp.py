"""Scattering/bound decomposition, embedded-state extraction, perturbations."""

import numpy as np
import pytest

from bicforge import (
    BoundState,
    ContractError,
    ConsistencyError,
    ExtractionError,
    build_v_b,
    detect_bic_signature,
    energy_shift,
    extract_bics,
    orthonormalize,
    s_space_perturb,
    sb_decompose,
    schrodinger_residual,
    v_s_from_T,
    verify_conditions_AB,
)
from bicforge import gaussian_momentum_kernel, inner_product

SEED_E0 = -5.378305307751852


def test_parts_reassemble_the_kernel(seed_decomp, v0):
    total = seed_decomp.v_s.values + seed_decomp.v_b.values
    scale = np.max(np.abs(v0.values))
    assert np.max(np.abs(total - v0.values)) <= 1e-12 * scale


def test_decomposition_keeps_the_t_matrix_it_was_built_from(seed_decomp, seed_t):
    assert np.array_equal(seed_decomp.t_matrix, seed_t)


def test_scattering_part_annihilates_bound_state(seed_decomp, grid, phi0):
    acted = seed_decomp.v_s.values @ (grid.measure * phi0.samples)
    scale = np.max(np.abs(seed_decomp.v_s.values @ grid.measure))
    assert np.max(np.abs(acted)) <= 1e-10 * scale


def test_bound_part_matches_direct_build(seed_decomp, grid, phi0):
    direct = build_v_b([phi0], grid)
    diff = np.max(np.abs(seed_decomp.v_b.values - direct.values))
    assert diff <= 1e-5 * np.max(np.abs(direct.values))


def test_bound_list_is_the_seed_state(seed_decomp):
    assert len(seed_decomp.bound_list) == 1
    assert seed_decomp.n_negative == 1
    assert seed_decomp.bound_list[0].energy == pytest.approx(SEED_E0, rel=1e-10)


def test_signature_positive_energy(grid, phi0):
    embedded = BoundState(energy=1.0, samples=phi0.samples, grid=grid)
    sig = detect_bic_signature(build_v_b([embedded], grid))
    assert sig.origin_sign == 1
    assert len(sig.node_momenta) == 1
    assert sig.node_momenta[0] == pytest.approx(1.0, abs=0.02)


def test_signature_negative_energy(grid, phi0):
    shifted = BoundState(energy=-4.0, samples=phi0.samples, grid=grid)
    sig = detect_bic_signature(build_v_b([shifted], grid))
    assert sig.origin_sign == -1
    assert sig.node_momenta == ()


def test_signature_zero_energy(grid, phi0):
    threshold = BoundState(energy=0.0, samples=phi0.samples, grid=grid)
    sig = detect_bic_signature(build_v_b([threshold], grid))
    assert sig.origin_sign == 0


def test_extraction_skips_quadrature_noise(seed_decomp, grid, phi0):
    assert extract_bics(seed_decomp.v_b, [phi0]) == []


def test_embedded_state_survives_decomposition(grid, v0, phi0):
    shifted = energy_shift(v0, phi0, 4.0)
    carried = BoundState(energy=4.0, samples=phi0.samples, grid=grid,
                         value_at=phi0.value_at)
    assert schrodinger_residual(shifted, carried) <= 1e-10

    decomp = sb_decompose(shifted, grid)
    assert len(decomp.bound_list) == 1
    assert decomp.n_negative == 0
    state = decomp.bound_list[0]
    assert state.energy == pytest.approx(4.0, abs=1e-6)
    overlap = abs(inner_product(state.samples, phi0.samples, grid))
    assert overlap == pytest.approx(1.0, abs=1e-6)


def test_extraction_rejects_high_rank_remainder(grid):
    rng = np.random.default_rng(7)
    vecs = orthonormalize(rng.standard_normal((9, grid.n)), grid)
    states = [BoundState(energy=0.5 + 0.1 * i, samples=v, grid=grid)
              for i, v in enumerate(vecs)]
    lump = build_v_b(states, grid)
    with pytest.raises(ExtractionError):
        extract_bics(lump, [])


def test_build_v_b_requires_orthonormal_states(grid, phi0):
    with pytest.raises(ContractError):
        build_v_b([phi0, phi0], grid)


def test_orthonormalize_gram_matrix(grid):
    rng = np.random.default_rng(3)
    out = orthonormalize(rng.standard_normal((3, grid.n)), grid)
    for i, a in enumerate(out):
        for j, b in enumerate(out):
            want = 1.0 if i == j else 0.0
            assert inner_product(a, b, grid) == pytest.approx(want, abs=1e-12)


def test_orthonormalize_rejects_dependence(grid):
    v = np.linspace(1.0, 2.0, grid.n)
    with pytest.raises(ContractError):
        orthonormalize([v, 2.0 * v], grid)


def test_energy_shift_rejects_non_eigenstate(grid, v0):
    rng = np.random.default_rng(11)
    fake = rng.standard_normal(grid.n)
    fake /= np.sqrt(inner_product(fake, fake, grid))
    with pytest.raises(ContractError):
        energy_shift(v0, BoundState(energy=-5.0, samples=fake, grid=grid), 1.0)


def test_perturbation_at_zero_strength_is_identity(grid, v0, phi0):
    bump = gaussian_momentum_kernel(-5.0, 0.8, grid)
    same = s_space_perturb(v0, phi0, bump, strength=0.0)
    assert np.array_equal(same.values, v0.values)


def test_perturbation_keeps_state_and_energy(grid, v0, phi0):
    bump = gaussian_momentum_kernel(-5.0, 0.8, grid)
    perturbed = s_space_perturb(v0, phi0, bump)
    assert schrodinger_residual(perturbed, phi0) <= 1e-10

    delta = perturbed.values - v0.values
    mu_phi = grid.measure * phi0.samples
    scale = np.max(np.abs(delta))
    assert np.max(np.abs(delta @ mu_phi)) <= 1e-12 * scale
    assert np.max(np.abs(mu_phi @ delta)) <= 1e-12 * scale


def test_perturbation_rejects_non_eigenstate(grid, v0):
    bump = gaussian_momentum_kernel(-5.0, 0.8, grid)
    rng = np.random.default_rng(13)
    fake = rng.standard_normal(grid.n)
    fake /= np.sqrt(inner_product(fake, fake, grid))
    with pytest.raises(ContractError):
        s_space_perturb(v0, BoundState(energy=-1.0, samples=fake, grid=grid), bump)


def test_consistency_conditions_on_seed(seed_t, grid, phi0):
    res_a, res_b = verify_conditions_AB(seed_t, [phi0], grid)
    assert res_a <= 1e-5
    assert res_b <= 1e-10


def test_consistency_conditions_trivial_for_zero_t(grid):
    res_a, res_b = verify_conditions_AB(np.zeros((grid.n, grid.n)), [], grid)
    assert res_a == 0.0
    assert res_b == 0.0


def test_v_s_rejects_non_unitary_t_matrix(grid):
    rng = np.random.default_rng(5)
    bogus = rng.standard_normal((grid.n, grid.n))
    bogus = bogus + bogus.T
    with pytest.raises(ConsistencyError):
        v_s_from_T(bogus, grid)
