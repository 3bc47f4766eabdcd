"""Coordinate-space transforms, node diagnostics, and the radial residual."""

import numpy as np
import pytest

from bicforge import (
    BoundState,
    ConsistencyError,
    ContractError,
    CoordinateKernel,
    Kernel,
    ShapeError,
    bic_census,
    build_uniform_radial_grid,
    build_v_b,
    coordinate_residual,
    coordinate_to_momentum,
    detect_bic_signature,
    energy_shift,
    extract_bics,
    half_on_shell_T_matrix,
    inner_product,
    local_coordinate_kernel,
    momentum_to_coordinate,
    negative_energy_states,
    phase_curve,
    sb_decompose,
    schrodinger_residual,
    solve_k_matrix,
    vb_profile_node,
    wavefunction_to_coordinate,
)
from bicforge.coordinate import _fine_resample
from conftest import SEED_B, SEED_LAM

SEED_E0 = -5.378305307751852


@pytest.fixture(scope="module")
def rgrid():
    return build_uniform_radial_grid(900, 9.0)


@pytest.fixture(scope="module")
def phi_r(phi0, rgrid):
    return wavefunction_to_coordinate(phi0, rgrid)


def _quartic_laplacian(phi, r):
    # independent radial Laplacian: sliding quartic fits, the same order
    # the package promises but assembled separately
    n = r.size
    out = np.empty(n)
    for i in range(n):
        lo = min(max(i - 2, 0), n - 5)
        w = slice(lo, lo + 5)
        c = np.polynomial.polynomial.polyfit(r[w] - r[i], phi[w], 4)
        out[i] = 2.0 * c[2] + 2.0 * c[1] / r[i]
    return out


def test_uniform_radial_grid_geometry():
    rg = build_uniform_radial_grid(50, 10.0)
    h = 10.0 / 50
    assert np.allclose(rg.nodes, (np.arange(1, 51) - 0.5) * h, rtol=0, atol=1e-15)
    assert np.all(rg.weights == h)
    assert rg.r_max == 10.0


def test_uniform_radial_grid_needs_enough_nodes():
    with pytest.raises(ContractError):
        build_uniform_radial_grid(4, 10.0)


def test_wavefunction_norm_is_preserved(rgrid, phi_r):
    assert np.sum(rgrid.measure * phi_r**2) == pytest.approx(1.0, abs=1e-4)


def test_ground_state_is_nodeless_with_exponential_tail(rgrid, phi_r):
    assert np.sum(phi_r[:-1] * phi_r[1:] < 0) == 0
    mask = (rgrid.nodes > 3.0) & (rgrid.nodes < 6.0)
    slope = np.polyfit(rgrid.nodes[mask],
                       np.log(phi_r[mask] * rgrid.nodes[mask]), 1)[0]
    assert slope == pytest.approx(-np.sqrt(-SEED_E0), rel=0.02)


def test_gaussian_wavefunction_closed_form(grid, rgrid):
    samples = np.exp(-grid.nodes**2 / 4.0)
    norm = np.sqrt(inner_product(samples, samples, grid))
    samples = samples / norm
    state = BoundState(energy=-1.0, samples=samples, grid=grid)
    got = wavefunction_to_coordinate(state, rgrid)
    want = np.exp(-rgrid.nodes**2) / (norm * np.pi**1.5)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_round_trip_of_smooth_nonlocal_kernel(grid, rgrid, phi0):
    rank1 = Kernel(grid=grid,
                   values=(1.0 - phi0.energy) * np.outer(phi0.samples, phi0.samples),
                   symmetry="symmetric")
    back = coordinate_to_momentum(momentum_to_coordinate(rank1, rgrid), grid)
    diff = np.max(np.abs(back.values - rank1.values))
    assert diff <= 1e-6 * np.max(np.abs(rank1.values))


def test_zero_kernel_transforms_to_zero(grid, rgrid):
    zero = Kernel(grid=grid, values=np.zeros((grid.n, grid.n)),
                  symmetry="symmetric")
    assert np.all(momentum_to_coordinate(zero, rgrid).values == 0.0)


def test_transform_rejects_coordinate_space_input(v0, rgrid):
    with pytest.raises(ContractError):
        momentum_to_coordinate(momentum_to_coordinate(v0, rgrid), rgrid)


# each takes a momentum-space Kernel; the coordinate kernel below has as
# many nodes as the momentum grid, so no shape check can stand in for the
# type check, and the error must be the contract one (radial values read
# as momentum samples can also fail an extraction or a solve by chance)
MOMENTUM_ONLY = {
    "momentum_to_coordinate": lambda ck, grid, phi0: momentum_to_coordinate(ck, ck.grid),
    "negative_energy_states": lambda ck, grid, phi0: negative_energy_states(ck, grid),
    "half_on_shell_T_matrix": lambda ck, grid, phi0: half_on_shell_T_matrix(ck, grid),
    "solve_k_matrix": lambda ck, grid, phi0: solve_k_matrix(ck, grid, 1.0),
    "phase_curve": lambda ck, grid, phi0: phase_curve(ck, grid),
    "bic_census": lambda ck, grid, phi0: bic_census(ck, grid),
    "sb_decompose": lambda ck, grid, phi0: sb_decompose(ck, grid),
    "schrodinger_residual": lambda ck, grid, phi0: schrodinger_residual(ck, phi0),
    "detect_bic_signature": lambda ck, grid, phi0: detect_bic_signature(ck),
    "extract_bics": lambda ck, grid, phi0: extract_bics(ck, []),
}


@pytest.mark.parametrize("call", MOMENTUM_ONLY.values(), ids=MOMENTUM_ONLY.keys())
def test_momentum_space_functions_reject_a_coordinate_kernel(grid, v0, phi0, call):
    ck = momentum_to_coordinate(v0, build_uniform_radial_grid(grid.n, 9.0))
    with pytest.raises((ContractError, ConsistencyError)):
        call(ck, grid, phi0)


def test_bound_part_transform_matches_radial_form(grid, rgrid, phi0, phi_r):
    carried = BoundState(energy=1.0, samples=phi0.samples, grid=grid,
                         value_at=phi0.value_at)
    transformed = momentum_to_coordinate(build_v_b([carried], grid), rgrid)
    direct = np.outer(phi_r + _quartic_laplacian(phi_r, rgrid.nodes), phi_r)
    inner = slice(2, rgrid.n - 2)
    diff = np.max(np.abs(transformed.values[inner, :] - direct[inner, :]))
    assert diff <= 1e-4 * np.max(np.abs(direct[inner, :]))


def test_shift_term_is_rank_one_in_coordinate_space(grid, rgrid, phi0):
    shift = Kernel(grid=grid,
                   values=(4.0 - phi0.energy) * np.outer(phi0.samples, phi0.samples),
                   symmetry="symmetric")
    sv = np.linalg.svd(momentum_to_coordinate(shift, rgrid).values,
                       compute_uv=False)
    assert sv[1] / sv[0] <= 1e-6


def test_profile_nodes_move_inward_with_energy(rgrid, phi_r):
    r = rgrid.nodes
    node0 = vb_profile_node(phi_r, r, 0.0)
    node1 = vb_profile_node(phi_r, r, 1.0)
    node4 = vb_profile_node(phi_r, r, 4.0)
    assert node0 == pytest.approx(0.67, abs=0.02)
    assert node4 == pytest.approx(0.54, abs=0.02)
    assert node0 > node1 > node4


def test_profile_is_nodeless_below_binding(rgrid, phi_r):
    assert vb_profile_node(phi_r, rgrid.nodes, SEED_E0) is None


def test_array_of_energies_matches_one_call_per_energy(phi0):
    # the 1,500-point mesh reproduce-paper searches; one shared laplacian
    # must give the per-energy nodes bit for bit, None included
    mesh = build_uniform_radial_grid(1500, 12.0)
    phi_mesh = wavefunction_to_coordinate(phi0, mesh)
    energies = (-4.0, -1.0, 0.0, 1.0, 4.0, SEED_E0)
    nodes = vb_profile_node(phi_mesh, mesh.nodes, np.array(energies))
    assert nodes == [vb_profile_node(phi_mesh, mesh.nodes, e) for e in energies]
    assert nodes[-1] is None
    with pytest.raises(ShapeError):
        vb_profile_node(phi_mesh, mesh.nodes, np.ones((2, 2)))


def test_profile_node_needs_uniform_mesh(phi_r):
    r = np.linspace(0.01, 9.0, phi_r.size) ** 1.1
    with pytest.raises(ContractError):
        vb_profile_node(phi_r, r, 1.0)


def test_residual_of_transformed_shifted_kernel(grid, rgrid, v0, phi0, phi_r):
    shifted = energy_shift(v0, phi0, 1.0)
    ck = momentum_to_coordinate(shifted, rgrid)
    assert coordinate_residual(ck, phi_r, 1.0) <= 1e-3


def test_residual_of_free_solution(rgrid):
    j0 = np.sinc(rgrid.nodes / np.pi)
    free = CoordinateKernel(grid=rgrid, values=np.zeros((rgrid.n, rgrid.n)))
    assert coordinate_residual(free, j0, 1.0) <= 1e-8


def test_residual_of_local_seed_potential(rgrid, phi_r):
    lck = local_coordinate_kernel(
        lambda r: SEED_LAM * np.exp(-(r / SEED_B) ** 2), rgrid)
    assert np.all(lck.values == 0.0)
    assert coordinate_residual(lck, phi_r, SEED_E0) <= 1e-3


def test_residual_checks_shape(rgrid):
    free = CoordinateKernel(grid=rgrid, values=np.zeros((rgrid.n, rgrid.n)))
    with pytest.raises(ShapeError):
        coordinate_residual(free, np.ones(7), 1.0)


def test_fine_resample_is_built_once_per_grid_shape(grid):
    fine, b = _fine_resample(grid.n, grid.map_scale, grid.cutoff)
    again = _fine_resample(grid.n, grid.map_scale, grid.cutoff)
    assert again[0] is fine and again[1] is b
    with pytest.raises(ValueError):
        b[0, 0] = 0.0
