import numpy as np
import pytest
from hypothesis import settings

from bicforge import (
    build_momentum_grid,
    gaussian_momentum_kernel,
    ground_state,
    half_on_shell_T_matrix,
    phase_curve,
    sb_decompose,
)

SEED_LAM = -30.0
SEED_B = 0.5
SWEEP_ENERGIES = (-4.0, -1.0, 0.0, 1.0, 4.0)

# property tests draw the same few examples on every run, so Tier-1 stays
# deterministic and fast; no example database is written
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=1000, max_examples=30)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def grid():
    return build_momentum_grid(128)


@pytest.fixture(scope="session")
def v0(grid):
    return gaussian_momentum_kernel(SEED_LAM, SEED_B, grid)


@pytest.fixture(scope="session")
def phi0(grid, v0):
    return ground_state(v0, grid)


@pytest.fixture(scope="session")
def seed_t(grid, v0):
    return half_on_shell_T_matrix(v0, grid)


@pytest.fixture(scope="session")
def seed_curve(grid, v0):
    return phase_curve(v0, grid, samples=64)


@pytest.fixture(scope="session")
def seed_decomp(grid, v0):
    return sb_decompose(v0, grid)
