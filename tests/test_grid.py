import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bicforge import build_momentum_grid, build_radial_grid, inner_product
from bicforge.errors import ConfigurationError, ShapeError
from bicforge.grid import TWO_PI_CUBED


def test_momentum_nodes_inside_open_interval(grid):
    assert grid.n == 128
    assert np.all(grid.nodes > 0.0)
    assert np.all(grid.nodes < grid.cutoff)
    assert np.all(np.diff(grid.nodes) > 0.0)


def test_momentum_quadrature_reproduces_gaussian_integral(grid):
    # integral k^2 e^{-k^2} dk / (2 pi)^3 over (0, inf); the tail beyond
    # the cutoff is below double precision
    exact = np.sqrt(np.pi) / 4.0 / TWO_PI_CUBED
    assert_allclose(np.sum(grid.measure * np.exp(-grid.nodes ** 2)),
                    exact, rtol=1e-13)


def test_momentum_measure_is_weighted_density(grid):
    assert_allclose(grid.measure,
                    grid.weights * grid.nodes ** 2 / TWO_PI_CUBED, rtol=1e-15)


def test_map_scale_sets_node_clustering():
    low = build_momentum_grid(64, map_scale=0.5)
    high = build_momentum_grid(64, map_scale=8.0)
    assert np.median(low.nodes) < np.median(high.nodes)


@pytest.mark.parametrize("kwargs", [
    {"n": 4},
    {"n": 64, "cutoff": -1.0},
    {"n": 64, "map_scale": 0.0},
])
def test_momentum_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigurationError):
        build_momentum_grid(**kwargs)


def test_momentum_grid_is_immutable(grid):
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.cutoff = 1.0
    with pytest.raises(ValueError):
        grid.nodes[0] = 0.0


def test_radial_quadrature_exact_for_polynomials():
    rg = build_radial_grid(32, 5.0)
    assert_allclose(np.sum(rg.weights * rg.nodes ** 2), 5.0 ** 3 / 3.0,
                    rtol=1e-14)
    assert_allclose(rg.measure, rg.weights * rg.nodes ** 2, rtol=1e-15)


def test_inner_product_uses_grid_measure(grid):
    f = np.exp(-grid.nodes)
    assert_allclose(inner_product(f, f, grid),
                    np.sum(grid.measure * f * f), rtol=1e-15)


def test_inner_product_rejects_mismatched_shapes(grid):
    with pytest.raises(ShapeError):
        inner_product(np.ones(3), np.ones(grid.n), grid)


def _barycentric_row_loop(grid, q, weights):
    # the per-momentum form interpolation_matrix replaced, kept as reference
    x = grid.gauss_x
    d = 1.0 + 2.0 * grid.map_scale / grid.cutoff
    diff = (d * q - grid.map_scale) / (q + grid.map_scale) - x
    hit = int(np.argmin(np.abs(diff)))
    if abs(diff[hit]) < 1e-14:
        return np.eye(grid.n)[hit]
    c = weights / diff
    return c / np.sum(c)


def test_interpolation_matrix_matches_per_row_loop_bit_for_bit(grid):
    x, glw = np.polynomial.legendre.leggauss(grid.n)
    weights = ((-1.0) ** np.arange(grid.n)) * np.sqrt((1.0 - x * x) * glw)
    fine = build_momentum_grid(1024)
    want = np.array([_barycentric_row_loop(grid, q, weights) for q in fine.nodes])
    assert np.array_equal(grid.interpolation_matrix(fine.nodes), want)
    assert np.array_equal(grid.interpolation_matrix(grid.nodes), np.eye(grid.n))


@given(n=st.integers(8, 64),
       map_scale=st.floats(0.5, 8.0),
       cutoff=st.floats(20.0, 60.0),
       fractions=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=6),
       node=st.integers(0, 63))
def test_interpolation_matrix_reproduces_polynomials_in_x(
        n, map_scale, cutoff, fractions, node):
    grid = build_momentum_grid(n, map_scale, cutoff)
    qs = cutoff * np.array(fractions)
    xq = grid.map_x(qs)
    assume(np.min(np.abs(np.subtract.outer(xq, grid.gauss_x))) > 1e-14)
    c = grid.interpolation_matrix(qs)
    assert c.shape == (qs.size, n)
    assert_allclose(np.sum(c, axis=1), 1.0, rtol=0, atol=1e-13)

    # a Legendre series in x of degree n - 1 (every lower degree mixed in)
    # is interpolated exactly, up to rounding
    coef = np.cos(np.arange(n) + n)
    p_nodes = np.polynomial.legendre.legval(grid.gauss_x, coef)
    p_q = np.polynomial.legendre.legval(xq, coef)
    assert_allclose(c @ p_nodes, p_q, rtol=0, atol=1e-12 * np.sum(np.abs(coef)))

    j = node % n
    assert np.array_equal(grid.interpolation_matrix(grid.nodes[j]), np.eye(n)[j])
