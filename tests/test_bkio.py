"""Reading and writing the .bk kernel file format."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bicforge import (
    BicForgeError,
    ConfigurationError,
    ConsistencyError,
    ContractError,
    CoordinateKernel,
    Kernel,
    build_momentum_grid,
    build_uniform_radial_grid,
    gaussian_momentum_kernel,
    momentum_to_coordinate,
    read_kernel,
    write_kernel,
)


def test_momentum_kernel_round_trips_bit_for_bit(tmp_path, grid, v0):
    path = tmp_path / "seed.bk"
    write_kernel(v0, path)
    back = read_kernel(path)
    assert isinstance(back, Kernel)
    assert back.symmetry == "symmetric"
    assert np.array_equal(back.values, v0.values)
    assert np.array_equal(back.grid.nodes, grid.nodes)
    assert back.grid.map_scale == grid.map_scale
    assert back.grid.cutoff == grid.cutoff


def test_general_symmetry_flag_survives(tmp_path, seed_decomp):
    path = tmp_path / "vb.bk"
    write_kernel(seed_decomp.v_b, path)
    assert read_kernel(path).symmetry == "general"


def test_coordinate_kernel_round_trips_bit_for_bit(tmp_path, v0):
    rgrid = build_uniform_radial_grid(60, 8.0)
    ck = momentum_to_coordinate(v0, rgrid)
    path = tmp_path / "coord.bk"
    write_kernel(ck, path)
    back = read_kernel(path)
    assert isinstance(back, CoordinateKernel)
    assert np.array_equal(back.values, ck.values)
    assert np.array_equal(back.grid.nodes, rgrid.nodes)
    assert back.grid.r_max == rgrid.r_max


def test_identical_writes_are_byte_identical(tmp_path, v0):
    a, b = tmp_path / "a.bk", tmp_path / "b.bk"
    write_kernel(v0, a)
    write_kernel(v0, b)
    assert a.read_bytes() == b.read_bytes()


def test_kernel_on_a_radial_grid_is_rejected():
    rgrid = build_uniform_radial_grid(16, 8.0)
    with pytest.raises(ContractError, match="MomentumGrid"):
        Kernel(grid=rgrid, values=np.zeros((16, 16)), symmetry="general")


def test_negative_radial_weight_is_a_configuration_error(tmp_path, v0):
    path = tmp_path / "coord.bk"
    write_kernel(momentum_to_coordinate(v0, build_uniform_radial_grid(60, 8.0)), path)
    lines = path.read_text().splitlines()
    node, _, _ = lines[3].partition(",")
    lines[3] = f"{node},-0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match="weights must be positive"):
        read_kernel(path)


def test_truncated_body_is_rejected(tmp_path, v0):
    path = tmp_path / "short.bk"
    write_kernel(v0, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ContractError):
        read_kernel(path)


def test_missing_header_is_rejected(tmp_path, v0):
    path = tmp_path / "bare.bk"
    write_kernel(v0, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(ln for ln in lines if not ln.startswith("#space")) + "\n")
    with pytest.raises(ContractError):
        read_kernel(path)


def test_corrupted_node_is_caught_against_the_rebuilt_grid(tmp_path, v0):
    path = tmp_path / "bent.bk"
    write_kernel(v0, path)
    lines = path.read_text().splitlines()
    node, _, weight = lines[3].partition(",")
    lines[3] = f"{float(node) * 1.001}, {weight}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConsistencyError):
        read_kernel(path)


def test_corrupted_weight_is_caught_against_the_rebuilt_grid(tmp_path):
    grid = build_momentum_grid(16)
    path = tmp_path / "bent.bk"
    write_kernel(gaussian_momentum_kernel(-30.0, 0.5, grid), path)
    lines = path.read_text().splitlines()
    node, _, _ = lines[3].partition(",")
    lines[3] = f"{node},-0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConsistencyError, match="weights"):
        read_kernel(path)


def _reference_bk(kernel):
    """The .bk text of the writer that formatted one number at a time."""
    def fmt(x):
        return f"{float(x):.17g}"

    grid = kernel.grid
    if isinstance(kernel, CoordinateKernel):
        lines = [f"#grid {grid.n} {fmt(grid.r_max)}", "#space coordinate",
                 "#symmetry general"]
    else:
        lines = [f"#grid {grid.n} {fmt(grid.map_scale)} {fmt(grid.cutoff)}",
                 "#space momentum", f"#symmetry {kernel.symmetry}"]
    for node, weight in zip(grid.nodes, grid.weights):
        lines.append(f"{fmt(node)},{fmt(weight)}")
    for row in kernel.values:
        lines.append(" ".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _first_differing_line(got, want):
    """Index of the first line where two texts differ, or None.

    Compared line by line because pytest's own diff of two large
    mismatched texts takes minutes.
    """
    a, b = got.split("\n"), want.split("\n")
    tail = None if len(a) == len(b) else min(len(a), len(b))
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), tail)


@pytest.mark.parametrize("space", ["momentum", "coordinate"])
def test_writer_matches_the_per_number_reference(tmp_path, v0, space):
    kernel = v0 if space == "momentum" else momentum_to_coordinate(
        v0, build_uniform_radial_grid(60, 8.0))
    path = tmp_path / "k.bk"
    write_kernel(kernel, path)
    assert _first_differing_line(path.read_text(), _reference_bk(kernel)) is None


def _non_numeric_value(lines):
    row = lines[-1].split()
    row[5] = "oops"
    lines[-1] = " ".join(row)
    return lines


def _ragged_value_row(lines):
    lines[-1] = lines[-1].rsplit(" ", 1)[0]
    return lines


def _headers_only(lines):
    return [ln for ln in lines if ln.startswith("#")]


def _non_numeric_grid_size(lines):
    return ["#grid x 4 20" if ln.startswith("#grid") else ln for ln in lines]


def _short_grid_header(lines):
    return ["#grid 128 4" if ln.startswith("#grid") else ln for ln in lines]


@pytest.mark.parametrize("corrupt,message", [
    (_non_numeric_value, "malformed number"),
    (_ragged_value_row, "value row 127 has 127 entries"),
    (_headers_only, "got 0"),
    (_non_numeric_grid_size, "malformed #grid"),
    (_short_grid_header, "needs 3 fields"),
], ids=["non_numeric", "ragged", "headers_only", "grid_size", "grid_fields"])
def test_malformed_body_is_a_contract_error(tmp_path, v0, corrupt, message):
    path = tmp_path / "bad.bk"
    write_kernel(v0, path)
    lines = corrupt(path.read_text().splitlines())
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ContractError, match=message):
        read_kernel(path)


# signed zeros, the smallest and largest subnormals, the smallest normal and
# the largest finite doubles, drawn alongside arbitrary finite doubles
EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310,
            2.2250738585072014e-308, 1e-307, -1.7976931348623157e308,
            1.7976931348623157e308, 9.99e307, -1e308)
DOUBLES = st.sampled_from(EXTREMES) | st.floats(allow_nan=False, allow_infinity=False)


def _kernel(kind, values, r_max):
    n = values.shape[0]
    if kind == "coordinate":
        return CoordinateKernel(grid=build_uniform_radial_grid(n, r_max), values=values)
    if kind == "symmetric":
        # mirror the upper triangle: v + v.T would overflow near 1e308 and
        # turn -0.0 into 0.0
        values = np.where(np.tri(n, dtype=bool), values.T, values)
    return Kernel(grid=build_momentum_grid(n), values=values, symmetry=kind)


@given(kind=st.sampled_from(["symmetric", "general", "coordinate"]),
       values=st.integers(8, 10).flatmap(
           lambda n: arrays(np.float64, (n, n), elements=DOUBLES)),
       r_max=st.floats(0.5, 50.0))
def test_any_finite_kernel_round_trips_bit_for_bit(tmp_path_factory, kind,
                                                   values, r_max):
    kernel = _kernel(kind, values, r_max)
    path = tmp_path_factory.mktemp("bk") / "k.bk"
    write_kernel(kernel, path)
    assert _first_differing_line(path.read_text(), _reference_bk(kernel)) is None
    back = read_kernel(path)
    assert type(back) is type(kernel)
    assert back.values.tobytes() == kernel.values.tobytes()
    assert back.grid.nodes.tobytes() == kernel.grid.nodes.tobytes()
    assert back.grid.weights.tobytes() == kernel.grid.weights.tobytes()
    if kind != "coordinate":
        assert back.symmetry == kind


# non-numbers, overflow to and plain infinities, signed zeros, a subnormal and
# wrong but ordinary numbers, each put in place of one token
MUTATIONS = ("nan", "inf", "-inf", "1e400", "abc", "", "-1", "0", "-0", "1e-320", "3.5")


@pytest.fixture(scope="module")
def seed16_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("seed16") / "seed.bk"
    write_kernel(gaussian_momentum_kernel(-30.0, 0.5, build_momentum_grid(16)), path)
    return path.read_text()


@settings(max_examples=200, deadline=500)
@given(data=st.data(), token=st.sampled_from(MUTATIONS))
def test_one_mutated_token_is_an_error_or_agrees_with_the_grid(tmp_path_factory,
                                                               seed16_text, data,
                                                               token):
    lines = [re.split("([ ,])", ln) for ln in seed16_text.splitlines()]
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    j = data.draw(st.integers(0, len(lines[i]) // 2), label="token")
    lines[i][2 * j] = token
    path = tmp_path_factory.mktemp("mutated") / "k.bk"
    path.write_text("\n".join("".join(parts) for parts in lines) + "\n")
    try:
        kernel = read_kernel(path)
    except BicForgeError:
        return
    # loaded: a mutated grid token must agree with the rebuilt grid to the
    # reader's tolerances; a finite mutated value is data
    grid = kernel.grid
    if i == 0 and j > 0:
        assert float(token) == (grid.n, grid.map_scale, grid.cutoff)[j - 1]
    elif 3 <= i < 3 + grid.n:
        stored = (grid.nodes, grid.weights)[j][i - 3]
        tol = (grid.cutoff, stored)[j] * 1e-12
        assert abs(float(token) - stored) <= tol
