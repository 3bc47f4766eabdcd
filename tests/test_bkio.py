"""Reading and writing the .bk kernel file format."""

import numpy as np
import pytest

from bicforge import (
    ConsistencyError,
    ContractError,
    CoordinateKernel,
    Kernel,
    build_uniform_radial_grid,
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
    assert back.space == "momentum"
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


def test_coordinate_flagged_kernel_instance_is_rejected(tmp_path, grid):
    wrong = Kernel(grid=grid, values=np.zeros((grid.n, grid.n)),
                   symmetry="general", space="coordinate")
    with pytest.raises(ContractError):
        write_kernel(wrong, tmp_path / "wrong.bk")


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
