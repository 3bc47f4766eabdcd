"""Line-oriented text files for kernels (.bk): diffable and bit-stable.

Layout: header lines `#grid ...`, `#space momentum|coordinate`,
`#symmetry symmetric|general`, then one `node,weight` line per
quadrature point, then the n x n values row by row.  Momentum grids
store their construction parameters (`#grid n map_scale cutoff`) and
are rebuilt through the grid constructor on read, with the stored nodes
cross-checked; coordinate grids (`#grid n r_max`) are taken verbatim
from the stored quadrature.

All numbers are written in one format, DOUBLE_FORMAT = "%.17g" (17
significant digits), which round-trips IEEE doubles exactly: a kernel
survives write/read bit for bit, and identical runs produce
byte-identical files.  A line of numbers is formatted in one `%`
operation by format_row, which the CLI's curve files share.

Only dense real values are stored.  Symbolic local parts of coordinate
kernels and evaluator closures are construction-time objects with no
file representation; a loaded kernel is interpolation-grade.
"""

from __future__ import annotations

import numpy as np

from .coordinate import CoordinateKernel
from .errors import ConsistencyError, ContractError
from .grid import MomentumGrid, RadialGrid, build_momentum_grid
from .kernels import Kernel


DOUBLE_FORMAT = "%.17g"


def format_double(x: float) -> str:
    """17 significant digits: enough for any IEEE double to round-trip."""
    return DOUBLE_FORMAT % float(x)


def format_row(row, sep: str = " ") -> str:
    """The entries of a 1-d array in DOUBLE_FORMAT joined by sep, as one line.

    Equal to sep.join(format_double(x) for x in row), in one `%` call.
    """
    values = np.asarray(row, dtype=float).tolist()
    return sep.join([DOUBLE_FORMAT] * len(values)) % tuple(values)


def write_kernel(kernel, path) -> None:
    """Write a momentum- or coordinate-space kernel to a .bk file."""
    grid = kernel.grid
    lines = []
    if isinstance(kernel, CoordinateKernel):
        lines.append(f"#grid {grid.n} {format_double(grid.r_max)}")
        lines.append("#space coordinate")
        lines.append("#symmetry general")
    elif isinstance(kernel, Kernel):
        lines.append(f"#grid {grid.n} {format_double(grid.map_scale)} "
                     f"{format_double(grid.cutoff)}")
        lines.append("#space momentum")
        lines.append(f"#symmetry {kernel.symmetry}")
    else:
        raise ContractError(f"cannot serialize {type(kernel).__name__}")
    quadrature = np.column_stack((grid.nodes, grid.weights))
    lines += [format_row(pair, ",") for pair in quadrature]
    lines += [format_row(row) for row in np.asarray(kernel.values, dtype=float)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_kernel(path):
    """Read a .bk file back into a Kernel or CoordinateKernel.

    Momentum grids are rebuilt from their stored parameters; a mismatch
    beyond 1e-12 relative between rebuilt and stored nodes or weights
    means the file was produced by an incompatible grid construction, or
    edited, and raises ConsistencyError.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = {}
    body_start = len(lines)
    for i, ln in enumerate(lines):
        if not ln.startswith("#"):
            body_start = i
            break
        key, _, rest = ln[1:].partition(" ")
        header[key] = rest
    for key in ("grid", "space", "symmetry"):
        if key not in header:
            raise ContractError(f"missing #{key} header")

    space = header["space"]
    grid_fields = {"coordinate": 2, "momentum": 3}.get(space)
    if grid_fields is None:
        raise ContractError(f"unknown space {space!r}")
    grid_parts = header["grid"].split()
    if len(grid_parts) != grid_fields:
        raise ContractError(f"#grid of a {space} kernel needs {grid_fields} "
                            f"fields, got {header['grid']!r}")
    try:
        n = int(grid_parts[0])
        grid_params = [float(x) for x in grid_parts[1:]]
    except ValueError as exc:
        raise ContractError(f"malformed #grid header in {path}: {exc}") from exc
    body = lines[body_start:]
    if len(body) != 2 * n:
        raise ContractError(
            f"expected {n} quadrature lines plus {n} value rows, got {len(body)}"
        )
    nodes = np.empty(n)
    weights = np.empty(n)
    try:
        for i, ln in enumerate(body[:n]):
            a, _, b = ln.partition(",")
            nodes[i] = float(a)
            weights[i] = float(b)
        rows = [[float(tok) for tok in ln.split()] for ln in body[n:]]
    except ValueError as exc:
        raise ContractError(f"malformed number in {path}: {exc}") from exc
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ContractError(f"value row {i} has {len(row)} entries, expected {n}")
    values = np.array(rows)

    if space == "coordinate":
        grid = RadialGrid(nodes=nodes, weights=weights, r_max=grid_params[0])
        return CoordinateKernel(grid=grid, values=values)
    grid = build_momentum_grid(n, *grid_params)
    if not np.all(np.abs(grid.nodes - nodes) <= 1e-12 * grid.cutoff):
        raise ConsistencyError(
            "stored nodes disagree with the rebuilt grid; "
            "the file used a different grid construction"
        )
    if not np.all(np.abs(grid.weights - weights) <= 1e-12 * grid.weights):
        raise ConsistencyError(
            "stored weights disagree with the rebuilt grid; "
            "the file used a different grid construction"
        )
    return Kernel(grid=grid, values=values, symmetry=header["symmetry"])
