"""Command-line interface: every standard numerical artifact as data files.

Each subcommand drives the library with the parsed arguments and writes
deterministic outputs: kernel files (.bk), curve files (CSV or aligned
text), and `name = value` summary lines on stdout.  Identical arguments
produce byte-identical files; nothing in the output depends on time,
environment, or iteration order.  `reproduce-paper` computes every
product before it writes the first file, so a failing stage leaves no
output tree behind.

Exit codes: 0 on success, 1 on a diagnosed numerical failure, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import bkio
from .bkio import format_double, format_row
from .coordinate import (build_uniform_radial_grid, momentum_to_coordinate,
                         vb_profile_node, wavefunction_to_coordinate)
from .errors import (BicForgeError, CensusAmbiguousError,
                     CensusIndeterminateError, ConfigurationError)
from .grid import MEV_PER_FM2, build_momentum_grid, build_radial_grid
from .kernels import Kernel, gaussian_momentum_kernel
from .levinson import bic_census
from .reference import (SeparableModel, separable_bic, separable_tune,
                        vnw_build, vnw_verify)
from .scattering import half_on_shell_T_matrix, phase_curve
from .sbdecomp import (build_v_b, detect_bic_signature, energy_shift,
                       s_space_perturb, sb_decompose, verify_conditions_AB)
from .spectral import BoundState, ground_state, negative_energy_states, \
    schrodinger_residual

OUTDIR_ENV = "BIC_FORGE_OUTDIR"
DEFAULT_ENERGIES = (-4.0, -1.0, 0.0, 1.0, 4.0)
PERTURB_LAM = -10.0
PERTURB_B = 1.0


def _etag(e: float) -> str:
    return f"E{e:+.1f}"


def _energy_line(name: str, value: float, args) -> str:
    line = f"{name}_fm2 = {format_double(value)}"
    if args.mev:
        line += f"\n{name}_MeV = {format_double(value * MEV_PER_FM2)}"
    return line


def _write_files(directory: Path, files: dict, fmt: str) -> dict:
    """Write named products under directory; returns name -> path.

    A kernel goes to `<name>.bk`, a list of lines to `<name>.txt`, and a
    `(names, columns)` curve to `<name>.csv` or, in structured text, to a
    `# `-headed `<name>.txt`.
    """
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, product in files.items():
        if isinstance(product, list):
            path = directory / f"{name}.txt"
            path.write_text("\n".join(product) + "\n")
        elif isinstance(product, tuple):
            names, columns = product
            sep, head, ext = (",", "", ".csv") if fmt == "csv" else (" ", "# ", ".txt")
            path = directory / (name + ext)
            lines = [head + sep.join(names)]
            lines += [format_row(row, sep) for row in np.column_stack(columns)]
            path.write_text("\n".join(lines) + "\n")
        else:
            path = directory / f"{name}.bk"
            bkio.write_kernel(product, path)
        paths[name] = path
    return paths


def _delta_curve(curve) -> tuple:
    return ("k", "delta_rad"), (curve.momenta, curve.delta)


def _seed(args):
    grid = build_momentum_grid(args.n, args.map_scale, args.cutoff)
    return grid, gaussian_momentum_kernel(args.lam, args.b, grid)


def _moved(phi: BoundState, e: float) -> BoundState:
    """phi carried to energy e, as energy_shift(V, phi, e) holds it."""
    return BoundState(energy=e, samples=phi.samples, grid=phi.grid,
                      value_at=phi.value_at)


def _tmatrix_files(t, grid) -> dict:
    return {"tmatrix_re": Kernel(grid=grid, values=t.real, symmetry="general"),
            "tmatrix_im": Kernel(grid=grid, values=t.imag, symmetry="general")}


def _bound_parts(phi: BoundState, energies, rn: int, rmax: float, mesh_n: int):
    """The `(r, phi)` curve of phi on a uniform mesh, and tag -> (V_B of phi
    moved to each energy, its coordinate transform on an rn-node radial
    grid, the `node_<tag>_fm` line of its radial profile on the mesh)."""
    mesh = build_uniform_radial_grid(mesh_n, rmax)
    phi_mesh = wavefunction_to_coordinate(phi, mesh)
    rgrid = build_radial_grid(rn, rmax)
    nodes = vb_profile_node(phi_mesh, mesh.nodes, np.asarray(energies))
    parts = {}
    for e, node in zip(energies, nodes):
        tag = _etag(e)
        vb = build_v_b([_moved(phi, e)], phi.grid)
        parts[tag] = (vb, momentum_to_coordinate(vb, rgrid), f"node_{tag}_fm = "
                      + ("none" if node is None else format_double(node)))
    return (("r", "phi"), (mesh.nodes, phi_mesh)), parts


def _vnw(k: float, shape: float):
    """The oscillating benchmark at momentum k with its v and phi curves."""
    if not k > 0:
        raise ConfigurationError(f"vnw needs a momentum k > 0, got {k}")
    model = vnw_build(k, shape, build_radial_grid(400, 60.0 / k))
    r = np.linspace(60.0 / k / 2000.0, 40.0 / k, 2000)
    return model, {"vnw_v": (("r", "v"), (r, model.v(r))),
                   "vnw_phi": (("r", "phi"), (r, model.phi(r)))}


def _separable(kk: float, grid) -> SeparableModel:
    """Rank-one model with g(p) = (K^2 - p^2) exp(-p^2), tuned to hold K^2."""
    def h(p):
        return np.exp(-np.asarray(p) ** 2)

    def g(p):
        p = np.asarray(p)
        return (kk * kk - p * p) * np.exp(-p * p)

    return SeparableModel(grid=grid, g_samples=g(grid.nodes),
                          coupling=separable_tune(g, kk, grid, h=h),
                          k_bic=kk, g_fn=g, h_fn=h)


def _census_lines(label: str, kernel, grid, curve=None):
    """Census report lines; threshold and ambiguity outcomes are reported
    as such rather than raised, so sweeps over E can include E = 0."""
    try:
        c = bic_census(kernel, grid, curve=curve)
    except CensusIndeterminateError:
        return [f"census_{label} = indeterminate (state at the continuum threshold)"]
    except CensusAmbiguousError as exc:
        return [f"census_{label} = ambiguous ({exc})"]
    return [
        f"census_{label} = N={c.n_total} Nminus={c.n_minus} Nplus={c.n_plus}",
        f"census_{label}_delta0_rad = {format_double(c.delta0)}",
        f"census_{label}_deltaInf_rad = {format_double(c.deltaInf)}",
    ]


def _cmd_seed(args) -> list:
    grid, v0 = _seed(args)
    path = _write_files(args.out, {"seed": v0}, args.format)["seed"]
    origin = 4.0 * np.pi * args.lam * (args.b * np.sqrt(np.pi)) ** 3
    return [f"kernel_file = {path}", f"kernel_origin_fm = {format_double(origin)}"]


def _cmd_bound(args) -> list:
    grid, v0 = _seed(args)
    states = negative_energy_states(v0, grid)
    lines = [f"bound_states = {len(states)}"]
    for i, st in enumerate(states):
        lines.append(_energy_line(f"state_{i}", st.energy, args))
    return lines


def _cmd_phase(args) -> list:
    grid, v0 = _seed(args)
    curve = phase_curve(v0, grid, samples=args.samples)
    path = _write_files(args.out, {"phase": _delta_curve(curve)}, args.format)["phase"]
    drop = curve.delta0 - curve.deltaInf
    return [
        f"curve_file = {path}",
        f"delta0_rad = {format_double(curve.delta0)}",
        f"deltaInf_rad = {format_double(curve.deltaInf)}",
        f"drop_over_pi = {format_double(drop / np.pi)}",
    ]


def _cmd_tmatrix(args) -> list:
    grid, v0 = _seed(args)
    t = half_on_shell_T_matrix(v0, grid)
    paths = _write_files(args.out, _tmatrix_files(t, grid), args.format)
    return [
        f"t_real_file = {paths['tmatrix_re']}",
        f"t_imag_file = {paths['tmatrix_im']}",
        f"t_max_abs_fm = {format_double(np.max(np.abs(t)))}",
    ]


def _input_kernel(args) -> Kernel:
    """The momentum-space kernel read from `--in`, or else the seed kernel."""
    if args.infile is None:
        return _seed(args)[1]
    kernel = bkio.read_kernel(args.infile)
    if not isinstance(kernel, Kernel):
        raise ConfigurationError(f"{args.command} needs a momentum-space kernel file")
    return kernel


def _cmd_sbdecomp(args) -> list:
    kernel = _input_kernel(args)
    decomp = sb_decompose(kernel, kernel.grid)
    paths = _write_files(args.out, {"v_s": decomp.v_s, "v_b": decomp.v_b}, args.format)
    lines = [
        f"v_s_file = {paths['v_s']}",
        f"v_b_file = {paths['v_b']}",
        f"bound_states = {len(decomp.bound_list)}",
    ]
    for i, st in enumerate(decomp.bound_list):
        lines.append(_energy_line(f"state_{i}", st.energy, args))
    return lines


def _cmd_shift(args) -> list:
    grid, v0 = _seed(args)
    phi = ground_state(v0, grid)
    energies = DEFAULT_ENERGIES if args.energy is None else (args.energy,)
    shifted = {e: energy_shift(v0, phi, e) for e in energies}
    paths = _write_files(args.out, {f"shift_{_etag(e)}": kernel
                                    for e, kernel in shifted.items()}, args.format)
    lines = [_energy_line("seed_E0", phi.energy, args)]
    for e, kernel in shifted.items():
        tag = _etag(e)
        residual = schrodinger_residual(kernel, _moved(phi, e))
        lines.append(f"kernel_{tag}_file = {paths['shift_' + tag]}")
        lines.append(f"residual_{tag} = {format_double(residual)}")
        lines.extend(_census_lines(tag, kernel, grid))
    return lines


def _cmd_perturb(args) -> list:
    grid, v0 = _seed(args)
    phi = ground_state(v0, grid)
    bump = gaussian_momentum_kernel(PERTURB_LAM, PERTURB_B, grid)
    perturbed = s_space_perturb(v0, phi, bump, strength=args.strength)
    base_curve = phase_curve(v0, grid, samples=args.samples)
    new_curve = phase_curve(perturbed, grid, samples=args.samples)
    path = _write_files(args.out, {
        "perturbed": perturbed, "phase_seed": _delta_curve(base_curve),
        "phase_perturbed": _delta_curve(new_curve)}, args.format)["perturbed"]
    moved = negative_energy_states(perturbed, grid)
    kept = min(moved, key=lambda st: abs(st.energy - phi.energy), default=None)
    lines = [
        f"kernel_file = {path}",
        f"strength = {format_double(args.strength)}",
        f"phi_residual = {format_double(schrodinger_residual(perturbed, phi))}",
        "max_delta_change_rad = "
        f"{format_double(np.max(np.abs(new_curve.delta - base_curve.delta)))}",
    ]
    if kept is not None:
        lines.append(_energy_line("kept_state", kept.energy, args))
    return lines


def _cmd_census(args) -> list:
    kernel = _input_kernel(args)
    label = "seed" if args.infile is None else "input"
    c = bic_census(kernel, kernel.grid, samples=args.samples)
    return [
        f"census_{label} = N={c.n_total} Nminus={c.n_minus} Nplus={c.n_plus}",
        f"delta0_rad = {format_double(c.delta0)}",
        f"deltaInf_rad = {format_double(c.deltaInf)}",
        f"drop_over_pi = {format_double((c.delta0 - c.deltaInf) / np.pi)}",
    ]


def _cmd_extract(args) -> list:
    kernel = _input_kernel(args)
    if args.infile is None:
        kernel = energy_shift(kernel, ground_state(kernel, kernel.grid), args.energy)
    decomp = sb_decompose(kernel, kernel.grid)
    embedded = decomp.bound_list[decomp.n_negative:]
    svals = np.linalg.svd(decomp.v_b.values, compute_uv=False)
    lines = [
        f"negative_states = {decomp.n_negative}",
        f"embedded_states = {len(embedded)}",
    ]
    if svals[0] > 0:
        ratio = svals[min(len(embedded), len(svals) - 1)] / svals[0]
        lines.append(f"factorization_ratio = {format_double(ratio)}")
    for i, st in enumerate(embedded):
        lines.append(_energy_line(f"bic_{i}_Ksq", st.energy, args))
    return lines


def _cmd_coord(args) -> list:
    grid, v0 = _seed(args)
    phi = ground_state(v0, grid)
    phi_r, parts = _bound_parts(phi, DEFAULT_ENERGIES, args.rn, args.rmax, args.mesh)
    files = {"phi_r": phi_r}
    files.update({f"vb_coord_{tag}": ck for tag, (_, ck, _) in parts.items()})
    paths = _write_files(args.out, files, args.format)
    lines = [f"wavefunction_file = {paths['phi_r']}"]
    for tag, (_, _, node_line) in parts.items():
        lines += [f"kernel_{tag}_file = {paths['vb_coord_' + tag]}", node_line]
    return lines


def _cmd_vnw(args) -> list:
    model, curves = _vnw(args.k, args.shape)
    paths = _write_files(args.out, curves, args.format)
    return [
        f"v_file = {paths['vnw_v']}",
        f"phi_file = {paths['vnw_phi']}",
        _energy_line("E", args.k ** 2, args),
        f"residual = {format_double(vnw_verify(model))}",
        f"phi_norm = {format_double(model.norm())}",
    ]


def _cmd_separable(args) -> list:
    grid, _ = _seed(args)
    model = _separable(args.K, grid)
    state = separable_bic(model)
    kernel = model.kernel()
    path = _write_files(args.out, {"separable_phi": (
        ("k", "phi"), (grid.nodes, state.samples))}, args.format)["separable_phi"]
    lines = [
        f"coupling_critical = {format_double(model.coupling)}",
        _energy_line("Ksq", state.energy, args),
        f"residual = {format_double(schrodinger_residual(kernel, state))}",
        f"phi_file = {path}",
    ]
    lines.extend(_census_lines("separable", kernel, grid))
    return lines


def _cmd_verify_ab(args) -> list:
    grid, v0 = _seed(args)
    states = negative_energy_states(v0, grid)
    t = half_on_shell_T_matrix(v0, grid)
    res_a, res_b = verify_conditions_AB(t, states, grid)
    return [
        f"residual_A = {format_double(res_a)}",
        f"residual_B = {format_double(res_b)}",
    ]


def _cmd_reproduce(args) -> list:
    # every product is computed before the first file is written, so a
    # failing stage leaves no partial tree behind
    grid, v0 = _seed(args)
    phi = ground_state(v0, grid)
    shifted = {_etag(e): energy_shift(v0, phi, e) for e in DEFAULT_ENERGIES}
    seed_curve = phase_curve(v0, grid, samples=48)
    curves = {tag: phase_curve(kernel, grid, samples=48)
              for tag, kernel in shifted.items()}
    phi_r, parts = _bound_parts(phi, DEFAULT_ENERGIES, 160, 12.0, 1500)
    decomp = sb_decompose(v0, grid)
    bump = gaussian_momentum_kernel(PERTURB_LAM, PERTURB_B, grid)
    perturbed = s_space_perturb(v0, phi, bump)
    new_curve = phase_curve(perturbed, grid, samples=48)
    vnw_model, vnw_curves = _vnw(1.0, 10.0)

    census = _census_lines("seed", v0, grid, curve=seed_curve)
    for tag, kernel in shifted.items():
        census += _census_lines(tag, kernel, grid, curve=curves[tag])
    summary = [
        _energy_line("seed_E0", phi.energy, args),
        f"seed_delta0_rad = {format_double(seed_curve.delta0)}",
        f"seed_deltaInf_rad = {format_double(seed_curve.deltaInf)}",
    ]
    for tag, (vb, _, _) in parts.items():
        sig = detect_bic_signature(vb)
        summary.append(f"signature_{tag} = origin {sig.origin_sign:+d}, "
                       f"{len(sig.node_momenta)} momentum nodes")
    change = np.max(np.abs(new_curve.delta - seed_curve.delta))
    summary += [
        f"perturb_phi_residual = "
        f"{format_double(schrodinger_residual(perturbed, phi))}",
        f"perturb_max_delta_change_rad = {format_double(change)}",
        f"vnw_residual = {format_double(vnw_verify(vnw_model))}",
        f"separable_coupling = {format_double(_separable(1.0, grid).coupling)}",
    ]

    r = phi_r[1][0]
    tree = {
        "wavefunction": {"phi_r": phi_r,
                         "v0_r": (("r", "v"), (r, args.lam * np.exp(-(r / args.b) ** 2)))},
        "phase-shifts": {"delta_seed": _delta_curve(seed_curve),
                         **{f"delta_{tag}": _delta_curve(curve)
                            for tag, curve in curves.items()}},
        "t-matrix": _tmatrix_files(decomp.t_matrix, grid),
        "bound-part": {f"vb_{tag}": vb for tag, (vb, _, _) in parts.items()},
        "coordinate": {**{f"vb_coord_{tag}": ck for tag, (_, ck, _) in parts.items()},
                       "nodes": [line for _, _, line in parts.values()]},
        "sbdecomp": {"v_s": decomp.v_s, "v_b": decomp.v_b},
        "perturbed": {"perturbed": perturbed,
                      "delta_perturbed": _delta_curve(new_curve)},
        "census": {"census": census},
        "benchmark": vnw_curves,
        "": {"summary": summary},
    }
    for sub, files in tree.items():
        _write_files(args.out / sub, files, args.format)
    return [f"output_tree = {args.out}",
            f"summary_file = {args.out / 'summary.txt'}"]


_SHARED_DEFAULTS = {"n": 128, "map_scale": 2.0, "cutoff": 40.0, "lam": -30.0,
                    "b": 0.5, "out": None, "format": "csv", "mev": False}


def _add_shared(p: argparse.ArgumentParser, top: bool) -> None:
    # the top-level parser carries the real defaults; subparsers get
    # SUPPRESS so that re-parsing after the subcommand cannot clobber a
    # value given before it (each parser needs its own action objects,
    # which rules out the parents= mechanism)
    d = _SHARED_DEFAULTS if top else {k: argparse.SUPPRESS
                                      for k in _SHARED_DEFAULTS}
    p.add_argument("--n", type=int, default=d["n"],
                   help="momentum grid nodes")
    p.add_argument("--map-scale", type=float, default=d["map_scale"],
                   help="grid map scale c in fm^-1")
    p.add_argument("--cutoff", type=float, default=d["cutoff"],
                   help="momentum cutoff in fm^-1")
    p.add_argument("--lam", type=float, default=d["lam"],
                   help="seed strength in fm^-2")
    p.add_argument("--b", type=float, default=d["b"], help="seed range in fm")
    p.add_argument("--out", type=str, default=d["out"],
                   help=f"output directory (overrides ${OUTDIR_ENV})")
    p.add_argument("--format", choices=("csv", "structured-text"),
                   default=d["format"], help="curve file format")
    p.add_argument("--mev", action="store_true", default=d["mev"],
                   help="also report energies in MeV (41.47 MeV fm^2)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bic-forge",
        description="Construct and analyze potentials with bound states "
                    "embedded in the continuum.",
    )
    _add_shared(parser, top=True)

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_shared(p, top=False)
        p.set_defaults(handler=handler)
        return p

    command("seed", _cmd_seed, "write the Gaussian seed kernel")
    command("bound", _cmd_bound, "negative-energy spectrum of the seed")
    p = command("phase", _cmd_phase, "phase-shift curve of the seed")
    p.add_argument("--samples", type=int, default=64)
    command("tmatrix", _cmd_tmatrix, "half-on-shell T-matrix of the seed")
    p = command("sbdecomp", _cmd_sbdecomp, "split a kernel into V_S + V_B")
    p.add_argument("--in", dest="infile", default=None, metavar="FILE")
    p = command("shift", _cmd_shift, "move the bound state to target energies")
    p.add_argument("--E", dest="energy", type=float, default=None,
                   help="single target energy in fm^-2 (default: full sweep)")
    p = command("perturb", _cmd_perturb,
                "scattering-space perturbation that keeps the bound state")
    p.add_argument("--strength", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=48)
    p = command("census", _cmd_census, "count total/negative/embedded states")
    p.add_argument("--in", dest="infile", default=None, metavar="FILE")
    p.add_argument("--samples", type=int, default=64)
    p = command("extract", _cmd_extract, "recover embedded states from V_B")
    p.add_argument("--in", dest="infile", default=None, metavar="FILE")
    p.add_argument("--E", dest="energy", type=float, default=4.0,
                   help="embedding energy for the default construction")
    p = command("coord", _cmd_coord, "coordinate-space kernels and profile nodes")
    p.add_argument("--rn", type=int, default=160, help="radial quadrature nodes")
    p.add_argument("--rmax", type=float, default=12.0)
    p.add_argument("--mesh", type=int, default=1500,
                   help="uniform mesh points for the node search")
    p = command("vnw", _cmd_vnw, "oscillating local benchmark potential")
    p.add_argument("--k", type=float, default=1.0, help="embedded momentum fm^-1")
    p.add_argument("--A", dest="shape", type=float, default=10.0,
                   help="shape constant")
    p = command("separable", _cmd_separable, "tuned rank-one benchmark potential")
    p.add_argument("--K", type=float, default=1.0, help="embedded momentum fm^-1")
    command("verify-ab", _cmd_verify_ab,
            "scattering/bound-space consistency residuals")
    command("reproduce-paper", _cmd_reproduce,
            "write the full default sweep as one directory tree")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    args.out = Path(args.out if args.out is not None
                    else os.environ.get(OUTDIR_ENV) or ".")
    try:
        for line in args.handler(args):
            print(line)
    except (BicForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
