"""Command-line interface: every standard numerical artifact as data files.

Each subcommand drives the library with a validated RunConfig and writes
deterministic outputs: kernel files (.bk), curve files (CSV or aligned
text), and `name = value` summary lines on stdout.  Identical configs
produce byte-identical files; nothing in the output depends on time,
environment, or iteration order.

Exit codes: 0 on success, 1 on a diagnosed numerical failure, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bkio
from .bkio import format_double
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
                       extract_bics, s_space_perturb, sb_decompose,
                       verify_conditions_AB)
from .spectral import BoundState, ground_state, negative_energy_states, \
    schrodinger_residual

OUTDIR_ENV = "BIC_FORGE_OUTDIR"
DEFAULT_ENERGIES = (-4.0, -1.0, 0.0, 1.0, 4.0)
PERTURB_LAM = -10.0
PERTURB_B = 1.0


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by all subcommands.

    Defaults are the standard setup: Gaussian seed lam = -30 fm^-2,
    b = 0.5 fm on a 128-node grid with cutoff 40 fm^-1, and the energy
    sweep {-4, -1, 0, +1, +4} fm^-2.
    """

    command: str
    n: int = 128
    map_scale: float = 2.0
    cutoff: float = 40.0
    lam: float = -30.0
    b: float = 0.5
    energies: tuple = DEFAULT_ENERGIES
    outdir: Path = Path(".")
    fmt: str = "csv"
    mev: bool = False

    def __post_init__(self):
        if self.fmt not in ("csv", "structured-text"):
            raise ConfigurationError(f"unknown output format {self.fmt!r}")
        if not self.energies:
            raise ConfigurationError("need at least one target energy")


def _etag(e: float) -> str:
    return f"E{e:+.1f}"


def _energy_line(name: str, value: float, cfg: RunConfig) -> str:
    line = f"{name}_fm2 = {format_double(value)}"
    if cfg.mev:
        line += f"\n{name}_MeV = {format_double(value * MEV_PER_FM2)}"
    return line


def _outdir(cfg: RunConfig) -> Path:
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    return cfg.outdir


def _write_curve(directory: Path, stem: str, names, columns, fmt: str) -> Path:
    path = directory / (stem + (".csv" if fmt == "csv" else ".txt"))
    rows = list(zip(*columns))
    if fmt == "csv":
        lines = [",".join(names)]
        lines += [",".join(format_double(v) for v in row) for row in rows]
    else:
        lines = ["# " + " ".join(names)]
        lines += [" ".join(format_double(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def _seed(cfg: RunConfig):
    grid = build_momentum_grid(cfg.n, cfg.map_scale, cfg.cutoff)
    return grid, gaussian_momentum_kernel(cfg.lam, cfg.b, grid)


def _census_lines(label: str, kernel, grid, samples: int = 64):
    """Census report lines; threshold and ambiguity outcomes are reported
    as such rather than raised, so sweeps over E can include E = 0."""
    try:
        c = bic_census(kernel, grid, samples=samples)
    except CensusIndeterminateError:
        return [f"census_{label} = indeterminate (state at the continuum threshold)"]
    except CensusAmbiguousError as exc:
        return [f"census_{label} = ambiguous ({exc})"]
    return [
        f"census_{label} = N={c.n_total} Nminus={c.n_minus} Nplus={c.n_plus}",
        f"census_{label}_delta0_rad = {format_double(c.delta0)}",
        f"census_{label}_deltaInf_rad = {format_double(c.deltaInf)}",
    ]


def _cmd_seed(cfg: RunConfig, args) -> list:
    grid, v0 = _seed(cfg)
    path = _outdir(cfg) / "seed.bk"
    bkio.write_kernel(v0, path)
    origin = 4.0 * np.pi * cfg.lam * (cfg.b * np.sqrt(np.pi)) ** 3
    return [f"kernel_file = {path}", f"kernel_origin_fm = {format_double(origin)}"]


def _cmd_bound(cfg: RunConfig, args) -> list:
    grid, v0 = _seed(cfg)
    states = negative_energy_states(v0, grid)
    lines = [f"bound_states = {len(states)}"]
    for i, st in enumerate(states):
        lines.append(_energy_line(f"state_{i}", st.energy, cfg))
    return lines


def _cmd_phase(cfg: RunConfig, args) -> list:
    grid, v0 = _seed(cfg)
    curve = phase_curve(v0, grid, samples=args.samples)
    path = _write_curve(_outdir(cfg), "phase", ("k", "delta_rad"),
                        (curve.momenta, curve.delta), cfg.fmt)
    drop = curve.delta0 - curve.deltaInf
    return [
        f"curve_file = {path}",
        f"delta0_rad = {format_double(curve.delta0)}",
        f"deltaInf_rad = {format_double(curve.deltaInf)}",
        f"drop_over_pi = {format_double(drop / np.pi)}",
    ]


def _cmd_tmatrix(cfg: RunConfig, args) -> list:
    grid, v0 = _seed(cfg)
    t = half_on_shell_T_matrix(v0, grid)
    out = _outdir(cfg)
    re_path, im_path = out / "tmatrix_re.bk", out / "tmatrix_im.bk"
    bkio.write_kernel(Kernel(grid=grid, values=t.real, symmetry="general"), re_path)
    bkio.write_kernel(Kernel(grid=grid, values=t.imag, symmetry="general"), im_path)
    return [
        f"t_real_file = {re_path}",
        f"t_imag_file = {im_path}",
        f"t_max_abs_fm = {format_double(np.max(np.abs(t)))}",
    ]


def _cmd_sbdecomp(cfg: RunConfig, args) -> list:
    grid, v0 = _seed(cfg)
    kernel = v0 if args.infile is None else _load_momentum(args.infile, "sbdecomp")
    decomp = sb_decompose(kernel, grid if args.infile is None else kernel.grid)
    out = _outdir(cfg)
    vs_path, vb_path = out / "v_s.bk", out / "v_b.bk"
    bkio.write_kernel(decomp.v_s, vs_path)
    bkio.write_kernel(decomp.v_b, vb_path)
    lines = [
        f"v_s_file = {vs_path}",
        f"v_b_file = {vb_path}",
        f"bound_states = {len(decomp.bound_list)}",
    ]
    for i, st in enumerate(decomp.bound_list):
        lines.append(_energy_line(f"state_{i}", st.energy, cfg))
    return lines


def _load_momentum(path, where: str) -> Kernel:
    kernel = bkio.read_kernel(path)
    if not isinstance(kernel, Kernel):
        raise ConfigurationError(f"{where} needs a momentum-space kernel file")
    return kernel


def _cmd_shift(cfg: RunConfig, args) -> list:
    grid, v0 = _seed(cfg)
    phi = ground_state(v0, grid)
    energies = cfg.energies if args.energy is None else (args.energy,)
    out = _outdir(cfg)
    lines = [_energy_line("seed_E0", phi.energy, cfg)]
    for e in energies:
        tag = _etag(e)
        shifted = energy_shift(v0, phi, e)
        path = out / f"shift_{tag}.bk"
        bkio.write_kernel(shifted, path)
        moved = BoundState(energy=e, samples=phi.samples, grid=grid,
                           value_at=phi.value_at)
        lines.append(f"kernel_{tag}_file = {path}")
        residual = schrodinger_residual(shifted, moved)
        lines.append(f"residual_{tag} = {format_double(residual)}")
        lines.extend(_census_lines(tag, shifted, grid))
    return lines


def _cmd_perturb(cfg: RunConfig, args) -> list:
    grid, v0 = _seed(cfg)
    phi = ground_state(v0, grid)
    bump = gaussian_momentum_kernel(PERTURB_LAM, PERTURB_B, grid)
    perturbed = s_space_perturb(v0, phi, bump, strength=args.strength)
    out = _outdir(cfg)
    path = out / "perturbed.bk"
    bkio.write_kernel(perturbed, path)
    base_curve = phase_curve(v0, grid, samples=args.samples)
    new_curve = phase_curve(perturbed, grid, samples=args.samples)
    _write_curve(out, "phase_seed", ("k", "delta_rad"),
                 (base_curve.momenta, base_curve.delta), cfg.fmt)
    _write_curve(out, "phase_perturbed", ("k", "delta_rad"),
                 (new_curve.momenta, new_curve.delta), cfg.fmt)
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
        lines.append(_energy_line("kept_state", kept.energy, cfg))
    return lines


def _cmd_census(cfg: RunConfig, args) -> list:
    if args.infile is None:
        grid, kernel = _seed(cfg)
        label = "seed"
    else:
        kernel = _load_momentum(args.infile, "census")
        grid, label = kernel.grid, "input"
    c = bic_census(kernel, grid, samples=args.samples)
    return [
        f"census_{label} = N={c.n_total} Nminus={c.n_minus} Nplus={c.n_plus}",
        f"delta0_rad = {format_double(c.delta0)}",
        f"deltaInf_rad = {format_double(c.deltaInf)}",
        f"drop_over_pi = {format_double((c.delta0 - c.deltaInf) / np.pi)}",
    ]


def _cmd_extract(cfg: RunConfig, args) -> list:
    if args.infile is None:
        grid, v0 = _seed(cfg)
        phi = ground_state(v0, grid)
        kernel = energy_shift(v0, phi, args.energy)
    else:
        kernel = _load_momentum(args.infile, "extract")
        grid = kernel.grid
    decomp = sb_decompose(kernel, grid)
    negatives = negative_energy_states(kernel, grid)
    pairs = extract_bics(decomp.v_b, negatives)
    svals = np.linalg.svd(decomp.v_b.values, compute_uv=False)
    lines = [
        f"negative_states = {len(negatives)}",
        f"embedded_states = {len(pairs)}",
    ]
    if svals[0] > 0:
        ratio = svals[min(len(pairs), len(svals) - 1)] / svals[0]
        lines.append(f"factorization_ratio = {format_double(ratio)}")
    for i, (st, k_sq) in enumerate(pairs):
        lines.append(_energy_line(f"bic_{i}_Ksq", k_sq, cfg))
    return lines


def _cmd_coord(cfg: RunConfig, args) -> list:
    grid, v0 = _seed(cfg)
    phi = ground_state(v0, grid)
    rgrid = build_radial_grid(args.rn, args.rmax)
    mesh = build_uniform_radial_grid(args.mesh, args.rmax)
    phi_mesh = wavefunction_to_coordinate(phi, mesh)
    out = _outdir(cfg)
    wf_path = _write_curve(out, "phi_r", ("r", "phi"),
                           (mesh.nodes, phi_mesh), cfg.fmt)
    lines = [f"wavefunction_file = {wf_path}"]
    for e in cfg.energies:
        tag = _etag(e)
        moved = BoundState(energy=e, samples=phi.samples, grid=grid,
                           value_at=phi.value_at)
        vb = build_v_b([moved], grid)
        ck = momentum_to_coordinate(vb, rgrid)
        path = out / f"vb_coord_{tag}.bk"
        bkio.write_kernel(ck, path)
        node = vb_profile_node(phi_mesh, mesh.nodes, e)
        lines.append(f"kernel_{tag}_file = {path}")
        if node is None:
            lines.append(f"node_{tag}_fm = none")
        else:
            lines.append(f"node_{tag}_fm = {format_double(node)}")
    return lines


def _cmd_vnw(cfg: RunConfig, args) -> list:
    rgrid = build_radial_grid(400, 60.0 / args.k)
    model = vnw_build(args.k, args.shape, rgrid)
    r = np.linspace(60.0 / args.k / 2000.0, 40.0 / args.k, 2000)
    out = _outdir(cfg)
    v_path = _write_curve(out, "vnw_v", ("r", "v"), (r, model.v(r)), cfg.fmt)
    phi_path = _write_curve(out, "vnw_phi", ("r", "phi"),
                            (r, model.phi(r)), cfg.fmt)
    return [
        f"v_file = {v_path}",
        f"phi_file = {phi_path}",
        _energy_line("E", args.k ** 2, cfg),
        f"residual = {format_double(vnw_verify(model))}",
        f"phi_norm = {format_double(model.norm())}",
    ]


def _cmd_separable(cfg: RunConfig, args) -> list:
    grid, _ = _seed(cfg)
    kk = args.K

    def h(p):
        return np.exp(-np.asarray(p) ** 2)

    def g(p):
        p = np.asarray(p)
        return (kk * kk - p * p) * np.exp(-p * p)

    lam_c = separable_tune(g, kk, grid, h=h)
    model = SeparableModel(grid=grid, g_samples=g(grid.nodes), coupling=lam_c,
                           k_bic=kk, g_fn=g, h_fn=h)
    state = separable_bic(model)
    kernel = model.kernel()
    out = _outdir(cfg)
    phi_path = _write_curve(out, "separable_phi", ("k", "phi"),
                            (grid.nodes, state.samples), cfg.fmt)
    lines = [
        f"coupling_critical = {format_double(lam_c)}",
        _energy_line("Ksq", state.energy, cfg),
        f"residual = {format_double(schrodinger_residual(kernel, state))}",
        f"phi_file = {phi_path}",
    ]
    lines.extend(_census_lines("separable", kernel, grid))
    return lines


def _cmd_verify_ab(cfg: RunConfig, args) -> list:
    grid, v0 = _seed(cfg)
    states = negative_energy_states(v0, grid)
    t = half_on_shell_T_matrix(v0, grid)
    res_a, res_b = verify_conditions_AB(t, states, grid)
    return [
        f"residual_A = {format_double(res_a)}",
        f"residual_B = {format_double(res_b)}",
    ]


def _cmd_reproduce(cfg: RunConfig, args) -> list:
    out = _outdir(cfg)
    grid, v0 = _seed(cfg)
    phi = ground_state(v0, grid)
    summary = [_energy_line("seed_E0", phi.energy, cfg)]

    wf_dir = out / "wavefunction"
    wf_dir.mkdir(exist_ok=True)
    mesh = build_uniform_radial_grid(1500, 12.0)
    phi_mesh = wavefunction_to_coordinate(phi, mesh)
    _write_curve(wf_dir, "phi_r", ("r", "phi"), (mesh.nodes, phi_mesh), cfg.fmt)
    _write_curve(wf_dir, "v0_r", ("r", "v"),
                 (mesh.nodes, cfg.lam * np.exp(-(mesh.nodes / cfg.b) ** 2)), cfg.fmt)

    ph_dir = out / "phase-shifts"
    ph_dir.mkdir(exist_ok=True)
    seed_curve = phase_curve(v0, grid, samples=48)
    _write_curve(ph_dir, "delta_seed", ("k", "delta_rad"),
                 (seed_curve.momenta, seed_curve.delta), cfg.fmt)
    summary.append(f"seed_delta0_rad = {format_double(seed_curve.delta0)}")
    summary.append(f"seed_deltaInf_rad = {format_double(seed_curve.deltaInf)}")

    tm_dir = out / "t-matrix"
    tm_dir.mkdir(exist_ok=True)
    t = half_on_shell_T_matrix(v0, grid)
    bkio.write_kernel(Kernel(grid=grid, values=t.real, symmetry="general"),
                      tm_dir / "tmatrix_re.bk")
    bkio.write_kernel(Kernel(grid=grid, values=t.imag, symmetry="general"),
                      tm_dir / "tmatrix_im.bk")

    vb_dir = out / "bound-part"
    vb_dir.mkdir(exist_ok=True)
    co_dir = out / "coordinate"
    co_dir.mkdir(exist_ok=True)
    rgrid = build_radial_grid(160, 12.0)
    node_lines = []
    for e in cfg.energies:
        tag = _etag(e)
        shifted = energy_shift(v0, phi, e)
        moved = BoundState(energy=e, samples=phi.samples, grid=grid,
                           value_at=phi.value_at)
        vb = build_v_b([moved], grid)
        bkio.write_kernel(vb, vb_dir / f"vb_{tag}.bk")
        bkio.write_kernel(momentum_to_coordinate(vb, rgrid),
                          co_dir / f"vb_coord_{tag}.bk")
        curve = phase_curve(shifted, grid, samples=48)
        _write_curve(ph_dir, f"delta_{tag}", ("k", "delta_rad"),
                     (curve.momenta, curve.delta), cfg.fmt)
        sig = detect_bic_signature(vb)
        node = vb_profile_node(phi_mesh, mesh.nodes, e)
        node_lines.append(f"node_{tag}_fm = "
                          + ("none" if node is None else format_double(node)))
        summary.append(f"signature_{tag} = origin {sig.origin_sign:+d}, "
                       f"{len(sig.node_momenta)} momentum nodes")
    (co_dir / "nodes.txt").write_text("\n".join(node_lines) + "\n")

    sb_dir = out / "sbdecomp"
    sb_dir.mkdir(exist_ok=True)
    decomp = sb_decompose(v0, grid)
    bkio.write_kernel(decomp.v_s, sb_dir / "v_s.bk")
    bkio.write_kernel(decomp.v_b, sb_dir / "v_b.bk")

    pe_dir = out / "perturbed"
    pe_dir.mkdir(exist_ok=True)
    bump = gaussian_momentum_kernel(PERTURB_LAM, PERTURB_B, grid)
    perturbed = s_space_perturb(v0, phi, bump)
    bkio.write_kernel(perturbed, pe_dir / "perturbed.bk")
    new_curve = phase_curve(perturbed, grid, samples=48)
    _write_curve(pe_dir, "delta_perturbed", ("k", "delta_rad"),
                 (new_curve.momenta, new_curve.delta), cfg.fmt)
    summary.append(f"perturb_phi_residual = "
                   f"{format_double(schrodinger_residual(perturbed, phi))}")
    summary.append(f"perturb_max_delta_change_rad = "
                   f"{format_double(np.max(np.abs(new_curve.delta - seed_curve.delta)))}")

    ce_dir = out / "census"
    ce_dir.mkdir(exist_ok=True)
    census_lines = _census_lines("seed", v0, grid, samples=48)
    for e in cfg.energies:
        shifted = energy_shift(v0, phi, e)
        census_lines.extend(_census_lines(_etag(e), shifted, grid, samples=48))
    (ce_dir / "census.txt").write_text("\n".join(census_lines) + "\n")

    bm_dir = out / "benchmark"
    bm_dir.mkdir(exist_ok=True)
    vnw_grid = build_radial_grid(400, 60.0)
    vnw_model = vnw_build(1.0, 10.0, vnw_grid)
    rr = np.linspace(0.03, 40.0, 2000)
    _write_curve(bm_dir, "vnw_v", ("r", "v"), (rr, vnw_model.v(rr)), cfg.fmt)
    _write_curve(bm_dir, "vnw_phi", ("r", "phi"), (rr, vnw_model.phi(rr)), cfg.fmt)
    summary.append(f"vnw_residual = {format_double(vnw_verify(vnw_model))}")

    def sep_h(p):
        return np.exp(-np.asarray(p) ** 2)

    def sep_g(p):
        p = np.asarray(p)
        return (1.0 - p * p) * np.exp(-p * p)

    lam_c = separable_tune(sep_g, 1.0, grid, h=sep_h)
    summary.append(f"separable_coupling = {format_double(lam_c)}")

    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return [f"output_tree = {out}", f"summary_file = {out / 'summary.txt'}"]


_HANDLERS = {
    "seed": _cmd_seed,
    "bound": _cmd_bound,
    "phase": _cmd_phase,
    "tmatrix": _cmd_tmatrix,
    "sbdecomp": _cmd_sbdecomp,
    "shift": _cmd_shift,
    "perturb": _cmd_perturb,
    "census": _cmd_census,
    "extract": _cmd_extract,
    "coord": _cmd_coord,
    "vnw": _cmd_vnw,
    "separable": _cmd_separable,
    "verify-ab": _cmd_verify_ab,
    "reproduce-paper": _cmd_reproduce,
}


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

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_shared(p, top=False)
        return p

    command("seed", "write the Gaussian seed kernel")
    command("bound", "negative-energy spectrum of the seed")
    p = command("phase", "phase-shift curve of the seed")
    p.add_argument("--samples", type=int, default=64)
    command("tmatrix", "half-on-shell T-matrix of the seed")
    p = command("sbdecomp", "split a kernel into V_S + V_B")
    p.add_argument("--in", dest="infile", default=None, metavar="FILE")
    p = command("shift", "move the bound state to target energies")
    p.add_argument("--E", dest="energy", type=float, default=None,
                   help="single target energy in fm^-2 (default: full sweep)")
    p = command("perturb",
                "scattering-space perturbation that keeps the bound state")
    p.add_argument("--strength", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=48)
    p = command("census", "count total/negative/embedded states")
    p.add_argument("--in", dest="infile", default=None, metavar="FILE")
    p.add_argument("--samples", type=int, default=64)
    p = command("extract", "recover embedded states from V_B")
    p.add_argument("--in", dest="infile", default=None, metavar="FILE")
    p.add_argument("--E", dest="energy", type=float, default=4.0,
                   help="embedding energy for the default construction")
    p = command("coord", "coordinate-space kernels and profile nodes")
    p.add_argument("--rn", type=int, default=160, help="radial quadrature nodes")
    p.add_argument("--rmax", type=float, default=12.0)
    p.add_argument("--mesh", type=int, default=1500,
                   help="uniform mesh points for the node search")
    p = command("vnw", "oscillating local benchmark potential")
    p.add_argument("--k", type=float, default=1.0, help="embedded momentum fm^-1")
    p.add_argument("--A", dest="shape", type=float, default=10.0,
                   help="shape constant")
    p = command("separable", "tuned rank-one benchmark potential")
    p.add_argument("--K", type=float, default=1.0, help="embedded momentum fm^-1")
    command("verify-ab", "scattering/bound-space consistency residuals")
    command("reproduce-paper",
            "write the full default sweep as one directory tree")
    return parser


def _config_from_args(args) -> RunConfig:
    if args.out is not None:
        outdir = Path(args.out)
    elif os.environ.get(OUTDIR_ENV):
        outdir = Path(os.environ[OUTDIR_ENV])
    else:
        outdir = Path(".")
    return RunConfig(command=args.command, n=args.n, map_scale=args.map_scale,
                     cutoff=args.cutoff, lam=args.lam, b=args.b,
                     outdir=outdir, fmt=args.format, mev=args.mev)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _config_from_args(args)
        for line in _HANDLERS[cfg.command](cfg, args):
            print(line)
    except (BicForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
