"""Correctness checks for benchmark operations.

Each check compares a program output with an independent computation or
with a property the method must have, and returns a list of problems
(empty when the output is right).  No check compares against a stored
copy of an earlier run's output.  A problem is a pair (tag, message); the
tag lets the runner tell the one named program fault apart from an
unexpected wrong answer.
"""

from __future__ import annotations

import math

import numpy as np

T_INVARIANCE_TOL = 1e-8
PHASE_INVARIANCE_TOL = 1e-6
RESIDUAL_TOL = 1e-8
HEITLER_TOL = 1e-12
ENERGY_TOL = 1e-3
OVERLAP_MIN = 0.999
ORACLE_ENERGY_TOL = 1e-3
ORACLE_PHASE_TOL = 1e-4
VNW_TOL = 1e-6
SEPARABLE_REL_TOL = 1e-10
PAPER_E0 = -5.373
PAPER_E0_REL = 5e-3
PAPER_NODES_FM = {"E+0.0": 0.67, "E+4.0": 0.54}
PAPER_NODE_TOL = 0.02
PAPER_SEED_STATES = 1

# the named fault: a shift to exactly E = 0 leaves the standing-wave system
# near singular, so its T-matrix misses the seed's
THRESHOLD_FAULT = "threshold_t_invariance"


def separable_coupling_closed_form(k):
    """(2 pi)^3 / (K^2 m2 - m4) for g(p) = (K^2 - p^2) exp(-p^2).

    m2 and m4 are the Gaussian moments of p^2 exp(-2 p^2) and
    p^4 exp(-2 p^2) over (0, inf).
    """
    m2 = math.sqrt(math.pi) / (4.0 * 2.0 ** 1.5)
    m4 = 3.0 * math.sqrt(math.pi) / (8.0 * 2.0 ** 2.5)
    return (2.0 * math.pi) ** 3 / (k * k * m2 - m4)


def predicted_census(n_seed, energy):
    """Census triple after moving one of n_seed bound states to energy.

    At the threshold the census must refuse: "indeterminate".
    """
    if energy == 0.0:
        return "indeterminate"
    if energy > 0.0:
        return (n_seed, n_seed - 1, 1)
    return (n_seed, n_seed, 0)


def heitler_defect(t_matrix, nodes):
    """max |Im T(k,k) + pi rho_k |T(k,k)|^2| over max |T(k,k)|, rho_k = k / (2 (2 pi)^3)."""
    d = np.diagonal(np.asarray(t_matrix))
    rho = np.asarray(nodes) / (2.0 * (2.0 * math.pi) ** 3)
    return float(np.max(np.abs(d.imag + math.pi * rho * np.abs(d) ** 2))
                 / np.max(np.abs(d)))


def wrapped_phase_difference(a, b):
    """a - b reduced to (-pi/2, pi/2]: phase shifts are defined modulo pi."""
    return (a - b + 0.5 * math.pi) % math.pi - 0.5 * math.pi


def check_shift(out, n_seed, energy):
    """A shifted kernel keeps the seed's scattering and carries its state.

    out holds: residual, t, t_seed, nodes, delta, delta_seed, census
    (a triple or "indeterminate"), states (list of (energy, overlap^2)),
    origin_sign.
    """
    problems = []
    if out["residual"] > RESIDUAL_TOL:
        problems.append(("residual", f"Schrodinger residual {out['residual']:.2e}"))
    dt = float(np.max(np.abs(out["t"] - out["t_seed"])))
    if dt > T_INVARIANCE_TOL:
        tag = THRESHOLD_FAULT if energy == 0.0 else "t_invariance"
        problems.append((tag, f"max |dT| = {dt:.2e} at E = {energy}"))
    heitler = heitler_defect(out["t"], out["nodes"])
    if heitler > HEITLER_TOL:
        problems.append(("heitler", f"on-shell unitarity defect {heitler:.2e}"))
    dd = float(np.max(np.abs(out["delta"] - out["delta_seed"])))
    if dd > PHASE_INVARIANCE_TOL:
        problems.append(("phase_invariance", f"max |d delta| = {dd:.2e}"))
    want = predicted_census(n_seed, energy)
    if out["census"] != want:
        problems.append(("census", f"census {out['census']}, predicted {want}"))
    states = out["states"]
    if len(states) != n_seed:
        problems.append(("bound_list", f"{len(states)} states, expected {n_seed}"))
    if states:
        e_got, overlap = max(states, key=lambda s: s[1])
        if overlap < OVERLAP_MIN or abs(e_got - energy) > ENERGY_TOL:
            problems.append(("moved_state", f"best state E = {e_got:.6g}, "
                             f"overlap^2 = {overlap:.6f}, target {energy}"))
    if (out["origin_sign"] > 0) != (energy > 0):
        problems.append(("signature", f"V_B origin sign {out['origin_sign']} at E = {energy}"))
    return problems


def parse_lines(text):
    """`name = value` lines as a dict of strings."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def parse_census(value):
    """'N=1 Nminus=0 Nplus=1' -> (1, 0, 1); anything else is returned as text."""
    parts = dict(p.split("=", 1) for p in value.split() if "=" in p)
    try:
        return (int(parts["N"]), int(parts["Nminus"]), int(parts["Nplus"]))
    except (KeyError, ValueError):
        return "indeterminate" if value.startswith("indeterminate") else value


def parse_bk(text):
    """Nodes and values of a .bk file, parsed without the program's reader."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    body = [ln for ln in lines if not ln.startswith("#")]
    n = len(body) // 2
    nodes = np.array([float(ln.split(",")[0]) for ln in body[:n]])
    values = np.array([[float(tok) for tok in ln.split()] for ln in body[n:]])
    return nodes, values


def check_reproduce(tree, previous):
    """The reproduce-paper tree against the paper and the method's properties.

    tree and previous map relative paths to file bytes; previous is the
    tree of the operation before, or None.
    """
    problems = []
    if previous is not None and tree != previous:
        changed = sorted(set(tree) ^ set(previous)
                         | {p for p in tree if p in previous and tree[p] != previous[p]})
        problems.append(("determinism", f"tree differs from the previous run: {changed[:5]}"))
    need = ("summary.txt", "census/census.txt", "coordinate/nodes.txt",
            "t-matrix/tmatrix_re.bk", "t-matrix/tmatrix_im.bk")
    missing = [p for p in need if p not in tree]
    if missing:
        return problems + [("tree", f"missing files {missing}")]
    summary = parse_lines(tree["summary.txt"].decode())
    e0 = float(summary.get("seed_E0_fm2", "nan"))
    if not abs(e0 - PAPER_E0) <= PAPER_E0_REL * abs(PAPER_E0):
        problems.append(("paper_E0", f"E0 = {e0}, paper {PAPER_E0}"))
    nodes = parse_lines(tree["coordinate/nodes.txt"].decode())
    for tag, want in PAPER_NODES_FM.items():
        got = nodes.get(f"node_{tag}_fm", "none")
        if got == "none" or abs(float(got) - want) > PAPER_NODE_TOL:
            problems.append(("paper_node", f"node at {tag} = {got}, paper {want}"))
    census = parse_lines(tree["census/census.txt"].decode())
    # the unshifted seed is its own state left at E0 < 0
    for tag, energy in (("seed", PAPER_E0), ("E-4.0", -4.0), ("E-1.0", -1.0),
                        ("E+0.0", 0.0), ("E+1.0", 1.0), ("E+4.0", 4.0)):
        got = parse_census(census.get(f"census_{tag}", "missing"))
        want = predicted_census(PAPER_SEED_STATES, energy)
        if got != want:
            problems.append(("census", f"census_{tag} = {got}, predicted {want}"))
        sig = summary.get(f"signature_{tag}")
        if tag != "seed" and (sig is None or
                              sig.startswith("origin +1") != (energy > 0)):
            problems.append(("signature", f"signature_{tag} = {sig}"))
    coupling = float(summary.get("separable_coupling", "nan"))
    exact = separable_coupling_closed_form(1.0)
    if not abs(coupling - exact) <= SEPARABLE_REL_TOL * abs(exact):
        problems.append(("separable", f"coupling {coupling}, closed form {exact}"))
    vnw = float(summary.get("vnw_residual", "nan"))
    if not vnw <= VNW_TOL:
        problems.append(("vnw", f"vnw residual {vnw}"))
    perturb = float(summary.get("perturb_phi_residual", "nan"))
    if not perturb <= RESIDUAL_TOL:
        problems.append(("perturb", f"perturbed-kernel residual {perturb}"))
    k, t_re = parse_bk(tree["t-matrix/tmatrix_re.bk"].decode())
    _, t_im = parse_bk(tree["t-matrix/tmatrix_im.bk"].decode())
    heitler = heitler_defect(t_re + 1j * t_im, k)
    if heitler > HEITLER_TOL:
        problems.append(("heitler", f"on-shell unitarity defect {heitler:.2e}"))
    return problems


def check_stored(out, expected_values, n_seed, energy):
    """One stored kernel through census, sbdecomp and extract.

    out holds: loaded (values read back by the program), census, sbdecomp
    and extract (their printed lines), v_s and v_b (file texts).
    """
    problems = []
    if out["loaded"].tobytes() != expected_values.tobytes():
        problems.append(("round_trip", "kernel read back differs from the one written"))
    got = parse_census(parse_lines(out["census"]).get("census_input", "missing"))
    want = predicted_census(n_seed, energy)
    if got != want:
        problems.append(("census", f"census {got}, predicted {want}"))
    sb = parse_lines(out["sbdecomp"])
    energies = [float(v) for k, v in sb.items() if k.startswith("state_")]
    if int(sb.get("bound_states", -1)) != n_seed or len(energies) != n_seed:
        problems.append(("sbdecomp", f"sbdecomp lists {sb.get('bound_states')} states, "
                         f"expected {n_seed}"))
    if not any(abs(e - energy) <= ENERGY_TOL for e in energies):
        problems.append(("sbdecomp", f"no state near E = {energy}: {energies}"))
    _, v_s = parse_bk(out["v_s"])
    _, v_b = parse_bk(out["v_b"])
    scale = float(np.max(np.abs(expected_values)))
    if v_s.shape != expected_values.shape or v_b.shape != expected_values.shape or \
            np.max(np.abs(v_s + v_b - expected_values)) > 1e-12 * scale:
        problems.append(("sb_sum", "V_S + V_B does not reproduce V"))
    ex = parse_lines(out["extract"])
    embedded = 1 if energy > 0 else 0
    if int(ex.get("embedded_states", -1)) != embedded or \
            int(ex.get("negative_states", -1)) != n_seed - embedded:
        problems.append(("extract", f"extract found {ex.get('negative_states')} negative "
                         f"and {ex.get('embedded_states')} embedded states"))
    if embedded:
        k_sq = float(ex.get("bic_0_Ksq_fm2", "nan"))
        if not abs(k_sq - energy) <= ENERGY_TOL:
            problems.append(("extract", f"K^2 = {k_sq}, target {energy}"))
    return problems


def check_oracle(out, model):
    """Independent routes agree on one local potential and two closed forms.

    out holds: numerov_E, momentum_E, phases (list of (k, numerov, momentum)),
    coupling, vnw, vnw_offset.  model holds the generated K and vnw offset.
    """
    problems = []
    if out["numerov_E"] is None or abs(out["numerov_E"] - out["momentum_E"]) > ORACLE_ENERGY_TOL:
        problems.append(("oracle_energy", f"Numerov E = {out['numerov_E']}, "
                         f"momentum space E = {out['momentum_E']}"))
    for k, a, b in out["phases"]:
        d = abs(wrapped_phase_difference(a, b))
        if d > ORACLE_PHASE_TOL:
            problems.append(("oracle_phase", f"phase at k = {k:.4f} differs by {d:.2e}"))
    exact = separable_coupling_closed_form(model["K"])
    if not abs(out["coupling"] - exact) <= SEPARABLE_REL_TOL * abs(exact):
        problems.append(("separable", f"coupling {out['coupling']}, closed form {exact}"))
    if not out["vnw"] <= VNW_TOL:
        problems.append(("vnw", f"vnw residual {out['vnw']:.2e}"))
    # an energy offset c turns the residual into c times the wavefunction
    c = model["vnw_offset"]
    if not abs(out["vnw_offset"] - c) <= 1e-3 * c:
        problems.append(("vnw_offset", f"offset residual {out['vnw_offset']}, expected {c}"))
    return problems
