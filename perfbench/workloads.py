"""The four benchmark workloads and the inputs they generate from a seed.

A workload is run in rounds.  Every round holds the same operations in the
same order, with inputs drawn from (seed, round index), so a run always
attempts whole rounds and the share of failed operations is the same in
every run.  A step's `run` is timed; its `check` is not.  Steps with
`counted=False` prepare inputs for the operations after them: their time
counts towards the round but they are not operations.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bicforge as bf
import bicforge.cli as bf_cli

import checks

LAM_RANGE = (-45.0, -20.0)
B_RANGE = (0.4, 0.7)
# Seeds keep 6 <= |lam| b^2 <= 15.  Above about 17.8 a second state binds,
# starting at the threshold where the census rightly refuses to count.
# Below about 6 the ground state is weakly bound and T-invariance misses
# the 1e-8 gate at every grid size tried (see README).
STRENGTH_RANGE = (6.0, 15.0)
NEGATIVE_BAND = (-4.0, -0.5)
POSITIVE_BANDS = ((0.5, 4.0), (4.0, 8.0))
POSITIVE_RANGE = (0.5, 8.0)
PAPER_LAM, PAPER_B = -30.0, 0.5
BUMP_LAM, BUMP_B = 5.0, 1.0        # repulsive, as in acceptance criterion 8
CURVE_SAMPLES = 64


@dataclass
class Step:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list] = lambda out: []
    counted: bool = True


def rng_for(seed, *index):
    return np.random.default_rng([seed, *index])


def draw_potential(rng):
    """Gaussian seed (lam, b) holding exactly one, well bound, state."""
    while True:
        lam, b = rng.uniform(*LAM_RANGE), rng.uniform(*B_RANGE)
        if STRENGTH_RANGE[0] <= abs(lam) * b * b <= STRENGTH_RANGE[1]:
            return lam, b


def cli(args):
    """bic-forge in-process; returns stdout, raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bf_cli.main([str(a) for a in args])
    if code != 0:
        raise RuntimeError(f"bic-forge {' '.join(map(str, args))} exited {code}: "
                           f"{err.getvalue().strip()}")
    return out.getvalue()


def overlap_sq(a, b, grid):
    return float(np.sum(grid.measure * a * b)) ** 2


class Reproduce:
    """One operation is `bic-forge reproduce-paper` at CLI defaults into a fresh directory."""

    name = "reproduce"

    def __init__(self, seed, workdir: Path):
        self.workdir = workdir
        self.count = 0
        self.previous = None      # (directory, tree) of the last operation

    def setup(self):
        """The inputs are the CLI defaults; nothing depends on the seed."""

    def _produce(self):
        self.count += 1
        target = self.workdir / f"tree{self.count}"
        cli(["--out", target, "reproduce-paper"])
        return target

    def _accept(self, target):
        tree = {str(p.relative_to(target)): p.read_bytes()
                for p in sorted(target.rglob("*")) if p.is_file()}
        previous = None
        if self.previous is not None:
            shutil.rmtree(self.previous[0])
            previous = self.previous[1]
        self.previous = (target, tree)
        return tree, previous

    def warmup(self):
        self._accept(self._produce())

    def round(self, i):
        def check(target):
            return checks.check_reproduce(*self._accept(target))
        return [Step("reproduce-paper", self._produce, check)]


class _ShiftContext:
    """A seed potential with its ground state, T-matrix and phase curve."""

    def __init__(self, lam, b, n, perturbed):
        self.grid = bf.build_momentum_grid(n)
        v0 = bf.gaussian_momentum_kernel(lam, b, self.grid)
        self.phi = bf.ground_state(v0, self.grid)
        if perturbed:
            bump = bf.gaussian_momentum_kernel(BUMP_LAM, BUMP_B, self.grid)
            v0 = bf.s_space_perturb(v0, self.phi, bump)
        self.v0 = v0
        self.n_seed = len(bf.negative_energy_states(v0, self.grid))
        self.t_seed = bf.half_on_shell_T_matrix(v0, self.grid)
        self.delta_seed = bf.phase_curve(v0, self.grid, samples=CURVE_SAMPLES).delta

    def shift(self, energy):
        """Construct the shift and compute everything its checks need."""
        g, phi = self.grid, self.phi
        v = bf.energy_shift(self.v0, phi, energy)
        moved = bf.BoundState(energy=energy, samples=phi.samples, grid=g,
                              value_at=phi.value_at)
        out = {"residual": bf.schrodinger_residual(v, moved),
               "t": bf.half_on_shell_T_matrix(v, g), "t_seed": self.t_seed,
               "nodes": g.nodes, "delta_seed": self.delta_seed,
               "delta": bf.phase_curve(v, g, samples=CURVE_SAMPLES).delta}
        try:
            c = bf.bic_census(v, g)
            out["census"] = (c.n_total, c.n_minus, c.n_plus)
        except bf.CensusIndeterminateError:
            out["census"] = "indeterminate"
        decomp = bf.sb_decompose(v, g)
        out["states"] = [(st.energy, overlap_sq(st.samples, phi.samples, g))
                         for st in decomp.bound_list]
        out["origin_sign"] = bf.detect_bic_signature(decomp.v_b).origin_sign
        return out

    def step(self, energy, label):
        return Step(label, lambda: self.shift(energy),
                    lambda out: checks.check_shift(out, self.n_seed, energy))


class Sweep:
    """One operation is one energy shift of a seeded seed potential, verified four ways.

    A round holds three seeded potentials, one per grid size, the last of
    them passed through s_space_perturb; each gets one negative and two
    positive target energies.  The perturbed potential sits on the largest
    grid because its T-invariance reaches the 1e-8 gate only from about
    n = 224 on (see README).  The round ends with the threshold shift to
    E = 0 of the paper's seed potential, whose inputs do not depend on the
    seed: its T-invariance check fails every time (the named fault).
    """

    name = "sweep"
    POTENTIALS = ((160, False), (192, False), (256, True))    # (n, perturbed)
    THRESHOLD_N = 160

    def __init__(self, seed, workdir: Path):
        self.seed = seed
        self.threshold = None

    def setup(self):
        self.threshold = _ShiftContext(PAPER_LAM, PAPER_B, self.THRESHOLD_N, False)

    def warmup(self):
        self.threshold.shift(1.0)

    def round(self, i):
        rng = rng_for(self.seed, i)
        contexts, prepares, shifts = {}, [], []
        for n, perturbed in self.POTENTIALS:
            lam, b = draw_potential(rng)
            energies = [rng.uniform(*NEGATIVE_BAND)] + [rng.uniform(*band)
                                                        for band in POSITIVE_BANDS]

            def prepare(lam=lam, b=b, n=n, perturbed=perturbed):
                contexts[n] = _ShiftContext(lam, b, n, perturbed)

            prepares.append(Step(f"seed n={n}", prepare, counted=False))
            shifts.append([Step(f"shift n={n} E={e:.3f}",
                                lambda e=e, n=n: contexts[n].shift(e),
                                lambda out, e=e, n=n: checks.check_shift(
                                    out, contexts[n].n_seed, e))
                           for e in energies])
        # interleave the potentials, so that no grid size sits in one stretch
        # of the run and the median operation samples the whole round
        interleaved = [step for group in zip(*shifts) for step in group]
        return prepares + interleaved + [
            self.threshold.step(0.0, f"threshold n={self.THRESHOLD_N} E=0")]


class Stored:
    """One operation takes one stored .bk kernel through census, sbdecomp and extract --in."""

    name = "stored"
    FILES = ((128, -1), (128, 1), (160, -1), (160, 1), (192, -1), (192, 1))   # (n, sign of E)

    def __init__(self, seed, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.files = []           # (path, values written, n_seed, E)

    def setup(self):
        rng = rng_for(self.seed)
        self.files = []
        for j, (n, sign) in enumerate(self.FILES):
            lam, b = draw_potential(rng)
            energy = rng.uniform(*(NEGATIVE_BAND if sign < 0 else POSITIVE_RANGE))
            grid = bf.build_momentum_grid(n)
            v0 = bf.gaussian_momentum_kernel(lam, b, grid)
            shifted = bf.energy_shift(v0, bf.ground_state(v0, grid), energy)
            path = self.workdir / f"kernel{j}_n{n}.bk"
            bf.write_kernel(shifted, path)
            self.files.append((path, shifted.values,
                               len(bf.negative_energy_states(v0, grid)), energy))

    def _produce(self, path):
        out_dir = self.workdir / "out"
        return {"loaded": bf.read_kernel(path).values,
                "census": cli(["--out", out_dir, "census", "--in", path]),
                "sbdecomp": cli(["--out", out_dir, "sbdecomp", "--in", path]),
                "extract": cli(["--out", out_dir, "extract", "--in", path]),
                "out_dir": out_dir}

    def _check(self, out, values, n_seed, energy):
        out["v_s"] = (out["out_dir"] / "v_s.bk").read_text()
        out["v_b"] = (out["out_dir"] / "v_b.bk").read_text()
        return checks.check_stored(out, values, n_seed, energy)

    def warmup(self):
        self._produce(self.files[0][0])

    def round(self, i):
        return [Step(f"stored {path.name} E={e:.3f}",
                     lambda path=path: self._produce(path),
                     lambda out, v=v, n=n, e=e: self._check(out, v, n, e))
                for path, v, n, e in self.files]


class Oracle:
    """One operation cross-checks one seeded local Gaussian by routes that share no code.

    The Numerov bound state and phase shifts are compared with the
    momentum-space ground state and K-matrix; the operation also tunes a
    seeded separable model against its closed form and checks a seeded
    oscillating potential with vnw_verify.
    """

    name = "oracle"
    GRID_N = 160
    PHASE_MOMENTA = 3
    K_RANGE = (0.3, 3.0)
    SEPARABLE_K = (1.0, 2.0)
    VNW_K = (0.7, 1.3)
    VNW_A = (5.0, 20.0)
    VNW_OFFSET = 0.1
    WARMUP_STEPS = 600       # the warm-up pays first-call costs on a coarse Numerov mesh

    def __init__(self, seed, workdir: Path):
        self.seed = seed

    def setup(self):
        """Inputs are drawn per operation from (seed, index)."""

    def inputs(self, i):
        rng = rng_for(self.seed, i)
        lam, b = draw_potential(rng)
        return {"lam": lam, "b": b,
                "ks": sorted(rng.uniform(*self.K_RANGE, self.PHASE_MOMENTA)),
                "K": rng.uniform(*self.SEPARABLE_K),
                "vnw_k": rng.uniform(*self.VNW_K), "vnw_A": rng.uniform(*self.VNW_A),
                "vnw_offset": self.VNW_OFFSET}

    def produce(self, m, steps=6000):
        lam, b = m["lam"], m["b"]

        def v_of_r(r):
            return lam * np.exp(-(np.asarray(r) / b) ** 2)

        grid = bf.build_momentum_grid(self.GRID_N)
        v = bf.gaussian_momentum_kernel(lam, b, grid)
        out = {"numerov_E": bf.local_oracle(v_of_r, "bound", steps=steps),
               "momentum_E": bf.ground_state(v, grid).energy,
               "phases": [(k, bf.local_oracle(v_of_r, "phase", k=k, steps=steps),
                           bf.solve_k_matrix(v, grid, k).delta) for k in m["ks"]]}
        kk = m["K"]
        out["coupling"] = bf.separable_tune(
            lambda p: (kk * kk - np.asarray(p) ** 2) * np.exp(-np.asarray(p) ** 2),
            kk, grid, h=lambda p: np.exp(-np.asarray(p) ** 2))
        kv = m["vnw_k"]
        model = bf.vnw_build(kv, m["vnw_A"], bf.build_radial_grid(400, 60.0 / kv))
        out["vnw"] = bf.vnw_verify(model)
        out["vnw_offset"] = bf.vnw_verify(model, energy=kv * kv + m["vnw_offset"])
        return out

    def warmup(self):
        self.produce(self.inputs(0), steps=self.WARMUP_STEPS)

    def round(self, i):
        m = self.inputs(i)
        return [Step(f"oracle lam={m['lam']:.2f} b={m['b']:.3f}",
                     lambda: self.produce(m), lambda out: checks.check_oracle(out, m))]


WORKLOADS = {w.name: w for w in (Reproduce, Sweep, Stored, Oracle)}
