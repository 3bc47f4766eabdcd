"""Self-check of the benchmark: one real operation per workload, then one
planted wrong answer per workload that the checks must catch.

    python3 perfbench/selfcheck.py [--seed N]

Exits 0 when every real operation passes its checks (the threshold shift
fails only its named T-invariance check) and every planted wrong answer is
reported; prints what went wrong otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402  (sets nothing on import)

os.environ.update(run.THREAD_VARS)

import checks  # noqa: E402
import workloads  # noqa: E402


def tags(problems):
    return {tag for tag, _ in problems}


def expect(label, problems, want):
    """want: set of tags that must appear (empty set: no problems at all)."""
    got = tags(problems)
    ok = got == want if not want else want <= got
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {sorted(got) or 'no problems'}")
    return ok


def check_reproduce(w):
    step = w.round(0)[0]
    target = step.run()
    tree, _ = w._accept(target)
    ok = expect("reproduce: real operation", checks.check_reproduce(tree, None), set())
    planted = dict(tree)
    planted["census/census.txt"] = tree["census/census.txt"].replace(
        b"census_E+1.0 = N=1", b"census_E+1.0 = N=2")
    return expect("reproduce: census off by one", checks.check_reproduce(planted, tree),
                  {"census", "determinism"}) and ok


def check_sweep(w):
    steps = w.round(0)
    prepare, shift = steps[0], steps[len(w.POTENTIALS)]
    prepare.run()                            # the seed potential of the first shift
    out = shift.run()
    ok = expect("sweep: real operation", shift.check(out), set())
    threshold = steps[-1]
    ok &= expect("sweep: threshold shift (named fault)",
                 threshold.check(threshold.run()), {checks.THRESHOLD_FAULT})
    out["t"] = out["t"] + 1e-6
    return expect("sweep: T-matrix perturbed by 1e-6", shift.check(out),
                  {"t_invariance"}) and ok


def check_stored(w):
    step = w.round(0)[0]
    ok = expect("stored: real operation", step.check(step.run()), set())
    path = w.files[0][0]
    lines = path.read_text().splitlines()
    row = len(lines) - 1                     # last value row
    tokens = lines[row].split()
    at = tokens[0].index(".") + 1            # first digit after the point
    digit = "1" if tokens[0][at] != "1" else "2"
    tokens[0] = tokens[0][:at] + digit + tokens[0][at + 1:]
    lines[row] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    return expect("stored: .bk value with one changed digit",
                  step.check(step.run()), {"round_trip"}) and ok


def check_oracle(w):
    step = w.round(0)[0]
    out = step.run()
    ok = expect("oracle: real operation", step.check(out), set())
    out["numerov_E"] += 1e-2
    return expect("oracle: Numerov energy off by 1e-2", step.check(out),
                  {"oracle_energy"}) and ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    ok = True
    for name, fn in (("reproduce", check_reproduce), ("sweep", check_sweep),
                     ("stored", check_stored), ("oracle", check_oracle)):
        (HERE / "_work").mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"selfcheck-{name}-", dir=HERE / "_work"))
        try:
            w = workloads.WORKLOADS[name](args.seed, workdir)
            w.setup()
            ok &= fn(w)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
