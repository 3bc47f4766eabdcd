"""bicforge benchmark: one workload, one caller, closed loop.

    python3 perfbench/run.py --workload {reproduce,sweep,stored,oracle} \
        --seed N --seconds S --trace {0,1}

With --trace 0 the workload runs whole rounds until S seconds have passed
and the end-to-end metrics are reported.  With --trace 1 a fixed number of
rounds runs twice, untraced and then traced, and the per-layer metrics are
reported, so their call counts repeat exactly for a given seed.  The last
line of standard output is the result as one JSON object; the environment,
every operation and (traced) every span are written under
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# one BLAS thread: within nproc, and steadier than two on a shared machine
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
TRACE_ROUNDS = 1


def git_sha(root):
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {"git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas": blas,
            "threads": {k: os.environ[k] for k in THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


class Tally:
    """Operations attempted and failed, and where the time went."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []      # problems other than the named fault
        self.op_seconds = []
        self.busy = 0.0           # every step's run time, operations or not
        self.records = []


def run_round(workload, index, tally, tracer=None):
    from checks import THRESHOLD_FAULT   # imported late: numpy must see THREAD_VARS first
    for j, step in enumerate(workload.round(index)):
        if tracer is not None:
            tracer.op_id = f"{index}:{j}"
        start = time.perf_counter()
        try:
            out, error = step.run(), None
        except Exception:
            out, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
        tally.busy += elapsed
        if error is not None:
            problems = [("exception", error)]
        else:
            problems = step.check(out) if step.counted else []
        tally.records.append({"op": f"{index}:{j}", "step": step.label, "seconds": elapsed,
                              "counted": step.counted, "problems": problems})
        if step.counted:
            tally.attempted += 1
            tally.op_seconds.append(elapsed)
        if problems:
            tally.failed += step.counted
            tally.unexpected += [f"{step.label}: {msg}" for tag, msg in problems
                                 if tag != THRESHOLD_FAULT]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("reproduce", "sweep", "stored", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (ROOT / "src" / "bicforge" / "__init__.py").is_file():
        print(f"error: no bicforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    os.environ.update(THREAD_VARS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    start = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import bicforge  # noqa: F401
    import tracing
    import workloads
    import_s = time.perf_counter() - start

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        start = time.perf_counter()
        workload.warmup()
        warmup_s = time.perf_counter() - start

        tally = Tally()
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            plain = Tally()
            for i in range(TRACE_ROUNDS):
                run_round(workload, i, plain)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                for i in range(TRACE_ROUNDS):
                    run_round(workload, i, tally, tracer)
            finally:
                tracer.remove()
            metrics = tracer.metrics(coverage=tracer.top_level_seconds() / tally.busy,
                                     overhead=tally.busy / plain.busy - 1.0)
            tracer.write(results / f"{stem}-spans.jsonl")
        else:
            start = time.perf_counter()
            index = 0
            while True:
                run_round(workload, index, tally)
                index += 1
                if time.perf_counter() - start >= args.seconds:
                    break
            passed = tally.attempted - tally.failed
            metrics = {
                "op_s": {"value": statistics.median(tally.op_seconds), "unit": "s"},
                "ops_per_s": {"value": passed / tally.busy, "unit": "1/s"},
                "setup_s": {"value": import_s + statistics.median(setups) + warmup_s,
                            "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.unexpected:
        print(f"wrong: {problem}", file=sys.stderr)
    result = {"correct": not tally.unexpected, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    env = environment(args)
    with open(results / f"{stem}.json", "w") as fh:
        json.dump({"environment": env, "import_s": import_s,
                   "input_generation_s": setups, "warmup_s": warmup_s,
                   "operations": tally.records,
                   "result": result}, fh, indent=1)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
