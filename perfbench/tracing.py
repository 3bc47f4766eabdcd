"""Per-layer spans recorded from outside the program.

The tracer replaces each listed public function of ``bicforge`` with a
wrapper that records a span (name, start, end, parent span, operation id).
A function is replaced in every ``bicforge`` module namespace that holds
it, so calls one module makes into another (``levinson`` calling
``phase_curve``, ``cli`` calling ``half_on_shell_T_matrix``) are seen as
well as the benchmark's own calls.  Spans stay in memory until the run
ends; self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# module -> functions whose calls, self time and total time are reported
LAYERS = {
    "grid": ("build_momentum_grid", "build_radial_grid"),
    "kernels": ("gaussian_momentum_kernel", "rank_one_update"),
    "spectral": ("negative_energy_states", "ground_state", "schrodinger_residual"),
    "scattering": ("half_on_shell_T_matrix", "PrincipalValueWeights.column",
                   "solve_k_matrix", "phase_curve"),
    "levinson": ("bic_census",),
    "sbdecomp": ("energy_shift", "sb_decompose", "v_s_from_T", "extract_bics",
                 "s_space_perturb", "build_v_b", "detect_bic_signature"),
    "coordinate": ("momentum_to_coordinate", "wavefunction_to_coordinate",
                   "vb_profile_node"),
    "reference": ("local_oracle", "separable_tune", "vnw_verify"),
    "bkio": ("write_kernel", "read_kernel"),
    "cli": ("main",),
}
# functions whose file size is also counted, with the position of the path argument
BYTE_COUNTED = {"bkio.write_kernel": 1, "bkio.read_kernel": 0}
# reported by total time only: the CLI entry point does no numerical work itself
TOTAL_ONLY = {"cli.main"}


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for module, functions in LAYERS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            if name not in TOTAL_ONLY:
                out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
            out.append((f"{name}.total_s", "s"))
            if name in BYTE_COUNTED:
                out.append((f"{name}.bytes", "bytes"))
    out += [("trace.coverage", "ratio"), ("trace.overhead", "ratio")]
    return out


class Tracer:
    """Records spans while installed; restores the original functions on removal."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id, bytes]
        self._stack = []
        self.op_id = None
        self._patched = []     # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        path_arg = BYTE_COUNTED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, parent, self.op_id, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if path_arg is not None:
                span[5] = os.path.getsize(args[path_arg])
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "bicforge" or key.startswith("bicforge.")]
        for module, functions in LAYERS.items():
            home = sys.modules[f"bicforge.{module}"]
            for fn in functions:
                name = f"{module}.{fn}"
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._patched.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original))
                    continue
                original = getattr(home, fn)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self):
        """Per-function calls, self and total seconds and bytes."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {}
        for i, (name, start, end, _, _, nbytes) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "total_s": 0.0, "bytes": 0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            s["bytes"] += nbytes
        return stats

    def top_level_seconds(self):
        """Seconds covered by spans with no parent."""
        return sum(end - start for _, start, end, parent, _, _ in self.spans
                   if parent < 0)

    def metrics(self, coverage, overhead):
        stats = self.summary()
        out = {}
        for metric, unit in metric_names():
            if metric.startswith("trace."):
                continue
            fn_name, _, field = metric.rpartition(".")
            value = stats.get(fn_name, {}).get(field, 0)
            out[metric] = {"value": value, "unit": unit}
        out["trace.coverage"] = {"value": coverage, "unit": "ratio"}
        out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, nbytes in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "bytes": nbytes}) + "\n")
