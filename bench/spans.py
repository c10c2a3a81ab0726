"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: each layer's public
function is replaced, in the module that calls it, by a wrapper that
times the call.  A function imported by name into another module is
wrapped in that module, because that is the binding its caller looks up
at call time.  Spans stay in memory as (name, start, end, parent,
workload, invocation, attrs) and are written out once the run ends;
leaving the recorder's ``with`` block puts every wrapped name back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (consumer module, attribute, span name)
WRAPPED = (
    ("segreid.cli", "probe_cell", "cli.probe_cell"),
    ("segreid.cli", "weak_defectivity_probe", "tangency.probe"),
    ("segreid.cli", "secant_dim_probe", "terracini.probe"),
    ("segreid.cli", "identifiability_verdict", "tangency.verdict"),
    ("segreid.cli", "validate_certificate_dict", "certificates.validate"),
    ("segreid.cli", "verdict_from_certificate", "certificates.recompute"),
    ("segreid.cli", "write_certificate", "certificates.write"),
    ("segreid.certificates", "identifiability_verdict", "tangency.verdict"),
    ("segreid.terracini", "terracini_matrix", "segre.frame"),
    ("segreid.terracini", "ff_rank", "exactlin.rank"),
    ("segreid.tangency", "terracini_matrix", "segre.frame"),
    ("segreid.tangency", "ff_kernel", "exactlin.kernel"),
    ("segreid.tangency", "contact_corank", "tangency.corank"),
    ("segreid.tangency", "tangency_residuals", "tangency.residuals"),
    ("segreid.tangency", "contact_jacobian", "tangency.jacobian"),
    ("segreid.tangency", "ff_rank", "tangency.corank_rank"),
)

# Spans whose busy time and call count are reported as <name>_s and
# <name>.calls.
TIMED = (
    "exactlin.kernel",
    "exactlin.rank",
    "segre.frame",
    "tangency.residuals",
    "tangency.jacobian",
    "tangency.corank_rank",
    "tangency.verdict",
    "certificates.validate",
    "certificates.recompute",
    "certificates.write",
    "cli.probe_cell",
)

ELIMINATION = ("exactlin.kernel", "exactlin.rank", "tangency.corank_rank")

# Per-layer counts that must repeat exactly between two runs of one input.
EXACT_COUNTS = (
    "exactlin.elim_cells",
    "exactlin.elim_madds_computed",
    "tangency.contact_points",
    "segre.frame_rows",
    "certificates.write_bytes",
)


def _attrs(name, args, out):
    """Work counts taken from a call's arguments and result."""
    if name in ELIMINATION:
        rows, cols = args[0].shape
        rank = cols - len(out) if name == "exactlin.kernel" else out
        return {"rows": rows, "cols": cols, "rank": rank}
    if name == "segre.frame":
        return {"rows": out.shape[0]}
    if name == "certificates.write":
        # the wall_time_s digits vary from run to run; the rest repeats exactly
        return {"bytes": out.stat().st_size - len(json.dumps(args[0].wall_time_s))}
    if name == "tangency.probe":
        return {"certified": out.certified}
    if name == "terracini.probe":
        return {"certified": out.defect == 0}
    return None


class SpanRecorder:
    """Wraps the layer functions on enter and restores them on exit."""

    def __init__(self, workload: str):
        self.workload = workload
        self.invocation = None
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    self.workload, self.invocation, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[6] = _attrs(name, args, out)
            return out

        return wrapper

    def write(self, path):
        keys = ("name", "start", "end", "parent", "workload", "invocation", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans, wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one iteration's spans.

    ``wall`` is the summed duration of the CLI invocations the spans
    ran in.  Returns (metrics, accounting): accounting holds each span
    name's self time, derived from the parent links.  Self times plus
    ``cli.self_s`` equal ``wall`` by construction, so what accounting
    checks is that the parent links are sound: each span lies inside its
    parent, and no self time and no ``cli.self_s`` is negative.
    """
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    child_time = defaultdict(float)
    top = 0.0
    outside = 0
    cells = madds = frame_rows = write_bytes = certified = 0
    for name, start, end, parent, _, _, attrs in spans:
        dur = end - start
        busy[name] += dur
        calls[name] += 1
        if parent is None:
            top += dur
        else:
            child_time[parent] += dur
            outside += not spans[parent][1] <= start <= end <= spans[parent][2]
        if name in ELIMINATION:
            cells += attrs["rows"] * attrs["cols"]
            madds += attrs["rank"] * attrs["rows"] * attrs["cols"]
        elif name == "segre.frame":
            frame_rows += attrs["rows"]
        elif name == "certificates.write":
            write_bytes += attrs["bytes"]
        elif name in ("tangency.probe", "terracini.probe"):
            certified += attrs["certified"]
    self_times = [end - start - child_time[i] for i, (_, start, end, *_) in enumerate(spans)]
    for (name, *_), self_time in zip(spans, self_times):
        own[name] += self_time
    min_self = min(self_times, default=0.0)

    metrics = {}
    for name in TIMED:
        metrics[name + "_s"] = busy[name]
        metrics[name + ".calls"] = calls[name]
    metrics.update({
        "exactlin.elim_cells": cells,
        "exactlin.elim_madds_computed": madds,
        "segre.frame_rows": frame_rows,
        "tangency.corank_s": busy["tangency.corank"],
        "tangency.contact_points": calls["tangency.corank"],
        "terracini.trial_yield": certified / calls["segre.frame"],
        "certificates.write_bytes": write_bytes,
        "cli.self_s": wall - top,
    })
    accounting = {
        "self_s": dict(sorted(own.items())),
        "cli.self_s": wall - top,
        "wall_s": wall,
        "spans_outside_parent": outside,
        "min_self_s": min_self,
        "sound": outside == 0 and min_self >= 0.0 and wall >= top,
    }
    return metrics, accounting
