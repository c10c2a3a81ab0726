#!/usr/bin/env python3
"""Self-test of the benchmark: tracing never enters a certificate.

Runs one iteration of fill-evidence untraced and two traced, and checks that

* all three give the same certificate digest sum, the pinned one;
* every wrapped name is restored after each traced iteration;
* every span lies inside its parent and no self time is negative;
* the exact per-layer counts repeat between the two traced iterations.

    python3 bench/selftest.py

Prints one PASS or FAIL line per check and exits 1 if any failed.
fill-evidence is the workload that reaches every layer, the store included.
"""

from __future__ import annotations

import importlib
import sys

import run
from spans import EXACT_COUNTS, WRAPPED, SpanRecorder, layer_metrics


WORKLOAD = "fill-evidence"


def main():
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)

    checker = run.Checker(run.load_pins())
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in WRAPPED}
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    outcomes = [run.run_iteration(WORKLOAD, 0, checker)]
    counts = []
    for label in ("1", "2"):
        with SpanRecorder(WORKLOAD) as recorder:
            out = run.run_iteration(WORKLOAD, 0, checker, recorder, label)
        outcomes.append(out)
        metrics, accounting = layer_metrics(recorder.spans, out["wall"])
        counts.append({name: metrics[name] for name in EXACT_COUNTS})
        check(all(getattr(importlib.import_module(m), a) is fn
                  for (m, a), fn in originals.items()),
              "every wrapped name restored")
        check(accounting["sound"],
              "spans nested in their parents, least self time %.2g s"
              % accounting["min_self_s"])

    sums = sorted({o["digest_sum"] for o in outcomes})
    check(len(sums) == 1, "untraced and traced digest sums equal: %s" % sums)
    pinned = checker.pins[WORKLOAD]["digest_sum"]
    check(sums == [pinned], "digest sum is the pinned %s" % pinned)
    check(counts[0] == counts[1], "exact counts repeat: %s" % counts[0])
    problems = [p for o in outcomes for p in o["problems"]]
    check(not problems, "no invocation failed: %s" % problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
