#!/usr/bin/env python3
"""Closed-loop benchmark of the segreid command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs a workload's CLI invocations back to back through
``segreid.cli.main(argv)``, captures stdout and checks every emitted line
against ``pins.json``.  Each iteration runs in a fresh interpreter, as a
CLI user's would, so every sample pays the same first-call costs.  Sweeps
use ``--jobs 1``, so the figures measure the program, not the scheduler.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced iterations and
reports the per-layer metrics from the spans of ``spans.py``.  The last
stdout line is the result object; the line before it holds the details
(machine, samples, digest sums, problems), which are also written under
``.bench_out/`` together with the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PRIME = "2147483647"

# Workload -> CLI invocations.  "{seed}" is the benchmark seed and
# "{store}" a fresh certificate store per iteration.  BENCHMARK.json lists
# the workloads the benchmark reports and why each was chosen.  sweep-m5-8
# is not among them: it is mostly small interpreter-bound calls, whose
# speed drifts by 20-40% over minutes on a shared host, and its spread
# over ten runs exceeded the largest admissible bound.  It stays for traced
# runs, where contraction, validation and frame assembly show most.
WORKLOADS = {
    "probe-m10": [
        ["probe", "--binary", "10", "-k", "40", "--primes", PRIME, "--seed", "{seed}"],
        ["probe", "--binary", "10", "-k", "90", "--primes", PRIME, "--seed", "{seed}"],
    ],
    "sweep-m5-8": [
        ["sweep", "-m", "5..8", "--jobs", "1", "--seed", "{seed}"],
    ],
    "fill-evidence": [
        ["probe", "--binary", "10", "-k", "93", "--primes", PRIME, "--seed", "{seed}",
         "--store", "{store}"],
        ["probe", "--binary", "4", "-k", "2", "--seed", "{seed}", "--store", "{store}"],
        ["reproduce", "m5k4", "--store", "{store}"],
        ["reproduce", "m6table", "--store", "{store}"],
    ],
}

# Fields that depend on the seed; the rest of every line is pinned as the
# seed-independent facts (verdicts, dimensions, coranks, notes).
SEED_FIELDS = ("seed", "hyperplane_coeffs", "wall_time_s")

SETUP_SAMPLES = 15

# Iterations vary by about 10% from one to the next on a shared host, so
# every untraced run takes at least this many, however short --seconds is.
MIN_ITERATIONS = 3

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import segreid.cli\n"
    "segreid.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cert_digest(cert: dict) -> str:
    """The certificate content digest: sha256 of its canonical JSON without wall time."""
    return sha256(canonical({k: v for k, v in cert.items() if k != "wall_time_s"}))


def digest_sum(digests) -> str:
    """sha256 over the sorted certificate digests, one per line."""
    return sha256("\n".join(sorted(digests)))


def load_pins() -> dict:
    """Pinned outcomes per workload, checked to belong to today's invocations."""
    pins = json.loads((BENCH / "pins.json").read_text())
    for workload, templates in WORKLOADS.items():
        if [inv["argv"] for inv in pins[workload]["invocations"]] != templates:
            raise SystemExit("pins.json does not match the %s invocations" % workload)
    return pins


class Checker:
    """Checks one CLI invocation's output against the pins."""

    def __init__(self, pins: dict):
        from jsonschema import Draft202012Validator
        from segreid.certificates import CERTIFICATE_SCHEMA

        self.pins = pins
        self.validator = Draft202012Validator(CERTIFICATE_SCHEMA)

    def check(self, workload, index, seed, code, out, store, stored):
        """Problems found in one invocation's result, and its certificate digests.

        ``stored`` collects the digests of every certificate emitted so far
        in this iteration; the store must hold exactly those files.
        """
        pin = self.pins[workload]["invocations"][index]
        if not isinstance(code, int):
            return ["raised %s: %s" % (type(code).__name__, code)], []
        problems = []
        if code != pin["exit"]:
            problems.append("exit %d, pinned %d" % (code, pin["exit"]))
        digests, facts = [], []
        for line in out.splitlines():
            try:
                obj = json.loads(line)
            except ValueError:
                problems.append("not JSON: %.80s" % line)
                continue
            facts.append(canonical({k: v for k, v in obj.items() if k not in SEED_FIELDS}))
            if "type" not in obj:
                for err in self.validator.iter_errors(obj):
                    problems.append("schema: %s" % err.message)
                digests.append(cert_digest(obj))
            elif obj["type"] == "reproduce" and obj.get("ok") is not True:
                problems.append("reproduce %s not ok" % obj.get("case"))
        got = digest_sum(digests)
        seeded = any("{seed}" in a for a in pin["argv"])
        if got != pin["digest_sum"] and not (seeded and seed != 0):
            problems.append("digest sum %s, pinned %s" % (got, pin["digest_sum"]))
        if digest_sum(facts) != pin["facts_sum"]:
            problems.append("facts sum %s, pinned %s" % (digest_sum(facts), pin["facts_sum"]))
        if store is not None:
            stored.update(digests)
            problems.extend(check_store(store, stored))
        return problems, digests


def check_store(store, digests):
    """Each store file is named by its certificate's digest, one per certificate."""
    problems = []
    want = {"cert-%s.json" % d[:16] for d in digests}
    have = set(os.listdir(store))
    if have != want:
        problems.append("store holds %d files, expected %d" % (len(have), len(want)))
    for name in sorted(have & want):
        cert = json.loads(Path(store, name).read_text())
        if "cert-%s.json" % cert_digest(cert)[:16] != name:
            problems.append("store file %s does not match its digest" % name)
    return problems


def run_iteration(workload, seed, checker, recorder=None, label="0") -> dict:
    """One pass over the workload's invocations, checked after each one.

    ``wall`` is the time spent inside ``main``; the checks are not timed.
    """
    import segreid.cli

    templates = WORKLOADS[workload]
    store = None
    if any("{store}" in a for argv in templates for a in argv):
        store = tempfile.mkdtemp(prefix="store-", dir=OUT)
    wall, failed, problems, digests, stored = 0.0, 0, [], [], set()
    try:
        for index, template in enumerate(templates):
            argv = [a.format(seed=seed, store=store) for a in template]
            if recorder is not None:
                recorder.invocation = "%s:%d" % (label, index)
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = segreid.cli.main(argv)
            except (Exception, SystemExit) as exc:
                code = exc
            wall += time.perf_counter() - t0
            found, got = checker.check(workload, index, seed, code, buf.getvalue(),
                                       store, stored)
            digests.extend(got)
            failed += bool(found)
            problems.extend("%s: %s" % (" ".join(argv), p) for p in found)
    finally:
        if store is not None:
            shutil.rmtree(store)
    return {"wall": wall, "certs": len(digests), "attempted": len(templates),
            "failed": failed, "problems": problems, "digest_sum": digest_sum(digests)}


def child_main(args):
    """One iteration in this fresh interpreter; prints its outcome as JSON."""
    sys.path.insert(0, str(SRC))
    checker = Checker(load_pins())
    if not args.trace:
        out = run_iteration(args.workload, args.seed, checker)
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from spans import SpanRecorder, layer_metrics

        with SpanRecorder(args.workload) as recorder:
            out = run_iteration(args.workload, args.seed, checker, recorder, args.child)
        out["metrics"], out["accounting"] = layer_metrics(recorder.spans, out["wall"])
        recorder.write(OUT / ("spans-%s-seed%d-%s.jsonl" % (args.workload, args.seed, args.child)))
    print(json.dumps(out))


def python(argv, timeout) -> str:
    """Run this interpreter on ``argv`` from the checkout root; return its stdout."""
    res = subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                         timeout=timeout, cwd=ROOT)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit("a child interpreter exited with %d" % res.returncode)
    return res.stdout.strip().splitlines()[-1]


def iteration_child(args, trace, label) -> dict:
    return json.loads(python(
        [str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
         "--trace", str(trace), "--child", label], timeout=150))


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "jsonschema": importlib.metadata.version("jsonschema"),
    }


def quartiles(values) -> dict:
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2])
    return out


def setup_sample() -> float:
    return float(python(["-c", SETUP_CODE, str(SRC)], timeout=60))


def run_untraced(args, outcomes, detail):
    # set-up samples are taken between iterations, as many as are due by the
    # time elapsed, so that they spread over the run as the iterations do
    setup = []
    t0 = time.perf_counter()
    while len(outcomes) < MIN_ITERATIONS or time.perf_counter() < t0 + args.seconds:
        elapsed = min(1.0, (time.perf_counter() - t0) / args.seconds)
        while len(setup) < 1 + (SETUP_SAMPLES - 1) * elapsed:
            setup.append(setup_sample())
        outcomes.append(iteration_child(args, 0, str(len(outcomes))))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    walls = [o["wall"] for o in outcomes]
    rss = [o["maxrss_kb"] for o in outcomes]
    detail.update(setup_s=setup, wall_s=quartiles(walls), peak_rss_kb=rss,
                  cells_per_iteration=[o["certs"] for o in outcomes])
    return {
        "wall_s": statistics.median(walls),
        "cells_per_s": statistics.median(o["certs"] / o["wall"] for o in outcomes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss) / 1024.0,
    }


def run_traced(args, outcomes, detail):
    from spans import EXACT_COUNTS

    untraced, traced = [], []
    t_end = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < t_end:
        # alternate which side of the pair runs first
        for trace in (0, 1) if len(traced) % 2 == 0 else (1, 0):
            out = iteration_child(args, trace, str(len(outcomes)))
            (traced if trace else untraced).append(out)
            outcomes.append(out)
    per_iter = [o["metrics"] for o in traced]
    metrics = {}
    for name in per_iter[0]:
        values = [m[name] for m in per_iter]
        exact = isinstance(values[0], int)
        metrics[name] = statistics.median_low(values) if exact else statistics.median(values)
    traced_wall = statistics.median(o["wall"] for o in traced)
    # each round runs one untraced and one traced iteration back to back, so
    # their difference sees the same host speed
    overhead = [t["wall"] - u["wall"] for u, t in zip(untraced, traced)]
    metrics["trace.overhead_s"] = statistics.median(overhead)
    problems = ["count %s differs between traced iterations" % name
                for name in EXACT_COUNTS if len({m[name] for m in per_iter}) != 1]
    problems += ["spans of traced iteration %d are not nested soundly" % i
                 for i, o in enumerate(traced) if not o["accounting"]["sound"]]
    layers = {k: v for k, v in metrics.items()
              if k.endswith("_s") and not k.startswith(("cli.", "trace."))}
    detail.update({
        "untraced_wall_s": quartiles([o["wall"] for o in untraced]),
        "traced_wall_s": quartiles([o["wall"] for o in traced]),
        "trace_overhead_pairs_s": overhead,
        "largest_layer": max(layers, key=layers.get),
        "shares": {k: v / traced_wall for k, v in sorted(layers.items())},
        "accounting": [o["accounting"] for o in traced],
        "trace_problems": problems,
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", metavar="LABEL", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    os.environ.pop("SEGREID_STORE", None)  # no store beyond the workload's own
    OUT.mkdir(exist_ok=True)
    if args.child is not None:
        child_main(args)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = load_pins()[args.workload]["digest_sum"]
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_info()}
    outcomes = []
    if args.trace:
        values = run_traced(args, outcomes, detail)
        declared = spec["per_layer"]
    else:
        values = run_untraced(args, outcomes, detail)
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit("metrics %s do not match BENCHMARK.json" % sorted(values))

    sums = sorted({o["digest_sum"] for o in outcomes})
    failed = sum(o["failed"] for o in outcomes)
    detail.update(digest_sums=sums, pinned_digest_sum=pinned,
                  problems=[p for o in outcomes for p in o["problems"]])
    correct = (failed == 0 and not detail.get("trace_problems")
               and (args.seed != 0 or sums == [pinned]))
    result = {
        "correct": correct,
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    detail_line = json.dumps(detail, sort_keys=True)
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(detail_line + "\n" + json.dumps(result) + "\n")
    print(detail_line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
