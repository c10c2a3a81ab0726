"""Command line front end.

Four subcommands:

* ``bounds``     print the closed-form k ranges for binary products
* ``probe``      run dimension / tangency probes for one (shape, k) cell
* ``sweep``      tabulate verdicts for binary products over a range of m
* ``reproduce``  rerun the pinned reference computations and check them

Certificates are emitted as JSON lines on stdout, one object per line,
each validated against CERTIFICATE_SCHEMA before printing.  Exit codes:

* 0  completed, no counter-evidence against generic identifiability
* 1  completed, some cell ended in DefectCandidate or
     WeaklyDefectiveEvidence (or a reproduce check failed)
* 2  bad command line (argparse)
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

from .bounds import NOTE_M6_K9, SPECIAL_CELLS, regime_report
from .certificates import (
    certificate_from_verdict,
    validate_certificate_dict,
    verdict_from_certificate,
    write_certificate,
)
from .exactlin import DEFAULT_PRIMES, check_prime
from .segre import ProductShape
from .tangency import (
    VerdictStatus,
    identifiability_verdict,
    order_one_applicable,
    weak_defectivity_probe,
)
from .terracini import defect_status, expected_dim, secant_dim_probe

ENV_STORE = "SEGREID_STORE"

_COUNTER_EVIDENCE = (
    VerdictStatus.DEFECT_CANDIDATE,
    VerdictStatus.WEAKLY_DEFECTIVE_EVIDENCE,
)


def derive_seed(master: int, shape: ProductShape, k: int, prime: int) -> int:
    """Stable per-cell seed so sweep cells stay reproducible in isolation."""
    tag = "%d|%s|%d|%d" % (master, ",".join(map(str, shape.factor_dims)), k, prime)
    return int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=8).digest(), "big")


def _emit(cert, store):
    d = cert.to_dict()
    validate_certificate_dict(d)
    recomputed = verdict_from_certificate(cert)
    if recomputed.status.value != cert.verdict:
        raise RuntimeError(
            "certificate verdict %r does not recompute (%r)"
            % (cert.verdict, recomputed.status.value)
        )
    print(cert.json_line())
    if store is not None:
        write_certificate(cert, store)


def _resolve_store(arg):
    store = arg if arg is not None else os.environ.get(ENV_STORE)
    return store if store else None


def probe_cell(shape, k, trials, prime, seed):
    """One (prime, seed) cell: tangency probe when order-1 applies, else dims only."""
    t0 = time.perf_counter()
    if order_one_applicable(shape, k):
        res = weak_defectivity_probe(shape, k, trials=trials, prime=prime, seed=seed)
    else:
        res = secant_dim_probe(shape, k, trials=trials, prime=prime, seed=seed)
    wall = time.perf_counter() - t0
    return res, wall


def run_probe(shape, k, trials=3, primes=DEFAULT_PRIMES, seed=0, escalate=True):
    """Probe one (shape, k) over the given primes, widening the grid on a defect.

    Returns (certificates, summary dict, exit code).  Escalation reruns the
    cell on >= 3 primes x 3 seeds so defect_status can tell a stable defect
    from an unlucky sample.
    """
    cells = [(prime, seed) for prime in primes]
    results = {}
    walls = {}
    for cell in cells:
        results[cell], walls[cell] = probe_cell(shape, k, trials, *cell)

    if escalate and any(r.defect > 0 for r in results.values()):
        grid_primes = primes if len(set(primes)) >= 3 else DEFAULT_PRIMES
        extra = [
            (pr, s)
            for pr in grid_primes
            for s in (seed, seed + 1, seed + 2)
            if (pr, s) not in results
        ]
        for cell in extra:
            results[cell], walls[cell] = probe_cell(shape, k, trials, *cell)

    certs = [
        certificate_from_verdict(
            identifiability_verdict(shape, k, [res]),
            res,
            wall_time_s=round(walls[cell], 6),
        )
        for cell, res in results.items()
    ]

    evidence = list(results.values())
    aggregate = identifiability_verdict(shape, k, evidence)
    summary = {
        "type": "summary",
        "shape": list(shape.factor_dims),
        "k": k,
        "verdict": aggregate.status.value,
        "defect_status": defect_status(evidence),
        "certificates": len(certs),
        "cited": list(aggregate.cited),
        "notes": list(aggregate.notes),
    }
    code = 1 if aggregate.status in _COUNTER_EVIDENCE else 0
    return certs, summary, code


def sweep_ks(shape, max_k=None):
    """All k >= 1 whose expected span falls short of the ambient space."""
    ks = []
    k = 1
    while expected_dim(shape, k) < shape.ambient_dim:
        ks.append(k)
        k += 1
    if max_k is not None:
        ks = [k for k in ks if k <= max_k]
    return ks


def _sweep_cell(cell):
    dims, k, prime, trials, seed = cell
    shape = ProductShape(dims)
    try:
        res, _ = probe_cell(shape, k, trials, prime, seed)
        return cell, res, None
    except Exception as exc:  # keep the pool alive, report the cell
        error = {
            "cell": list(cell[:3]),
            "error": "%s: %s" % (type(exc).__name__, exc),
            "traceback": traceback.format_exc(),
        }
        return cell, None, error


def run_sweep(m_range, trials=3, primes=DEFAULT_PRIMES, seed=0, jobs=1, max_k=None):
    """Probe every subcritical (m, k, prime) cell and attach verdicts.

    Verdicts are computed per (m, prime) from all of that prime's results so
    a corank-0 certificate at high k propagates down; propagated_from_k marks
    the borrowed support.  wall_time_s is left null to keep reruns
    byte-identical.
    """
    m_lo, m_hi = m_range
    cells = []
    for m in range(m_lo, m_hi + 1):
        shape = ProductShape.binary(m)
        for k in sweep_ks(shape, max_k):
            for prime in primes:
                cells.append(
                    (shape.factor_dims, k, prime, trials, derive_seed(seed, shape, k, prime))
                )

    results = {}
    errors = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_sweep_cell, cells))
    else:
        outcomes = [_sweep_cell(cell) for cell in cells]
    for cell, res, err in outcomes:
        if err is not None:
            errors.append(err)
        else:
            results[cell] = res

    by_mp = {}
    for cell, res in results.items():
        by_mp.setdefault((cell[0], cell[2]), []).append(res)

    certs = []
    for cell in sorted(results, key=lambda c: (len(c[0]), c[1], c[2])):
        dims, k, prime = cell[0], cell[1], cell[2]
        verdict = identifiability_verdict(ProductShape(dims), k, by_mp[(dims, prime)])
        certs.append(certificate_from_verdict(verdict, results[cell]))
    return certs, errors


_BOUNDS_COLUMNS = (
    "m",
    "k_max",
    "product_bound_max_k",
    "log_ceiling_bound_max_k",
    "sqrt_bound_max_k_plus_1",
    "note",
)


def _bounds_row(m):
    """The bounds row of m, read off its regime reports.

    The notes of the reports at k=1 and at every special cell of this m
    are joined, so a recorded cell's note shows in its m's row.
    """
    ks = [1] + sorted(k for mm, k in SPECIAL_CELLS if mm == m)
    reports = [regime_report(m, k) for k in ks]
    notes = dict.fromkeys(note for rep in reports for note in rep.notes)
    row = {c: getattr(reports[0], c) for c in _BOUNDS_COLUMNS[:-1]}
    row["note"] = "; ".join(notes)
    return row


def cmd_bounds(args):
    rows = [_bounds_row(m) for m in range(args.factors[0], args.factors[1] + 1)]
    if args.format == "json":
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(_BOUNDS_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in _BOUNDS_COLUMNS])
    return 0


def cmd_probe(args):
    if args.binary is not None:
        shape = ProductShape.binary(args.binary)
    else:
        shape = ProductShape(args.shape)
    certs, summary, code = run_probe(
        shape,
        args.k,
        trials=args.trials,
        primes=args.primes,
        seed=args.seed,
    )
    store = _resolve_store(args.store)
    for cert in certs:
        _emit(cert, store)
    print(json.dumps(summary, sort_keys=True))
    return code


def cmd_sweep(args):
    certs, errors = run_sweep(
        args.factors,
        trials=args.trials,
        primes=args.primes,
        seed=args.seed,
        jobs=args.jobs,
        max_k=args.max_k,
    )
    store = _resolve_store(args.store)
    for cert in certs:
        _emit(cert, store)
    counter = sum(1 for c in certs if c.verdict in (s.value for s in _COUNTER_EVIDENCE))
    summary = {
        "type": "sweep_summary",
        "m_range": list(args.factors),
        "cells": len(certs),
        "counter_evidence": counter,
        "errors": len(errors),
    }
    print(json.dumps(summary, sort_keys=True))
    for err in errors:
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
    if args.csv is not None:
        _write_sweep_csv(args.csv, certs)
    return 1 if (counter or errors) else 0


def _write_sweep_csv(path, certs):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "m",
                "k",
                "prime",
                "seed",
                "expected_dim",
                "observed_dim",
                "defect",
                "kernel_dim",
                "certified_corank_zero",
                "verdict",
                "propagated_from_k",
            ]
        )
        for c in certs:
            certified = c.coranks is not None and all(x == 0 for x in c.coranks)
            writer.writerow(
                [
                    len(c.shape),
                    c.k,
                    c.prime,
                    c.seed,
                    c.expected_dim,
                    c.observed_dim,
                    c.defect,
                    c.kernel_dim,
                    int(certified),
                    c.verdict,
                    c.propagated_from_k,
                ]
            )


def _reproduce_m5k4(store):
    shape = ProductShape.binary(5)
    certs, summary, _ = run_probe(shape, 4, trials=3, primes=DEFAULT_PRIMES, seed=0)
    for cert in certs:
        _emit(cert, store)
    ok = len(certs) == len(DEFAULT_PRIMES) and all(
        c.observed_dim == 29
        and c.kernel_dim == 2
        and c.coranks == (1, 1, 1, 1, 1)
        and c.verdict == VerdictStatus.KNOWN_EXCEPTION_SECANT_ORDER_2.value
        for c in certs
    )
    detail = {"summary": summary}
    return ok, detail


def _reproduce_m6table(store):
    shape = ProductShape.binary(6)
    prime, seed, trials = DEFAULT_PRIMES[0], 0, 3
    t0 = time.perf_counter()
    res8 = weak_defectivity_probe(shape, 8, trials=trials, prime=prime, seed=seed)
    wall = time.perf_counter() - t0
    certs = []
    for k in range(1, 10):
        verdict = identifiability_verdict(shape, k, [res8])
        if k == 8:
            cert = certificate_from_verdict(verdict, res8, wall_time_s=round(wall, 6))
        else:
            cert = certificate_from_verdict(verdict, pins=(prime, seed, trials))
        certs.append(cert)
    for cert in certs:
        _emit(cert, store)
    ok = (
        res8.certified
        and all(
            c.verdict == VerdictStatus.IDENTIFIABLE_CERTIFIED.value
            for c in certs[:8]
        )
        and certs[8].verdict == VerdictStatus.UNDETERMINED.value
        and NOTE_M6_K9 in certs[8].notes
    )
    detail = {"k8_coranks": list(res8.coranks or ()), "k8_kernel_dim": res8.kernel_dim}
    return ok, detail


def _reproduce_bounds_table(store):
    rows = [_bounds_row(m) for m in range(6, 11)]
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    want = (92, 50, 15, 22)
    got = tuple(rows[-1][c] for c in _BOUNDS_COLUMNS[1:5])
    return got == want, {"m10": list(got)}


_REPRODUCE_CASES = {
    "m5k4": _reproduce_m5k4,
    "m6table": _reproduce_m6table,
    "bounds-table": _reproduce_bounds_table,
}


def cmd_reproduce(args):
    store = _resolve_store(args.store)
    ok, detail = _REPRODUCE_CASES[args.case](store)
    line = {"type": "reproduce", "case": args.case, "ok": ok}
    line.update(detail)
    print(json.dumps(line, sort_keys=True))
    return 0 if ok else 1


def _int_at_least(low):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
        if value < low:
            raise argparse.ArgumentTypeError("need >= %d, got %d" % (low, value))
        return value

    return parse


def _parse_m_range(text):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            rng = (int(lo), int(hi))
        else:
            rng = (int(text), int(text))
    except ValueError:
        raise argparse.ArgumentTypeError("expected M or A..B, got %r" % text)
    if rng[0] < 2 or rng[1] < rng[0]:
        raise argparse.ArgumentTypeError("need 2 <= A <= B, got %r" % text)
    return rng


def _parse_shape(text):
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected N1,N2,..., got %r" % text)
    if len(dims) < 2 or any(n < 1 for n in dims):
        raise argparse.ArgumentTypeError("need >= 2 factors, all >= 1")
    return dims


def _parse_primes(text):
    try:
        primes = tuple(int(part) for part in text.split(","))
        for p in primes:
            check_prime(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return primes


def build_parser():
    parser = argparse.ArgumentParser(
        prog="segreid",
        description="Exact prime-field probes for secant dimensions and "
        "generic identifiability of embedded products of projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="closed-form k ranges for binary products")
    b.add_argument("-m", "--factors", required=True, type=_parse_m_range,
                   metavar="A..B", help="range of factor counts, e.g. 6..12")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.set_defaults(func=cmd_bounds)

    pr = sub.add_parser("probe", help="probe one (shape, k) cell")
    grp = pr.add_mutually_exclusive_group(required=True)
    grp.add_argument("--binary", type=_int_at_least(2), metavar="M",
                     help="product of M projective lines")
    grp.add_argument("--shape", type=_parse_shape, metavar="N1,N2,...",
                     help="factor dimensions, e.g. 1,1,2")
    pr.add_argument("-k", type=_int_at_least(1), required=True,
                    help="number of secant points is k+1")
    pr.add_argument("--trials", type=_int_at_least(1), default=3)
    pr.add_argument("--primes", type=_parse_primes, default=DEFAULT_PRIMES,
                    metavar="P1,P2,...")
    pr.add_argument("--seed", type=_int_at_least(0), default=0)
    pr.add_argument("--store", default=None,
                    help="directory for cert-<digest>.json files "
                    "(default: $%s if set)" % ENV_STORE)
    pr.set_defaults(func=cmd_probe)

    sw = sub.add_parser("sweep", help="tabulate verdicts for binary products")
    sw.add_argument("-m", "--factors", required=True, type=_parse_m_range,
                    metavar="A..B")
    sw.add_argument("--trials", type=_int_at_least(1), default=3)
    sw.add_argument("--primes", type=_parse_primes, default=DEFAULT_PRIMES,
                    metavar="P1,P2,...")
    sw.add_argument("--seed", type=_int_at_least(0), default=0, help="master seed; per-cell "
                    "seeds are derived by hashing (shape, k, prime) with it")
    sw.add_argument("--jobs", type=_int_at_least(1), default=1)
    sw.add_argument("--max-k", type=int, default=None)
    sw.add_argument("--csv", default=None, metavar="PATH",
                    help="also write a flat summary table")
    sw.add_argument("--store", default=None)
    sw.set_defaults(func=cmd_sweep)

    rp = sub.add_parser("reproduce", help="rerun a pinned reference computation")
    rp.add_argument("case", choices=sorted(_REPRODUCE_CASES))
    rp.add_argument("--store", default=None)
    rp.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "store"):
        store = _resolve_store(args.store)
        if store is not None and os.path.exists(store) and not os.path.isdir(store):
            parser.error("certificate store %r exists and is not a directory" % str(store))
    return args.func(args)


def console():
    raise SystemExit(main())
