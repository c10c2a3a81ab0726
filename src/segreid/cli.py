"""Command line front end.

Four subcommands:

* ``bounds``     print the closed-form k ranges for binary products
* ``probe``      run dimension / tangency probes for one (shape, k) cell
* ``sweep``      tabulate verdicts for binary products over a range of m
* ``reproduce``  rerun the pinned reference computations and check them

Certificates are emitted as JSON lines on stdout, one object per line,
each validated against CERTIFICATE_SCHEMA and rebuilt from the evidence
it records before printing.  Exit codes:

* 0  completed, no counter-evidence against generic identifiability
* 1  completed, some cell ended in DefectCandidate or
     WeaklyDefectiveEvidence (or a reproduce check failed)
* 2  bad command line, found by argparse before any work, including a
     --store path that is not a directory or lies below a regular file,
     and a --csv path that cannot be written (a directory, or in a
     directory that does not exist)
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

from .bounds import NOTE_M6_K9, SPECIAL_CELLS, VerdictStatus, regime_report
from .certificates import (
    certificate_from_verdict,
    validate_certificate_dict,
    verdict_from_certificate,
    write_certificate,
)
from .exactlin import DEFAULT_PRIMES, check_prime
from .segre import ProductShape
from .tangency import identifiability_verdict, order_one_applicable, weak_defectivity_probe
from .terracini import defect_status, secant_dim_probe

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
    validate_certificate_dict(cert.to_dict())
    verdict_from_certificate(cert)
    print(cert.json_line())
    if store is not None:
        write_certificate(cert, store)


def probe_cell(shape, k, trials, prime, seed):
    """One (prime, seed) cell: tangency probe when order-1 applies, else dims only.

    Returns the probe and its wall time in seconds, to the microsecond.
    """
    t0 = time.perf_counter()
    if order_one_applicable(shape, k):
        res = weak_defectivity_probe(shape, k, trials=trials, prime=prime, seed=seed)
    else:
        res = secant_dim_probe(shape, k, trials=trials, prime=prime, seed=seed)
    return res, round(time.perf_counter() - t0, 6)


def _certify(shape, ks, runs, pins=None):
    """The certificates for ``ks`` from one (shape, prime) group of (probe, wall) runs.

    Each verdict is taken over the whole group.  A k with its own run
    records that probe and its wall time; any other k records ``pins``
    and null probe fields.
    """
    evidence = [res for res, _ in runs]
    own = {res.k: (res, wall) for res, wall in runs}
    certs = []
    for k in ks:
        res, wall = own.get(k, (None, None))
        verdict = identifiability_verdict(shape, k, evidence)
        certs.append(certificate_from_verdict(verdict, res, pins=pins, wall_time_s=wall))
    return certs


def run_probe(shape, k, trials=3, primes=DEFAULT_PRIMES, seed=0):
    """Probe one (shape, k) on each prime, widening the grid on a defect.

    Returns (certificates, summary dict, exit code), one certificate per
    (prime, seed) probed, each with its probe's wall time.  When a probe
    falls short of the expected dimension, the cell is also probed on
    seeds seed..seed+2 of the given primes, or of DEFAULT_PRIMES when
    fewer than 3 are given, so defect_status can tell a stable defect
    from an unlucky sample.
    """
    runs = {(prime, seed): probe_cell(shape, k, trials, prime, seed) for prime in primes}
    if any(res.defect > 0 for res, _ in runs.values()):
        grid_primes = primes if len(primes) >= 3 else DEFAULT_PRIMES
        for pr in grid_primes:
            for s in (seed, seed + 1, seed + 2):
                if (pr, s) not in runs:
                    runs[pr, s] = probe_cell(shape, k, trials, pr, s)

    certs = [cert for run in runs.values() for cert in _certify(shape, [k], [run])]

    evidence = [res for res, _ in runs.values()]
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
    """All k >= 1 whose expected span falls short of the ambient space.

    expected_dim(shape, k) < r exactly when (k + 1)(dim + 1) <= r.
    """
    top = shape.ambient_dim // (shape.dim + 1) - 1
    return list(range(1, top + 1 if max_k is None else min(top, max_k) + 1))


def _sweep_cell(cell):
    dims, k, prime, trials, seed = cell
    shape = ProductShape(dims)
    try:
        res, _ = probe_cell(shape, k, trials, prime, seed)
        return res, None
    except Exception as exc:  # keep the pool alive, report the cell
        error = {
            "cell": list(cell[:3]),
            "error": "%s: %s" % (type(exc).__name__, exc),
            "traceback": traceback.format_exc(),
        }
        return None, error


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

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when used
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_sweep_cell, cells))
    else:
        outcomes = [_sweep_cell(cell) for cell in cells]
    errors = [err for _, err in outcomes if err is not None]
    groups = {}
    for res, _ in outcomes:
        if res is not None:
            groups.setdefault((res.shape, res.prime), []).append((res, None))
    certs = []
    for (shape, _), runs in groups.items():
        certs += _certify(shape, [res.k for res, _ in runs], runs)
    certs.sort(key=lambda c: (len(c.shape), c.k, c.prime))
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
    certs, summary, code = run_probe(
        args.shape,
        args.k,
        trials=args.trials,
        primes=args.primes,
        seed=args.seed,
    )
    for cert in certs:
        _emit(cert, args.store)
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
    for cert in certs:
        _emit(cert, args.store)
    counter = sum(1 for c in certs if c.verdict in _COUNTER_EVIDENCE)
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


_SWEEP_COLUMNS = (
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
)


def _write_sweep_csv(path, certs):
    """One row per certificate: its fields by name, plus m and the corank-0 flag."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        for c in certs:
            certified = c.coranks is not None and all(x == 0 for x in c.coranks)
            row = {**c.to_dict(), "m": len(c.shape), "certified_corank_zero": int(certified)}
            writer.writerow([row[name] for name in _SWEEP_COLUMNS])


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
    res8, wall = probe_cell(shape, 8, trials, prime, seed)
    certs = _certify(shape, range(1, 10), [(res8, wall)], pins=(prime, seed, trials))
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
    ok, detail = _REPRODUCE_CASES[args.case](args.store)
    line = {"type": "reproduce", "case": args.case, "ok": ok}
    line.update(detail)
    print(json.dumps(line, sort_keys=True))
    return 0 if ok else 1


def _checked(parse):
    """argparse type from ``parse``: its ValueError becomes the usage error."""

    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


def _int_at_least(low):
    """argparse type: an integer no smaller than ``low``."""

    @_checked
    def parse(text):
        value = int(text)
        if value < low:
            raise ValueError("need >= %d, got %d" % (low, value))
        return value

    return parse


def _ints(parts, form, text):
    """``parts`` of ``text`` as integers; any other part is a ValueError naming ``form``."""
    try:
        return tuple(map(int, parts))
    except ValueError:
        raise ValueError("expected %s, got %r" % (form, text)) from None


@_checked
def _parse_m_range(text):
    rng = _ints(text.split("..", 1) if ".." in text else (text, text), "M or A..B", text)
    if rng[0] < 2 or rng[1] < rng[0]:
        raise ValueError("need 2 <= A <= B, got %r" % text)
    return rng


@_checked
def _parse_primes(text):
    primes = _ints(text.split(","), "P1,P2,...", text)
    for i, p in enumerate(primes):
        check_prime(p)
        if p in primes[:i]:
            raise ValueError(f"prime {p} given twice")
    return primes


@_checked
def _store_dir(text):
    """A directory, or a path to one that can be made: "" means no store."""
    if not text:
        return None
    folder = os.path.abspath(text)
    while not os.path.exists(folder):
        folder = os.path.dirname(folder)
    if not os.path.isdir(folder):
        raise ValueError("certificate store %r: %r is not a directory" % (text, folder))
    return text


@_checked
def _csv_path(text):
    if os.path.isdir(text) or not os.path.isdir(os.path.dirname(os.path.abspath(text))):
        raise ValueError("cannot write a file at %r" % text)
    return text


def build_parser():
    # Each option is declared once, on a parent parser that every
    # subcommand taking it inherits.
    factors = argparse.ArgumentParser(add_help=False)
    factors.add_argument("-m", "--factors", required=True, type=_parse_m_range,
                         metavar="A..B", help="range of factor counts, e.g. 6..12")
    # the pins that, with shape and k, fix a certificate
    pins = argparse.ArgumentParser(add_help=False)
    pins.add_argument("--trials", type=_int_at_least(1), default=3,
                      help="most random point tuples a probe draws")
    pins.add_argument("--primes", type=_parse_primes, default=DEFAULT_PRIMES,
                      metavar="P1,P2,...", help="primes below 2**31 to probe on "
                      "(default: the three largest)")
    pins.add_argument("--seed", type=_int_at_least(0), default=0, help="probe seed; a "
                      "sweep derives each cell's seed by hashing (shape, k, prime) with it")
    store = argparse.ArgumentParser(add_help=False)
    # argparse runs a string default through its type, so $SEGREID_STORE is checked too
    store.add_argument("--store", type=_store_dir, default=os.environ.get(ENV_STORE, ""),
                       help="directory for cert-<digest>.json files "
                       "(default: $%s if set)" % ENV_STORE)

    parser = argparse.ArgumentParser(
        prog="segreid",
        description="Exact prime-field probes for secant dimensions and "
        "generic identifiability of embedded products of projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", parents=[factors],
                       help="closed-form k ranges for binary products")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.set_defaults(func=cmd_bounds)

    pr = sub.add_parser("probe", parents=[pins, store], help="probe one (shape, k) cell")
    grp = pr.add_mutually_exclusive_group(required=True)
    grp.add_argument("--binary", type=_checked(lambda t: ProductShape.binary(int(t))),
                     dest="shape", metavar="M", help="product of M projective lines")
    grp.add_argument("--shape", metavar="N1,N2,...",
                     type=_checked(lambda t: ProductShape(_ints(t.split(","), "N1,N2,...", t))),
                     help="factor dimensions, e.g. 1,1,2")
    pr.add_argument("-k", type=_int_at_least(1), required=True,
                    help="number of secant points is k+1")
    pr.set_defaults(func=cmd_probe)

    sw = sub.add_parser("sweep", parents=[factors, pins, store],
                        help="tabulate verdicts for binary products")
    sw.add_argument("--jobs", type=_int_at_least(1), default=1)
    sw.add_argument("--max-k", type=_int_at_least(1), default=None)
    sw.add_argument("--csv", type=_csv_path, default=None, metavar="PATH",
                    help="also write a flat summary table")
    sw.set_defaults(func=cmd_sweep)

    rp = sub.add_parser("reproduce", parents=[store],
                        help="rerun a pinned reference computation")
    rp.add_argument("case", choices=sorted(_REPRODUCE_CASES))
    rp.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


def console():
    raise SystemExit(main())
