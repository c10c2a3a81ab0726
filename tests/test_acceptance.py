"""Acceptance gate: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Everything here is exact integer arithmetic; no tolerances anywhere.
"""

import dataclasses
import json
import time

import numpy as np

import contact_oracle as oracle
from contact_oracle import first_order_residuals, tangent_frame
from echelon_oracle import matmul_mod
from segreid.bounds import NOTE_M6_K9, product_bound_max_k
from segreid.certificates import certificate_from_verdict, validate_certificate_dict
from segreid.cli import main, run_sweep
from segreid.exactlin import DEFAULT_PRIMES, SplitMix64, ff_rank
from segreid.segre import ProductShape, random_point, segre_embed
from segreid.tangency import (
    VerdictStatus,
    contact_corank,
    contact_jacobian,
    identifiability_verdict,
    tangency_residuals,
    tangent_hyperplanes,
    weak_defectivity_probe,
)
from segreid.terracini import (
    DEFECT_EVIDENCE,
    defect_status,
    secant_dim_probe,
    terracini_matrix,
)
from stream_oracle import ScalarSplitMix64

P = DEFAULT_PRIMES[0]


def _verdict_line(n, ok, desc):
    print("ACCEPTANCE %d %s: %s" % (n, "PASS" if ok else "FAIL", desc))
    assert ok


def test_acceptance_1_no_defects_m5_to_m8():
    """Every subcritical binary cell for m in 5..8 attains the expected dimension."""
    t0 = time.perf_counter()
    cells = 0
    ok = True
    for m in (5, 6, 7, 8):
        s = ProductShape.binary(m)
        k = 1
        while (m + 1) * (k + 1) <= 2**m:
            for prime in DEFAULT_PRIMES:
                for seed in (0, 1):
                    res = secant_dim_probe(s, k, prime=prime, seed=seed)
                    ok = ok and res.defect == 0
                    cells += 1
            k += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict_line(
        1,
        ok,
        "defect 0 at all %d (m,k,prime,seed) cells, m in 5..8, %.1fs" % (cells, elapsed),
    )


def test_acceptance_2_four_lines_defect():
    """m=4, k=2 shows observed 13 against expected 14 on a 3x3 grid."""
    results = [
        secant_dim_probe(ProductShape.binary(4), 2, prime=prime, seed=seed)
        for prime in DEFAULT_PRIMES
        for seed in (0, 1, 2)
    ]
    observed = {r.observed_dim for r in results}
    ok = (
        len(results) >= 9
        and observed == {13}
        and all(r.expected_dim == 14 for r in results)
        and defect_status(results) == DEFECT_EVIDENCE
    )
    _verdict_line(
        2,
        ok,
        "observed 13 vs expected 14 on %d samples, status %r"
        % (len(results), defect_status(results)),
    )


def test_acceptance_3_five_lines_k4_exception():
    """m=5, k=4: rank 30 of 30x32, kernel 2, all contact coranks 1, exception verdict."""
    s = ProductShape.binary(5)
    rng = SplitMix64(0)
    pts = [random_point(s, rng, P) for _ in range(5)]
    mat = terracini_matrix(s, pts, P)
    rank = ff_rank(mat, P)
    kernel = tangent_hyperplanes(s, pts, P)
    res = weak_defectivity_probe(s, 4, seed=0)
    verdict = identifiability_verdict(s, 4, [res])
    ok = (
        mat.shape == (30, 32)
        and rank == 30
        and kernel.shape[0] == 2
        and res.kernel_dim == 2
        and res.coranks == (1, 1, 1, 1, 1)
        and verdict.status is VerdictStatus.KNOWN_EXCEPTION_SECANT_ORDER_2
    )
    _verdict_line(
        3,
        ok,
        "30x32 rank %d, kernel %d, coranks %s, verdict %s"
        % (rank, kernel.shape[0], list(res.coranks or ()), verdict.status.value),
    )


def test_acceptance_4_six_lines_certified_through_8():
    """m=6: corank 0 at k=8 certifies k <= 8; k=9 stays undetermined with the note."""
    s = ProductShape.binary(6)
    res8 = weak_defectivity_probe(s, 8, seed=0)
    verdicts = {k: identifiability_verdict(s, k, [res8]) for k in range(1, 10)}
    ok = res8.certified and res8.coranks == (0,) * 9
    for k in range(1, 9):
        ok = ok and verdicts[k].status is VerdictStatus.IDENTIFIABLE_CERTIFIED
        ok = ok and verdicts[k].support_k == 8
    ok = (
        ok
        and verdicts[9].status is VerdictStatus.UNDETERMINED
        and NOTE_M6_K9 in verdicts[9].notes
    )
    _verdict_line(
        4,
        ok,
        "k=8 coranks all 0, k=1..8 IdentifiableCertified, k=9 Undetermined with note",
    )


def test_acceptance_5_spot_instances_m7_m8_m9():
    """Largest product-bound k for m in 7..9 certifies corank 0."""
    details = []
    ok = True
    for m in (7, 8, 9):
        k = product_bound_max_k(m)
        res = weak_defectivity_probe(ProductShape.binary(m), k, seed=0)
        ok = ok and res.certified and res.defect == 0
        details.append("(m=%d,k=%d)" % (m, k))
    ok = ok and [product_bound_max_k(m) for m in (7, 8, 9)] == [8, 15, 27]
    _verdict_line(5, ok, "corank 0 certified at %s" % ", ".join(details))


def test_acceptance_6_bounds_row_m10(capsys):
    """The bounds command reports 92 / 50 / 15 / 22 for m=10 with the form note."""
    code = main(["bounds", "-m", "10"])
    out = capsys.readouterr().out
    with capsys.disabled():
        row = out.splitlines()[1]
        ok = (
            code == 0
            and row.startswith("10,92,50,15,22,")
            and "disagree" in row
        )
        _verdict_line(6, ok, "m=10 row: k_max 92, product 50, log-ceiling 15, sqrt 22")


def _suite_multilinearity(pool, rng):
    cases = 0
    for _ in range(100):
        s = pool[rng.residue(len(pool))]
        p = DEFAULT_PRIMES[rng.residue(3)]
        q = list(random_point(s, rng, p))
        i = rng.residue(s.num_factors)
        a, b = rng.residue(p), rng.residue(p)
        u = np.array([rng.residue(p) for _ in range(len(q[i]))], dtype=np.int64)
        v = np.array([rng.residue(p) for _ in range(len(q[i]))], dtype=np.int64)
        qu, qv, qw = list(q), list(q), list(q)
        qu[i], qv[i], qw[i] = u, v, (a * u + b * v) % p
        lhs = segre_embed(s, qw, p)
        rhs = (a * segre_embed(s, qu, p) + b * segre_embed(s, qv, p)) % p
        assert (lhs == rhs).all()
        cases += 1
    return cases


def _suite_euler_containment(pool, rng):
    cases = 0
    for _ in range(100):
        s = pool[rng.residue(len(pool))]
        p = DEFAULT_PRIMES[rng.residue(3)]
        q = random_point(s, rng, p)
        frame = tangent_frame(s, q, p)
        emb = segre_embed(s, q, p)
        # exact containment: each factor block contracts to the embedding
        row = 0
        for i, size in enumerate(s.coord_sizes):
            got = np.zeros_like(emb)
            for j in range(size):
                got = (got + int(q[i][j]) * frame[row + j]) % p
            assert (got == emb).all()
            row += size
        assert ff_rank(np.vstack([frame, emb]), p) == ff_rank(frame, p)
        # the affine frame starts at the embedding and spans no more
        aff = terracini_matrix(s, [q], p)
        assert (aff[0] == emb).all()
        assert ff_rank(np.vstack([frame, aff]), p) == ff_rank(frame, p)
        cases += 1
    return cases


def _suite_frame_rank(pool, rng):
    cases = 0
    for _ in range(100):
        s = pool[rng.residue(len(pool))]
        p = DEFAULT_PRIMES[rng.residue(3)]
        q = random_point(s, rng, p)
        assert ff_rank(tangent_frame(s, q, p), p) == 1 + s.dim
        assert ff_rank(terracini_matrix(s, [q], p), p) == 1 + s.dim
        cases += 1
    return cases


def _random_invertible(rng, n, p):
    while True:
        m = np.array(
            [[rng.residue(p) for _ in range(n)] for _ in range(n)], dtype=np.int64
        )
        if ff_rank(m, p) == n:
            return m


def _suite_gl_equivariance(pool, rng):
    cases = 0
    for _ in range(100):
        s = pool[rng.residue(len(pool))]
        p = DEFAULT_PRIMES[rng.residue(3)]
        k = 1 + rng.residue(2)
        pts = [random_point(s, rng, p) for _ in range(k + 1)]
        mats = [_random_invertible(rng, n + 1, p) for n in s.factor_dims]
        moved = [
            tuple(matmul_mod(g, f, p) for g, f in zip(mats, q)) for q in pts
        ]
        before = ff_rank(terracini_matrix(s, pts, p), p)
        # a moved point may land outside the chart; frames need nonzero firsts
        try:
            after = ff_rank(terracini_matrix(s, moved, p), p)
        except ValueError:
            continue
        assert before == after
        cases += 1
    return cases


_KERNEL_CELLS = [(4, 1), (4, 2), (5, 2), (5, 3), (5, 4), (6, 3)]


def _suite_kernel_exactness(rng):
    cases = 0
    while cases < 100:
        m, k = _KERNEL_CELLS[rng.residue(len(_KERNEL_CELLS))]
        p = DEFAULT_PRIMES[rng.residue(3)]
        s = ProductShape.binary(m)
        pts = [random_point(s, rng, p) for _ in range(k + 1)]
        kernel = tangent_hyperplanes(s, pts, p)
        assert len(kernel)
        h = np.zeros(s.ambient_dim + 1, dtype=np.int64)
        for row in kernel:
            h = (h + rng.residue(p) * row) % p
        for q in pts:
            assert not tangency_residuals(s, h, q, p).any()
        cases += 1
    return cases


def _suite_chart_independence(rng):
    cases = 0
    while cases < 100:
        m, k = [(5, 4), (4, 1), (6, 2)][rng.residue(3)]
        p = DEFAULT_PRIMES[rng.residue(3)]
        s = ProductShape.binary(m)
        pts = [random_point(s, rng, p) for _ in range(k + 1)]
        kernel = tangent_hyperplanes(s, pts, p)
        while True:
            h = np.zeros(s.ambient_dim + 1, dtype=np.int64)
            for row in kernel:
                h = (h + rng.residue(p) * row) % p
            if h.any():
                break
        q = pts[rng.residue(k + 1)]
        charts = [
            tuple(rng.residue(n + 1) for n in s.factor_dims) for _ in range(3)
        ]
        vals = {s.dim - ff_rank(oracle.contact_jacobian(s, h, q, p, chart=c), p) for c in charts}
        assert vals == {contact_corank(s, h, q, p)}
        cases += 1
    return cases


def _suite_first_order(rng):
    cases = 0
    for m, k in [(5, 4), (6, 3)]:
        p = DEFAULT_PRIMES[rng.residue(3)]
        s = ProductShape.binary(m)
        pts = [random_point(s, rng, p) for _ in range(k + 1)]
        kernel = tangent_hyperplanes(s, pts, p)
        h = np.zeros(s.ambient_dim + 1, dtype=np.int64)
        for row in kernel:
            h = (h + rng.nonzero_residue(p) * row) % p
        q = pts[0]
        jac = contact_jacobian(s, h, q, p)
        for _ in range(50):
            v = np.array([rng.residue(p) for _ in range(s.dim)], dtype=np.int64)
            val, eps = first_order_residuals(s, h, q, v, p)
            assert not val.any()
            assert (eps[oracle.chart_rows(s)] == matmul_mod(jac, v, p)).all()
            cases += 1
    return cases


def test_acceptance_7_property_suites():
    """Seven randomized suites, each at least 100 exact cases."""
    pool = [
        ProductShape((1, 1)),
        ProductShape((1, 2)),
        ProductShape((2, 2)),
        ProductShape((1, 1, 1)),
        ProductShape((1, 1, 2)),
        ProductShape((1, 2, 1)),
    ]
    rng = ScalarSplitMix64(20260816)
    counts = {
        "multilinearity": _suite_multilinearity(pool, rng),
        "euler": _suite_euler_containment(pool, rng),
        "frame-rank": _suite_frame_rank(pool, rng),
        "gl-equivariance": _suite_gl_equivariance(pool, rng),
        "kernel-exactness": _suite_kernel_exactness(rng),
        "chart-independence": _suite_chart_independence(rng),
        "first-order": _suite_first_order(rng),
    }
    ok = all(c >= 100 for c in counts.values())
    _verdict_line(
        7,
        ok,
        "property suites: "
        + ", ".join("%s %d" % (k, v) for k, v in counts.items()),
    )


def test_acceptance_8_bit_exact_replay():
    """Replaying recorded (shape, k, prime, seed, trials) reproduces every numeric field."""
    checked = 0
    ok = True
    recorded = []
    s4, s5, s6, s7 = (ProductShape.binary(m) for m in (4, 5, 6, 7))
    r = secant_dim_probe(s4, 2, prime=DEFAULT_PRIMES[1], seed=3)
    recorded.append(certificate_from_verdict(identifiability_verdict(s4, 2, [r]), r))
    for s, k in [(s5, 4), (s6, 8), (s7, 8)]:
        r = weak_defectivity_probe(s, k, seed=2)
        recorded.append(certificate_from_verdict(identifiability_verdict(s, k, [r]), r))
    for cert in recorded:
        d = json.loads(cert.json_line())
        validate_certificate_dict(d)
        shape = ProductShape(tuple(d["shape"]))
        if d["kernel_dim"] is None and d["coranks"] is None:
            res = secant_dim_probe(
                shape, d["k"], trials=d["trials"], prime=d["prime"], seed=d["seed"]
            )
        else:
            res = weak_defectivity_probe(
                shape, d["k"], trials=d["trials"], prime=d["prime"], seed=d["seed"]
            )
        replay = certificate_from_verdict(
            identifiability_verdict(shape, d["k"], [res]), res
        )
        untimed = [dataclasses.replace(c, wall_time_s=None) for c in (replay, cert)]
        ok = ok and untimed[0] == untimed[1]
        ok = ok and replay.digest() == cert.digest()
        checked += 1
    sweep_a, _ = run_sweep((5, 6), primes=(P,), seed=11)
    sweep_b, _ = run_sweep((5, 6), primes=(P,), seed=11)
    ok = ok and [c.json_line() for c in sweep_a] == [c.json_line() for c in sweep_b]
    checked += len(sweep_a)
    _verdict_line(
        8, ok, "bit-exact replay of %d certificates (probe and sweep)" % checked
    )
