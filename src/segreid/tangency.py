"""Tangent hyperplanes and the local geometry of their contact loci.

A hyperplane tangent to the embedded product at points P_0, ..., P_k is
a kernel covector of their Terracini matrix.  Tangency of h at a point
q means all sum(n_i + 1) residuals h . (q_1 x ... e_j (slot i) ... x q_m)
vanish; the locus where they do is the contact locus of h, cut out on
the product.  Its local size is what decides weak defectivity:

* the Jacobian of the residuals in an affine chart has corank
  dim X - rank equal to the dimension of the Zariski tangent space of
  the contact locus at q;
* corank 0 at a sampled contact point certifies, by semicontinuity of
  rank under specialization, that the contact locus of a general
  tangent hyperplane is zero dimensional there, hence that the product
  is not k-weakly defective;
* positive corank is evidence only and is never used to certify.

Residuals and Jacobian entries are exact multilinear contractions of
the hyperplane tensor, never finite differences; a degree-1 dual-number
evaluation (``first_order_residuals``) provides an independent exact
check that the assembled Jacobian is the derivative it claims to be.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .bounds import SPECIAL_CELLS
from .exactlin import (
    DEFAULT_PRIMES,
    SplitMix64,
    check_prime,
    ff_kernel,
    ff_rank,
)
from .segre import ProductShape, coerce_point, random_point
from .terracini import (
    DEFECT_EVIDENCE,
    SecantProbeResult,
    defect_status,
    expected_dim,
    terracini_matrix,
)

CITE_DIM_COUNT = (
    "dimension count: k*dim X + dim X + k exceeds the ambient dimension, so"
    " the fibers of the secant map over a general point are positive"
    " dimensional and k-identifiability fails"
)
CITE_RANK_CERTIFICATE = (
    "a prime-field sample attained the expected Terracini rank;"
    " specialization can only drop rank, so the generic value is certified"
)
CITE_CORANK_ZERO = (
    "tangency Jacobian corank 0 at every probed contact point: the contact"
    " locus of a general tangent hyperplane is zero dimensional, so the"
    " product is not k-weakly defective"
)
CITE_ORDER_ONE = (
    "a product that is not k-weakly defective and satisfies"
    " k*dim X + dim X + k < ambient dimension has a unique generic rank-(k+1)"
    " decomposition"
)
CITE_MONOTONE = (
    "not k'-weakly defective propagates to every k <= k'"
)
CITE_DEFECT_EVIDENCE = (
    "every sampled Terracini rank fell short of the expected dimension;"
    " a shortfall over a prime field is evidence of defectivity, not a"
    " certificate"
)
CITE_WEAK_EVIDENCE = (
    "positive tangency Jacobian corank at sampled contact points is evidence"
    " of weak defectivity; semicontinuity certifies only corank 0"
)

NOTE_FILLING = (
    "the expected dimension reaches the ambient dimension: general tangent"
    " hyperplanes do not exist and the order-1 criterion does not apply"
)
NOTE_NO_EVIDENCE = "no probe evidence supplied for this cell"


def _hyperplane_tensor(shape: ProductShape, h, p: int) -> np.ndarray:
    hv = np.asarray(h, dtype=np.int64) % p
    if hv.shape != (shape.ambient_dim + 1,):
        raise ValueError(
            f"hyperplane vector has shape {hv.shape},"
            f" expected ({shape.ambient_dim + 1},)"
        )
    return hv.reshape(shape.coord_sizes)


def _contract_axis(t: np.ndarray, vec: np.ndarray, axis: int, p: int) -> np.ndarray:
    # slice-by-slice accumulation keeps every intermediate below p**2
    tm = np.moveaxis(t, axis, -1)
    out = np.zeros(tm.shape[:-1], dtype=np.int64)
    for j in range(tm.shape[-1]):
        out = (out + tm[..., j] * int(vec[j])) % p
    return out


def _contract_all_but(t: np.ndarray, q, keep: set, p: int) -> np.ndarray:
    # descending axis order keeps the remaining indices stable
    for axis in range(len(q) - 1, -1, -1):
        if axis in keep:
            continue
        t = _contract_axis(t, q[axis], axis, p)
    return t


def tangent_hyperplanes(shape: ProductShape, points, p: int) -> np.ndarray:
    """Kernel basis of the Terracini matrix at the given points.

    One row per basis covector; every row is a hyperplane containing
    the span of the tangent spaces at all points.  Empty when that span
    fills the ambient space.
    """
    return ff_kernel(terracini_matrix(shape, points, p), p)


def tangency_residuals(shape: ProductShape, h, point, p: int) -> np.ndarray:
    """One residual per (factor, basis slot): h against the substitutions.

    All sum(n_i + 1) entries vanish exactly when h is tangent to the
    embedded product at the point.  Contracting the factor-i block with
    q_i rebuilds h . s(q), so h(q) = 0 is implied m times over.
    """
    q = coerce_point(shape, point, p)
    t = _hyperplane_tensor(shape, h, p)
    blocks = [
        _contract_all_but(t, q, {i}, p) for i in range(shape.num_factors)
    ]
    return np.concatenate(blocks)


def _check_chart(shape: ProductShape, q, chart, p: int) -> tuple[int, ...]:
    if chart is None:
        chart = (0,) * shape.num_factors
    chart = tuple(int(c) for c in chart)
    if len(chart) != shape.num_factors:
        raise ValueError("chart needs one frozen slot per factor")
    for i, (c, n) in enumerate(zip(chart, shape.factor_dims)):
        if not 0 <= c <= n:
            raise ValueError(f"chart slot {c} out of range for factor {i}")
        if q[i][c] % p == 0:
            raise ValueError(
                f"factor {i} has coordinate {c} equal to 0 mod {p}:"
                " chart invalid at this point"
            )
    return chart


def contact_jacobian(shape: ProductShape, h, point, p: int, chart=None) -> np.ndarray:
    """Derivative of the residual vector in an affine chart.

    The chart freezes one coordinate per factor (slot 0 by default),
    leaving sum(n_i) variables.  Row (i, j) depends multilinearly on the
    factors other than i, so its derivative along slot (l, c) with
    l != i is h contracted with e_j in slot i and e_c in slot l, and the
    factor-i columns of the factor-i rows are zero.  Shape
    (sum(n_i + 1), sum(n_i)).
    """
    q = coerce_point(shape, point, p)
    chart = _check_chart(shape, q, chart, p)
    t = _hyperplane_tensor(shape, h, p)
    m = shape.num_factors
    pair = {}
    for a in range(m):
        for b in range(a + 1, m):
            pair[(a, b)] = _contract_all_but(t, q, {a, b}, p)
    n_rows = sum(shape.coord_sizes)
    n_cols = shape.dim
    jac = np.zeros((n_rows, n_cols), dtype=np.int64)
    row0 = 0
    for i, rows_i in enumerate(shape.coord_sizes):
        col0 = 0
        for l, size_l in enumerate(shape.coord_sizes):
            free = [c for c in range(size_l) if c != chart[l]]
            if l != i:
                block = pair[(i, l)] if i < l else pair[(l, i)].T
                for cj, c in enumerate(free):
                    jac[row0 : row0 + rows_i, col0 + cj] = block[:, c]
            col0 += len(free)
        row0 += rows_i
    return jac


def first_order_residuals(
    shape: ProductShape, h, point, direction, p: int, chart=None
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals at q + eps*v with eps^2 = 0, as (value, eps coefficient).

    ``direction`` has one entry per chart variable (sum(n_i), frozen
    slots excluded, ordered factor by factor).  The eps part equals
    contact_jacobian @ direction exactly; the identity is the
    independent first-order check of the Jacobian assembly.
    """
    q = coerce_point(shape, point, p)
    chart = _check_chart(shape, q, chart, p)
    v = np.asarray(direction, dtype=np.int64) % p
    if v.shape != (shape.dim,):
        raise ValueError(f"direction has shape {v.shape}, expected ({shape.dim},)")
    vecs = []
    off = 0
    for i, size in enumerate(shape.coord_sizes):
        w = np.zeros(size, dtype=np.int64)
        free = [c for c in range(size) if c != chart[i]]
        for cj, c in enumerate(free):
            w[c] = v[off + cj]
        vecs.append(w)
        off += len(free)
    t = _hyperplane_tensor(shape, h, p)
    m = shape.num_factors
    val_blocks, eps_blocks = [], []
    for i in range(m):
        t0, t1 = t, np.zeros_like(t)
        for axis in range(m - 1, -1, -1):
            if axis == i:
                continue
            new0 = _contract_axis(t0, q[axis], axis, p)
            new1 = (
                _contract_axis(t1, q[axis], axis, p)
                + _contract_axis(t0, vecs[axis], axis, p)
            ) % p
            t0, t1 = new0, new1
        val_blocks.append(t0)
        eps_blocks.append(t1)
    return np.concatenate(val_blocks), np.concatenate(eps_blocks)


def contact_corank(shape: ProductShape, h, point, p: int, chart=None) -> int:
    """Zariski tangent dimension of the contact locus at a contact point.

    dim X - rank of the tangency Jacobian.  Requires the residuals to
    vanish at the point (otherwise the point is not on the contact
    locus and the number would be meaningless): raises ValueError if
    they do not.  The value does not depend on the chart: the frozen
    columns are combinations of the kept ones because the per-factor
    scaling directions annihilate the Jacobian at contact points.
    """
    res = tangency_residuals(shape, h, point, p)
    if res.any():
        raise ValueError(
            "hyperplane is not tangent at this point: residuals do not vanish"
        )
    jac = contact_jacobian(shape, h, point, p, chart)
    return shape.dim - ff_rank(jac, p)


def order_one_applicable(shape: ProductShape, k: int) -> bool:
    """True when k*dim X + dim X + k < r, the strict regime of the order-1 criterion."""
    return shape.dim * k + shape.dim + k < shape.ambient_dim


def weak_defectivity_probe(
    shape: ProductShape,
    k: int,
    trials: int = 3,
    prime: int = DEFAULT_PRIMES[0],
    seed: int = 0,
) -> SecantProbeResult:
    """Sample tangent hyperplanes at k+1 random points and probe contact loci.

    Requires k*dim X + dim X + k < r; above that no general tangent
    hyperplane exists and the order-1 criterion cannot apply.  Per
    trial: draw k+1 points, compute the Terracini kernel; on a
    defect-free sample draw a uniform nonzero kernel combination (the
    coefficients are recorded for replay) and compute the contact
    corank at each point.  A trial with every corank 0 certifies
    non-k-weak-defectivity and stops the loop.  When every trial shows
    a rank shortfall the coranks stay None: the shortfall itself is the
    finding, and it propagates as a defect candidate.
    """
    check_prime(prime)
    if k < 1:
        raise ValueError("k must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not order_one_applicable(shape, k):
        raise ValueError(
            "k*dim + dim + k must stay below the ambient dimension for a"
            " weak-defectivity probe"
        )
    rng = SplitMix64(seed)
    exp = expected_dim(shape, k)
    r = shape.ambient_dim
    best = -1
    kernel_dim = None
    coeffs = None
    coranks = None
    for _ in range(trials):
        pts = [random_point(shape, rng, prime) for _ in range(k + 1)]
        mat = terracini_matrix(shape, pts, prime)
        kernel = ff_kernel(mat, prime)
        rank = mat.shape[1] - len(kernel)
        best = max(best, rank - 1)
        if rank - 1 != exp:
            continue
        while True:
            cs = tuple(rng.residue(prime) for _ in range(len(kernel)))
            h = np.zeros(r + 1, dtype=np.int64)
            for c, row in zip(cs, kernel):
                h = (h + c * row) % prime
            if h.any():
                break
        trial_coranks = tuple(
            contact_corank(shape, h, q, prime) for q in pts
        )
        if coranks is None or all(c == 0 for c in trial_coranks):
            kernel_dim = len(kernel)
            coeffs = cs
            coranks = trial_coranks
        if all(c == 0 for c in trial_coranks):
            break
    if coranks is None:
        kernel_dim = r - best
    return SecantProbeResult(
        shape=shape,
        k=k,
        trials=trials,
        prime=prime,
        seed=seed,
        observed_dim=best,
        expected_dim=exp,
        kernel_dim=kernel_dim,
        hyperplane_coeffs=coeffs,
        coranks=coranks,
    )


class VerdictStatus(str, Enum):
    IDENTIFIABLE_CERTIFIED = "IdentifiableCertified"
    NOT_IDENTIFIABLE_DIMENSION_COUNT = "NotIdentifiableDimensionCount"
    KNOWN_EXCEPTION_SECANT_ORDER_2 = "KnownExceptionSecantOrder2"
    DEFECT_CANDIDATE = "DefectCandidate"
    WEAKLY_DEFECTIVE_EVIDENCE = "WeaklyDefectiveEvidence"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    shape: ProductShape
    k: int
    cited: tuple[str, ...]
    notes: tuple[str, ...] = ()
    support_k: int | None = None


def identifiability_verdict(
    shape: ProductShape, k: int, probes: Sequence[SecantProbeResult]
) -> Verdict:
    """Combine probe outcomes into one verdict for (shape, k).

    Rules, in order: a binary cell recorded in SPECIAL_CELLS gets its
    recorded verdict, unless the probes certify identifiability there,
    which contradicts the record and raises ValueError; a dimension
    count above the ambient dimension is a proof of
    non-identifiability; a certified corank-0 probe at any k' >= k
    (with the order-1 criterion applicable at k') certifies
    identifiability down at k; otherwise the strongest available
    evidence is reported, or Undetermined.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    count = shape.dim * k + shape.dim + k
    r = shape.ambient_dim
    support = [
        pr
        for pr in probes
        if pr.shape == shape
        and pr.k >= k
        and pr.certified
        and order_one_applicable(shape, pr.k)
    ]
    special = SPECIAL_CELLS.get((shape.num_factors, k)) if shape.is_binary else None
    if special is not None:
        if support:
            raise ValueError(
                f"probes at k={min(pr.k for pr in support)} certify"
                f" identifiability of the binary cell m={shape.num_factors}"
                f" k={k}, contradicting its recorded verdict {special.verdict}"
            )
        return Verdict(
            status=VerdictStatus(special.verdict),
            shape=shape,
            k=k,
            cited=special.cited,
            notes=special.notes,
        )
    if count > r:
        return Verdict(
            status=VerdictStatus.NOT_IDENTIFIABLE_DIMENSION_COUNT,
            shape=shape,
            k=k,
            cited=(CITE_DIM_COUNT,),
        )
    if support:
        best = min(support, key=lambda pr: pr.k)
        cited = (CITE_RANK_CERTIFICATE, CITE_CORANK_ZERO, CITE_ORDER_ONE)
        if best.k > k:
            cited = cited + (CITE_MONOTONE,)
        return Verdict(
            status=VerdictStatus.IDENTIFIABLE_CERTIFIED,
            shape=shape,
            k=k,
            cited=cited,
            support_k=best.k,
        )
    own = [pr for pr in probes if pr.shape == shape and pr.k == k]
    label = defect_status(own) if own else None
    if label is not None:
        notes = (label,) if label == DEFECT_EVIDENCE else ()
        return Verdict(
            status=VerdictStatus.DEFECT_CANDIDATE,
            shape=shape,
            k=k,
            cited=(CITE_DEFECT_EVIDENCE,),
            notes=notes,
        )
    if any(pr.coranks is not None and any(pr.coranks) for pr in own):
        return Verdict(
            status=VerdictStatus.WEAKLY_DEFECTIVE_EVIDENCE,
            shape=shape,
            k=k,
            cited=(CITE_WEAK_EVIDENCE,),
        )
    notes = ()
    if count == r:
        notes = (NOTE_FILLING,)
    elif not own:
        notes = (NOTE_NO_EVIDENCE,)
    return Verdict(
        status=VerdictStatus.UNDETERMINED,
        shape=shape,
        k=k,
        cited=(),
        notes=notes,
    )
