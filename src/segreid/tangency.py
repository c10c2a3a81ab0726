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
the hyperplane tensor, never finite differences.  Only the Jacobian's
chart rows are formed, in the chart of ``segre``: the symmetric
dim X x dim X Hessian of h(q) in the variables x_(l,c), c >= 1.  At a
contact point they have the Jacobian's rank.  As sum_j q_ij r_(i,j) =
h(q), for l != i sum_j q_ij dr_(i,j)/dx_(l,c) = dh(q)/dx_(l,c) =
r_(l,c), and factor i's rows are zero in factor i's columns; there
every r vanishes and q_i0 != 0, so row (i, 0) = -q_i0^-1 sum_(j>=1)
q_ij row (i, j).  Tangency is checked before any rank is taken.  The
Hessians at all k+1 contact points of a trial are filled by divide and
conquer over the factors, in exact products batched over the points
(``_fill``), whose leaves are the residuals; one pivot pass over the
stack ranks them all (``contact_coranks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import SPECIAL_CELLS, VerdictStatus
from .exactlin import (
    DEFAULT_PRIMES,
    _eliminate,
    _integer_array,
    _kernel,
    _matmul_mod,
    _ranks,
    check_prime,
    ff_kernel,
    ff_rank,
)
from .segre import ProductShape, _frames, coerce_points
from .terracini import (
    DEFECT_EVIDENCE,
    SecantProbeResult,
    _pins,
    _trials,
    defect_status,
    expected_dim,
    terracini_matrix,
)

# The contact coranks come from one stacked rank, not from ff_rank, but
# bench/spans.py wraps ff_rank by this module's name, so it stays bound.
_BENCH_SPANS = (ff_rank,)

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
    hv = _integer_array(h) % p
    if hv.shape != (shape.ambient_dim + 1,):
        raise ValueError(
            f"hyperplane vector has shape {hv.shape},"
            f" expected ({shape.ambient_dim + 1},)"
        )
    return hv.reshape(shape.coord_sizes)


def tangent_hyperplanes(shape: ProductShape, points, p: int) -> np.ndarray:
    """Kernel basis of the Terracini matrix at the given points.

    One row per basis covector; every row is a hyperplane containing
    the span of the tangent spaces at all points.  Empty when that span
    fills the ambient space.
    """
    return ff_kernel(terracini_matrix(shape, points, p), p)


def _hessians(shape: ProductShape, h, qs, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Chart Hessians and residuals of h(q_1, ..., q_m) at N points.

    ``qs`` holds each factor's coordinates at the points, (N, n_i + 1)
    residues per factor.  Hessians (N, dim X, dim X), rows (i, j), j >= 1,
    in blocks by factor: block (a, b), a != b, is h contracted with q_l in
    every slot l other than a and b, and the diagonal blocks are zero.
    Residuals (N, R), R = sum(n_i + 1): block a is h contracted in every
    slot but a.  Both are filled by divide and conquer (``_fill``).
    """
    t = _hyperplane_tensor(shape, h, p).reshape(1, -1)
    hess = np.zeros((len(qs[0]), shape.dim, shape.dim), dtype=np.int64)
    res = np.empty((len(qs[0]), sum(shape.coord_sizes)), dtype=np.int64)
    _fill(hess, res, t, qs, p)
    return hess, res


def _fill(hess: np.ndarray, res: np.ndarray, t: np.ndarray, qs, p: int) -> None:
    """Fill ``hess``, the (N, D, D) diagonal block of the run of factors
    ``qs``, D its sum(n_i), and ``res``, its (N, D + len(qs)) residuals,
    from ``t``: h contracted with every factor outside the run, (N, S)
    per point, or (1, S) shared; at a leaf, one factor, ``t`` is the
    residual block.  With halves L and R, embeddings E and frames F
    (int32 ``segre._frames``, E in row 0), the cross blocks are
    ``F_L t F_R^T``, and L and R recurse on ``t E_R^T`` and ``E_L t``,
    row 0 of ``[E_L; F_L] t``: three ``_matmul_mod`` stacks, a shared
    ``t`` taking all points as rows of one product.  Their inner
    dimensions are the halves' coordinate counts.
    """
    if len(qs) == 1:
        res[...] = t
        return
    half = len(qs) // 2
    left, right = _frames(qs[:half], p), _frames(qs[half:], p)
    n, d_l, s_l = len(left), left.shape[1] - 1, left.shape[2]
    t = t.reshape(len(t), s_l, -1)
    lt = _matmul_mod(left.reshape(len(t), -1, s_l), t, p).reshape(n, d_l + 1, -1)
    t_l = _matmul_mod(right[:, 0].reshape(len(t), -1, t.shape[2]), t.transpose(0, 2, 1), p)
    cross = _matmul_mod(lt[:, 1:], right[:, 1:].transpose(0, 2, 1), p)
    hess[:, :d_l, d_l:] = cross
    hess[:, d_l:, :d_l] = cross.transpose(0, 2, 1)
    _fill(hess[:, :d_l, :d_l], res[:, : d_l + half], t_l.reshape(n, s_l), qs[:half], p)
    _fill(hess[:, d_l:, d_l:], res[:, d_l + half :], lt[:, 0], qs[half:], p)


# Not exported; kept because bench/spans.py wraps these three by name.
def tangency_residuals(shape: ProductShape, h, point, p: int) -> np.ndarray:
    """One residual per (factor, basis slot): h against the substitutions.

    All sum(n_i + 1) entries vanish exactly when h is tangent to the
    embedded product at the point.  Contracting the factor-i block with
    q_i rebuilds h . s(q), so h(q) = 0 is implied m times over.
    """
    return _hessians(shape, h, coerce_points(shape, [point], p), p)[1][0]


def contact_jacobian(shape: ProductShape, h, point, p: int) -> np.ndarray:
    """Chart rows (module docstring) of the residuals' derivative in the chart.

    The chart freezes coordinate 0 of every factor, leaving sum(n_i)
    variables.  Row (i, j), j >= 1, depends multilinearly on the factors
    other than i, so its derivative along slot (l, c) with l != i is h
    contracted with e_j in slot i and e_c in slot l, and the factor-i
    columns of the factor-i rows are zero.  Shape (sum(n_i), sum(n_i)).
    """
    return _hessians(shape, h, coerce_points(shape, [point], p), p)[0][0]


def contact_coranks(shape: ProductShape, h, points, p: int) -> tuple[int, ...]:
    """Contact coranks at every point, from whole-stack passes.

    The chart Hessians and residuals of all points are filled together
    (``_hessians``), and one pivot pass over the stack ranks every chart
    Hessian (``exactlin._ranks``), exact for a prime p < 2**31.  Raises
    ValueError for any other p (``check_prime``); else naming the first
    point outside the chart (``coerce_points``), or else the first point
    whose residuals do not vanish.
    """
    p = check_prime(p)
    return _contact_coranks(shape, h, coerce_points(shape, points, p), p)


def _contact_coranks(shape: ProductShape, h, qs, p: int) -> tuple[int, ...]:
    """``contact_coranks`` at points already stacked per factor and in the chart."""
    if not len(qs[0]):
        return ()
    hess, res = _hessians(shape, h, qs, p)
    bad = np.flatnonzero(res.any(axis=1))
    if bad.size:
        raise ValueError(
            f"hyperplane is not tangent at point {bad[0]}: residuals do not vanish"
        )
    return tuple(shape.dim - int(r) for r in _ranks(hess, p))


def contact_corank(shape: ProductShape, h, point, p: int) -> int:
    """Zariski tangent dimension of the contact locus at a contact point.

    dim X - rank of the tangency Jacobian.  Requires the residuals to
    vanish at the point (otherwise the point is not on the contact
    locus and the number would be meaningless): raises ValueError if
    they do not.  The value does not depend on the chart: the frozen
    columns are combinations of the kept ones because the per-factor
    scaling directions annihilate the Jacobian at contact points.  So
    the one chart ``coerce_points`` admits is enough.
    """
    return contact_coranks(shape, h, [point], p)[0]


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
    trial: draw k+1 points and factor their Terracini matrix; on a
    defect-free sample draw a uniform nonzero combination of the
    ``ff_kernel`` basis (the coefficients are recorded for replay),
    solved for as one column by the back-substitution ``ff_kernel``
    runs, and compute the contact corank at each point.  A trial with
    every corank 0 certifies non-k-weak-defectivity and stops the loop.
    When every trial shows a rank shortfall the coranks stay None: the
    shortfall itself is the finding, and it propagates as a defect
    candidate.  The pins are checked and recorded as Python ints
    (``check_prime``, ``_pins``).
    """
    prime = check_prime(prime)
    k, trials, seed = _pins(k, trials, seed)
    if not order_one_applicable(shape, k):
        raise ValueError(
            "k*dim + dim + k must stay below the ambient dimension for a"
            " weak-defectivity probe"
        )
    exp = expected_dim(shape, k)
    r = shape.ambient_dim
    best = -1
    coeffs = None
    coranks = None
    for rng, qs, mat in _trials(shape, k, trials, prime, seed):
        # the Terracini matrix holds residues, so it is factored in place
        pivots = _eliminate(mat, prime)
        rank = len(pivots)
        best = max(best, rank - 1)
        if rank - 1 != exp:
            del mat
            continue
        nullity = r + 1 - rank
        # h's free coordinates are cs, so h == 0 exactly when every c is
        while True:
            cs = rng.residues(prime, nullity)
            if cs.any():
                break
        h = _kernel(mat, pivots, cs[:, None], prime)[:, 0]
        del mat
        trial_coranks = _contact_coranks(shape, h, qs, prime)
        if coranks is None or all(c == 0 for c in trial_coranks):
            coeffs = tuple(cs.tolist())
            coranks = trial_coranks
        if all(c == 0 for c in trial_coranks):
            break
    return SecantProbeResult(
        shape=shape,
        k=k,
        trials=trials,
        prime=prime,
        seed=seed,
        observed_dim=best,
        expected_dim=exp,
        kernel_dim=r - best,
        hyperplane_coeffs=coeffs,
        coranks=coranks,
    )


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

    One rule chain, first match wins: a binary cell recorded in
    SPECIAL_CELLS gets its recorded verdict, unless the probes certify
    identifiability there, which contradicts the record and raises
    ValueError; a dimension count above the ambient dimension is a proof
    of non-identifiability; a certified corank-0 probe at any k' >= k
    (with the order-1 criterion applicable at k') certifies
    identifiability down at k, supported by the smallest such k';
    otherwise the cell's own probes give the strongest available
    evidence, a rank shortfall before positive coranks, or Undetermined.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    count = shape.dim * k + shape.dim + k
    r = shape.ambient_dim
    ours = [pr for pr in probes if pr.shape == shape]
    own = [pr for pr in ours if pr.k == k]
    support = [
        pr.k for pr in ours if pr.k >= k and pr.certified and order_one_applicable(shape, pr.k)
    ]
    special = SPECIAL_CELLS.get((shape.num_factors, k)) if shape.is_binary else None
    notes, support_k = (), None
    if special is not None:
        if support:
            raise ValueError(
                f"probes at k={min(support)} certify identifiability of the binary cell"
                f" m={shape.num_factors} k={k}, contradicting its recorded verdict"
                f" {special.verdict.value}"
            )
        status, cited, notes = special.verdict, special.cited, special.notes
    elif count > r:
        status, cited = VerdictStatus.NOT_IDENTIFIABLE_DIMENSION_COUNT, (CITE_DIM_COUNT,)
    elif support:
        status, support_k = VerdictStatus.IDENTIFIABLE_CERTIFIED, min(support)
        cited = (CITE_RANK_CERTIFICATE, CITE_CORANK_ZERO, CITE_ORDER_ONE)
        cited += (CITE_MONOTONE,) if support_k > k else ()
    elif own and (label := defect_status(own)):
        status, cited = VerdictStatus.DEFECT_CANDIDATE, (CITE_DEFECT_EVIDENCE,)
        notes = (label,) if label == DEFECT_EVIDENCE else ()
    elif any(pr.coranks is not None and any(pr.coranks) for pr in own):
        status, cited = VerdictStatus.WEAKLY_DEFECTIVE_EVIDENCE, (CITE_WEAK_EVIDENCE,)
    else:
        status, cited = VerdictStatus.UNDETERMINED, ()
        if count == r:
            notes = (NOTE_FILLING,)
        elif not own:
            notes = (NOTE_NO_EVIDENCE,)
    return Verdict(status, shape, k, cited, notes, support_k)
