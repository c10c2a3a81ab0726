"""Secant dimension probes via spans of tangent spaces.

The dimension of the k-th secant variety of the embedded product equals
the dimension of the span of the tangent spaces at k+1 general points
(the affine rank of the stacked tangent frames, minus one).  Over a
prime field the rank at sampled points can only be lower than the
characteristic-0 generic value, never higher, so a sample that attains
the expected dimension certifies it.  A shortfall proves nothing by
itself: it is evidence, collected and escalated under the policy in
``defect_status``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exactlin import DEFAULT_PRIMES, SplitMix64, _eliminate, check_prime, ff_rank
from .segre import ProductShape, _frames, _random_points, coerce_points

# The probes factor their own matrices in place and call no ff_rank, but
# bench/spans.py wraps ff_rank by this module's name, so it stays bound.
_BENCH_SPANS = (ff_rank,)

DEFECT_CANDIDATE = "defect candidate"
DEFECT_EVIDENCE = "defective (computational evidence)"


def expected_dim(shape: ProductShape, k: int) -> int:
    """min(r, (k+1)(1 + dim) - 1): the secant dimension when nothing degenerates."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return min(shape.ambient_dim, (k + 1) * (1 + shape.dim) - 1)


def terracini_matrix(shape: ProductShape, points, p: int) -> np.ndarray:
    """Stacked affine tangent frames at the given points, int32 residues.

    (k+1) * (1 + sum n_i) rows by r + 1 columns for k+1 points.  Its
    rank minus one is the dimension of the span of the tangent spaces.
    ``coerce_points`` rejects a point outside the chart.
    """
    if len(points) < 1:
        raise ValueError("need at least one point")
    return _frames(coerce_points(shape, points, p), p).reshape(-1, shape.ambient_dim + 1)


def _trials(shape: ProductShape, k: int, trials: int, prime: int, seed: int):
    """Yield (rng, points, Terracini matrix) once per trial of a probe.

    The k+1 points of a trial are drawn as one array and yielded stacked
    per factor, as ``coerce_points`` returns them; ``terracini_matrix``
    validates them, once.  The arguments are checked when the first
    trial is drawn.  The stream is yielded so that a probe's own draws
    in a trial come before the next trial's points, the order every
    recorded seed replays.  The caller drops each matrix before asking
    for the next, so that no two are alive at once.
    """
    check_prime(prime)
    if k < 1:
        raise ValueError("k must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = SplitMix64(seed)
    for _ in range(trials):
        qs = _random_points(shape, rng, prime, k + 1)
        pts = [tuple(f[a] for f in qs) for a in range(k + 1)]
        yield rng, qs, terracini_matrix(shape, pts, prime)


@dataclass(frozen=True)
class SecantProbeResult:
    """Evidence from one probe at one (prime, seed).

    Every probe records the best observed secant dimension.  A tangency
    probe also records the Terracini kernel dimension and, when a trial
    attained the expected dimension, the kernel combination it drew and
    the contact coranks at its k+1 points; a dimension probe leaves
    those fields None.  A field that is not None must keep its rule in
    ``__post_init__``, so that no record holds more evidence than it has.
    """

    shape: ProductShape
    k: int
    trials: int
    prime: int
    seed: int
    observed_dim: int
    expected_dim: int
    kernel_dim: int | None = None
    hyperplane_coeffs: tuple[int, ...] | None = None
    coranks: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.observed_dim > self.expected_dim:
            raise ValueError("observed dimension above the expected dimension")
        kernel, coeffs, coranks = self.kernel_dim, self.hyperplane_coeffs, self.coranks
        rules = {
            "len(coranks) = k + 1": coranks is None or len(coranks) == self.k + 1,
            "kernel_dim = r - observed_dim":
                kernel in (None, self.shape.ambient_dim - self.observed_dim),
            "len(hyperplane_coeffs) = kernel_dim": coeffs is None or len(coeffs) == kernel,
        }
        broken = [rule for rule, holds in rules.items() if not holds]
        if broken:
            raise ValueError("probe record breaks %s" % "; ".join(broken))

    @property
    def defect(self) -> int:
        return self.expected_dim - self.observed_dim

    @property
    def certified(self) -> bool:
        """True when every recorded contact corank is 0."""
        return self.coranks is not None and all(c == 0 for c in self.coranks)


def secant_dim_probe(
    shape: ProductShape,
    k: int,
    trials: int = 3,
    prime: int = DEFAULT_PRIMES[0],
    seed: int = 0,
) -> SecantProbeResult:
    """Probe dim S^k at ``trials`` random point tuples, keeping the best rank.

    observed_dim is the maximum over trials of rank - 1.  The maximum is
    sound because the rank never exceeds expected_dim + 1, which equals
    min(rows, cols) of the Terracini matrix; a single attaining trial
    therefore settles the generic value and stops the loop early.  The
    matrix is the probe's own, so it is factored in place.
    """
    exp = expected_dim(shape, k)
    best = -1
    for _, _, mat in _trials(shape, k, trials, prime, seed):
        best = max(best, len(_eliminate(mat, prime)) - 1)
        del mat
        if best == exp:
            break
    return SecantProbeResult(
        shape=shape,
        k=k,
        trials=trials,
        prime=prime,
        seed=seed,
        observed_dim=best,
        expected_dim=exp,
    )


def defect_status(results: Iterable[SecantProbeResult]) -> str | None:
    """Aggregate shortfall evidence for one (shape, k) across probes.

    None when some sample attained the expected dimension (that sample
    certifies the generic value, so earlier shortfalls were sampling
    artifacts).  Otherwise "defect candidate", escalating to
    "defective (computational evidence)" only when the identical
    observed dimension was reproduced at >= 3 distinct primes and >= 3
    distinct seeds.
    """
    rs = list(results)
    if not rs:
        raise ValueError("no probe results supplied")
    key = (rs[0].shape, rs[0].k)
    if any((r.shape, r.k) != key for r in rs):
        raise ValueError("defect_status mixes different (shape, k) cells")
    if any(r.defect == 0 for r in rs):
        return None
    primes = {r.prime for r in rs}
    seeds = {r.seed for r in rs}
    observed = {r.observed_dim for r in rs}
    if len(primes) >= 3 and len(seeds) >= 3 and len(observed) == 1:
        return DEFECT_EVIDENCE
    return DEFECT_CANDIDATE
