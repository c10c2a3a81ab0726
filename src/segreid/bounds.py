"""Integer bound calculators for binary products (every factor a line).

Pure Python integer arithmetic throughout, so m far beyond 64 is safe.
Three bounds on k are compared for the m-fold product of projective
lines embedded in P^(2^m - 1):

* ``k_max(m) = floor(2^m / (m+1)) - 1``: the dimension-count ceiling.
  For k > k_max the count (k+1)(m+1) - 1 exceeds the ambient dimension,
  generic fibers of the secant map are positive dimensional, and
  k-identifiability is impossible.
* the product bound ``(k+1) * m <= 2^(m-1)``: the certified
  identifiability range for m > 5.
* the log-ceiling comparison bound ``m > 2*ceil(log2(k+1)) + 1`` and its
  square-root rewriting ``(k+1)^2 <= 2^(m-1)``.  The two forms disagree
  by one near powers of two, which is why both are reported; the
  log-ceiling form is the canonical one for classification.

Two cells are recorded rather than derived, in ``SPECIAL_CELLS``: the
five-factor k=4 exception and the six-factor k=9 discrepancy.  The
classifier, the regime reports and the identifiability verdict all read
that one table, and ``VerdictStatus`` beside it spells every verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

CITE_KMAX = (
    "dimension-count ceiling: (k+1)(m+1) <= 2^m bounds any identifiable range"
)
CITE_PRODUCT_BOUND = (
    "certified range: (k+1)*m <= 2^(m-1) implies generic k-identifiability"
    " of binary products with m > 5 factors"
)
CITE_LOG_CEILING_BOUND = (
    "comparison bound: generic k-identifiability when m > 2*ceil(log2(k+1)) + 1"
)

NOTE_BOUND_FORMS = (
    "the log-ceiling bound m > 2*ceil(log2(k+1)) + 1 and its square-root"
    " rewriting (k+1)^2 <= 2^(m-1) disagree by one near powers of two"
    " (m=10: max k 15 versus max k+1 22); the log-ceiling form is canonical"
    " for classification, the square-root value is reported as a k+1 bound"
)
NOTE_M6_K9 = (
    "six binary factors, k=9: the dimension count k_max = floor(2^6/7) - 1 = 8"
    " admits no certificate at k=9, yet published tables for this product"
    " report identifiability through k=9; the discrepancy is recorded and the"
    " cell is left undetermined"
)
CITE_EXCEPTION_M5K4 = (
    "five binary factors at k=4: known exception with exactly two rank-5"
    " decompositions of the general point; the contact locus of a general"
    " tangent hyperplane is an elliptic normal curve, so coranks are 1"
)


def ceil_log2(x: int) -> int:
    """Smallest c with 2^c >= x, for x >= 1. Exact integer arithmetic."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return (x - 1).bit_length()


def _check_mk(m: int, k: int | None = None) -> None:
    if m < 2:
        raise ValueError("m must be >= 2")
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")


def k_max(m: int) -> int:
    """floor(2^m / (m+1)) - 1, the largest k not excluded by counting."""
    _check_mk(m)
    return 2**m // (m + 1) - 1


def product_bound_holds(m: int, k: int) -> bool:
    """(k+1) * m <= 2^(m-1), the certified identifiability range for m > 5."""
    _check_mk(m, k)
    return (k + 1) * m <= 2 ** (m - 1)


def product_bound_max_k(m: int) -> int:
    """Largest k satisfying the product bound (may be 0: empty range)."""
    _check_mk(m)
    return 2 ** (m - 1) // m - 1


def log_ceiling_bound_holds(m: int, k: int) -> bool:
    """m > 2*ceil(log2(k+1)) + 1, the canonical comparison bound."""
    _check_mk(m, k)
    return m > 2 * ceil_log2(k + 1) + 1


def log_ceiling_bound_max_k(m: int) -> int:
    """Largest k satisfying the log-ceiling bound: 2^floor((m-2)/2) - 1."""
    _check_mk(m)
    return 2 ** ((m - 2) // 2) - 1


def sqrt_bound_holds(m: int, k: int) -> bool:
    """(k+1)^2 <= 2^(m-1), the square-root rewriting of the comparison bound."""
    _check_mk(m, k)
    return (k + 1) ** 2 <= 2 ** (m - 1)


def sqrt_bound_max_k_plus_1(m: int) -> int:
    """Largest value of k+1 under the square-root form: isqrt(2^(m-1))."""
    _check_mk(m)
    return math.isqrt(2 ** (m - 1))


class Regime(str, Enum):
    THEOREM_IDENTIFIABLE = "TheoremIdentifiable"
    KNOWN_EXCEPTION = "KnownException"
    BEYOND_KMAX = "BeyondKmax"
    CONJECTURED_IDENTIFIABLE = "ConjecturedIdentifiable"
    SMALL_M = "SmallM"


class VerdictStatus(str, Enum):
    IDENTIFIABLE_CERTIFIED = "IdentifiableCertified"
    NOT_IDENTIFIABLE_DIMENSION_COUNT = "NotIdentifiableDimensionCount"
    KNOWN_EXCEPTION_SECANT_ORDER_2 = "KnownExceptionSecantOrder2"
    DEFECT_CANDIDATE = "DefectCandidate"
    WEAKLY_DEFECTIVE_EVIDENCE = "WeaklyDefectiveEvidence"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class SpecialCell:
    """A binary (m, k) cell whose answer is recorded, not derived.

    ``regime`` overrides classify() (None keeps the computed regime);
    ``verdict`` is the identifiability verdict's status, reported with
    ``cited``; ``notes`` go into both the regime report and the verdict.
    """

    regime: Regime | None
    verdict: VerdictStatus
    cited: tuple[str, ...]
    notes: tuple[str, ...]


SPECIAL_CELLS = {
    (5, 4): SpecialCell(
        regime=Regime.KNOWN_EXCEPTION,
        verdict=VerdictStatus.KNOWN_EXCEPTION_SECANT_ORDER_2,
        cited=(CITE_EXCEPTION_M5K4,),
        notes=(),
    ),
    (6, 9): SpecialCell(
        regime=None,
        verdict=VerdictStatus.UNDETERMINED,
        cited=(),
        notes=(NOTE_M6_K9,),
    ),
}


def classify(m: int, k: int) -> Regime:
    """Place (m, k) in the bound landscape for binary products.

    Order matters: a recorded exception (SPECIAL_CELLS) sits inside its
    k_max, while anything above k_max is excluded by counting before the
    m > 5 split between the certified and the conjectured range.
    """
    _check_mk(m, k)
    special = SPECIAL_CELLS.get((m, k))
    if special is not None and special.regime is not None:
        return special.regime
    if k > k_max(m):
        return Regime.BEYOND_KMAX
    if m > 5 and product_bound_holds(m, k):
        return Regime.THEOREM_IDENTIFIABLE
    if m > 5:
        return Regime.CONJECTURED_IDENTIFIABLE
    return Regime.SMALL_M


@dataclass(frozen=True)
class RegimeReport:
    """classify() plus every bound value that went into the decision."""

    m: int
    k: int
    k_max: int
    product_bound_max_k: int
    log_ceiling_bound_max_k: int
    sqrt_bound_max_k_plus_1: int
    regime: Regime
    cited: tuple[str, ...]
    notes: tuple[str, ...]


def regime_report(m: int, k: int) -> RegimeReport:
    regime = classify(m, k)
    cited = {
        Regime.THEOREM_IDENTIFIABLE: (CITE_PRODUCT_BOUND,),
        Regime.KNOWN_EXCEPTION: (CITE_KMAX,),
        Regime.BEYOND_KMAX: (CITE_KMAX,),
        Regime.CONJECTURED_IDENTIFIABLE: (CITE_KMAX, CITE_LOG_CEILING_BOUND),
        Regime.SMALL_M: (CITE_KMAX,),
    }[regime]
    notes = (NOTE_BOUND_FORMS,)
    if (m, k) in SPECIAL_CELLS:
        notes += SPECIAL_CELLS[(m, k)].notes
    return RegimeReport(
        m=m,
        k=k,
        k_max=k_max(m),
        product_bound_max_k=product_bound_max_k(m),
        log_ceiling_bound_max_k=log_ceiling_bound_max_k(m),
        sqrt_bound_max_k_plus_1=sqrt_bound_max_k_plus_1(m),
        regime=regime,
        cited=cited,
        notes=notes,
    )
