"""Exact linear algebra over prime fields.

Matrices are plain numpy int64 arrays whose entries are residues in
``[0, p)``; the modulus travels as an explicit argument.  Every product
of two residues is reduced immediately, which is why the moduli are
capped below 2**31: ``a * b <= (p - 1)**2 < 2**62`` and
``a - b * c > -2**62`` both stay inside int64, so one reduction per
operation suffices and no intermediate ever overflows.

Elimination is an in-place CUP factorisation over F_p, blocked and
right-looking (FFLAS-FFPACK: Dumas, Giorgi, Pernet, ACM TOMS 35(3),
2008; Jeannerod, Pernet, Storjohann, J. Symbolic Comput. 56, 2013).  A
first-nonzero-pivot loop factors each 16-column sub-panel of each
64-column panel, keeping every multiplier in the entry it zeroes (the L
factor); the columns right of a block receive the block's row
operations as two products, ``U12 = L11^-1 A12`` and
``A22 - L21 U12``.  A matrix of at most ``_PLAIN_MAX_COLS`` columns is
factored by the pivot loop alone.  Kernel vectors, one or a whole
basis, come from one block back-substitution on the factored form
(``_kernel``).  The products run on float64 BLAS, one per limb of the
left factor (``_matmul_mod``): every limb sum stays below 2**53, where
float64 is exact, and the limbs are recombined in int64 below
2**54 + 2**31, so the results do not depend on the summation order,
the thread count or the BLAS build.

Whatever rows the pivots come from, elimination that takes columns left
to right finds the same pivot columns, and a kernel vector is fixed by
its free coordinates, so ranks and kernels are the same as those of the
plain row-by-row elimination.
"""

from __future__ import annotations

import numpy as np

# The three largest primes below 2**31.  Results certified at one prime
# are cross-checked at the others.  They are the CLI's --primes default,
# and run_probe widens a defect to them when given fewer than 3 primes.
DEFAULT_PRIMES = (2147483647, 2147483629, 2147483587)

_U64 = (1 << 64) - 1


def check_prime(p: int) -> int:
    """Validate a modulus for the int64 reduction discipline.

    Requires 3 <= p < 2**31 and primality (Miller-Rabin with bases
    2, 3, 5, 7, which is exact for every integer below 3215031751 and
    in particular for the whole admissible range).
    """
    p = int(p)
    if not 3 <= p < 2**31:
        raise ValueError(f"modulus {p} out of range: need 3 <= p < 2**31")
    for a in (2, 3, 5, 7):
        if p == a:
            return p
        if p % a == 0:
            raise ValueError(f"modulus {p} is not prime")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"modulus {p} is not prime")
    return p


class SplitMix64:
    """SplitMix64 deterministic 64-bit generator (Steele, Lea, Flood 2014).

    A fixed-increment Weyl sequence with a two-round multiply-xorshift
    finalizer.  The stream is a pure function of the 64-bit seed and of
    nothing else, so any record carrying (generator="splitmix64", seed)
    replays bit for bit on any platform and library version.  That
    stability is the reason this lives here instead of reusing a numpy
    Generator, whose integer-sampling streams may change across
    releases.
    """

    name = "splitmix64"

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def residue(self, p: int) -> int:
        """Uniform element of F_p, by rejection from the top of the u64 range."""
        lim = (1 << 64) - ((1 << 64) % p)
        while True:
            u = self.next_u64()
            if u < lim:
                return u % p

    def nonzero_residue(self, p: int) -> int:
        """Uniform element of F_p minus zero."""
        return self.residue(p - 1) + 1


def _as_matrix(mat, p: int) -> np.ndarray:
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    return a % p


# Columns per elimination panel.
_PANEL = 64
# Columns per sub-panel: each panel is factored as sub-panels this wide,
# so the pivot loop's row updates stay this narrow.
_SUB = 16
# Up to this width the pivot loop alone is faster than the blocked
# elimination, whose bookkeeping costs more than it saves on a
# matrix of two panels.
_PLAIN_MAX_COLS = 2 * _PANEL
# Columns per slab of the trailing update, which bounds its temporaries.
_SLAB = 128
# Largest inner dimension of _matmul_mod: its limbs are then 2 bits wide,
# 16 BLAS products.
_MAX_INNER = 1 << 20


def _matmul_mod(x: np.ndarray, y: np.ndarray, p: int, plus=None) -> np.ndarray:
    """Exact ``x @ y mod p`` of residue matrices, one float64 product per limb.

    For inner dimension n, ``x`` is split into limbs of
    ``b = 22 - bitlen(n - 1)`` bits and ``y`` is converted whole: each
    limb product sums n terms below ``2**b * 2**31 <= 2**53 / n``, exact
    in any order.  Horner's rule from the top limb down recombines them
    in int64, ``acc * 2**b + part < 2**31 * 2**22 + 2**53 = 2**54``,
    reduced once per limb.  Inner dimensions up to 64 take 2 limbs, up
    to 2048 take 3.  With ``plus``, residues of the result's shape, the
    result is ``(plus + x @ y) mod p`` at no extra reduction: the last
    Horner step adds ``plus``, so the value stays below
    ``2**54 + 2**31``.  Every value reduced is nonnegative, which keeps
    np.remainder fast: on int64 it takes about the same time on
    nonnegative and on all-negative input, and nearly three times as
    long on mixed signs.  The limb and product temporaries are allocated
    once per call and reused.  Raises ValueError above ``_MAX_INNER``.
    """
    n = x.shape[1]
    if n > _MAX_INNER:
        raise ValueError(
            f"inner dimension {n} above {_MAX_INNER}: limbs would be under 2 bits wide"
        )
    b = 22 - (n - 1).bit_length()
    yf = y.astype(np.float64)
    limb = np.empty(x.shape, dtype=np.int64)
    limbf = np.empty(x.shape)
    part = np.empty((x.shape[0], y.shape[1]))
    ipart = np.empty(part.shape, dtype=np.int64)
    acc = np.empty(part.shape, dtype=np.int64)
    top = ((p - 1).bit_length() - 1) // b * b
    for shift in range(top, -1, -b):
        np.right_shift(x, shift, out=limb)
        np.bitwise_and(limb, (1 << b) - 1, out=limb)
        limbf[...] = limb
        np.matmul(limbf, yf, out=part)
        if shift == top:
            acc[...] = part
        else:
            ipart[...] = part
            np.left_shift(acc, b, out=acc)
            acc += ipart
        if shift == 0 and plus is not None:
            acc += plus
        np.remainder(acc, p, out=acc)
    return acc


def _pivot_loop(a: np.ndarray, p: int, r: int, c0: int, c1: int) -> list[int]:
    """Factor columns ``[c0, c1)`` of ``a`` from row ``r`` down, in place.

    Returns the pivot columns.  Pivot choice is the first nonzero entry
    of the column; its row is swapped whole up to row r.  The pivot d
    stays in place, as L's diagonal, and the pivot row is divided by d
    right of it, up to c1.  Each row below with a nonzero entry f in the
    pivot column subtracts f times the pivot row there, one reduction
    per residue product, valid because entries stay below p < 2**31,
    and keeps f, its multiplier in L.  Columns from c1 are left to
    ``_update``.
    """
    rows = a.shape[0]
    pivots: list[int] = []
    for c in range(c0, c1):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            piv = r + int(nz[0])
            a[[r, piv]] = a[[piv, r]]
        u = a[r, c + 1 : c1]
        u[...] = u * pow(int(a[r, c]), -1, p) % p
        # the swapped-down row is zero in column c, so the rows below
        # with a nonzero there are the rest of nz
        hit = r + nz[1:]
        if hit.size:
            a[hit, c + 1 : c1] = (a[hit, c + 1 : c1] - a[hit, c, None] * u) % p
        pivots.append(c)
        r += 1
    return pivots


def _lower_inverse(t: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of the lower triangle of the square residue matrix ``t``.

    The diagonal D must be nonzero; entries above it are ignored.  With
    the rows divided by their diagonal entries, ``L = D L'`` and L' is
    unit lower triangular, inverted in k - 1 steps of column elimination
    on the identity; then ``L^-1 = L'^-1 D^-1``.
    """
    k = len(t)
    dinv = np.array([pow(int(d), -1, p) for d in t.diagonal()], dtype=np.int64)
    t = t * dinv[:, None] % p
    x = np.eye(k, dtype=np.int64)
    for j in range(k - 1):
        x[j + 1 :, : j + 1] = (x[j + 1 :, : j + 1] - t[j + 1 :, j, None] * x[j, : j + 1]) % p
    return x * dinv % p


def _unit_upper_inverse(u: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of the unit upper triangle of the square residue
    matrix ``u``; its diagonal and the entries below are ignored."""
    t = u.T.copy()
    np.fill_diagonal(t, 1)
    return _lower_inverse(t, p).T


def _update(a: np.ndarray, p: int, r0: int, piv: list[int], c1: int, c2: int) -> None:
    """Carry the pivots ``piv``, factored on rows from ``r0``, to columns ``[c1, c2)``.

    L11 is the pivot rows' lower triangle in the pivot columns (its
    diagonal the pivots) and L21 the multipliers below it.  Slab by
    slab, the pivot rows become ``U12 = L11^-1 A12`` and the rows below
    ``A22 - L21 U12``, which is ``A22 + (-L21) U12``: L21, a copy since
    ``piv`` is a list, is negated in place once.
    """
    r1 = r0 + len(piv)
    linv = _lower_inverse(a[r0:r1, piv], p)
    l21 = a[r1:, piv]
    hit = np.flatnonzero(l21.any(axis=1))
    below = slice(r1, None)
    if hit.size < len(l21):
        # rows without a multiplier keep their entries
        l21, below = l21[hit], r1 + hit
    np.subtract(p, l21, out=l21, where=l21 != 0)
    for s0 in range(c1, c2, _SLAB):
        s = slice(s0, min(s0 + _SLAB, c2))
        a[r0:r1, s] = _matmul_mod(linv, a[r0:r1, s], p)
        a[below, s] = _matmul_mod(l21, a[r0:r1, s], p, plus=a[below, s])


def _eliminate(a: np.ndarray, p: int) -> list[int]:
    """Pivot columns of the residue matrix ``a``, factored in place.

    The pivots and row swaps are those of plain elimination taking
    columns left to right.  ``a`` ends as its CUP
    factorisation, rows swapped: row i below the rank holds U right of
    its pivot column, the pivot value (L's diagonal; U's is 1 and not
    stored) at it, and left of it zeros except in the pivot columns of
    the rows above, which hold L's multipliers; the rows past the rank
    hold multipliers only.  A matrix wider than ``_PLAIN_MAX_COLS`` is
    factored in panels of ``_PANEL`` columns, each as sub-panels of
    ``_SUB`` columns: the pivot loop factors a sub-panel, ``_update``
    carries its pivots to the rest of the panel, and then the panel's
    pivots to the columns right of it.  Narrower matrices take the pivot
    loop alone.
    """
    cols = a.shape[1]
    if cols <= _PLAIN_MAX_COLS:
        pivots = _pivot_loop(a, p, 0, 0, cols)
    else:
        pivots = []
        for c0 in range(0, cols, _PANEL):
            c1 = min(c0 + _PANEL, cols)
            r0 = len(pivots)
            for s0 in range(c0, c1, _SUB):
                s1 = min(s0 + _SUB, c1)
                piv = _pivot_loop(a, p, len(pivots), s0, s1)
                if piv and s1 < c1:
                    _update(a, p, len(pivots), piv, s1, c1)
                pivots += piv
            if len(pivots) > r0 and c1 < cols:
                _update(a, p, r0, pivots[r0:], c1, cols)
    return pivots


def _kernel(a: np.ndarray, pivots: list[int], xf: np.ndarray, p: int) -> np.ndarray:
    """The kernel vectors, as columns, whose free coordinates are ``xf``.

    ``a`` and ``pivots`` are as ``_eliminate`` left them, and ``xf``
    holds one residue column per vector, its rows the free columns left
    to right; column j is the combination of ``ff_kernel``'s basis with
    coefficients ``xf[:, j]``.  The pivot coordinates solve U x = 0 by
    block back-substitution, ``_PANEL`` pivot rows at a time, bottom
    block first.  The rows above a block have their pivots left of the
    block's first pivot column q0, so from q0 on the block's rows hold
    only U and its own multipliers.  With its own pivot coordinates
    still 0, which is also what those multipliers meet, its rows give
    ``t = a[rows, q0:] @ x[q0:]``, and its pivot coordinates are
    ``-U11^-1 t``.
    """
    cols = a.shape[1]
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    x = np.zeros((cols, xf.shape[1]), dtype=np.int64)
    x[free] = xf
    for lo in range((len(pivots) - 1) // _PANEL * _PANEL, -1, -_PANEL):
        q = pivots[lo : lo + _PANEL]
        rows = slice(lo, lo + len(q))
        t = _matmul_mod(a[rows, q[0] :], x[q[0] :], p)
        x[q] = _matmul_mod((p - _unit_upper_inverse(a[rows, q], p)) % p, t, p)
    return x


def ff_rank(mat, p: int) -> int:
    """Rank over F_p."""
    return len(_eliminate(_as_matrix(mat, p), p))


def ff_kernel(mat, p: int) -> np.ndarray:
    """Basis of the right null space over F_p.

    Returns one basis vector per row of the result; the number of rows
    is always cols - ff_rank(mat) and ``mat @ v == 0 (mod p)`` holds
    exactly for each.  Free columns get a unit coordinate, so the basis
    is in reduced echelon shape itself: the kernel vectors whose free
    coordinates are the identity, solved for on the factored form.
    """
    a = _as_matrix(mat, p)
    pivots = _eliminate(a, p)
    xf = np.eye(a.shape[1] - len(pivots), dtype=np.int64)
    return np.ascontiguousarray(_kernel(a, pivots, xf, p).T)
