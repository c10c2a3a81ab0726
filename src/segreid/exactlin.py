"""Exact linear algebra over prime fields.

Matrices are plain numpy int64 arrays whose entries are residues in
``[0, p)``; the modulus travels as an explicit argument.  Every product
of two residues is reduced immediately, which is why the moduli are
capped below 2**31: ``a * b <= (p - 1)**2 < 2**62`` and
``a - b * c > -2**62`` both stay inside int64, so one reduction per
operation suffices and no intermediate ever overflows.

Elimination is a blocked, right-looking Gaussian elimination over F_p
(FFLAS-FFPACK: Dumas, Giorgi, Pernet, ACM TOMS 35(3), 2008).  The
first-nonzero-pivot loop finds each panel's pivots on the panel alone;
the trailing columns receive its row operations as matrix products, and
a reduced form is finished by back-substitution over the non-pivot
columns.  A matrix of at most ``_PLAIN_MAX_COLS`` columns is eliminated
by the pivot loop alone.  The products run on float64 BLAS, one per
limb of the left factor (``_matmul_mod``).  Every limb sum stays below
2**53, where float64 is exact, so the results do not depend on the
summation order, the thread count or the BLAS build.

Whatever rows the pivots come from, elimination that takes columns left
to right finds the same pivot columns, and the reduced echelon form of
a matrix is unique, so ranks and kernels are the same as those of the
plain row-by-row elimination.
"""

from __future__ import annotations

import numpy as np

# The three largest primes below 2**31.  Results certified at one prime
# are cross-checked at the others; see DEFAULT description in the CLI.
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


def random_unit_vector(rng: SplitMix64, length: int, p: int) -> np.ndarray:
    """Vector with every coordinate uniform in F_p minus zero.

    Nonzero coordinates keep every affine chart of a product of
    projective spaces valid at the sampled point, which the tangent
    frame constructions rely on.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    return np.array([rng.nonzero_residue(p) for _ in range(length)], dtype=np.int64)


def _as_matrix(mat, p: int) -> np.ndarray:
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    return a % p


# Columns per elimination panel.
_PANEL = 64
# Up to this width the pivot loop alone is faster than the blocked
# elimination, whose bookkeeping costs more than it saves on a
# matrix of two panels.
_PLAIN_MAX_COLS = 2 * _PANEL
# Columns per slab of the trailing update, which bounds its temporaries.
_SLAB = 128
# Largest inner dimension of _matmul_mod: its limbs are then 2 bits wide,
# 16 BLAS products.
_MAX_INNER = 1 << 20


def _matmul_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Exact ``x @ y mod p`` of residue matrices, one float64 product per limb.

    For inner dimension n, ``x`` is split into limbs of
    ``b = 22 - bitlen(n - 1)`` bits and ``y`` is converted whole: each
    limb product sums n terms below ``2**b * 2**31 <= 2**53 / n``, exact
    in any order.  Horner's rule from the top limb down recombines them,
    ``acc * 2**b + part < 2**31 * 2**22 + 2**53 = 2**54``, reduced once
    per limb.  Inner dimensions up to 64 take 2 limbs, up to 2048 take 3.
    Raises ValueError above ``_MAX_INNER``.
    """
    n = x.shape[1]
    if n > _MAX_INNER:
        raise ValueError(
            f"inner dimension {n} above {_MAX_INNER}: limbs would be under 2 bits wide"
        )
    b = 22 - (n - 1).bit_length()
    yf = y.astype(np.float64)
    bits = (p - 1).bit_length()
    acc = 0
    for shift in range((bits - 1) // b * b, -1, -b):
        limb = ((x >> shift) & ((1 << b) - 1)).astype(np.float64)
        acc = (acc * (1 << b) + (limb @ yf).astype(np.int64)) % p
    return acc


def _pivot_loop(a, p: int, reduced: bool, width: int, swaps=None) -> list[int]:
    """Eliminate columns ``[0, width)`` of ``a`` in place; return their pivots.

    Pivot choice is the first nonzero entry of the column.  Each row
    update is one vectorized multiply-subtract with a single reduction
    per residue product, valid because entries stay below p < 2**31.
    Row swaps are appended to ``swaps`` when it is a list.  Columns past
    ``width``, if any, start at zero and track the row operations: the
    j-th pivot row gets a 1 in column ``width + j``, so when every row
    becomes a pivot without a swap, they end holding each row over the
    rows as they were on entry.
    """
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(width):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            if swaps is not None:
                swaps.append((r, piv))
        # columns past ``end`` are zero in the pivot row
        end = None
        if cols > width:
            a[r, width + r] = 1
            end = width + r + 1
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:end] = (a[r, c:end] * inv) % p
        if reduced:
            f = a[:, c].copy()
            f[r] = 0
        else:
            f = np.zeros(rows, dtype=np.int64)
            f[r + 1 :] = a[r + 1 :, c]
        hit = np.nonzero(f)[0]
        if hit.size:
            a[hit, c:end] = (a[hit, c:end] - f[hit, None] * a[r, c:end]) % p
        pivots.append(c)
        r += 1
    return pivots


def _eliminate(a: np.ndarray, p: int, reduced: bool) -> list[int]:
    """Pivot columns of the residue matrix ``a``, eliminated in place.

    ``a`` ends in row echelon form, reduced with ``reduced``.  Each panel
    ``c0:c1`` is taken against the rows ``r0:`` holding no pivot yet.
    The pivot loop finds its k pivots and row swaps on a copy of
    ``a[r0:, c0:c1]``; the swaps are applied to ``a[r0:, c0:]``; the
    tracked loop reduces the k pivot rows' panel alone, which needs no
    swap, giving ``new pivot rows = coef @ pivot rows``.  Slab by slab,
    the pivot rows' trailing columns become ``coef @ pivot rows``, and
    each row below subtracts its pivot-column entries, read first, times
    the new pivot rows.  Rows above ``r0`` are never touched.  A reduced
    form is finished by back-substitution over the non-pivot columns,
    bottom panel first, so that the rows it subtracts are clear of every
    later pivot column; the pivot columns then hold the identity.
    """
    rows, cols = a.shape
    if cols <= _PLAIN_MAX_COLS:
        return _pivot_loop(a, p, reduced, cols)
    pivots: list[int] = []
    # (first row, pivot columns) of every panel with a pivot
    panels: list[tuple[int, list[int]]] = []
    r0 = 0
    for c0 in range(0, cols, _PANEL):
        if r0 == rows:
            break
        c1 = min(c0 + _PANEL, cols)
        w = c1 - c0
        swaps: list[tuple[int, int]] = []
        local = _pivot_loop(a[r0:, c0:c1].copy(), p, False, w, swaps)
        k = len(local)
        if k == 0:
            continue
        for i, j in swaps:
            a[[r0 + i, r0 + j], c0:] = a[[r0 + j, r0 + i], c0:]
        r1 = r0 + k
        piv = [c0 + c for c in local]
        top = np.zeros((k, w + k), dtype=np.int64)
        top[:, :w] = a[r0:r1, c0:c1]
        _pivot_loop(top, p, True, w)
        coef = top[:, w:]
        below = a[r1:, piv]
        for s0 in range(c1, cols, _SLAB):
            s = slice(s0, min(s0 + _SLAB, cols))
            a[r0:r1, s] = _matmul_mod(coef, a[r0:r1, s], p)
            a[r1:, s] = (a[r1:, s] - _matmul_mod(below, a[r0:r1, s], p)) % p
        a[r0:r1, c0:c1] = top[:, :w]
        a[r1:, c0:c1] = 0
        panels.append((r0, piv))
        pivots.extend(piv)
        r0 = r1
    if reduced:
        is_free = np.ones(cols, dtype=bool)
        is_free[pivots] = False
        free = np.flatnonzero(is_free)
        f = a[:r0, free]
        for ra, piv in reversed(panels):
            rb = ra + len(piv)
            m = a[:ra, piv]
            for s0 in range(np.searchsorted(free, piv[0]), free.size, _SLAB):
                s = slice(s0, s0 + _SLAB)
                f[:ra, s] = (f[:ra, s] - _matmul_mod(m, f[ra:rb, s], p)) % p
        a[:r0, free] = f
        a[:r0, pivots] = 0
        a[np.arange(r0), pivots] = 1
    return pivots


def ff_rank(mat, p: int) -> int:
    """Rank over F_p."""
    return len(_eliminate(_as_matrix(mat, p), p, reduced=False))


def ff_kernel(mat, p: int) -> np.ndarray:
    """Basis of the right null space over F_p.

    Returns one basis vector per row of the result; the number of rows
    is always cols - ff_rank(mat) and ``mat @ v == 0 (mod p)`` holds
    exactly for each.  Free columns get a unit coordinate, so the basis
    is in reduced echelon shape itself.
    """
    a = _as_matrix(mat, p)
    pivots = _eliminate(a, p, reduced=True)
    cols = a.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-a[: len(pivots), free].T) % p
    return basis


def ff_matvec(mat, vec, p: int) -> np.ndarray:
    """Exact matrix-vector product mod p."""
    a = _as_matrix(mat, p)
    v = np.asarray(vec, dtype=np.int64) % p
    if a.shape[1] != v.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {v.shape}")
    return _matmul_mod(a, v[:, None], p)[:, 0]


def ff_matmul(a, b, p: int) -> np.ndarray:
    """Exact matrix product mod p."""
    a = _as_matrix(a, p)
    b = _as_matrix(b, p)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    return _matmul_mod(a, b, p)
