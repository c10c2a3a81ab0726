"""Exact linear algebra over prime fields.

Residue matrices are stored as numpy int32 arrays, entries in ``[0, p)``;
the modulus travels as an explicit argument and is capped at
``2**31 - 1``, the int32 maximum, so every residue fits.  Products are
taken in int64 or in float64 limbs, never in int32: one factor of every
product is widened to int64 first, since under NumPy 2 an int32 times
an int32 or a Python int stays int32 and wraps silently.  In int64,
``a * b <= (p - 1)**2 < 2**62`` and ``a - b * c > -2**62``, so one
reduction per product suffices and no intermediate overflows; the
reduced value is narrowed back to int32 as it is stored.

Elimination is an in-place CUP factorisation over F_p, blocked and
right-looking (FFLAS-FFPACK: Dumas, Giorgi, Pernet, ACM TOMS 35(3),
2008; Jeannerod, Pernet, Storjohann, J. Symbolic Comput. 56, 2013).  A
first-nonzero-pivot loop factors each 16-column sub-panel of each
64-column panel, keeping every multiplier in the entry it zeroes (the L
factor); the columns right of a block receive the block's row
operations as two products, ``U12 = L11^-1 A12`` and
``A22 - L21 U12``.  Every step takes a view of the rows still to be
pivoted, which the pivot loop factors in place, not a copy.  A
sub-panel is factored first on a window, the next 64 rows or the last
rows, across the rest of its panel (``_window``): the first nonzero at
or below a row lies in the window exactly when the window's column has
one, so up to the first column with none the window finds the pivots
and row swaps of the whole matrix, and the rows below it take their
multipliers and the rest of the panel as two products.  The columns
from there take the pivot loop on all rows.  A matrix of at most
``_PLAIN_MAX_COLS`` columns is factored by the pivot loop alone.
Kernel vectors, one or a whole basis, come from one block
back-substitution on the factored form (``_kernel``).

The products run on float64 BLAS (``_matmul_mod``), and every sum they
form stays below 2**53, where float64 is exact, so the results do not
depend on the summation order, the thread count or the BLAS build.  For
inner dimension n, the left operand x is taken as balanced residues, at
most (p - 1) / 2 in magnitude, and split into ``limbs`` signed limbs of
b bits, each at most 2**b in magnitude (``_balance``, ``_split``).
Side by side, ``per_call`` of them meet the right operand's weighted
copies ``[y; 2**b y mod p; ...]`` in one product, each of whose sums
stays below ``per_call * n * 2**b * (p - 1) < 2**53`` (``_limb_rule``,
``_limb_product``).  At p = 2**31 - 1 and n <= 64 that is two limbs of
15 bits in one product, as ``2 * 64 * 2**15 * (p - 1) < 2**53``, and at
every p < 2**31 an inner dimension up to 64 takes one product: the
trailing update, whose limbs of ``L11^-1`` and ``-L21`` are split once
for all its slabs, and the window's two products.  Where the right
operand is larger than the result, as in the back-substitution, each
limb takes its own product and Horner's rule weighs the results.  The
product, rounded to int64 and plus a residue, is below
``2**53 + 2**31`` in magnitude.  An elimination allocates one workspace for all its
products (``_workspace``), so they allocate nothing.

Every reduction of an int64 temporary but the smallest is a floor
division, ``x - (x // p) * p`` (``_reduce``), which numpy vectorizes
and np.remainder is not, and which takes either sign.  So a difference
is reduced as it stands: a pivot step's row update ``x - f u`` lies
above ``-(p - 1)**2``, and a step of the triangular inverses, which
takes two columns at a time, above ``-2 (p - 1)**2``, where
``2 (p - 1)**2 + p - 1 < 2**63``.

Whatever rows the pivots come from, elimination that takes columns left
to right finds the same pivot columns, and a kernel vector is fixed by
its free coordinates, so ranks and kernels are the same as those of the
plain row-by-row elimination.
"""

from __future__ import annotations

from math import isqrt, prod

import numpy as np

# The three largest primes below 2**31.  Results certified at one prime
# are cross-checked at the others.  They are the CLI's --primes default,
# and run_probe widens a defect to them when given fewer than 3 primes.
DEFAULT_PRIMES = (2147483647, 2147483629, 2147483587)

_U64 = (1 << 64) - 1
# SplitMix64's Weyl increment and its finalizer's two multipliers.
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def check_prime(p: int) -> int:
    """Validate a modulus for int32 residues and int64 products.

    Requires 3 <= p < 2**31 and primality: p is odd and has no divisor
    among the odd numbers from 3 to isqrt(p).
    """
    p = int(p)
    if not 3 <= p < 2**31:
        raise ValueError(f"modulus {p} out of range: need 3 <= p < 2**31")
    if p % 2 == 0 or not (p % np.arange(3, isqrt(p) + 1, 2)).all():
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
    releases.  Outputs are drawn as arrays (``next_u64s``): the Weyl
    states are the seed plus multiples of the increment, finalized as
    uint64 arrays, which wrap mod 2**64.  Each draw of ``residues`` and
    ``nonzero_residues`` takes one output, and one more per rejection.
    """

    name = "splitmix64"

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64
        self._state = self.seed

    def next_u64s(self, count: int) -> np.ndarray:
        """The next ``count`` outputs, as one uint64 array.  A negative
        ``count`` raises ValueError before the state moves."""
        if count < 0:
            raise ValueError(f"count {count} is negative")
        z = np.uint64(self._state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._state = (self._state + count * _GAMMA) & _U64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def residues(self, p: int, count: int) -> np.ndarray:
        """``count`` uniform elements of F_p, as one int64 array, by
        rejection from the top of the u64 range: outputs below
        ``2**64 - 2**64 % p`` are kept, mod p, in stream order; each
        round draws as many outputs as are still missing."""
        top = np.uint64((1 << 64) - ((1 << 64) % p) - 1)
        kept = [np.empty(0, dtype=np.uint64)]
        while count:
            u = self.next_u64s(count)
            kept.append(u[u <= top])
            count -= len(kept[-1])
        return (np.concatenate(kept) % np.uint64(p)).astype(np.int64)

    def nonzero_residues(self, p: int, count: int) -> np.ndarray:
        """``count`` uniform elements of F_p minus zero: ``residues(p - 1) + 1``."""
        return self.residues(p - 1, count) + 1


def _integer_array(data) -> np.ndarray:
    """``data`` as an int64 array.

    Raises ValueError for floats and any other non-integer data, which a
    cast would truncate (2.9 to 2) instead of refusing.
    """
    a = np.asarray(data)
    if a.dtype.kind not in "iu":
        raise ValueError(f"expected integer entries, got {a.dtype} data")
    return a.astype(np.int64, copy=False)


def _as_matrix(mat, p: int) -> np.ndarray:
    """A fresh int32 residue matrix: ``mat`` reduced mod p, at least 2-D."""
    a = np.atleast_2d(_integer_array(mat))
    return np.remainder(a, p, out=np.empty(a.shape, dtype=np.int32))


# Columns per elimination panel.
_PANEL = 64
# Columns per sub-panel: each panel is factored as sub-panels this wide,
# so the pivot loop's row updates on all rows stay this narrow; only on a
# window of _PANEL rows do they span the rest of the panel.
_SUB = 16
# Up to this width the pivot loop alone is faster than the blocked
# elimination, whose bookkeeping costs more than it saves on a
# matrix of two panels.
_PLAIN_MAX_COLS = 2 * _PANEL
# Columns per slab of the trailing update.  With _PANEL and the row
# count it sizes the one workspace of an elimination's products: per
# row, two limbs of _PANEL columns and a slab's float64 sum and int64
# result, 320 eight-byte words.  Slabs of 96 and 128 columns measured
# within 4% of each other at m=10, and 64 up to 4% slower; 96 keeps the
# workspace smaller.
_SLAB = 96
# Below this many entries np.remainder, one numpy call, reduces faster
# than the three calls of a floor division; they break even at about
# 5 us on 1024 int64 entries of mixed signs (2-core Xeon, numpy 2.4).
_REDUCE_MIN = 1024


def _reduce(x: np.ndarray, p: int, q: np.ndarray | None = None) -> np.ndarray:
    """``x mod p``, in place, of the int64 array ``x``, whatever its signs.

    Taken as ``x - (x // p) * p``: numpy divides int64 by a scalar with
    a vectorized multiply and shift (libdivide) but takes np.remainder
    element by element, which on 128k entries took 2.3x as long on
    nonnegative input and 6x on mixed signs.  The quotient goes to
    ``q``, an int64 array of x's shape, or to a fresh one.  Under
    ``_REDUCE_MIN`` entries it is np.remainder.  Returns ``x``.
    """
    if x.size < _REDUCE_MIN:
        return np.remainder(x, p, out=x)
    q = np.floor_divide(x, p, out=q)
    q *= p
    return np.subtract(x, q, out=x)


def _limb_rule(p: int, n: int) -> tuple[int, int, int]:
    """``(b, limbs, per_call)`` of an exact product of inner dimension n
    at p (module docstring).

    A limb of at most ``w = 53 - bitlen(p - 1) - bitlen(n - 1)`` bits,
    at most 2**w in magnitude, against n residues below p sums below
    ``n * 2**w * (p - 1) < 2**53``.  A balanced residue, at most
    (p - 1) / 2 in magnitude, has ``h = bitlen(p - 1) - 1`` bits, so it
    takes ``limbs = ceil(h / w)`` limbs, the fewest of at most w bits,
    each ``b = ceil(h / limbs)`` bits wide, the fewest for that many.
    Then ``per_call = 2**(w - b)`` limbs side by side still sum below
    ``per_call * n * 2**b * (p - 1) < 2**53``.  Raises ValueError when
    w < 2.
    """
    bits = (p - 1).bit_length()
    w = 53 - bits - (n - 1).bit_length()
    if w < 2:
        raise ValueError(f"inner dimension {n} at p = {p}: limbs would be under 2 bits wide")
    limbs = -(-(bits - 1) // w)
    b = -(-(bits - 1) // limbs)
    return b, limbs, 1 << (w - b)


def _carve(buf: np.ndarray | None, shape: tuple, dtype=np.float64) -> np.ndarray:
    """A ``shape`` view of the front of the flat buffer ``buf``, read as
    ``dtype``, or a fresh array when ``buf`` is None."""
    if buf is None:
        return np.empty(shape, dtype=dtype)
    return buf.view(dtype)[: prod(shape)].reshape(shape)


def _workspace(rows: int, p: int) -> tuple[np.ndarray, ...]:
    """Flat buffers for the products of an elimination of ``rows`` rows:
    the limbs of x, up to ``_PANEL`` columns of them, the weighted y, and
    the float64 sum and the int64 result, ``_SLAB`` columns wide.  The
    sum's memory also holds the int64 temporaries before it."""
    w = _limb_rule(p, _PANEL)[1] * _PANEL
    return (np.empty(rows * w), np.empty(w * _SLAB), np.empty(rows * _SLAB),
            np.empty(rows * _SLAB, dtype=np.int64))


def _balance(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """The residues ``x`` with those above (p - 1) / 2 less p, so at most
    (p - 1) / 2 in magnitude, in x's dtype, in the flat buffer ``out``
    or a fresh array.  ``(p - 1) // 2 - x`` is negative exactly there,
    and its sign bit, shifted across, masks p."""
    xb = np.subtract((p - 1) // 2, x, out=_carve(out, x.shape, x.dtype))
    xb >>= 8 * xb.itemsize - 1
    xb &= p
    return np.subtract(x, xb, out=xb)


def _split(xb: np.ndarray, p: int, b: int, limbs: range,
           out: np.ndarray | None = None) -> np.ndarray:
    """Limbs ``limbs`` of the balanced residues ``xb``, side by side.

    Limb i is the bits of ``xb`` from b*i, as float64: the masked bits,
    in ``[0, 2**b)``, or for the top limb, the rule's last, the
    arithmetic shift, in ``[-2**b, 2**b)``, as ``|xb| < 2**h`` and
    ``b * limbs >= h`` (``_limb_rule``).  Returns the
    ``(..., rows, len(limbs) * n)`` limbs, limb ``limbs[j]`` in columns
    ``j*n`` to ``j*n + n``, a view of the flat buffer ``out`` or fresh.
    """
    n = xb.shape[-1]
    xl = _carve(out, xb.shape[:-1] + (len(limbs) * n,))
    top = -(-((p - 1).bit_length() - 1) // b) - 1
    for j, i in enumerate(limbs):
        limb = xl[..., j * n : (j + 1) * n]
        if i == top:
            np.right_shift(xb, b * i, out=limb)
        else:
            np.bitwise_and(xb, ((1 << b) - 1) << (b * i), out=limb)
            limb *= 2.0 ** -(b * i)
    return xl


def _limb_product(xl: np.ndarray, y: np.ndarray, p: int, b: int, limbs: range,
                  plus: np.ndarray | None = None, work=None) -> np.ndarray:
    """``(plus + sum_i limb_i @ (2**(b*i) y mod p)) mod p`` in one call.

    ``xl`` holds limbs ``limbs`` of some x, side by side (``_split``),
    so this is ``(plus + x @ y) mod p`` when they are all of x's limbs.
    ``y`` holds residues; its weighted copies are stacked as
    ``[y; 2**b y; ...]`` against ``xl``, and the one float64 product is
    exact when ``len(limbs) <= per_call`` (``_limb_rule``).  It is
    rounded to int64, ``plus`` added and the sum reduced once.  The
    temporaries are views of ``work``, a ``_workspace``, and so is the
    result, which the next call with ``work`` overwrites; without it
    they are fresh.
    """
    fbuf, pbuf, abuf = work[1:] if work is not None else (None, None, None)
    n, cols = y.shape[-2:]
    wy = _carve(fbuf, y.shape[:-2] + (len(limbs) * n, cols))
    for j, i in enumerate(limbs):
        wj = wy[..., j * n : (j + 1) * n, :]
        if i:
            yi = np.left_shift(y, b * i, out=_carve(abuf, y.shape, np.int64), dtype=np.int64)
            wj[...] = _reduce(yi, p, None if pbuf is None else _carve(pbuf, y.shape, np.int64))
        else:
            wj[...] = y
    # with work the operands are 2-D: the product has xl's rows and y's columns
    part = np.matmul(xl, wy, out=None if pbuf is None else _carve(pbuf, xl.shape[:-1] + (cols,)))
    acc = _carve(abuf, part.shape, np.int64)
    acc[...] = part
    if plus is not None:
        acc += plus
    return _reduce(acc, p, part.view(np.int64))


def _matmul_mod(x: np.ndarray, y: np.ndarray, p: int, plus=None, work=None,
                weigh_y=None) -> np.ndarray:
    """Exact ``(plus + x @ y) mod p`` of residue matrices, as int64.

    ``x`` and ``y`` may carry leading batch axes, broadcast as by
    ``np.matmul``: every matrix of the stack is then one such exact
    product.  ``plus``, if given, holds residues of the result's shape.
    x is balanced and split into limbs (``_limb_rule``), and the limb
    weights go on y when it has fewer entries than the result, so is
    the smaller, and on the result otherwise; ``weigh_y`` forces the
    choice.

    - on y: the limbs go side by side, ``per_call`` to a float64
      product against ``[y; 2**b y; ...]`` (``_limb_product``), each
      product reduced with the ones before as its ``plus``; up to inner
      dimension 64 at every p that is one product;
    - on the result: one product per limb against y, by Horner's rule
      from the top limb down in int64, ``acc * 2**b + part`` below
      ``2**(bitlen(p - 1) + b) + 2**53 <= 2**54``, reduced once per
      limb, with ``plus`` added before the last reduction.

    With ``work``, the elimination's ``_workspace``, the weights go on
    y, the inner dimension is at most ``_PANEL``, so there is one
    product, and the temporaries and the result are views of ``work``,
    which the next call with it overwrites; without ``work`` the result
    is the caller's own.  Raises ValueError when limbs would be under 2
    bits wide.
    """
    b, limbs, per_call = _limb_rule(p, x.shape[-1])
    if weigh_y is None:
        batch = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
        weigh_y = work is not None or y.size < prod(batch) * x.shape[-2] * y.shape[-1]
    # with work, the weights' temporaries overwrite xb only once it is split
    xb = _balance(x, p, None if work is None else work[2])
    if weigh_y:
        for lo in range(0, limbs, per_call):
            group = range(lo, min(lo + per_call, limbs))
            xl = _split(xb, p, b, group, None if work is None else work[0])
            plus = _limb_product(xl, y, p, b, group, plus, work)
        return plus
    yf = y.astype(np.float64)
    acc = None
    for i in range(limbs - 1, -1, -1):
        part = np.matmul(_split(xb, p, b, range(i, i + 1)), yf)
        if acc is None:
            acc = part.astype(np.int64)
        else:
            acc <<= b
            # exact, since |part| < 2**53
            np.add(acc, part, out=acc, dtype=np.int64, casting="unsafe")
        if i == 0 and plus is not None:
            acc += plus
        _reduce(acc, p)
    return acc


def _pivot_loop(a: np.ndarray, p: int, c0: int, c1: int, c2: int | None = None,
                stop: bool = False) -> list[int]:
    """Factor columns ``[c0, c1)`` of ``a``, in place, pivoting from its first row down.

    ``a`` is a view of the rows still to be pivoted.  Returns the pivot
    columns.  Pivot choice is the first nonzero entry of the column: the
    next pivot row's own entry, and only where that is 0 a search below;
    the row found is swapped whole up to the next pivot row.  The pivot
    d stays in place, as L's diagonal, and the pivot row is divided by d
    right of it, up to ``c2`` (``c1`` by default).  Every row below, f
    its entry in the pivot column, becomes ``x - f u`` there, u the
    pivot row, as one slice: the terms are widened to int64, each
    difference lies above ``-(p - 1)**2`` and is reduced once, and a row
    with f = 0 comes out unchanged.  Each row keeps f, its multiplier in
    L.  Columns from ``c2`` are left to ``_update``.  A column with no
    nonzero entry from the next pivot row down is skipped, or with
    ``stop`` ends the loop: on a window of the rows, its first nonzero
    may lie below the window.
    """
    rows = a.shape[0]
    c2 = c1 if c2 is None else c2
    pivots: list[int] = []
    for c in range(c0, c1):
        r = len(pivots)
        if r == rows:
            break
        if not a[r, c]:
            nz = np.flatnonzero(a[r + 1 :, c])
            if nz.size == 0:
                if stop:
                    break
                continue
            piv = r + 1 + int(nz[0])
            a[[r, piv]] = a[[piv, r]]
        u = a[r, c + 1 : c2]
        u[...] = u * np.int64(pow(int(a[r, c]), -1, p)) % p
        rest = a[r + 1 :, c + 1 : c2]
        if rest.size:
            t = np.multiply(a[r + 1 :, c, None], u, dtype=np.int64)
            rest[...] = _reduce(np.subtract(rest, t, out=t), p)
        pivots.append(c)
    return pivots


def _lower_inverse(t: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of the lower triangle of the square residue matrix ``t``.

    The diagonal D must be nonzero; entries above it are ignored.  With
    the rows divided by their diagonal entries, ``L = D L'`` and L' is
    unit lower triangular, inverted by column elimination on the
    identity, two columns a step; then ``L^-1 = L'^-1 D^-1``.  A step
    takes rows j and j + 1 of the inverse, j final and j + 1 once it
    subtracts its multiple of row j, from every row below at once: each
    row less two residue products lies above ``-2 (p - 1)**2``, and
    ``2 (p - 1)**2 + p - 1 < 2**63``, so one reduction per step keeps
    it exact in int64.  The inverse is returned in int64.
    """
    k = len(t)
    dinv = np.array([pow(int(d), -1, p) for d in t.diagonal()], dtype=np.int64)
    t = _reduce(t * dinv[:, None], p)
    x = np.eye(k, dtype=np.int64)
    for j in range(0, k - 1, 2):
        x[j + 1, : j + 1] = _reduce(x[j + 1, : j + 1] - t[j + 1, j] * x[j, : j + 1], p)
        rest = x[j + 2 :, : j + 2]
        rest[...] = _reduce(rest - t[j + 2 :, j : j + 2] @ x[j : j + 2, : j + 2], p)
    return _reduce(x * dinv, p)


def _unit_upper_inverse(u: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of the unit upper triangle of the square residue
    matrix ``u``; its diagonal and the entries below are ignored."""
    t = u.T.copy()
    np.fill_diagonal(t, 1)
    return _lower_inverse(t, p).T


def _update(a: np.ndarray, p: int, piv: list[int], c1: int, c2: int,
            work: tuple[np.ndarray, ...]) -> None:
    """Carry the pivots ``piv``, factored on ``a``'s first rows, to columns ``[c1, c2)``.

    ``a`` is a view of the rows from the first pivot row down.  L11 is
    the pivot rows' lower triangle in the pivot columns (its diagonal
    the pivots) and L21 the multipliers below it.  Slab by slab, the
    pivot rows become ``U12 = L11^-1 A12`` and the rows below
    ``A22 - L21 U12``, which is ``A22 + (-L21) U12``.  ``L11^-1`` and
    L21 are split into limbs once, side by side in ``work``'s limb
    buffer, and L21's limbs are negated, which gives those of -L21; each
    slab then takes one ``_limb_product`` for each.  ``work`` is a
    ``_workspace`` for the rows of ``a``, so the products allocate
    nothing; only the rows below, gathered by index when some hold no
    multiplier, are copied.
    """
    k = len(piv)
    b, limbs, _ = _limb_rule(p, k)
    group = range(limbs)
    linv = _split(_balance(_lower_inverse(a[:k, piv], p), p, work[2]), p, b, group, work[0])
    l21 = a[k:, piv]
    hit = np.flatnonzero(l21.any(axis=1))
    below = slice(k, None)
    if hit.size < len(l21):
        # rows without a multiplier keep their entries
        l21, below = l21[hit], k + hit
    l21 = _split(_balance(l21, p, work[2]), p, b, group, work[0][linv.size :])
    np.negative(l21, out=l21)
    for s0 in range(c1, c2, _SLAB):
        s = slice(s0, min(s0 + _SLAB, c2))
        a[:k, s] = _limb_product(linv, a[:k, s], p, b, group, work=work)
        a[below, s] = _limb_product(l21, a[:k, s], p, b, group, plus=a[below, s], work=work)


def _window(a: np.ndarray, p: int, s0: int, s1: int, c1: int,
            work: tuple[np.ndarray, ...]) -> list[int]:
    """Factor the sub-panel ``[s0, s1)`` first on its window, in place.

    ``a`` is a view of the rows still to be pivoted, and the window is
    its first ``_PANEL`` rows, or all of them where fewer remain.  The
    pivot loop factors the window, its row operations reaching the end
    ``c1`` of the panel and its swaps moving whole rows, and stops at
    the first column with no nonzero entry in it from the next pivot row
    down.  The first nonzero from that row down lies in the window
    exactly when the window's column has one, so the columns before are
    the pivots of the plain loop, found in the same rows.  A row x below
    the window holds ``f U11`` in the k pivot columns, f its multipliers
    and U11 the pivot rows' unit upper triangle there, so two products
    on ``work``, the elimination's ``_workspace``, give it
    ``f = x U11^-1`` and the rest of the panel, ``x' + f (-U12)``; with
    no rows below, there is nothing to multiply.  Returns the pivot
    columns, ``s0`` onward; the caller factors the rest of the
    sub-panel on all rows.
    """
    k = len(_pivot_loop(a[:_PANEL], p, s0, s1, c1, stop=True))
    below, t = a[_PANEL:], s0 + k
    if k and len(below):
        below[:, s0:t] = _matmul_mod(below[:, s0:t], _unit_upper_inverse(a[:k, s0:t], p), p,
                                     work=work)
        if t < c1:
            below[:, t:c1] = _matmul_mod(below[:, s0:t], -a[:k, t:c1] % p, p,
                                         plus=below[:, t:c1], work=work)
    return list(range(s0, t))


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
    ``_SUB`` columns, every step on a view of the rows still to be
    pivoted.  ``_window`` factors a sub-panel on the next ``_PANEL``
    rows, or the last rows, across the rest of the panel and stops at
    its first column without a pivot there; it keeps the pivots because
    a column's first nonzero from the next pivot row down lies in the
    window exactly when the window's column has one.  From that column
    the pivot loop factors the rest of the sub-panel on all rows,
    skipping a column with no nonzero, and ``_update`` carries its
    pivots to the rest of the panel.  Then ``_update`` carries the
    panel's pivots to the columns right of it.  Every product of one
    elimination shares one workspace, allocated here.  Narrower
    matrices take the pivot loop alone.
    """
    rows, cols = a.shape
    if cols <= _PLAIN_MAX_COLS:
        pivots = _pivot_loop(a, p, 0, cols)
    else:
        pivots = []
        work = _workspace(rows, p)
        for c0 in range(0, cols, _PANEL):
            c1 = min(c0 + _PANEL, cols)
            r0 = len(pivots)
            for s0 in range(c0, c1, _SUB):
                s1 = min(s0 + _SUB, c1)
                piv = _window(a[len(pivots) :], p, s0, s1, c1, work)
                pivots += piv
                s0 += len(piv)
                if s0 < s1:
                    piv = _pivot_loop(a[len(pivots) :], p, s0, s1)
                    if piv and s1 < c1:
                        _update(a[len(pivots) :], p, piv, s1, c1, work)
                    pivots += piv
            if len(pivots) > r0 and c1 < cols:
                _update(a[r0:], p, pivots[r0:], c1, cols, work)
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
    x = np.zeros((cols, xf.shape[1]), dtype=np.int32)
    x[free] = xf
    for lo in range((len(pivots) - 1) // _PANEL * _PANEL, -1, -_PANEL):
        q = pivots[lo : lo + _PANEL]
        rows = slice(lo, lo + len(q))
        t = _matmul_mod(a[rows, q[0] :], x[q[0] :], p)
        x[q] = _matmul_mod((p - _unit_upper_inverse(a[rows, q], p)) % p, t, p)
    return x


def _ranks(a: np.ndarray, p: int) -> np.ndarray:
    """Rank over F_p of every matrix of the (N, rows, cols) int64 residue
    stack ``a``, which is overwritten, in one pivot pass over the stack.

    Per column, a matrix's pivot is its first row not yet a pivot with
    a nonzero entry d there; every such row x, f its entry, becomes
    ``d x - f u`` right of the column, u the pivot row.  Row order and a
    nonzero d change no span, so the rank is the pivot count.  Each term
    is below ``p**2``, the difference above ``-p**2``, reduced once.
    """
    n, rows, cols = a.shape
    free = np.ones((n, rows), dtype=bool)
    every = np.arange(n)
    for c in range(cols):
        f = np.where(free, a[:, :, c], 0)
        r = (f != 0).argmax(axis=1)
        d, u = f[every, r], a[every, r, c + 1 :]
        found = d != 0
        free[every[found], r[found]] = False
        rest = a[:, :, c + 1 :]
        rest *= np.where(found, d, 1)[:, None, None]
        rest -= f[:, :, None] * u[:, None, :]
        _reduce(rest, p)
    return rows - free.sum(axis=1)


def ff_rank(mat, p: int) -> int:
    """Rank over F_p."""
    return len(_eliminate(_as_matrix(mat, p), p))


def ff_kernel(mat, p: int) -> np.ndarray:
    """Basis of the right null space over F_p.

    Returns one basis vector per row of the result; the number of rows
    is always cols - ff_rank(mat) and ``mat @ v == 0 (mod p)`` holds
    exactly for each.  Free columns get a unit coordinate, so the basis
    is in reduced echelon shape itself: the kernel vectors whose free
    coordinates are the identity, solved for on the factored form.  The
    basis is returned as int64, not int32, so that a caller's
    combination ``(c * v + d * w) % p`` of its rows cannot wrap.
    """
    a = _as_matrix(mat, p)
    pivots = _eliminate(a, p)
    xf = np.eye(a.shape[1] - len(pivots), dtype=np.int32)
    return np.ascontiguousarray(_kernel(a, pivots, xf, p).T, dtype=np.int64)
