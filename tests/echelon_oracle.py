"""Reference elimination and product: the unblocked row-by-row echelon
and an exact product in Python integers.

The echelon is the elimination ``segreid.exactlin`` used before its
blocked, BLAS-backed echelon, kept verbatim as the oracle the blocked
version must match exactly (same pivots, and the kernel basis that the
oracle's reduced echelon form gives).  It reduces its input itself and
works on int64 arrays, so it shares no code with the package's int32
storage.
"""

from __future__ import annotations

import numpy as np


def _echelon(mat, p: int, reduced: bool) -> tuple[np.ndarray, list[int]]:
    """Row echelon form; fully reduced above the pivots when asked.

    Pivot choice is the first nonzero entry of the column.  Each row
    update is one vectorized multiply-subtract with a single reduction,
    valid because entries stay below p < 2**31 and the arithmetic is
    int64 throughout.
    """
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = (a[r, c:] * inv) % p
        if reduced:
            f = a[:, c].copy()
            f[r] = 0
        else:
            f = np.zeros(rows, dtype=np.int64)
            f[r + 1 :] = a[r + 1 :, c]
        hit = np.nonzero(f)[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - f[hit, None] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def cup(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """The in-place CUP form of plain elimination, column by column.

    The form ``exactlin._eliminate`` leaves: pivot the first nonzero
    entry of each column, swap its row up whole, keep the pivot d in
    place and divide the pivot row by d right of it; each row below
    keeps its entry f in the pivot column as its multiplier and
    subtracts f times the pivot row right of it.  Unblocked, on int64.
    """
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r, c + 1 :] = a[r, c + 1 :] * pow(int(a[r, c]), -1, p) % p
        hit = r + 1 + np.nonzero(a[r + 1 :, c])[0]
        a[hit, c + 1 :] = (a[hit, c + 1 :] - a[hit, c, None] * a[r, c + 1 :]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def matmul_mod(x, y, p: int) -> np.ndarray:
    """Exact ``x @ y mod p``: the product taken in Python integers
    (object dtype), which cannot overflow, then reduced to int64."""
    prod = np.asarray(x, dtype=object) @ np.asarray(y, dtype=object)
    return (prod % p).astype(np.int64)


def kernel_basis(a, pivots, p: int) -> np.ndarray:
    """Kernel basis from a reduced echelon form, built by the double loop
    ``ff_kernel`` used before its vectorized construction."""
    cols = a.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for row, pc in enumerate(pivots):
            basis[i, pc] = (-int(a[row, fc])) % p
    return basis
