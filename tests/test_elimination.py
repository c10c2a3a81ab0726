"""The blocked elimination against the unblocked oracle and sympy.

The blocked elimination must find exactly the oracle's pivots, and
``ff_kernel`` must return exactly the basis the oracle's reduced echelon
form gives.  A kernel vector is fixed by its free coordinates, so that
basis holds the non-pivot part of the reduced form, and matching it
checks the whole elimination although the package never forms that
form.  ``_kernel`` on the factored form must return exactly the
combinations of the basis it is given as free coordinates: one column,
the probe's hyperplane, and three.  Matrices wider than
``_PLAIN_MAX_COLS`` take the blocked path anyway; narrower ones run
twice, once routed by width and once with the blocked path forced.
The factored int32 matrix itself must equal the oracle's unblocked
int64 CUP form value for value, with entries at the int32 limit, on
Terracini matrices and where a sub-panel's window falls back to the
pivot loop or takes the last rows; the pivot loop factors views of
the matrix, never a copy.  ``_matmul_mod`` must be exact with
its limb weights on either operand, with all the limbs side by side in
one product where the limb rule allows it and at the balanced extremes
(p - 1) / 2 and (p + 1) / 2, whose limbs reach 2**b - 1 and -2**b; an
elimination's product must be one ``np.matmul`` call at every p; and an
elimination's workspace must neither leak into a product a caller keeps
nor be handed back to the system between products.  ``_reduce`` must
agree with Python's ``%`` on int64 values of either sign.
"""

import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from echelon_oracle import _echelon, cup, kernel_basis, matmul_mod
from segreid import exactlin
from segreid.exactlin import SplitMix64, ff_kernel, ff_rank
from segreid.segre import ProductShape, random_point
from segreid.terracini import terracini_matrix

NB = exactlin._PANEL
SUB = exactlin._SUB
CROSSOVER = exactlin._PLAIN_MAX_COLS
PRIMES = (3, 65521, 2**31 - 1)
# the int32 maximum, and the largest admissible modulus
P31 = 2**31 - 1
# A 20-bit prime: inner dimensions up to 8192 take one limb, 8193 two.
P20 = 1048573
WIDTHS = sorted({NB - 1, NB, NB + 1, CROSSOVER, CROSSOVER + 1, 2 * NB + 1})


@pytest.fixture(params=["by-width", "blocked"])
def path(request, monkeypatch):
    if request.param == "blocked":
        monkeypatch.setattr(exactlin, "_PLAIN_MAX_COLS", 0)
    return request.param


def sympy_rank(mat, p):
    k = GF(p)
    rows = [[k(int(x)) for x in row] for row in mat]
    return DomainMatrix(rows, mat.shape, k).rank()


def low_rank(rng, rows, cols, rank, p):
    # entries of the right factor are 0..2, so the int64 product cannot overflow
    left = rng.integers(0, p, (rows, rank))
    return (left @ rng.integers(0, 3, (rank, cols))) % p


def assert_echelon_matches_oracle(m, p):
    # the factored matrix, its pivots and the oracle's kernel basis
    want, want_pivots = _echelon(m, p, reduced=True)
    a = exactlin._as_matrix(m, p)
    assert a.dtype == np.int32
    assert exactlin._eliminate(a, p) == want_pivots
    basis = ff_kernel(m, p)
    old = kernel_basis(want, want_pivots, p)
    assert basis.dtype == old.dtype and basis.shape == old.shape
    assert basis.tobytes() == old.tobytes()
    assert ff_rank(m, p) == len(want_pivots)
    return a, want_pivots, old


def assert_matches_oracle(m, p):
    return len(assert_echelon_matches_oracle(m, p)[1])


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("width", WIDTHS)
def test_dense_tall_and_wide_match_oracle(path, width, p):
    rng = np.random.default_rng([width, p])
    for rows in (width // 4 + 1, width + 2):
        assert_matches_oracle(rng.integers(0, p, (rows, width)), p)


@pytest.mark.parametrize("p", PRIMES)
def test_dependent_rows_and_zero_columns_match_oracle(p):
    rng = np.random.default_rng(p)
    cols = 3 * NB + 5
    m = low_rank(rng, 2 * NB, cols, NB // 2, p)
    m[:, rng.integers(0, cols, cols // 4)] = 0
    assert assert_matches_oracle(m, p) <= NB // 2
    # rows that repeat or combine earlier rows
    x = rng.integers(0, p, (5, cols))
    m = np.vstack([x, (3 * x) % p, (x[:1] + x[1:2]) % p, x[::-1]])
    assert assert_matches_oracle(m, p) == 5


@pytest.mark.parametrize("p", PRIMES)
def test_panel_without_pivot_matches_oracle(p):
    rng = np.random.default_rng([7, p])
    m = rng.integers(0, p, (NB + 9, 3 * NB + 3))
    m[:, NB : 2 * NB] = 0
    assert assert_matches_oracle(m, p) == NB + 9
    # a panel whose columns repeat the first panel's
    m = rng.integers(0, p, (NB + 9, 3 * NB + 3))
    m[:, NB : 2 * NB] = m[:, :NB]
    assert assert_matches_oracle(m, p) == NB + 9


@pytest.mark.parametrize("p", PRIMES)
def test_degenerate_shapes_match_oracle(path, p):
    rng = np.random.default_rng([11, p])
    wide = 2 * NB + 1
    assert assert_matches_oracle(np.zeros((7, wide), dtype=np.int64), p) == 0
    assert assert_matches_oracle(rng.integers(1, p, (1, wide)), p) == 1
    assert assert_matches_oracle(rng.integers(1, p, (wide, 1)), p) == 1
    row = np.zeros((1, wide), dtype=np.int64)
    row[0, -1] = 1
    assert assert_matches_oracle(row, p) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_rank_matches_sympy_across_panels(p):
    rng = np.random.default_rng([13, p])
    m = low_rank(rng, 12, 2 * NB + 1, 7, p)
    assert ff_rank(m, p) == sympy_rank(m, p)
    m = rng.integers(0, p, (2 * NB + 1, 9))
    assert ff_rank(m.T, p) == ff_rank(m, p) == sympy_rank(m, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("k", [10, 22])
def test_binary_terracini_matrices_match_oracle(k, p):
    # m=8: 256 columns, four panels; 99 and 207 rows
    shape = ProductShape((1,) * 8)
    rng = SplitMix64(k)
    m = terracini_matrix(shape, [random_point(shape, rng, p) for _ in range(k + 1)], p)
    assert m.shape == ((k + 1) * 9, 4 * NB)
    assert_matches_oracle(m, p)


def test_entries_near_modulus_across_panels():
    p = 2**31 - 1
    m = np.full((3 * NB, 3 * NB), p - 1, dtype=np.int64)
    assert ff_rank(m, p) == 1
    assert len(ff_kernel(m, p)) == 3 * NB - 1


def test_limb_product_exact_at_largest_inner_dimension():
    p = 2**31 - 1
    n = 1 << 20
    x = np.full((2, n), p - 1, dtype=np.int64)
    x[1] = np.random.default_rng(17).integers(p - 2**16, p, n)
    y = np.full((n, 1), p - 1, dtype=np.int64)
    got = exactlin._matmul_mod(x, y, p)
    assert got.tolist() == [[(p - 1) ** 2 * n % p], [(p - 1) * sum(x[1].tolist()) % p]]


def test_limb_product_rejects_inner_dimension_above_limit():
    # limbs under 2 bits wide; zero-stride operands allocate nothing
    for p, n in [(P31, (1 << 20) + 1), (P20, (1 << 31) + 1), (3, (1 << 49) + 1)]:
        x = np.broadcast_to(np.int64(0), (1, n))
        y = np.broadcast_to(np.int64(0), (n, 1))
        with pytest.raises(ValueError, match=f"inner dimension {n} at p = {p}:"):
            exactlin._matmul_mod(x, y, p)


LIMB_CASES = [(n, P31) for n in (1, 2, 64, 65, 2048, 2049, 1 << 20)] + [
    (n, P20) for n in (1, 8192, 8193, 1 << 20, (1 << 20) + 1)
]


@pytest.mark.parametrize(
    "n, p", LIMB_CASES, ids=[str(n) if p == P31 else f"{n}-{p}" for n, p in LIMB_CASES]
)
def test_limb_product_exact_at_limb_count_boundaries(n, p):
    # n = 64, 2048 and 2**20 are the largest inner dimensions taking 2, 3
    # and 16 limbs at p = 2**31 - 1, and n = 8192 is the largest taking 1
    # at P20, where 2**20 and 2**20 + 1 (refused near 2**31) take 2;
    # entries within p / 2**15 of p fill every limb, and odd entries make
    # odd products, so a sum past 2**53 would round; the limb weights go
    # on y and on the result
    rng = np.random.default_rng([19, n])
    near = (p + 1) >> 15
    x = np.full((2, n), p - 1, dtype=np.int64)
    x[1] = rng.integers(p - near, p, n)
    y = np.full((n, 2), p - 1, dtype=np.int64)
    y[:, 1] = rng.integers(p - near, p, n)
    want = matmul_mod(x, y, p).tolist()
    for weigh_y in (True, False):
        assert exactlin._matmul_mod(x, y, p, weigh_y=weigh_y).tolist() == want


@pytest.mark.parametrize(
    "n, p", LIMB_CASES, ids=[str(n) if p == P31 else f"{n}-{p}" for n, p in LIMB_CASES]
)
def test_stacked_limb_product_exact_at_limb_count_boundaries(n, p):
    # stacks of two rows and two columns within p / 2**15 of p, and a
    # stack of one broadcast against the other operand's two: each member
    # takes the limbs of the inner dimension n alone, exact with the limb
    # weights on y and on the result
    rng = np.random.default_rng([23, n])
    near = (p + 1) >> 15
    x = rng.integers(p - near, p, (2, 1, n))
    y = rng.integers(p - near, p, (2, n, 1))
    want = {(i, j): matmul_mod(x[i], y[j], p).tolist() for i, j in [(0, 0), (0, 1), (1, 1)]}
    for xs, ys, pairs in [(x, y, [(0, 0), (1, 1)]), (x[:1], y, [(0, 0), (0, 1)]),
                          (x, y[1:], [(0, 1), (1, 1)])]:
        for weigh_y in (True, False):
            got = exactlin._matmul_mod(xs, ys, p, weigh_y=weigh_y)
            assert got.shape == (2, 1, 1) and got.tolist() == [want[ij] for ij in pairs]


def assert_cup_matches_oracle(m, p):
    # assert_matches_oracle, plus kernel vectors solved on the factored
    # form: one column of free coordinates, as the probe's hyperplane, and three
    a, pivots, basis = assert_echelon_matches_oracle(m, p)
    rng = np.random.default_rng([len(basis), p])
    for n in (1, 3):
        xf = rng.integers(0, p, (len(basis), n))
        x = exactlin._kernel(a, pivots, xf, p)
        assert x.dtype == np.int32
        assert x.T.tolist() == matmul_mod(xf.T, basis, p).tolist()
        assert not matmul_mod(m, x, p).any()
    return len(pivots)


def binary_terracini(m, k, p):
    shape = ProductShape((1,) * m)
    rng = SplitMix64(1000 * m + k)
    return terracini_matrix(shape, [random_point(shape, rng, p) for _ in range(k + 1)], p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("m, k", [(9, 27), (10, 40)])
def test_terracini_matrices_past_four_panels_match_oracle(m, k, p):
    # 280x512 and 451x1024, eight and sixteen panels; rank deficient at p = 3
    mat = binary_terracini(m, k, p)
    assert mat.shape == ((k + 1) * (m + 1), 2**m)
    assert_cup_matches_oracle(mat, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("cols", [SUB + 3, NB + SUB + 1, 2 * NB + 2 * SUB + 7, 4 * NB + SUB - 3])
def test_rank_deficient_odd_widths_match_oracle(path, cols, p):
    # widths no multiple of SUB or NB; zero columns and a rank below both dimensions
    rng = np.random.default_rng([cols, p])
    for rows in (cols // 3 + 2, cols + 5):
        m = low_rank(rng, rows, cols, min(rows, cols) // 2 + 1, p)
        m[:, rng.integers(0, cols, cols // 5)] = 0
        assert assert_cup_matches_oracle(m, p) <= min(rows, cols) // 2 + 1


@pytest.mark.parametrize("p", PRIMES)
def test_sub_panel_without_pivot_matches_oracle(path, p):
    rng = np.random.default_rng([23, p])
    cols = 2 * NB + 2 * SUB + 5
    m = rng.integers(0, p, (NB + 2 * SUB, cols))
    # the second sub-panel is zero, the third repeats the first
    m[:, SUB : 2 * SUB] = 0
    m[:, 2 * SUB : 3 * SUB] = m[:, :SUB]
    assert assert_cup_matches_oracle(m, p) == NB + 2 * SUB
    # the same in the second panel, below rows that took all of the first
    m = rng.integers(0, p, (NB + 2 * SUB, cols))
    m[:, NB + SUB : NB + 2 * SUB] = 0
    m[:, NB + 2 * SUB : NB + 3 * SUB] = m[:, NB : NB + SUB]
    assert assert_cup_matches_oracle(m, p) == NB + 2 * SUB


@pytest.fixture
def windows(monkeypatch):
    # (rows of the view, first column, pivots found, products taken) of
    # each window factored; factor_with_windows turns the view's rows
    # into its first row
    calls = []
    window, matmul_mod = exactlin._window, exactlin._matmul_mod
    products = []

    def count(*args, **kwargs):
        products.append(1)
        return matmul_mod(*args, **kwargs)

    def spy(a, p, s0, *args):
        products.clear()
        piv = window(a, p, s0, *args)
        calls.append((len(a), s0, len(piv), len(products)))
        return piv

    monkeypatch.setattr(exactlin, "_window", spy)
    monkeypatch.setattr(exactlin, "_matmul_mod", count)
    return calls


def factor_with_windows(m, p, windows):
    # the factored matrix equals the oracle's; returns the pivots and the
    # windows of one elimination, each as (first row, first column,
    # pivots found, products taken)
    a, pivots, _ = assert_echelon_matches_oracle(m, p)
    assert a.tolist() == cup(m, p)[0].tolist()
    windows.clear()
    exactlin._eliminate(exactlin._as_matrix(m, p), p)
    return pivots, [(len(m) - n, *call) for n, *call in windows]


@pytest.mark.parametrize("p", PRIMES)
def test_window_falls_back_mid_sub_panel(windows, p):
    # in the window column 5 repeats column 0, so it has no pivot there once
    # columns 0 to 4 have theirs; its pivot lies below the window, and the
    # pivot loop takes the rest of the sub-panel over all rows
    rng = np.random.default_rng([31, p])
    m = rng.integers(0, p, (NB + SUB + 9, 3 * NB + 5))
    m[:NB, 5] = m[:NB, 0]
    pivots, calls = factor_with_windows(m, p, windows)
    assert pivots[:SUB] == list(range(SUB))
    assert calls[0] == (0, 0, 5, 2)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("rows", [NB + SUB, NB + SUB + 1])
def test_window_at_the_last_rows(windows, rows, p):
    # the second sub-panel starts at row SUB: with NB + SUB rows its window
    # takes the last rows and multiplies nothing below; one row more
    # leaves one row below it, which takes both products.  Every window
    # from row rows - NB on takes the last rows.
    rng = np.random.default_rng([37, rows, p])
    m = rng.integers(0, p, (rows, 3 * NB + 5))
    pivots, calls = factor_with_windows(m, p, windows)
    assert pivots[: 2 * SUB] == list(range(2 * SUB))
    assert calls[:2] == [(0, 0, SUB, 2), (SUB, SUB, SUB, 2 * (rows > NB + SUB))]
    last = [call for call in calls if call[0] >= rows - NB]
    assert len(last) == len(calls) - 1 - (rows > NB + SUB)
    assert not any(n for *_, n in last)


@pytest.mark.parametrize("p", PRIMES)
def test_window_at_the_last_rows_meets_a_column_without_nonzero(windows, p):
    # column SUB + 3 repeats column 0, so once columns 0 to SUB + 2 have
    # their pivots it is zero in all the rows left: the second window,
    # the last NB rows, stops there, and the pivot loop on all rows skips
    # it and takes the rest of the sub-panel
    rng = np.random.default_rng([41, p])
    m = rng.integers(0, p, (NB + SUB, 3 * NB + 5))
    m[:, SUB + 3] = m[:, 0]
    pivots, calls = factor_with_windows(m, p, windows)
    assert pivots[: 2 * SUB - 1] == [c for c in range(2 * SUB) if c != SUB + 3]
    assert calls[:3] == [(0, 0, SUB, 2), (SUB, SUB, 3, 0), (2 * SUB - 1, 2 * SUB, SUB, 0)]


def test_blocked_elimination_factors_views_of_the_matrix(monkeypatch):
    # every array the pivot loop factors, on a window or on all rows
    # left, is a view of the matrix itself, at m=10 k=40 where windows
    # fall back and the last windows take the last rows; the views past
    # the rank are empty, and hold no memory to share
    mat = binary_terracini(10, 40, P31)
    seen = []
    pivot_loop = exactlin._pivot_loop

    def spy(a, p, *args, **kwargs):
        seen.append((not a.size or np.shares_memory(a, mat), kwargs.get("stop", False)))
        return pivot_loop(a, p, *args, **kwargs)

    monkeypatch.setattr(exactlin, "_pivot_loop", spy)
    exactlin._eliminate(mat, P31)
    assert all(shared for shared, _ in seen)
    assert {stop for _, stop in seen} == {False, True}


@pytest.mark.parametrize(
    "n, p",
    [(n, p) for p in (3, P31) for n in (1, 64, 65, 2048, 2049, 1 << 20)]
    + [(n, P20) for n in (1, 8192, 8193, 1 << 20)],
)
def test_limb_product_with_plus_exact(n, p):
    # entries p - 1 and odd entries fill every limb; plus rows of p - 1,
    # 0 and random residues reach both ends of the last reduction, and
    # row 0, every entry and plus p - 1, reaches the largest value.  Both
    # placements of the limb weights are forced, on y and on the result.
    rng = np.random.default_rng([29, n, p])
    odd = max(1, (p + 1) >> 16)
    x = np.full((3, n), p - 1, dtype=np.int64)
    x[1] = p - 2 - 2 * rng.integers(0, odd, n)
    x[2] = rng.integers(0, p, n)
    y = np.full((n, 3), p - 1, dtype=np.int64)
    y[:, 1] = p - 2 - 2 * rng.integers(0, odd, n)
    y[:, 2] = rng.integers(0, p, n)
    plus = rng.integers(0, p, (3, 3))
    plus[0] = p - 1
    plus[1] = 0
    prod = [[sum(map(operator.mul, row, col)) for col in y.T.tolist()] for row in x.tolist()]
    want = [[(int(pv) + v) % p for pv, v in zip(prow, row)] for prow, row in zip(plus, prod)]
    for weigh_y in (True, False):
        got = exactlin._matmul_mod(x, y, p, plus=plus, weigh_y=weigh_y)
        assert got.dtype == np.int64 and got.tolist() == want
        # without a workspace the result is the caller's own: the next
        # product leaves it intact, as tangency._hessians needs
        exactlin._matmul_mod(x[:, :1], y[:1], p, plus=plus, weigh_y=weigh_y)
        assert got.tolist() == want


# Per prime, the largest inner dimension whose limbs one product holds,
# or one limb, and one more: at P31 two limbs of 15 bits in one product
# up to 64, two products from 65; at P20 one limb of 19 bits up to
# 16384, two of 10 bits from 16385, still in one product (up to 2**22);
# at 3 one limb of 1 bit, in one product up to the refusal at 2**49.
ONE_PRODUCT = {(P31, 64): (15, 2, 2), (P31, 65): (15, 2, 1), (P20, 16384): (19, 1, 1),
               (P20, 16385): (10, 2, 256), (3, 64): (1, 1, 1 << 44), (3, 65): (1, 1, 1 << 43)}


@pytest.mark.parametrize("p, n", list(ONE_PRODUCT), ids=[f"{n}-{p}" for p, n in ONE_PRODUCT])
def test_limb_product_holds_the_balanced_extremes(p, n):
    # x holds the balanced extremes (p - 1) / 2 and (p + 1) / 2, whose
    # limbs reach 2**b - 1 and -2**b, and y holds p - 1, so a sum comes
    # within 2**39 of 2**53 at (P31, 64); all limbs side by side in one
    # product where the rule allows it, and through _matmul_mod, whose
    # products the rule groups, with and without plus, and on stacks
    b, limbs, per_call = exactlin._limb_rule(p, n)
    assert (b, limbs, per_call) == ONE_PRODUCT[p, n]
    rng = np.random.default_rng([43, n, p])
    x = np.vstack([np.full((2, n), (p - 1) // 2), np.full((2, n), (p + 1) // 2),
                   rng.integers(0, p, (2, n)), np.full((1, n), p - 1)])
    x[[1, 3], ::2] = 0
    y = np.full((n, 3), p - 1, dtype=np.int64)
    y[:, 1] = rng.integers(0, p, n)
    y[::3, 2] = 0
    plus = rng.integers(0, p, (len(x), 3))
    plus[0] = p - 1
    prod = matmul_mod(x, y, p)
    group = range(limbs)
    for pl in (None, plus):
        want = prod if pl is None else (prod + pl) % p
        if limbs <= per_call:
            xl = exactlin._split(exactlin._balance(x, p), p, b, group)
            assert exactlin._limb_product(xl, y, p, b, group, pl).tolist() == want.tolist()
        assert exactlin._matmul_mod(x, y, p, plus=pl, weigh_y=True).tolist() == want.tolist()
        # a stack of two x's against one y, and one x against two y's
        xs, ys = np.stack([x, x[::-1]]), np.stack([y, y[:, ::-1]])
        pls = None if pl is None else np.stack([pl, pl])
        got = exactlin._matmul_mod(xs, y, p, plus=pls, weigh_y=True)
        assert got.tolist() == [want.tolist(), matmul_mod(x[::-1], y, p).tolist()
                                if pl is None else ((matmul_mod(x[::-1], y, p) + pl) % p).tolist()]
        got = exactlin._matmul_mod(x, ys, p, plus=pls, weigh_y=True)
        assert got[0].tolist() == want.tolist()
        assert got[1].tolist() == (want[:, ::-1] if pl is None
                                   else (prod[:, ::-1] + pl) % p).tolist()


@pytest.mark.parametrize("p", (3, 65521, P20, P31))
def test_elimination_product_takes_one_matmul(monkeypatch, p):
    # on the workspace every product of inner dimension up to 64 is one
    # np.matmul call, at n = 64 and at a sub-panel's 16, the balanced
    # extremes in x and p - 1 in y and in plus
    calls = []
    matmul = np.matmul

    def count(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", count)
    rng = np.random.default_rng([53, p])
    work = exactlin._workspace(NB + 7, p)
    for n, cols in ((NB, exactlin._SLAB), (SUB, NB)):
        x = rng.choice([0, (p - 1) // 2, (p + 1) // 2, p - 1], (NB + 7, n)).astype(np.int32)
        y = np.full((n, cols), p - 1, dtype=np.int32)
        plus = np.full((NB + 7, cols), p - 1, dtype=np.int32)
        want = (matmul_mod(x, y, p) + plus) % p
        calls.clear()
        got = exactlin._matmul_mod(x, y, p, plus=plus, work=work)
        assert len(calls) == 1 and got.tolist() == want.tolist()
        assert np.shares_memory(got, work[3])


@pytest.mark.parametrize("p", (3, 65521, P20, P31))
def test_reduce_matches_python_mod(p):
    # int64 values from -(p - 1)**2 to 2**62, mixed signs, both ends
    # included, below and above the np.remainder cut, and on a strided
    # view reduced in place
    rng = np.random.default_rng([47, p])
    lo, hi = -((p - 1) ** 2), 1 << 62
    for size in (exactlin._REDUCE_MIN - 1, exactlin._REDUCE_MIN, 3 * exactlin._REDUCE_MIN + 1):
        x = rng.integers(lo, hi, size, dtype=np.int64, endpoint=True)
        x[:6] = [lo, hi, -1, 0, 1, p]
        want = [v % p for v in x.tolist()]
        assert exactlin._reduce(x.copy(), p).tolist() == want
        wide = np.zeros((size, 3), dtype=np.int64)
        wide[:, 1] = x
        exactlin._reduce(wide[:, 1], p)
        assert wide[:, 1].tolist() == want and not wide[:, ::2].any()


@pytest.mark.parametrize("diagonal", [P31 - 1, P31 - 2, 0])
@pytest.mark.parametrize("cols", [CROSSOVER, 3 * NB + 5])
def test_entries_at_int32_limit_match_oracle(path, cols, diagonal):
    # every entry p - 1, so any product taken in int32 would wrap; with
    # p - 2 on the diagonal the top square is -(J + I), of full rank, and
    # with 0 it is -(J - I), of full rank, whose first pivot lies below the
    # diagonal, so a window swaps rows.  Blocked, with 2 * NB more rows
    # than columns every sub-panel factors on a window, and its rows
    # below take both products.
    for rows in (cols + 3, cols + 2 * NB):
        m = np.full((rows, cols), P31 - 1, dtype=np.int64)
        np.fill_diagonal(m, diagonal)
        a, pivots, basis = assert_echelon_matches_oracle(m, P31)
        assert len(pivots) == (1 if diagonal == P31 - 1 else cols)
        assert a.tolist() == cup(m, P31)[0].tolist()
        # free coordinates 0, the identity's and all p - 1
        nf = len(basis)
        xf = np.hstack([np.zeros((nf, 1), dtype=np.int64), np.eye(nf, dtype=np.int64),
                        np.full((nf, 1), P31 - 1)])
        x = exactlin._kernel(a, pivots, xf, P31)
        want = np.vstack([np.zeros((1, cols), dtype=np.int64), basis,
                          -basis.sum(axis=0, keepdims=True) % P31])
        assert x.dtype == np.int32 and x.T.tolist() == want.tolist()


@pytest.mark.parametrize("k", [1, 2, 3, SUB - 1, SUB, SUB + 1, NB - 1, NB])
def test_lower_inverse_at_int32_limit_matches_oracle(k):
    # the pivot block as stored, every entry p - 1; the oracle reduces
    # [L | I], and [U | I] for the unit upper triangle a window inverts;
    # odd and even k, as the steps take two columns at a time
    t = np.full((k, k), P31 - 1, dtype=np.int32)
    eye = np.eye(k, dtype=np.int64)
    for inverse, tri in ((exactlin._lower_inverse, np.tril(t.astype(np.int64))),
                         (exactlin._unit_upper_inverse, np.triu(t.astype(np.int64), 1) + eye)):
        want = _echelon(np.hstack([tri, eye]), P31, reduced=True)[0]
        assert inverse(t, P31).tolist() == want[:, k:].tolist()


@pytest.mark.parametrize("m, k", [(6, 8), (7, 14), (8, 27), (9, 27), (10, 40), (10, 50)])
def test_terracini_matrices_factor_as_oracle(m, k):
    # the plain path at m = 6, 7 and the blocked one above, where m = 10
    # takes 25 windows, 3 of them falling back, at k = 40 and 32, 5 of
    # them falling back, at k = 50; two copies factored one after the
    # other in one process share no buffer
    mat = binary_terracini(m, k, P31)
    want, pivots = cup(mat, P31)
    assert mat.dtype == np.int32
    copies = [mat, mat.copy()]
    assert [exactlin._eliminate(a, P31) for a in copies] == [pivots, pivots]
    for a in copies:
        assert a.tolist() == want.tolist()


# The first factorisation of the fill-evidence matrix (binary m=10, k=93,
# seed 0) in a fresh interpreter, and the minor page faults it takes.
FIRST_ELIMINATION = """
import resource
from segreid.exactlin import _eliminate
from segreid.segre import ProductShape
from segreid.terracini import _trials
p = 2**31 - 1
_, _, mat = next(_trials(ProductShape.binary(10), 93, 1, p, 0))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert len(_eliminate(mat, p)) == 1024
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_first_elimination_in_a_process_reuses_its_workspace():
    # one workspace per elimination: about 900 faults, a few hundred more
    # than its buffers' pages; temporaries handed back to the system after
    # every product took about 30000
    pytest.importorskip("resource")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", FIRST_ELIMINATION],
                         capture_output=True, text=True, env=env, check=True)
    assert int(run.stdout) < 8000
