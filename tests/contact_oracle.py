"""Reference contact-locus and frame code: one point and one factor pair at a time.

``segreid.tangency`` and ``segreid.terracini`` used these before the
residuals, Jacobians and Terracini rows were computed in one batched
pass over all points.  They are kept verbatim as the oracle the batched
code must match byte for byte, together with the degree-1 dual-number
evaluation ``first_order_residuals`` that checks the Jacobian is the
derivative of the residuals, and ``tangent_frame``, which builds every
single-slot substitution from ``segre_embed`` itself.
"""

from __future__ import annotations

import numpy as np

from segreid.segre import ProductShape, coerce_point, segre_embed


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


def chart_rows(shape: ProductShape) -> np.ndarray:
    """Indices of the chart rows (i, j), j >= 1, among the sum(n_i + 1)
    residual rows: the rows ``segreid.tangency`` forms of the Jacobian
    in the chart that freezes slot 0."""
    at = np.cumsum((0,) + shape.coord_sizes)
    return np.delete(np.arange(at[-1]), at[:-1])


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


def tangent_frame(shape: ProductShape, point, p: int) -> np.ndarray:
    """All single-slot substitutions, one row per (factor, basis slot).

    Row (i, j) is the embedding of the point with factor i replaced by
    e_j.  sum(n_i + 1) rows; whenever every factor vector is nonzero they
    span a space of dimension exactly 1 + sum(n_i), and contracting the
    factor-i block with q_i rebuilds the embedded point, for every i.
    """
    q = coerce_point(shape, point, p)
    rows = []
    for i, size in enumerate(shape.coord_sizes):
        for e in np.eye(size, dtype=np.int64):
            rows.append(segre_embed(shape, q[:i] + (e,) + q[i + 1 :], p))
    return np.array(rows, dtype=np.int64)


def _prefix_suffix(q: tuple[np.ndarray, ...], p: int):
    """Kronecker products of the factors before and after each slot."""
    m = len(q)
    pre = [np.array([1], dtype=np.int64)]
    for i in range(m):
        pre.append(np.kron(pre[-1], q[i]) % p)
    suf = [np.array([1], dtype=np.int64)] * (m + 1)
    for i in range(m - 1, -1, -1):
        suf[i] = np.kron(q[i], suf[i + 1]) % p
    return pre, suf


def affine_tangent_frame(shape: ProductShape, point, p: int) -> np.ndarray:
    """Embedded point plus chart partials: 1 + sum(n_i) rows.

    The chart freezes coordinate 0 of every factor, so the partials are
    the substitutions with j >= 1.  Same span as ``tangent_frame`` when
    every frozen coordinate is nonzero (the slot-0 substitution is the
    point minus the others, scaled by the inverse frozen coordinate),
    with the redundancy removed.  Raises if some q_i[0] is 0 mod p.
    """
    q = coerce_point(shape, point, p)
    for i, f in enumerate(q):
        if f[0] % p == 0:
            raise ValueError(
                f"factor {i} has first coordinate 0 mod {p}: chart invalid at this point"
            )
    pre, suf = _prefix_suffix(q, p)
    rows = [segre_embed(shape, q, p)]
    for i, size in enumerate(shape.coord_sizes):
        ps = np.outer(pre[i], suf[i + 1]) % p
        for j in range(1, size):
            row = np.zeros(len(pre[i]) * size * len(suf[i + 1]), dtype=np.int64)
            row.reshape(len(pre[i]), size, len(suf[i + 1]))[:, j, :] = ps
            rows.append(row)
    return np.array(rows, dtype=np.int64)


def terracini_matrix(shape: ProductShape, points, p: int) -> np.ndarray:
    """Stacked affine tangent frames at the given points.

    (k+1) * (1 + sum n_i) rows by r + 1 columns for k+1 points.  Its
    rank minus one is the dimension of the span of the tangent spaces.
    Each point must have nonzero first coordinates (points from
    ``random_point`` are nonzero everywhere).
    """
    if len(points) < 1:
        raise ValueError("need at least one point")
    return np.vstack([affine_tangent_frame(shape, q, p) for q in points])
