"""Products of projective spaces and their multilinear embedding.

A point of P^{n_1} x ... x P^{n_m} is a tuple of coordinate vectors,
one per factor.  The embedding sends it to the iterated Kronecker
product of those vectors with the leftmost factor slowest: coordinate
(j_1, ..., j_m) of the image lives at flat index
j_1 * S_1 + ... + j_m * S_m with strides S_i = prod_{l > i} (n_l + 1).
This coordinate order is fixed once and recorded in every certificate
so that hyperplane vectors from different runs are comparable.

Points live here: ``random_point`` draws them, and ``coerce_points``
keeps them in the package's one affine chart, the one that freezes
coordinate 0 of every factor.  Tangent data is the affine tangent
frame (``_frames``): the embedded point plus the partials of that
chart's parametrization, the single-slot substitutions
q_1 x ... x e_j (slot i) x ... x q_m with j >= 1, so a frame has
1 + sum(n_i) rows; the Terracini matrices stack them.  The frames and
the contact Hessians of ``tangency`` are built from one set of partial
products per point (``_partial_products``), the Kronecker products of
the factors before and after each slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactlin import SplitMix64, _integer_array

# One name for the Kronecker coordinate convention, embedded in certificates.
COORDINATE_ORDER = "lex-leftmost-slowest"


@dataclass(frozen=True)
class ProductShape:
    """Factor dimensions (n_1, ..., n_m) of a product of projective spaces."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.factor_dims)
        object.__setattr__(self, "factor_dims", dims)
        if len(dims) < 2:
            raise ValueError("a product shape needs at least two factors")
        if any(n < 1 for n in dims):
            raise ValueError("every factor dimension must be >= 1")

    @classmethod
    def binary(cls, m: int) -> "ProductShape":
        """The m-fold product of projective lines."""
        return cls((1,) * m)

    @property
    def num_factors(self) -> int:
        return len(self.factor_dims)

    @property
    def dim(self) -> int:
        """Dimension of the product variety itself."""
        return sum(self.factor_dims)

    @property
    def ambient_dim(self) -> int:
        """r with the embedding landing in P^r: prod(n_i + 1) - 1."""
        return math.prod(self.coord_sizes) - 1

    @property
    def coord_sizes(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.factor_dims)

    @property
    def is_binary(self) -> bool:
        return all(n == 1 for n in self.factor_dims)


def coerce_point(shape: ProductShape, point, p: int) -> tuple[np.ndarray, ...]:
    """Validate a point against the shape and reduce its coordinates mod p.

    Raises ValueError for non-integer coordinates.
    """
    factors = tuple(_integer_array(f) % p for f in point)
    if len(factors) != shape.num_factors:
        raise ValueError(
            f"point has {len(factors)} factors, shape has {shape.num_factors}"
        )
    for i, (f, size) in enumerate(zip(factors, shape.coord_sizes)):
        if f.shape != (size,):
            raise ValueError(
                f"factor {i} has shape {f.shape}, expected ({size},)"
            )
    return factors


def coerce_points(shape: ProductShape, points, p: int) -> tuple[np.ndarray, ...]:
    """``coerce_point`` on each point, stacked per factor: (N, n_i + 1) arrays.

    Every point must lie in the chart: raises ValueError naming the
    first point, and its first factor, whose coordinate 0 is 0 mod p.
    """
    each = [coerce_point(shape, point, p) for point in points]
    qs = tuple(
        np.array([q[i] for q in each], dtype=np.int64).reshape(len(each), size)
        for i, size in enumerate(shape.coord_sizes)
    )
    bad = np.argwhere(np.stack([f[:, 0] == 0 for f in qs], axis=1))
    if bad.size:
        a, i = bad[0]
        raise ValueError(
            f"point {a}: factor {i} has first coordinate 0 mod {p}:"
            " chart invalid at this point"
        )
    return qs


def random_point(shape: ProductShape, rng: SplitMix64, p: int) -> tuple[np.ndarray, ...]:
    """Point in the chart: every coordinate uniform in F_p minus zero,
    drawn factor by factor, coordinate by coordinate."""
    return tuple(
        np.array([rng.nonzero_residue(p) for _ in range(n + 1)], dtype=np.int64)
        for n in shape.factor_dims
    )


def segre_embed(shape: ProductShape, point, p: int) -> np.ndarray:
    """Iterated Kronecker product of the factors, leftmost slowest."""
    q = coerce_point(shape, point, p)
    out = np.array([1], dtype=np.int64)
    for f in q:
        out = np.kron(out, f) % p
    return out


def _kron(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Row-wise Kronecker product of two (N, .) residue arrays, reduced."""
    return (x[:, :, None] * y[:, None, :]).reshape(len(x), x.shape[1] * y.shape[1]) % p


def _partial_products(qs: tuple[np.ndarray, ...], p: int) -> tuple[list, list]:
    """Per point, ``before[i] = q_1 x ... x q_{i-1}`` and ``after[i] =
    q_{i+1} x ... x q_m`` for each slot i, as (N, .) int64 residues; an
    empty product is a column of ones.  The embedding itself,
    ``before[m] x q_m``, is left to the caller."""
    ones = np.ones((len(qs[0]), 1), dtype=np.int64)
    before, after = [ones], [ones]
    for f in qs[:-1]:
        before.append(_kron(before[-1], f, p))
    for f in qs[:0:-1]:
        after.insert(0, _kron(f, after[0], p))
    return before, after


# Bytes of int64 partial products held at a time: a point's take about
# 8 * (r + 1) entries, the Kronecker temporaries included.
_FRAME_CHUNK = 1 << 20


def _frames(qs: tuple[np.ndarray, ...], p: int) -> np.ndarray:
    """Per point: the embedded point, then each substitution with j >= 1.

    ``qs`` holds each factor's coordinates, (N, n_i + 1), in the chart
    (``coerce_points``).  Returns the (N, rows, r + 1) int32 residues,
    zeroed, then row 0 set to ``before[m] x q_m`` and row (i, j) to
    ``before[i] x after[i]`` in slot value j of its (B_i, n_i + 1, A_i)
    view, B_i and A_i the widths of ``before[i]`` and ``after[i]``
    (``_partial_products``).  Those int64 products are built a chunk of
    points at a time, within ``_FRAME_CHUNK`` bytes (one point at least).
    """
    n = len(qs[0])
    sizes = [f.shape[1] for f in qs]
    cols = math.prod(sizes)
    start = np.cumsum([1] + [d - 1 for d in sizes])
    out = np.zeros((n, start[-1], cols), dtype=np.int32)
    step = max(1, _FRAME_CHUNK // (8 * cols * 8))
    for a in range(0, n, step):
        chunk = tuple(f[a : a + step] for f in qs)
        before, after = _partial_products(chunk, p)
        frames = out[a : a + step]
        frames[:, 0] = _kron(before[-1], chunk[-1], p)
        for i, d in enumerate(sizes):
            wb, wa = before[i].shape[1], after[i].shape[1]
            slots = frames.reshape(len(frames), start[-1], wb, d, wa)
            row = _kron(before[i], after[i], p).reshape(len(frames), wb, wa)
            for j in range(1, d):
                slots[:, start[i] + j - 1, :, j] = row
    return out
