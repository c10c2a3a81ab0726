"""Products of projective spaces and their multilinear embedding.

A point of P^{n_1} x ... x P^{n_m} is a tuple of coordinate vectors,
one per factor.  The embedding sends it to the iterated Kronecker
product of those vectors with the leftmost factor slowest: coordinate
(j_1, ..., j_m) of the image lives at flat index
j_1 * S_1 + ... + j_m * S_m with strides S_i = prod_{l > i} (n_l + 1).
This coordinate order is fixed once and recorded in every certificate
so that hyperplane vectors from different runs are comparable.

Points live here, in the package's one affine chart, the one that
freezes coordinate 0 of every factor.  ``_random_points`` draws a
trial's points as one array of nonzero residues, so in the chart, and
``random_point`` one point; ``coerce_points`` reduces and checks the
points a caller supplies.  Tangent data is the affine tangent
frame (``_frames``): the embedded point plus the partials of that
chart's parametrization, the single-slot substitutions
q_1 x ... x e_j (slot i) x ... x q_m with j >= 1, so a frame has
1 + sum(n_i) rows; the Terracini matrices stack them.  The frames, and
the frames of factor halves that the contact Hessians of ``tangency``
use, are built from partial products per point
(``_partial_products``), the Kronecker products of the factors before
and after each slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactlin import SplitMix64, _integer_array, _reduce

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


def _random_points(shape: ProductShape, rng: SplitMix64, p: int, count: int) -> tuple[np.ndarray, ...]:
    """``count`` points in the chart, stacked per factor as ``coerce_points``
    returns them: every coordinate uniform in F_p minus zero, drawn point
    by point, factor by factor, coordinate by coordinate, as one array."""
    draws = rng.nonzero_residues(p, count * sum(shape.coord_sizes)).reshape(count, -1)
    return tuple(np.split(draws, np.cumsum(shape.coord_sizes)[:-1], axis=1))


def random_point(shape: ProductShape, rng: SplitMix64, p: int) -> tuple[np.ndarray, ...]:
    """Point in the chart: ``_random_points`` for one point, one array per factor."""
    return tuple(f[0] for f in _random_points(shape, rng, p, 1))


def segre_embed(shape: ProductShape, point, p: int) -> np.ndarray:
    """Iterated Kronecker product of the factors, leftmost slowest."""
    q = coerce_point(shape, point, p)
    out = np.array([1], dtype=np.int64)
    for f in q:
        out = np.kron(out, f) % p
    return out


def _kron(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Row-wise Kronecker product of two (N, .) residue arrays, reduced."""
    return _reduce((x[:, :, None] * y[:, None, :]).reshape(len(x), x.shape[1] * y.shape[1]), p)


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


def _write_frames(frames: np.ndarray, qs: tuple[np.ndarray, ...], p: int, first: int) -> None:
    """Fill the zeroed (N, rows, S) ``frames`` of the factors ``qs``: row 0
    is the embedding ``before[m] x q_m``, and the rows after it hold
    ``before[i] x e_j x after[i]`` (``_partial_products``), slot by slot
    and j from ``first`` up, as ``before[i] x after[i]`` in slot value j
    of the row's (B_i, n_i + 1, A_i) view."""
    before, after = _partial_products(qs, p)
    n, _, cols = frames.shape
    frames[:, 0] = _kron(before[-1], qs[-1], p)
    row = 1
    for b, a in zip(before, after):
        wb, wa = b.shape[1], a.shape[1]
        slots = frames.reshape(n, -1, wb, cols // (wb * wa), wa)
        ba = _kron(b, a, p).reshape(n, wb, wa)
        for j in range(first, slots.shape[3]):
            slots[:, row, :, j] = ba
            row += 1


def _full_frames(qs: tuple[np.ndarray, ...], p: int) -> np.ndarray:
    """Per point, the embedding of the factors ``qs`` and then every
    single-slot substitution, j = 0 included: (N, 1 + R, S) int64
    residues, R the sum and S the product of the factors' sizes."""
    sizes = [f.shape[1] for f in qs]
    out = np.zeros((len(qs[0]), 1 + sum(sizes), math.prod(sizes)), dtype=np.int64)
    _write_frames(out, qs, p, 0)
    return out


# Bytes of int64 partial products held at a time: a point's take about
# 8 * (r + 1) entries, the Kronecker temporaries included.
_FRAME_CHUNK = 1 << 20


def _frames(qs: tuple[np.ndarray, ...], p: int) -> np.ndarray:
    """Per point: the embedded point, then each substitution with j >= 1.

    ``qs`` holds each factor's coordinates, (N, n_i + 1), in the chart
    (``coerce_points``).  Returns the (N, rows, r + 1) int32 residues
    that ``_write_frames`` fills, a chunk of points at a time, so that
    its int64 partial products stay within ``_FRAME_CHUNK`` bytes (one
    point at least).
    """
    n = len(qs[0])
    cols = math.prod(f.shape[1] for f in qs)
    out = np.zeros((n, 1 + sum(f.shape[1] - 1 for f in qs), cols), dtype=np.int32)
    step = max(1, _FRAME_CHUNK // (8 * cols * 8))
    for a in range(0, n, step):
        _write_frames(out[a : a + step], tuple(f[a : a + step] for f in qs), p, 1)
    return out
