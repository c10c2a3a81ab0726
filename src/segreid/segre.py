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
1 + sum(n_i) rows; the Terracini matrices stack them.
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


# Bytes of int64 frames built at a time: each chunk of points is built
# wide, then reduced values are narrowed into the int32 result.
_FRAME_CHUNK = 1 << 20


def _frames(qs: tuple[np.ndarray, ...], p: int) -> np.ndarray:
    """Per point: the embedded point, then each substitution with j >= 1.

    ``qs`` holds each factor's coordinates, (N, n_i + 1), in the chart
    (``coerce_points``).  Returns the (N, rows, r + 1) int32 residues.
    The products need int64, so the frames are built in one int64
    buffer of at most ``_FRAME_CHUNK`` bytes (one point when a frame is
    larger), a chunk of points at a time, and each chunk is narrowed
    into the result: no int64 array of the result's size is made.
    """
    n = len(qs[0])
    sizes = [f.shape[1] for f in qs]
    rows = 1 + sum(d - 1 for d in sizes)
    out = np.empty((n, rows, int(np.prod(sizes))), dtype=np.int32)
    step = max(1, _FRAME_CHUNK // (out[0].size * 8))
    wide = np.empty((min(n, step),) + out.shape[1:], dtype=np.int64)
    for a in range(0, n, step):
        chunk = wide[: min(step, n - a)]
        _fill_frames(chunk, tuple(f[a : a + len(chunk)] for f in qs), p)
        out[a : a + len(chunk)] = chunk
    return out


def _fill_frames(out: np.ndarray, qs: tuple[np.ndarray, ...], p: int) -> None:
    """``_frames`` of the points ``qs`` into the int64 array ``out``.

    One pass over the factors, last to first, in place: step i starts
    factor i's rows as e_j times the point's product over the later
    factors, then multiplies the point's and the later factors' rows by
    q_i, one reduction per product.
    """
    n = len(out)
    sizes = [f.shape[1] for f in qs]
    start = np.cumsum([1] + [d - 1 for d in sizes])
    out[...] = 0
    out[:, 0, -1] = 1
    w = 1
    for i in range(len(qs) - 1, -1, -1):
        f, d = qs[i], sizes[i]
        # (N, rows, n_i + 1, w): the last (n_i + 1) * w columns, in blocks
        tail = out.reshape(n, start[-1], -1, d, w)[:, :, -1]
        for j in range(1, d):
            tail[:, start[i] + j - 1, j] = tail[:, 0, -1]
        for rows in (tail[:, :1], tail[:, start[i + 1] :]):
            np.multiply(rows[:, :, -1:], f[:, None, :-1, None], out=rows[:, :, :-1])
            rows[:, :, -1] *= f[:, None, -1:]
            rows %= p
        w *= d
