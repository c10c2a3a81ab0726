"""The coordinate-product embedding and its tangent frames.

A tuple of factor vectors maps to their iterated Kronecker product,
leftmost factor slowest.  The tangent space at a smooth point is spanned
by the single-slot substitutions: replace one factor by a basis vector,
keep the rest.  The affine frame drops the redundancy by freezing the
first coordinate of every factor.
"""

import numpy as np

from segreid import (
    COORDINATE_ORDER,
    DEFAULT_PRIMES,
    ProductShape,
    SplitMix64,
    ff_rank,
    random_point,
    segre_embed,
    terracini_matrix,
)

p = DEFAULT_PRIMES[0]


def substitutions(shape, q):
    # one row per (factor i, basis slot j): factor i replaced by e_j, then embedded
    return np.array([
        segre_embed(shape, q[:i] + (e,) + q[i + 1 :], p)
        for i, size in enumerate(shape.coord_sizes)
        for e in np.eye(size, dtype=np.int64)
    ])


shape = ProductShape((1, 2))
print(f"shape {shape.factor_dims}: dim {shape.dim}, ambient P^{shape.ambient_dim}")
print(f"coordinate order: {COORDINATE_ORDER}")

q = (np.array([1, 2]), np.array([1, 3, 5]))
s = segre_embed(shape, q, p)
print(f"embed {tuple(f.tolist() for f in q)} -> {s.tolist()}")
print("  (index (i,j) lands at flat position i*3 + j)")

frame = substitutions(shape, q)
print(f"tangent frame: {frame.shape[0]} substitution rows, rank {ff_rank(frame, p)}")
slots = [(i, j) for i, size in enumerate(shape.coord_sizes) for j in range(size)]
for (i, j), v in zip(slots, frame):
    print(f"  slot ({i},{j}): {v.tolist()}")

aff = terracini_matrix(shape, [q], p)
print(f"affine frame: {aff.shape[0]} rows (point + chart partials), rank {ff_rank(aff, p)}")
both = ff_rank(np.vstack([frame, aff]), p)
print(f"stacked rank: {both} (same span: the redundancy is the per-factor scaling)")

rng = SplitMix64(1)
big = ProductShape((2, 2, 3))
pt = random_point(big, rng, p)
fr = substitutions(big, pt)
print(
    f"shape {big.factor_dims}: frame {fr.shape[0]} rows in {fr.shape[1]} coordinates,"
    f" rank {ff_rank(fr, p)} = 1 + {big.dim}"
)
