"""Tour of the exact prime-field linear algebra underneath everything else.

Every rank and kernel in this package is computed over F_p with p just
below 2**31, using int64 arrays and one reduction per operation.  Large
eliminations run their block products on float64 BLAS, but only on
pieces of one factor narrow enough that their sums stay below 2**53,
where float64 is exact, so there are no tolerances: a rank is a theorem
about that prime and that matrix.
"""

import numpy as np

from segreid import DEFAULT_PRIMES, SplitMix64, check_prime, ff_kernel, ff_rank

p = DEFAULT_PRIMES[0]
print(f"working prime: {p} (check_prime -> {check_prime(p)})")

rng = SplitMix64(2)
print(f"splitmix64 stream head: {rng.next_u64s(3).tolist()}")

def exact_product(x, y, q):
    # Python integers cannot overflow, so this product needs no care at all
    return np.asarray(x, dtype=object) @ np.asarray(y, dtype=object) % q


def plant(q, seed):
    # [I; R] @ [I | C] has rank exactly 4: at most by the factorization,
    # at least because the top-left 4x4 block is the identity
    rnd = SplitMix64(seed)
    rank = 4
    b = np.zeros((7, rank), dtype=np.int64)
    b[:rank] = np.eye(rank, dtype=np.int64)
    b[rank:] = rnd.residues(q, 3 * rank).reshape(3, rank)
    c = np.zeros((rank, 9), dtype=np.int64)
    c[:, :rank] = np.eye(rank, dtype=np.int64)
    c[:, rank:] = rnd.residues(q, rank * 5).reshape(rank, 5)
    return exact_product(b, c, q).astype(np.int64)


m = plant(p, seed=7)
print(f"planted 7x9 matrix: rank {ff_rank(m, p)} (built to be 4)")

ker = ff_kernel(m, p)
print(f"kernel basis: {ker.shape[0]} vectors of length 9 (9 - 4 = 5)")
residuals = [int(exact_product(m, v, p).max(initial=0)) for v in ker]
print(f"max entry of M v mod p over the basis: {max(residuals)} (exactly zero)")

print("same construction at every default prime:", end=" ")
print([ff_rank(plant(q, seed=7), q) for q in DEFAULT_PRIMES])
