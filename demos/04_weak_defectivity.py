"""Tangent hyperplanes, contact loci, and identifiability verdicts.

A hyperplane from the Terracini kernel is tangent at all k+1 points.
The corank of the tangency Jacobian at a contact point measures the
local dimension of the contact locus: corank 0 certifies that a general
tangent hyperplane has isolated contact, which (below the dimension
bound) certifies generic k-identifiability.  Five lines at k=4 are the
classical counterexample: every corank comes out 1 because the contact
locus is a curve.
"""

from segreid import (
    ProductShape,
    VerdictStatus,
    identifiability_verdict,
    weak_defectivity_probe,
)

five = ProductShape.binary(5)
res = weak_defectivity_probe(five, 4, seed=0)
print(f"(P^1)^5 at k=4: observed/expected {res.observed_dim}/{res.expected_dim}")
print(f"  Terracini kernel dimension: {res.kernel_dim}")
print(f"  contact coranks at the 5 points: {list(res.coranks)}")
print(f"  certified: {res.certified} (corank 1 = one-dimensional contact locus)")
verdict = identifiability_verdict(five, 4, [res])
print(f"  verdict: {verdict.status.value}")
print()

six = ProductShape.binary(6)
res8 = weak_defectivity_probe(six, 8, seed=0)
print(f"(P^1)^6 at k=8: kernel {res8.kernel_dim}, coranks {sorted(set(res8.coranks))}")
print(f"  certified: {res8.certified}")
for k in (8, 5, 1):
    v = identifiability_verdict(six, k, [res8])
    via = f" (support from k={v.support_k})" if v.support_k != k else ""
    print(f"  k={k}: {v.status.value}{via}")
v9 = identifiability_verdict(six, 9, [res8])
print(f"  k=9: {v9.status.value}")
for note in v9.notes:
    print(f"    note: {note}")
assert v9.status is VerdictStatus.UNDETERMINED
