"""A guided tour: the cohomology ring of the complement of two skew
projective lines in CP^3, computed three independent ways.

Run with:  python3 demos/tour.py
"""

from projarr import (
    Arrangement,
    Subspace,
    build_poset,
    build_presentation,
    compare,
    decompose,
    pi_context,
    ring_table,
    verify_presentation,
)

# Two disjoint lines in CP^3: spans of {e0, e1} and {e2, e3} in C^4.
arr = Arrangement(
    4,
    (
        Subspace.from_span(4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
        Subspace.from_span(4, [(0, 0, 1, 0), (0, 0, 0, 1)]),
    ),
    ("L1", "L2"),
)

print("=== intersection poset ===")
poset = build_poset(arr)
for i, s in enumerate(poset.elements):
    print(f"  element {i}: projective dimension {poset.d[i]}")
print("(V on top, the two lines, and the empty intersection)")

print("\n=== cohomology ring ===")
dec = decompose(poset)
table = ring_table(dec)
print("Betti numbers:", table.poincare)
print("torsion:", [b.torsion_order for b in table.basis if b.torsion_order] or "none")
for i, b in enumerate(table.basis):
    print(f"  basis {i}: degree {b.degree} (level k={b.summand}, simplicial degree {b.r})")
print("nonzero products of basis elements:")
for (i, j), entry in sorted(table.products.items()):
    if entry and i <= j and table.basis[i].degree and table.basis[j].degree:
        terms = " + ".join(f"{c}*e{t}" for t, c in entry.items())
        print(f"  e{i} * e{j} = {terms}")

print("\n=== independent oracles ===")
report = compare(table)
print("Euler characteristic: engine", report.euler_engine, "oracle", report.euler_oracle)
print("all oracle checks passed:", report.passed)

print("\n=== presentation (the lines form a 2-arrangement) ===")
rep = verify_presentation(pi_context(table, build_presentation(poset, c=2)))
print("generators x (degree 2), y1 (degree 3); relation x^2 = 0")
print("degree / monomial-image rank / quotient rank / engine rank:")
for row in rep.degrees:
    print("  ", row)
print("presentation verified:", rep.passed)
