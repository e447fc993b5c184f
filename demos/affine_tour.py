"""Affine complements by sending one hyperplane to infinity.

The n+1 coordinate hyperplanes of CP^n leave the complex torus (C*)^n
once one of them is declared the hyperplane at infinity; the cohomology
is then an exterior algebra on n degree-1 classes.

Run with:  python3 demos/affine_tour.py
"""

from projarr import Arrangement, Subspace, affine_decompose, build_poset

n = 3
subspaces = []
for i in range(n + 1):
    rows = [
        [int(r == j) for j in range(n + 1)] for r in range(n + 1) if r != i
    ]
    subspaces.append(Subspace.from_span(n + 1, rows))
arr = Arrangement(n + 1, tuple(subspaces))

table = affine_decompose(build_poset(arr), infinity_index=0)
print(f"coordinate hyperplanes in CP^{n}, first one at infinity")
print("Betti numbers:", table.poincare, f"(binomials of {n}, as for the torus)")

ones = [i for i, b in enumerate(table.basis) if b.degree == 1]
print("degree-1 generators:", ones)
print("products (exterior algebra):")
for a in ones:
    for b in ones:
        entry = table.products[(a, b)]
        terms = " + ".join(f"{c}*e{t}" for t, c in entry.items()) or "0"
        print(f"  e{a} * e{b} = {terms}")
