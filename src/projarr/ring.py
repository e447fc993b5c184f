"""The graded integral cohomology ring of a projective arrangement
complement, assembled from the level decomposition and the chain-level
meet product, plus the affine reduction.

Both modes build one `RingTable`: a graded direct sum of homology
summands, a basis of their generators, and a product coordinatized back
into one summand.  Projective mode has one summand per level k, and a
class at level k and simplicial degree r sits in cohomological degree
2n - 2k - r.  Duality is pure bookkeeping; no geometric chains on
projective space are ever built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chains import (
    HomologySummary,
    IntChain,
    _meet_shuffle,
    build_local_complex,
    build_relative_complex,
    homology,
    meet_product,
)
from .poset import IntersectionPoset


@dataclass(frozen=True)
class RingBasisElement:
    summand: int  # level k (projective) or poset element u (affine)
    r: int  # simplicial degree within the summand
    index: int  # position among the summand's generators in degree r
    degree: int  # cohomological degree
    torsion_order: int  # 0 = free

RingElement = dict[int, int]  # basis id -> coefficient (torsion reduced)


@dataclass
class Decomposition:
    poset: IntersectionPoset
    summaries: list[HomologySummary]  # per level k

    @property
    def n(self) -> int:
        return self.poset.n


def decompose(poset: IntersectionPoset) -> Decomposition:
    return Decomposition(
        poset, [homology(build_relative_complex(poset, k)) for k in range(poset.n + 1)]
    )


@dataclass
class RingTable:
    poset: IntersectionPoset
    summaries: dict[int, HomologySummary]  # summand -> its homology
    basis: list[RingBasisElement]
    products: dict[tuple[int, int], RingElement]
    poincare: list[int]
    ids: dict[tuple[int, int], list[int]]  # (summand, r) -> basis ids by generator index

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def unit_index(self) -> int:
        return next(i for i, b in enumerate(self.basis) if b.degree == 0)

    def reduce(self, el: RingElement) -> RingElement:
        out = {}
        for i, c in el.items():
            order = self.basis[i].torsion_order
            if order:
                c %= order
            if c:
                out[i] = c
        return out

    def multiply(self, a: RingElement, b: RingElement) -> RingElement:
        out: RingElement = {}
        for i, ca in a.items():
            for j, cb in b.items():
                for m, s in self.products[(i, j)].items():
                    out[m] = out.get(m, 0) + ca * cb * s
        return self.reduce(out)

    def representative(self, i: int) -> IntChain:
        """The cycle representing basis element i in its summand."""
        b = self.basis[i]
        summary = self.summaries[b.summand]
        return summary.complex.chain(summary.degrees[b.r].generators[b.index].vector, b.r)

    def element(self, summand: int, r: int, chain: IntChain) -> RingElement:
        """The ring element of a degree-r cycle of one summand."""
        coords = self.summaries[summand].class_of(chain, r)
        return {self.ids[(summand, r)][i]: c for i, c in enumerate(coords) if c}


def _ring(poset, summaries, degree_of, order, product) -> RingTable:
    """Assemble the table of a graded sum of summaries.

    degree_of(summand, r) is the cohomological degree, order the basis
    sort key, and product(a, b, c, d) the (summand, chain) that basis
    elements a, b with representatives c, d multiply to, or None when
    the product vanishes.  Every sort key ends in the generator index,
    so ids of one (summand, r) come out in generator order.
    """
    basis = [
        RingBasisElement(s, r, idx, degree_of(s, r), gen.order)
        for s, summary in summaries.items()
        for r, dh in enumerate(summary.degrees)
        for idx, gen in enumerate(dh.generators)
    ]
    basis.sort(key=order)
    ids: dict[tuple[int, int], list[int]] = {}
    for i, b in enumerate(basis):
        ids.setdefault((b.summand, b.r), []).append(i)
    poincare = [0] * (2 * poset.n + 1)
    for b in basis:
        if b.torsion_order == 0:
            poincare[b.degree] += 1
    table = RingTable(poset, summaries, basis, {}, poincare, ids)
    reps = [table.representative(i) for i in range(len(basis))]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            hit = product(a, b, reps[i], reps[j])
            table.products[(i, j)] = table.element(hit[0], a.r + b.r, hit[1]) if hit else {}
    return table


def ring_table(dec: Decomposition) -> RingTable:
    poset, n = dec.poset, dec.n
    summaries = dict(enumerate(dec.summaries))

    def product(a, b, c, d):
        m = a.summand + b.summand - n
        if m < 0 or summaries[m].complex.dim(a.r + b.r) == 0:
            return None
        return m, meet_product(poset, a.summand, b.summand, c, d)

    return _ring(
        poset, summaries, lambda k, r: 2 * n - 2 * k - r,
        lambda b: (b.degree, -b.summand, b.r, b.index), product,
    )


def poincare_polynomial(dec: Decomposition) -> list[int]:
    """Free rank of H^i, i = 0..2n, as a coefficient list."""
    n = dec.n
    out = [0] * (2 * n + 1)
    for k in range(n + 1):
        for r, dh in enumerate(dec.summaries[k].degrees):
            out[2 * n - 2 * k - r] += dh.free_rank
    return out


@dataclass
class AxiomReport:
    passed: bool
    failures: list[str] = field(default_factory=list)


def verify_ring_axioms(table: RingTable) -> AxiomReport:
    """Pairwise laws on every pair; associativity on triples of degree sum
    ≤ 2n, since on the rest the pairwise laws force both sides to 0."""
    failures = []
    m = len(table.basis)
    degree = [b.degree for b in table.basis]
    top = 2 * table.n
    unit = {table.unit_index: 1}
    for i in range(m):
        if table.multiply(unit, {i: 1}) != table.reduce({i: 1}):
            failures.append(f"unit law fails on left of basis {i}")
        if table.multiply({i: 1}, unit) != table.reduce({i: 1}):
            failures.append(f"unit law fails on right of basis {i}")
    for i in range(m):
        for j in range(m):
            prod = table.products[(i, j)]
            target = degree[i] + degree[j]
            if any(degree[t] != target for t in prod):
                failures.append(f"degree additivity fails on ({i},{j})")
            if target > top and prod:
                failures.append(f"nonzero product above top degree on ({i},{j})")
            sign = -1 if (degree[i] % 2 and degree[j] % 2) else 1
            flipped = table.reduce({t: sign * c for t, c in table.products[(j, i)].items()})
            if table.reduce(dict(prod)) != flipped:
                failures.append(f"graded commutativity fails on ({i},{j})")
    by_degree = sorted(range(m), key=degree.__getitem__)
    for i in range(m):
        for j in range(m):
            for t in by_degree:
                if degree[i] + degree[j] + degree[t] > top:
                    break
                left = table.multiply(table.products[(i, j)], {t: 1})
                right = table.multiply({i: 1}, table.products[(j, t)])
                if left != right:
                    failures.append(f"associativity fails on ({i},{j},{t})")
    return AxiomReport(not failures, failures)


def affine_decompose(poset: IntersectionPoset, infinity_index: int) -> RingTable:
    """The cohomology ring of the affine complement with A_0 at infinity.

    Summands are indexed by the affine poset Q' (intersections not inside
    A_0); the summand at u is the homology of the pair
    (Δ[u,V], Δ[u,V) ∪ Δ(u,V]) shifted into degree 2n - 2 d(u) - m.
    """
    poset.arr.check_member_index("infinity_index", infinity_index)
    a0_sub = poset.arr.subspaces[infinity_index]
    if a0_sub.dim - 1 != poset.n - 1:
        raise ValueError("infinity_index must name a hyperplane")
    a0 = poset.index_of(a0_sub)
    n = poset.n
    summaries = {
        u: homology(build_local_complex(poset, u))
        for u in range(len(poset.elements)) if not poset.leq[u][a0]
    }

    def product(a, b, c, d):
        w = poset.meet[a.summand][b.summand]
        if w not in summaries or poset.d[w] != poset.d[a.summand] + poset.d[b.summand] - n:
            return None
        return w, _meet_shuffle(poset, c, d)

    return _ring(
        poset, summaries, lambda u, m: 2 * n - 2 * poset.d[u] - m,
        lambda b: (b.degree, poset.d[b.summand], b.summand, b.r, b.index), product,
    )
