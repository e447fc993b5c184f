"""The graded integral cohomology ring of a projective arrangement
complement, assembled from the level decomposition and the chain-level
meet product or from the atomic complexes and the exterior product,
plus the affine reduction.

Every mode builds one `RingTable`: a graded direct sum of homology
summands, a basis of their generators, and a product coordinatized back
into one summand.  Projective mode has one summand per level k, and a
class at level k and simplicial degree r sits in cohomological degree
2n - 2k - r.  Duality is pure bookkeeping; no geometric chains on
projective space are ever built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .chains import (
    HomologySummary,
    IntChain,
    _atomic_level,
    _exterior,
    _meet_at_level,
    _meet_shuffle,
    _member_subsets,
    _relative_cells,
    build_local_complex,
    build_relative_complex,
    homology,
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
    products: dict[tuple[int, int], RingElement]  # (i, j) -> entry, its keys increasing
    poincare: list[int]
    ids: dict[tuple[int, int], list[int]]  # (summand, r) -> basis ids by generator index
    # the simplices of the summands: chains of Q to V ("relative"), member
    # subsets ("atomic"), or chains from the summand to V ("local", affine)
    model: str

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


def _ring(poset, summaries, degree_of, order, block, model) -> RingTable:
    """Assemble the table of a graded sum of summaries, one block of
    basis pairs at a time.

    degree_of(summand, r) is the cohomological degree, order the basis
    sort key, and block(a, b) decides the product of summands a and b
    once for all their classes: None when it vanishes, else the target
    summand and the chain-level product of two representatives.  A
    product's cells are cells of its target, so where the target has none
    in the product degree the chains are empty and read as no classes.
    Every sort key ends in the generator index, so ids of one (summand, r)
    come out in generator order, and the keys of each product entry
    increase.
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
    indices = range(len(basis))
    products = {(i, j): {} for i in indices for j in indices}
    table = RingTable(poset, summaries, basis, products, poincare, ids, model)
    reps = [table.representative(i) for i in indices]
    for (a, ra), rows in ids.items():
        for (b, rb), cols in ids.items():
            r = ra + rb
            hit = block(a, b)
            if hit is None:
                continue
            target, multiply = hit
            chains = [multiply(reps[i], reps[j]) for i in rows for j in cols]
            coords = iter(summaries[target].classes_of(chains, r))
            out = ids.get((target, r))
            for i in rows:
                for j in cols:
                    products[(i, j)] = {out[t]: c for t, c in enumerate(next(coords)) if c}
    return table


def _levels(poset, summaries, product, model) -> RingTable:
    """The table of the level summaries: the levels k and l multiply into
    level m = k + l - n, when m >= 0, by the chain product product(m)."""
    n = poset.n

    def block(k, l):
        m = k + l - n
        return None if m < 0 else (m, product(m))

    return _ring(
        poset, dict(enumerate(summaries)), lambda k, r: 2 * n - 2 * k - r,
        lambda b: (b.degree, -b.summand, b.r, b.index), block, model,
    )


def ring_table(dec: Decomposition) -> RingTable:
    poset = dec.poset
    memo: dict = {}  # one per table: each simplex pair is shuffled once
    return _levels(
        poset, dec.summaries, lambda m: partial(_meet_at_level, poset, m, memo=memo), "relative"
    )


def projective_ring(poset: IntersectionPoset) -> RingTable:
    """The projective ring from the smaller of its two models, both
    counted before either is built: the atomic complexes D^k, multiplied
    by the exterior product of member subsets, unless they have more
    cells than the relative complexes, else `ring_table(decompose(poset))`.
    f_k maps D^k into level k, quasi-isomorphically, and f(I)·f(J) =
    ±f(I ∪ J), so both give the same ring."""
    subsets = _member_subsets(poset, _relative_cells(poset))
    return ring_table(decompose(poset)) if subsets is None else _atomic_ring(poset, subsets)


def _atomic_ring(poset: IntersectionPoset, subsets: list) -> RingTable:
    """The table of the atomic complexes read off the listed subsets."""
    summaries = [homology(_atomic_level(poset, subsets, k)) for k in range(poset.n + 1)]
    return _levels(poset, summaries, lambda m: _exterior, "atomic")


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
    memo: dict = {}  # one per table: each simplex pair is shuffled once

    def block(u, v):
        w = poset.meet[u][v]
        if w not in summaries or poset.d[w] != poset.d[u] + poset.d[v] - n:
            return None
        return w, partial(_meet_shuffle, poset, memo=memo)

    return _ring(
        poset, summaries, lambda u, m: 2 * n - 2 * poset.d[u] - m,
        lambda b: (b.degree, poset.d[b.summand], b.summand, b.r, b.index), block, "local",
    )
