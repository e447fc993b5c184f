"""The graded integral cohomology ring of a projective arrangement
complement, assembled from the level decomposition and the chain-level
meet product, plus the affine reduction.

Degrees: a homology class at level k and simplicial degree r sits in
cohomological degree 2n - 2k - r.  Duality is pure bookkeeping; no
geometric chains on projective space are ever built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chains import (
    ChainComplex,
    HomologySummary,
    IntChain,
    build_local_complex,
    build_relative_complex,
    cross_shuffle,
    homology,
    meet_product,
    meet_push,
)
from .poset import IntersectionPoset


@dataclass(frozen=True)
class RingBasisElement:
    k: int  # level
    r: int  # simplicial degree
    index: int  # position among the level's generators in this degree
    degree: int  # cohomological degree 2n - 2k - r
    torsion_order: int  # 0 = free

RingElement = dict[int, int]  # basis id -> coefficient (torsion reduced)


@dataclass
class Decomposition:
    poset: IntersectionPoset
    complexes: list[ChainComplex]  # per level k
    summaries: list[HomologySummary]

    @property
    def n(self) -> int:
        return self.poset.n


def decompose(poset: IntersectionPoset) -> Decomposition:
    complexes = [build_relative_complex(poset, k) for k in range(poset.n + 1)]
    summaries = [homology(cx) for cx in complexes]
    return Decomposition(poset, complexes, summaries)


@dataclass
class RingTable:
    n: int
    decomposition: Decomposition
    basis: list[RingBasisElement]
    products: dict[tuple[int, int], RingElement]
    poincare: list[int]

    @property
    def unit_index(self) -> int:
        return next(
            i for i, b in enumerate(self.basis) if b.k == self.n and b.degree == 0
        )

    def basis_of_degree(self, degree: int) -> list[int]:
        return [i for i, b in enumerate(self.basis) if b.degree == degree]

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


def _enumerate_basis(dec: Decomposition) -> list[RingBasisElement]:
    n = dec.n
    out = []
    for k in range(n + 1):
        summary = dec.summaries[k]
        for r, dh in enumerate(summary.degrees):
            degree = 2 * n - 2 * k - r
            for idx, gen in enumerate(dh.generators):
                out.append(RingBasisElement(k, r, idx, degree, gen.order))
    out.sort(key=lambda b: (b.degree, -b.k, b.r, b.index))
    return out


def _representative(dec: Decomposition, b: RingBasisElement) -> IntChain:
    summary = dec.summaries[b.k]
    gen = summary.degrees[b.r].generators[b.index]
    return summary.complex.chain(gen.vector, b.r)


def _basis_product(dec, basis, ids_by_kr, a: RingBasisElement, b: RingBasisElement) -> RingElement:
    n = dec.n
    if a.k + b.k < n:
        return {}
    m = a.k + b.k - n
    r = a.r + b.r
    summary = dec.summaries[m]
    if summary.degree(r).generators == [] and summary.complex.dim(r) == 0:
        return {}
    c = _representative(dec, a)
    d = _representative(dec, b)
    prod = meet_product(dec.poset, a.k, b.k, c, d)
    coords = summary.class_of(prod, r)
    out: RingElement = {}
    for idx, val in enumerate(coords):
        if val:
            out[ids_by_kr[(m, r)][idx]] = val
    return out


def ring_table(dec: Decomposition) -> RingTable:
    n = dec.n
    basis = _enumerate_basis(dec)
    ids_by_kr: dict[tuple[int, int], list[int]] = {}
    for i, b in enumerate(basis):
        ids_by_kr.setdefault((b.k, b.r), []).append(i)
    for key in ids_by_kr:
        ids_by_kr[key].sort(key=lambda i: basis[i].index)
    products = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            products[(i, j)] = _basis_product(dec, basis, ids_by_kr, a, b)
    poincare = [0] * (2 * n + 1)
    for b in basis:
        if b.torsion_order == 0:
            poincare[b.degree] += 1
    table = RingTable(n, dec, basis, products, poincare)
    # reduce torsion coordinates once so the table is canonical
    for key in table.products:
        table.products[key] = table.reduce(table.products[key])
    return table


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
    failures = []
    basis = table.basis
    m = len(basis)
    unit = {table.unit_index: 1}

    def unit_basis(i):
        return {i: 1}

    for i in range(m):
        if table.multiply(unit, unit_basis(i)) != table.reduce(unit_basis(i)):
            failures.append(f"unit law fails on left of basis {i}")
        if table.multiply(unit_basis(i), unit) != table.reduce(unit_basis(i)):
            failures.append(f"unit law fails on right of basis {i}")
    for i in range(m):
        for j in range(m):
            prod = table.products[(i, j)]
            target = basis[i].degree + basis[j].degree
            if any(basis[t].degree != target for t in prod):
                failures.append(f"degree additivity fails on ({i},{j})")
            if target > 2 * table.n and prod:
                failures.append(f"nonzero product above top degree on ({i},{j})")
            sign = -1 if (basis[i].degree % 2 and basis[j].degree % 2) else 1
            flipped = table.reduce(
                {t: sign * c for t, c in table.products[(j, i)].items()}
            )
            if table.reduce(dict(prod)) != flipped:
                failures.append(f"graded commutativity fails on ({i},{j})")
    for i in range(m):
        for j in range(m):
            for t in range(m):
                left = table.multiply(table.products[(i, j)], {t: 1})
                right = table.multiply({i: 1}, table.products[(j, t)])
                if left != right:
                    failures.append(f"associativity fails on ({i},{j},{t})")
    return AxiomReport(not failures, failures)


# ---------------------------------------------------------------------------
# affine mode


@dataclass(frozen=True)
class AffineBasisElement:
    u: int  # poset element index in Q'
    m: int  # simplicial degree in the local pair
    index: int
    degree: int  # cohomological degree 2n - 2 d(u) - m
    torsion_order: int


@dataclass
class AffineTable:
    n: int
    poset: IntersectionPoset
    qprime: list[int]
    complexes: dict[int, ChainComplex]
    summaries: dict[int, HomologySummary]
    basis: list[AffineBasisElement]
    products: dict[tuple[int, int], dict[int, int]]
    poincare: list[int]

    def multiply(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, ca in a.items():
            for j, cb in b.items():
                for t, s in self.products[(i, j)].items():
                    out[t] = out.get(t, 0) + ca * cb * s
        for i in list(out):
            order = self.basis[i].torsion_order
            if order:
                out[i] %= order
            if not out[i]:
                del out[i]
        return out


def affine_decompose(poset: IntersectionPoset, infinity_index: int) -> AffineTable:
    """The cohomology ring of the affine complement with A_0 at infinity.

    Summands are indexed by the affine poset Q' (intersections not inside
    A_0); the summand at u is the homology of the pair
    (Δ[u,V], Δ[u,V) ∪ Δ(u,V]) shifted into degree 2n - 2 d(u) - m.
    """
    a0_sub = poset.arr.subspaces[infinity_index]
    if a0_sub.dim - 1 != poset.n - 1:
        raise ValueError("infinity_index must name a hyperplane")
    a0 = poset.index_of(a0_sub)
    qprime = [i for i in range(len(poset.elements)) if not poset.leq[i][a0]]
    n = poset.n
    complexes = {u: build_local_complex(poset, u) for u in qprime}
    summaries = {u: homology(cx) for u, cx in complexes.items()}
    basis: list[AffineBasisElement] = []
    for u in qprime:
        du = poset.d[u]
        for m, dh in enumerate(summaries[u].degrees):
            for idx, gen in enumerate(dh.generators):
                basis.append(
                    AffineBasisElement(u, m, idx, 2 * n - 2 * du - m, gen.order)
                )
    basis.sort(key=lambda b: (b.degree, poset.d[b.u], b.u, b.m, b.index))
    ids_by_um: dict[tuple[int, int], list[int]] = {}
    for i, b in enumerate(basis):
        ids_by_um.setdefault((b.u, b.m), []).append(i)

    def rep(b: AffineBasisElement) -> IntChain:
        s = summaries[b.u]
        return s.complex.chain(s.degrees[b.m].generators[b.index].vector, b.m)

    products: dict[tuple[int, int], dict[int, int]] = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            w = poset.meet[a.u][b.u]
            ok = w in qprime and poset.d[w] == poset.d[a.u] + poset.d[b.u] - n
            if not ok:
                products[(i, j)] = {}
                continue
            pushed = meet_push(poset, cross_shuffle(rep(a), rep(b)))
            chain = {
                s: v
                for s, v in pushed.items()
                if s[0] == w and s[-1] == poset.top
            }
            coords = summaries[w].class_of(chain, a.m + b.m)
            entry: dict[int, int] = {}
            for idx, val in enumerate(coords):
                if val:
                    entry[ids_by_um[(w, a.m + b.m)][idx]] = val
            products[(i, j)] = entry
    poincare = [0] * (2 * n + 1)
    for b in basis:
        if b.torsion_order == 0:
            poincare[b.degree] += 1
    return AffineTable(n, poset, qprime, complexes, summaries, basis, products, poincare)
