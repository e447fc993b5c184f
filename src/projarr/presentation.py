"""Generators-and-relations presentation of the complement ring for
c-arrangements, with the atomic-complex chain maps used to verify it
against the main engine.

Generators: x in degree 2 and y_1..y_t in degree 2c-1 (one per member
other than the chosen base member A_0).  Relations come in three
families: alternating sums over minimally dependent subfamilies
avoiding A_0, plain monomials for minimally dependent subfamilies
through A_0, and x^c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .chains import (
    ChainComplex,
    IntChain,
    _sum_columns,
    add_chains,
    build_relative_complex,
    complex_from_faces,
    homology,
    meet_chain,
)
from .linalg import make_matrix, rref, snf
from .poset import IntersectionPoset, is_c_arrangement, minimal_dependent_sets
from .ring import RingElement, RingTable

Monomial = tuple[int, tuple[int, ...]]  # (x power, sorted y indices)
Polynomial = dict[Monomial, int]


class NotCArrangement(ValueError):
    pass


def monomial_degree(mono: Monomial, c: int) -> int:
    s, ys = mono
    return 2 * s + (2 * c - 1) * len(ys)


def monomial_mul(a: Monomial, b: Monomial, c: int) -> tuple[int, Monomial] | None:
    """Product in R/(x^c); None when it vanishes (x power >= c or repeated y)."""
    s = a[0] + b[0]
    if s >= c:
        return None
    if set(a[1]) & set(b[1]):
        return None
    inversions = sum(1 for p in a[1] for q in b[1] if p > q)
    merged = tuple(sorted(a[1] + b[1]))
    return ((-1) ** inversions, (s, merged))


def poly_mul_monomial(mono: Monomial, poly: Polynomial, c: int) -> Polynomial:
    out: Polynomial = {}
    for m2, coeff in poly.items():
        res = monomial_mul(mono, m2, c)
        if res is None:
            continue
        sign, prod = res
        out[prod] = out.get(prod, 0) + sign * coeff
        if out[prod] == 0:
            del out[prod]
    return out


@dataclass
class Presentation:
    c: int
    t: int
    base_index: int
    member_of_y: dict[int, int]  # y index (1..t) -> member index in the arrangement
    relations: list[Polynomial]
    relation_kinds: list[str]  # "boundary-sum", "through-base", "x-power"

    def monomials(self, degree: int) -> list[Monomial]:
        """Spanning monomials of R/(x^c) in one degree, sorted."""
        out = []
        ydeg = 2 * self.c - 1
        for size in range(self.t + 1):
            rem = degree - ydeg * size
            if rem < 0 or rem % 2:
                continue
            s = rem // 2
            if s >= self.c:
                continue
            for ys in combinations(range(1, self.t + 1), size):
                out.append((s, ys))
        return sorted(out)


def build_presentation(poset: IntersectionPoset, c: int, base_index: int = 0) -> Presentation:
    if not is_c_arrangement(poset, c):
        raise NotCArrangement(f"not a {c}-arrangement")
    arr = poset.arr
    arr.check_member_index("base_index", base_index)
    members = [i for i in range(len(arr.subspaces)) if i != base_index]
    member_of_y = {j + 1: m for j, m in enumerate(members)}
    y_of_member = {m: j for j, m in member_of_y.items()}
    relations: list[Polynomial] = []
    kinds: list[str] = []
    for dep in minimal_dependent_sets(poset):
        if base_index in dep.indices:
            ys = tuple(sorted(y_of_member[i] for i in dep.indices if i != base_index))
            relations.append({(0, ys): 1})
            kinds.append("through-base")
        else:
            ys = tuple(sorted(y_of_member[i] for i in dep.indices))
            poly: Polynomial = {}
            for j in range(len(ys)):
                reduced = ys[:j] + ys[j + 1:]
                poly[(0, reduced)] = poly.get((0, reduced), 0) + (-1) ** j
            relations.append(poly)
            kinds.append("boundary-sum")
    relations.append({(c, ()): 1})
    kinds.append("x-power")
    return Presentation(c, len(members), base_index, member_of_y, relations, kinds)


def graded_ranks(p: Presentation, max_degree: int) -> list[int]:
    """Rank over Q of each degree component of R/I, degrees 0..max_degree.

    The x^c relation is folded into the monomial spanning set; the other
    relations contribute all monomial multiples in the degree, quotiented
    by exact rational row reduction.
    """
    ranks = []
    for degree in range(max_degree + 1):
        monos = p.monomials(degree)
        if not monos:
            ranks.append(0)
            continue
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for rel, kind in zip(p.relations, p.relation_kinds):
            if kind == "x-power":
                continue  # already folded into the monomial set
            rel_deg = monomial_degree(next(iter(rel)), p.c)
            rem = degree - rel_deg
            if rem < 0:
                continue
            for mono in p.monomials(rem):
                multiple = poly_mul_monomial(mono, rel, p.c)
                if not multiple:
                    continue
                row = [Fraction(0)] * len(monos)
                for mo, coeff in multiple.items():
                    row[index[mo]] = Fraction(coeff)
                rows.append(row)
        quotient_rank = len(rref(make_matrix(rows))) if rows else 0
        ranks.append(len(monos) - quotient_rank)
    return ranks


# ---------------------------------------------------------------------------
# atomic complex and the chain maps into the relative complex


def atomic_complex(poset: IntersectionPoset, k: int) -> ChainComplex:
    """The shifted reduced chain complex D^k of the atomic complex S_k:
    degree r holds the r-subsets I of the members with d(∩I) >= k,
    degree 0 the empty simplex."""
    if not 0 <= k <= poset.n:
        raise ValueError("level k out of range")
    member_ids = [poset.index_of(s) for s in poset.arr.subspaces]
    bases: list[list[tuple]] = [[()]]
    t = len(member_ids)
    for size in range(1, t + 1):
        level = []
        for combo in combinations(range(t), size):
            q = poset.top
            for i in combo:
                q = poset.meet[q][member_ids[i]]
            if poset.d[q] >= k:
                level.append(combo)
        if not level:
            break
        bases.append(sorted(level))

    def faces(s):
        return [(s[:j] + s[j + 1:], (-1) ** j) for j in range(len(s))]

    return complex_from_faces(bases, faces)


def _alpha(poset: IntersectionPoset, member: int) -> IntChain:
    return {(poset.index_of(poset.arr.subspaces[member]), poset.top): 1}


def fk_chain(poset: IntersectionPoset, simplex: tuple[int, ...]) -> IntChain:
    """Iterated meet product of the 1-chains [A_i, V]; empty product = [V]."""
    chain: IntChain = {(poset.top,): 1}
    for member in simplex:
        chain = meet_chain(poset, chain, _alpha(poset, member))
    return chain


def gk_chain(poset: IntersectionPoset, base_index: int, simplex: tuple[int, ...]) -> IntChain:
    chain: IntChain = {(poset.top,): 1}
    base = _alpha(poset, base_index)
    for member in simplex:
        factor = add_chains(_alpha(poset, member), base, -1)
        chain = meet_chain(poset, chain, factor)
    return chain


@dataclass
class ChainMapData:
    atomic: ChainComplex
    relative: ChainComplex
    images: list[list[IntChain]]  # images[r][j]: the image chain of atomic.bases[r][j]


def _chain_map_images(atomic: ChainComplex, relative: ChainComplex, image, shift: int) -> list:
    """Per degree r, the chains image(r, simplex) in C^rel_{r+shift} of the
    basis simplices of D^k_r, each checked to lie in the target basis."""
    images = []
    for r in range(atomic.top_degree + 1):
        target = relative.index[r + shift] if r + shift <= relative.top_degree else {}
        chains = [image(r, simplex) for simplex in atomic.bases[r]]
        for chain in chains:
            outside = next((s for s in chain if s not in target), None)
            if outside is not None:
                raise RuntimeError(
                    f"chain map image outside the target complex in degree {r + shift}: {outside}"
                )
        images.append(chains)
    return images


def fk_chain_map(poset: IntersectionPoset, k: int) -> ChainMapData:
    atomic = atomic_complex(poset, k)
    relative = build_relative_complex(poset, k)
    images = _chain_map_images(atomic, relative, lambda r, s: fk_chain(poset, s), 0)
    return ChainMapData(atomic, relative, images)


def gk_level(n: int, c: int, k: int) -> int:
    """The block level a with n - (a+1)c < k <= n - ac."""
    return (n - k) // c


def gk_chain_map(poset: IntersectionPoset, c: int, base_index: int, k: int) -> ChainMapData:
    if not is_c_arrangement(poset, c):
        raise NotCArrangement(f"not a {c}-arrangement")
    atomic = atomic_complex(poset, k)
    relative = build_relative_complex(poset, k)
    a = gk_level(poset.n, c, k)

    def image(r, simplex):
        if r != a:
            return {}
        return gk_chain(poset, base_index, simplex)

    images = _chain_map_images(atomic, relative, image, 0)
    return ChainMapData(atomic, relative, images)


def homotopy_images(
    poset: IntersectionPoset, c: int, base_index: int, k: int,
    atomic: ChainComplex, relative: ChainComplex,
) -> list[list[IntChain]]:
    """K: D^k_r -> C^rel_{r+1}, the cone over the base member below level a."""
    a = gk_level(poset.n, c, k)

    def image(r, simplex):
        if r >= a or base_index in simplex:  # zero, or a degenerate cone simplex
            return {}
        return fk_chain(poset, (base_index,) + simplex)

    return _chain_map_images(atomic, relative, image, 1)


def _is_chain_map(data: ChainMapData) -> bool:
    """f(∂s) = ∂f(s) for every basis simplex s of the atomic complex."""
    atomic, images = data.atomic, data.images
    return all(
        _sum_columns(images[r - 1], col.items()) == data.relative.boundary(images[r][j], r)
        for r in range(1, atomic.top_degree + 1)
        for j, col in enumerate(atomic.boundaries[r])
    )


@dataclass
class VerificationReport:
    passed: bool
    detail: str = ""


def verify_fk_iso(poset: IntersectionPoset, k: int) -> VerificationReport:
    """Check that the atomic-complex comparison map induces an isomorphism
    on homology in every degree."""
    data = fk_chain_map(poset, k)
    if not _is_chain_map(data):
        return VerificationReport(False, "comparison map does not commute with boundaries")
    h_at = homology(data.atomic)
    h_rel = homology(data.relative)
    top = max(data.atomic.top_degree, data.relative.top_degree)
    for r in range(top + 1):
        da, dr = h_at.degree(r), h_rel.degree(r)
        free_r = dr.free_rank
        if da.free_rank != free_r or da.torsion != dr.torsion:
            return VerificationReport(False, f"group mismatch in degree {r}")
        if not da.generators:
            continue
        if da.torsion:
            return VerificationReport(
                False, f"torsion comparison in degree {r} unsupported"
            )
        cols = [
            h_rel.class_of(_sum_columns(data.images[r], enumerate(gen.vector)), r)
            for gen in da.generators
        ]
        matrix = [[cols[j][i] for j in range(len(cols))] for i in range(free_r)]
        if any(x != 1 for x in snf(matrix, left=False, right=False).diagonal()):
            return VerificationReport(False, f"induced map not unimodular in degree {r}")
    return VerificationReport(True)


def verify_fg_homotopic(poset: IntersectionPoset, c: int, base_index: int, k: int) -> VerificationReport:
    """Chain identity f - g = K∂ + ∂K on every basis simplex, plus
    class-level agreement."""
    fdata = fk_chain_map(poset, k)
    gdata = gk_chain_map(poset, c, base_index, k)
    if not _is_chain_map(fdata) or not _is_chain_map(gdata):
        return VerificationReport(False, "maps do not commute with boundaries")
    atomic, relative = fdata.atomic, fdata.relative
    kimages = homotopy_images(poset, c, base_index, k, atomic, relative)
    for r in range(atomic.top_degree + 1):
        for j, col in enumerate(atomic.boundaries[r]):
            want = add_chains(fdata.images[r][j], gdata.images[r][j], -1)
            # col is empty in degree 0, where K∂ vanishes
            got = add_chains(
                _sum_columns(kimages[r - 1], col.items()), relative.boundary(kimages[r][j], r + 1)
            )
            if want != got:
                return VerificationReport(False, f"homotopy identity fails in degree {r}")
    h_at = homology(atomic)
    h_rel = homology(relative)
    for r in range(atomic.top_degree + 1):
        for gen in h_at.degree(r).generators:
            f = _sum_columns(fdata.images[r], enumerate(gen.vector))
            g = _sum_columns(gdata.images[r], enumerate(gen.vector))
            if h_rel.class_of(f, r) != h_rel.class_of(g, r):
                return VerificationReport(False, f"classes differ in degree {r}")
    return VerificationReport(True)


# ---------------------------------------------------------------------------
# the presentation map into the engine's ring


@dataclass
class PiContext:
    presentation: Presentation
    table: RingTable
    x_image: RingElement
    y_images: dict[int, RingElement]


def pi_context(table: RingTable, pres: Presentation) -> PiContext:
    """The images of x and the y_i in the engine's ring table."""
    poset = table.poset
    arr = poset.arr
    n = poset.n
    top = poset.top
    x_image = table.element(n - 1, 0, {(top,): 1})
    y_images = {}
    base_id = poset.index_of(arr.subspaces[pres.base_index])
    for yi, member in pres.member_of_y.items():
        mid = poset.index_of(arr.subspaces[member])
        y_images[yi] = table.element(n - pres.c, 1, {(mid, top): 1, (base_id, top): -1})
    return PiContext(pres, table, x_image, y_images)


def pi_image(ctx: PiContext, monomial: Monomial) -> RingElement:
    s, ys = monomial
    out: RingElement = {ctx.table.unit_index: 1}
    for _ in range(s):
        out = ctx.table.multiply(out, ctx.x_image)
    for yi in ys:
        out = ctx.table.multiply(out, ctx.y_images[yi])
    return out


def pi_polynomial(ctx: PiContext, poly: Polynomial) -> RingElement:
    out: RingElement = {}
    for mono, coeff in poly.items():
        img = pi_image(ctx, mono)
        for i, v in img.items():
            out[i] = out.get(i, 0) + coeff * v
    return ctx.table.reduce(out)


@dataclass
class PresentationReport:
    passed: bool
    degrees: list[tuple[int, int, int, int]]  # (degree, pi rank, R/I rank, engine rank)
    torsion_flag: bool
    detail: str = ""


def verify_presentation(ctx: PiContext, max_degree: int | None = None) -> PresentationReport:
    """Thm-level verification: π kills every relation, and per degree the
    rational rank of the π-image of the monomial span equals both the
    R/I rank and the engine's free rank."""
    n = ctx.table.n
    if max_degree is None:
        max_degree = 2 * n
    for rel in ctx.presentation.relations:
        if pi_polynomial(ctx, rel):
            return PresentationReport(False, [], False, "relation not in the kernel")
    ranks_ri = graded_ranks(ctx.presentation, max_degree)
    torsion_flag = any(b.torsion_order for b in ctx.table.basis)
    rows_report = []
    ok = True
    for degree in range(max_degree + 1):
        engine_rank = ctx.table.poincare[degree] if degree < len(ctx.table.poincare) else 0
        free_ids = [
            i for i, b in enumerate(ctx.table.basis)
            if b.degree == degree and b.torsion_order == 0
        ]
        pos = {b: i for i, b in enumerate(free_ids)}
        rows = []
        for mono in ctx.presentation.monomials(degree):
            img = pi_image(ctx, mono)
            row = [Fraction(0)] * len(free_ids)
            for i, v in img.items():
                if ctx.table.basis[i].torsion_order == 0:
                    row[pos[i]] = Fraction(v)
            rows.append(row)
        pi_rank = len(rref(make_matrix(rows))) if rows and free_ids else 0
        rows_report.append((degree, pi_rank, ranks_ri[degree], engine_rank))
        if not (pi_rank == ranks_ri[degree] == engine_rank):
            ok = False
    return PresentationReport(ok and not torsion_flag, rows_report, torsion_flag)
