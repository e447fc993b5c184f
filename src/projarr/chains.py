"""Relative chain complexes of poset order complexes, the atomic
complexes of member subsets, their integral homology, and the
chain-level products: the meet product of chains of the poset and the
exterior product of member subsets.

Simplices are tuples of vertex ids (strictly increasing in the poset
order); chains are sparse dicts simplex -> integer coefficient.  All
homology is computed over Z via Smith normal form, with explicit
representative cycles and an exact coordinatizer per degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from itertools import combinations

from .linalg import snf
from .poset import IntersectionPoset

IntChain = dict[tuple, int]


def add_chains(a: IntChain, b: IntChain, factor: int = 1) -> IntChain:
    out = dict(a)
    for s, c in b.items():
        out[s] = out.get(s, 0) + factor * c
        if out[s] == 0:
            del out[s]
    return out


class NotACycle(ValueError):
    """Passed chain has nonzero relative boundary."""


Column = dict[int, int]  # the row -> value nonzeros of a matrix column


@dataclass
class ChainComplex:
    """A finitely generated chain complex with a distinguished simplex basis."""

    bases: list[list[tuple]]  # bases[r]: sorted simplices of degree r
    boundaries: list[list[Column]]  # boundaries[r][j]: ∂ of bases[r][j] in bases[r - 1]

    def __post_init__(self):
        self.index = [
            {s: i for i, s in enumerate(basis)} for basis in self.bases
        ]

    @property
    def top_degree(self) -> int:
        return len(self.bases) - 1

    def dim(self, r: int) -> int:
        return len(self.bases[r]) if 0 <= r <= self.top_degree else 0

    def chain(self, v, r: int) -> IntChain:
        return {self.bases[r][i]: int(c) for i, c in enumerate(v) if c}

    def boundary(self, chain: IntChain, r: int) -> IntChain:
        """∂ of a degree-r chain, summed over the columns at its simplices."""
        if not chain:
            return {}
        index = self.index[r]
        y = _sum_columns(self.boundaries[r], ((index[s], c) for s, c in chain.items()))
        return {self.bases[r - 1][i]: x for i, x in y.items()}


def _sum_columns(columns: list[dict], entries) -> dict:
    """Σ x·columns[j] over the (j, x) entries, one column read per entry,
    with the entries that cancel dropped."""
    y: dict = {}
    for j, x in entries:
        for k, c in columns[j].items():
            y[k] = y.get(k, 0) + x * c
    return {k: c for k, c in y.items() if c}


def complex_from_faces(bases: list[list[tuple]], faces) -> ChainComplex:
    """The complex on bases whose boundary follows the face rule, a
    simplex -> [(face, coeff)] function: the columns of each ∂_r, with
    cancelled entries dropped."""
    cx = ChainComplex(bases, [[{} for _ in bases[0]]])
    for idx, cur in zip(cx.index, bases[1:]):
        cols = []
        for s in cur:
            col: Column = {}
            for face, coeff in faces(s):
                i = idx[face]
                col[i] = col.get(i, 0) + coeff
            if 0 in col.values():
                col = {i: x for i, x in col.items() if x}
            cols.append(col)
        cx.boundaries.append(cols)
    return cx


@dataclass
class Generator:
    order: int  # 0 for free, t > 1 for torsion
    vector: list[int]


def _transpose(rows: list[dict[int, int]]) -> list[Column]:
    """The columns of the square matrix with these sparse rows."""
    cols: list[Column] = [{} for _ in rows]
    for k, row in enumerate(rows):
        for j, c in row.items():
            cols[j][k] = c
    return cols


def _identity_columns(n: int) -> list[Column]:
    return [{j: 1} for j in range(n)]


@dataclass
class DegreeHomology:
    """H_r presented as Z^free ⊕ ⊕ Z/t with an exact coordinatizer."""

    generators: list[Generator]
    # coordinatizer internals where H_r ≠ 0
    _vinv: list[Column]  # columns of the inverse SNF V of the boundary out of C_r
    _rank_out: int  # rank of that boundary; kernel coords start here
    _u2: list[Column]  # columns of the SNF U of the image presentation matrix
    _orders: list[int]  # per kernel coordinate, 0 free / 1 killed / t torsion
    _signs: list[int]
    # where H_r = 0: the columns of the boundary out of C_r
    _boundary: list[Column] = field(default_factory=list)

    @classmethod
    def empty(cls, boundary: list[Column] | None = None) -> "DegreeHomology":
        """H_r = 0; the boundary ∂_r still lets class_of reject non-cycles."""
        return cls([], [], 0, [], [], [], boundary or [])

    @property
    def free_rank(self) -> int:
        return sum(1 for g in self.generators if g.order == 0)

    @property
    def torsion(self) -> list[int]:
        return [g.order for g in self.generators if g.order > 1]

    def _coordinatize(self, entries) -> list[int]:
        """Coordinates of the cycle with (index, coefficient) entries: the
        V⁻¹ columns at those indices are summed, then U₂ is applied over
        the nonzero kernel coordinates only.  Where H_r = 0 a cycle is
        only checked: ∂_r z is summed from the columns at its indices."""
        if not self.generators:
            if _sum_columns(self._boundary, entries):
                raise NotACycle("chain is not a cycle")
            return []
        w = _kernel_coords(self._vinv, self._rank_out, entries)
        if w is None:
            raise NotACycle("chain is not a cycle")
        wp = [0] * len(self._u2)
        for k, wk in enumerate(w):
            if wk:
                for i, c in self._u2[k].items():
                    wp[i] += c * wk
        coords = []
        pos = 0
        for i, order in enumerate(self._orders):
            if order == 1:
                continue
            val = self._signs[pos] * wp[i]
            if order > 1:
                val %= order
            coords.append(val)
            pos += 1
        return coords


@dataclass
class HomologySummary:
    complex: ChainComplex
    degrees: list[DegreeHomology]

    def degree(self, r: int) -> DegreeHomology:
        if 0 <= r < len(self.degrees):
            return self.degrees[r]
        return DegreeHomology.empty()

    def classes_of(self, chains: list[IntChain], r: int) -> list[list[int]]:
        """The coordinates of each degree-r cycle of chains, all read off
        one degree of this summary; NotACycle on the first non-cycle."""
        index, dh = self.complex.index, self.degree(r)
        return [dh._coordinatize([(index[r][s], c) for s, c in chain.items() if c]) for chain in chains]

    def class_of(self, chain: IntChain, r: int) -> list[int]:
        return self.classes_of([chain], r)[0]


def _kernel_coords(vinv: list[Column], rank_out: int, entries) -> list[int] | None:
    """Rows rank_out: of V⁻¹·z for the chain z with (index, coefficient)
    entries, summing only the V⁻¹ columns at those indices; None when z
    is not a cycle, that is when rows :rank_out are not all zero."""
    y = [0] * len(vinv)
    for j, x in entries:
        for k, c in vinv[j].items():
            y[k] += x * c
    return None if any(y[:rank_out]) else y[rank_out:]


def _leading_sign(vec) -> int:
    for x in vec:
        if x:
            return 1 if x > 0 else -1
    return 1


def _image_in_kernel_coords(
    vinv: list[Column], rank_out: int, bnd_in: list[Column]
) -> list[list[int]]:
    """Rows rank_out: of V⁻¹·bnd_in, summed over the nonzeros of each
    column of bnd_in.

    Because ∂_r·V = U⁻¹·D, a cycle b has V⁻¹b = (0, …, 0, w) with w its
    coordinates in the kernel basis V[:, rank_out:]."""
    out = []
    for col in bnd_in:
        w = _kernel_coords(vinv, rank_out, col.items())
        if w is None:
            raise RuntimeError("image column outside the cycle lattice")
        out.append(w)
    return [list(row) for row in zip(*out)]


def _dense(columns: list[Column], nrows: int) -> list[list[int]]:
    """The dense rows of the matrix with these columns."""
    rows = [[0] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def homology(cx: ChainComplex) -> HomologySummary:
    """Generators and a coordinatizer in every degree.  The invariant
    factors of every ∂_r come first, from Smith normal forms with no
    transforms: H_r = 0 exactly when dim C_r = rank ∂_r + rank ∂_{r+1}
    and no factor of ∂_{r+1} exceeds 1, since C_r / ker ∂_r is free and
    so the torsion of H_r is that of coker ∂_{r+1}.  Only where H_r ≠ 0
    are V, V⁻¹ of ∂_r and U, U⁻¹ of the image presentation computed.
    ∂_r∘∂_{r+1} = 0 is checked in every degree."""
    top = cx.top_degree
    factors: dict[int, list[int]] = {}
    for r in range(1, top + 1):
        if cx.dim(r) and cx.dim(r - 1):
            diagonal = snf(_dense(cx.boundaries[r], cx.dim(r - 1)), left=False, right=False).diagonal()
            factors[r] = [x for x in diagonal if x]
    degrees = []
    for r in range(top + 1):
        nr = cx.dim(r)
        rank_out, image = len(factors.get(r, ())), factors.get(r + 1, [])
        if nr == rank_out + len(image) and all(x == 1 for x in image):
            for col in cx.boundaries[r + 1] if r < top else ():
                if _sum_columns(cx.boundaries[r], col.items()):
                    raise RuntimeError("image column outside the cycle lattice")
            degrees.append(DegreeHomology.empty(cx.boundaries[r]))
            continue
        if cx.dim(r - 1) == 0:
            # no target: everything is a cycle, V = V⁻¹ = I
            vinv = kernel = _identity_columns(nr)
        else:
            res = snf(_dense(cx.boundaries[r], cx.dim(r - 1)), left=False)
            vinv = _transpose(res.vinv_rows)
            kernel = res.v_cols[rank_out:]
        s = nr - rank_out
        # present the image of the next boundary in kernel coordinates
        if cx.dim(r + 1):
            mmat = _image_in_kernel_coords(vinv, rank_out, cx.boundaries[r + 1])
            res2 = snf(mmat, right=False)
            u2, u2inv = _transpose(res2.u_rows), res2.uinv_cols
            diag2 = res2.diagonal()
        else:
            u2 = u2inv = _identity_columns(s)
            diag2 = []
        orders = [diag2[i] if i < len(diag2) else 0 for i in range(s)]
        # generator i lives in column i of K·U2^{-1}
        gens = []
        signs = []
        for i, order in enumerate(orders):
            if order == 1:
                continue
            col = [0] * nr
            for k, x in u2inv[i].items():
                for row, c in kernel[k].items():
                    col[row] += c * x
            eps = _leading_sign(col)
            signs.append(eps)
            gens.append(Generator(order, [eps * x for x in col]))
        degrees.append(DegreeHomology(gens, vinv, rank_out, u2, orders, signs))
    return HomologySummary(cx, degrees)


# ---------------------------------------------------------------------------
# complexes attached to an intersection poset


def _faces(first: int, s: tuple) -> list:
    """The faces of s dropping one vertex from position first up to the
    last but one, with their signs; a face dropping V is never a cell."""
    return [(s[:i] + s[i + 1:], (-1) ** i) for i in range(first, len(s) - 1)]


def build_relative_complex(poset: IntersectionPoset, k: int) -> ChainComplex:
    """Relative chains of (ΔQ_[k,n], ΔQ_[k,n)): basis = chains ending at V
    with every vertex of d >= k; the face dropping V is omitted.  A chain's
    first vertex is its lowest, so these are the chains to V from each
    start of d >= k, a prefix of the elements, concatenated in start order."""
    if not 0 <= k <= poset.n:
        raise ValueError("level k out of range")
    bases: list[list[tuple]] = []
    for u in range(len(poset.elements)):
        if poset.d[u] < k:
            break
        for r, chains in enumerate(poset.chains_to_top(u)):
            if r == len(bases):
                bases.append([])
            bases[r].extend(chains)
    return complex_from_faces(bases, partial(_faces, 0))


def build_local_complex(poset: IntersectionPoset, u: int) -> ChainComplex:
    """Relative chains of (Δ[u,V], Δ[u,V) ∪ Δ(u,V]): basis = chains from
    u to V containing both endpoints; faces dropping an endpoint are omitted."""
    return complex_from_faces(poset.chains_to_top(u), partial(_faces, 1))


def _relative_cells(poset: IntersectionPoset) -> int:
    """The cells of the relative complexes of all levels, Σ_u (d(u)+1)·N(u),
    in O(|Q|²): N(u) chains run from u to V, with N(V) = 1 and N(u) the
    sum of N(w) over the w above u, which come before u.  A chain from u
    is a cell of the d(u) + 1 levels k <= d(u)."""
    leq = poset.leq
    counts = [1]
    for u in range(1, len(poset.elements)):
        counts.append(sum(counts[w] for w in range(u) if leq[u][w]))
    return sum((d + 1) * c for d, c in zip(poset.d, counts))


# ---------------------------------------------------------------------------
# atomic complexes of member subsets


def _member_subsets(poset: IntersectionPoset, limit: float = float("inf")) -> list | None:
    """The member subsets I with d(∩I) >= 0, with ∩I, listed by size and
    sorted: each I of size s + 1 is a sorted I' of size s extended by a
    later member, carrying the running meet, since the subsets of such an
    I are such sets too.  None as soon as the cells they give all
    levels, Σ_I (d(∩I) + 1), exceed limit."""
    members = [poset.index_of(s) for s in poset.arr.subspaces]
    d, meet = poset.d, poset.meet
    cells, sizes, grown = poset.n + 1, [], [((), poset.top)]
    while grown:
        if cells > limit:
            return None
        sizes.append(grown)
        grown = []
        for s, q in sizes[-1]:
            for i in range(s[-1] + 1 if s else 0, len(members)):
                w = meet[q][members[i]]
                if d[w] >= 0:
                    grown.append((s + (i,), w))
                    cells += d[w] + 1
                    if cells > limit:
                        return None
    return sizes


def _subset_faces(s: tuple) -> list:
    return [(s[:j] + s[j + 1:], (-1) ** j) for j in range(len(s))]


def _atomic_level(poset: IntersectionPoset, subsets: list, k: int) -> ChainComplex:
    """D^k read off the listed member subsets: those with d(∩I) >= k.
    They are closed under subsets too, so a size with none ends them."""
    bases = []
    for size in subsets:
        cells = [s for s, q in size if poset.d[q] >= k]
        if not cells:
            break
        bases.append(cells)
    return complex_from_faces(bases, _subset_faces)


def atomic_complex(poset: IntersectionPoset, k: int) -> ChainComplex:
    """The shifted reduced chain complex D^k of the atomic complex S_k:
    degree r holds the r-subsets I of the members with d(∩I) >= k,
    sorted, degree 0 the empty simplex."""
    if not 0 <= k <= poset.n:
        raise ValueError("level k out of range")
    return _atomic_level(poset, _member_subsets(poset), k)


def _exterior(c: IntChain, d: IntChain) -> IntChain:
    """The exterior product of chains of member subsets: I·J is 0 when I
    and J share a member, else ±(I ∪ J), with the sign of the permutation
    that sorts I followed by J."""
    out: IntChain = {}
    for s, a in c.items():
        members = set(s)
        for t, b in d.items():
            if members.isdisjoint(t):
                union = tuple(sorted(s + t))
                inversions = sum(1 for i in s for j in t if i > j)
                out[union] = out.get(union, 0) + (-a * b if inversions % 2 else a * b)
    return {s: x for s, x in out.items() if x}


# ---------------------------------------------------------------------------
# the meet product


@cache
def _shuffle_paths(p: int, q: int) -> tuple:
    """The (p, q)-shuffles as (sign, path): sign is the parity of the
    shuffle permutation, and path lists the vertex pairs (σ_i, τ_j) after
    (σ_0, τ_0) by their index i·(q + 1) + j in the p+1 by q+1 grid."""
    paths = []
    for firsts in combinations(range(p + q), p):
        i = j = inversions = 0
        path = []
        for step in range(p + q):
            if step in firsts:
                i += 1
                inversions += j
            else:
                j += 1
            path.append(i * (q + 1) + j)
        paths.append((-1 if inversions % 2 else 1, tuple(path)))
    return tuple(paths)


def _meet_terms(meet: list[list[int]], sigma: tuple, tau: tuple) -> tuple:
    """The (image, sign) terms of the shuffle product of the simplices σ
    and τ pushed through the vertex-wise meet, degenerate images dropped.

    Along a shuffle path both vertex indices only grow, so the meets grow
    weakly, and a degenerate image repeats two adjacent vertices: a path
    is dropped at its first repeat."""
    rows = [meet[u] for u in sigma]
    grid = [row[v] for row in rows for v in tau]
    terms = []
    for sign, path in _shuffle_paths(len(sigma) - 1, len(tau) - 1):
        last = grid[0]
        image = [last]
        for x in path:
            v = grid[x]
            if v == last:
                break
            image.append(v)
            last = v
        else:
            terms.append((tuple(image), sign))
    return tuple(terms)


def _meet_shuffle(
    poset: IntersectionPoset, c: IntChain, d: IntChain, memo: dict | None = None
) -> IntChain:
    """The Eilenberg-Zilber shuffle product of c and d pushed through the
    vertex-wise meet (u, v) -> u∧v, degenerate images dropped.

    The terms of each simplex pair come from memo, a (σ, τ) -> terms
    dict that a caller may share across calls on one poset, and are
    computed once per pair.  Precondition: every simplex of c and d ends
    at V, so every image ends at V∧V = V and starts at σ_0∧τ_0.
    Relative-complex chains and the 1-chains [A_i, V] end at V, and
    local-complex chains also start at their summand, so no caller needs
    to project the result."""
    meet = poset.meet
    memo = {} if memo is None else memo
    out: IntChain = {}
    for sigma, a in c.items():
        for tau, b in d.items():
            terms = memo.get((sigma, tau))
            if terms is None:
                terms = memo[sigma, tau] = _meet_terms(meet, sigma, tau)
            ab = a * b
            for image, sign in terms:
                out[image] = out.get(image, 0) + sign * ab
    return {s: x for s, x in out.items() if x}


def _meet_at_level(
    poset: IntersectionPoset, floor: int, c: IntChain, d: IntChain, memo: dict | None = None
) -> IntChain:
    """The meet product of relative chains, checked against the
    semimodular bound: every vertex of the image has d >= floor.  The
    meets grow weakly along a shuffle path, so the first vertex is the
    lowest and the only one checked."""
    result = _meet_shuffle(poset, c, d, memo)
    for s in result:
        if poset.d[s[0]] < floor:
            raise RuntimeError(f"semimodular bound violated: {s} has a vertex below level {floor}")
    return result

