"""Relative chain complexes of poset order complexes and their integral
homology, plus the chain-level meet product.

Simplices are tuples of vertex ids (strictly increasing in the poset
order); chains are sparse dicts simplex -> integer coefficient.  All
homology is computed over Z via Smith normal form, with explicit
representative cycles and an exact coordinatizer per degree.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def boundary_matrix_from(faces, basis_prev, basis_cur) -> list[Column]:
    """The columns of ∂ on basis_cur from a simplex -> [(face, coeff)]
    rule, with cancelled entries dropped."""
    idx = {s: i for i, s in enumerate(basis_prev)}
    cols = []
    for s in basis_cur:
        col: Column = {}
        for face, coeff in faces(s):
            i = idx[face]
            col[i] = col.get(i, 0) + coeff
        if 0 in col.values():
            col = {i: x for i, x in col.items() if x}
        cols.append(col)
    return cols


def complex_from_faces(bases: list[list[tuple]], faces) -> ChainComplex:
    """The complex on bases whose boundary follows the face rule."""
    boundaries = [[{} for _ in bases[0]]] + [
        boundary_matrix_from(faces, bases[r - 1], bases[r]) for r in range(1, len(bases))
    ]
    return ChainComplex(bases, boundaries)


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
    # coordinatizer internals
    _vinv: list[Column]  # columns of the inverse SNF V of the boundary out of C_r
    _rank_out: int  # rank of that boundary; kernel coords start here
    _u2: list[Column]  # columns of the SNF U of the image presentation matrix
    _orders: list[int]  # per kernel coordinate, 0 free / 1 killed / t torsion
    _signs: list[int]

    @classmethod
    def empty(cls, vinv: list[Column] | None = None, rank_out: int = 0) -> "DegreeHomology":
        """H_r = 0; vinv and rank_out still let class_of reject non-cycles."""
        return cls([], vinv or [], rank_out, [], [], [])

    @property
    def free_rank(self) -> int:
        return sum(1 for g in self.generators if g.order == 0)

    @property
    def torsion(self) -> list[int]:
        return [g.order for g in self.generators if g.order > 1]

    def _coordinatize(self, entries) -> list[int]:
        """Coordinates of the cycle with (index, coefficient) entries: the
        V⁻¹ columns at those indices are summed, then U₂ is applied over
        the nonzero kernel coordinates only."""
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

    def class_of(self, chain: IntChain, r: int) -> list[int]:
        entries = [(self.complex.index[r][s], c) for s, c in chain.items() if c]
        return self.degree(r)._coordinatize(entries)


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
    degrees = []
    for r in range(cx.top_degree + 1):
        nr = cx.dim(r)
        if nr == 0:
            degrees.append(DegreeHomology.empty())
            continue
        if cx.dim(r - 1) == 0:
            # no target: everything is a cycle, V = V⁻¹ = I
            rank_out = 0
            vinv = kernel = _identity_columns(nr)
        else:
            res = snf(_dense(cx.boundaries[r], cx.dim(r - 1)), left=False)
            rank_out = sum(1 for x in res.diagonal() if x != 0)
            vinv = _transpose(res.vinv_rows)
            kernel = res.v_cols[rank_out:]
        s = nr - rank_out
        if s == 0:
            degrees.append(DegreeHomology.empty(vinv, rank_out))
            continue
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


def build_relative_complex(poset: IntersectionPoset, k: int) -> ChainComplex:
    """Relative chains of (ΔQ_[k,n], ΔQ_[k,n)): basis = chains ending at V
    with every vertex of d >= k; the face dropping V is omitted."""
    if not 0 <= k <= poset.n:
        raise ValueError("level k out of range")
    ids = [i for i in range(len(poset.elements)) if poset.d[i] >= k]
    top = poset.top
    by_degree: list[list[tuple]] = [[(top,)]]
    frontier = [(top,)]
    while frontier:
        new = []
        for chain in frontier:
            first = chain[0]
            for w in ids:
                if w != first and poset.leq[w][first]:
                    new.append((w,) + chain)
        if new:
            by_degree.append(sorted(new))
        frontier = new

    def faces(s):
        q = len(s) - 1
        return [(s[:i] + s[i + 1:], (-1) ** i) for i in range(q)]

    return complex_from_faces(by_degree, faces)


def build_local_complex(poset: IntersectionPoset, u: int) -> ChainComplex:
    """Relative chains of (Δ[u,V], Δ[u,V) ∪ Δ(u,V]): basis = chains from
    u to V containing both endpoints; faces dropping an endpoint are omitted."""
    top = poset.top
    ids = [i for i in range(len(poset.elements)) if poset.leq[u][i]]
    if u == top:
        return ChainComplex([[(top,)]], [[{}]])
    by_degree: list[list[tuple]] = [[]]
    chains = [(u, top)]
    by_degree.append(sorted(chains))
    frontier = chains
    while frontier:
        new = []
        for chain in frontier:
            for w in ids:
                if w in chain:
                    continue
                # insert w strictly between consecutive vertices
                for pos in range(len(chain) - 1):
                    lo, hi = chain[pos], chain[pos + 1]
                    if poset.leq[lo][w] and poset.leq[w][hi] and w != lo and w != hi:
                        cand = chain[: pos + 1] + (w,) + chain[pos + 1:]
                        if cand not in new:
                            new.append(cand)
        new = sorted(set(new))
        if new:
            by_degree.append(new)
        frontier = new

    def faces(s):
        return [(s[:i] + s[i + 1:], (-1) ** i) for i in range(1, len(s) - 1)]

    return complex_from_faces(by_degree, faces)


# ---------------------------------------------------------------------------
# shuffle cross product and the meet product


def _shuffles(p: int, q: int):
    """All (p,q)-shuffle words as (sign, moves) with moves a tuple of 0/1
    (0 = advance first factor); sign = parity of the shuffle permutation."""
    from itertools import combinations

    total = p + q
    for rpos in combinations(range(total), p):
        moves = [1] * total
        for i in rpos:
            moves[i] = 0
        # inversions: for each 0-move, count 1-moves occurring before it
        inv = 0
        ones_seen = 0
        for m in moves:
            if m == 1:
                ones_seen += 1
            else:
                inv += ones_seen
        yield ((-1) ** inv, tuple(moves))


def cross_shuffle(c: IntChain, d: IntChain) -> IntChain:
    """Eilenberg-Zilber shuffle product; vertices of the result are pairs."""
    out: IntChain = {}
    for sigma, a in c.items():
        p = len(sigma) - 1
        for tau, b in d.items():
            q = len(tau) - 1
            for sign, moves in _shuffles(p, q):
                i = j = 0
                verts = [(sigma[0], tau[0])]
                for m in moves:
                    if m == 0:
                        i += 1
                    else:
                        j += 1
                    verts.append((sigma[i], tau[j]))
                key = tuple(verts)
                out[key] = out.get(key, 0) + sign * a * b
                if out[key] == 0:
                    del out[key]
    return out


def meet_push(poset: IntersectionPoset, ch: IntChain) -> IntChain:
    """Apply (u,v) -> u∧v vertex-wise; degenerate images are dropped."""
    out: IntChain = {}
    for simplex, coeff in ch.items():
        image = tuple(poset.meet[u][v] for u, v in simplex)
        if len(set(image)) != len(image):
            continue
        out[image] = out.get(image, 0) + coeff
        if out[image] == 0:
            del out[image]
    return out


def meet_chain(poset: IntersectionPoset, c: IntChain, d: IntChain) -> IntChain:
    """meet_push ∘ cross_shuffle, projected to chains ending at V."""
    pushed = meet_push(poset, cross_shuffle(c, d))
    top = poset.top
    return {s: v for s, v in pushed.items() if s[-1] == top}


def meet_product(poset: IntersectionPoset, k: int, l: int, c: IntChain, d: IntChain) -> IntChain:
    """The chain-level product landing in the level-(k+l-n) relative complex."""
    n = poset.n
    if k + l < n:
        raise ValueError("meet_product requires k + l >= n")
    result = meet_chain(poset, c, d)
    floor = k + l - n
    for s in result:
        if min(poset.d[v] for v in s) < floor:
            raise RuntimeError(f"semimodular bound violated: {s} has a vertex below level {floor}")
    return result
