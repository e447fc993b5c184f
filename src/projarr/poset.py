"""Intersection posets: meet structure, dependence combinatorics, sections.

The poset Q of an arrangement consists of all intersections of
subfamilies (including the empty intersection V), ordered by inclusion
and closed under the meet u∧v = u∩v.  The dimension function is
d(u) = dim(u) - 1, so d(V) = n and the zero subspace, when it arises,
carries d = -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm

from .arrangement import (
    Arrangement,
    GenericityError,
    _section_rows,
    generic_hyperplane,
    hyperplane_section,
    intersection_closure,
)
from .linalg import Subspace, _products


@dataclass
class IntersectionPoset:
    arr: Arrangement
    elements: list[Subspace]  # sorted by (descending d, rational RREF entries)
    d: list[int]
    leq: list[list[bool]]  # leq[i][j] iff elements[i] ⊆ elements[j]
    meet: list[list[int]]  # index of elements[i] ∩ elements[j]
    masks: list[int]  # bit a set iff member a contains the element

    def __post_init__(self):
        self._index = {s: i for i, s in enumerate(self.elements)}
        self._chains: dict[int, list[list[tuple]]] = {}

    @property
    def n(self) -> int:
        return self.arr.n

    @property
    def top(self) -> int:
        """Index of V (always 0 by the sort order)."""
        return 0

    def index_of(self, s: Subspace) -> int:
        try:
            return self._index[s]
        except KeyError:
            raise ValueError("subspace is not an element of the poset") from None

    def chains_to_top(self, u: int) -> list[list[tuple]]:
        """The chains u = w_0 < … < w_r = V, listed by r and sorted, made
        once per u: u put in front of the chains of each element above
        u.  Those elements have a larger dimension, so they come before u
        and their chains come sorted.  The lists are kept and shared with
        the complexes built on them: read them, never change them."""
        chains = self._chains.get(u)
        if chains is None:
            chains = [[(u,)]] if u == self.top else [[]]
            for w in range(u):
                if self.leq[u][w]:
                    for r, above in enumerate(self.chains_to_top(w), 1):
                        if r == len(chains):
                            chains.append([])
                        chains[r].extend((u,) + c for c in above)
            self._chains[u] = chains
        return chains

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with elements[i] < elements[j] a cover relation."""
        out = []
        m = len(self.elements)
        for i in range(m):
            for j in range(m):
                if i == j or not self.leq[i][j]:
                    continue
                if not any(
                    k != i and k != j and self.leq[i][k] and self.leq[k][j]
                    for k in range(m)
                ):
                    out.append((i, j))
        return out


def build_poset(arr: Arrangement) -> IntersectionPoset:
    """The poset from the closure's member masks, with no further linear
    algebra.  Each element is the intersection of the members containing
    it, so u ⊆ v iff mask(v) ⊆ mask(u).

    Elements sort by (descending dim, rational RREF).  Every canonical row
    is scaled by L ÷ its pivot, with L the lcm of all pivots, which makes
    it L times its rational RREF row, so integer keys sort alike.  With
    down[i] the bitset of the elements below element i, u ∩ v is the
    lowest index in down(u) & down(v): every other common lower bound
    lies in the meet and comes later, with a smaller dimension."""
    closure = intersection_closure(arr)
    pivots = {row: next(filter(None, row)) for s in closure for row in s.basis}
    scale = lcm(*pivots.values())
    elements = sorted(
        closure,
        key=lambda s: (-s.dim, [[x * (scale // pivots[row]) for x in row] for row in s.basis]),
    )
    d = [s.dim - 1 for s in elements]
    masks = [closure[s] for s in elements]
    leq = [[mj & ~mi == 0 for mj in masks] for mi in masks]
    down = [sum(1 << i for i, mi in enumerate(masks) if mj & ~mi == 0) for mj in masks]
    meet = [[((b := di & dj) & -b).bit_length() - 1 for dj in down] for di in down]
    return IntersectionPoset(arr, elements, d, leq, meet, masks)


@dataclass(frozen=True)
class DependentSet:
    indices: tuple[int, ...]
    defect: int  # sum of member codimensions minus codim of the meet


def _meet_of_members(poset: IntersectionPoset, indices) -> int:
    q = poset.top
    member_ids = [poset.index_of(poset.arr.subspaces[i]) for i in indices]
    for i in member_ids:
        q = poset.meet[q][i]
    return q


def set_defect(poset: IntersectionPoset, indices) -> int:
    """Σ codim(A_i) - codim(∩M); zero exactly for independent sets."""
    n = poset.n
    total = sum(n - (poset.arr.subspaces[i].dim - 1) for i in indices)
    return total - (n - poset.d[_meet_of_members(poset, indices)])


def minimal_dependent_sets(poset: IntersectionPoset) -> list[DependentSet]:
    """Inclusion-minimal dependent subfamilies, by increasing size."""
    t = len(poset.arr.subspaces)
    found: list[DependentSet] = []
    for size in range(1, t + 1):
        for combo in combinations(range(t), size):
            cs = set(combo)
            if any(set(f.indices) <= cs for f in found):
                continue
            defect = set_defect(poset, combo)
            if defect != 0:
                found.append(DependentSet(combo, defect))
    return found


def is_c_arrangement(poset: IntersectionPoset, c: int) -> bool:
    """Every member has projective codimension c and every intersection's
    codimension is a multiple of c (codimension reading)."""
    if c <= 0:
        raise ValueError("c must be positive")
    n = poset.n
    if any(n - (s.dim - 1) != c for s in poset.arr.subspaces):
        return False
    return all((n - di) % c == 0 for di in poset.d)


@dataclass
class EtaReport:
    passed: bool
    detail: str = ""


def verify_eta(poset: IntersectionPoset, seed: int = 0) -> EtaReport:
    """Check that a generic section induces q ↦ q∩H, an order- and
    meet-respecting bijection Q_(0,n] → Q^H_[0,n-1] dropping d by one.

    The sectioned side is read off the closure of the section alone, and
    no image is put in canonical form.  An image's rows come from
    cutting the element's basis by H, independent rows, so its dimension
    is their number, and its mask is the set of sectioned members whose equations vanish on
    those rows.  Every closure element is the intersection of the
    members containing it, so the image is the closure element with its
    mask exactly when their dimensions agree.  Images are distinct iff
    their masks are, and the order is mask containment, as `build_poset`
    defines it."""
    try:
        h = generic_hyperplane(poset, seed)
        sectioned = hyperplane_section(poset, h)
    except GenericityError as e:
        return EtaReport(False, f"genericity failure: {e}")
    closure = intersection_closure(sectioned)
    dim_of_mask = {mask: s.dim for s, mask in closure.items()}
    equations = [s.annihilator for s in sectioned.subspaces]
    upper = [i for i in range(len(poset.elements)) if poset.d[i] >= 1]
    images = {}
    for i in upper:
        rows = _section_rows(poset.elements[i], h)
        dim = len(rows)
        if dim != poset.d[i]:
            return EtaReport(False, f"dimension not lowered by one at element {i}")
        mask = sum(1 << a for a, eqs in enumerate(equations) if not any(map(any, _products(eqs, rows))))
        if dim_of_mask.get(mask) != dim:
            return EtaReport(False, f"image of element {i} missing from sectioned poset")
        images[i] = mask
    target = sum(1 for s in closure if s.dim >= 1)
    if len(set(images.values())) != len(images) or len(images) != target:
        return EtaReport(False, "not a bijection onto Q^H_[0,n-1]")
    for i in upper:
        for j in upper:
            if poset.leq[i][j] != (images[j] & ~images[i] == 0):
                return EtaReport(False, f"order not preserved on pair ({i},{j})")
    return EtaReport(True)
