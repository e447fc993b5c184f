"""Arrangement data model, JSON I/O, and generic hyperplane sections.

An arrangement is a finite set of proper nonzero linear subspaces of
C^{n+1}, given by exact rational rows and stored in integer canonical
form.  The projective picture (points of CP^n) is implicit: a subspace
of linear dimension d+1 has projective dimension d.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .linalg import AmbientMismatch, Subspace, _cut, _cut_rows, _products, _rank, rref

if TYPE_CHECKING:
    from .poset import IntersectionPoset


class InputError(ValueError):
    """Invalid arrangement input (schema, rationals, subspace constraints)."""


@dataclass(frozen=True)
class Arrangement:
    ambient_dim: int  # n + 1
    subspaces: tuple[Subspace, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        # ambient_dim 1 (projective dimension 0) only arises for the empty
        # arrangement produced by sectioning; user input requires >= 2
        if self.ambient_dim < 1:
            raise InputError("ambient_dim must be positive")
        if self.ambient_dim < 2 and self.subspaces:
            raise InputError("ambient_dim must be at least 2")
        seen = set()
        for s in self.subspaces:
            if s.ambient_dim != self.ambient_dim:
                raise InputError("subspace ambient dimension mismatch")
            if s.dim == 0:
                raise InputError("zero subspace has empty projectivization")
            if s.dim >= self.ambient_dim:
                raise InputError("subspace must be proper")
            if s in seen:
                raise InputError("duplicate subspace")
            seen.add(s)
        if self.names and len(self.names) != len(self.subspaces):
            raise InputError("names do not match subspaces")
        if not self.names:
            object.__setattr__(
                self, "names", tuple(f"A{i}" for i in range(len(self.subspaces)))
            )

    @property
    def n(self) -> int:
        """Projective dimension of the ambient space."""
        return self.ambient_dim - 1

    def check_member_index(self, label: str, index: int) -> None:
        """Raise InputError, naming label and the range, unless index names a member."""
        count = len(self.subspaces)
        if count == 0:
            raise InputError(f"{label} {index}: the arrangement has no members")
        if not 0 <= index < count:
            raise InputError(f"{label} {index} is out of range: member indices are 0..{count - 1}")


@dataclass(frozen=True)
class Hyperplane:
    functional: tuple[int, ...]

    def __post_init__(self):
        if all(x == 0 for x in self.functional):
            raise ValueError("hyperplane functional must be nonzero")

    @property
    def ambient_dim(self) -> int:
        return len(self.functional)

    def vanishes_on(self, s: Subspace) -> bool:
        return not any(_products((self.functional,), s.basis)[0])


# Fraction("1e999999999") computes 10**999999999.  Digit strings are
# already capped by Python's 4,300-digit int limit; exponents get the same cap.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)")


def _parse_rational(x) -> int | Fraction:
    """The exact value of x; a plain integer string (digits after at most
    one sign) is read by int, which agrees with Fraction on it."""
    text = str(x)
    try:
        if (text[1:] if text[:1] in "+-" else text).isdecimal():
            return int(text)
        exp = _EXPONENT.search(text)
        if exp and int(exp[1]) > _MAX_EXPONENT:
            raise ValueError(f"exponent beyond ±{_MAX_EXPONENT}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"malformed rational {x!r}: {e}") from None


def _parse_subspace(entry, ambient_dim: int) -> tuple[Subspace, str | None]:
    if not isinstance(entry, dict):
        raise InputError("subspace entry must be an object")
    name = entry.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError("subspace name must be a string")
    keys = {"span", "equations"} & set(entry)
    if len(keys) != 1:
        raise InputError("subspace needs exactly one of 'span' or 'equations'")
    rows = entry[next(iter(keys))]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("subspace rows must be a list of lists")
    parsed = [[_parse_rational(x) for x in r] for r in rows]
    for r in parsed:
        if len(r) != ambient_dim:
            raise InputError("subspace row length must equal ambient_dim")
    if "span" in keys:
        return Subspace.from_span(ambient_dim, parsed), name
    return Subspace.from_equations(ambient_dim, parsed), name


def parse_arrangement(text: str) -> Arrangement:
    """Parse and validate the JSON arrangement format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InputError("top-level document must be an object")
    if not isinstance(doc.get("ambient_dim"), int):
        raise InputError("ambient_dim must be an integer")
    ambient_dim = doc["ambient_dim"]
    if ambient_dim < 2:
        raise InputError("ambient_dim must be at least 2")
    entries = doc.get("subspaces")
    if not isinstance(entries, list):
        raise InputError("subspaces must be a list")
    subspaces = []
    names = []
    for i, entry in enumerate(entries):
        s, name = _parse_subspace(entry, ambient_dim)
        subspaces.append(s)
        names.append(name if name is not None else f"A{i}")
    return Arrangement(ambient_dim, tuple(subspaces), tuple(names))


def intersection_closure(arr: Arrangement) -> dict[Subspace, int]:
    """All intersections of subfamilies of the arrangement, including V,
    each mapped to the bitmask of the members containing it.

    Each new element gets its whole mask at once from dot products: the
    equations of A_a on the element's basis give a matrix M (codim A_a ×
    dim q), and A_a contains q iff M = 0.  Otherwise q ∩ A_a has
    dimension dim q − rank M, and no row reduction is needed to find it
    when that is 0, or when a known element w of that dimension has
    mask(q) | a in its mask: every element is the intersection of the
    members containing it, so w lies in q ∩ A_a and equals it.  Only a
    meet not found yet is cut in q's coordinates and reduced, so each
    element that is neither V, a member nor 0 costs one reduction.
    """
    equations = [s.annihilator for s in arr.subspaces]
    masks = {Subspace.full(arr.ambient_dim): 0}
    zero, every = Subspace(arr.ambient_dim, ()), (1 << len(equations)) - 1
    masks_by_dim: dict[int, list[int]] = {}
    todo = []

    def add(s: Subspace) -> None:
        products = [_products(eqs, s.basis) for eqs in equations]
        masks[s] = sum(1 << a for a, m in enumerate(products) if not any(map(any, m)))
        masks_by_dim.setdefault(s.dim, []).append(masks[s])
        todo.append((s, products))

    for s in arr.subspaces:
        add(s)
    while todo:
        q, products = todo.pop()
        mask = masks[q]
        for a, m in enumerate(products):
            union = mask | 1 << a
            if union == mask:
                continue
            dim = q.dim - _rank(m)
            if dim == 0:
                masks[zero] = every
            elif not any(w & union == union for w in masks_by_dim.get(dim, ())):
                add(_cut(q, m))
    return masks


def generic_hyperplane(poset: IntersectionPoset, seed: int = 0) -> Hyperplane:
    """A hyperplane whose functional vanishes on no nonzero element of the
    poset.

    Deterministic for a fixed seed; coefficient range grows per retry so
    termination is guaranteed (the bad set is a finite union of proper
    subspaces of the dual).
    """
    avoid = [q for q in poset.elements if q.dim >= 1]
    rng = random.Random(seed)
    attempt = 0
    while True:
        attempt += 1
        bound = 10 * attempt
        coeffs = tuple(rng.randint(-bound, bound) for _ in range(poset.arr.ambient_dim))
        if all(x == 0 for x in coeffs):
            continue
        h = Hyperplane(coeffs)
        if not any(h.vanishes_on(q) for q in avoid):
            return h


class GenericityError(ValueError):
    """The supplied hyperplane is not generic for the arrangement."""


def _section_rows(s: Subspace, h: Hyperplane) -> list:
    """Independent rows spanning s ∩ ker(h), in the (ambient_dim - 1)-frame
    of ker(h): s's basis cut by h (see `linalg._cut_rows`), then with
    j the first nonzero column of h, the frame is e_k − (h_k/h_j)·e_j for
    k ≠ j in order, so the frame coordinates of a vector of ker(h) are its
    entries with column j dropped."""
    cut = _cut_rows(s.basis, _products((h.functional,), s.basis))
    if any(_products((h.functional,), cut)[0]):
        raise RuntimeError("vector not in hyperplane frame")
    j = next(k for k, x in enumerate(h.functional) if x != 0)
    return [v[:j] + v[j + 1:] for v in cut]


def restrict_to_hyperplane(s: Subspace, h: Hyperplane) -> Subspace:
    """s ∩ ker(h), re-coordinatized to the (ambient_dim - 1)-frame of ker(h)."""
    return Subspace(h.ambient_dim - 1, rref(_section_rows(s, h)))


def hyperplane_section(poset: IntersectionPoset, h: Hyperplane) -> Arrangement:
    """The induced arrangement {A ∩ H} inside H, in new coordinates.

    Requires h generic: no nonzero element of the poset may lie in H.
    Members whose section is the zero space (lines) are dropped, since
    their projectivization is empty.
    """
    arr = poset.arr
    if h.ambient_dim != arr.ambient_dim:
        raise AmbientMismatch("hyperplane ambient dimension mismatch")
    for q in poset.elements:
        if q.dim >= 1 and h.vanishes_on(q):
            raise GenericityError("hyperplane contains an intersection subspace")
    sections = []
    names = []
    for s, name in zip(arr.subspaces, arr.names):
        cut = restrict_to_hyperplane(s, h)
        if cut.dim != s.dim - 1:
            raise GenericityError("section did not drop dimension by one")
        if cut.dim >= 1:
            sections.append(cut)
            names.append(name)
    return Arrangement(arr.ambient_dim - 1, tuple(sections), tuple(names))

