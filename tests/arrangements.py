"""Shared test arrangements."""

import importlib.util
import json
import os
import sys
from functools import cache
from itertools import combinations

from projarr import Arrangement, Subspace


def span(ambient, *rows):
    return Subspace.from_span(ambient, rows)


def empty(n: int) -> Arrangement:
    return Arrangement(n + 1, ())


def points_cp1(m: int) -> Arrangement:
    """m distinct points in CP^1."""
    spans = [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)]
    assert m <= len(spans)
    return Arrangement(2, tuple(span(2, v) for v in spans[:m]))


def boolean(n: int) -> Arrangement:
    """The n+1 coordinate hyperplanes in CP^n."""
    subs = []
    for i in range(n + 1):
        rows = [
            [int(r == j) for j in range(n + 1)]
            for r in range(n + 1)
            if r != i
        ]
        subs.append(span(n + 1, *rows))
    return Arrangement(n + 1, tuple(subs))


def generic_hyperplanes(n: int, m: int) -> Arrangement:
    """m hyperplanes in general position in CP^n: kernels of Vandermonde
    functionals, so any n+1 of them are linearly independent."""
    vander = [[(i + 1) ** j for j in range(n + 1)] for i in range(m)]
    subs = tuple(Subspace.from_equations(n + 1, [f]) for f in vander)
    return Arrangement(n + 1, subs)


def skew_lines(count: int) -> Arrangement:
    """Pairwise disjoint projective lines in CP^3."""
    lines = [
        span(4, (1, 0, 0, 0), (0, 1, 0, 0)),
        span(4, (0, 0, 1, 0), (0, 0, 0, 1)),
        span(4, (1, 0, 1, 0), (0, 1, 0, 1)),
    ]
    assert count <= 3
    return Arrangement(4, tuple(lines[:count]))


def crossed_pairs() -> Arrangement:
    """Two pairs of projective lines in CP^3, each pair meeting in a
    point, the pairs mutually disjoint (n = 3, both pair dimensions 1)."""
    u = span(4, (1, 0, 0, 0), (0, 0, 0, 1))
    v = span(4, (1, 0, 0, 0), (0, 0, 4, 1))
    ut = span(4, (0, 1, 0, 0), (0, 0, 1, 1))
    vt = span(4, (0, 1, 0, 0), (0, 0, 5, 1))
    return Arrangement(4, (u, v, ut, vt), ("u", "v", "u~", "v~"))


def mixed() -> Arrangement:
    """A line and a plane in CP^3 meeting in a point."""
    line = span(4, (1, 0, 0, 0), (0, 1, 0, 0))
    plane = span(4, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    return Arrangement(4, (line, plane))


def pencil(m: int) -> Arrangement:
    """m concurrent lines in CP², through (0 : 0 : 1): every subset of
    them meets, so the atomic complexes have 2^m cells in all."""
    return Arrangement(3, tuple(Subspace.from_equations(3, [[i, 1, 0]]) for i in range(m)))


def coordinate(facets) -> Arrangement:
    """The coordinate arrangement of the simplicial complex K with these
    facets on the vertices 1..m, in CP^m: the hyperplane x_0 = 0, then
    {x_i = 0 : i ∈ σ} for each minimal non-face σ of K, in sorted order.
    With x_0 at infinity the complement is C^m minus the coordinate
    subspaces of the non-faces, homotopy equivalent to the moment-angle
    complex Z_K."""
    vertices = sorted({v for f in facets for v in f})
    m = len(vertices)
    assert vertices == list(range(1, m + 1))

    def face(s):
        return any(set(s) <= set(f) for f in facets)

    non_faces = [
        s for size in range(2, m + 1) for s in combinations(vertices, size)
        if not face(s) and all(face(t) for t in combinations(s, size - 1))
    ]
    unit = [[int(i == j) for j in range(m + 1)] for i in range(m + 1)]
    members = [unit[:1]] + [[unit[i] for i in s] for s in non_faces]
    return Arrangement(m + 1, tuple(Subspace.from_equations(m + 1, eqs) for eqs in members))


# the 6-vertex triangulation of the real projective plane: every edge
# lies in two of its 10 triangles, and H_1 = Z/2
RP2_6 = [(1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6)]


def to_json(arr: Arrangement) -> str:
    """The arrangement in the input format: each member by its basis."""
    members = [
        {"name": name, "span": [list(row) for row in s.basis]}
        for name, s in zip(arr.names, arr.subspaces)
    ]
    return json.dumps({"ambient_dim": arr.ambient_dim, "subspaces": members})


@cache
def perfbench(name):
    """A module of perfbench/, loaded by path; it imports nothing of projarr."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", name + ".py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# c-arrangements with their c: the inputs of the presentation and of the
# atomic-complex comparison maps
C_FIXTURES = [
    (points_cp1(2), 1),
    (points_cp1(3), 1),
    (points_cp1(5), 1),
    (boolean(2), 1),
    (boolean(3), 1),
    (skew_lines(2), 2),
    (skew_lines(3), 2),
]
