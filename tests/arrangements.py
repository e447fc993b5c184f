"""Shared test arrangements."""

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
