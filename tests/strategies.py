"""Shared hypothesis strategies: random arrangements for the tests that
compare a builder against its reference on many posets."""

from hypothesis import assume
from hypothesis import strategies as st

from projarr import Arrangement, Subspace


@st.composite
def small_arrangements(draw):
    """At most 5 members of mixed dimension in CP² or CP³, the last one
    inside another member when the draw asks for it and one has room."""
    ambient_dim = draw(st.integers(3, 4))
    vectors = st.lists(st.integers(-2, 2), min_size=ambient_dim, max_size=ambient_dim)
    members = []
    for _ in range(draw(st.integers(1, 5))):
        dim = draw(st.integers(1, ambient_dim - 1))
        members.append(Subspace.from_span(ambient_dim, draw(st.lists(vectors, min_size=dim, max_size=dim))))
    planes = [s for s in members[:-1] if s.dim >= 2]
    if planes and draw(st.booleans()):
        outer = draw(st.sampled_from(planes))
        coeffs = st.lists(st.integers(-3, 3), min_size=outer.dim, max_size=outer.dim)
        rows = draw(st.lists(coeffs, min_size=1, max_size=outer.dim - 1))
        members[-1] = Subspace.from_span(
            ambient_dim, [[sum(c * v[k] for c, v in zip(row, outer.basis)) for k in range(ambient_dim)] for row in rows]
        )
        assume(outer.contains(members[-1]))
    assume(all(0 < s.dim < ambient_dim for s in members) and len(set(members)) == len(members))
    return Arrangement(ambient_dim, tuple(members))
