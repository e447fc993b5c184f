import json

import pytest

from arrangements import boolean, crossed_pairs, empty, mixed, points_cp1, skew_lines
from projarr import (
    Arrangement,
    Hyperplane,
    InputError,
    Subspace,
    generic_hyperplane,
    hyperplane_section,
    parse_arrangement,
)
from projarr.arrangement import GenericityError, intersection_closure
from projarr.poset import build_poset


def test_parse_equations_form():
    text = json.dumps(
        {
            "ambient_dim": 3,
            "subspaces": [{"name": "H", "equations": [["1", "0", "-1/2"]]}],
        }
    )
    arr = parse_arrangement(text)
    assert arr.subspaces[0].dim == 2
    assert arr.names == ("H",)
    # span form: a named member given by spanning rows, rationals as strings
    text = json.dumps(
        {"ambient_dim": 3, "subspaces": [{"name": "L", "span": [["2", "0", "1/3"]]}]}
    )
    arr = parse_arrangement(text)
    assert arr.subspaces == (Subspace.from_span(3, [(6, 0, 1)]),)
    assert arr.names == ("L",)


@pytest.mark.parametrize(
    "doc",
    [
        "not json",
        json.dumps({"ambient_dim": "2", "subspaces": []}),
        json.dumps({"ambient_dim": 1, "subspaces": []}),
        json.dumps({"ambient_dim": 2, "subspaces": [{}]}),
        json.dumps({"ambient_dim": 2, "subspaces": [{"span": [["1", "x"]]}]}),
        json.dumps({"ambient_dim": 2, "subspaces": [{"span": [["1"]]}]}),
        json.dumps({"ambient_dim": 2, "subspaces": [{"span": [["1", "0", "0"]]}]}),
        # full space is not proper
        json.dumps(
            {"ambient_dim": 2, "subspaces": [{"span": [["1", "0"], ["0", "1"]]}]}
        ),
        # zero subspace
        json.dumps({"ambient_dim": 2, "subspaces": [{"span": []}]}),
        # duplicate member, even with differently scaled spans
        json.dumps(
            {
                "ambient_dim": 2,
                "subspaces": [{"span": [["1", "2"]]}, {"span": [["2", "4"]]}],
            }
        ),
    ],
)
def test_parse_rejects_bad_input(doc):
    with pytest.raises(InputError):
        parse_arrangement(doc)


def test_default_names():
    arr = skew_lines(2)
    assert arr.names == ("A0", "A1")


def test_intersection_closure_counts():
    # 4 lines, 2 crossing points, V and 0
    assert len(intersection_closure(crossed_pairs())) == 8
    # m points, V and 0
    assert len(intersection_closure(points_cp1(4))) == 6
    # Boolean in CP^2: V, 3 hyperplanes, 3 coordinate axes, 0
    assert len(intersection_closure(boolean(2))) == 8


def test_closure_has_no_equal_elements_under_different_bases():
    closure = intersection_closure(crossed_pairs())
    dims = sorted(s.dim for s in closure)
    assert dims == [0, 1, 1, 2, 2, 2, 2, 4]


def test_generic_hyperplane_deterministic_and_generic():
    poset = build_poset(skew_lines(3))
    h1 = generic_hyperplane(poset, seed=5)
    h2 = generic_hyperplane(poset, seed=5)
    assert h1 == h2
    for q in poset.elements:
        if q.dim >= 1:
            assert not h1.vanishes_on(q)


def test_hyperplane_section_drops_dimension():
    poset = build_poset(skew_lines(2))
    h = generic_hyperplane(poset, seed=0)
    sec = hyperplane_section(poset, h)
    assert sec.ambient_dim == 3
    # lines become points
    assert all(s.dim == 1 for s in sec.subspaces)


def test_hyperplane_section_drops_empty_sections():
    poset = build_poset(points_cp1(3))  # points have no section
    h = generic_hyperplane(poset, seed=0)
    sec = hyperplane_section(poset, h)
    assert sec.ambient_dim == 1
    assert sec.subspaces == ()


def test_non_generic_hyperplane_rejected():
    poset = build_poset(skew_lines(2))
    # x_0 = 0 contains the second line span{e2, e3}? no — but x_3 = 0 meets
    # it in a line; use a functional vanishing on the first line instead
    h = Hyperplane((0, 0, 1, 0))  # vanishes on span{e0, e1}
    with pytest.raises(GenericityError):
        hyperplane_section(poset, h)


def test_empty_arrangement_allowed():
    arr = empty(3)
    assert arr.n == 3 and arr.subspaces == ()


def test_cp0_only_when_empty():
    assert Arrangement(1, ()).n == 0
    with pytest.raises(InputError):
        Arrangement(1, (Subspace.from_span(1, [(1,)]),))


def test_mixed_arrangement_dims():
    arr = mixed()
    assert sorted(s.dim for s in arr.subspaces) == [2, 3]
