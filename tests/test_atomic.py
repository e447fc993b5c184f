"""The ring on the atomic complexes D^k, with the exterior product of
member subsets, against the relative engine through the chain maps f_k;
the choice between the two models; and the torsion of a coordinate
arrangement, where both engines must find the same Z/2."""

import dataclasses
import itertools
import json
import pathlib

import pytest
import sympy
from hypothesis import HealthCheck, given, settings

from arrangements import (
    RP2_6,
    boolean,
    coordinate,
    generic_hyperplanes,
    mixed,
    pencil,
    perfbench,
    points_cp1,
    skew_lines,
    to_json,
)
from projarr import cli
from projarr.arrangement import parse_arrangement
from projarr.chains import (
    _exterior,
    _member_subsets,
    _relative_cells,
    add_chains,
    atomic_complex,
    build_relative_complex,
)
from projarr.poset import build_poset
from projarr.presentation import fk_chain
from projarr.ring import (
    _atomic_ring,
    affine_decompose,
    decompose,
    projective_ring,
    ring_table,
    verify_ring_axioms,
)
from strategies import small_arrangements

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
SETTINGS = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def fixture_arrangements():
    return {path.stem: parse_arrangement(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}


def ring_inputs():
    """Every fixture, the larger generated families, and the coordinate
    arrangement of RP²₆."""
    return {
        **fixture_arrangements(),
        "boolean(4)": boolean(4),
        "generic_hyperplanes(3,6)": generic_hyperplanes(3, 6),
        "generic_hyperplanes(4,5)": generic_hyperplanes(4, 5),
        "mixed()": mixed(),
        "skew_lines(3)": skew_lines(3),
        "coordinate(RP2_6)": coordinate(RP2_6),
    }


RING_INPUTS = ring_inputs()


def benchmark_arrangements():
    """The inputs of every benchmark workload at seeds 3 and 11."""
    generators = perfbench("generators")
    return {
        f"seed{seed}/{job.name}": parse_arrangement(generators.input_bytes(job).decode())
        for seed in (3, 11)
        for workload in generators.WORKLOADS
        for job in generators.jobs_for(workload, seed)
    }


# ---------------------------------------------------------------------------
# the exterior product


def test_exterior_product_signs_and_vanishing():
    assert _exterior({(): 3}, {(0, 2): -1}) == {(0, 2): -3}
    assert _exterior({(1,): 1}, {(0,): 1}) == {(0, 1): -1}
    assert _exterior({(0, 2): 1}, {(1,): 1}) == {(0, 1, 2): -1}
    assert _exterior({(0, 2): 1}, {(1, 3): 1}) == {(0, 1, 2, 3): -1}
    assert _exterior({(0, 1): 1}, {(2, 3): 1}) == {(0, 1, 2, 3): 1}
    # a shared member kills the pair, and cancelling terms drop out
    assert _exterior({(0, 1): 1}, {(1, 2): 5}) == {}
    assert _exterior({(0,): 1, (1,): 1}, {(1,): 1, (0,): 1}) == {}


# ---------------------------------------------------------------------------
# the atomic ring against the relative ring through f_k


def fk_images(atomic, relative):
    """P(i) for every atomic basis element i: the relative table's element
    of Σ c_I·f_k(I), with Σ c_I·I the representative of i at level k."""
    poset = atomic.poset
    fk = {}
    images = []
    for i, b in enumerate(atomic.basis):
        chain = {}
        for s, c in atomic.representative(i).items():
            if s not in fk:
                fk[s] = fk_chain(poset, s)
            chain = add_chains(chain, fk[s], c)
        images.append(relative.element(b.summand, b.r, chain))
    return images


def assert_invertible(atomic, relative, images):
    """P is an isomorphism in every degree: the free classes of both
    tables have one degree and torsion order each, torsion goes to
    torsion, P is unimodular from free coordinates to free coordinates,
    and no nonzero combination of torsion classes goes to 0."""
    for degree in range(2 * atomic.n + 1):
        free_a, tors_a, free_r, tors_r = ([], [], [], [])
        for table, free, tors in ((atomic, free_a, tors_a), (relative, free_r, tors_r)):
            for i, b in enumerate(table.basis):
                if b.degree == degree:
                    (tors if b.torsion_order else free).append(i)
        assert len(free_a) == len(free_r)
        assert sorted(atomic.basis[i].torsion_order for i in tors_a) == sorted(
            relative.basis[i].torsion_order for i in tors_r
        )
        assert all(t in free_r or t in tors_r for i in free_a + tors_a for t in images[i])
        if free_a:
            matrix = sympy.Matrix([[images[j].get(i, 0) for j in free_a] for i in free_r])
            assert matrix.det() in (1, -1), f"P not unimodular in degree {degree}"
        for i in tors_a:
            assert not set(images[i]) & set(free_r), "a torsion class goes to a free one"
        orders = [range(atomic.basis[i].torsion_order) for i in tors_a]
        for coeffs in itertools.product(*orders):
            if any(coeffs):
                image = {}
                for c, i in zip(coeffs, tors_a):
                    image = add_chains(image, images[i], c)
                assert relative.reduce(image), f"P not injective on torsion in degree {degree}"


def assert_fk_is_a_ring_isomorphism(arr):
    poset = build_poset(arr)
    atomic = _atomic_ring(poset, _member_subsets(poset))
    relative = ring_table(decompose(poset))
    images = fk_images(atomic, relative)
    assert_invertible(atomic, relative, images)
    m = len(atomic.basis)
    for i in range(m):
        for j in range(m):
            image = {}
            for t, c in atomic.products[(i, j)].items():
                image = add_chains(image, images[t], c)
            assert relative.reduce(image) == relative.multiply(images[i], images[j]), (i, j)
    report = verify_ring_axioms(atomic)
    assert report.passed, report.failures
    return atomic, relative


@pytest.mark.parametrize("name", list(RING_INPUTS))
def test_fk_maps_the_atomic_ring_isomorphically_onto_the_relative_ring(name):
    atomic, relative = assert_fk_is_a_ring_isomorphism(RING_INPUTS[name])
    assert (atomic.model, relative.model) == ("atomic", "relative")
    assert atomic.poincare == relative.poincare


@SETTINGS
@given(small_arrangements())
def test_fk_maps_the_atomic_ring_isomorphically_on_random_arrangements(arr):
    # some draws have one member inside another
    assert_fk_is_a_ring_isomorphism(arr)


# ---------------------------------------------------------------------------
# the choice of model


def atomic_cells(poset):
    return sum(poset.d[q] + 1 for size in _member_subsets(poset) for _, q in size)


def assert_predicted_cells_are_built(arr):
    """Both totals are the cells of the complexes built at every level,
    and the atomic enumeration gives up exactly when it passes its limit."""
    poset = build_poset(arr)
    levels = range(poset.n + 1)
    relative = sum(sum(map(len, build_relative_complex(poset, k).bases)) for k in levels)
    atomic = sum(sum(map(len, atomic_complex(poset, k).bases)) for k in levels)
    assert (_relative_cells(poset), atomic_cells(poset)) == (relative, atomic)
    assert _member_subsets(poset, atomic) is not None
    assert _member_subsets(poset, atomic - 1) is None


@pytest.mark.parametrize("name", list(RING_INPUTS))
def test_predicted_cells_are_the_cells_built(name):
    assert_predicted_cells_are_built(RING_INPUTS[name])


@SETTINGS
@given(small_arrangements())
def test_predicted_cells_are_the_cells_built_on_random_arrangements(arr):
    assert_predicted_cells_are_built(arr)


PICK_INPUTS = {**fixture_arrangements(), **benchmark_arrangements()}


@pytest.mark.parametrize("name", list(PICK_INPUTS))
def test_fixtures_and_benchmark_inputs_pick_the_atomic_model(name):
    poset = build_poset(PICK_INPUTS[name])
    assert atomic_cells(poset) <= _relative_cells(poset)
    assert projective_ring(poset).model == "atomic"


def test_a_tie_goes_to_the_atomic_model():
    poset = build_poset(points_cp1(5))
    assert (atomic_cells(poset), _relative_cells(poset)) == (7, 7)
    assert projective_ring(poset).model == "atomic"


class CountingRow(list):
    reads = 0

    def __getitem__(self, j):
        CountingRow.reads += 1
        return super().__getitem__(j)


def test_a_pencil_picks_the_relative_model_without_listing_its_subsets():
    # 12 concurrent lines: every subset meets in the point, so the atomic
    # model has 3 + 12·2 + (2^12 - 13) = 4,110 cells against 40 chains
    poset = build_poset(pencil(12))
    assert (atomic_cells(poset), _relative_cells(poset)) == (4110, 40)
    counting = dataclasses.replace(poset, meet=[CountingRow(row) for row in poset.meet])
    CountingRow.reads = 0
    assert _member_subsets(counting, 40) is None
    assert CountingRow.reads < 50  # it stops once it passes 40 cells
    table = projective_ring(poset)
    assert table.model == "relative"
    assert table.products == ring_table(decompose(poset)).products


def test_the_pencil_s_ring_output_is_the_level_engine_s(capsys, monkeypatch, tmp_path):
    # the document the levels always gave, with the model named
    path = tmp_path / "pencil12.json"
    path.write_text(to_json(pencil(12)))
    outputs = []
    for fmt in ("json", "text"):
        assert cli.main(["ring", str(path), "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    monkeypatch.setattr(cli, "projective_ring", lambda poset: ring_table(decompose(poset)))
    for fmt, out in zip(("json", "text"), outputs):
        assert cli.main(["ring", str(path), "--format", fmt]) == 0
        assert out == capsys.readouterr().out
    doc = json.loads(outputs[0])
    assert list(doc) == ["n", "model", "basis", "poincare", "torsion", "products"]
    assert doc["model"] == "relative"


# ---------------------------------------------------------------------------
# torsion: the coordinate arrangement of RP²₆


def test_both_engines_find_the_z2_of_the_rp2_coordinate_arrangement():
    # Hochster's formula gives H^9 ⊇ Z/2 from the full subcomplex K itself
    arr = coordinate(RP2_6)
    assert (arr.n, len(arr.subspaces)) == (6, 11)
    poset = build_poset(arr)
    tables = [projective_ring(poset), ring_table(decompose(poset)), affine_decompose(poset, 0)]
    assert [t.model for t in tables] == ["atomic", "relative", "local"]
    for table in tables:
        assert table.poincare == [1, 0, 0, 0, 0, 10, 15, 6, 0, 0, 0, 0, 0]
        assert [(b.degree, b.torsion_order) for b in table.basis if b.torsion_order] == [(9, 2)]
