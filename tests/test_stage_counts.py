"""Each pipeline stage runs once per CLI command, cycles are
coordinatized by reading one column of V⁻¹ (or of ∂ where there is no
homology) per nonzero, homology asks Smith normal form only for the
transforms it reads, subspaces are intersected in the first one's
coordinates, the closure reduces once per
element it cuts, and the ring table enters no public chain function and
reads classes once per live block of basis pairs.  The chains to V from
each start are enumerated once per command, and one traced pass of each
benchmark workload stays within its span budget.

Calls are counted by code object through `sys.setprofile`, so a stage
reached through an alias (`from .poset import build_poset`) or a wrapper
is still counted.
"""

import importlib
import inspect
import os
import sys

import pytest

from arrangements import pencil, perfbench, to_json
from projarr import chains, cli, linalg, ring
from projarr.arrangement import intersection_closure, parse_arrangement
from projarr.cli import main
from projarr.linalg import Subspace, rref, subspace_intersection
from projarr.poset import IntersectionPoset, build_poset
from projarr.ring import decompose

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
STAGES = (build_poset, intersection_closure, decompose)
PENCIL = "pencil12_cp2"  # where `ring` falls back to the relative model


def input_path(name, tmp_path):
    """The path of a fixture, or of the 12-line pencil written to tmp_path."""
    if name != PENCIL:
        return os.path.join(FIXTURES, name + ".json")
    path = tmp_path / f"{PENCIL}.json"
    path.write_text(to_json(pencil(12)))
    return str(path)


def call_counts(argv, functions):
    """Exit code and the number of calls to each of functions."""
    codes = {f.__code__: i for i, f in enumerate(functions)}
    counts = [0] * len(functions)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        code = main(argv)
    finally:
        sys.setprofile(previous)
    return code, tuple(counts)


def stage_counts(argv):
    """Exit code and (build_poset, intersection_closure, decompose) calls."""
    return call_counts(argv, STAGES)


@pytest.mark.parametrize(
    "argv, expected",
    [
        # the atomic model needs no level decomposition
        (["ring", "boolean_cp2"], (1, 1, 0)),
        (["homology", "boolean_cp2"], (1, 1, 1)),
        (["ring", "--affine", "0", "boolean_cp2"], (1, 1, 0)),
        (["poset", "boolean_cp2"], (1, 1, 0)),
        (["oracle", "boolean_cp2"], (1, 1, 0)),
        (["presentation", "--c", "1", "boolean_cp2"], (1, 1, 1)),
        (["presentation", "--c", "2", "skew_lines"], (1, 1, 1)),
        # one poset for the ring, and one closure per sectioned arrangement
        # (3 seeds): the section check reads the closure's masks
        (["verify", "boolean_cp2"], (1, 4, 1)),
        (["verify", "skew_lines"], (1, 4, 1)),
        # the relative fallback
        (["ring", PENCIL], (1, 1, 1)),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_stage_runs_once_per_command(capsys, tmp_path, argv, expected):
    *flags, name = argv
    code, counts = stage_counts(flags + [input_path(name, tmp_path)])
    assert code == 0
    assert counts == expected


def test_non_c_arrangement_rejected_before_homology(capsys):
    code, counts = stage_counts(["presentation", "--c", "2", os.path.join(FIXTURES, "boolean_cp2.json")])
    assert code == 2
    assert counts == (1, 1, 0)


def test_max_degree_above_the_top_rejected_before_homology(capsys):
    # L = max(2n, 2(c - 1) + (2c - 1)t) is 4 for boolean_cp2 with c = 1
    argv = ["presentation", "--c", "1", "--max-degree", "1000", os.path.join(FIXTURES, "boolean_cp2.json")]
    code, counts = stage_counts(argv)
    assert code == 2
    assert counts == (1, 1, 0)
    assert capsys.readouterr().err == "error: max degree 1000 is above 4, past which every rank is 0\n"


HOMOLOGY_FLAGS = [["ring"], ["ring", "--affine", "0"], ["presentation", "--c", "1"], ["presentation", "--c", "2"]]


class CountingColumns(list):
    """A list of columns that counts the columns read from it."""

    reads = 0

    def __getitem__(self, j):
        self.reads += 1
        return super().__getitem__(j)


@pytest.mark.parametrize("flags", HOMOLOGY_FLAGS, ids=" ".join)
def test_cycles_are_coordinatized_without_dense_matvec(capsys, monkeypatch, flags):
    # the class reader, on a block of chains with t nonzeros in all,
    # reads exactly t columns: of V⁻¹ where H_r ≠ 0, of ∂_r where H_r = 0
    # (a cycle there is only checked), on every complex homology is
    # computed for; class_of is its one-chain case
    original_homology, original_classes_of = chains.homology, chains.HomologySummary.classes_of
    reads = []  # (columns read, nonzeros, chains, H_r = 0) per reader call

    def homology(cx):
        summary = original_homology(cx)
        for degree in summary.degrees:
            degree._vinv = CountingColumns(degree._vinv)
            degree._boundary = CountingColumns(degree._boundary)
        return summary

    def classes_of(self, chain_list, r):
        degree = self.degree(r)
        zero = not degree.generators
        columns = degree._boundary if zero else degree._vinv
        before = getattr(columns, "reads", 0)
        coords = original_classes_of(self, chain_list, r)
        nonzeros = sum(1 for chain in chain_list for c in chain.values() if c)
        reads.append((getattr(columns, "reads", 0) - before, nonzeros, len(chain_list), zero))
        return coords

    for module in ("ring", "presentation"):
        monkeypatch.setattr(f"projarr.{module}.homology", homology)
    monkeypatch.setattr(chains.HomologySummary, "classes_of", classes_of)
    succeeded = 0
    for name in sorted(os.listdir(FIXTURES)):
        succeeded += main(flags + [os.path.join(FIXTURES, name)]) == 0
    assert succeeded >= 2
    assert sum(t for _, t, _, _ in reads) > 0
    assert all(read == t for read, t, _, _ in reads)
    if flags == ["ring"]:
        # products land in degrees with and without homology, and the
        # table reads them a block at a time (an affine block on these
        # fixtures holds one pair)
        assert {zero for _, t, _, zero in reads if t} == {True, False}
        assert any(count > 1 for _, _, count, _ in reads)


@pytest.mark.parametrize("flags", HOMOLOGY_FLAGS, ids=" ".join)
def test_homology_carries_only_the_transforms_it_reads(capsys, monkeypatch, flags):
    # every boundary ∂_r gets an SNF with no transforms, for its
    # invariant factors; where H_r ≠ 0, ∂_r gets one more with V, V⁻¹,
    # and the image presentation (the matrix _image_in_kernel_coords
    # builds) one with U, U⁻¹
    presentations = {}  # id -> matrix, kept alive so that no id is reused
    calls = []
    original_image, original_snf = chains._image_in_kernel_coords, chains.snf

    def image_in_kernel_coords(*args):
        m = original_image(*args)
        presentations[id(m)] = m
        return m

    def snf(a, **kwargs):
        res = original_snf(a, **kwargs)
        calls.append((id(a) not in presentations, res))
        return res

    monkeypatch.setattr(chains, "snf", snf)
    monkeypatch.setattr(chains, "_image_in_kernel_coords", image_in_kernel_coords)
    for name in sorted(os.listdir(FIXTURES)):
        main(flags + [os.path.join(FIXTURES, name)])
    kinds = []
    for of_boundary, res in calls:
        left = (res.u_rows, res.uinv_cols)
        right = (res.v_cols, res.vinv_rows)
        if of_boundary and right == (None, None):
            kinds.append("factors")
            assert left == (None, None)
            continue
        kinds.append("boundary" if of_boundary else "presentation")
        carried, uncarried = (right, left) if of_boundary else (left, right)
        assert None not in carried
        assert uncarried == (None, None)
    assert {"factors", "boundary"} <= set(kinds)
    assert kinds.count("factors") >= kinds.count("boundary")
    if flags == ["ring"]:
        # the local complexes and the presentations' level complexes of
        # these fixtures have homology only in their top degree, which
        # has no image to present
        assert "presentation" in kinds


@pytest.mark.parametrize("flags", [["verify"], ["presentation", "--c", "1"], ["presentation", "--c", "2"]], ids=" ".join)
def test_intersections_are_solved_in_the_first_subspace_s_coordinates(capsys, flags):
    # every cut of q by a member eliminates dim q rows (the basis of q,
    # with the member's equations given by their values on it), never
    # ambient_dim.  The closure and subspace_intersection both cut
    # through linalg._cut.
    seen = []  # (rows, value columns, q.dim, q.ambient_dim) per cut

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is linalg._cut_rows.__code__:
            caller = frame.f_back
            if caller.f_code is linalg._cut.__code__:
                q, values = caller.f_locals["a"], frame.f_locals["values"]
                seen.append((len(frame.f_locals["basis"]), {len(v) for v in values}, q.dim, q.ambient_dim))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name in sorted(os.listdir(FIXTURES)):
            main(flags + [os.path.join(FIXTURES, name)])
    finally:
        sys.setprofile(previous)
    assert any(dim < ambient for _, _, dim, ambient in seen)
    assert all(rows == dim and columns == {dim} for rows, columns, dim, _ in seen)


def closure_work(arr):
    """The closure of arr, the row reductions its cuts make, and the
    subspace_intersection calls it makes."""
    cut, closure = linalg._cut.__code__, intersection_closure.__code__
    reductions = meets = 0

    def profile(frame, event, arg):
        nonlocal reductions, meets
        if event != "call":
            return
        if frame.f_code is rref.__code__ and frame.f_back.f_code is cut and frame.f_back.f_back.f_code is closure:
            reductions += 1
        elif frame.f_code is subspace_intersection.__code__:
            meets += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = intersection_closure(arr)
    finally:
        sys.setprofile(previous)
    return result, reductions, meets


generators, spans = perfbench("generators"), perfbench("spans")


def _closure_cases():
    """Every fixture, and the first ten-line arrangement of the benchmark's
    line-affine workload at two seeds."""
    cases = []
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name)) as fh:
            cases.append((name[:-5], parse_arrangement(fh.read())))
    for seed in (3, 11):
        job = generators.jobs_for("line-affine", seed)[0]
        cases.append((f"{job.name} seed {seed}", parse_arrangement(generators.input_bytes(job).decode())))
    return cases


CLOSURE_CASES = _closure_cases()


@pytest.mark.parametrize("arr", [arr for _, arr in CLOSURE_CASES], ids=[name for name, _ in CLOSURE_CASES])
def test_the_closure_reduces_once_per_element_it_cuts(arr):
    # V, the members and 0 need no reduction; every other element is cut
    # from one element by one member, and reduced once
    closure, reductions, meets = closure_work(arr)
    zero = Subspace(arr.ambient_dim, ())
    cut = len(closure) - 1 - len(arr.subspaces) - (zero in closure)
    assert (reductions, meets) == (cut, 0)
    if len(arr.subspaces) == 10:
        # 4 triple points and 33 double points
        assert (len(closure), reductions) == (49, 37)


def chain_calls_in_table(argv):
    """Exit code, the ring table, the public `chains` functions entered
    while `ring._ring` assembles it (by name), and the class reads it
    makes (`class_of` or `classes_of` calls)."""
    public = {
        f.__code__: name for name, f in vars(chains).items()
        if inspect.isfunction(f) and f.__module__ == chains.__name__ and not name.startswith("_")
    }
    readers = {chains.HomologySummary.class_of.__code__, chains.HomologySummary.classes_of.__code__}
    assemble = ring._ring.__code__
    entered, tables = [], []
    reads = 0

    def in_assembly(frame):
        while frame is not None and frame.f_code is not assemble:
            frame = frame.f_back
        return frame is not None

    def profile(frame, event, arg):
        nonlocal reads
        if event == "return" and frame.f_code is assemble:
            tables.append(arg)
        elif event != "call":
            return
        elif frame.f_code in public and in_assembly(frame):
            entered.append(public[frame.f_code])
        elif frame.f_code in readers and frame.f_back.f_code not in readers and in_assembly(frame):
            reads += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        code = main(argv)
    finally:
        sys.setprofile(previous)
    return code, tables, entered, reads


def live_blocks(table, affine):
    """The blocks of basis pairs, one per pair of (summand, r) groups,
    whose product can be nonzero, and the basis pairs in them: the target
    summand exists (level k + l - n, or u ∧ v of dimension
    d(u) + d(v) - n) and has cells in degree r + s."""
    poset, n = table.poset, table.n
    blocks = pairs = 0
    for (a, r), rows in table.ids.items():
        for (b, s), cols in table.ids.items():
            if affine:
                w = poset.meet[a][b]
                live = w in table.summaries and poset.d[w] == poset.d[a] + poset.d[b] - n
            else:
                w = a + b - n
                live = w >= 0
            if live and table.summaries[w].complex.dim(r + s):
                blocks += 1
                pairs += len(rows) * len(cols)
    return blocks, pairs


@pytest.mark.parametrize("name", ["boolean_cp3", "generic4_cp2", "skew_lines3"])
@pytest.mark.parametrize("flags", [["ring"], ["ring", "--affine", "0"]], ids=" ".join)
def test_the_table_reads_classes_once_per_live_block(capsys, flags, name):
    # no public chains function per basis pair: the meet product runs the
    # private kernel, and each live block's chains are coordinatized in
    # one read.  skew_lines3 has no hyperplane to send to infinity, so
    # --affine 0 refuses it.
    code, tables, entered, reads = chain_calls_in_table(flags + [os.path.join(FIXTURES, name + ".json")])
    if name == "skew_lines3" and "--affine" in flags:
        assert (code, tables, entered, reads) == (2, [], [], 0)
        return
    assert code == 0 and len(tables) == 1
    blocks, pairs = live_blocks(tables[0], "--affine" in flags)
    assert entered == []
    assert 0 < reads <= blocks <= pairs
    if flags == ["ring"]:
        assert blocks < pairs


def public_functions():
    """Code object -> name of every public module function of projarr, the
    functions the benchmark's tracer wraps."""
    return {
        f.__code__: f"{module.__name__}.{name}"
        for module in (importlib.import_module(f"projarr.{m}") for m in spans.MODULES)
        for name, f in vars(module).items()
        if inspect.isfunction(f) and f.__module__ == module.__name__ and not name.startswith("_")
    }


def complex_assembly(argv):
    """Exit code, the public functions entered while a complex is assembled
    (by name), and per (poset, start) the chain lists `chains_to_top`
    returned for it."""
    public = public_functions()
    builders = {chains.build_relative_complex.__code__, chains.build_local_complex.__code__}
    enumerate_chains = IntersectionPoset.chains_to_top.__code__
    entered, returned, posets = [], {}, []

    def in_assembly(frame):
        while frame is not None and frame.f_code not in builders:
            frame = frame.f_back
        return frame is not None

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is enumerate_chains:
            poset = frame.f_locals["self"]
            posets.append(poset)  # kept alive, so that no id is reused
            returned.setdefault((id(poset), frame.f_locals["u"]), []).append(arg)
        elif event == "call" and frame.f_code in public and in_assembly(frame.f_back):
            entered.append(public[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        code = main(argv)
    finally:
        sys.setprofile(previous)
    return code, entered, returned


def assert_each_start_s_chains_are_enumerated_once(argv):
    # every relative and local complex is read off one enumeration of the
    # chains to V per start element, which stays out of the tracer's reach
    # (no public module function), and assembly enters only the builders
    # and complex_from_faces
    code, entered, returned = complex_assembly(argv)
    assert code == 0
    assert set(entered) == {"projarr.chains.complex_from_faces"}
    assert len({poset for poset, _ in returned}) == 1
    assert all(len({id(chains) for chains in lists}) == 1 for lists in returned.values())
    if "--affine" not in argv:
        # the levels read every start of d >= 0
        assert {u for _, u in returned} == set(range(max(u for _, u in returned) + 1))


@pytest.mark.parametrize("name", ["boolean_cp3", "generic4_cp2", "points5_cp1"])
@pytest.mark.parametrize(
    "flags", [["ring"], ["homology"], ["ring", "--affine", "0"], ["presentation", "--c", "1"]], ids=" ".join
)
def test_each_start_s_chains_are_enumerated_once(capsys, flags, name):
    argv = flags + [os.path.join(FIXTURES, name + ".json")]
    if flags == ["ring"]:
        # the atomic model lists no chain and builds no level complex
        assert complex_assembly(argv) == (0, [], {})
    else:
        assert_each_start_s_chains_are_enumerated_once(argv)


def test_the_relative_fallback_enumerates_each_start_s_chains_once(capsys, tmp_path):
    assert_each_start_s_chains_are_enumerated_once(["ring", input_path(PENCIL, tmp_path)])


@pytest.mark.parametrize("workload, budget", [("hyperplane-ring", 130), ("subspace-verify", 725), ("line-affine", 588)])
def test_a_traced_pass_stays_within_its_span_budget(capsys, tmp_path, workload, budget):
    # the benchmark's traced run analyses passes² × spans per pass, so an
    # added span per call lengthens it: one pass of the workload's jobs at
    # seed 11 under its tracer, which wraps every public function
    jobs = generators.jobs_for(workload, 11)
    paths = generators.write_inputs(jobs, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [cli.main(job.argv(paths[job.filename])) for job in jobs]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(jobs)
    assert len(tracer.start) <= budget
