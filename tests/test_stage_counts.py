"""Each pipeline stage runs once per CLI command, cycles are
coordinatized by reading one column of V⁻¹ per nonzero, and homology
asks Smith normal form only for the transforms it reads.

Calls are counted by code object through `sys.setprofile`, so a stage
reached through an alias (`from .poset import build_poset`) or a wrapper
is still counted.
"""

import os
import sys

import pytest

from projarr import chains
from projarr.arrangement import intersection_closure
from projarr.cli import main
from projarr.poset import build_poset
from projarr.ring import decompose

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
STAGES = (build_poset, intersection_closure, decompose)


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
        (["ring", "boolean_cp2"], (1, 1, 1)),
        (["homology", "boolean_cp2"], (1, 1, 1)),
        (["ring", "--affine", "0", "boolean_cp2"], (1, 1, 0)),
        (["poset", "boolean_cp2"], (1, 1, 0)),
        (["oracle", "boolean_cp2"], (1, 1, 0)),
        (["presentation", "--c", "1", "boolean_cp2"], (1, 1, 1)),
        (["presentation", "--c", "2", "skew_lines"], (1, 1, 1)),
        # one poset for the ring and one per sectioned arrangement (3 seeds)
        (["verify", "boolean_cp2"], (4, 4, 1)),
        (["verify", "skew_lines"], (4, 4, 1)),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_stage_runs_once_per_command(capsys, argv, expected):
    *flags, name = argv
    code, counts = stage_counts(flags + [os.path.join(FIXTURES, name + ".json")])
    assert code == 0
    assert counts == expected


def test_non_c_arrangement_rejected_before_homology(capsys):
    code, counts = stage_counts(["presentation", "--c", "2", os.path.join(FIXTURES, "boolean_cp2.json")])
    assert code == 2
    assert counts == (1, 1, 0)


HOMOLOGY_FLAGS = [["ring"], ["ring", "--affine", "0"], ["presentation", "--c", "1"], ["presentation", "--c", "2"]]


class CountingColumns(list):
    """A list of columns that counts the columns read from it."""

    reads = 0

    def __getitem__(self, j):
        self.reads += 1
        return super().__getitem__(j)


@pytest.mark.parametrize("flags", HOMOLOGY_FLAGS, ids=" ".join)
def test_cycles_are_coordinatized_without_dense_matvec(capsys, monkeypatch, flags):
    # class_of on a chain with t nonzeros reads exactly t columns of V⁻¹,
    # on every complex homology is computed for
    original_homology, original_class_of = chains.homology, chains.HomologySummary.class_of
    reads = []  # (columns read, nonzeros) per class_of call

    def homology(cx):
        summary = original_homology(cx)
        for degree in summary.degrees:
            degree._vinv = CountingColumns(degree._vinv)
        return summary

    def class_of(self, chain, r):
        vinv = self.degree(r)._vinv
        before = getattr(vinv, "reads", 0)
        coords = original_class_of(self, chain, r)
        reads.append((getattr(vinv, "reads", 0) - before, sum(1 for c in chain.values() if c)))
        return coords

    for module in ("ring", "presentation"):
        monkeypatch.setattr(f"projarr.{module}.homology", homology)
    monkeypatch.setattr(chains.HomologySummary, "class_of", class_of)
    succeeded = 0
    for name in sorted(os.listdir(FIXTURES)):
        succeeded += main(flags + [os.path.join(FIXTURES, name)]) == 0
    assert succeeded >= 2
    assert sum(t for _, t in reads) > 0
    assert all(read == t for read, t in reads)


@pytest.mark.parametrize("flags", HOMOLOGY_FLAGS, ids=" ".join)
def test_homology_carries_only_the_transforms_it_reads(capsys, monkeypatch, flags):
    # V, V⁻¹ from the SNF of a boundary ∂_r; U, U⁻¹ from that of the image
    # presentation, the matrix _image_in_kernel_coords builds
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
    assert {of_boundary for of_boundary, _ in calls} == {True, False}
    for of_boundary, res in calls:
        left = (res.u_rows, res.uinv_cols)
        right = (res.v_cols, res.vinv_rows)
        carried, uncarried = (right, left) if of_boundary else (left, right)
        assert None not in carried
        assert uncarried == (None, None)
