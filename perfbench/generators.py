"""Seeded arrangement generators and the job list of each workload.

Every random draw is redrawn, deterministically from the same stream,
until it has the workload's fixed intersection type: generic position for
the hyperplane and subspace families, and exactly four triple points (no
point of higher multiplicity) for the ten-line family.  Fixing the type
keeps the amount of work, and the reference invariants, the same for
every seed; only the coordinates change.  A draw with a duplicate member
or one that is not a c-arrangement fails these tests and is redrawn too.

The generators use their own integer arithmetic and never import
projarr, so generation time does not depend on the program under test.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("hyperplane-ring", "subspace-verify", "line-affine")

# Size floors and invariants per job slot, recorded at the seed commit by
# record_reference.py.
REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Job:
    """One CLI invocation on one generated input file.

    `expect` holds what the seed commit produced for this job slot (its
    `key`): size floors (`poset`, `cells`, `basis`) and, for `ring` jobs,
    the product pairing ranks.  Fixed intersection types make these the
    same for every seed.
    """

    name: str
    command: str  # ring | affine | verify | presentation
    args: list[str]
    doc: dict
    expect: dict = field(default_factory=dict)

    @property
    def filename(self) -> str:
        return f"{self.name}.json"

    @property
    def key(self) -> str:
        return f"{self.name}:{self.command}"

    def argv(self, path: str) -> list[str]:
        return [*self.args, path]


# ---------------------------------------------------------------------------
# exact integer helpers


def int_rank(rows) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col]
            if f:
                m[i] = [p[col] * x - f * y for x, y in zip(m[i], p)]
        rank += 1
    return rank


def normalize(v) -> tuple[int, ...]:
    """Primitive representative of a projective point, first entry > 0."""
    g = 0
    for x in v:
        g = math.gcd(g, x)
    v = tuple(x // g for x in v)
    lead = next(x for x in v if x)
    return tuple(-x for x in v) if lead < 0 else v


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def intersection_points(lines) -> dict[tuple[int, ...], set[int]]:
    """Each intersection point of distinct lines in CP^2 -> the lines through it."""
    points: dict[tuple[int, ...], set[int]] = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(lines), 2):
        points.setdefault(normalize(_cross(a, b)), set()).update((i, j))
    return points


def point_multiplicities(lines) -> Counter:
    """Multiplicity -> number of intersection points."""
    return Counter(len(on) for on in intersection_points(lines).values())


def _entries(rows):
    return [[str(x) for x in r] for r in rows]


def arrangement_doc(ambient_dim: int, members, key: str) -> dict:
    return {
        "ambient_dim": ambient_dim,
        "subspaces": [
            {"name": f"A{i}", key: _entries(rows)} for i, rows in enumerate(members)
        ],
    }


# ---------------------------------------------------------------------------
# families


def boolean_cp3() -> dict:
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    return arrangement_doc(4, [[row] for row in eye], "equations")


def vandermonde_planes_cp3(m: int = 5) -> dict:
    return arrangement_doc(4, [[[(i + 1) ** j for j in range(4)]] for i in range(m)], "equations")


def random_generic_planes_cp3(rng: random.Random, m: int = 5, bound: int = 2) -> dict:
    while True:
        fs = [[rng.randint(-bound, bound) for _ in range(4)] for _ in range(m)]
        if all(int_rank(sub) == 4 for sub in itertools.combinations(fs, 4)):
            return arrangement_doc(4, [[f] for f in fs], "equations")


def random_generic_subspaces(
    rng: random.Random, ambient_dim: int, codim: int, m: int, bound: int = 5
) -> dict:
    """m subspaces of linear codimension `codim` in general position, so
    every intersection of j members has codimension min(j*codim, ambient_dim)."""
    while True:
        eqs = [
            [[rng.randint(-bound, bound) for _ in range(ambient_dim)] for _ in range(codim)]
            for _ in range(m)
        ]
        if all(
            int_rank([row for member in sub for row in member])
            == min(j * codim, ambient_dim)
            for j in range(1, m + 1)
            for sub in itertools.combinations(eqs, j)
        ):
            return arrangement_doc(ambient_dim, eqs, "equations")


LINE_TYPE = Counter({2: 33, 3: 4})


def random_lines_cp2(rng: random.Random, count: int = 10, bound: int = 2) -> dict:
    """`count` distinct lines with exactly four triple points and 33 double
    points.  Member 0, the line sent to infinity in affine mode, is the
    first line drawn that passes through exactly one triple point, so the
    affine poset Q' has the same size for every seed."""
    while True:
        lines = [tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(count)]
        if any(l == (0, 0, 0) for l in lines):
            continue
        if len({normalize(l) for l in lines}) < count:
            continue
        points = intersection_points(lines)
        if Counter(len(on) for on in points.values()) != LINE_TYPE:
            continue
        triples = [on for on in points.values() if len(on) == 3]
        first = next((i for i in range(count) if sum(i in on for on in triples) == 1), None)
        if first is not None:
            lines = lines[first:] + lines[:first]
            return arrangement_doc(3, [[l] for l in lines], "equations")


# The fixtures skew_lines3 and crossed_pairs, kept here so the benchmark
# stands alone.
SKEW_LINES3 = arrangement_doc(
    4, [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]], [[1, 0, 1, 0], [0, 1, 0, 1]]], "span"
)
CROSSED_PAIRS = {
    "ambient_dim": 4,
    "subspaces": [
        {"name": "u", "span": [["1", "0", "0", "0"], ["0", "0", "0", "1"]]},
        {"name": "v", "span": [["1", "0", "0", "0"], ["0", "0", "1", "1/4"]]},
        {"name": "u~", "span": [["0", "1", "0", "0"], ["0", "0", "1", "1"]]},
        {"name": "v~", "span": [["0", "1", "0", "0"], ["0", "0", "1", "1/5"]]},
    ],
}


# ---------------------------------------------------------------------------
# workloads


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's job list for `seed`, each with its slot's reference."""
    jobs = _draw_jobs(workload, random.Random(f"{workload}:{seed}"))
    reference = json.loads(REFERENCE.read_text()).get(workload, {})
    for job in jobs:
        job.expect = reference.get(job.key, {})
    return jobs


def _draw_jobs(workload: str, rng: random.Random) -> list[Job]:
    if workload == "hyperplane-ring":
        return [
            Job("boolean_cp3", "ring", ["ring"], boolean_cp3()),
            Job("vandermonde5_cp3", "ring", ["ring"], vandermonde_planes_cp3()),
            Job("random5_cp3", "ring", ["ring"], random_generic_planes_cp3(rng)),
        ]
    if workload == "subspace-verify":
        c2 = random_generic_subspaces(rng, 6, 2, 5)
        c3 = random_generic_subspaces(rng, 9, 3, 4)
        return [
            Job("codim2x5_cp5", "verify", ["verify"], c2),
            Job("codim2x5_cp5", "presentation", ["presentation", "--c", "2"], c2),
            Job("codim3x4_cp8", "verify", ["verify"], c3),
            Job("codim3x4_cp8", "presentation", ["presentation", "--c", "3"], c3),
            Job("skew_lines3", "verify", ["verify"], SKEW_LINES3),
            Job("skew_lines3", "presentation", ["presentation", "--c", "2"], SKEW_LINES3),
            Job("crossed_pairs", "verify", ["verify"], CROSSED_PAIRS),
        ]
    if workload == "line-affine":
        jobs = []
        for i in range(2):
            doc = random_lines_cp2(rng)
            jobs.append(Job(f"lines10_{i}", "affine", ["ring", "--affine", "0"], doc))
            jobs.append(Job(f"lines10_{i}", "ring", ["ring"], doc))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def input_bytes(job: Job) -> bytes:
    return json.dumps(job.doc, indent=2).encode()


def write_inputs(jobs: list[Job], directory) -> dict[str, str]:
    """Write each distinct input once; returns file name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        if job.filename not in paths:
            path = directory / job.filename
            path.write_bytes(input_bytes(job))
            paths[job.filename] = str(path)
    return paths
