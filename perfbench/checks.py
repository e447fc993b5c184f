"""Correctness gate and size record for one job's CLI output.

The gate compares basis-independent invariants only, so a change of
basis, generator order or representative cycles passes, while a wrong
ring does not:

* every job: the Euler characteristic of the Poincaré polynomial equals
  `stratified_euler` of the intersection poset;
* hyperplane arrangements: the Poincaré polynomial equals
  `os_poincare_projective` (Orlik–Solomon via the Möbius function);
* `ring` jobs: the rank over Q of each product pairing
  H^p (x) H^q -> H^{p+q} equals the reference recorded at the seed commit,
  and the degree-0 generator acts as plus or minus the identity;
* affine `ring` jobs: the Poincaré polynomial equals the projective one
  (checked by the caller, which sees both jobs);
* `verify` jobs report `passed: true`; `presentation` jobs report
  `passed: true` with equal rank columns.

Sizes (|Q|, cells per level and degree, basis size) are counted here from
the poset alone, independently of the chain-complex code, and must not
fall below the job slot's floor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from generators import Job, int_rank


@dataclass
class Oracle:
    """Reference values for one input, computed outside the timed region."""

    poset_size: int
    euler: int
    os_poincare: list[int] | None
    level_cells: list[list[int]]  # level k -> cells per degree of the relative complex
    affine_cells: list[int]  # degree -> cells summed over the local complexes of Q'


def chains_from_top(poset, floor: int) -> list[list[int]]:
    """counts[r][w]: chains V = w_0 > w_1 > ... > w_r = w with every d >= floor."""
    m = len(poset.elements)
    keep = [i for i in range(m) if poset.d[i] >= floor]
    counts = [[0] * m]
    counts[0][poset.top] = 1
    while True:
        prev = counts[-1]
        cur = [0] * m
        for w in keep:
            cur[w] = sum(prev[u] for u in keep if u != w and prev[u] and poset.leq[w][u])
        if not any(cur):
            return counts
        counts.append(cur)


def make_oracle(projarr, text: str) -> Oracle:
    """The oracle of one input file; affine cells send member 0 to infinity."""
    arr = projarr.parse_arrangement(text)
    poset = projarr.build_poset(arr)
    try:
        os_poly = projarr.os_poincare_projective(arr)
    except ValueError:
        os_poly = None
    level_cells = [
        [sum(row) for row in chains_from_top(poset, k)] for k in range(poset.n + 1)
    ]
    affine_cells: list[int] = []
    if arr.subspaces and arr.subspaces[0].dim == arr.n:
        a0 = poset.index_of(arr.subspaces[0])
        below_top = chains_from_top(poset, -1)
        for u in range(len(poset.elements)):
            if poset.leq[u][a0]:
                continue
            per_degree = [1] if u == poset.top else [row[u] for row in below_top]
            affine_cells += [0] * (len(per_degree) - len(affine_cells))
            for r, c in enumerate(per_degree):
                affine_cells[r] += c
    return Oracle(len(poset.elements), projarr.stratified_euler(poset), os_poly, level_cells, affine_cells)


def pairing_ranks(doc: dict) -> dict[str, int]:
    """Rank over Q of H^p (x) H^q -> H^{p+q} on the free part, keyed "p,q"."""
    free = {b["id"]: b["degree"] for b in doc["basis"] if not b["torsion_order"]}
    by_degree: dict[int, list[int]] = {}
    for i, d in sorted(free.items()):
        by_degree.setdefault(d, []).append(i)
    products = {(e["i"], e["j"]): e["result"] for e in doc["products"]}
    out = {}
    for p, left in by_degree.items():
        for q, right in by_degree.items():
            target = by_degree.get(p + q)
            if not target:
                continue
            pos = {t: k for k, t in enumerate(target)}
            rows = []
            for i in left:
                for j in right:
                    row = [0] * len(target)
                    for t, c in products.get((i, j), []):
                        if t in pos:
                            row[pos[t]] = c
                    rows.append(row)
            out[f"{p},{q}"] = int_rank(rows)
    return out


def unit_law_failures(doc: dict) -> list[str]:
    """The degree-0 generator must multiply every basis class to plus or
    minus itself, with one sign on both sides (the sign is the generator's)."""
    units = [b["id"] for b in doc["basis"] if b["degree"] == 0 and not b["torsion_order"]]
    if len(units) != 1:
        return [f"{len(units)} free classes in degree 0"]
    u = units[0]
    products = {(e["i"], e["j"]): e["result"] for e in doc["products"]}
    sign = {t: c for t, c in products.get((u, u), [])}.get(u)
    bad = [
        b["id"] for b in doc["basis"]
        if sign not in (1, -1)
        or products.get((u, b["id"])) != [[b["id"], sign]]
        or products.get((b["id"], u)) != [[b["id"], sign]]
    ]
    return [f"unit law fails on classes {bad[:5]}"] if bad else []


@dataclass
class Verdict:
    poincare: list[int] = field(default_factory=list)
    pairing_ranks: dict[str, int] | None = None
    sizes: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def _trim(poly):
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def check_output(job: Job, text: str, oracle: Oracle) -> Verdict:
    """Gate one job's output against its oracle and its slot's reference."""
    v = Verdict()
    doc = json.loads(text)
    if job.command in ("ring", "affine"):
        v.poincare = doc["poincare"]
        basis = len(doc["basis"])
    elif job.command == "verify":
        v.poincare = doc["poincare"]
        basis = sum(v.poincare)
        if doc["passed"] is not True:
            v.failures.append(f"verify reported failures: {doc['failures']}")
    elif job.command == "presentation":
        ranks = doc["ranks"]
        v.poincare = [r["engine_rank"] for r in ranks]
        basis = sum(v.poincare)
        if doc["passed"] is not True:
            v.failures.append("presentation reported passed: false")
        for r in ranks:
            if not r["pi_rank"] == r["presentation_rank"] == r["engine_rank"]:
                v.failures.append(f"presentation ranks differ in degree {r['degree']}")
    else:
        raise ValueError(f"unknown command {job.command!r}")

    euler = sum((-1) ** i * c for i, c in enumerate(v.poincare))
    if euler != oracle.euler:
        v.failures.append(f"Euler characteristic {euler} != stratified_euler {oracle.euler}")
    if oracle.os_poincare is not None and _trim(v.poincare) != oracle.os_poincare:
        v.failures.append(f"Poincaré {_trim(v.poincare)} != os_poincare_projective {oracle.os_poincare}")
    if job.command in ("ring", "affine"):
        v.pairing_ranks = pairing_ranks(doc)
        v.failures += unit_law_failures(doc)

    cells = oracle.level_cells if job.command != "affine" else [oracle.affine_cells]
    v.sizes = {
        "poset": oracle.poset_size,
        "cells": sum(map(sum, cells)),
        "cells_per_level": cells,
        "snf_shapes": [
            [[level[r - 1], level[r]] for r in range(1, len(level))] for level in cells
        ],
        "basis": basis,
    }
    if not job.expect:
        v.failures.append(f"no reference recorded for {job.key}")
        return v
    for key in ("poset", "cells", "basis"):
        if v.sizes[key] < job.expect[key]:
            v.failures.append(f"{key} size {v.sizes[key]} fell below the floor {job.expect[key]}")
    reference = job.expect.get("pairing_ranks")
    if v.pairing_ranks != reference:
        v.failures.append(f"product pairing ranks {v.pairing_ranks} != reference {reference}")
    return v
