"""Acceptance suite: each test covers one advertised guarantee and prints
a single pass/fail line, so `pytest -v tests/test_acceptance.py -s` reads
as a checklist."""

import random
from itertools import combinations
from math import comb

import pytest
import sympy

from arrangements import (
    boolean,
    crossed_pairs,
    empty,
    generic_hyperplanes,
    mixed,
    points_cp1,
    skew_lines,
)
from projarr import (
    affine_decompose,
    build_presentation,
    decompose,
    os_poincare_projective,
    pi_context,
    poincare_polynomial,
    ring_table,
    stratified_euler,
    verify_eta,
    verify_fg_homotopic,
    verify_fk_iso,
    verify_presentation,
    verify_ring_axioms,
)
from projarr.chains import cross_shuffle, meet_push, build_relative_complex, homology
from projarr.linalg import snf
from projarr.poset import build_poset

def ring_of(arr):
    return ring_table(decompose(build_poset(arr)))


ALL_FIXTURES = [
    ("empty CP^2", empty(2)),
    ("2 points CP^1", points_cp1(2)),
    ("3 points CP^1", points_cp1(3)),
    ("4 points CP^1", points_cp1(4)),
    ("5 points CP^1", points_cp1(5)),
    ("Boolean CP^2", boolean(2)),
    ("Boolean CP^3", boolean(3)),
    ("4 generic lines CP^2", generic_hyperplanes(2, 4)),
    ("5 generic planes CP^3", generic_hyperplanes(3, 5)),
    ("2 skew lines CP^3", skew_lines(2)),
    ("3 skew lines CP^3", skew_lines(3)),
    ("crossed line pairs CP^3", crossed_pairs()),
    ("line + plane CP^3", mixed()),
]

HYPERPLANE_FIXTURES = [
    (name, arr)
    for name, arr in ALL_FIXTURES
    if arr.subspaces and all(s.dim - 1 == arr.n - 1 for s in arr.subspaces)
]

C_FIXTURES = [
    ("2 points CP^1", points_cp1(2), 1),
    ("3 points CP^1", points_cp1(3), 1),
    ("5 points CP^1", points_cp1(5), 1),
    ("Boolean CP^2", boolean(2), 1),
    ("Boolean CP^3", boolean(3), 1),
    ("2 skew lines CP^3", skew_lines(2), 2),
    ("3 skew lines CP^3", skew_lines(3), 2),
]


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {label}: {status}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, detail


def test_criterion_01_empty_ring_is_truncated_polynomial():
    ok = True
    detail = ""
    for n in range(1, 5):
        table = ring_of(empty(n))
        if table.poincare != [1 if i % 2 == 0 else 0 for i in range(2 * n + 1)]:
            ok, detail = False, f"Betti vector wrong for n={n}"
            break
        ids = {b.degree: i for i, b in enumerate(table.basis)}
        x = {ids[2]: 1}
        power = {table.unit_index: 1}
        for s in range(1, n + 1):
            power = table.multiply(power, x)
            if set(power) != {ids[2 * s]} or abs(power[ids[2 * s]]) != 1:
                ok, detail = False, f"x^{s} does not span degree {2*s} for n={n}"
        if table.multiply(power, x) != {}:
            ok, detail = False, f"x^{n+1} != 0 for n={n}"
    report(1, "empty CP^n ring is Z[x]/x^(n+1), n <= 4", ok, detail)


def test_criterion_02_hyperplane_oracle():
    ok = True
    detail = ""
    assert len(HYPERPLANE_FIXTURES) >= 5
    for name, arr in HYPERPLANE_FIXTURES:
        engine = poincare_polynomial(decompose(build_poset(arr)))
        while engine and engine[-1] == 0:
            engine.pop()
        oracle = os_poincare_projective(arr)
        if engine != oracle:
            ok, detail = False, f"{name}: engine {engine} vs oracle {oracle}"
            break
    report(2, "Poincare polynomial matches the Mobius-function oracle", ok, detail)


def test_criterion_03_euler_oracle():
    ok = True
    detail = ""
    for name, arr in ALL_FIXTURES:
        betti = poincare_polynomial(decompose(build_poset(arr)))
        engine = sum((-1) ** i * c for i, c in enumerate(betti))
        oracle = stratified_euler(build_poset(arr))
        if engine != oracle:
            ok, detail = False, f"{name}: engine {engine} vs oracle {oracle}"
            break
    report(3, "Euler characteristic matches the stratification oracle", ok, detail)


def test_criterion_04_crossing_pairs_vanishing_product():
    arr = crossed_pairs()
    table = ring_of(arr)
    poset = table.poset
    top = poset.top
    ids = {(poset.index_of(s)): name for s, name in zip(arr.subspaces, arr.names)}
    u, v, ut, vt = [poset.index_of(s) for s in arr.subspaces]
    k = 1

    first = table.element(k, 1, {(u, top): 1, (v, top): -1})
    second = table.element(k, 1, {(ut, top): 1, (vt, top): -1})
    ok = bool(first) and bool(second)
    detail = "" if ok else "degree-3 classes vanish unexpectedly"
    if ok:
        deg = {table.basis[i].degree for i in list(first) + list(second)}
        if deg != {3}:
            ok, detail = False, f"classes not in degree 3: {deg}"
    if ok and table.multiply(first, second) != {}:
        ok, detail = False, "product of the two degree-3 classes is nonzero"
    report(4, "crossed-pairs degree-3 product vanishes over Z (k=l=1, n=3)", ok, detail)


def test_criterion_05_presentation_verification():
    ok = True
    detail = ""
    for name, arr, c in C_FIXTURES:
        poset = build_poset(arr)
        ctx = pi_context(ring_table(decompose(poset)), build_presentation(poset, c, 0))
        rep = verify_presentation(ctx, 2 * arr.n)
        if not rep.passed or rep.torsion_flag:
            ok, detail = False, f"{name}: {rep.degrees}, torsion={rep.torsion_flag}"
            break
    report(5, "generator/relation presentation matches the engine rank-wise", ok, detail)


def test_criterion_06_comparison_maps():
    ok = True
    detail = ""
    for name, arr, c in C_FIXTURES:
        poset = build_poset(arr)
        for k in range(arr.n + 1):
            r1 = verify_fk_iso(poset, k)
            r2 = verify_fg_homotopic(poset, c, 0, k)
            if not (r1.passed and r2.passed):
                ok = False
                detail = f"{name} k={k}: {r1.detail or r2.detail}"
                break
        if not ok:
            break
    report(6, "atomic-complex maps: isomorphism and explicit homotopy, all k", ok, detail)


def test_criterion_07_generic_section_property():
    ok = True
    detail = ""
    for name, arr in ALL_FIXTURES:
        if arr.n == 0:
            continue
        poset = build_poset(arr)
        for seed in range(10):
            rep = verify_eta(poset, seed)
            if not rep.passed:
                ok, detail = False, f"{name} seed {seed}: {rep.detail}"
                break
        if not ok:
            break
    report(7, "generic hyperplane sections shift the poset by one, 10 seeds", ok, detail)


def test_criterion_08_ring_axioms_and_negative_control():
    ok = True
    detail = ""
    for name, arr in ALL_FIXTURES:
        table = ring_of(arr)
        rep = verify_ring_axioms(table)
        if not rep.passed:
            ok, detail = False, f"{name}: {rep.failures[:2]}"
            break
    if ok:
        table = ring_of(skew_lines(2))
        rng = random.Random(0)
        key = rng.choice([k for k, entry in sorted(table.products.items()) if entry])
        table.products[key] = {t: c + 1 for t, c in table.products[key].items()}
        if verify_ring_axioms(table).passed:
            ok, detail = False, "corrupted table passed the axiom check"
    report(8, "ring axioms hold; corrupted table is rejected", ok, detail)


def test_criterion_09_chain_level_algebra_and_snf():
    ok = True
    detail = ""

    def full_boundary(chain):
        out = {}
        for s, c in chain.items():
            if len(s) == 1:
                continue
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                out[face] = out.get(face, 0) + (-1) ** i * c
                if out[face] == 0:
                    del out[face]
        return out

    def add(a, b, f=1):
        out = dict(a)
        for s, c in b.items():
            out[s] = out.get(s, 0) + f * c
            if out[s] == 0:
                del out[s]
        return out

    rng = random.Random(42)
    for name, arr in ALL_FIXTURES:
        poset = build_poset(arr)
        cx = build_relative_complex(poset, 0)
        summary = homology(cx)
        for _ in range(100):
            degs = [r for r in range(cx.top_degree + 1) if cx.dim(r)]
            r1, r2 = rng.choice(degs), rng.choice(degs)
            c = {cx.bases[r1][rng.randrange(cx.dim(r1))]: rng.choice([-2, -1, 1, 2])}
            d = {cx.bases[r2][rng.randrange(cx.dim(r2))]: rng.choice([-1, 1])}
            # boundary squares to zero
            if full_boundary(full_boundary(c)):
                ok, detail = False, f"{name}: boundary^2 != 0"
                break
            # shuffle product is a chain map (Leibniz)
            x = cross_shuffle(c, d)
            lhs = full_boundary(x)
            rhs = add(
                cross_shuffle(full_boundary(c), d),
                cross_shuffle(c, full_boundary(d)),
                (-1) ** r1,
            )
            if lhs != rhs:
                ok, detail = False, f"{name}: shuffle Leibniz rule fails"
                break
            # vertex-wise meet commutes with the boundary
            if meet_push(poset, lhs) != full_boundary(meet_push(poset, x)):
                ok, detail = False, f"{name}: meet naturality fails"
                break
            # boundaries are homologically trivial
            if r1 >= 1:
                bnd = cx.boundary(c, r1)
                if any(summary.class_of(bnd, r1 - 1)):
                    ok, detail = False, f"{name}: boundary has nonzero class"
                    break
        if not ok:
            break
    if ok:
        for _ in range(100):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            a = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
            res = snf(a)
            u = sympy.Matrix([[row.get(j, 0) for j in range(rows)] for row in res.u_rows])
            v = sympy.Matrix([[col.get(i, 0) for col in res.v_cols] for i in range(cols)])
            dmat = (u * sympy.Matrix(a) * v).tolist()
            diag = res.diagonal()
            shape_ok = all(
                dmat[i][j] == (diag[i] if i == j and i < len(diag) else 0)
                for i in range(rows)
                for j in range(cols)
            )
            divis_ok = all(
                diag[i + 1] == 0 or (diag[i] != 0 and diag[i + 1] % diag[i] == 0)
                for i in range(len(diag) - 1)
            )
            if not (
                abs(u.det()) == 1
                and abs(v.det()) == 1
                and shape_ok
                and divis_ok
            ):
                ok, detail = False, "Smith normal form invariants violated"
                break
    report(9, "chain-level identities on random chains; SNF on random matrices", ok, detail)


def test_criterion_10_affine_mode():
    ok = True
    detail = ""
    for m in (2, 3, 5):
        table = affine_decompose(build_poset(points_cp1(m)), 0)
        if table.poincare[:2] != [1, m - 1] or any(table.poincare[2:]):
            ok, detail = False, f"{m} points: ranks {table.poincare}"
            break
        for (i, j), entry in table.products.items():
            if table.basis[i].degree and table.basis[j].degree and entry:
                ok, detail = False, f"{m} points: nonzero product of positives"
                break
        if not ok:
            break
    if ok:
        for n in (2, 3):
            table = affine_decompose(build_poset(boolean(n)), 0)
            if table.poincare[: n + 1] != [comb(n, i) for i in range(n + 1)]:
                ok, detail = False, f"torus rank mismatch n={n}"
                break
            ones = [i for i, b in enumerate(table.basis) if b.degree == 1]
            for a, b in combinations(ones, 2):
                prod = table.products[(a, b)]
                anti = {t: -c for t, c in table.products[(b, a)].items()}
                if (
                    len(prod) != 1
                    or abs(next(iter(prod.values()))) != 1
                    or prod != anti
                    or table.products[(a, a)]
                ):
                    ok, detail = False, f"torus products not exterior, n={n}"
                    break
            if not ok:
                break
    report(10, "affine mode: point and torus complements with A0 at infinity", ok, detail)
