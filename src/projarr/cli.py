"""Command line interface: `projarr <command> [arrangement.json]`.

Reads the arrangement JSON from a path (or stdin when omitted or "-"),
prints JSON or text, and exits 0 on success, 1 on verification failure,
2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from threading import Lock

from .arrangement import InputError, parse_arrangement
from .linalg import rational_view
from .oracles import (
    OracleError,
    compare,
    os_poincare_central,
    projective_quotient,
    stratified_euler,
)
from .poset import build_poset, verify_eta
from .presentation import build_presentation, pi_context, verify_presentation
from .ring import affine_decompose, decompose, projective_ring, ring_table, verify_ring_axioms


def _read_input(path: str | None) -> str:
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise InputError(f"input is not UTF-8 text: {e}") from None


def _emit(doc, fmt: str):
    if fmt == "json":
        print(_json(doc))
    else:
        _emit_text(doc)


def _json(doc) -> str:
    """`json.dumps(doc, indent=2)`, byte for byte.  With an indent the
    standard library falls back to its pure-Python encoder; this writer
    encodes strings with the C escaper and ints with `int.__repr__`."""
    out: list[str] = []
    _json_into(doc, out, "\n")
    return "".join(out)


def _json_into(value, out: list[str], newline: str) -> None:
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, _Products):
        _products_json(value, out, newline)
    elif not isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value))  # floats
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, val in value.items():
            out.append(sep)
            out.append(encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key)))
            out.append(": ")
            _json_into(val, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        inner = newline + "  "
        sep = "[" + inner
        for val in value:
            out.append(sep)
            _json_into(val, out, inner)
            sep = "," + inner
        out.append(newline + "]")


class _Products:
    """A ring table's products array: its (i, j, result pairs) entries in
    (i, j) order, read straight from the table by both writers."""

    def __init__(self, table):
        self.table = table

    def __iter__(self):
        products, ids = self.table.products, range(len(self.table.basis))
        for i in ids:
            for j in ids:
                yield i, j, products[(i, j)].items()


def _products_json(products: _Products, out: list[str], newline: str) -> None:
    """The entries as `json.dumps(indent=2)` writes the list of
    {"i": i, "j": j, "result": [[t, c], ...]}, one fixed format each."""
    entry, key, pair, num = (newline + "  " * depth for depth in (1, 2, 3, 4))
    sep = "[" + entry
    for i, j, result in products:
        if result:
            items = ("," + pair).join([f"[{num}{t},{num}{c}{pair}]" for t, c in result])
            body = f"[{pair}{items}{key}]"
        else:
            body = "[]"
        out.append(f'{sep}{{{key}"i": {i},{key}"j": {j},{key}"result": {body}{entry}}}')
        sep = "," + entry
    out.append(newline + "]")


def _emit_text(doc, indent=0):
    pad = "  " * indent
    if isinstance(doc, dict):
        for key, val in doc.items():
            if isinstance(val, _Products):
                val = [{"i": i, "j": j, "result": [list(p) for p in r]} for i, j, r in val]
            if isinstance(val, (dict, list)) and val:
                print(f"{pad}{key}:")
                _emit_text(val, indent + 1)
            else:
                print(f"{pad}{key}: {val}")
    elif isinstance(doc, list):
        for val in doc:
            if isinstance(val, (dict, list)):
                _emit_text(val, indent + 1)
            else:
                print(f"{pad}- {val}")
    else:
        print(f"{pad}{doc}")


def _chain_doc(chain):
    return sorted([list(simplex), coeff] for simplex, coeff in chain.items())


def cmd_poset(arr, args):
    poset = build_poset(arr)
    member_ids = {poset.index_of(s): name for s, name in zip(arr.subspaces, arr.names)}
    doc = {
        "n": poset.n,
        "elements": [
            {
                "id": i,
                "name": member_ids.get(i),
                "d": poset.d[i],
                "basis": [[str(x) for x in row] for row in rational_view(poset.elements[i].basis)],
            }
            for i in range(len(poset.elements))
        ],
        "covers": [list(c) for c in poset.covers()],
        "meet": poset.meet,
    }
    _emit(doc, args.format)
    return 0


def cmd_homology(arr, args):
    dec = decompose(build_poset(arr))
    doc = []
    for k in range(dec.n + 1):
        summary = dec.summaries[k]
        degrees = []
        for r, dh in enumerate(summary.degrees):
            if dh.free_rank == 0 and not dh.torsion:
                continue
            reps = [
                _chain_doc(summary.complex.chain(g.vector, r))
                for g in dh.generators
            ]
            degrees.append(
                {
                    "r": r,
                    "free_rank": dh.free_rank,
                    "torsion": dh.torsion,
                    "representatives": reps,
                }
            )
        doc.append({"k": k, "degrees": degrees})
    _emit(doc, args.format)
    return 0


def cmd_ring(arr, args):
    if args.affine is not None:
        arr.check_member_index("--affine", args.affine)
        if arr.subspaces[args.affine].dim != arr.n:
            raise InputError(
                f"--affine {args.affine}: member {arr.names[args.affine]} is not a hyperplane"
            )
        table = affine_decompose(build_poset(arr), args.affine)
        keys = ("u", "m")
    else:
        table = projective_ring(build_poset(arr))
        keys = ("k", "r")
    basis_doc = []
    for i, b in enumerate(table.basis):
        row = {
            "id": i, keys[0]: b.summand, keys[1]: b.r,
            "degree": b.degree, "torsion_order": b.torsion_order,
        }
        if args.affine is None:
            row["representative"] = _chain_doc(table.representative(i))
        basis_doc.append(row)
    doc = {"n": table.n}
    if args.affine is None:
        doc["model"] = table.model
    doc |= {
        "basis": basis_doc,
        "poincare": table.poincare,
        "torsion": [b.torsion_order for b in table.basis if b.torsion_order],
        "products": _Products(table),
    }
    _emit(doc, args.format)
    return 0


def cmd_presentation(arr, args):
    if args.c is None:
        raise InputError("presentation requires --c")
    arr.check_member_index("--base", args.base)
    if args.max_degree is not None and args.max_degree < 0:
        raise InputError(f"--max-degree {args.max_degree} must be at least 0")
    poset = build_poset(arr)
    pres = build_presentation(poset, args.c, args.base)
    pres.check_max_degree(poset.n, args.max_degree)  # refused before any homology
    report = verify_presentation(pi_context(ring_table(decompose(poset)), pres), args.max_degree)
    doc = {
        "c": pres.c,
        "generators": ["x"] + [f"y{i}" for i in range(1, pres.t + 1)],
        "relations": [
            {
                "kind": kind,
                "terms": sorted(
                    [[mono[0], list(mono[1]), coeff] for mono, coeff in rel.items()]
                ),
            }
            for rel, kind in zip(pres.relations, pres.relation_kinds)
        ],
        "ranks": [
            {"degree": d, "pi_rank": a, "presentation_rank": b, "engine_rank": c}
            for d, a, b, c in report.degrees
        ],
        "torsion_flagged": report.torsion_flag,
        "passed": report.passed,
    }
    _emit(doc, args.format)
    return 0 if report.passed else 1


def cmd_verify(arr, args):
    poset = build_poset(arr)
    table = ring_table(decompose(poset))
    oracle_report = compare(table)
    axiom_report = verify_ring_axioms(table)
    failures = oracle_report.failures + axiom_report.failures
    eta_results = []
    for seed in range(args.seed, args.seed + 3):
        rep = verify_eta(poset, seed)
        eta_results.append({"seed": seed, "passed": rep.passed, "detail": rep.detail})
        if not rep.passed:
            failures.append(f"section check failed for seed {seed}: {rep.detail}")
    doc = {
        "poincare": oracle_report.poincare,
        "euler": {"engine": oracle_report.euler_engine, "oracle": oracle_report.euler_oracle},
        "os_oracle": oracle_report.os_oracle,
        "ring_axioms": axiom_report.passed,
        "section_checks": eta_results,
        "failures": failures,
        "passed": not failures,
    }
    _emit(doc, args.format)
    return 0 if not failures else 1


def cmd_oracle(arr, args):
    poset = build_poset(arr)
    doc = {"euler": stratified_euler(poset)}
    try:
        doc["os_projective"] = projective_quotient(os_poincare_central(poset))
    except OracleError:
        doc["os_projective"] = None
    _emit(doc, args.format)
    return 0


COMMANDS = {
    "poset": cmd_poset,
    "homology": cmd_homology,
    "ring": cmd_ring,
    "presentation": cmd_presentation,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and kept for the
    process.  Its usage line is formatted once here: left unset,
    `parse_intermixed_args` formats it on every call to quote it in
    errors and help, so the usage line keeps the terminal width of the
    first call.  That call swaps the positionals' nargs while it parses,
    so `main` parses under `_PARSING`, one thread at a time."""
    parser = argparse.ArgumentParser(
        prog="projarr",
        description="Integral cohomology rings of complex projective subspace "
        "arrangement complements, from exact rational input.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("input", nargs="?", help="arrangement JSON path (default stdin)")
    parser.add_argument("--affine", type=int, default=None, metavar="A0",
                        help="affine mode with the given member at infinity")
    parser.add_argument("--c", type=int, default=None, help="codimension class c")
    parser.add_argument("--base", type=int, default=0, help="base member index")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-degree", type=int, default=None)
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.usage = parser.format_usage().removeprefix("usage: ")
    return parser


_PARSING = Lock()


def main(argv=None) -> int:
    with _PARSING:
        args = _parser().parse_intermixed_args(argv)
    try:
        arr = parse_arrangement(_read_input(args.input))
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](arr, args)
    except ValueError as e:  # InputError and NotCArrangement among them
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
