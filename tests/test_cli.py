import json
import os
import threading
import time
from fractions import Fraction

import pytest

from projarr import Subspace, cli, parse_arrangement
from projarr.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name + ".json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_poset_command(capsys):
    code, out = run(capsys, "poset", fixture("points3_cp1"))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 1
    assert sorted(e["d"] for e in doc["elements"]) == [-1, 0, 0, 0, 1]


def test_homology_command(capsys):
    code, out = run(capsys, "homology", fixture("skew_lines"))
    assert code == 0
    doc = json.loads(out)
    levels = {entry["k"]: entry["degrees"] for entry in doc}
    assert levels[3][0]["free_rank"] == 1  # the unit


def test_ring_command_betti(capsys):
    code, out = run(capsys, "ring", fixture("skew_lines"))
    assert code == 0
    doc = json.loads(out)
    assert doc["poincare"] == [1, 0, 1, 1, 0, 1, 0]
    assert doc["torsion"] == []


def test_ring_command_deterministic(capsys):
    _, out1 = run(capsys, "ring", fixture("crossed_pairs"))
    _, out2 = run(capsys, "ring", fixture("crossed_pairs"))
    assert out1 == out2


def test_ring_affine_flag(capsys):
    code, out = run(capsys, "ring", "--affine", "0", fixture("boolean_cp2"))
    assert code == 0
    doc = json.loads(out)
    assert doc["poincare"][:3] == [1, 2, 1]


def test_presentation_command(capsys):
    code, out = run(capsys, "presentation", "--c", "2", fixture("skew_lines"))
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == ["x", "y1"]
    assert doc["relations"] == [{"kind": "x-power", "terms": [[2, [], 1]]}]
    assert doc["passed"] is True


def test_presentation_requires_c(capsys):
    assert main(["presentation", fixture("skew_lines")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: presentation requires --c\n")


def test_presentation_wrong_c(capsys):
    code, _ = run(capsys, "presentation", "--c", "1", fixture("skew_lines"))
    assert code == 2


def test_verify_command(capsys):
    code, out = run(capsys, "verify", fixture("crossed_pairs"))
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["euler"]["engine"] == doc["euler"]["oracle"] == -2


def test_oracle_command(capsys):
    code, out = run(capsys, "oracle", fixture("boolean_cp3"))
    assert code == 0
    doc = json.loads(out)
    assert doc["os_projective"] == [1, 3, 3, 1]
    code, out = run(capsys, "oracle", fixture("skew_lines"))
    doc = json.loads(out)
    assert doc["os_projective"] is None
    assert doc["euler"] == 0


def test_text_format(capsys):
    code, out = run(capsys, "ring", "--format", "text", fixture("skew_lines"))
    assert code == 0
    assert "poincare" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_stdin_input(capsys, monkeypatch):
    import io

    with open(fixture("points3_cp1")) as fh:
        text = fh.read()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out = run(capsys, "ring")
    assert code == 0
    assert json.loads(out)["poincare"] == [1, 2, 0]


def test_bad_input_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ring", str(bad)]) == 2
    assert main(["ring", str(tmp_path / "missing.json")]) == 2


def test_non_utf8_input_exit_2(capsys, tmp_path, monkeypatch):
    import io

    raw = b"\xff\xfe" + open(fixture("points3_cp1"), "rb").read()
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    assert main(["poset", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input is not UTF-8 text")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    assert main(["poset"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input is not UTF-8 text")


def test_non_string_name_exit_2(capsys, tmp_path):
    doc = {"ambient_dim": 2, "subspaces": [{"name": 5, "span": [[1, 0]]}]}
    bad = tmp_path / "named.json"
    bad.write_text(json.dumps(doc))
    assert main(["poset", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: subspace name must be a string" in captured.err
    doc["subspaces"][0]["name"] = "P"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "poset", str(bad))
    assert code == 0
    assert "P" in [e["name"] for e in json.loads(out)["elements"]]


def test_huge_exponent_exit_2_before_any_power(capsys, tmp_path, monkeypatch):
    # Fraction("1e999999999") would compute 10**999999999, so such a
    # literal must be refused before it reaches Fraction
    from projarr import arrangement

    parsed = []

    def recording_fraction(text):
        parsed.append(text)
        if "999999999" in text:
            raise RuntimeError(f"Fraction({text!r}) would compute the power")
        return Fraction(text)

    monkeypatch.setattr(arrangement, "Fraction", recording_fraction)
    path = tmp_path / "exponent.json"
    for literal in ("1e999999999", "1e-999999999"):
        path.write_text(json.dumps({"ambient_dim": 2, "subspaces": [{"span": [["1", literal]]}]}))
        assert main(["poset", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed rational '{literal}': exponent beyond ±4300\n"
    # the plain integer "1" is read by int, so nothing reached Fraction
    assert parsed == []
    path.write_text(json.dumps({"ambient_dim": 2, "subspaces": [{"span": [["-47e-2", "1"]]}]}))
    arr = arrangement.parse_arrangement(path.read_text())
    assert parsed == ["-47e-2"]
    assert arr.subspaces == (Subspace.from_span(2, [(Fraction(-47, 100), 1)]),)
    assert arr.subspaces[0].basis == ((47, -100),)


@pytest.mark.parametrize("text", ["+7", "-0", "007", "1_000", " 3 ", "\u0663", "-12", "4" * 300])
def test_integer_strings_parse_to_the_value_fraction_gives(text):
    # plain integers ("-12", "007") are read by int, the rest by Fraction;
    # "\u0663" is the Arabic-Indic digit three
    from projarr.arrangement import _parse_rational

    assert _parse_rational(text) == Fraction(text)


@pytest.mark.parametrize("entry, value", [("1e5", Fraction(10**5)), ("3/4", Fraction(3, 4)), (1.5, Fraction(3, 2))])
def test_non_integer_rationals_parse_as_before(tmp_path, entry, value):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"ambient_dim": 2, "subspaces": [{"span": [[entry, 1]]}]}))
    arr = parse_arrangement(path.read_text())
    assert arr.subspaces == (Subspace.from_span(2, [(value, 1)]),)


DIGITS = "1" * 4301


@pytest.mark.parametrize(
    "entry, message",
    [
        ("True", "'True': Invalid literal for Fraction: 'True'"),
        ("--3", "'--3': Invalid literal for Fraction: '--3'"),
        (True, "True: Invalid literal for Fraction: 'True'"),
        (
            DIGITS,
            f"'{DIGITS}': Exceeds the limit (4300 digits) for integer string conversion: "
            "value has 4301 digits; use sys.set_int_max_str_digits() to increase the limit",
        ),
        ("1e4301", "'1e4301': exponent beyond ±4300"),
    ],
    ids=["True", "--3", "true", "4301 digits", "1e4301"],
)
def test_malformed_rationals_exit_2_with_the_same_message(capsys, tmp_path, entry, message):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"ambient_dim": 2, "subspaces": [{"span": [[entry, 1]]}]}))
    assert main(["poset", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: malformed rational {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ring", "--affine", "7", fixture("skew_lines3")], "--affine 7 is out of range: member indices are 0..2"),
        (["ring", "--affine", "-1", fixture("boolean_cp2")], "--affine -1 is out of range: member indices are 0..2"),
        (["ring", "--affine", "0", fixture("empty_cp3")], "--affine 0: the arrangement has no members"),
        (["presentation", "--c", "2", "--base", "9", fixture("skew_lines3")],
         "--base 9 is out of range: member indices are 0..2"),
        (["presentation", "--c", "2", "--base", "-1", fixture("skew_lines3")],
         "--base -1 is out of range: member indices are 0..2"),
    ],
    ids=["affine-too-large", "affine-negative", "affine-no-members", "base-too-large", "base-negative"],
)
def test_member_index_out_of_range_exit_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "name, index, member",
    [("skew_lines", 0, "A0"), ("crossed_pairs", 2, "u~"), ("mixed_cp3", 0, "A0")],
)
def test_affine_member_not_a_hyperplane_exit_2(capsys, name, index, member):
    assert main(["ring", "--affine", str(index), fixture(name)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --affine {index}: member {member} is not a hyperplane\n"


def test_negative_max_degree_exit_2(capsys):
    # a negative bound would compare no degree and report a vacuous pass
    assert main(["presentation", "--c", "2", "--max-degree", "-3", fixture("skew_lines")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-degree -3 must be at least 0" in captured.err
    code, out = run(capsys, "presentation", "--c", "2", "--max-degree", "0", fixture("skew_lines"))
    assert code == 0
    assert [r["degree"] for r in json.loads(out)["ranks"]] == [0]


@pytest.mark.parametrize("name, top", [("skew_lines", 6), ("skew_lines3", 8)])
def test_max_degree_is_bounded_by_the_top_degree(capsys, name, top):
    # L = max(2n, 2(c - 1) + (2c - 1)t): n = 3, c = 2 and t = 1 or 2; above
    # L every row is (d, 0, 0, 0), so a larger bound is refused
    _, out = run(capsys, "presentation", "--c", "2", fixture(name))
    rows = json.loads(out)["ranks"]
    code, out = run(capsys, "presentation", "--c", "2", "--max-degree", str(top), fixture(name))
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    zero = {"pi_rank": 0, "presentation_rank": 0, "engine_rank": 0}
    assert doc["ranks"] == rows + [{"degree": d, **zero} for d in range(len(rows), top + 1)]
    assert main(["presentation", "--c", "2", "--max-degree", str(top + 1), fixture(name)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max degree {top + 1} is above {top}, past which every rank is 0\n"


EMIT_COMMANDS = [
    ["poset"], ["homology"], ["ring"], ["ring", "--affine", "0"], ["ring", "--affine", "1"],
    ["verify"], ["oracle"], ["presentation", "--c", "1"], ["presentation", "--c", "2"],
    ["presentation", "--c", "3"],
]


def plain(doc):
    """doc with a streamed products array replaced by the list of the
    same entries, which json.dumps can encode."""
    if not isinstance(doc, dict) or not isinstance(doc.get("products"), cli._Products):
        return doc
    entries = [{"i": i, "j": j, "result": [list(p) for p in result]} for i, j, result in doc["products"]]
    return {**doc, "products": entries}


def test_json_writer_matches_json_dumps_on_every_command_document(capsys, monkeypatch):
    docs = []
    monkeypatch.setattr(cli, "_emit", lambda doc, fmt: docs.append(doc))
    for name in sorted(os.listdir(FIXTURES)):
        for flags in EMIT_COMMANDS:
            main(flags + [os.path.join(FIXTURES, name)])
    assert len(docs) >= 5 * len(os.listdir(FIXTURES))
    assert sum(plain(doc) is not doc for doc in docs) > len(os.listdir(FIXTURES))
    for doc in docs:
        assert cli._json(doc) == json.dumps(plain(doc), indent=2)


def reference_products(table):
    """The products array as one document per basis pair: the reference
    the array written straight from the table must match."""
    return [
        {"i": i, "j": j, "result": sorted([t, c] for t, c in entry.items())}
        for (i, j), entry in sorted(table.products.items())
    ]


def ring_runs():
    """`ring`, and `ring --affine i` per hyperplane member i, on every fixture."""
    runs = []
    for name in sorted(os.listdir(FIXTURES)):
        path = os.path.join(FIXTURES, name)
        with open(path) as fh:
            arr = parse_arrangement(fh.read())
        runs.append(["ring", path])
        runs += [["ring", "--affine", str(i), path] for i, s in enumerate(arr.subspaces) if s.dim == arr.n]
    return runs


def test_ring_output_is_the_reference_document_byte_for_byte(capsys, monkeypatch):
    docs, tables = [], []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc, fmt: docs.append(doc) or emit(doc, fmt))
    for builder in ("projective_ring", "affine_decompose"):
        build = getattr(cli, builder)
        monkeypatch.setattr(cli, builder, lambda *args, build=build: tables.append(build(*args)) or tables[-1])
    runs = ring_runs()
    assert sum("--affine" in argv for argv in runs) >= 10
    for argv in runs:
        assert main(argv) == 0
        reference = {**docs[-1], "products": reference_products(tables[-1])}
        assert capsys.readouterr().out == json.dumps(reference, indent=2) + "\n"
        # the text writer reads the same entries
        assert main(argv + ["--format", "text"]) == 0
        text = capsys.readouterr().out
        cli._emit_text(reference)
        assert text == capsys.readouterr().out


def test_json_writer_matches_json_dumps_on_awkward_values():
    doc = {
        "text": ["ℂP³ ∖ ⋃A", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "", "😀"],
        "empty": [{}, [], (), {"nested": [[], {}]}],
        "constants": [None, True, False],
        "ints": [0, -1, -(10**40), 10**40, 2**63],
        "ünïcode kéy": {"": 1, "a\"b": [1, [2, [3]]]},
        "tuple": (1, "two", (3,)),
        "floats": [1.5, -0.0, 1e300],
        "keys": {1: "int", None: "none", 2.5: "float", False: "bool"},
    }
    assert cli._json(doc) == json.dumps(doc, indent=2)
    for scalar in ("x", 7, None, True, [], {}):
        assert cli._json(scalar) == json.dumps(scalar, indent=2)


USAGE = """usage: projarr [-h] [--affine A0] [--c C] [--base BASE] [--seed SEED]
               [--max-degree MAX_DEGREE] [--format {json,text}]
               {homology,oracle,poset,presentation,ring,verify} [input]
"""

HELP = USAGE + """
Integral cohomology rings of complex projective subspace arrangement
complements, from exact rational input.

positional arguments:
  {homology,oracle,poset,presentation,ring,verify}
  input                 arrangement JSON path (default stdin)

options:
  -h, --help            show this help message and exit
  --affine A0           affine mode with the given member at infinity
  --c C                 codimension class c
  --base BASE           base member index
  --seed SEED
  --max-degree MAX_DEGREE
  --format {json,text}
"""


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["--help"], 0, HELP, ""),
        (["ring", "--format", "xml"], 2, "",
         USAGE + "projarr: error: argument --format: invalid choice: 'xml' (choose from 'json', 'text')\n"),
        (["frobnicate"], 2, "", USAGE + "projarr: error: argument command: invalid choice: 'frobnicate' "
         "(choose from 'homology', 'oracle', 'poset', 'presentation', 'ring', 'verify')\n"),
        (["ring", "--seed", "x"], 2, "", USAGE + "projarr: error: argument --seed: invalid int value: 'x'\n"),
        ([], 2, "", USAGE + "projarr: error: the following arguments are required: command\n"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_help_and_argument_errors_are_unchanged_by_the_kept_parser(capsys, monkeypatch, argv, code, out, err):
    # byte for byte what a parser built per call printed, at 80 columns,
    # on a parser's first use and on a later one; the parser is built on
    # the first main call of the process, so the cache is cleared around
    # the test to build it at the width set here
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == code
            assert capsys.readouterr() == (out, err)
            assert not cli._PARSING.locked()
    finally:
        cli._parser.cache_clear()


def test_the_parser_is_built_once_per_process(capsys):
    cli._parser.cache_clear()
    for command in ("poset", "ring", "oracle"):
        assert main([command, fixture("points3_cp1")]) == 0
    assert cli._parser.cache_info().misses == 1


def test_the_kept_parser_parses_one_thread_at_a_time(capsys, monkeypatch):
    # parse_intermixed_args swaps the shared parser's positionals while
    # it parses; main holds a lock around it, so parses never overlap
    parser = cli._parser()
    parse = parser.parse_intermixed_args
    active, overlap = [0], []

    def slow_parse(argv):
        active[0] += 1
        overlap.append(active[0])
        time.sleep(0.01)
        args = parse(argv)
        active[0] -= 1
        return args

    monkeypatch.setattr(parser, "parse_intermixed_args", slow_parse)
    threads = [threading.Thread(target=main, args=(["poset", os.devnull],)) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert overlap == [1, 1, 1, 1]
    assert not cli._PARSING.locked()
