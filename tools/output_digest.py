"""One SHA-256 over every CLI command on a fixed set of inputs.

    python3 tools/output_digest.py

Run from anywhere; projarr is imported from the `src/` next to this
script.  The inputs are every file in `fixtures/`, `boolean(4)`,
`generic_hyperplanes(3,6)` and `generic_hyperplanes(4,5)` from
`tests/arrangements.py`, the benchmark inputs of seeds 3 and 11
(`perfbench/generators.py`), and one point of CP¹ per edge case of the
number parser (`NUMBERS`; some are refused).  On each input it runs
`ring`, `ring --affine i` for every hyperplane member i, `verify`,
`verify --seed 5`, `homology`, `poset`, `oracle`,
`presentation --c 1|2|3`, and then `ring` and each `ring --affine i`
again with `--format text`, in-process through `projarr.cli.main`.
The digest covers each run's input name, argv, stdout, stderr and exit
code (or the exception it raised), so two trees with the same digest
give byte-identical output on all of them.  It is printed first; one
line per command follows, with the digest of that command's runs alone
(`--affine i` standing for every member index), to show which commands'
outputs a change moves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import generators  # noqa: E402
from arrangements import boolean, generic_hyperplanes, to_json  # noqa: E402
from projarr import InputError, parse_arrangement  # noqa: E402
from projarr.cli import main  # noqa: E402

SEEDS = (3, 11)
# first coordinates of a point of CP¹: signs, leading zeros, underscores,
# spaces, a non-ASCII digit, non-integers, and three refused entries
NUMBERS = ["+7", "-0", "007", "1_000", " 3 ", "\u0663", "1e5", "3/4", 1.5, "True", "1" * 4301, "1e4301"]


def inputs() -> dict[str, str]:
    """Input name -> JSON text."""
    out = {path.stem: path.read_text() for path in sorted((ROOT / "fixtures").glob("*.json"))}
    out["boolean(4)"] = to_json(boolean(4))
    out["generic_hyperplanes(3,6)"] = to_json(generic_hyperplanes(3, 6))
    out["generic_hyperplanes(4,5)"] = to_json(generic_hyperplanes(4, 5))
    for seed in SEEDS:
        for workload in generators.WORKLOADS:
            for job in generators.jobs_for(workload, seed):
                out[f"seed{seed}/{job.name}"] = generators.input_bytes(job).decode()
    for x in NUMBERS:
        out[f"number {json.dumps(x)[:16]}"] = json.dumps({"ambient_dim": 2, "subspaces": [{"span": [[x, 1]]}]})
    return out


def commands(text: str) -> list[list[str]]:
    try:
        arr = parse_arrangement(text)
        hyperplanes = [i for i, s in enumerate(arr.subspaces) if s.dim == arr.ambient_dim - 1]
    except InputError:  # every command refuses it
        hyperplanes = []
    presentations = [["presentation", "--c", str(c)] for c in (1, 2, 3)]
    rings = [["ring"], *(["ring", "--affine", str(i)] for i in hyperplanes)]
    texts = [argv + ["--format", "text"] for argv in rings]
    verifies = [["verify"], ["verify", "--seed", "5"]]
    return [*rings, *verifies, ["homology"], ["poset"], ["oracle"], *presentations, *texts]


def run(argv: list[str]) -> str:
    """stdout, stderr and exit code (or exception) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = f"exit {main(argv)}"
    except (Exception, SystemExit) as e:  # a crash is part of the output
        result = f"raised {type(e).__name__}: {e}"
    return json.dumps([out.getvalue(), err.getvalue(), result])


def command_of(argv: list[str]) -> str:
    """The command a run belongs to: its argv with the --affine index as i."""
    return " ".join("i" if i and argv[i - 1] == "--affine" else a for i, a in enumerate(argv))


def digests() -> tuple[str, dict[str, str]]:
    """The digest of every run, and per command the digest of its runs."""
    total = hashlib.sha256()
    per_command: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs().items():
            path = Path(tmp) / "input.json"
            path.write_text(text)
            for argv in commands(text):
                record = (json.dumps([name, argv]) + "\n" + run(argv + [str(path)]) + "\n").encode()
                total.update(record)
                per_command.setdefault(command_of(argv), hashlib.sha256()).update(record)
    return total.hexdigest(), {key: h.hexdigest() for key, h in per_command.items()}


if __name__ == "__main__":
    total, per_command = digests()
    print(total)
    for key, value in per_command.items():
        print(f"{value}  {key}")
