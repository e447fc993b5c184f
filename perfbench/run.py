"""projarr benchmark: CLI jobs end to end, with a traced per-layer breakdown.

    python3 perfbench/run.py --workload hyperplane-ring --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each workload is a list of `projarr` CLI
jobs on arrangement files generated from the seed (generators.py).  The
jobs run one after another in this process through `projarr.cli.main`,
with stdout captured: a closed loop with one client and no threads.

--trace 0 repeats the job list until --seconds is used up and reports the
end-to-end metrics, with times scaled to a reference machine speed
(calibrate.py); --trace 1 alternates untraced and traced passes and
reports the per-layer metrics (spans.py), in raw seconds.  Every output
is checked (checks.py).  The last line of stdout is one JSON object; a
human summary goes to stderr and a per-job record, with sizes and output
hashes, to perfbench/out/.  Exit code 0 when every output is correct, 1
when not, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import calibrate  # noqa: E402
import generators  # noqa: E402
from checks import check_output, make_oracle  # noqa: E402
from spans import Tracer, aggregate  # noqa: E402

JOB_LIMIT_S = 60  # a job running longer is stopped and counts as failed
SETUP_REPEATS = 7


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_LIMIT_S} s")


@dataclass
class Execution:
    job: int
    pass_no: int
    traced: bool
    seconds: float
    sha: str  # SHA-256 of the output
    out_bytes: int
    error: str = ""
    scaled: float = 0.0  # seconds at the reference speed (calibrate.py)


@dataclass
class Slot:
    """Everything measured for one job of the list."""

    job: generators.Job
    path: str
    runs: list[Execution] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)  # one text per distinct SHA-256
    failures: list[str] = field(default_factory=list)
    sizes: dict = field(default_factory=dict)

    def untraced(self, scaled=False) -> list[float]:
        return [e.scaled if scaled else e.seconds for e in self.runs if not e.traced]


def run_job(cli, slot: Slot, index: int, pass_no: int, traced: bool, sampler=None) -> Execution:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, ""
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), (
            sampler or contextlib.nullcontext()
        ):
            rc = cli.main(slot.job.argv(slot.path))
    except Exception as e:  # the job fails; the benchmark goes on
        error = f"{type(e).__name__}: {e}"
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if not error and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()}"
    text = out.getvalue()
    sha = hashlib.sha256(text.encode()).hexdigest()
    slot.outputs.setdefault(sha, text)
    execution = Execution(index, pass_no, traced, seconds, sha, len(text.encode()), error)
    slot.runs.append(execution)
    return execution


def measure_setup(workload: str, seed: int, directory: Path) -> tuple[list[float], list[float]]:
    """Wall times, raw and scaled, of fresh processes that generate and
    write the inputs and import projarr, as a user pays it on every CLI
    invocation.

    The wait blocks (no `timeout=`, which polls in 50 ms steps); SIGALRM
    bounds it instead."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate.edge()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(directory)],
            stdout=subprocess.DEVNULL,
        )
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        try:
            rc = proc.wait()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        times.append(time.perf_counter() - start)
        scaled.append(calibrate.scaled(times[-1], before, [], calibrate.edge()))
        if rc != 0:
            raise subprocess.CalledProcessError(rc, proc.args)
    return times, scaled


def run_pass(cli, slots, pass_no, tracer=None, jobs_meta=None, deadline=None, scale=False):
    """Run the job list once, traced when a tracer is given, and return the
    summed job time; with a deadline, stop (returning None) before a job
    that would end after it.  Every job runs at least once in pass 0.  With
    `scale`, each job is probed for machine speed (calibrate.py) and gets a
    scaled time."""
    total = 0.0
    before = calibrate.edge() if scale else []
    for i, slot in enumerate(slots):
        if deadline is not None and pass_no > 0:
            if time.perf_counter() + slot.runs[-1].seconds > deadline:
                return None
        if tracer is not None:
            tracer.job_id = len(jobs_meta)
            jobs_meta.append({"id": tracer.job_id, "pass": pass_no, "slot": i, "job": slot.job.key})
        sampler = calibrate.Sampler() if scale else None
        e = run_job(cli, slot, i, pass_no, tracer is not None, sampler)
        if scale:
            after = calibrate.edge()
            e.scaled = calibrate.scaled(e.seconds, before, sampler.inside, after)
            before = after
        total += e.seconds
    return total


def check_slots(projarr, slots):
    """Gate every job's output; identical inputs share one oracle."""
    oracles = {}
    poincare = {}
    for slot in slots:
        job = slot.job
        for e in slot.runs:
            if e.error:
                slot.failures.append(f"pass {e.pass_no}: {e.error}")
        outputs = {e.sha for e in slot.runs if not e.error}
        if len(outputs) > 1:
            slot.failures.append(f"{len(outputs)} different outputs for one input")
        if not outputs:
            continue
        try:
            if job.filename not in oracles:
                oracles[job.filename] = make_oracle(projarr, Path(slot.path).read_text())
            verdict = check_output(job, slot.outputs[min(outputs)], oracles[job.filename])
        except Exception as e:  # a broken oracle or output fails the job, not the run
            slot.failures.append(f"cannot check output: {type(e).__name__}: {e}")
            continue
        slot.failures += verdict.failures
        slot.sizes = verdict.sizes
        poincare.setdefault(job.name, {})[job.command] = verdict.poincare
    for slot in slots:
        mine = poincare.get(slot.job.name, {})
        if slot.job.command == "affine" and "ring" in mine and mine["affine"] != mine["ring"]:
            slot.failures.append(f"affine Poincaré {mine['affine']} != projective {mine['ring']}")


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tracer, jobs_meta, slots, traced_pass, command=None):
    """Per-layer metrics of one traced pass (or of its jobs running
    `command`), from its spans and counts."""
    jobs = {
        m["id"] for m in jobs_meta
        if m["pass"] == traced_pass and command in (None, slots[m["slot"]].job.command)
    }
    self_t = tracer.self_times()
    calls, secs = aggregate(tracer.names, tracer.name, tracer.parent, self_t, tracer.job, jobs)
    counts = sum((tracer.counts[j] for j in jobs), start=Counter())
    ids = {n: i for i, n in enumerate(tracer.names)}
    closure = ids.get("arrangement.intersection_closure")
    meet = ids.get("linalg.subspace_intersection")
    closure_meets = sum(
        1 for nid, p, j in zip(tracer.name, tracer.parent, tracer.job)
        if nid == meet and p >= 0 and tracer.name[p] == closure and j in jobs
    )
    runs = [
        e for s in slots for e in s.runs
        if e.traced and e.pass_no == traced_pass and command in (None, s.job.command)
    ]
    by_command: dict[str, float] = {}
    for e in runs:
        cmd = slots[e.job].job.command
        by_command[cmd] = by_command.get(cmd, 0.0) + e.seconds
    n_jobs = len(jobs)

    def S(*ns):
        return sum(secs[n] for n in ns)

    def C(*ns):
        return sum(calls[n] for n in ns)

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = {}
    for n, s in secs.items():
        layer = n.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s

    m = {
        "arrangement.parse_s": S("arrangement.parse_arrangement"),
        "arrangement.closure_calls": C("arrangement.intersection_closure"),
        "arrangement.closure_s": S("arrangement.intersection_closure"),
        "arrangement.closure_yield": ratio(counts["closure_elements"], closure_meets),
        "arrangement.section_s": S(
            "arrangement.generic_hyperplane", "arrangement.hyperplane_section",
            "arrangement.restrict_to_hyperplane", "arrangement.section_coordinates",
        ),
        "linalg.rref_calls": C("linalg.rref"),
        "linalg.rref_s": S("linalg.rref"),
        "linalg.solve_rational_calls": C("linalg.solve_rational"),
        "linalg.solve_rational_s": S("linalg.solve_rational"),
        "linalg.snf_calls": C("linalg.snf"),
        "linalg.snf_s": S("linalg.snf"),
        "linalg.snf_entries": counts["snf_entries"],
        "linalg.inverse_calls": C("linalg.int_inverse_unimodular"),
        "linalg.inverse_s": S("linalg.int_inverse_unimodular"),
        "poset.build_calls": C("poset.build_poset"),
        "poset.builds_per_job": ratio(C("poset.build_poset"), n_jobs),
        "poset.build_s": S("poset.build_poset"),
        "poset.elements": counts["poset_elements"],
        "poset.eta_s": S("poset.verify_eta"),
        "chains.complex_s": S(
            "chains.build_relative_complex", "chains.build_local_complex", "chains.boundary_matrix_from"
        ),
        "chains.cells": counts["cells"],
        "chains.homology_calls": C("chains.homology"),
        "chains.homology_s": S("chains.homology"),
        "chains.product_calls": C("chains.cross_shuffle"),
        "chains.product_s": S(
            "chains.cross_shuffle", "chains.meet_push", "chains.meet_chain", "chains.meet_product"
        ),
        "chains.class_of_calls": C("chains.HomologySummary.class_of"),
        "chains.class_of_s": S("chains.HomologySummary.class_of"),
        "ring.decompose_calls": C("ring.decompose"),
        "ring.decompose_per_job": ratio(C("ring.decompose"), n_jobs),
        "ring.table_s": S("ring.ring_table"),
        "ring.basis_size": counts["basis_size"],
        "ring.product_pairs": counts["product_pairs"],
        "ring.product_yield": ratio(counts["nonzero_products"], C("chains.cross_shuffle")),
        "ring.axioms_s": S("ring.verify_ring_axioms"),
        "ring.affine_s": S("ring.affine_decompose"),
        "oracles.compare_s": S("oracles.compare"),
        "oracles.os_s": S("oracles.os_poincare_projective", "oracles.os_poincare_central", "oracles.mobius"),
        "oracles.euler_s": S("oracles.stratified_euler"),
        "presentation.build_s": S("presentation.build_presentation"),
        "presentation.ranks_s": S("presentation.graded_ranks"),
        "presentation.pi_calls": C("presentation.pi_image"),
        "presentation.pi_s": S(
            "presentation.pi_context", "presentation.pi_image", "presentation.pi_polynomial"
        ),
        "presentation.verify_s": S("presentation.verify_presentation"),
        "cli.self_s": layer_self.get("cli", 0.0),
        "cli.out_bytes": sum(e.out_bytes for e in runs),
    }
    for layer in ("arrangement", "linalg", "poset", "chains", "ring", "oracles", "presentation"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    for cmd in ("ring", "affine", "verify", "presentation"):
        m[f"job.{cmd}_s"] = by_command.get(cmd, 0.0)
    return m


def self_time_mismatches(tracer, jobs_meta, slots, tolerance=0.01):
    """Jobs whose spans' self times do not add up to the measured job time."""
    self_t = tracer.self_times()
    per_job: dict[int, float] = {}
    for st, j in zip(self_t, tracer.job):
        per_job[j] = per_job.get(j, 0.0) + st
    bad = []
    for meta in jobs_meta:
        e = next(e for e in slots[meta["slot"]].runs if e.traced and e.pass_no == meta["pass"])
        total = per_job.get(meta["id"], 0.0)
        if abs(total - e.seconds) > tolerance * e.seconds + 0.002:
            bad.append(f"{meta['job']} pass {meta['pass']}: spans {total:.4f} s, job {e.seconds:.4f} s")
    return bad


UNITS = {"_mb": "MB", "_s": "s", "_bytes": "bytes", "_frac": "ratio", "_yield": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=generators.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        try:
            setup_times = measure_setup(args.workload, args.seed, work / "probe")
            sys.path.insert(0, str(SRC))
            import projarr
            import projarr.cli as cli
        except (subprocess.SubprocessError, JobTimeout, ImportError) as e:
            print(f"error: cannot set up the benchmark: {e}", file=sys.stderr)
            return 2
        jobs = generators.jobs_for(args.workload, args.seed)
        paths = generators.write_inputs(jobs, work / "inputs")
        deterministic = all(
            (work / "probe" / name).read_bytes() == Path(path).read_bytes()
            for name, path in paths.items()
        )
        slots = [Slot(job, paths[job.filename]) for job in jobs]
        return measure(args, tag, projarr, cli, slots, setup_times, deterministic)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, tag, projarr, cli, slots, setup_times, deterministic) -> int:
    deadline = time.perf_counter() + args.seconds
    metrics: dict[str, float] = {}
    problems = [] if deterministic else ["generated inputs differ between processes"]
    by_command = {}
    if args.trace == 0:
        pass_no = 0
        while run_pass(cli, slots, pass_no, deadline=deadline, scale=True) is not None:
            pass_no += 1
            if time.perf_counter() >= deadline:
                break
        metrics["wall_s"] = sum(_median(s.untraced(scaled=True)) for s in slots)
        metrics["setup_s"] = _median(setup_times[1])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        tracer = Tracer()
        jobs_meta: list[dict] = []
        untraced, traced = [], []
        pass_no = 0
        while True:
            untraced.append(run_pass(cli, slots, pass_no))
            tracer.install()
            try:
                traced.append(run_pass(cli, slots, pass_no + 1, tracer, jobs_meta))
            finally:
                tracer.uninstall()
            pass_no += 2
            if time.perf_counter() + untraced[-1] + traced[-1] > deadline:
                break
        per_pass = [layer_metrics(tracer, jobs_meta, slots, p) for p in range(1, pass_no, 2)]
        metrics = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
        metrics["trace.overhead_frac"] = _median(traced) / _median(untraced) - 1
        by_command = {
            cmd: layer_metrics(tracer, jobs_meta, slots, 1, cmd)
            for cmd in sorted({s.job.command for s in slots})
        }
        problems += [f"self times: {b}" for b in self_time_mismatches(tracer, jobs_meta, slots)]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{tag}.json.gz", jobs_meta)

    check_slots(projarr, slots)
    attempted = sum(len(s.runs) for s in slots)
    failed = sum(len(s.runs) for s in slots if s.failures)
    correct = failed == 0 and not problems
    write_record(args, tag, slots, metrics, by_command, setup_times, problems)
    summarize(slots, metrics, problems)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def write_record(args, tag, slots, metrics, by_command, setup_times, problems):
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "setup_raw_s": setup_times[0],
        "setup_scaled_s": setup_times[1],
        "wall_raw_s": sum(_median(s.untraced()) for s in slots),
        "metrics": metrics,
        "first_traced_pass_by_command": by_command,
        "problems": problems,
        "jobs": [
            {
                "job": s.job.key,
                "argv": s.job.args,
                "input_sha256": hashlib.sha256(Path(s.path).read_bytes()).hexdigest(),
                "output_sha256": sorted(s.outputs),
                "sizes": s.sizes,
                "untraced_s": s.untraced(),
                "untraced_scaled_s": s.untraced(scaled=True),
                "traced_s": [e.seconds for e in s.runs if e.traced],
                "failures": s.failures,
            }
            for s in slots
        ],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))


def summarize(slots, metrics, problems):
    err = sys.stderr
    for s in slots:
        t = s.untraced()
        sha = s.runs[0].sha[:12] if s.runs else "-"
        print(
            f"{s.job.key:32s} n={len(t):2d} median {_median(t):8.4f} s"
            f" (scaled {_median(s.untraced(scaled=True)):8.4f} s)  out {sha}  "
            f"|Q|={s.sizes.get('poset')} cells={s.sizes.get('cells')} basis={s.sizes.get('basis')}"
            + (f"  FAILED: {s.failures[:3]}" if s.failures else ""),
            file=err,
        )
    for p in problems:
        print(f"problem: {p}", file=err)
    for k, v in metrics.items():
        print(f"  {k:32s} {v:.6g}", file=err)


if __name__ == "__main__":
    sys.exit(main())
