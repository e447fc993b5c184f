"""Tests of the benchmark itself: generators, correctness gate, span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import copy
import dataclasses
import json
import signal
import time

import pytest

import generators
import projarr
import projarr.cli as cli
from checks import check_output, make_oracle
from run import Slot, _on_alarm, check_slots, run_job
from spans import Tracer, aggregate, self_times


# -- generators -------------------------------------------------------------


@pytest.mark.parametrize("workload", generators.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a = [generators.input_bytes(j) for j in generators.jobs_for(workload, 7)]
    b = [generators.input_bytes(j) for j in generators.jobs_for(workload, 7)]
    assert a == b


@pytest.mark.parametrize("workload", generators.WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    a = [generators.input_bytes(j) for j in generators.jobs_for(workload, 7)]
    b = [generators.input_bytes(j) for j in generators.jobs_for(workload, 8)]
    assert a != b


def test_every_job_slot_has_a_reference():
    for workload in generators.WORKLOADS:
        for job in generators.jobs_for(workload, 1):
            assert {"poset", "cells", "basis"} <= set(job.expect), job.key


def test_line_draws_have_the_fixed_type():
    for seed in range(5):
        for job in generators.jobs_for("line-affine", seed):
            lines = [tuple(int(x) for x in m["equations"][0]) for m in job.doc["subspaces"]]
            assert generators.point_multiplicities(lines) == generators.LINE_TYPE


def test_int_rank():
    assert generators.int_rank([[1, 2], [2, 4]]) == 1
    assert generators.int_rank([[0, 1], [1, 0], [1, 1]]) == 2
    assert generators.int_rank([]) == 0


# -- correctness gate -------------------------------------------------------


def _slot(tmp_path, workload, key):
    job = next(j for j in generators.jobs_for(workload, 1) if j.key == key)
    paths = generators.write_inputs([job], tmp_path)
    return Slot(job, paths[job.filename])


@pytest.fixture(scope="module")
def boolean_run(tmp_path_factory):
    signal.signal(signal.SIGALRM, _on_alarm)
    slot = _slot(tmp_path_factory.mktemp("in"), "hyperplane-ring", "boolean_cp3:ring")
    e = run_job(cli, slot, 0, 0, False)
    oracle = make_oracle(projarr, open(slot.path).read())
    return slot, slot.outputs[e.sha], oracle


def test_reference_invariants_pass(boolean_run):
    slot, output, oracle = boolean_run
    verdict = check_output(slot.job, output, oracle)
    assert verdict.failures == []
    assert verdict.sizes["poset"] == 16 and verdict.sizes["cells"] == 104


@pytest.mark.parametrize(
    "perturb",
    [
        lambda job: job.expect["pairing_ranks"].update({"1,1": 2}),
        lambda job: job.expect.update(poset=job.expect["poset"] + 1),
        lambda job: job.expect.update(cells=job.expect["cells"] + 1),
        lambda job: job.expect.clear(),
    ],
)
def test_perturbed_reference_marks_job_failed(boolean_run, perturb):
    slot, output, oracle = boolean_run
    job = copy.deepcopy(slot.job)
    perturb(job)
    assert check_output(job, output, oracle).failures


def test_wrong_oracle_or_output_marks_job_failed(boolean_run):
    slot, output, oracle = boolean_run
    assert check_output(slot.job, output, dataclasses.replace(oracle, euler=oracle.euler + 1)).failures
    doc = json.loads(output)
    doc["poincare"][1] += 1
    assert check_output(slot.job, json.dumps(doc), oracle).failures


def test_unit_law_is_gated(boolean_run):
    slot, output, oracle = boolean_run
    doc = json.loads(output)
    for e in doc["products"]:
        e["result"] = [[t, 2 * c] for t, c in e["result"]]
    assert check_output(slot.job, json.dumps(doc), oracle).failures


def test_presentation_verdict_is_gated(tmp_path):
    signal.signal(signal.SIGALRM, _on_alarm)
    slot = _slot(tmp_path, "subspace-verify", "skew_lines3:presentation")
    e = run_job(cli, slot, 0, 0, False)
    oracle = make_oracle(projarr, open(slot.path).read())
    output = slot.outputs[e.sha]
    assert check_output(slot.job, output, oracle).failures == []
    doc = json.loads(output)
    doc["ranks"][2]["pi_rank"] += 1
    assert check_output(slot.job, json.dumps(doc), oracle).failures


def test_failed_check_counts_every_execution(tmp_path):
    signal.signal(signal.SIGALRM, _on_alarm)
    slot = _slot(tmp_path, "subspace-verify", "skew_lines3:verify")
    slot.job.expect["basis"] += 1
    for p in range(2):
        run_job(cli, slot, 0, p, False)
    check_slots(projarr, [slot])
    assert slot.failures and len(slot.runs) == 2


# -- spans ------------------------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 8]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    parent = [-1, 0, 0, 2]
    st = self_times(start, end, parent)
    assert st == pytest.approx([3.0, 3.0, 2.0, 2.0])
    assert sum(st) == pytest.approx(end[0] - start[0])


def test_aggregate_moves_rref_under_solve_to_the_caller():
    names = ["linalg.solve_rational", "linalg.rref", "poset.build_poset"]
    name_ids = [0, 1, 2, 1]
    parents = [-1, 0, -1, 2]
    st = [1.0, 2.0, 3.0, 4.0]
    calls, secs = aggregate(names, name_ids, parents, st, [0, 0, 0, 0], {0})
    assert secs["linalg.solve_rational"] == 3.0 and calls["linalg.solve_rational"] == 1
    assert secs["linalg.rref"] == 4.0 and calls["linalg.rref"] == 1
    assert secs["poset.build_poset"] == 3.0


def test_tracer_records_nesting_and_sums_to_root():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_t = tracer.wrap("m.leaf", leaf)

    def root():
        leaf_t()
        time.sleep(0.002)
        leaf_t()

    root_t = tracer.wrap("m.root", root)
    tracer.job_id = 5
    root_t()
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.job) == [5, 5, 5]
    st = tracer.self_times()
    assert sum(st) == pytest.approx(tracer.end[0] - tracer.start[0])
    assert all(s > 0 for s in st)


def test_install_wraps_every_lookup_site_and_uninstall_restores():
    import projarr.chains as chains
    import projarr.linalg as linalg

    before = (chains.snf, linalg.snf, linalg.Subspace.contains)
    tracer = Tracer()
    tracer.install()
    try:
        assert chains.snf is linalg.snf and chains.snf is not before[0]
        linalg.snf([[2]])
        assert tracer.names[tracer.name[0]] == "linalg.snf"
    finally:
        tracer.uninstall()
    assert (chains.snf, linalg.snf, linalg.Subspace.contains) == before


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import run

    spec = json.loads((generators.REFERENCE.parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(generators.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    reported = list(run.layer_metrics(Tracer(), [], [], 1)) + ["trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == reported
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]


def test_scaled_time_is_wall_time_at_the_reference_speed():
    import calibrate

    ref = calibrate.REFERENCE_S
    assert calibrate.scaled(2.0, [ref], [], [ref]) == pytest.approx(2.0)
    assert calibrate.scaled(2.0, [2 * ref], [], [2 * ref]) == pytest.approx(1.0)
    # probes taken inside the interval are removed from it
    assert calibrate.scaled(2.0 + 2 * ref, [ref], [ref, ref], [ref]) == pytest.approx(2.0)


def test_sampler_probes_while_busy():
    import calibrate

    with calibrate.Sampler() as sampler:
        end = time.perf_counter() + 5
        while len(sampler.inside) < 2 and time.perf_counter() < end:
            sum(range(1000))
    assert len(sampler.inside) >= 2
