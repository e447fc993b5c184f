"""Record each job slot's reference: size floors and product pairing ranks.

    python3 perfbench/record_reference.py

Runs every workload's job list once for seeds 1-3 and writes
reference.json.  Sizes are the minimum over the seeds; pairing ranks must
agree across seeds, since each slot has a fixed intersection type.  Run
it only on a commit whose outputs are trusted: the benchmark gates later
commits against what it writes.
"""

import json
import shutil
import signal
import sys

from run import SRC, Slot, _on_alarm, run_job
import generators
from checks import check_output, make_oracle

SEEDS = (1, 2, 3)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import projarr
    import projarr.cli as cli

    signal.signal(signal.SIGALRM, _on_alarm)
    reference: dict = {}
    work = generators.REFERENCE.parent / "out" / "reference-inputs"
    for workload in generators.WORKLOADS:
        slots_ref = reference.setdefault(workload, {})
        for seed in SEEDS:
            jobs = generators.jobs_for(workload, seed)
            paths = generators.write_inputs(jobs, work / f"{workload}-{seed}")
            for job in jobs:
                slot = Slot(job, paths[job.filename])
                e = run_job(cli, slot, 0, 0, False)
                if e.error:
                    raise SystemExit(f"{job.key} seed {seed}: {e.error}")
                job.expect = {}
                v = check_output(job, slot.outputs[e.sha], make_oracle(projarr, open(slot.path).read()))
                if v.failures[:-1]:  # the last one is the missing reference
                    raise SystemExit(f"{job.key} seed {seed}: {v.failures[:-1]}")
                entry = {k: v.sizes[k] for k in ("poset", "cells", "basis")}
                entry["pairing_ranks"] = v.pairing_ranks
                old = slots_ref.get(job.key)
                if old is not None:
                    if old["pairing_ranks"] != entry["pairing_ranks"]:
                        raise SystemExit(f"{job.key}: pairing ranks depend on the seed")
                    entry = {k: min(old[k], entry[k]) if k != "pairing_ranks" else old[k] for k in old}
                slots_ref[job.key] = entry
                print(workload, seed, job.key, entry, file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    generators.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
