"""Record the output digests that every benchmark run is checked against.

    python3 perfbench/record_hashes.py

For each workload and each seed in SEEDS this sets the workload up as a run
of BENCHMARK.json's run_seconds does, runs its first digest_rounds rounds
once and stores one digest per round in perfbench/expected_hashes.json,
replacing the whole file.  Run it only at a commit whose outputs are
trusted: later runs count every op of a round whose digest differs as
failed.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = range(32)


def record(name, seed, run_seconds):
    """Digests of the first digest_rounds rounds of one workload and seed."""
    from workloads import WORKLOADS

    workdir = run.WORK_DIR / f"record-{name}-{seed}"
    workload = WORKLOADS[name](seed, workdir)
    try:
        workload.setup(run_seconds)
        phase = run.run_phase(workload, 0, rounds=workload.digest_rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if phase.failed:
        raise RuntimeError(f"{name} seed {seed}: {phase.errors}")
    return phase.digests


def main():
    run.import_package()
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    table = {}
    for name in sorted(WORKLOADS):
        table[name] = {}
        for seed in SEEDS:
            table[name][str(seed)] = record(name, seed, spec["run_seconds"])
            print(f"{name} seed {seed}: {len(table[name][str(seed)])} rounds",
                  flush=True)
    run.EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                            encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
