"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is reported with its unit,
that wrong results injected here (never in src/) are counted as failed ops,
and that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import mkvc.cli  # noqa: E402
import mkvc.corpus  # noqa: E402
import mkvc.solvers  # noqa: E402
import workloads  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:depth clamped")

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="ascii"))
NAMED = {"sweep": ["pairs_per_s", "ops_per_s", "op_ms.p50"],
         "amplify": ["solves_per_s", "solve_ms.p50"],
         "cli": ["solve_ms.p50", "solve_ms.p90", "bench_ms.p50"]}


def tiny(name, workdir):
    if name == "sweep":
        return workloads.Sweep(7, workdir, max_n=4, block=2, blocks_per_shape=2)
    if name == "amplify":
        return workloads.Amplify(7, workdir,
                                 classes=(("alg2", 10, 3), ("ptas", 8, 3)))
    return workloads.Cli(7, workdir, solve_sizes=(20,), solve_k=3,
                         bench_sizes=(8,), bench_k=2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_reported_with_unit(name, trace, tmp_path):
    phase, metrics, lines, _ = run.run(tiny(name, tmp_path), 0.05, trace)
    result = run.result_object(phase, metrics)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == 0:
        printed = {line.split()[0] for line in lines}
        assert {"setup_s", "peak_rss_mb", "failed_ops", *NAMED[name]} <= printed
    json.dumps(result)


def test_traced_run_restores_the_package_and_counts_layers(tmp_path):
    original = mkvc.solvers.solve_alg2
    sweep = tiny("sweep", tmp_path)
    phase, metrics, _, tracer = run.run(sweep, 0.05, 1)
    assert mkvc.solvers.solve_alg2 is original
    assert mkvc.corpus.solve_alg2 is original
    pairs = metrics["trace.ops"][0] * sweep.pairs_per_op
    assert metrics["corpus.check_instance.calls"][0] == pairs
    assert metrics["solvers.solve_alg2.calls"][0] == pairs
    assert metrics["solvers.RatedSolver.run_masked.calls"][0] > pairs
    assert 0 < metrics["solvers.solve_alg2.time_share"][0] < 1
    assert all(span[4] >= span[3] for span in tracer.spans)


def test_recorded_digests_repeat_and_mismatches_fail(tmp_path):
    def phase(expected=None):
        return run.run_phase(_ready(tiny("amplify", tmp_path)), 0, expected,
                             rounds=3)

    first = phase()
    assert len(first.digests) == 3
    again = phase(first.digests)
    assert again.failed == 0 and again.digests == first.digests
    # a difference in a later round fails exactly the ops of that round
    bad = phase(first.digests[:2] + ["0" * 16])
    assert bad.failed == 2 and bad.attempted == 6


def test_wrapper_cost_is_taken_out_of_layer_times(tmp_path):
    _, metrics, lines, tracer = run.run(tiny("amplify", tmp_path), 0.2, 1)
    assert all(cost > 0 for cost in tracer.wrapper_cost())
    for name in ("graph.mask_weight", "solvers.RatedSolver.run_masked",
                 "solvers.solve_alg2"):
        assert tracer.calls(name) > 0
        assert tracer.self_s(name) < tracer.raw_self_s(name)
        assert tracer.inclusive_s(name) < tracer.raw_inclusive_s(name)
    printed = {line.split()[0] for line in lines}
    assert {"trace.wrapper_ns_per_call", "trace.extra_ns_per_call"} <= printed


def _ready(workload):
    workload.setup(0)
    return workload


def test_corrupted_sweep_result_is_counted(tmp_path, monkeypatch):
    check = mkvc.corpus.check_instance
    tags = []

    def corrupted(inst, agg, tag, **kw):
        check(inst, agg, tag, **kw)
        tags.append(tag)
        if len(tags) == 12:          # one pair of the second op
            agg["dominance"] += 1

    monkeypatch.setattr(mkvc.corpus, "check_instance", corrupted)
    phase = run.run_phase(_ready(tiny("sweep", tmp_path)), 0)
    assert phase.failed == 1 and phase.attempted > 1


def test_corrupted_solution_value_is_counted(tmp_path, monkeypatch):
    solve = mkvc.solvers.solve_alg2

    def corrupted(inst, c, base):
        sol = solve(inst, c, base)
        return replace(sol, covered_weight=sol.covered_weight + 1)

    monkeypatch.setattr(mkvc.solvers, "solve_alg2", corrupted)
    phase = run.run_phase(_ready(tiny("amplify", tmp_path)), 0)
    # ptas reaches solve_alg2 through RatedSolver.run, so both ops fail
    assert phase.failed == phase.attempted == 2


def test_corrupted_cli_output_is_counted(tmp_path, monkeypatch):
    fmt = mkvc.cli._format_vertices
    monkeypatch.setattr(mkvc.cli, "_format_vertices",
                        lambda sol: fmt(sol).rsplit(" ", 1)[0])
    phase = run.run_phase(_ready(tiny("cli", tmp_path)), 0)
    assert phase.failed == 4 and phase.attempted == 5


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
