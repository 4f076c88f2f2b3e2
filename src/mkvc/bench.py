"""Run a matrix of (instance, solver) pairs and emit CSV.

Rows are sorted by (instance_id, solver label) before emission, so the
output does not depend on execution order; the time_ms column is the only
non-reproducible field.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .errors import MkvcError
from .solvers import ORACLE_BUDGET, RatedSolver, solve_exact


@dataclass(frozen=True)
class RunRecord:
    instance_id: str
    solver: str
    value: object = None
    opt: object = None
    ratio: Fraction | None = None
    wall_time: float = 0.0
    error: str | None = None


def _run_one(instance_id, inst, solver: RatedSolver, oracle: bool,
             oracle_budget: int) -> RunRecord:
    opt = None
    err = None
    if oracle:
        try:
            opt = solve_exact(inst, oracle_budget).covered_weight
        except MkvcError as exc:
            err = f"oracle: {exc}"
    t0 = time.perf_counter()
    try:
        sol = solver.run(inst)
    except MkvcError as exc:
        return RunRecord(instance_id, solver.label(), error=str(exc),
                         opt=opt, wall_time=time.perf_counter() - t0)
    wall = time.perf_counter() - t0
    ratio = None
    if opt is not None:
        ratio = Fraction(sol.covered_weight, opt) if opt > 0 else Fraction(1)
    return RunRecord(instance_id, solver.label(), value=sol.covered_weight,
                     opt=opt, ratio=ratio, wall_time=wall, error=err)


def _run_task(task):
    instance_id, inst, solvers, oracle, oracle_budget = task
    return [_run_one(instance_id, inst, s, oracle, oracle_budget)
            for s in solvers]


def run_matrix(instances, solvers, oracle: bool = False,
               oracle_budget: int = ORACLE_BUDGET, jobs: int = 1):
    """Run every solver on every (instance_id, instance) pair.

    With oracle=True the exhaustive optimum is computed per instance and
    ratios are attached; an oracle-infeasible instance is recorded as a
    per-row error and the run continues.
    """
    tasks = [(iid, inst, list(solvers), oracle, oracle_budget)
             for iid, inst in instances]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_task, tasks))
    else:
        chunks = [_run_task(t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.instance_id, r.solver))
    return records


def _fmt(x) -> str:
    if x is None:
        return ""
    return str(x)


def write_csv(records, fh) -> None:
    """Data rows plus, per solver, summary/min and summary/mean ratio rows."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["instance_id", "solver", "value", "opt", "ratio", "time_ms"])
    per_solver = {}
    for rec in records:
        writer.writerow([
            rec.instance_id, rec.solver, _fmt(rec.value), _fmt(rec.opt),
            _fmt(rec.ratio), str(round(rec.wall_time * 1000)),
        ])
        per_solver.setdefault(rec.solver, []).append(rec)
    for solver in sorted(per_solver):
        ratios = [r.ratio for r in per_solver[solver] if r.ratio is not None]
        total_ms = round(sum(r.wall_time for r in per_solver[solver]) * 1000)
        if ratios:
            writer.writerow(["summary/min", solver, "", "",
                             _fmt(min(ratios)), str(total_ms)])
            writer.writerow(["summary/mean", solver, "", "",
                             _fmt(sum(ratios, Fraction(0)) / len(ratios)),
                             str(total_ms)])
        else:
            writer.writerow(["summary/min", solver, "", "", "", str(total_ms)])
            writer.writerow(["summary/mean", solver, "", "", "", str(total_ms)])
