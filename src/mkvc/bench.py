"""Run a matrix of (instance, solver) pairs and emit CSV.

Rows are sorted by (instance_id, solver label) before emission, so the
output does not depend on execution order; the time_ms column is the only
non-reproducible field.
"""

from __future__ import annotations

import csv
import sys
import time
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


def _run_one(instance_id, inst, solver: RatedSolver, opt, err) -> RunRecord:
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


def run_matrix(instances, solvers, oracle: bool = False,
               oracle_budget: int = ORACLE_BUDGET):
    """Run every solver on every (instance_id, instance) pair.

    With oracle=True the exhaustive optimum is computed per instance and
    ratios are attached; an oracle-infeasible instance is recorded as a
    per-row error and the run continues.
    """
    solvers = list(solvers)
    records = []
    for iid, inst in instances:
        # one oracle run per instance; its optimum or error goes on every row
        opt = err = None
        if oracle:
            try:
                opt = solve_exact(inst, oracle_budget).covered_weight
            except MkvcError as exc:
                err = f"oracle: {exc}"
        records += [_run_one(iid, inst, s, opt, err) for s in solvers]
    records.sort(key=lambda r: (r.instance_id, r.solver))
    return records


def value_text(x) -> str:
    """`str(x)`, or "" for None.  A value past the interpreter's limit on
    int-to-string conversion is refused as an MkvcError, not a ValueError."""
    if x is None:
        return ""
    try:
        return str(x)
    except ValueError:
        raise MkvcError("value too long to print (over "
                        f"{sys.get_int_max_str_digits()} digits)") from None


def write_csv(records, fh) -> None:
    """Data rows plus, per solver, summary/min and summary/mean ratio rows."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["instance_id", "solver", "value", "opt", "ratio", "time_ms"])
    per_solver = {}
    for rec in records:
        writer.writerow([
            rec.instance_id, rec.solver, value_text(rec.value),
            value_text(rec.opt), value_text(rec.ratio),
            str(round(rec.wall_time * 1000)),
        ])
        per_solver.setdefault(rec.solver, []).append(rec)
    for solver in sorted(per_solver):
        ratios = [r.ratio for r in per_solver[solver] if r.ratio is not None]
        total_ms = round(sum(r.wall_time for r in per_solver[solver]) * 1000)
        mean = sum(ratios, Fraction(0)) / len(ratios) if ratios else None
        for tag, ratio in (("min", min(ratios, default=None)), ("mean", mean)):
            writer.writerow([f"summary/{tag}", solver, "", "",
                             value_text(ratio), str(total_ms)])
