"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The criteria call the check functions behind `mkvc verify` on their own,
larger inputs and fail on any `FAIL` line, so every clause has one
implementation: criteria 1-3 and 7 read the sweep aggregates through
`verify.sweep_lines` (one line per `corpus.SWEEP_CHECKS` entry),
criterion 1's ptas clause and criterion 8 hold one solver against the
oracle through the sweep's own per-solution check,
`corpus.check_solution`, and criteria 4-6 call `check_ratio_formulas`,
`check_schedule` and `check_reduction`.  Criterion 4's minimality
clause, true exactly on [3/4, 1], is documented there and in the
README's known-defect note.

Criteria 1-3 and 7 share two session-scoped sweeps: the exhaustive battery
over every unweighted bipartite graph with n <= 8 (every budget k < n) and
1000 seeded random weighted instances with n <= 12.  Both run their chunks
on a process pool with one worker per core and write a progress line to
stderr about every tenth of their chunks.  Run with
`pytest -s tests/test_acceptance.py` to see every line.
"""

import io
import multiprocessing
import os
import sys
import time
import warnings
from fractions import Fraction

import pytest

from mkvc import run_matrix, solve_exact, write_csv
from mkvc.corpus import (
    SOLUTION_CHECKS, check_chunk, check_solution, merge_aggregates,
    new_aggregate, ordered_shapes, random_weighted_corpus, rational_corpus,
    semiregular_corpus, sweep_chunk, sweep_tasks, unweighted_instance,
)
from mkvc.solvers import SolverKind, SolverSpec, build_solver
from mkvc.verify import (
    alg2_floor_line, check_ratio_formulas, check_reduction, check_schedule,
    format_line, run_verification, status_line, sweep_lines,
)

WORKERS = os.cpu_count() or 1


def report(criterion: int, lines: list):
    """Print the criterion's verify-style lines; it passes iff none FAILs."""
    ok = all(status != "FAIL" for status, _, _ in lines)
    detail = "; ".join(format_line(line) for line in lines)
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _pool_run(worker, tasks):
    t0 = time.perf_counter()
    agg = new_aggregate()
    total = len(tasks)
    step = max(1, total // 10)

    def merge(done, part):
        merge_aggregates(agg, part)
        if done % step == 0 or done == total:
            print(f"sweep: {done}/{total} chunks, {agg['pairs']} pairs, "
                  f"{time.perf_counter() - t0:.0f}s", file=sys.stderr,
                  flush=True)

    with multiprocessing.Pool(WORKERS) as pool:
        parts = pool.imap_unordered(worker, tasks, chunksize=1)
        for done, part in enumerate(parts, 1):
            merge(done, part)
    agg["elapsed"] = time.perf_counter() - t0
    return agg


@pytest.fixture(scope="session")
def exhaustive_sweep():
    return _pool_run(sweep_chunk, sweep_tasks(8))


@pytest.fixture(scope="session")
def random_sweep():
    corpus = random_weighted_corpus(1000)
    return _pool_run(check_chunk, [corpus[i:i + 50]
                                   for i in range(0, len(corpus), 50)])


def _combined(*aggs):
    total = new_aggregate()
    for agg in aggs:
        merge_aggregates(total, agg)
    return total


def _oracle_line(spec, cases, claim):
    """`claim` as one line: the spec's solution on every (id, instance)
    case, held against the oracle by `corpus.check_solution` at the rho
    the solver advertises."""
    solver, agg = build_solver(spec), new_aggregate()
    rho = solver.rho.numerator, solver.rho.denominator
    with warnings.catch_warnings():     # a ptas depth cap warns
        warnings.simplefilter("ignore")
        for iid, inst in cases:
            agg["pairs"] += 1
            check_solution(inst, agg, iid, solver.label(), solver.run(inst),
                           inst.k, solve_exact(inst).covered_weight, rho)
    detail = [f"{agg['pairs']} (instance, k) pairs", *agg["examples"][:3]]
    return status_line(not any(agg[key] for key in SOLUTION_CHECKS), claim,
                       "; ".join(detail))


def _ptas_cases():
    """The bootstrapped scheme is depth-limited by construction, so its
    cases are the exhaustive n <= 5 graphs plus a random sub-corpus."""
    cases = [(f"u{nl}x{nr}/g{gmask}/k{k}",
              unweighted_instance(nl, nr, gmask, k))
             for nl, nr in ordered_shapes(5)
             for gmask in range(1 << (nl * nr)) for k in range(1, nl + nr)]
    for iid, inst in random_weighted_corpus(30, seed=77):
        cases.append((iid, inst.with_budget(min(inst.k, 3)) if inst.n > 9
                      else inst))
    return cases


def test_criterion_1_feasibility_and_oracle_dominance(exhaustive_sweep,
                                                      random_sweep):
    agg = _combined(exhaustive_sweep, random_sweep)
    t0 = time.perf_counter()
    ptas_line = _oracle_line(
        SolverSpec(SolverKind.PTAS, base=SolverSpec(SolverKind.GREEDY),
                   epsilon=Fraction(1, 10), max_depth=2), _ptas_cases(),
        "ptas at depth 2 feasible, within the oracle and at least rho of it")
    elapsed = (exhaustive_sweep["elapsed"] + random_sweep["elapsed"]
               + time.perf_counter() - t0)
    lines = sweep_lines(agg, SOLUTION_CHECKS) + [ptas_line]
    timing = f"{elapsed:.0f}s wall on {WORKERS} workers"
    if os.cpu_count() and os.cpu_count() >= 8:
        lines.append(status_line(elapsed < 600,
                                 "within the 10-minute budget", timing))
    else:
        lines.append(("note", "sweep time", timing))
    report(1, lines)


def test_criterion_2_greedy_guarantees(exhaustive_sweep, random_sweep):
    agg = _combined(exhaustive_sweep, random_sweep)
    report(2, sweep_lines(agg, ("greedy_floor", "greedy_kn"))
           + [("note", "greedy min ratio", f"{agg['greedy_min_ratio']}")])


def test_criterion_3_amplifier_improvement(exhaustive_sweep, random_sweep):
    agg = _combined(exhaustive_sweep, random_sweep)
    assert agg["alg2_min_ratio"] is not None
    report(3, sweep_lines(agg, ("alg2_vs_greedy",)) + [alg2_floor_line(agg)])


def test_criterion_4_ratio_formula_identities():
    lines = check_ratio_formulas([Fraction(i, 1000) for i in range(1, 1000)])
    assert "(13/25 > 5/11 at rho=1/4)" in lines[-1][1]
    report(4, lines)


def test_criterion_5_schedule_bounds():
    report(5, check_schedule([Fraction(i, 100) for i in range(2, 98, 2)],
                             [Fraction(i, 100) for i in range(2, 50, 2)]))


def test_criterion_6_weight_scaling_transfer():
    report(6, check_reduction(rational_corpus(200), seed=20260810))


def test_criterion_7_remaining_optimum_sweep(exhaustive_sweep, random_sweep):
    report(7, sweep_lines(_combined(exhaustive_sweep, random_sweep),
                          ("prop1",)))


def test_criterion_8_semiregular_exactness():
    # within the oracle and at least rho = 1 of it: equal to it
    report(8, [_oracle_line(SolverSpec(SolverKind.SEMI_REGULAR),
                            semiregular_corpus(100), "closed form equals the "
                            "oracle on generated side-regular instances")])


def test_criterion_9_determinism(tmp_path):
    runs = []
    for _ in range(2):
        lines = []
        run_verification(small_n=5, out=lines.append)
        runs.append(lines)

    corpus = random_weighted_corpus(6, seed=123)
    solvers = [build_solver(SolverSpec(SolverKind.GREEDY)),
               build_solver(SolverSpec(SolverKind.ALG2,
                                       base=SolverSpec(SolverKind.GREEDY)))]
    csvs = []
    for _ in range(2):
        records = run_matrix(corpus, solvers, oracle=True)
        buf = io.StringIO()
        write_csv(records, buf)
        csvs.append("\n".join(",".join(line.split(",")[:-1])
                              for line in buf.getvalue().split("\n")))
    report(9, [status_line(runs[0] == runs[1], "verify output byte-stable"),
               status_line(csvs[0] == csvs[1],
                           "bench CSV stable apart from time_ms")])
