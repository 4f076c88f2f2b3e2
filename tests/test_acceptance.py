"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 and 7 share two session-scoped sweeps: the exhaustive battery
over every unweighted bipartite graph with n <= 8 (every budget k < n) and
1000 seeded random weighted instances with n <= 12.  The exhaustive sweep
parallelizes over processes (MKVC_SWEEP_JOBS overrides the worker count)
and writes a progress line to stderr about every tenth of its chunks.
Run with `pytest -s tests/test_acceptance.py` to see every line.

Criterion 4's third clause checks whether the amplified ratio is the least
of the three case bounds.  With u = 1 - rho the two differences are exactly
u^2(1-2u)/((2+u)(1+u^2)) and u^2(1-4u)/((4+u)(1+u^2)), so the claim is true
exactly on [3/4, 1] and false below (at rho = 1/4: 13/25 > 5/11, 7/19).  The
clause asserts both identities on the grid, that the claim holds on every
grid point of [3/4, 1) with equality at 3/4, and that it fails on every grid
point below.  See the README's known-defect note.
"""

import io
import multiprocessing
import os
import sys
import time
import warnings
from fractions import Fraction

import pytest

from mkvc import (
    covered_weight, improve_ratio, improvement_gap, ptas_schedule,
    ratio_transfer, run_matrix, scale_weights, secondary_bounds, solve_exact,
    solve_ptas, solve_semiregular_exact, write_csv,
)
from mkvc.corpus import (
    ALG2_FLOOR, check_chunk, merge_aggregates, new_aggregate, ordered_shapes,
    random_weighted_corpus, rational_corpus, semiregular_corpus, sweep_chunk,
    sweep_tasks, unweighted_instance,
)
from mkvc.solvers import (
    GREEDY_RHO, SolverKind, SolverSpec, build_solver, greedy_solver,
)
from mkvc.verify import run_verification

WORKERS = int(os.environ.get("MKVC_SWEEP_JOBS", str(os.cpu_count() or 1)))


def report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _pool_run(tasks):
    agg = new_aggregate()
    total = len(tasks)
    step = max(1, total // 10)
    t0 = time.perf_counter()

    def merge(done, part):
        merge_aggregates(agg, part)
        if done % step == 0 or done == total:
            print(f"sweep: {done}/{total} chunks, {agg['pairs']} pairs, "
                  f"{time.perf_counter() - t0:.0f}s", file=sys.stderr,
                  flush=True)

    if WORKERS > 1:
        with multiprocessing.Pool(WORKERS) as pool:
            parts = pool.imap_unordered(sweep_chunk, tasks, chunksize=1)
            for done, part in enumerate(parts, 1):
                merge(done, part)
    else:
        for done, task in enumerate(tasks, 1):
            merge(done, sweep_chunk(task))
    return agg


@pytest.fixture(scope="session")
def exhaustive_sweep():
    t0 = time.perf_counter()
    agg = _pool_run(sweep_tasks(8, chunk_graphs=2048))
    agg["elapsed"] = time.perf_counter() - t0
    return agg


@pytest.fixture(scope="session")
def random_sweep():
    t0 = time.perf_counter()
    corpus = random_weighted_corpus(1000)
    chunks = [corpus[i:i + 50] for i in range(0, len(corpus), 50)]
    agg = new_aggregate()
    if WORKERS > 1:
        with multiprocessing.Pool(WORKERS) as pool:
            for part in pool.imap_unordered(check_chunk, chunks):
                merge_aggregates(agg, part)
    else:
        for chunk in chunks:
            merge_aggregates(agg, check_chunk(chunk))
    agg["elapsed"] = time.perf_counter() - t0
    return agg


def _combined(*aggs):
    total = new_aggregate()
    for agg in aggs:
        merge_aggregates(total, agg)
    return total


def test_criterion_1_feasibility_and_oracle_dominance(exhaustive_sweep,
                                                      random_sweep):
    agg = _combined(exhaustive_sweep, random_sweep)

    # the bootstrapped scheme is depth-limited by construction, so its
    # feasibility/dominance run uses the exhaustive n <= 5 graphs plus a
    # random sub-corpus at depth 2 (see the decisions notes on scope)
    t0 = time.perf_counter()
    ptas_bad = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for nl, nr in ordered_shapes(5):
            for gmask in range(1 << (nl * nr)):
                inst1 = unweighted_instance(nl, nr, gmask, 1)
                for k in range(1, nl + nr):
                    inst = inst1.with_budget(k)
                    sol = solve_ptas(inst, Fraction(1, 10), greedy_solver(), 2)
                    if (len(sol.vertices) != k or sol.covered_weight
                            > solve_exact(inst).covered_weight):
                        ptas_bad.append(f"u{nl}x{nr}/g{gmask}/k{k}")
        for iid, inst in random_weighted_corpus(30, seed=77):
            if inst.n > 9:
                inst = inst.with_budget(min(inst.k, 3))
            sol = solve_ptas(inst, Fraction(1, 10), greedy_solver(), 2)
            if (len(sol.vertices) != inst.k or sol.covered_weight
                    > solve_exact(inst).covered_weight):
                ptas_bad.append(iid)
    ptas_elapsed = time.perf_counter() - t0

    violations = (agg["feasibility"] + agg["dominance"]
                  + agg["self_consistency"] + len(ptas_bad))
    elapsed = (exhaustive_sweep["elapsed"] + random_sweep["elapsed"]
               + ptas_elapsed)
    detail = (f"{agg['pairs']} (instance, k) pairs + ptas sub-corpus, "
              f"{violations} violations, {elapsed:.0f}s wall on "
              f"{WORKERS} workers")
    if violations == 0 and os.cpu_count() and os.cpu_count() >= 8:
        ok = elapsed < 600
        detail += " (within the 10-minute budget)" if ok else " (over budget)"
    else:
        ok = violations == 0
    report(1, ok, detail + ("; " + "; ".join(agg["examples"][:3] + ptas_bad[:3])
                            if violations else ""))


def test_criterion_2_greedy_guarantees(exhaustive_sweep, random_sweep):
    agg = _combined(exhaustive_sweep, random_sweep)
    bad = agg["greedy_floor"] + agg["greedy_kn"]
    report(2, bad == 0,
           f"greedy >= 63/100*opt and >= (k/n)*opt over {agg['pairs']} pairs, "
           f"{bad} violations, min ratio {agg['greedy_min_ratio']}")


def test_criterion_3_amplifier_improvement(exhaustive_sweep, random_sweep):
    agg = _combined(exhaustive_sweep, random_sweep)
    min_ratio = agg["alg2_min_ratio"]
    ok = agg["alg2_vs_greedy"] == 0 and min_ratio >= ALG2_FLOOR
    report(3, ok,
           f"alg2(greedy) >= greedy on every instance "
           f"({agg['alg2_vs_greedy']} violations), min empirical ratio "
           f"{min_ratio} >= 67597/100000")


def test_criterion_4_ratio_formula_identities():
    grid = [Fraction(i, 100) for i in range(1, 100)]
    strict = [r for r in grid if not improve_ratio(r) > r]
    gap = [r for r in grid
           if improve_ratio(r) - r != (1 - r) ** 3 / (1 + (1 - r) ** 2)
           or improvement_gap(r) != (1 - r) ** 3 / (1 + (1 - r) ** 2)]
    # The differences have the signs of 1 - 2u and 1 - 4u, so the minimality
    # claim holds exactly on [3/4, 1] (see the module docstring).
    three_quarters = Fraction(3, 4)
    identity, high_bad, low_bad = [], [], []
    for r in grid:
        u = 1 - r
        amp = improve_ratio(r)
        b1, b2 = secondary_bounds(r)
        if (b1 - amp != u * u * (1 - 2 * u) / ((2 + u) * (1 + u * u))
                or b2 - amp != u * u * (1 - 4 * u) / ((4 + u) * (1 + u * u))):
            identity.append(r)
        if r >= three_quarters and not (amp <= b1 and amp <= b2):
            high_bad.append(r)
        if r < three_quarters and amp <= b1 and amp <= b2:
            low_bad.append(r)
    n_high = sum(1 for r in grid if r >= three_quarters)
    n_low = len(grid) - n_high
    tight = improve_ratio(three_quarters) == secondary_bounds(three_quarters)[1]
    quarter = Fraction(1, 4)
    ce_amp, (ce_b1, ce_b2) = improve_ratio(quarter), secondary_bounds(quarter)
    counter = (ce_amp, ce_b1, ce_b2) == (Fraction(13, 25), Fraction(5, 11),
                                         Fraction(7, 19))
    ok = (not strict and not gap and not identity and not high_bad
          and not low_bad and tight and counter)
    report(4, ok,
           f"99-point exact grid: strict improvement ({len(strict)} bad), "
           f"gap identity ({len(gap)} bad), case-bound difference identities "
           f"({len(identity)} bad), minimality vs case bounds "
           f"{n_high - len(high_bad)}/{n_high} on [3/4,1) with equality to "
           f"(1+3rho)/(5-rho) at 3/4: {tight}, fails exactly on "
           f"{n_low - len(low_bad)}/{n_low} below; counterexample rho=1/4: "
           f"improve={ce_amp} > case bounds {ce_b1}, {ce_b2}")


def test_criterion_5_schedule_bounds():
    sched = ptas_schedule(GREEDY_RHO, Fraction(1, 10))
    ok_263 = 262 <= sched.iterations <= 264
    one = ptas_schedule(Fraction(1, 2), Fraction(2, 5))
    ok_one = (one.convergence_count == 1
              and one.levels[0] >= Fraction(3, 5) - Fraction(1, 10 ** 38))
    bad_grid = []
    for rnum in range(2, 98, 2):
        for enum_ in range(2, 50, 2):
            rho0, eps = Fraction(rnum, 100), Fraction(enum_, 100)
            if not eps < 1 - rho0:
                continue
            s = ptas_schedule(rho0, eps)
            if s.convergence_count > s.iterations:
                bad_grid.append((rho0, eps))
    ok = ok_263 and ok_one and not bad_grid
    report(5, ok,
           f"iteration bound {sched.iterations} (263 +- 1), one-step case "
           f"{one.convergence_count} level, convergence <= bound on "
           f"{len(bad_grid)}-violation admissible grid")


def test_criterion_6_weight_scaling_transfer():
    corpus = rational_corpus(200)
    bad = []
    for iid, inst in corpus:
        scaled, _ = scale_weights(inst, 3)
        ws = [w for _, _, w in scaled.edges]
        bound = inst.n ** 3
        if max(ws) != bound or any(w > bound for w in ws):
            bad.append(f"{iid}: weight bound")
            continue
        chosen = solve_exact(scaled).vertices
        value = covered_weight(inst, chosen)
        opt = solve_exact(inst).covered_weight
        if value < (1 - Fraction(1, 4 * inst.n)) * opt:
            bad.append(f"{iid}: transfer ratio")
        assert ratio_transfer(1, inst.n, 3) == 1 - Fraction(1, 4 * inst.n)
    report(6, not bad,
           f"200 rational-weight instances, scaled bound n^3 attained, "
           f"oracle-on-scaled >= (1 - 1/(4n))*opt on original; "
           f"{len(bad)} violations" + ("; " + "; ".join(bad[:3]) if bad else ""))


def test_criterion_7_remaining_optimum_sweep(exhaustive_sweep):
    report(7, exhaustive_sweep["prop1"] == 0,
           f"subset identity checks over every X of the oracle optimum, "
           f"all graphs n <= 8: {exhaustive_sweep['prop1']} failures in "
           f"{exhaustive_sweep['pairs']} pairs")


def test_criterion_8_semiregular_exactness():
    bad = []
    corpus = semiregular_corpus(100)
    for iid, inst in corpus:
        closed = solve_semiregular_exact(inst)
        opt = solve_exact(inst).covered_weight
        if closed.covered_weight != opt or len(closed.vertices) != inst.k:
            bad.append(iid)
    report(8, not bad,
           f"closed form equals the oracle on {len(corpus)} generated "
           f"side-regular instances; {len(bad)} mismatches")


def test_criterion_9_determinism(tmp_path):
    runs = []
    for _ in range(2):
        lines = []
        run_verification(small_n=5, out=lines.append)
        runs.append(lines)
    verify_stable = runs[0] == runs[1]

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
    bench_stable = csvs[0] == csvs[1]
    report(9, verify_stable and bench_stable,
           f"verify output byte-stable: {verify_stable}; bench CSV stable "
           f"apart from time_ms: {bench_stable}")
