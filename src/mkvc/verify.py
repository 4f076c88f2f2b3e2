"""Deterministic self-verification suite behind `mkvc verify`.

Each check prints one `ok`/`FAIL` line (plus optional `note` lines); the
suite passes when no check fails.  Output contains no timings, so repeated
runs with the same flags are byte-identical.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .analysis import (
    improve_ratio, improvement_gap, inverse_improve, minimum_claim_holds,
    ptas_schedule, secondary_bounds,
)
from .corpus import (
    ALG2_FLOOR, SWEEP_CHECKS, merge_aggregates, new_aggregate,
    rational_corpus, sampled_sweep_tasks, sweep_chunk,
)
from .generate import GenKind, GenSpec, generate
from .graph import Side, covered_weight, residual
from .reduction import ratio_transfer, scale_weights
from .solvers import (
    GREEDY_RHO, greedy_solver, solve_alg2, solve_exact, solve_greedy,
    solve_top_side,
)


def status_line(ok: bool, name: str, detail: str = "") -> tuple:
    return ("ok" if ok else "FAIL", name, detail)


def _case_gaps_hold(r) -> bool:
    # with u = 1 - rho, the case bounds exceed the amplified ratio by these
    u, amp = 1 - r, improve_ratio(r)
    b1, b2 = secondary_bounds(r)
    return (b1 - amp == u * u * (1 - 2 * u) / ((2 + u) * (1 + u * u))
            and b2 - amp == u * u * (1 - 4 * u) / ((4 + u) * (1 + u * u)))


def check_ratio_formulas(grid) -> list:
    """The amplification formula and its case bounds on an ascending grid
    of rho in (0, 1), in exact arithmetic.  The case-bound differences
    (`_case_gaps_hold`) have the signs of 1 - 2u and 1 - 4u, so the
    amplified ratio is the least case bound exactly on [3/4, 1]; the
    minimality line checks the differences, the claim on [3/4, 1), its
    failure below, equality at 3/4 and the counterexample rho = 1/4."""
    n = len(grid)
    bad_improve = [r for r in grid if improve_ratio(r) <= r]
    bad_gap = [r for r in grid if not improve_ratio(r) - r
               == improvement_gap(r) == (1 - r) ** 3 / (1 + (1 - r) ** 2)]
    gaps = [improvement_gap(r) for r in grid]
    high = [r for r in grid if r >= Fraction(3, 4)]
    low = [r for r in grid if r < Fraction(3, 4)]
    bad_high = [r for r in high if not minimum_claim_holds(r)]
    low_holds = [r for r in low if minimum_claim_holds(r)]
    amp, (b1, b2) = improve_ratio(Fraction(1, 4)), secondary_bounds(
        Fraction(1, 4))
    minimal = (not bad_high and not low_holds and amp > b1 and amp > b2
               and all(_case_gaps_hold(r) for r in grid)
               and improve_ratio(Fraction(3, 4))
               == secondary_bounds(Fraction(3, 4))[1])
    return [
        status_line(not bad_improve, "amplification strictly improves on "
                    "(0,1)", f"{n - len(bad_improve)}/{n} grid points"),
        status_line(not bad_gap, "gap identity (1-r)^3/(1+(1-r)^2) exact",
                    f"{n - len(bad_gap)}/{n} grid points"),
        status_line(all(a > b for a, b in zip(gaps, gaps[1:])),
                    "gap strictly decreasing in rho", f"{n}-point grid"),
        status_line(minimal, "amplified ratio minimal among case bounds on "
                    "[3/4, 1)", f"{len(high) - len(bad_high)}/{len(high)} "
                    "grid points"),
        ("note", "minimality of the amplified-ratio bound is provably false "
         f"below 3/4 ({amp} > {b1} at rho=1/4); claim holds at "
         f"{len(low_holds)}/{len(low)} low grid points", ""),
    ]


def check_schedule(rhos, epsilons) -> list:
    """The ptas schedule: the iteration bound at (greedy rho, eps = 1/10),
    rho = 1/2 reaching 3/5 in one level, the convergence count within the
    closed-form bound on every admissible (rho0, eps) of rhos x epsilons,
    and the fixed-point inversion at every eps (each below 1/2)."""
    sched = ptas_schedule(GREEDY_RHO, Fraction(1, 10))
    one = ptas_schedule(Fraction(1, 2), Fraction(2, 5))
    bad = []
    for rho0 in rhos:
        for eps in epsilons:
            if eps < 1 - rho0:
                s = ptas_schedule(rho0, eps)
                if s.convergence_count > s.iterations:
                    bad.append((rho0, eps))
    bad_inv = [eps for eps in epsilons
               if abs(improve_ratio(inverse_improve(eps)) - (1 - eps))
               > Fraction(1, 10 ** 12)]
    return [
        status_line(262 <= sched.iterations <= 264,
                    "iteration bound at (greedy rho, eps=1/10)",
                    f"{sched.iterations} (expected 263 +- 1), "
                    f"convergence in {sched.convergence_count} levels"),
        status_line(one.convergence_count == 1 and one.levels[0]
                    >= Fraction(3, 5) - Fraction(1, 10 ** 38),
                    "rho=1/2 reaches 3/5 in one level",
                    f"{one.convergence_count} levels"),
        status_line(not bad, "convergence count within the closed-form "
                    "bound", f"admissible grid, violations: {bad[:3]}"),
        status_line(not bad_inv, "fixed-point inversion accurate to 1e-12",
                    f"eps grid {float(epsilons[0])}..{float(epsilons[-1])}, "
                    f"violations: {bad_inv}"),
    ]


def _sample_instances(seed: int, count: int, max_n: int = 8):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        nl = rng.randint(1, max_n - 1)
        nr = rng.randint(1, max_n - nl)
        n = nl + nr
        spec = GenSpec(kind=GenKind.UNIFORM_RANDOM, n_left=nl, n_right=nr,
                       edge_prob=rng.choice([0.3, 0.5, 0.8]),
                       weight_min=1, weight_max=20,
                       k=rng.randint(1, n - 1), seed=seed + i)
        out.append(generate(spec))
    return out


def check_graph_core(seed: int) -> list:
    rng = random.Random(seed ^ 0x5EED)
    insts = _sample_instances(seed, 30)
    mono = sub = topl = resid = True
    for inst in insts:
        refs = inst.all_refs()
        small = rng.sample(refs, rng.randint(0, len(refs)))
        bigger = set(small) | set(rng.sample(refs, rng.randint(0, len(refs))))
        if covered_weight(inst, small) > covered_weight(inst, bigger):
            mono = False
        outside = [r for r in refs if r not in bigger]
        if outside:
            v = rng.choice(outside)
            gain_small = (covered_weight(inst, set(small) | {v})
                          - covered_weight(inst, small))
            gain_big = (covered_weight(inst, bigger | {v})
                        - covered_weight(inst, bigger))
            if gain_small < gain_big:
                sub = False
        side = rng.choice([Side.LEFT, Side.RIGHT])
        l = rng.randint(0, inst.side_size(side))
        got = solve_top_side(inst.with_budget(l), side).vertices
        best = max(
            (covered_weight(inst, c)
             for c in combinations([r for r in refs if r.side == side], l)),
            default=0)
        if covered_weight(inst, got) != best:
            topl = False
        s_set = set(rng.sample(refs, rng.randint(0, max(0, inst.n - 2))))
        rest = [r for r in refs if r not in s_set]
        t_set = set(rng.sample(rest, rng.randint(0, max(0, len(rest) - 1))))
        res = residual(inst, s_set, max(0, inst.n - len(s_set) - 1))
        lhs = covered_weight(inst, s_set | t_set)
        rhs = (covered_weight(inst, s_set)
               + covered_weight(res.instance, res.project(t_set)))
        if lhs != rhs:
            resid = False
    return [
        status_line(mono, "coverage monotone under inclusion", "30 instances"),
        status_line(sub, "coverage gains submodular", "30 instances"),
        status_line(topl, "single-side top-l equals brute force",
                    "30 instances"),
        status_line(resid, "residual coverage additivity", "30 instances"),
    ]


def check_reduction(corpus, seed: int) -> list:
    """Weight scaling at ell = 3 on (id, instance) pairs: the scaled weights
    lie in [0, n^3] with the maximum attained, the ceiling over-counts a
    seeded random edge set F by at most |F|, and the oracle on the scaled
    weights reaches ratio_transfer(1, n, 3) = 1 - 1/(4n) of the optimum."""
    ok_bounds = ok_ratio = ok_over = True
    rng = random.Random(seed ^ 0xCAFE)
    for iid, inst in corpus:
        scaled, receipt = scale_weights(inst, 3)
        n3 = inst.n ** 3
        ws = [w for _, _, w in scaled.edges]
        if max(ws) != n3 or any(w > n3 for w in ws):
            ok_bounds = False
        factor = Fraction(n3) / Fraction(receipt.w_max)
        eids = rng.sample(range(inst.m), rng.randint(1, inst.m))
        diff = (sum(scaled.edges[e][2] for e in eids)
                - factor * sum(Fraction(inst.edges[e][2]) for e in eids))
        if not 0 <= diff <= len(eids):
            ok_over = False
        transfer = ratio_transfer(1, inst.n, 3)
        orig_value = covered_weight(inst, solve_exact(scaled).vertices)
        if (transfer != 1 - Fraction(1, 4 * inst.n)
                or orig_value < transfer * solve_exact(inst).covered_weight):
            ok_ratio = False
    count = f"{len(corpus)} instances"
    return [
        status_line(ok_bounds, "scaled weights within [0, n^3], max "
                    "attained", count),
        status_line(ok_over, "ceiling over-count within |F| on random edge "
                    "sets", count),
        status_line(ok_ratio, "oracle on scaled weights transfers ratio "
                    "1 - 1/(4n)", count),
    ]


def sweep_lines(agg: dict, keys=tuple(SWEEP_CHECKS)) -> list:
    """One line per violation count of a sweep aggregate."""
    detail = f"{agg['pairs']} (instance, k) pairs"
    examples = "; e.g. " + "; ".join(agg["examples"][:2])
    return [status_line(not agg[key], SWEEP_CHECKS[key],
                        detail + (examples if agg[key] else ""))
            for key in keys]


def alg2_floor_line(agg: dict) -> tuple:
    """The amplifier's least value/optimum ratio in a sweep aggregate
    against its empirical floor."""
    ratio = agg["alg2_min_ratio"]
    return status_line(ratio is None or ratio >= ALG2_FLOOR,
                       "amplifier empirical ratio floor 0.67597",
                       f"min ratio {ratio}")


def check_solvers(small_n: int, seed: int) -> list:
    agg = new_aggregate()
    for task in sampled_sweep_tasks(small_n, per_shape=24, seed=seed):
        merge_aggregates(agg, sweep_chunk(task))
    lines = sweep_lines(agg) + [alg2_floor_line(agg)]
    inst = _sample_instances(seed + 1, 1, max_n=7)[0]
    det = (solve_greedy(inst).vertices == solve_greedy(inst).vertices
           and solve_alg2(inst, 3, greedy_solver()).vertices
           == solve_alg2(inst, 3, greedy_solver()).vertices)
    return lines + [status_line(det, "repeated runs identical")]


def format_line(line) -> str:
    status, name, detail = line
    return f"{status:4s} {name}" + (f" [{detail}]" if detail else "")


def run_verification(small_n: int = 6, seed: int = 20260810, out=None) -> bool:
    """Run the whole suite; print one line per check; True iff no FAIL."""
    def hundredths(*span):
        return [Fraction(i, 100) for i in range(*span)]

    lines = (check_ratio_formulas(hundredths(1, 100))
             + check_schedule(hundredths(5, 95, 5), hundredths(5, 50, 5))
             + check_graph_core(seed)
             + check_reduction(rational_corpus(count=40, seed=seed), seed)
             + check_solvers(small_n, seed))
    ok = all(line[0] != "FAIL" for line in lines)
    if out is not None:
        for line in lines:
            out(format_line(line))
        out("verification " + ("PASSED" if ok else "FAILED"))
    return ok
