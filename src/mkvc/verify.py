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
    ptas_schedule,
)
from .corpus import (
    ALG2_FLOOR, merge_aggregates, new_aggregate, rational_corpus,
    sampled_sweep_tasks, sweep_chunk,
)
from .generate import GenKind, GenSpec, generate
from .graph import Side, covered_weight, residual
from .reduction import ratio_transfer, scale_weights
from .solvers import (
    GREEDY_RHO, greedy_solver, solve_alg2, solve_exact, solve_greedy,
    solve_top_side,
)


def _grid(lo: int, hi: int, den: int):
    return [Fraction(i, den) for i in range(lo, hi + 1)]


def check_ratio_formulas() -> list:
    lines = []
    bad_improve = [r for r in _grid(1, 99, 100) if improve_ratio(r) <= r]
    lines.append(("ok" if not bad_improve else "FAIL",
                  "amplification strictly improves on (0,1)",
                  f"{99 - len(bad_improve)}/99 grid points"))
    bad_gap = [r for r in _grid(1, 99, 100)
               if improve_ratio(r) - r != improvement_gap(r)]
    lines.append(("ok" if not bad_gap else "FAIL",
                  "gap identity (1-r)^3/(1+(1-r)^2) exact",
                  f"{99 - len(bad_gap)}/99 grid points"))
    gaps = [improvement_gap(r) for r in _grid(1, 99, 100)]
    mono = all(a > b for a, b in zip(gaps, gaps[1:]))
    lines.append(("ok" if mono else "FAIL",
                  "gap strictly decreasing in rho", "99-point grid"))
    bad_claim_high = [r for r in _grid(75, 99, 100) if not minimum_claim_holds(r)]
    lines.append(("ok" if not bad_claim_high else "FAIL",
                  "amplified ratio minimal among case bounds on [3/4, 1)",
                  f"{25 - len(bad_claim_high)}/25 grid points"))
    low_holds = [r for r in _grid(1, 74, 100) if minimum_claim_holds(r)]
    lines.append(("note", "minimality of the amplified-ratio bound is "
                  "provably false below 3/4 (13/25 > 5/11 at rho=1/4); "
                  f"claim holds at {len(low_holds)}/74 low grid points", ""))
    return lines


def check_schedule() -> list:
    lines = []
    sched = ptas_schedule(GREEDY_RHO, Fraction(1, 10))
    ok = 262 <= sched.iterations <= 264
    lines.append(("ok" if ok else "FAIL",
                  "iteration bound at (greedy rho, eps=1/10)",
                  f"{sched.iterations} (expected 263 +- 1), "
                  f"convergence in {sched.convergence_count} levels"))
    one = ptas_schedule(Fraction(1, 2), Fraction(2, 5))
    lines.append(("ok" if one.convergence_count == 1 else "FAIL",
                  "rho=1/2 reaches 3/5 in one level",
                  f"{one.convergence_count} levels"))
    bad = []
    for rnum in range(5, 95, 5):
        for enum_ in range(5, 50, 5):
            rho0, eps = Fraction(rnum, 100), Fraction(enum_, 100)
            if not eps < 1 - rho0:
                continue
            s = ptas_schedule(rho0, eps)
            if s.convergence_count > s.iterations:
                bad.append((rho0, eps))
    lines.append(("ok" if not bad else "FAIL",
                  "convergence count within the closed-form bound",
                  f"admissible grid, violations: {bad[:3]}"))
    bad_inv = []
    for enum_ in range(5, 50, 5):
        eps = Fraction(enum_, 100)
        err = abs(improve_ratio(inverse_improve(eps)) - (1 - eps))
        if err > Fraction(1, 10 ** 12):
            bad_inv.append(eps)
    lines.append(("ok" if not bad_inv else "FAIL",
                  "fixed-point inversion accurate to 1e-12",
                  f"eps grid 0.05..0.45, violations: {bad_inv}"))
    return lines


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
        ("ok" if mono else "FAIL", "coverage monotone under inclusion", "30 instances"),
        ("ok" if sub else "FAIL", "coverage gains submodular", "30 instances"),
        ("ok" if topl else "FAIL", "single-side top-l equals brute force", "30 instances"),
        ("ok" if resid else "FAIL", "residual coverage additivity", "30 instances"),
    ]


def check_reduction(seed: int) -> list:
    lines = []
    ok_bounds = ok_ratio = ok_over = True
    rng = random.Random(seed ^ 0xCAFE)
    for iid, inst in rational_corpus(count=40, seed=seed):
        scaled, receipt = scale_weights(inst, 3)
        n3 = inst.n ** 3
        ws = [w for _, _, w in scaled.edges]
        if max(ws) != n3 or any(w > n3 for w in ws):
            ok_bounds = False
        w_max = receipt.w_max
        factor = Fraction(n3) / Fraction(w_max)
        eids = rng.sample(range(inst.m), rng.randint(1, inst.m))
        diff = (sum(scaled.edges[e][2] for e in eids)
                - factor * sum(Fraction(inst.edges[e][2]) for e in eids))
        if not 0 <= diff <= len(eids):
            ok_over = False
        got = solve_exact(scaled)
        orig_value = covered_weight(inst, got.vertices)
        opt = solve_exact(inst).covered_weight
        if orig_value < ratio_transfer(1, inst.n, 3) * opt:
            ok_ratio = False
    lines.append(("ok" if ok_bounds else "FAIL",
                  "scaled weights within [0, n^3], max attained", "40 instances"))
    lines.append(("ok" if ok_over else "FAIL",
                  "ceiling over-count within |F| on random edge sets", "40 instances"))
    lines.append(("ok" if ok_ratio else "FAIL",
                  "oracle on scaled weights transfers ratio 1 - 1/(4n)",
                  "40 instances"))
    return lines


def check_solvers(small_n: int, seed: int) -> list:
    agg = new_aggregate()
    for task in sampled_sweep_tasks(small_n, per_shape=24, seed=seed):
        merge_aggregates(agg, sweep_chunk(task))
    lines = []
    zero = ["feasibility", "self_consistency", "dominance",
            "greedy_floor", "greedy_kn", "alg2_vs_greedy", "prop1"]
    names = {
        "feasibility": "every solver returns its full budget",
        "self_consistency": "reported values match recomputation",
        "dominance": "no solver exceeds the oracle",
        "greedy_floor": "greedy value >= 63/100 of optimum",
        "greedy_kn": "greedy value >= (k/n) of optimum",
        "alg2_vs_greedy": "amplifier never below greedy",
        "prop1": "remaining-optimum identity sweep",
    }
    for key in zero:
        detail = f"{agg['pairs']} (instance, k) pairs"
        if agg[key]:
            detail += "; e.g. " + "; ".join(agg["examples"][:2])
        lines.append(("ok" if agg[key] == 0 else "FAIL", names[key], detail))
    floor_ok = agg["alg2_min_ratio"] is None or agg["alg2_min_ratio"] >= ALG2_FLOOR
    lines.append(("ok" if floor_ok else "FAIL",
                  "amplifier empirical ratio floor 0.67597",
                  f"min ratio {agg['alg2_min_ratio']}"))
    inst = _sample_instances(seed + 1, 1, max_n=7)[0]
    det = (solve_greedy(inst).vertices == solve_greedy(inst).vertices
           and solve_alg2(inst, 3, greedy_solver()).vertices
           == solve_alg2(inst, 3, greedy_solver()).vertices)
    lines.append(("ok" if det else "FAIL", "repeated runs identical", ""))
    return lines


def run_verification(small_n: int = 6, seed: int = 20260810, out=None) -> bool:
    """Run the whole suite; print one line per check; True iff no FAIL."""
    lines = []
    lines += check_ratio_formulas()
    lines += check_schedule()
    lines += check_graph_core(seed)
    lines += check_reduction(seed)
    lines += check_solvers(small_n, seed)
    ok = True
    for status, name, detail in lines:
        if status == "FAIL":
            ok = False
        text = f"{status:4s} {name}" + (f" [{detail}]" if detail else "")
        if out is not None:
            out(text)
    if out is not None:
        out("verification " + ("PASSED" if ok else "FAILED"))
    return ok
