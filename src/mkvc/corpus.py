"""Shared corpora and the exhaustive small-graph sweep.

The sweep enumerates every edge subset of K(n_left,n_right) for all ordered
shapes with n_left + n_right <= max_n and every budget k < n, running the
solver battery against the exhaustive oracle and aggregating violation
counts.  Chunks are independent, so the work parallelizes over processes;
all aggregation is commutative, making results worker-count independent.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .analysis import prop1_sweep
from .generate import GenKind, GenSpec, generate
from .graph import BipartiteInstance, Side, covered_weight
from .solvers import (
    greedy_solver, solve_alg1, solve_alg2, solve_exact, solve_greedy,
    solve_top_side,
)

GREEDY_FLOOR = (63, 100)           # safe under-approximation of 1 - 1/e
ALG2_FLOOR = Fraction(67597, 100000)
CHUNK_GRAPHS = 2048                # graph masks per exhaustive-sweep task

# each violation count of a sweep aggregate and its `mkvc verify` line
SWEEP_CHECKS = {
    "feasibility": "every solver returns its full budget",
    "self_consistency": "reported values match recomputation",
    "dominance": "no solver exceeds the oracle",
    "greedy_floor": "greedy value >= 63/100 of optimum",
    "greedy_kn": "greedy value >= (k/n) of optimum",
    "alg2_vs_greedy": "amplifier never below greedy",
    "prop1": "remaining-optimum identity sweep",
}


def ordered_shapes(max_n: int):
    """All (n_left, n_right) with both sides nonempty and total <= max_n."""
    out = []
    for n in range(2, max_n + 1):
        for nl in range(1, n):
            out.append((nl, n - nl))
    return out


def unweighted_instance(nl: int, nr: int, gmask: int, k: int) -> BipartiteInstance:
    """Edge subset of K(nl,nr) selected by bitmask; edge id = i*nr + j."""
    edges = [(eid // nr, eid % nr, 1)
             for eid in range(nl * nr) if gmask >> eid & 1]
    return BipartiteInstance(nl, nr, edges, k)


def _merge_min(agg, key, frac):
    cur = agg.get(key)
    if frac is not None and (cur is None or frac < cur):
        agg[key] = frac


def new_aggregate() -> dict:
    return {
        "pairs": 0,
        **dict.fromkeys(SWEEP_CHECKS, 0),
        "greedy_min_ratio": None,
        "alg2_min_ratio": None,
        "examples": [],
    }


def merge_aggregates(total: dict, part: dict) -> dict:
    for key in ("pairs", *SWEEP_CHECKS):
        total[key] += part[key]
    _merge_min(total, "greedy_min_ratio", part["greedy_min_ratio"])
    _merge_min(total, "alg2_min_ratio", part["alg2_min_ratio"])
    total["examples"] = (total["examples"] + part["examples"])[:10]
    return total


def _note(agg, key, text):
    agg[key] += 1
    if len(agg["examples"]) < 10:
        agg["examples"].append(text)


def check_instance(inst: BipartiteInstance, agg: dict, tag: str) -> None:
    """Run the battery on one instance and fold results into the aggregate."""
    k = inst.k
    base = greedy_solver()
    opt_sol = solve_exact(inst)
    opt = opt_sol.covered_weight
    agg["pairs"] += 1

    g = solve_greedy(inst)
    battery = [("exact", opt_sol, k), ("greedy", g, k)]
    for side in (Side.LEFT, Side.RIGHT):
        battery.append((f"topside{side.name[0]}", solve_top_side(inst, side),
                        min(k, inst.side_size(side))))
    battery.append(("alg1", solve_alg1(
        inst, min(k, inst.n_left, (k + 1) // 2), base), k))
    a2 = solve_alg2(inst, 3, base)
    battery.append(("alg2", a2, k))

    for name, sol, want in battery:
        if len(sol.vertices) != want:
            _note(agg, "feasibility", f"{tag}: {name} returned "
                  f"{len(sol.vertices)} vertices, wanted {want}")
        if covered_weight(inst, sol.vertices) != sol.covered_weight:
            _note(agg, "self_consistency", f"{tag}: {name} value mismatch")
        if sol.covered_weight > opt:
            _note(agg, "dominance", f"{tag}: {name} {sol.covered_weight} > opt {opt}")

    if 100 * g.covered_weight < GREEDY_FLOOR[0] * opt:
        _note(agg, "greedy_floor", f"{tag}: greedy {g.covered_weight} vs opt {opt}")
    if inst.n * g.covered_weight < k * opt:
        _note(agg, "greedy_kn", f"{tag}: greedy below (k/n)*opt")
    if opt > 0:
        _merge_min(agg, "greedy_min_ratio", Fraction(g.covered_weight, opt))
    if a2.covered_weight < g.covered_weight:
        _note(agg, "alg2_vs_greedy", f"{tag}: alg2 {a2.covered_weight} "
              f"< greedy {g.covered_weight}")
    if opt > 0:
        _merge_min(agg, "alg2_min_ratio", Fraction(a2.covered_weight, opt))

    if not prop1_sweep(inst, opt_sol.vertices, opt):
        _note(agg, "prop1", f"{tag}: remaining-optimum check failed")


def sweep_chunk(args) -> dict:
    """Worker: all (graph, k) pairs for the graph masks of one shape, given
    as a range or a tuple of masks."""
    nl, nr, masks = args
    agg = new_aggregate()
    n = nl + nr
    for gmask in masks:
        inst1 = unweighted_instance(nl, nr, gmask, 1)
        for k in range(1, n):
            inst = inst1.with_budget(k)
            check_instance(inst, agg, f"u{nl}x{nr}/g{gmask}/k{k}")
    return agg


def sweep_tasks(max_n: int):
    """Chunked task list covering every unweighted graph with n <= max_n."""
    tasks = []
    for nl, nr in ordered_shapes(max_n):
        total = 1 << (nl * nr)
        for lo in range(0, total, CHUNK_GRAPHS):
            tasks.append((nl, nr, range(lo, min(lo + CHUNK_GRAPHS, total))))
    return tasks


def sampled_sweep_tasks(max_n: int, per_shape: int, seed: int):
    """Seeded graph samples per shape, one task per shape (used by the
    quick verification suite)."""
    rng = random.Random(seed)
    tasks = []
    for nl, nr in ordered_shapes(max_n):
        total = 1 << (nl * nr)
        if total <= per_shape:
            masks = range(total)
        else:
            masks = tuple(sorted(rng.sample(range(total), per_shape)))
        tasks.append((nl, nr, masks))
    return tasks


def check_chunk(named_instances) -> dict:
    """Worker for pre-built (id, instance) lists such as the random corpora."""
    agg = new_aggregate()
    for iid, inst in named_instances:
        check_instance(inst, agg, iid)
    return agg


# ---------------------------------------------------------------------------
# seeded corpora


_RANDOM_SHAPES = [(3, 3), (4, 4), (5, 5), (6, 6), (4, 8), (8, 4),
                  (2, 10), (10, 2), (5, 7), (7, 5), (3, 9), (6, 5)]
_PROBS = [0.25, 0.5, 0.75, 1.0]


def random_weighted_corpus(count: int = 1000, seed: int = 20260810):
    """Seeded random weighted instances, n <= 12, budgets spread over [1, n)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        nl, nr = _RANDOM_SHAPES[i % len(_RANDOM_SHAPES)]
        n = nl + nr
        spec = GenSpec(
            kind=GenKind.UNIFORM_RANDOM, n_left=nl, n_right=nr,
            edge_prob=_PROBS[i % len(_PROBS)], weight_min=1, weight_max=100,
            k=rng.randint(1, n - 1), seed=seed + i,
        )
        out.append((f"rand{i:04d}", generate(spec)))
    return out


def rational_corpus(count: int = 200, seed: int = 31415926):
    """Rational-weighted instances (n <= 10) for the weight-scaling path."""
    shapes = [(2, 2), (3, 3), (4, 4), (5, 5), (2, 6), (3, 5), (4, 6), (5, 4)]
    rng = random.Random(seed)
    out = []
    for i in range(count):
        nl, nr = shapes[i % len(shapes)]
        n = nl + nr
        spec = GenSpec(
            kind=GenKind.UNIFORM_RANDOM, n_left=nl, n_right=nr,
            edge_prob=0.5 + 0.5 * ((i // len(shapes)) % 2), weight_min=1,
            weight_max=50, k=rng.randint(1, n - 1), seed=seed + i,
            rational_weights=True,
        )
        out.append((f"rat{i:03d}", generate(spec)))
    return out


def semiregular_corpus(count: int = 100, seed: int = 27182818):
    """Side-regular unweighted instances with n <= 12."""
    feasible = []
    for nl in range(1, 12):
        for nr in range(1, 12 - nl + 1):
            if nl + nr > 12:
                continue
            for dl in range(0, nr + 1):
                if (nl * dl) % nr == 0 and nl * dl // nr <= nl:
                    feasible.append((nl, nr, dl, nl * dl // nr))
    rng = random.Random(seed)
    out = []
    for i in range(count):
        nl, nr, dl, dr = feasible[rng.randrange(len(feasible))]
        n = nl + nr
        spec = GenSpec(
            kind=GenKind.SEMI_REGULAR, n_left=nl, n_right=nr,
            d_left=dl, d_right=dr, k=rng.randint(1, n - 1), seed=seed + i,
        )
        out.append((f"semi{i:03d}", generate(spec)))
    return out
