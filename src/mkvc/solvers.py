"""All solvers: greedy over both sides, single-side top-k, the
prefix-removal pass (alg1), the candidate-pool ratio amplifier (alg2), the
bootstrapped approximation scheme (ptas), the exhaustive oracle, the
semi-regular closed-form solver, and the budget-split guessing wrapper.

Solvers share an internal "masked" calling convention: work directly on the
parent instance with a bitmask of banned vertices and a bitmask of already
covered edges.  This avoids rebuilding residual instances inside the
enumeration loops of alg2; because deletion preserves per-side index order,
a masked run and a run on the corresponding residual instance pick
identical vertices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb

from .analysis import improve_ratio, ptas_schedule
from .errors import MkvcError
from .graph import (
    BipartiteInstance, CoverSolution, Side,
    covered_weight, residual, top_l_one_side,
)

ORACLE_BUDGET = 2_000_000

# exact rational lower bound of 1 - 1/e = 0.6321205..., truncated downward
GREEDY_RHO = Fraction(632_120, 1_000_000)

# a single-side top-k run only bounds the optimum share of that side; the
# 1/2 floor presumes both sides are pooled (see guess_split_runner)
TOP_SIDE_RHO = Fraction(1, 2)


class SolverKind(str, Enum):
    GREEDY = "greedy"
    TOP_SIDE = "topside"
    ALG1 = "alg1"
    ALG2 = "alg2"
    PTAS = "ptas"
    EXACT = "exact"
    SEMI_REGULAR = "semiregular"


@dataclass(frozen=True)
class SolverSpec:
    """Which algorithm to run, with its parameters."""

    kind: SolverKind
    base: "SolverSpec | None" = None
    c: int = 3
    x_size: int = 0
    side: Side = Side.LEFT
    epsilon: Fraction | None = None
    max_depth: int = 2
    oracle_budget: int = ORACLE_BUDGET

    def label(self) -> str:
        k = self.kind.value
        if self.kind == SolverKind.TOP_SIDE:
            return f"topside[{'L' if self.side == Side.LEFT else 'R'}]"
        if self.kind == SolverKind.ALG1:
            side = 'L' if self.side == Side.LEFT else 'R'
            return f"alg1[x={self.x_size},{side}]({self.base.label()})"
        if self.kind == SolverKind.ALG2:
            return f"alg2[c={self.c}]({self.base.label()})"
        if self.kind == SolverKind.PTAS:
            return f"ptas[eps={self.epsilon},d<={self.max_depth}]({self.base.label()})"
        return k


# ---------------------------------------------------------------------------
# masked primitives
#
# Masked runs return (vertex mask, newly covered weight, absolute edge-cover
# mask), where the cover mask includes the edges that were already covered
# on entry; carrying it avoids re-deriving covers in the candidate loops.


def _mask_ids(mask: int):
    while mask:
        low = mask & (-mask)
        yield low.bit_length() - 1
        mask ^= low


def _cover_of_mask(inst, vmask: int) -> int:
    inc = inst._inc
    out = 0
    while vmask:
        low = vmask & (-vmask)
        out |= inc[low.bit_length() - 1]
        vmask ^= low
    return out


def _pad_mask(inst, vmask: int, banned: int, count: int, cover: int):
    """Top up a vertex mask to `count` vertices with the lexicographically
    first allowed ones (zero marginal coverage is fine)."""
    need = count - vmask.bit_count()
    inc = inst._inc
    v = 0
    blocked = vmask | banned
    while need > 0:
        if not blocked >> v & 1:
            vmask |= 1 << v
            cover |= inc[v]
            need -= 1
        v += 1
    return vmask, cover


def _lex_key(vmask: int) -> tuple:
    return tuple(_mask_ids(vmask))


def _greedy_masked(inst, banned: int, covered: int, budget: int):
    if budget > inst.n - banned.bit_count():
        raise MkvcError("greedy budget exceeds available vertices")
    inc = inst._inc
    edges = inst.edges
    n_left = inst.n_left
    rem = ~covered
    # gains[v] is v's uncovered incident weight.  Equal non-zero weights
    # count edges instead, a positive rescaling; weight 0 must take the
    # weighted branch so equal (zero) gains keep the lex-first tie rule
    unit = inst._uniform or None
    if unit is not None:
        gains = [(m & rem).bit_count() for m in inc]
    else:
        gains = [0] * inst.n
        uncovered = format(rem & inst._full_mask, "b")[::-1]  # edge 0 first
        for (l, r, w), bit in zip(edges, uncovered):
            if bit == "1":
                gains[l] += w
                gains[n_left + r] += w
    # banned and chosen vertices sit below every real gain; a banned
    # endpoint of a newly covered edge only sinks further
    while banned:
        low = banned & -banned
        gains[low.bit_length() - 1] = -1
        banned ^= low
    chosen = 0
    total = 0
    last = budget - 1
    for step in range(budget):
        # first maximum: Left before Right, then by index
        g = max(gains)
        v = gains.index(g)
        gains[v] = -1
        chosen |= 1 << v
        total += g
        new = inc[v] & rem
        rem ^= new
        if step == last:
            break
        # the other endpoint of edge (l, r) is l + (n_left + r) - v
        shift = n_left - v
        while new:
            low = new & -new
            l, r, w = edges[low.bit_length() - 1]
            gains[l + r + shift] -= 1 if unit is not None else w
            new ^= low
    if unit is not None:
        total *= unit
    return chosen, total, ~rem


def _exact_masked(inst, banned: int, covered: int, budget: int,
                  enum_budget: int = ORACLE_BUDGET):
    allowed = [v for v in range(inst.n) if not banned >> v & 1]
    if budget > len(allowed):
        raise MkvcError("budget exceeds available vertices")
    if comb(len(allowed), budget) > enum_budget:
        raise MkvcError("instance too large for oracle")
    inc = inst._inc
    not_cov = ~covered
    mask_weight = inst.mask_weight
    best_w = -1
    best_sub = ()
    best_em = 0
    for sub in combinations(allowed, budget):
        em = 0
        for v in sub:
            em |= inc[v]
        w = mask_weight(em & not_cov)
        if w > best_w:
            best_w = w
            best_sub = sub
            best_em = em
    vm = 0
    for v in best_sub:
        vm |= 1 << v
    return vm, best_w, covered | best_em


def _top_side_masked(inst, side: Side, l: int, banned: int, covered: int):
    ids = (range(inst.n_left) if side == Side.LEFT
           else range(inst.n_left, inst.n))
    inc = inst._inc
    not_cov = ~covered
    mask_weight = inst.mask_weight
    ranked = sorted(
        (v for v in ids if not banned >> v & 1),
        key=lambda v: (-mask_weight(inc[v] & not_cov), v))
    vm = 0
    em = 0
    for v in ranked[:l]:
        vm |= 1 << v
        em |= inc[v]
    return vm, mask_weight(em & not_cov), covered | em


def _best_candidate(inst, candidates, covered: int):
    """Maximum newly-covered weight; ties to the lexicographically smallest
    vertex set, so the result is independent of candidate order."""
    not_cov = ~covered
    mask_weight = inst.mask_weight
    best = None
    best_cover = 0
    best_w = None
    best_key = None
    for vm, cover in candidates:
        w = mask_weight(cover & not_cov)
        if best is None or w > best_w:
            best, best_cover, best_w, best_key = vm, cover, w, None
        elif w == best_w:
            if best_key is None:
                best_key = _lex_key(best)
            key = _lex_key(vm)
            if key < best_key:
                best, best_cover, best_key = vm, cover, key
    return best, best_w, best_cover


# ---------------------------------------------------------------------------
# rated solvers


@dataclass(frozen=True)
class RatedSolver:
    """A runnable solver together with the approximation guarantee it
    carries.  `rho` is an exact rational lower bound; for kinds without a
    universal constant it is the documented nominal value."""

    spec: SolverSpec
    rho: Fraction
    base: "RatedSolver | None" = field(default=None, repr=False)

    def label(self) -> str:
        return self.spec.label()

    def run(self, inst: BipartiteInstance) -> CoverSolution:
        if self.spec.kind == SolverKind.GREEDY:
            return solve_greedy(inst)
        if self.spec.kind == SolverKind.TOP_SIDE:
            return solve_top_side(inst, self.spec.side)
        if self.spec.kind == SolverKind.ALG1:
            return solve_alg1(inst, self.spec.x_size, self.base, self.spec.side)
        if self.spec.kind == SolverKind.ALG2:
            return solve_alg2(inst, self.spec.c, self.base)
        if self.spec.kind == SolverKind.PTAS:
            return solve_ptas(inst, self.spec.epsilon, self.base,
                              self.spec.max_depth, c=self.spec.c)
        if self.spec.kind == SolverKind.EXACT:
            return solve_exact(inst, self.spec.oracle_budget)
        if self.spec.kind == SolverKind.SEMI_REGULAR:
            return solve_semiregular_exact(inst)
        raise MkvcError(f"unknown solver kind {self.spec.kind}")

    def run_masked(self, inst, banned: int, covered: int, budget: int):
        kind = self.spec.kind
        if kind == SolverKind.GREEDY:
            return _greedy_masked(inst, banned, covered, budget)
        if kind == SolverKind.EXACT:
            return _exact_masked(inst, banned, covered, budget,
                                 self.spec.oracle_budget)
        if kind == SolverKind.TOP_SIDE:
            return _top_side_masked(inst, self.spec.side, budget, banned, covered)
        if kind == SolverKind.ALG2:
            return _alg2_masked(inst, self.spec.c, self.base,
                                banned, covered, budget)
        if kind == SolverKind.ALG1:
            return _alg1_masked(inst, self.spec.x_size, self.base,
                                self.spec.side, banned, covered, budget)
        if kind == SolverKind.PTAS:
            chain = _ptas_chain(self.spec.epsilon, self.base,
                                self.spec.max_depth, self.spec.c)[0]
            return chain.run_masked(inst, banned, covered, budget)
        # remaining kinds run on an explicitly built residual instance
        gone = [inst.ref_of(v) for v in _mask_ids(banned)]
        res = residual(inst, gone, budget)
        sol = self.run(res.instance)
        vm = 0
        for ref in res.lift(sol.vertices):
            vm |= 1 << inst.vertex_id(ref)
        cover = covered | _cover_of_mask(inst, vm)
        return vm, inst.mask_weight(cover & ~covered), cover


def greedy_solver() -> RatedSolver:
    return RatedSolver(SolverSpec(SolverKind.GREEDY), GREEDY_RHO)


def exact_solver(oracle_budget: int = ORACLE_BUDGET) -> RatedSolver:
    return RatedSolver(SolverSpec(SolverKind.EXACT, oracle_budget=oracle_budget),
                       Fraction(1))


def build_solver(spec: SolverSpec) -> RatedSolver:
    """Resolve a spec tree into a runnable RatedSolver with its guarantee."""
    base = build_solver(spec.base) if spec.base is not None else None
    kind = spec.kind
    if kind == SolverKind.GREEDY:
        rho = GREEDY_RHO
    elif kind == SolverKind.EXACT or kind == SolverKind.SEMI_REGULAR:
        rho = Fraction(1)
    elif kind == SolverKind.TOP_SIDE:
        rho = TOP_SIDE_RHO
    elif kind == SolverKind.ALG1:
        if base is None:
            raise MkvcError("alg1 needs a base solver")
        rho = base.rho
    elif kind == SolverKind.ALG2:
        if base is None:
            raise MkvcError("alg2 needs a base solver")
        if spec.c <= 2:
            raise MkvcError("c must be > 2")
        rho = improve_ratio(base.rho)
    elif kind == SolverKind.PTAS:
        if base is None:
            raise MkvcError("ptas needs a base solver")
        if spec.epsilon is None:
            raise MkvcError("ptas needs epsilon")
        rho = 1 - Fraction(spec.epsilon)
    else:
        raise MkvcError(f"unknown solver kind {kind}")
    return RatedSolver(spec=spec, rho=rho, base=base)


# ---------------------------------------------------------------------------
# public solvers


def _mask_solution(inst, vmask: int, meta: dict | None = None) -> CoverSolution:
    verts = frozenset(inst.ref_of(v) for v in _mask_ids(vmask))
    value = inst.mask_weight(_cover_of_mask(inst, vmask))
    return CoverSolution(vertices=verts, covered_weight=value,
                         meta=meta or {})


def solve_greedy(inst: BipartiteInstance) -> CoverSolution:
    """k rounds, each adding the vertex (either side) of maximum residual
    covered weight; ties break Left-first then by index.  Always returns
    exactly k vertices, padding with zero-gain picks once everything is
    covered."""
    vm, _, _ = _greedy_masked(inst, 0, 0, inst.k)
    return _mask_solution(inst, vm)


def solve_top_side(inst: BipartiteInstance, side: Side) -> CoverSolution:
    """The min(k, side size) vertices of one side with the largest initial
    capacities.  The budget is deliberately not spilled onto the other side;
    pool both sides via guess_split_runner for a general-budget solver."""
    refs = top_l_one_side(inst, side, min(inst.k, inst.side_size(side)))
    return CoverSolution(vertices=refs,
                         covered_weight=covered_weight(inst, refs))


def _alg1_masked(inst, x_size, base, side, banned, covered, budget):
    take = min(x_size, budget)
    xm, _, cov_x = _top_side_masked(inst, side, take, banned, covered)
    bm, _, cov_b = base.run_masked(inst, banned | xm, cov_x,
                                   budget - xm.bit_count())
    vm, cover = _pad_mask(inst, xm | bm, banned, budget, cov_b)
    return vm, inst.mask_weight(cover & ~covered), cover


def solve_alg1(inst: BipartiteInstance, x_size: int, base: RatedSolver,
               side: Side = Side.LEFT) -> CoverSolution:
    """Prefix-removal pass: take the top-x_size vertices of one side, delete
    them with their edges, run the base solver with budget k - x_size on the
    residual, and return the union (recomputed on the original weights)."""
    if x_size < 0 or x_size > inst.k:
        raise MkvcError(f"x_size={x_size} out of range [0, k={inst.k}]")
    prefix = top_l_one_side(inst, side, x_size)
    res = residual(inst, prefix, inst.k - len(prefix))
    sub = base.run(res.instance)
    chosen = set(prefix) | set(res.lift(sub.vertices))
    vm = 0
    for ref in chosen:
        vm |= 1 << inst.vertex_id(ref)
    vm, _ = _pad_mask(inst, vm, 0, inst.k, 0)
    return _mask_solution(inst, vm)


def _alg2_masked(inst, c, base, banned, covered, budget):
    if c <= 2:
        raise MkvcError("c must be > 2")
    inc = inst._inc
    candidates = []
    seen = set()

    def add(vm: int, cover: int):
        vm, cover = _pad_mask(inst, vm, banned, budget, cover)
        if vm not in seen:
            seen.add(vm)
            candidates.append((vm, cover))

    # direct base run at full budget: makes "alg2 >= base" structural
    bm, _, cov_b = base.run_masked(inst, banned, covered, budget)
    add(bm, cov_b)

    # base at reduced budget, completed with the best single-side block;
    # both sides are tried and both completions enter the pool
    for l in range(budget - 1, c - 1, -1):
        bm, _, cov_b = base.run_masked(inst, banned, covered, budget - l)
        for side in (Side.LEFT, Side.RIGHT):
            tm, _, cov_t = _top_side_masked(inst, side, l, banned | bm, cov_b)
            add(bm | tm, cov_t)

    # every small vertex set, removed with its covered edges, base on the rest
    allowed = [v for v in range(inst.n) if not banned >> v & 1]
    for l in range(min(c, budget), 0, -1):
        for sub in combinations(allowed, l):
            sm = 0
            cm = covered
            for v in sub:
                sm |= 1 << v
                cm |= inc[v]
            if budget > l:
                bm, _, cov_b = base.run_masked(inst, banned | sm, cm, budget - l)
                add(sm | bm, cov_b)
            else:
                add(sm, cm)

    return _best_candidate(inst, candidates, covered)


def solve_alg2(inst: BipartiteInstance, c: int, base: RatedSolver) -> CoverSolution:
    """Candidate-pool amplification of a base solver.

    Pools three candidate families and returns the best by covered weight:
    the base run itself; base runs at budget k-l completed with the top-l
    block of either side (l from k-1 down to c); and, for every vertex set C
    of size at most c, C plus a base run on the graph with C and its covered
    edges deleted.  Carries guarantee improve_ratio(base.rho).
    """
    vm, _, _ = _alg2_masked(inst, c, base, 0, 0, inst.k)
    return _mask_solution(inst, vm)


def _ptas_chain(epsilon, base: RatedSolver, max_depth: int, c: int = 3):
    eps = Fraction(epsilon)
    # an exact base already meets any target, so depth 0 is the one case
    # where epsilon has no admissible range at all
    if base.rho < 1 and not 0 < eps < 1 - base.rho:
        raise MkvcError("epsilon out of admissible range")
    if base.rho == 1 and not 0 < eps < 1:
        raise MkvcError("epsilon out of admissible range")
    if max_depth < 1:
        raise MkvcError("max_depth must be >= 1")
    schedule = ptas_schedule(base.rho, eps)
    depth = min(schedule.convergence_count, max_depth)
    solver = base
    for _ in range(depth):
        solver = RatedSolver(
            spec=SolverSpec(SolverKind.ALG2, base=solver.spec, c=c),
            rho=improve_ratio(solver.rho), base=solver)
    return solver, schedule, depth


def solve_ptas(inst: BipartiteInstance, epsilon, base: RatedSolver,
               max_depth: int, c: int = 3) -> CoverSolution:
    """Bootstrapped scheme: compose the amplifier on top of itself, starting
    from the base solver, until the scheduled guarantee reaches 1-epsilon or
    the depth cap is hit.

    Each level multiplies the running time by roughly the amplifier's own
    cost, so max_depth (default 2) is the practical knob; when the executed
    depth falls short of the target the achieved guarantee is reported in
    the solution metadata and a warning is emitted.
    """
    solver, schedule, depth = _ptas_chain(epsilon, base, max_depth, c)
    target = 1 - Fraction(epsilon)
    meta = {
        "executed_depth": depth,
        "scheduled_depth": schedule.convergence_count,
        "iteration_bound": schedule.iterations,
        "target_ratio": target,
        "achieved_ratio_bound": solver.rho,
    }
    if solver.rho < target:
        warnings.warn(
            f"depth clamped to {depth}: guarantee {solver.rho} "
            f"falls short of target {target}", stacklevel=2)
    sol = solver.run(inst)
    return CoverSolution(vertices=sol.vertices,
                         covered_weight=sol.covered_weight, meta=meta)


def solve_exact(inst: BipartiteInstance,
                enumeration_budget: int = ORACLE_BUDGET) -> CoverSolution:
    """Exhaustive oracle: every k-subset of the vertices, maximum covered
    weight, ties to the lexicographically smallest vertex set.  Refuses
    instances with more than `enumeration_budget` subsets."""
    vm, _, _ = _exact_masked(inst, 0, 0, inst.k, enumeration_budget)
    return _mask_solution(inst, vm)


def solve_semiregular_exact(inst: BipartiteInstance) -> CoverSolution:
    """Closed-form optimum for uniform-weight instances whose sides are each
    internally degree-regular: k vertices from the max-degree side, or the
    whole side (plus padding) when it is smaller than k, which then covers
    every edge."""
    if inst.m > 0 and inst._uniform is None:
        raise MkvcError("not semi-regular/unweighted: weights differ")
    left_deg = {inst.degree(v) for v in range(inst.n_left)}
    right_deg = {inst.degree(v) for v in range(inst.n_left, inst.n)}
    if len(left_deg) > 1 or len(right_deg) > 1:
        raise MkvcError("not semi-regular/unweighted: a side is not regular")
    d_left = left_deg.pop() if left_deg else 0
    d_right = right_deg.pop() if right_deg else 0
    side = Side.LEFT if d_left >= d_right else Side.RIGHT
    size = inst.side_size(side)
    offset = 0 if side == Side.LEFT else inst.n_left
    vm = 0
    for i in range(min(inst.k, size)):
        vm |= 1 << (offset + i)
    vm, _ = _pad_mask(inst, vm, 0, inst.k, 0)
    return _mask_solution(inst, vm)


def guess_split_runner(inst: BipartiteInstance, inner) -> CoverSolution:
    """Run `inner(k_left, k_right)` for every split k_left + k_right == k
    and keep the best solution (ties to the lexicographically smallest
    vertex set)."""
    best = None
    best_key = None
    for k1 in range(inst.k + 1):
        sol = inner(k1, inst.k - k1)
        key = (-_as_key(sol.covered_weight), sol.sorted_vertices())
        if best is None or key < best_key:
            best, best_key = sol, key
    return best


def _as_key(value):
    return value if isinstance(value, (int, Fraction)) else Fraction(value)
