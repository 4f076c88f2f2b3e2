"""All solvers: greedy over both sides, single-side top-k, the
prefix-removal pass (alg1), the candidate-pool ratio amplifier (alg2), the
bootstrapped approximation scheme (ptas), the exhaustive oracle, the
semi-regular closed-form solver, and the budget-split guessing wrapper.

Each solver kind is one row of the `_KINDS` table: its label, its guarantee
(rho) rule, whether it wraps a base solver, its public run and its masked
run.  `SolverSpec.label`, `RatedSolver.run`, `RatedSolver.run_masked` and
`build_solver` dispatch through that table.

Solvers share an internal "masked" calling convention: work directly on the
parent instance with a bitmask of banned vertices and a bitmask of already
covered edges.  This avoids rebuilding residual instances inside the
enumeration loops of alg1 and alg2.  Each algorithm has one masked
implementation, and its public `solve_*` function is that run with nothing
banned or covered at budget k; only ptas (which reports its schedule) and
the semi-regular closed form have public paths of their own.  Because
deletion preserves per-side index order, a masked run and a run on the
corresponding residual instance pick identical vertices; the tests check
this for greedy and for alg1 over greedy, exact and top-side bases.  The
semi-regular solver has no masked form, so its masked run is a run on the
explicitly built residual instance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, NamedTuple

from .analysis import improve_ratio, ptas_schedule
from .errors import MkvcError
from .graph import BipartiteInstance, CoverSolution, Side, residual

ORACLE_BUDGET = 2_000_000

# exact rational lower bound of 1 - 1/e = 0.6321205..., truncated downward
GREEDY_RHO = Fraction(632_120, 1_000_000)


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
        return _KINDS[self.kind].label(self)


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
    """The l allowed vertices of one side with the most uncovered incident
    weight.  Within a single side the incident edge sets are pairwise
    disjoint, so ranking by that weight and taking a prefix is exact.  Ties
    break toward the smaller index; l larger than the side is clamped."""
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
        return _KINDS[self.spec.kind].run(self, inst)

    def run_masked(self, inst, banned: int, covered: int, budget: int):
        return _KINDS[self.spec.kind].masked(self, inst, banned, covered,
                                             budget)


def greedy_solver() -> RatedSolver:
    return build_solver(SolverSpec(SolverKind.GREEDY))


def exact_solver(oracle_budget: int = ORACLE_BUDGET) -> RatedSolver:
    return build_solver(SolverSpec(SolverKind.EXACT,
                                   oracle_budget=oracle_budget))


def build_solver(spec: SolverSpec) -> RatedSolver:
    """Resolve a spec tree into a runnable RatedSolver with its guarantee."""
    base = build_solver(spec.base) if spec.base is not None else None
    return _rated(spec, base)


def _rated(spec: SolverSpec, base: RatedSolver | None) -> RatedSolver:
    kind = _KINDS[spec.kind]
    if kind.needs_base and base is None:
        raise MkvcError(f"{spec.kind.value} needs a base solver")
    return RatedSolver(spec=spec, rho=kind.rho(spec, base), base=base)


def needs_base(kind: SolverKind) -> bool:
    """Whether solvers of this kind wrap a base solver."""
    return _KINDS[kind].needs_base


def _alg2_rho(spec: SolverSpec, base: RatedSolver) -> Fraction:
    if spec.c <= 2:
        raise MkvcError("c must be > 2")
    return improve_ratio(base.rho)


def _ptas_rho(spec: SolverSpec, base: RatedSolver) -> Fraction:
    if spec.epsilon is None:
        raise MkvcError("ptas needs epsilon")
    return 1 - Fraction(spec.epsilon)


def _residual_masked(solver: RatedSolver, inst, banned: int, covered: int,
                     budget: int):
    """Masked run of a kind without a masked form: run it on the residual
    instance with the banned vertices deleted and lift the result back."""
    gone = [inst.ref_of(v) for v in _mask_ids(banned)]
    res = residual(inst, gone, budget)
    sol = solver.run(res.instance)
    vm = 0
    for ref in res.lift(sol.vertices):
        vm |= 1 << inst.vertex_id(ref)
    cover = covered | _cover_of_mask(inst, vm)
    return vm, inst.mask_weight(cover & ~covered), cover


# ---------------------------------------------------------------------------
# public solvers


def _mask_solution(inst, vmask: int) -> CoverSolution:
    verts = frozenset(inst.ref_of(v) for v in _mask_ids(vmask))
    value = inst.mask_weight(_cover_of_mask(inst, vmask))
    return CoverSolution(vertices=verts, covered_weight=value)


def solve_greedy(inst: BipartiteInstance) -> CoverSolution:
    """k rounds, each adding the vertex (either side) of maximum residual
    covered weight; ties break Left-first then by index.  Always returns
    exactly k vertices, padding with zero-gain picks once everything is
    covered."""
    return _mask_solution(inst, _greedy_masked(inst, 0, 0, inst.k)[0])


def solve_top_side(inst: BipartiteInstance, side: Side) -> CoverSolution:
    """The min(k, side size) vertices of one side with the most incident
    weight.  The budget is deliberately not spilled onto the other side;
    pool both sides via guess_split_runner for a general-budget solver."""
    return _mask_solution(inst, _top_side_masked(inst, side, inst.k, 0, 0)[0])


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
    rest, and return the union padded to k vertices (valued on the original
    weights)."""
    if x_size < 0 or x_size > inst.k:
        raise MkvcError(f"x_size={x_size} out of range [0, k={inst.k}]")
    return _mask_solution(
        inst, _alg1_masked(inst, x_size, base, side, 0, 0, inst.k)[0])


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
    return _mask_solution(inst, _alg2_masked(inst, c, base, 0, 0, inst.k)[0])


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
        solver = _rated(SolverSpec(SolverKind.ALG2, base=solver.spec, c=c),
                        solver)
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
    return _mask_solution(
        inst, _exact_masked(inst, 0, 0, inst.k, enumeration_budget)[0])


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


# ---------------------------------------------------------------------------
# the solver table


class _Kind(NamedTuple):
    """How one solver kind is labelled, rated and run.  The run and masked
    entries look the module's functions up when they are called, so a
    function rebound on the module (the benchmark's tracer does this) is
    the one that runs."""

    label: Callable         # (spec) -> str
    rho: Callable           # (spec, base RatedSolver or None) -> Fraction
    needs_base: bool
    run: Callable           # (solver, inst) -> CoverSolution
    masked: Callable        # (solver, inst, banned, covered, budget) -> triple


def _side_tag(side: Side) -> str:
    return "L" if side == Side.LEFT else "R"


_KINDS = {
    SolverKind.GREEDY: _Kind(
        label=lambda spec: spec.kind.value,
        rho=lambda spec, base: GREEDY_RHO,
        needs_base=False,
        run=lambda s, inst: solve_greedy(inst),
        masked=lambda s, inst, banned, covered, budget: _greedy_masked(
            inst, banned, covered, budget)),
    SolverKind.TOP_SIDE: _Kind(
        label=lambda spec: f"topside[{_side_tag(spec.side)}]",
        # a single-side top-k run only bounds the optimum share of that
        # side; the 1/2 floor presumes both sides are pooled (see
        # guess_split_runner)
        rho=lambda spec, base: Fraction(1, 2),
        needs_base=False,
        run=lambda s, inst: solve_top_side(inst, s.spec.side),
        masked=lambda s, inst, banned, covered, budget: _top_side_masked(
            inst, s.spec.side, budget, banned, covered)),
    SolverKind.ALG1: _Kind(
        label=lambda spec: (f"alg1[x={spec.x_size},{_side_tag(spec.side)}]"
                            f"({spec.base.label()})"),
        rho=lambda spec, base: base.rho,
        needs_base=True,
        run=lambda s, inst: solve_alg1(inst, s.spec.x_size, s.base,
                                       s.spec.side),
        masked=lambda s, inst, banned, covered, budget: _alg1_masked(
            inst, s.spec.x_size, s.base, s.spec.side, banned, covered,
            budget)),
    SolverKind.ALG2: _Kind(
        label=lambda spec: f"alg2[c={spec.c}]({spec.base.label()})",
        rho=_alg2_rho,
        needs_base=True,
        run=lambda s, inst: solve_alg2(inst, s.spec.c, s.base),
        masked=lambda s, inst, banned, covered, budget: _alg2_masked(
            inst, s.spec.c, s.base, banned, covered, budget)),
    SolverKind.PTAS: _Kind(
        label=lambda spec: (f"ptas[eps={spec.epsilon},d<={spec.max_depth}]"
                            f"({spec.base.label()})"),
        rho=_ptas_rho,
        needs_base=True,
        run=lambda s, inst: solve_ptas(inst, s.spec.epsilon, s.base,
                                       s.spec.max_depth, c=s.spec.c),
        masked=lambda s, inst, banned, covered, budget: _ptas_chain(
            s.spec.epsilon, s.base, s.spec.max_depth, s.spec.c)[0].run_masked(
            inst, banned, covered, budget)),
    SolverKind.EXACT: _Kind(
        label=lambda spec: spec.kind.value,
        rho=lambda spec, base: Fraction(1),
        needs_base=False,
        run=lambda s, inst: solve_exact(inst, s.spec.oracle_budget),
        masked=lambda s, inst, banned, covered, budget: _exact_masked(
            inst, banned, covered, budget, s.spec.oracle_budget)),
    SolverKind.SEMI_REGULAR: _Kind(
        label=lambda spec: spec.kind.value,
        rho=lambda spec, base: Fraction(1),
        needs_base=False,
        run=lambda s, inst: solve_semiregular_exact(inst),
        masked=lambda s, inst, banned, covered, budget: _residual_masked(
            s, inst, banned, covered, budget)),
}
