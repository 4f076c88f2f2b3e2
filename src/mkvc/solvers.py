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
covered edges, so no solver builds a residual instance.  Each algorithm has
one masked implementation, and its public `solve_*` function is that run
with nothing banned or covered at budget k; only ptas (which reports its
schedule) and the semi-regular closed form have public paths of their own.
Because deletion preserves per-side index order, a masked run and a run on
the corresponding residual instance pick identical vertices; the tests
check this for greedy and for alg1 over greedy, exact and top-side bases.
The semi-regular closed form has no masked run (deleting a vertex breaks
regularity), so it cannot be a base solver.

Greedy is split into its fill (`_gains`: every vertex's uncovered incident
weight) and its pick loop (`_greedy_picks`), and the single-side ranking
(`_top_block`) reads the same gains list.  alg2 fills the gains once per
call: they bound its small vertex sets, and over a greedy base they seed
the greedy runs, whose traced direct run also yields every reduced-budget
run and the gains that rank its completions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb
from typing import Callable, NamedTuple

from .analysis import improve_ratio, ptas_schedule
from .errors import MkvcError
from .graph import BipartiteInstance, CoverSolution, Side

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


def _lex_less(a: int, b: int) -> bool:
    """Whether vertex set `a` sorts before `b` as a sorted-id tuple, for
    sets of equal size: the lowest id in which they differ lies in `a`."""
    d = a ^ b
    return a & d & -d != 0


def _gains(inst, banned: int, covered: int):
    """Greedy's fill: `(gains, unit)`, where gains[v] is v's uncovered
    incident weight and -1 for a banned v.  Equal non-zero weights count
    edges instead, a positive rescaling, and `unit` is that weight (None
    otherwise); weight 0 must take the weighted branch so equal (zero)
    gains keep the lex-first tie rule."""
    rem = ~covered
    unit = inst._uniform or None
    if unit is not None:
        gains = [(m & rem).bit_count() for m in inst._inc]
    else:
        gains = [0] * inst.n
        n_left = inst.n_left
        uncovered = format(rem & inst._full_mask, "b")[::-1]  # edge 0 first
        for (l, r, w), bit in zip(inst.edges, uncovered):
            if bit == "1":
                gains[l] += w
                gains[n_left + r] += w
    # banned and chosen vertices sit below every real gain; a banned
    # endpoint of a newly covered edge only sinks further
    while banned:
        low = banned & -banned
        gains[low.bit_length() - 1] = -1
        banned ^= low
    return gains, unit


def _greedy_picks(inst, gains: list, unit, covered: int, budget: int,
                  trace: list | None = None):
    """Greedy's pick loop from a `_gains` state, which it consumes.  With a
    `trace` list, the state after every pick but the last is appended to
    it as (chosen, total, cover, gains copy); greedy at a smaller budget
    is a prefix of that trace."""
    inc = inst._inc
    edges = inst.edges
    n_left = inst.n_left
    rem = ~covered
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
        if trace is not None:
            trace.append((chosen, total * (unit or 1), ~rem, gains[:]))
    if unit is not None:
        total *= unit
    return chosen, total, ~rem


def _greedy_masked(inst, banned: int, covered: int, budget: int):
    if budget > inst.n - banned.bit_count():
        raise MkvcError("greedy budget exceeds available vertices")
    gains, unit = _gains(inst, banned, covered)
    return _greedy_picks(inst, gains, unit, covered, budget)


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


def _top_block(inst, side: Side, l: int, gains: list) -> list:
    """The l vertices of one side with the largest gains (a `_gains`
    list; negative entries are unavailable).  Within a single side the
    incident edge sets are pairwise disjoint, so the block covers exactly
    the sum of its gains and taking a prefix is exact.  Ties break toward
    the smaller index; l larger than the side is clamped."""
    ids = (range(inst.n_left) if side == Side.LEFT
           else range(inst.n_left, inst.n))
    return sorted((v for v in ids if gains[v] >= 0),
                  key=lambda v: (-gains[v], v))[:l]


def _top_side_masked(inst, side: Side, l: int, banned: int, covered: int):
    """The l allowed vertices of one side with the most uncovered incident
    weight."""
    inc = inst._inc
    vm = 0
    em = 0
    for v in _top_block(inst, side, l, _gains(inst, banned, covered)[0]):
        vm |= 1 << v
        em |= inc[v]
    return vm, inst.mask_weight(em & ~covered), covered | em


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
    # ptas only: the (amplifier chain, schedule, depth) it runs
    chain: tuple | None = field(default=None, repr=False, compare=False)

    def label(self) -> str:
        return self.spec.label()

    def run(self, inst: BipartiteInstance) -> CoverSolution:
        return _KINDS[self.spec.kind].run(self, inst)

    def run_masked(self, inst, banned: int, covered: int, budget: int):
        masked = _KINDS[self.spec.kind].masked
        if masked is None:
            raise MkvcError(f"{self.spec.kind.value} has no masked run, so "
                            "it cannot be a base")
        return masked(self, inst, banned, covered, budget)


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
    if base is not None and _KINDS[base.spec.kind].masked is None:
        raise MkvcError(f"{base.spec.kind.value} has no masked run, so it "
                        "cannot be a base")
    if spec.kind is SolverKind.PTAS:
        # rated by the chain that runs, short of 1 - epsilon at a depth cap
        chain = _ptas_chain(spec.epsilon, base, spec.max_depth, spec.c)
        return RatedSolver(spec=spec, rho=chain[0].rho, base=base,
                           chain=chain)
    return RatedSolver(spec=spec, rho=kind.rho(spec, base), base=base)


def needs_base(kind: SolverKind) -> bool:
    """Whether solvers of this kind wrap a base solver."""
    return _KINDS[kind].needs_base


def _alg1_rho(spec: SolverSpec, base: RatedSolver) -> Fraction:
    # the upper end, x_size <= k, depends on the instance; solve_alg1 checks it
    if spec.x_size < 0:
        raise MkvcError(f"x_size={spec.x_size} must be >= 0")
    return base.rho


def _alg2_rho(spec: SolverSpec, base: RatedSolver) -> Fraction:
    if spec.c <= 2:
        raise MkvcError("c must be > 2")
    return improve_ratio(base.rho)


# ---------------------------------------------------------------------------
# public solvers


def _mask_solution(inst, vmask: int) -> CoverSolution:
    refs = inst._refs
    inc = inst._inc
    verts = []
    cover = 0
    while vmask:
        low = vmask & -vmask
        v = low.bit_length() - 1
        verts.append(refs[v])
        cover |= inc[v]
        vmask ^= low
    return CoverSolution(vertices=frozenset(verts),
                         covered_weight=inst.mask_weight(cover))


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
    allowed = [v for v in range(inst.n) if not banned >> v & 1]
    if budget > len(allowed):
        raise MkvcError("budget exceeds available vertices")
    inc = inst._inc
    n_left = inst.n_left
    not_cov = ~covered
    gains, unit = _gains(inst, banned, covered)
    scale = unit or 1
    seeded = base.spec.kind is SolverKind.GREEDY
    # the running best: the maximum newly covered weight, ties to the
    # lexicographically smallest vertex set, so arrival order is immaterial
    best_w, best_vm, best_cover = -1, 0, covered

    def offer(vm: int, cover: int, w):
        nonlocal best_w, best_vm, best_cover
        if vm.bit_count() < budget:
            vm, cover = _pad_mask(inst, vm, banned, budget, cover)
            w = inst.mask_weight(cover & not_cov)
        if w > best_w or w == best_w and _lex_less(vm, best_vm):
            best_w, best_vm, best_cover = w, vm, cover

    # the direct base run at full budget makes "alg2 >= base" structural.
    # The base runs at each reduced budget b come with their gains state;
    # greedy's are the first budget - c steps of its traced direct run,
    # which is traced only when such a step exists
    if seeded and budget > c:
        trace = []
        bm, bw, cov_b = _greedy_picks(inst, gains[:], unit, covered, budget,
                                      trace)
        runs = trace[:budget - c]
    else:
        bm, bw, cov_b = base.run_masked(inst, banned, covered, budget)
        runs = []
        for b in range(1, budget - c + 1):
            rm, rw, cov_r = base.run_masked(inst, banned, covered, b)
            runs.append((rm, rw, cov_r, _gains(inst, banned | rm, cov_r)[0]))
    offer(bm, cov_b, bw)

    # each reduced run, completed with the top budget - b block of either
    # side, ranked by that run's gains
    for b, (bm, bw, cov_b, g) in enumerate(runs, 1):
        for side in (Side.LEFT, Side.RIGHT):
            block = _top_block(inst, side, budget - b, g)
            tm = 0
            cover = cov_b
            for v in block:
                tm |= 1 << v
                cover |= inc[v]
            offer(bm | tm, cover, bw + sum(g[v] for v in block) * scale)

    # every small vertex set S, removed with its covered edges, base on the
    # rest.  No candidate built on S covers more than its bound: w(new
    # cover of S) plus the top budget - |S| residual gains, and no
    # candidate at all covers more than `reach`, the uncovered weight
    # that some allowed vertex touches.  S is skipped when its bound is
    # strictly below the incumbent, or when the best it can do is tie and
    # even the lexicographically first set holding S loses that tie, so
    # a tie that could win on the lex rule still runs.  Enumerating by
    # entry gain (descending), the prefix sums of that order bound every
    # partial set; the bound falls along a level, so the first failure
    # ends the level.
    order = sorted(allowed, key=lambda v: (-gains[v], v))
    top = [gains[v] * scale for v in order]
    prefix = [0, *accumulate(top)]
    size = len(order)
    bits = [1 << v for v in order]
    incs = [inc[v] for v in order]
    reach = inst.mask_weight(not_cov & inst.cover_mask(allowed))

    # each edge's endpoints and its weight in gain units
    ends = [(l, n_left + r, 1 if unit is not None else w)
            for l, r, w in inst.edges]

    def loses_tie(sm):
        first, _ = _pad_mask(inst, sm, banned, budget, 0)
        return not _lex_less(first, best_vm)

    def settle(sm, cov_s, pos):
        cm = covered | cov_s
        rest = budget - len(pos)
        if rest == 0:
            offer(sm, cm, inst.mask_weight(cov_s & not_cov))
            return
        g = gains[:]
        ws = 0
        new = cov_s & not_cov
        while new:
            low = new & -new
            l, r, w = ends[low.bit_length() - 1]
            g[l] -= w
            g[r] -= w
            ws += w
            new ^= low
        ws *= scale
        for p in pos:
            g[order[p]] = -1
        bound = ws + sum(sorted(g, reverse=True)[:rest]) * scale
        if bound < best_w or bound == best_w and loses_tie(sm):
            return
        if seeded:
            rm, rw, cov_r = _greedy_picks(inst, g, unit, cm, rest)
        else:
            rm, rw, cov_r = base.run_masked(inst, banned | sm, cm, rest)
        offer(sm | rm, cov_r, ws + rw)

    def grow(pos, sm, cov_s, l):
        # the best completion of pos + [i] takes its other budget - j
        # members from the top of the order; those of pos inside that
        # window are already counted by the prefix sum
        j = len(pos) + 1
        r = budget - j
        s = 0
        while s < j - 1 and pos[s] < r + s:
            s += 1
        a = prefix[r + s]
        for p in pos[s:]:
            a += top[p]
        for i in range(pos[-1] + 1 if pos else 0, size - l + j):
            bound = a + top[i]
            if bound < best_w:
                break
            if ((bound == best_w or best_w == reach)
                    and loses_tie(sm | bits[i])):
                continue
            if j < l:
                grow(pos + [i], sm | bits[i], cov_s | incs[i], l)
            else:
                settle(sm | bits[i], cov_s | incs[i], pos + [i])

    for l in range(1, min(c, budget) + 1):
        grow([], 0, 0, l)

    return best_vm, inst.mask_weight(best_cover & not_cov), best_cover


def solve_alg2(inst: BipartiteInstance, c: int, base: RatedSolver) -> CoverSolution:
    """Candidate-pool amplification of a base solver.

    Pools three candidate families and returns the best by covered weight
    (ties to the lexicographically smallest vertex set): the base run
    itself; base runs at budget k-l completed with the top-l block of
    either side (l from k-1 down to c); and, for every vertex set C of size
    at most c, C plus a base run on the graph with C and its covered edges
    deleted.  A set C cannot win, and its base run is skipped, when its
    bound (the weight C newly covers plus the top k-|C| residual vertex
    gains) is strictly below the best candidate so far, or when C can at
    best tie it and even the lexicographically first k-set holding C sorts
    after it; the result is that of the whole pool.  Carries guarantee
    improve_ratio(base.rho).
    """
    return _mask_solution(inst, _alg2_masked(inst, c, base, 0, 0, inst.k)[0])


def _ptas_chain(epsilon, base: RatedSolver, max_depth: int, c: int = 3):
    if epsilon is None:
        raise MkvcError("ptas needs epsilon")
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
    return _run_chain(inst, epsilon, _ptas_chain(epsilon, base, max_depth, c))


def _run_chain(inst, epsilon, chain) -> CoverSolution:
    solver, schedule, depth = chain
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
            f"falls short of target {target}", stacklevel=3)
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
        key = (-Fraction(sol.covered_weight), sol.sorted_vertices())
        if best is None or key < best_key:
            best, best_key = sol, key
    return best


# ---------------------------------------------------------------------------
# the solver table


class _Kind(NamedTuple):
    """How one solver kind is labelled, rated and run.  The run and masked
    entries look the module's functions up when they are called, so a
    function rebound on the module (the benchmark's tracer does this) is
    the one that runs.  A kind without a masked run cannot be a base."""

    label: Callable         # (spec) -> str
    rho: Callable | None    # (spec, base RatedSolver or None) -> Fraction
    needs_base: bool
    run: Callable           # (solver, inst) -> CoverSolution
    masked: Callable | None  # (solver, inst, banned, covered, budget)


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
        rho=_alg1_rho,
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
        rho=None,                   # the chain's, set by _rated
        needs_base=True,
        run=lambda s, inst: _run_chain(inst, s.spec.epsilon, s.chain),
        masked=lambda s, inst, banned, covered, budget: s.chain[0].run_masked(
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
        masked=None),
}

# the kinds that `--base` offers: no base of their own, and a masked run
BASE_KINDS = tuple(kind for kind, row in _KINDS.items()
                   if not row.needs_base and row.masked is not None)
