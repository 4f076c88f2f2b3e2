"""All solvers: greedy over both sides, single-side top-k, the
prefix-removal pass (alg1), the candidate-pool ratio amplifier (alg2), the
bootstrapped approximation scheme (ptas), the exact oracle, and the
semi-regular closed-form solver.

Each solver kind is one row of the `_KINDS` table: its label, its guarantee
(rho) rule, whether it wraps a base solver, its public run and its masked
run.  `SolverSpec.label`, `RatedSolver.run`, `RatedSolver.run_masked` and
`build_solver` dispatch through that table.

Solvers share an internal "masked" calling convention: work directly on the
parent instance with a bitmask of banned vertices and a bitmask of already
covered edges, so no solver builds a residual instance.  Each algorithm has
one masked implementation, and its public `solve_*` function is that run
with nothing banned or covered at budget k, valued by the weight the run
returns, not again; `solve_ptas` runs its table row, which reports the
chain's depth, and only the semi-regular closed form has a public path of
its own.  A masked run also takes a trailing `floor` (default -1): the
caller will discard any result strictly below it.  Only alg2 reads it, to
cut small sets that cannot reach it; every other kind ignores it, and ptas
hands it to its outer amplifier.
Because deletion preserves per-side index order, a masked run and a run on
the corresponding residual instance pick identical vertices; the tests
check this for greedy and for alg1 over greedy, exact and top-side bases.
The semi-regular closed form has no masked run (deleting a vertex breaks
regularity), so it cannot be a base solver.

Greedy is split into its fill (`_gains`: every vertex's uncovered incident
weight) and its pick loop (`_greedy_picks`), and the single-side ranking
(`_top_block`) reads the same gains list and is valued by their sum.
Gains are weights everywhere; the fill's popcount for uniform weights is
the only branch on the weight kind.  alg2 fills the gains once per call:
they order its small vertex sets, and over a greedy base they seed the
greedy runs, whose traced direct run also yields every reduced-budget run;
each run's own `_gains` rank its completions.  Each small set's parent hands
down its residual gains and the sum of its top ones, which bound every
child before the child's own edges are walked.  Over greedy, each greedy
path is walked once: a small set's completion stops, offering nothing, at
a vertex set an earlier greedy run of the same call already passed, and
once it cannot reach max(incumbent, floor).

The oracle returns the lexicographically first optimum.  Up to
`EXACT_FLAT_MAX` k-subsets it values every one (`_exact_flat`); beyond
that it runs alg2's small-set search to the full budget with no base runs
(`_exact_search`): both start from `_search_start` and weigh a child S + v
as S's weight plus v's residual gain under S; the same cuts by w(new cover
of S) plus top budget - |S| residual gains (the submodular bound of
Nemhauser, Wolsey and Fisher) and the same tie test, from greedy's set.
Its guard counts k-subsets on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, NamedTuple

from .analysis import RATIO_SCALE, floor_at, improve_ratio, secondary_bounds
from .errors import MkvcError
from .graph import BipartiteInstance, CoverSolution, Side

ORACLE_BUDGET = 2_000_000
# the oracle enumerates up to this many k-subsets flat, and searches beyond
EXACT_FLAT_MAX = 200

# each level of a ptas chain runs its base about three stack frames deeper,
# so this keeps a chain well inside Python's default recursion limit
MAX_PTAS_DEPTH = 200

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
# A run given a floor returns the same triple as without it whenever that
# triple's value reaches the floor, and otherwise a full-size set valued
# below it.
# A public solution carries its masked run's weight as its value.


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


def _loses_tie(inst, sm: int, banned: int, budget: int, best: int) -> bool:
    """Whether even the lexicographically first budget-set holding `sm`
    sorts after `best`: then no set holding `sm` wins a tie with it."""
    return not _lex_less(_pad_mask(inst, sm, banned, budget, 0)[0], best)


def _gains(inst, banned: int, covered: int) -> list:
    """Greedy's fill: gains[v] is v's uncovered incident weight, and -1
    for a banned v.  Uniform weights take one popcount per vertex, times
    the weight; that is the only branch on the weight kind."""
    rem = ~covered
    u = inst._uniform
    if u is not None:
        gains = [u * (m & rem).bit_count() for m in inst._inc]
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
    return gains


def _greedy_picks(inst, gains: list, covered: int, budget: int,
                  trace: list | None = None, seen: set | None = None,
                  chosen: int = 0, need=0):
    """Greedy's pick loop from a `_gains` state, which it consumes.  With a
    `trace` list, (chosen, total, cover) is appended to it after every
    pick: entry b - 1 is greedy's masked triple at budget b.  The picks
    add to `chosen`, the vertex set the gains state belongs to, and the
    returned set holds it.

    With a `seen` set, the loop stops, returning None, at a set already in
    `seen` or once its total plus the current largest gain times the picks
    left is strictly below `need` (gains never rise); every set it passes,
    the last one too, joins `seen`."""
    inc = inst._inc
    edges = inst.edges
    n_left = inst.n_left
    rem = ~covered
    total = 0
    last = budget - 1
    for step in range(budget):
        # first maximum: Left before Right, then by index
        g = max(gains)
        if seen is not None:
            if chosen in seen or total + g * (budget - step) < need:
                return None
            seen.add(chosen)
        v = gains.index(g)
        gains[v] = -1
        chosen |= 1 << v
        total += g
        new = inc[v] & rem
        rem ^= new
        if trace is not None:
            trace.append((chosen, total, ~rem))
        if step == last:
            break
        # the other endpoint of edge (l, r) is l + (n_left + r) - v
        shift = n_left - v
        while new:
            low = new & -new
            l, r, w = edges[low.bit_length() - 1]
            gains[l + r + shift] -= w
            new ^= low
    if seen is not None:
        if chosen in seen:
            return None
        seen.add(chosen)
    return chosen, total, ~rem


def _greedy_masked(inst, banned: int, covered: int, budget: int):
    if budget > inst.n - banned.bit_count():
        raise MkvcError("greedy budget exceeds available vertices")
    return _greedy_picks(inst, _gains(inst, banned, covered), covered, budget)


def _exact_masked(inst, banned: int, covered: int, budget: int,
                  enum_budget: int = ORACLE_BUDGET):
    """The oracle: `enum_budget` caps the k-subsets C(allowed, budget),
    whichever path runs.  Up to `EXACT_FLAT_MAX` subsets the flat
    enumeration is the faster, beyond it the search."""
    free = inst.n - banned.bit_count()
    if budget > free:
        raise MkvcError("budget exceeds available vertices")
    subsets = comb(free, budget)
    if subsets > enum_budget:
        raise MkvcError("instance too large for oracle")
    if subsets <= EXACT_FLAT_MAX:
        return _exact_flat(inst, banned, covered, budget)
    return _exact_search(inst, banned, covered, budget)


def _exact_flat(inst, banned: int, covered: int, budget: int):
    """Every k-subset of the allowed ids in lexicographic order, each
    valued by `mask_weight`; the first maximum wins."""
    allowed = [v for v in range(inst.n) if not banned >> v & 1]
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


def _search_start(inst, banned: int, covered: int):
    """Both small-set searches' set-up: the gains, the allowed ids by entry
    gain descending (a reversed sort is stable, so ties keep id order), in
    that order their gains, bits and incident edges not yet covered, and
    `reach`, the uncovered weight some allowed vertex touches."""
    gains = _gains(inst, banned, covered)
    order = sorted((v for v in range(inst.n) if not banned >> v & 1),
                   key=gains.__getitem__, reverse=True)
    not_cov = ~covered
    return (gains, order, [gains[v] for v in order], [1 << v for v in order],
            [inst._inc[v] & not_cov for v in order],
            inst.mask_weight(not_cov & inst.cover_mask(order)))


def _exact_search(inst, banned: int, covered: int, budget: int):
    """`_exact_flat`'s triple by alg2's small-set search run to the full
    budget with no base runs, from greedy's set as the first incumbent.

    It starts, as alg2 does, from `_search_start`.  A node's children add
    one id after its last in alg2's order (entry gain descending, then
    id), so each k-subset is one leaf; gains are indexed by position in
    that order.  A child S + v weighs, as in alg2, S's weight plus v's
    residual gain under S, and gets S's residual gains less the edges v
    newly covers.  Its bound, that weight plus the top budget - |S| - 1 of
    those gains, ranges only over the ids after v: no leaf below it holds
    an earlier one, and a bound over every id would only be looser.  A
    child is first cut by S's weight plus its entry gain plus S's `r` (S's
    bound less its weight and its least top gain), which falls along the
    order, so the first failure ends the frame.  The other cuts and the
    tie test are alg2's, and a leaf with its cover replaces the incumbent
    when heavier, or as heavy and lexicographically first.  The frames sit
    on an explicit stack, since the search is budget deep."""
    gains, order, top, bits, incs, reach = _search_start(inst, banned, covered)
    size = len(order)
    # by position; a banned endpoint's share goes to the spare last slot
    pos = [size] * inst.n
    for p, v in enumerate(order):
        pos[v] = p
    ends = [(pos[l], pos[inst.n_left + r], w) for l, r, w in inst.edges]
    best, best_w, best_cover = _greedy_picks(inst, gains, covered, budget)
    # a frame: (its children's positions, their size, gains, weight of S,
    # S, S's new cover, r)
    stack = [(iter(range(size - budget + 1)), 1, top + [0], 0, 0, 0,
              sum(top[:budget - 1]))] if budget else []
    while stack:
        children, j, g, ws, sm, cov, r = stack[-1]
        rest = budget - j
        for p in children:
            bound = ws + top[p] + r
            if bound < best_w:
                stack.pop()
                break
            um = sm | bits[p]
            if ((bound == best_w or best_w == reach)
                    and _loses_tie(inst, um, banned, budget, best)):
                continue
            wc = ws + g[p]
            if rest == 0:
                if wc > best_w or wc == best_w and _lex_less(um, best):
                    best_w, best, best_cover = wc, um, covered | cov | incs[p]
                continue
            gc = g[:]
            new = incs[p] & ~cov
            while new:
                low = new & -new
                a, b, w = ends[low.bit_length() - 1]
                gc[a] -= w
                gc[b] -= w
                new ^= low
            tops = sorted(gc[p + 1:size], reverse=True)[:rest]
            bound = wc + sum(tops)
            if (bound < best_w or bound == best_w
                    and _loses_tie(inst, um, banned, budget, best)):
                continue
            stack.append((iter(range(p + 1, size - rest + 1)), j + 1, gc,
                          wc, um, cov | incs[p], bound - wc - tops[-1]))
            break
        else:
            stack.pop()
    return best, inst.mask_weight(best_cover & ~covered), best_cover


def _top_block(inst, side: Side, l: int, gains: list):
    """(vertex mask, weight, edge mask) of the l vertices of one side with
    the largest gains (a `_gains` list; negative entries are unavailable).
    Within a single side the incident edge sets are pairwise disjoint, so
    the block newly covers exactly the sum of its gains, which is its
    weight.  The edge mask holds every edge incident to the block.  Ties
    break toward the smaller index; l larger than the side is clamped."""
    ids = (range(inst.n_left) if side == Side.LEFT
           else range(inst.n_left, inst.n))
    inc = inst._inc
    vm = em = weight = 0
    for v in sorted((v for v in ids if gains[v] >= 0),
                    key=gains.__getitem__, reverse=True)[:l]:
        vm |= 1 << v
        em |= inc[v]
        weight += gains[v]
    return vm, weight, em


def _top_side_masked(inst, side: Side, l: int, banned: int, covered: int):
    """The l allowed vertices of one side with the most uncovered incident
    weight."""
    vm, w, em = _top_block(inst, side, l, _gains(inst, banned, covered))
    return vm, w, covered | em


# ---------------------------------------------------------------------------
# rated solvers


@dataclass(frozen=True)
class RatedSolver:
    """A runnable solver together with the approximation guarantee it
    carries.  `rho` is an exact rational lower bound, or None when no
    guarantee is proven (top-side, alg1, and alg2 over such a base)."""

    spec: SolverSpec
    rho: Fraction | None
    base: "RatedSolver | None" = field(default=None, repr=False)
    # ptas only: the (outermost amplifier, depth) of the chain it runs
    chain: tuple | None = field(default=None, repr=False, compare=False)

    def label(self) -> str:
        return self.spec.label()

    def run(self, inst: BipartiteInstance) -> CoverSolution:
        return _KINDS[self.spec.kind].run(self, inst)

    def run_masked(self, inst, banned: int, covered: int, budget: int,
                   floor=-1):
        masked = _KINDS[self.spec.kind].masked
        if masked is None:
            raise MkvcError(f"{self.spec.kind.value} has no masked run, so "
                            "it cannot be a base")
        return masked(self, inst, banned, covered, budget, floor)


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


def _alg1_rho(spec: SolverSpec, base: RatedSolver) -> None:
    # the upper end, x_size <= k, depends on the instance; solve_alg1 checks it
    if spec.x_size < 0:
        raise MkvcError(f"x_size={spec.x_size} must be >= 0")
    # none, whatever the base: its prefix is a top-side run (see there)
    return None


def _alg2_rho(spec: SolverSpec, base: RatedSolver) -> Fraction | None:
    if spec.c <= 2:
        raise MkvcError("c must be > 2")
    if base.rho is None:
        return None
    # the least case bound: below 3/4, (1+3rho)/(5-rho) is under improve_ratio
    rho = min(improve_ratio(base.rho), *secondary_bounds(base.rho))
    # from 3/4 on that is improve_ratio, whose denominator's digits double
    # per level; every case bound rises with rho, so rounding down is sound
    if rho.denominator > RATIO_SCALE:
        rho = Fraction(*floor_at(rho, RATIO_SCALE))
    return rho


# ---------------------------------------------------------------------------
# public solvers


def _mask_solution(inst, vmask: int, value) -> CoverSolution:
    """The refs of a vertex mask, with the value its run computed."""
    refs = inst._refs
    verts = []
    while vmask:
        low = vmask & -vmask
        verts.append(refs[low.bit_length() - 1])
        vmask ^= low
    return CoverSolution(vertices=frozenset(verts), covered_weight=value)


def solve_greedy(inst: BipartiteInstance) -> CoverSolution:
    """k rounds, each adding the vertex (either side) of maximum residual
    covered weight; ties break Left-first then by index.  Always returns
    exactly k vertices, padding with zero-gain picks once everything is
    covered."""
    return _mask_solution(inst, *_greedy_masked(inst, 0, 0, inst.k)[:2])


def solve_top_side(inst: BipartiteInstance, side: Side) -> CoverSolution:
    """The min(k, side size) vertices of one side with the most incident
    weight.  The budget is deliberately not spilled onto the other side."""
    return _mask_solution(inst, *_top_side_masked(inst, side, inst.k, 0, 0)[:2])


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
        inst, *_alg1_masked(inst, x_size, base, side, 0, 0, inst.k)[:2])


def _alg2_masked(inst, c, base, banned, covered, budget, floor=-1):
    if c <= 2:
        raise MkvcError("c must be > 2")
    gains, order, top, bits, incs, reach = _search_start(inst, banned, covered)
    if budget > len(order):
        raise MkvcError("budget exceeds available vertices")
    edges = inst.edges
    n_left = inst.n_left
    not_cov = ~covered
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
    # The base runs at each reduced budget b are masked triples; greedy's
    # are the first budget - c steps of its traced direct run, which is
    # traced only when such a step exists
    trace = []
    if seeded and budget > c:
        bm, bw, cov_b = _greedy_picks(inst, gains[:], covered, budget, trace)
        runs = trace[:budget - c]
    else:
        bm, bw, cov_b = base.run_masked(inst, banned, covered, budget)
        runs = [base.run_masked(inst, banned, covered, b)
                for b in range(1, budget - c + 1)]
    offer(bm, cov_b, bw)
    # over greedy, every vertex set a greedy path has passed: each leads,
    # by the deterministic pick rule, to a candidate already offered or
    # already shown to lie below max(incumbent, floor), which never falls
    seen = {bm, *(t[0] for t in trace)}

    # each reduced run, completed with the top budget - b block of either
    # side, ranked by that run's residual gains
    for b, (bm, bw, cov_b) in enumerate(runs, 1):
        g = _gains(inst, banned | bm, cov_b)
        for side in (Side.LEFT, Side.RIGHT):
            tm, tw, em = _top_block(inst, side, budget - b, g)
            offer(bm | tm, cov_b | em, bw + tw)

    # every small vertex set S, removed with its covered edges, base on the
    # rest.  No candidate built on S covers more than its bound: w(new
    # cover of S) plus the top budget - |S| residual gains, and no
    # candidate at all covers more than `reach`, the uncovered weight
    # that some allowed vertex touches.  S is skipped when its bound is
    # strictly below the incumbent, or when the best it can do is tie and
    # even the lexicographically first set holding S loses that tie, so
    # a tie that could win on the lex rule still runs.  One depth-first
    # search by entry gain (descending) judges each set once, and a
    # rejected S prunes its extensions: gains only shrink as S grows, so
    # its bound caps every candidate built on it, each budget-set holding
    # one holds S, and the incumbent only rises.  A node hands down its
    # residual gains, its newly covered weight and `r`, the sum of its top
    # budget - |S| - 1 residual gains.  A child S + v is first cut by that
    # weight plus v's entry gain plus `r`, which is at least the child's
    # bound and falls along the order: its first failure skips every later
    # sibling before any of them walks its newly covered edges.  S is also
    # cut when its bound is strictly below `floor`, under which the caller
    # discards the result; the tie rules still compare with the incumbent
    # alone.  The cut is strict, so a run whose value reaches the floor is
    # unchanged by it.  A small set's base run gets max(incumbent, floor)
    # less what S newly covers as its own floor: a completion below that
    # is discarded here in turn.  Over greedy, the pick loop takes that
    # floor as `need` and stops below it, or at a set in `seen`.
    depth = min(c, budget)

    def grow(start, j, sm, cov_s, g_s, ws_s, r_s):
        # the children U = S + order[i], i >= start, have j members each
        rest = budget - j
        for i in range(start, len(order)):
            bound = ws_s + top[i] + r_s
            if bound < best_w or bound < floor:
                break
            um, cov_u = sm | bits[i], cov_s | incs[i]
            if ((bound == best_w or best_w == reach)
                    and _loses_tie(inst, um, banned, budget, best_vm)):
                continue
            cm = covered | cov_u
            ws = ws_s + g_s[order[i]]
            if rest == 0:
                offer(um, cm, ws)
                continue
            # U weighs S plus i's residual gain; U's residual gains are
            # S's, less i's newly covered edges; S's members are already -1
            g = g_s[:]
            new = incs[i] & ~cov_s
            while new:
                low = new & -new
                l, r, w = edges[low.bit_length() - 1]
                g[l] -= w
                g[n_left + r] -= w
                new ^= low
            g[order[i]] = -1
            tops = sorted(g, reverse=True)[:rest]
            r_u = sum(tops)
            bound = ws + r_u
            if (bound < best_w or bound < floor
                    or bound == best_w
                    and _loses_tie(inst, um, banned, budget, best_vm)):
                continue
            need = max(best_w, floor) - ws
            if seeded:
                run = _greedy_picks(inst, g[:] if j < depth else g, cm, rest,
                                    None, seen, um, need)
            else:
                run = base.run_masked(inst, banned | um, cm, rest, need)
            if run is not None:
                rm, rw, cov_r = run
                offer(um | rm, cov_r, ws + rw)
            if j < depth:
                grow(i + 1, j + 1, um, cov_u, g, ws, r_u - tops[-1])

    if budget:
        grow(0, 1, 0, 0, gains, 0, sum(top[:budget - 1]))

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
    after it; either test then holds for every extension of C too, so
    those are skipped with it.  C's parent hands down its residual gains
    and the sum of its top ones, which bound C before C's own edges are
    walked.  Over greedy, each greedy path is walked once: greedy's pick
    rule is deterministic, so C's run stops, offering nothing, at a vertex
    set that the direct run or an earlier C's run has passed, and once
    what it covers plus its largest gain times the picks left is strictly
    below the best candidate so far.  The result is that of the whole pool.
    Carries the least of improve_ratio(base.rho) and both
    secondary_bounds(base.rho), rounded down to a multiple of 10**-40 when
    its denominator exceeds 10**40; None over a base without a guarantee.
    """
    return _mask_solution(inst, *_alg2_masked(inst, c, base, 0, 0, inst.k)[:2])


def _ptas_chain(epsilon, base: RatedSolver, max_depth: int, c: int):
    if epsilon is None:
        raise MkvcError("ptas needs epsilon")
    if base.rho is None:
        raise MkvcError(f"ptas base {base.label()} has no proven guarantee")
    eps = Fraction(epsilon)
    # epsilon must leave something to prove, except over an exact base,
    # where depth 0 already meets any target
    if not 0 < eps < (1 - base.rho or 1):
        raise MkvcError("epsilon out of admissible range")
    if not 1 <= max_depth <= MAX_PTAS_DEPTH:
        raise MkvcError(f"max_depth must lie in [1, {MAX_PTAS_DEPTH}]")
    solver, depth = base, 0
    while solver.rho < 1 - eps and depth < max_depth:
        solver = _rated(SolverSpec(SolverKind.ALG2, base=solver.spec, c=c),
                        solver)
        depth += 1
    return solver, depth


def solve_ptas(inst: BipartiteInstance, epsilon, base: RatedSolver,
               max_depth: int, c: int = 3) -> CoverSolution:
    """Bootstrapped scheme: compose the amplifier on top of itself, starting
    from the base solver, until the guarantee the chain carries (each
    level's least case bound) reaches 1-epsilon or the depth cap is hit.

    Each level multiplies the running time by roughly the amplifier's own
    cost, so max_depth (at most MAX_PTAS_DEPTH) is the practical knob; the
    solution metadata reports the executed depth, the target and the
    achieved guarantee, which falls short of the target when the cap stops
    the chain.
    """
    return _rated(SolverSpec(SolverKind.PTAS, base=base.spec, c=c,
                             epsilon=epsilon, max_depth=max_depth),
                  base).run(inst)


def solve_exact(inst: BipartiteInstance,
                enumeration_budget: int = ORACLE_BUDGET) -> CoverSolution:
    """Exact oracle: the k-subset of maximum covered weight, ties to the
    lexicographically smallest vertex set.  Small instances value every
    k-subset; larger ones find the same set by alg2's small-set search run
    to the full budget with no base runs.  Refuses instances with more
    than `enumeration_budget` k-subsets, whichever way it runs."""
    return _mask_solution(
        inst, *_exact_masked(inst, 0, 0, inst.k, enumeration_budget)[:2])


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
    # the side's gains are all equal, so its top block is its lowest ids
    vm, w, em = _top_block(inst, side, inst.k, _gains(inst, 0, 0))
    return _mask_solution(inst, _pad_mask(inst, vm, 0, inst.k, em)[0], w)


# ---------------------------------------------------------------------------
# the solver table


class _Kind(NamedTuple):
    """How one solver kind is labelled, rated and run.  The run and masked
    entries look the module's functions up when they are called, so a
    function rebound on the module (the benchmark's tracer does this) is
    the one that runs.  A kind without a masked run cannot be a base."""

    label: Callable         # (spec) -> str
    rho: Callable | None    # (spec, base or None) -> Fraction or None
    needs_base: bool
    run: Callable           # (solver, inst) -> CoverSolution
    # (solver, inst, banned, covered, budget, floor)
    masked: Callable | None


def _side_tag(side: Side) -> str:
    return "L" if side == Side.LEFT else "R"


_KINDS = {
    SolverKind.GREEDY: _Kind(
        label=lambda spec: spec.kind.value,
        rho=lambda spec, base: GREEDY_RHO,
        needs_base=False,
        run=lambda s, inst: solve_greedy(inst),
        masked=lambda s, inst, banned, covered, budget, floor: (
            _greedy_masked(inst, banned, covered, budget))),
    SolverKind.TOP_SIDE: _Kind(
        label=lambda spec: f"topside[{_side_tag(spec.side)}]",
        # none: one side's top k cover 1/5 of opt on the 5+1 star (see the
        # tests)
        rho=lambda spec, base: None,
        needs_base=False,
        run=lambda s, inst: solve_top_side(inst, s.spec.side),
        masked=lambda s, inst, banned, covered, budget, floor: (
            _top_side_masked(inst, s.spec.side, budget, banned, covered))),
    SolverKind.ALG1: _Kind(
        label=lambda spec: (f"alg1[x={spec.x_size},{_side_tag(spec.side)}]"
                            f"({spec.base.label()})"),
        rho=_alg1_rho,
        needs_base=True,
        run=lambda s, inst: solve_alg1(inst, s.spec.x_size, s.base,
                                       s.spec.side),
        masked=lambda s, inst, banned, covered, budget, floor: (
            _alg1_masked(inst, s.spec.x_size, s.base, s.spec.side, banned,
                         covered, budget))),
    SolverKind.ALG2: _Kind(
        label=lambda spec: f"alg2[c={spec.c}]({spec.base.label()})",
        rho=_alg2_rho,
        needs_base=True,
        run=lambda s, inst: solve_alg2(inst, s.spec.c, s.base),
        masked=lambda s, inst, banned, covered, budget, floor: (
            _alg2_masked(inst, s.spec.c, s.base, banned, covered, budget,
                         floor))),
    SolverKind.PTAS: _Kind(
        label=lambda spec: (f"ptas[eps={spec.epsilon},d<={spec.max_depth}]"
                            f"({spec.base.label()})"),
        rho=None,                   # the chain's, set by _rated
        needs_base=True,
        run=lambda s, inst: replace(s.chain[0].run(inst), meta={
            "executed_depth": s.chain[1],
            "target_ratio": 1 - Fraction(s.spec.epsilon),
            "achieved_ratio_bound": s.chain[0].rho}),
        masked=lambda s, inst, banned, covered, budget, floor: (
            s.chain[0].run_masked(inst, banned, covered, budget, floor))),
    SolverKind.EXACT: _Kind(
        label=lambda spec: spec.kind.value,
        rho=lambda spec, base: Fraction(1),
        needs_base=False,
        run=lambda s, inst: solve_exact(inst, s.spec.oracle_budget),
        masked=lambda s, inst, banned, covered, budget, floor: (
            _exact_masked(inst, banned, covered, budget,
                          s.spec.oracle_budget))),
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
