import dataclasses
import inspect
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from mkvc import (
    BipartiteInstance, CoverSolution, MkvcError, Side, SolverKind,
    SolverSpec, VertexRef, build_solver, covered_weight, exact_solver,
    greedy_solver, improve_ratio, residual, secondary_bounds, solve_alg1,
    solve_alg2, solve_exact, solve_greedy, solve_ptas,
    solve_semiregular_exact, solve_top_side,
)
from mkvc.corpus import (
    random_weighted_corpus, rational_corpus, sampled_sweep_tasks,
    semiregular_corpus, unweighted_instance,
)
from mkvc.generate import GenKind, GenSpec, generate
from mkvc.lp import root_flow
from mkvc.solvers import (
    EXACT_FLAT_MAX, GREEDY_RHO, MAX_PTAS_DEPTH, _alg2_masked, _exact_flat,
    _exact_masked, _exact_search, _exact_to, _gains, _greedy_masked,
    _lex_less, _pad_mask, _top_side_masked,
)

L = lambda i: VertexRef(Side.LEFT, i)
R = lambda i: VertexRef(Side.RIGHT, i)


def random_instance(rng, max_side=5, max_w=9, k=None):
    nl = rng.randint(1, max_side)
    nr = rng.randint(1, max_side)
    edges = [(i, j, rng.randint(0, max_w))
             for i in range(nl) for j in range(nr) if rng.random() < 0.6]
    if k is None:
        k = rng.randint(1, nl + nr - 1)
    return BipartiteInstance(nl, nr, edges, k)


# -- greedy -------------------------------------------------------------------

def test_greedy_takes_star_center():
    star = BipartiteInstance(1, 4, [(0, j, 1) for j in range(4)], 1)
    sol = solve_greedy(star)
    assert sol.vertices == {L(0)} and sol.covered_weight == 4


def test_greedy_optimal_on_k22(k22):
    assert solve_greedy(k22).covered_weight == 4


def test_greedy_pads_to_budget_on_edgeless():
    inst = BipartiteInstance(3, 3, [], 4)
    sol = solve_greedy(inst)
    assert sol.vertices == {L(0), L(1), L(2), R(0)}
    assert sol.covered_weight == 0


def test_greedy_tie_breaks_left_then_index():
    inst = BipartiteInstance(2, 2, [(0, 0, 2), (1, 1, 2)], 1)
    assert solve_greedy(inst).vertices == {L(0)}


def test_greedy_all_zero_weights_picks_lex_first():
    # every gain is zero, so the tie rule alone decides
    inst = BipartiteInstance(2, 2, [(1, 1, 0), (1, 0, 0)], 2)
    sol = solve_greedy(inst)
    assert sol.vertices == {L(0), L(1)} and sol.covered_weight == 0


def test_greedy_bounds_against_oracle():
    rng = random.Random(1)
    for _ in range(120):
        inst = random_instance(rng)
        g = solve_greedy(inst).covered_weight
        opt = solve_exact(inst).covered_weight
        assert g <= opt
        assert 100 * g >= 63 * opt
        assert inst.n * g >= inst.k * opt


def test_greedy_deterministic():
    rng = random.Random(2)
    inst = random_instance(rng)
    assert solve_greedy(inst) == solve_greedy(inst)


# -- single-side top-k --------------------------------------------------------

def test_top_side_example():
    inst = BipartiteInstance(2, 2, [(0, 0, 3), (1, 0, 5), (1, 1, 1)], 1)
    sol = solve_top_side(inst, Side.LEFT)
    assert sol.vertices == {L(1)} and sol.covered_weight == 6


def test_top_side_does_not_spill():
    inst = BipartiteInstance(2, 4, [(i, j, 1) for i in range(2) for j in range(4)], 3)
    sol = solve_top_side(inst, Side.LEFT)
    assert sol.vertices == {L(0), L(1)}
    assert sol.covered_weight == 8


def test_top_side_exact_within_side():
    rng = random.Random(3)
    for _ in range(40):
        inst = random_instance(rng, max_side=4)
        for side in (Side.LEFT, Side.RIGHT):
            sol = solve_top_side(inst, side)
            refs = [r for r in inst.all_refs() if r.side == side]
            take = min(inst.k, len(refs))
            best = max(covered_weight(inst, c) for c in combinations(refs, take))
            assert sol.covered_weight == best


def test_greedy_and_top_side_leave_the_bit_planes_unbuilt():
    # both are valued by the sum of their gains, never by mask_weight
    rng = random.Random(8)
    instances = [BipartiteInstance(
        2, 3, [(0, 0, 3), (0, 1, 5), (1, 2, Fraction(7, 2))], 2)]
    instances += [random_instance(rng) for _ in range(30)]
    for inst in instances:
        if inst._uniform is not None:
            continue
        sols = [solve_greedy(inst), solve_top_side(inst, Side.LEFT),
                solve_top_side(inst, Side.RIGHT)]
        assert inst._planes is None
        for sol in sols:
            assert sol.covered_weight == covered_weight(inst, sol.vertices)


# -- prefix removal (alg1) ----------------------------------------------------

def test_alg1_zero_prefix_equals_base():
    rng = random.Random(4)
    for _ in range(20):
        inst = random_instance(rng)
        assert (solve_alg1(inst, 0, greedy_solver()).vertices
                == solve_greedy(inst).vertices)


def test_alg1_full_prefix_equals_top_side():
    inst = BipartiteInstance(3, 3, [(i, j, (i + 2) * (j + 1)) for i in range(3)
                                    for j in range(3)], 2)
    got = solve_alg1(inst, inst.k, greedy_solver())
    want = solve_top_side(inst, Side.LEFT)
    assert got.vertices == want.vertices


def test_alg1_rejects_oversized_prefix(k22):
    with pytest.raises(MkvcError, match="x_size"):
        solve_alg1(k22, 3, greedy_solver())


def test_alg1_with_exact_base_splits_value_exactly():
    rng = random.Random(5)
    for _ in range(30):
        inst = random_instance(rng, max_side=5)
        x_size = rng.randint(0, min(inst.k, inst.n_left))
        sol = solve_alg1(inst, x_size, exact_solver())
        prefix = solve_top_side(inst.with_budget(x_size), Side.LEFT).vertices
        sub_opt = solve_exact(
            residual(inst, prefix, inst.k - x_size).instance).covered_weight
        assert sol.covered_weight == covered_weight(inst, prefix) + sub_opt
        assert sol.covered_weight <= solve_exact(inst).covered_weight


def test_alg1_right_side_prefix():
    inst = BipartiteInstance(2, 2, [(0, 0, 3), (1, 0, 5), (1, 1, 1)], 2)
    sol = solve_alg1(inst, 1, greedy_solver(), side=Side.RIGHT)
    assert len(sol.vertices) == 2
    assert sol.covered_weight <= solve_exact(inst).covered_weight


# -- candidate-pool amplifier (alg2) -------------------------------------------

def test_alg2_with_exact_base_is_optimal():
    rng = random.Random(6)
    for _ in range(25):
        inst = random_instance(rng, max_side=4)
        assert (solve_alg2(inst, 3, exact_solver()).covered_weight
                == solve_exact(inst).covered_weight)


def test_alg2_on_k22(k22):
    assert solve_alg2(k22, 3, greedy_solver()).covered_weight == 4


def test_alg2_dominates_base():
    rng = random.Random(7)
    for _ in range(60):
        inst = random_instance(rng)
        assert (solve_alg2(inst, 3, greedy_solver()).covered_weight
                >= solve_greedy(inst).covered_weight)


def test_alg2_beats_greedy_on_bait_family():
    inst = generate(GenSpec(kind=GenKind.GREEDY_ADVERSARIAL, n_left=3,
                            n_right=6, k=3, seed=9))
    g = solve_greedy(inst).covered_weight
    a = solve_alg2(inst, 3, greedy_solver()).covered_weight
    opt = solve_exact(inst).covered_weight
    assert g < opt
    assert a == opt


def test_alg2_tie_at_the_bound_goes_to_the_lex_first_set():
    # greedy takes the centre R0 first.  S = {L0, L1, L2} then ties it at 4,
    # exactly its bound, and S + L3 is the lexicographically first optimum
    star = BipartiteInstance(4, 1, [(i, 0, 1) for i in range(4)], 4)
    assert solve_greedy(star).vertices == {L(0), L(1), L(2), R(0)}
    assert (solve_alg2(star, 3, greedy_solver()).vertices
            == {L(0), L(1), L(2), L(3)})


def test_alg2_rejects_small_c(k22):
    with pytest.raises(MkvcError, match="c must be"):
        solve_alg2(k22, 2, greedy_solver())


def test_alg2_with_c_at_least_k_subsumes_oracle():
    # with c >= k every k-set is a candidate of its own, so over any base
    # the winner is the lexicographically first optimum: the oracle's set,
    # and on a masked run at c >= budget the flat oracle's whole triple
    rng = random.Random(8)
    masks = random.Random(80)
    for t in range(15):
        inst = random_instance(rng, max_side=4)
        c = max(3, inst.k)
        want = solve_exact(inst)
        for spec in ALG2_BASES.values():
            got = solve_alg2(inst, c, build_solver(spec))
            assert got.vertices == want.vertices
            assert got.covered_weight == want.covered_weight
        # int, mixed-Fraction and uniform-Fraction weights on one topology
        weight = (lambda w: w, lambda w: Fraction(w, 3),
                  lambda w: Fraction(2, 3))[t % 3]
        inst = BipartiteInstance(inst.n_left, inst.n_right,
                                 [(l, r, weight(w)) for l, r, w in inst.edges],
                                 inst.k)
        banned = masks.randint(0, (1 << inst.n) - 1)
        covered = masks.randint(0, inst._full_mask)
        for budget in range(inst.n - banned.bit_count() + 1):
            want = _exact_flat(inst, banned, covered, budget)
            for spec in ALG2_BASES.values():
                got = _alg2_masked(inst, max(3, budget), build_solver(spec),
                                   banned, covered, budget)
                assert got == want and type(got[1]) is type(want[1])


def test_alg2_returns_exactly_k_vertices():
    rng = random.Random(9)
    for _ in range(40):
        inst = random_instance(rng)
        sol = solve_alg2(inst, 3, greedy_solver())
        assert len(sol.vertices) == inst.k
        assert covered_weight(inst, sol.vertices) == sol.covered_weight


# -- bootstrapped scheme (ptas) -------------------------------------------------

def test_ptas_depth_one_equals_single_amplifier_pass():
    rng = random.Random(10)
    inst = random_instance(rng, max_side=4)
    got = solve_ptas(inst, Fraction(1, 10), greedy_solver(), 1)
    want = solve_alg2(inst, 3, greedy_solver())
    assert got.vertices == want.vertices
    assert got.meta["executed_depth"] == 1


def test_ptas_with_exact_base_is_optimal(k22):
    sol = solve_ptas(k22, Fraction(1, 10), exact_solver(), 3)
    assert sol.covered_weight == 4
    assert sol.meta["executed_depth"] == 0


def test_ptas_metadata_reports_a_clamped_depth(k22):
    sol = solve_ptas(k22, Fraction(1, 100), greedy_solver(), 1)
    assert sol.meta["achieved_ratio_bound"] < sol.meta["target_ratio"]
    assert sol.meta["executed_depth"] == 1


def test_ptas_metadata_reports_when_the_proven_chain_falls_short(k22):
    # one pass proves only (1+3rho)/(5-rho) < 2/3 over greedy and two
    # reach it, so eps = 1/3 meets its target at cap 2 and falls short at
    # cap 1
    two = solve_ptas(k22, Fraction(1, 3), greedy_solver(), 2)
    assert two.meta["executed_depth"] == 2
    assert two.meta["achieved_ratio_bound"] == Fraction(40803, 59197)
    assert two.meta["achieved_ratio_bound"] >= two.meta["target_ratio"]
    one = solve_ptas(k22, Fraction(1, 3), greedy_solver(), 1)
    assert one.meta["executed_depth"] == 1
    assert one.meta["achieved_ratio_bound"] == Fraction(72409, 109197)
    assert one.meta["achieved_ratio_bound"] < one.meta["target_ratio"]


def test_ptas_metadata_reports_the_executed_chain():
    inst = BipartiteInstance(3, 3, [(i, j, 1) for i in range(3) for j in range(3)], 2)
    sol = solve_ptas(inst, Fraction(1, 10), greedy_solver(), 2)
    assert sol.meta == {"executed_depth": 2, "target_ratio": Fraction(9, 10),
                        "achieved_ratio_bound": Fraction(40803, 59197)}


def test_ptas_depth_is_the_least_that_proves_the_target():
    # the least depth whose chain rho reaches 1 - eps, or else the cap
    for base in (SolverSpec(SolverKind.GREEDY), SolverSpec(SolverKind.EXACT)):
        rhos = [build_solver(base).rho]
        for _ in range(4):
            rhos.append(_least_bound(rhos[-1]))
        for cap in range(1, 5):
            for i in range(1, 100):
                eps = Fraction(i, 100)
                if eps >= (1 - rhos[0] or 1):
                    continue
                want = next((d for d in range(cap + 1)
                             if rhos[d] >= 1 - eps), cap)
                solver = build_solver(SolverSpec(
                    SolverKind.PTAS, base=base, epsilon=eps, max_depth=cap))
                assert solver.chain[1] == want, (base.kind, cap, eps)
                assert solver.rho == rhos[want]


def test_ptas_at_a_tiny_epsilon_runs_at_the_cap(k22):
    # the chain stops at the cap however far 1 - eps lies beyond it
    eps = Fraction(1, 10000)
    spec = SolverSpec(SolverKind.PTAS, base=SolverSpec(SolverKind.GREEDY),
                      epsilon=eps)
    t0 = time.perf_counter()
    solver = build_solver(spec)
    sol = solve_ptas(k22, eps, greedy_solver(), 2)
    assert time.perf_counter() - t0 < 1
    assert solver.chain[1] == sol.meta["executed_depth"] == 2
    assert solver.rho == sol.meta["achieved_ratio_bound"] < 1 - eps
    assert sol.covered_weight == 4


def test_ptas_epsilon_range_checked(k22):
    with pytest.raises(MkvcError, match="admissible"):
        solve_ptas(k22, Fraction(1, 2), greedy_solver(), 1)
    with pytest.raises(MkvcError, match="admissible"):
        solve_ptas(k22, 0, greedy_solver(), 1)


def test_deep_ptas_chain_rounds_its_rho_down_past_a_long_denominator():
    # from 3/4 on the least case bound is improve_ratio, whose denominator
    # doubles its digits per level (79 at depth 10); the chain keeps it
    # exact up to 10**40 and rounds it down beyond, so depth 40 builds fast
    t0 = time.perf_counter()
    solver = build_solver(SolverSpec(
        SolverKind.PTAS, base=SolverSpec(SolverKind.GREEDY),
        epsilon=Fraction(1, 1000), max_depth=40))
    assert time.perf_counter() - t0 < 1
    rhos, level = [], solver.chain[0]
    while level.base is not None:
        rhos.append(level.rho)
        level = level.base
    rhos.reverse()
    assert solver.chain[1] == len(rhos) == 40
    assert all(r.denominator <= 10 ** 40 for r in rhos)
    assert all(a < b < 1 for a, b in zip(rhos, rhos[1:]))
    exact, rounded = GREEDY_RHO, 0
    for rho in rhos[:14]:
        exact = _least_bound(exact)
        if exact.denominator <= 10 ** 40:
            assert rho == exact
        else:
            rounded += 1
            assert rho <= exact
    assert rounded == 5         # depths 10-14


def test_ptas_depth_cap_is_refused_above_and_runs_at_its_bound(k22):
    spec = SolverSpec(SolverKind.PTAS, base=SolverSpec(SolverKind.GREEDY),
                      epsilon=Fraction(1, 1000), max_depth=MAX_PTAS_DEPTH)
    solver = build_solver(spec)
    assert solver.chain[1] == MAX_PTAS_DEPTH and solver.rho < 1 - spec.epsilon
    assert solver.run(k22).covered_weight == 4
    for depth in (0, MAX_PTAS_DEPTH + 1):
        with pytest.raises(MkvcError, match="max_depth must lie in"):
            build_solver(dataclasses.replace(spec, max_depth=depth))


def test_ptas_depth_two_dominates_depth_one():
    rng = random.Random(11)
    for _ in range(6):
        inst = random_instance(rng, max_side=3)
        two = solve_ptas(inst, Fraction(1, 100), greedy_solver(), 2)
        one = solve_ptas(inst, Fraction(1, 100), greedy_solver(), 1)
        assert two.covered_weight >= one.covered_weight


# -- exhaustive oracle ----------------------------------------------------------

def test_exact_prefers_shared_vertex():
    inst = BipartiteInstance(2, 1, [(0, 0, 3), (1, 0, 5)], 1)
    sol = solve_exact(inst)
    assert sol.vertices == {R(0)} and sol.covered_weight == 8


def test_exact_on_k22_budget_one(k22):
    assert solve_exact(k22.with_budget(1)).covered_weight == 2


def test_exact_tie_breaks_lexicographically():
    inst = BipartiteInstance(2, 2, [(0, 0, 2), (1, 1, 2)], 1)
    assert solve_exact(inst).vertices == {L(0)}


def test_exact_enumeration_budget_enforced():
    big = BipartiteInstance(20, 20, [(i, i, 1) for i in range(20)], 20)
    with pytest.raises(MkvcError, match="too large"):
        solve_exact(big, enumeration_budget=1000)


def test_exact_matches_reverse_order_enumeration():
    rng = random.Random(12)
    for _ in range(30):
        inst = random_instance(rng, max_side=4)
        sol = solve_exact(inst)
        best = max(covered_weight(inst, c) for c in
                   list(combinations(inst.all_refs(), inst.k))[::-1])
        assert sol.covered_weight == best


def test_exact_k_equals_n_minus_one_drops_cheapest_private():
    rng = random.Random(13)
    for _ in range(20):
        inst = random_instance(rng, max_side=3)
        inst = inst.with_budget(inst.n - 1)
        sol = solve_exact(inst)
        total = inst.total_weight()
        cheapest_loss = min(
            total - covered_weight(inst, set(inst.all_refs()) - {v})
            for v in inst.all_refs())
        assert sol.covered_weight == total - cheapest_loss


# -- semi-regular closed form ----------------------------------------------------

def test_semiregular_k33():
    inst = BipartiteInstance(3, 3, [(i, j, 1) for i in range(3) for j in range(3)], 2)
    sol = solve_semiregular_exact(inst)
    assert sol.covered_weight == 6
    assert sol.vertices == {L(0), L(1)}


def test_semiregular_prefers_max_degree_side():
    inst = BipartiteInstance(4, 2, [(i, j, 1) for i in range(4) for j in range(2)], 1)
    sol = solve_semiregular_exact(inst)
    assert sol.vertices == {R(0)} and sol.covered_weight == 4


def test_semiregular_small_side_covers_everything():
    inst = BipartiteInstance(2, 4, [(i, j, 1) for i in range(2) for j in range(4)], 3)
    sol = solve_semiregular_exact(inst)
    assert sol.covered_weight == inst.total_weight()
    assert len(sol.vertices) == 3


def test_semiregular_rejects_irregular():
    with pytest.raises(MkvcError, match="not semi-regular"):
        solve_semiregular_exact(
            BipartiteInstance(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1)], 1))


def test_semiregular_rejects_weighted():
    with pytest.raises(MkvcError, match="not semi-regular"):
        solve_semiregular_exact(
            BipartiteInstance(2, 2, [(0, 0, 1), (1, 1, 2)], 1))


def test_semiregular_matches_oracle_on_generated():
    for _, inst in semiregular_corpus(count=25, seed=40):
        assert (solve_semiregular_exact(inst).covered_weight
                == solve_exact(inst).covered_weight)


# -- masked runs and composition ---------------------------------------------------

def test_masked_greedy_matches_residual_run():
    rng = random.Random(15)
    for _ in range(30):
        inst = random_instance(rng)
        gone = set(rng.sample(inst.all_refs(), rng.randint(0, inst.n - 2)))
        budget = rng.randint(0, inst.n - len(gone) - 1)
        res = residual(inst, gone, budget)
        direct = res.lift(solve_greedy(res.instance).vertices)
        banned = 0
        for ref in gone:
            banned |= 1 << inst.vertex_id(ref)
        vm, _, _ = greedy_solver().run_masked(
            inst, banned, inst.cover_mask_of(gone), budget)
        masked = {inst.ref_of(v) for v in range(inst.n) if vm >> v & 1}
        assert masked == set(direct)


def _rescan_greedy(inst, banned, covered, budget):
    """Reference greedy: rescan every allowed vertex's residual weight on
    every pick.  Weights are summed edge by edge, not via mask_weight."""
    inc = inst._inc

    def weight(mask):
        return sum(w for eid, (_, _, w) in enumerate(inst.edges)
                   if mask >> eid & 1)

    chosen = 0
    rem = ~covered
    total = 0
    uniform = inst._uniform if inst._uniform else None
    allowed = [v for v in range(inst.n) if not banned >> v & 1]
    if budget > len(allowed):
        raise MkvcError("greedy budget exceeds available vertices")
    for _ in range(budget):
        best_v = -1
        best_g = -1
        if uniform is not None:
            for v in allowed:
                if chosen >> v & 1:
                    continue
                g = (inc[v] & rem).bit_count()
                if g > best_g:
                    best_g = g
                    best_v = v
            best_g *= uniform
        else:
            for v in allowed:
                if chosen >> v & 1:
                    continue
                g = weight(inc[v] & rem)
                if g > best_g:
                    best_g = g
                    best_v = v
        chosen |= 1 << best_v
        rem &= ~inc[best_v]
        total += best_g
    return chosen, total, ~rem


@st.composite
def weighted_instances(draw, max_side=5):
    """An instance with int, zero, uniform, uniform-Fraction or
    mixed-Fraction weights (density 0 gives m=0), at budget 0."""
    nl = draw(st.integers(1, max_side))
    nr = draw(st.integers(1, max_side))
    kind = draw(st.sampled_from(
        ["int", "zero", "uniform", "uniform_fraction", "mixed_fraction"]))
    if kind == "int":
        weights = st.integers(0, 9)
    elif kind == "zero":
        weights = st.just(0)
    elif kind == "uniform":
        weights = st.just(draw(st.integers(1, 5)))
    elif kind == "uniform_fraction":
        weights = st.just(draw(st.fractions(Fraction(1, 7), 5, max_denominator=7)))
    else:
        weights = st.fractions(0, 5, max_denominator=12)
    density = draw(st.sampled_from([0, 3, 7, 10]))
    edges = [(i, j, draw(weights)) for i in range(nl) for j in range(nr)
             if draw(st.integers(0, 9)) < density]
    return BipartiteInstance(nl, nr, edges, 0)


@st.composite
def masked_greedy_cases(draw):
    """A weighted instance with random banned vertices and covered edges."""
    inst = draw(weighted_instances())
    banned = draw(st.integers(0, (1 << inst.n) - 1))
    covered = draw(st.integers(0, inst._full_mask))
    return inst, banned, covered


@given(masked_greedy_cases())
@settings(max_examples=300, deadline=None)
def test_gains_are_uncovered_incident_weights(case):
    """The fill against a per-vertex sum of uncovered incident weights,
    -1 for a banned vertex, over every weight kind."""
    inst, banned, covered = case
    want = [-1 if banned >> v & 1 else
            sum(w for eid, (l, r, w) in enumerate(inst.edges)
                if v in (l, inst.n_left + r) and not covered >> eid & 1)
            for v in range(inst.n)]
    assert _gains(inst, banned, covered) == want


@given(masked_greedy_cases())
@settings(max_examples=300, deadline=None)
def test_masked_greedy_matches_rescanning_reference(case):
    inst, banned, covered = case
    allowed = inst.n - banned.bit_count()
    for budget in range(allowed + 1):
        vm, total, cover = _greedy_masked(inst, banned, covered, budget)
        ref_vm, ref_total, ref_cover = _rescan_greedy(inst, banned, covered, budget)
        assert vm == ref_vm and cover == ref_cover
        assert total == ref_total
    with pytest.raises(MkvcError, match="exceeds"):
        _greedy_masked(inst, banned, covered, allowed + 1)


@pytest.mark.parametrize("spec", [
    SolverSpec(SolverKind.EXACT),
    SolverSpec(SolverKind.ALG2, base=SolverSpec(SolverKind.GREEDY)),
    SolverSpec(SolverKind.PTAS, base=SolverSpec(SolverKind.GREEDY),
               epsilon=Fraction(1, 10)),
], ids=["exact", "alg2", "ptas"])
def test_masked_run_refuses_a_budget_above_the_allowed_vertices(spec):
    # four of the six vertices banned leave two for a budget of three; the
    # refusal is the solver's own, not that of a greedy base it calls
    inst = BipartiteInstance(3, 3, [(i, j, 1 + i + j) for i in range(3)
                                    for j in range(3)], 2)
    solver = build_solver(spec)
    with pytest.raises(MkvcError, match="^budget exceeds available vertices$"):
        solver.run_masked(inst, 0b1111, 0, 3)


# -- the oracle's search against its flat enumeration -------------------------

def _assert_exact_paths_agree(inst, banned, covered, budget):
    got = _exact_search(inst, banned, covered, budget)
    want = _exact_flat(inst, banned, covered, budget)
    assert got == want
    assert type(got[1]) is type(want[1])


@given(masked_greedy_cases())
@settings(max_examples=300, deadline=None)
def test_exact_search_matches_flat_enumeration(case):
    """The (vertex mask, value, cover) triple at every budget, over every
    weight kind, called directly on sizes the oracle enumerates flat."""
    inst, banned, covered = case
    for budget in range(inst.n - banned.bit_count() + 1):
        _assert_exact_paths_agree(inst, banned, covered, budget)


def test_exact_search_matches_flat_on_the_seeded_corpora():
    rng = random.Random(17)
    for _, inst in (random_weighted_corpus() + rational_corpus()
                    + semiregular_corpus()):
        _assert_exact_paths_agree(inst, 0, 0, inst.k)
        for _ in range(3):
            banned = rng.getrandbits(inst.n)
            covered = rng.getrandbits(inst.m)
            budget = rng.randint(0, inst.n - banned.bit_count())
            _assert_exact_paths_agree(inst, banned, covered, budget)


def test_exact_search_matches_flat_on_sampled_small_graphs():
    for nl, nr, masks in sampled_sweep_tasks(8, 60, seed=5):
        for gmask in masks:
            inst = unweighted_instance(nl, nr, gmask, 1)
            for budget in range(inst.n + 1):
                _assert_exact_paths_agree(inst, 0, 0, budget)


def test_exact_search_is_not_recursive_at_budget_depth():
    # C(1200, 1199) = 1,200 sets, searched 1,199 levels deep
    rng = random.Random(3)
    pairs = sorted({(rng.randrange(600), rng.randrange(600))
                    for _ in range(1500)})
    inst = BipartiteInstance(600, 600, [(l, r, rng.randint(1, 9))
                                        for l, r in pairs], 1199)
    _assert_exact_paths_agree(inst, 0, 0, inst.k)
    # near k = n: C(60, 57) = 34,220 sets, 180 of the 900 pairs joined
    rng = random.Random(7)
    inst = BipartiteInstance(30, 30, [(e // 30, e % 30, rng.randint(1, 100))
                                      for e in sorted(rng.sample(range(900),
                                                                 180))], 57)
    _assert_exact_paths_agree(inst, 0, 0, inst.k)


@pytest.mark.parametrize("n_left, k", [(4, 2), (6, 4)],
                         ids=["flat", "search"])
def test_exact_guard_counts_k_subsets_at_its_boundary(n_left, k):
    inst = BipartiteInstance(n_left, n_left,
                             [(i, j, 1 + (i + 2 * j) % 5)
                              for i in range(n_left) for j in range(n_left)
                              if (i + j) % 3], k)
    subsets = comb(inst.n, k)
    assert (subsets > EXACT_FLAT_MAX) == (n_left == 6)
    assert solve_exact(inst, subsets) == solve_exact(inst)
    with pytest.raises(MkvcError, match="too large"):
        solve_exact(inst, subsets - 1)
    # banned ids are not counted
    subsets = comb(inst.n - 2, k)
    _exact_masked(inst, 0b11, 0, k, subsets)
    with pytest.raises(MkvcError, match="too large"):
        _exact_masked(inst, 0b11, 0, k, subsets - 1)


def _residual_alg1(inst, x_size, base, side):
    """Reference alg1 on an explicitly built residual instance: the top
    x_size vertices of one side (ranked here by a plain sort) are deleted
    with their edges, the base runs on the residual, and the union is
    padded to k with the lexicographically first unused vertices, and
    valued here on the original weights."""
    side_refs = [r for r in inst.all_refs() if r.side == side]
    prefix = sorted(side_refs,
                    key=lambda r: (-covered_weight(inst, [r]), r))[:x_size]
    res = residual(inst, prefix, inst.k - len(prefix))
    sub = base.run(res.instance)
    chosen = set(prefix) | set(res.lift(sub.vertices))
    vm = 0
    for ref in chosen:
        vm |= 1 << inst.vertex_id(ref)
    vm, _ = _pad_mask(inst, vm, 0, inst.k, 0)
    refs = frozenset(inst.ref_of(v) for v in range(inst.n) if vm >> v & 1)
    return CoverSolution(vertices=refs,
                         covered_weight=covered_weight(inst, refs))


@given(weighted_instances(), st.data())
@settings(max_examples=200, deadline=None)
def test_masked_alg1_matches_residual_reference(inst, data):
    inst = inst.with_budget(data.draw(st.integers(1, inst.n - 1)))
    bases = [greedy_solver(), exact_solver(),
             build_solver(SolverSpec(SolverKind.TOP_SIDE, side=Side.LEFT)),
             build_solver(SolverSpec(SolverKind.TOP_SIDE, side=Side.RIGHT))]
    for base in bases:
        for side in (Side.LEFT, Side.RIGHT):
            for x_size in range(inst.k + 1):
                got = solve_alg1(inst, x_size, base, side)
                want = _residual_alg1(inst, x_size, base, side)
                assert got.vertices == want.vertices
                assert got.covered_weight == want.covered_weight
                assert type(got.covered_weight) is type(want.covered_weight)


def _pooled_alg2(inst, c, base, banned, covered, budget):
    """Reference alg2: pool every candidate (padded to `budget`, first copy
    of each vertex set kept), then take the maximum newly covered weight,
    ties to the lexicographically smallest sorted-id tuple."""
    if c <= 2:
        raise MkvcError("c must be > 2")
    inc = inst._inc
    candidates = []
    seen = set()

    def add(vm, cover):
        vm, cover = _pad_mask(inst, vm, banned, budget, cover)
        if vm not in seen:
            seen.add(vm)
            candidates.append((vm, cover))

    bm, _, cov_b = base.run_masked(inst, banned, covered, budget)
    add(bm, cov_b)
    for l in range(budget - 1, c - 1, -1):
        bm, _, cov_b = base.run_masked(inst, banned, covered, budget - l)
        for side in (Side.LEFT, Side.RIGHT):
            tm, _, cov_t = _top_side_masked(inst, side, l, banned | bm, cov_b)
            add(bm | tm, cov_t)
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

    def lex_key(vm):
        return tuple(v for v in range(inst.n) if vm >> v & 1)

    best = best_w = best_cover = None
    for vm, cover in candidates:
        w = inst.mask_weight(cover & ~covered)
        if (best is None or w > best_w
                or w == best_w and lex_key(vm) < lex_key(best)):
            best, best_w, best_cover = vm, w, cover
    return best, best_w, best_cover


ALG2_BASES = {
    "greedy": SolverSpec(SolverKind.GREEDY),
    "exact": SolverSpec(SolverKind.EXACT),
    "topside_L": SolverSpec(SolverKind.TOP_SIDE, side=Side.LEFT),
    "topside_R": SolverSpec(SolverKind.TOP_SIDE, side=Side.RIGHT),
    "alg1_greedy": SolverSpec(SolverKind.ALG1, x_size=1,
                              base=SolverSpec(SolverKind.GREEDY)),
    "alg2_greedy": SolverSpec(SolverKind.ALG2,
                              base=SolverSpec(SolverKind.GREEDY)),
}


@st.composite
def alg2_cases(draw):
    """A weighted instance with random banned vertices and covered edges,
    a base solver and c; the nested amplifier gets at most 3 + 3 vertices."""
    name = draw(st.sampled_from(sorted(ALG2_BASES)))
    inst = draw(weighted_instances(max_side=3 if name == "alg2_greedy" else 5))
    banned = draw(st.integers(0, (1 << inst.n) - 1))
    covered = draw(st.integers(0, inst._full_mask))
    c = draw(st.sampled_from([3, 4]))
    return inst, banned, covered, c, build_solver(ALG2_BASES[name])


@given(alg2_cases())
@settings(max_examples=300, deadline=None)
def test_masked_alg2_matches_pooled_reference(case):
    inst, banned, covered, c, base = case
    for budget in range(inst.n - banned.bit_count() + 1):
        got = _alg2_masked(inst, c, base, banned, covered, budget)
        want = _pooled_alg2(inst, c, base, banned, covered, budget)
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1] == want[1] and type(got[1]) is type(want[1])


def test_masked_alg2_matches_pooled_reference_on_a_tie_of_full_covers():
    # K(6, 2) less L1-R1 at k = 7: every 7-set holding L0-L5 covers all 11
    # edges, and the pool's lex-first one is L0-L5 plus R0.  A reduced run
    # valued short of what it covers loses that tie
    inst = BipartiteInstance(6, 2, [(l, r, 1) for l in range(6)
                                    for r in range(2) if (l, r) != (1, 1)], 1)
    base = greedy_solver()
    for budget in range(inst.n + 1):
        want = _pooled_alg2(inst, 3, base, 0, 0, budget)
        assert _alg2_masked(inst, 3, base, 0, 0, budget) == want


@pytest.mark.parametrize("name", ["greedy", "exact"])
def test_alg2_ranks_each_reduced_run_by_its_own_gains(monkeypatch, name):
    # the base run at each budget b = 1 ... k - c, completed with the top
    # k - b block of either side, ranked by the gains under that run.  The
    # oracle's run at k is already exact: over it alg2 makes no reduced run
    # and returns the oracle's triple
    import mkvc.solvers as solvers
    inst = _seeded_instance(1, 12, 0, 0.3)
    base, k, c = build_solver(ALG2_BASES[name]), 7, 3
    blocks = []
    top_block = solvers._top_block
    monkeypatch.setattr(solvers, "_top_block", lambda inst, side, l, g: (
        blocks.append((side, l, g[:])) or top_block(inst, side, l, g)))
    got = _alg2_masked(inst, c, base, 0, 0, k)
    if name == "exact":
        assert blocks == [] and got == _exact_masked(inst, 0, 0, k)
        return
    want = []
    for b in range(1, k - c + 1):
        bm, _, cov_b = base.run_masked(inst, 0, 0, b)
        g = _gains(inst, bm, cov_b)
        want += [(Side.LEFT, k - b, g), (Side.RIGHT, k - b, g)]
    assert blocks == want


PTAS_GREEDY = SolverSpec(SolverKind.PTAS, base=SolverSpec(SolverKind.GREEDY),
                         epsilon=Fraction(1, 10))


@given(weighted_instances(max_side=6), st.data())
@settings(max_examples=150, deadline=None)
def test_alg2_floor_changes_only_results_below_it(inst, data):
    # a floor at or below the free value leaves the run as it is; above
    # it, the run may return anything of full size that lies below it
    banned = data.draw(st.integers(0, (1 << inst.n) - 1))
    covered = data.draw(st.integers(0, inst._full_mask))
    base = greedy_solver()
    for budget in range(inst.n - banned.bit_count() + 1):
        free = _alg2_masked(inst, 3, base, banned, covered, budget, floor=-1)
        for floor in (free[1] - 1, free[1], free[1] + 1):
            got = _alg2_masked(inst, 3, base, banned, covered, budget, floor)
            if floor <= free[1]:
                assert got == free and type(got[1]) is type(free[1])
            else:
                assert got[1] < floor and got[0].bit_count() == budget
    # ptas's masked entry hands the floor to its outermost amplifier
    ptas = build_solver(PTAS_GREEDY)
    budget = data.draw(st.integers(0, min(4, inst.n - banned.bit_count())))
    free = ptas.chain[0].run_masked(inst, banned, covered, budget)
    for floor in (-1, free[1], free[1] + 1):
        assert ptas.run_masked(inst, banned, covered, budget, floor) == (
            ptas.chain[0].run_masked(inst, banned, covered, budget, floor))


EXACT_TO_SPECS = [*ALG2_BASES.values(), PTAS_GREEDY]


@given(weighted_instances(max_side=4), st.data())
@settings(max_examples=300, deadline=None)
def test_masked_runs_are_exact_up_to_their_exact_budget(inst, data):
    # alg2 searches nothing below a base run at a budget up to `_exact_to`:
    # there the run returns the oracle's set and cover, and under a floor
    # that triple or a set valued below the floor
    banned = data.draw(st.integers(0, (1 << inst.n) - 1))
    covered = data.draw(st.integers(0, inst._full_mask))
    free = inst.n - banned.bit_count()
    for spec in EXACT_TO_SPECS:
        solver = build_solver(spec)
        for budget in range(min(_exact_to(spec), free) + 1):
            want = _exact_flat(inst, banned, covered, budget)
            got = solver.run_masked(inst, banned, covered, budget)
            assert got[0] == want[0] and got[2] == want[2], spec
            assert got[1] == want[1]
            floor = data.draw(st.integers(-1, int(want[1]) + 2))
            got = solver.run_masked(inst, banned, covered, budget, floor)
            if floor <= want[1]:
                assert got[0] == want[0] and got[2] == want[2], spec
            else:
                assert got[1] < floor and got[0].bit_count() == budget


def test_alg2_floor_at_its_value_keeps_a_tie_at_the_bound():
    # greedy takes R0 first; {L0} + L1 ties it at exactly its bound and
    # wins on the lex rule, so a floor equal to the value must not cut it
    inst = BipartiteInstance(2, 1, [(0, 0, 1), (1, 0, 1)], 2)
    assert greedy_solver().run(inst).vertices == {L(0), R(0)}
    for floor in (-1, 2):
        got = _alg2_masked(inst, 3, greedy_solver(), 0, 0, 2, floor)
        assert got[:2] == (0b011, 2)


class _RecordingBase:
    """A base with a real solver's spec that records each masked call, the
    floor it was passed (None if none) and its result."""

    def __init__(self, solver):
        self.spec = solver.spec
        self.solver = solver
        self.calls = []

    def run_masked(self, inst, banned, covered, budget, floor=None):
        args = (inst, banned, covered, budget)
        got = self.solver.run_masked(*args, -1 if floor is None else floor)
        self.calls.append((args, floor, got))
        return got


@given(weighted_instances(max_side=4), st.data())
@settings(max_examples=150, deadline=None)
def test_floor_passed_to_an_inner_amplifier_is_sound(inst, data):
    # the inner floor is the outer incumbent less what the small set covers
    # itself, so it never exceeds what the outer run finally returns, and
    # an inner result that it changes lies below it
    banned = data.draw(st.integers(0, (1 << inst.n) - 1))
    covered = data.draw(st.integers(0, inst._full_mask))
    inner = build_solver(ALG2_BASES["alg2_greedy"])
    for budget in range(inst.n - banned.bit_count() + 1):
        base = _RecordingBase(inner)
        value = _alg2_masked(inst, 3, base, banned, covered, budget)[1]
        for args, floor, got in base.calls:
            if floor is None:
                continue
            ws = inst.mask_weight(args[2] & ~covered)
            assert floor + ws <= value
            assert got == inner.run_masked(*args) or got[1] < floor


def _lp_twins(inst, k):
    """Two fresh copies of `inst` at budget k: the first holds its root flow
    whatever its size, so alg2's LP cut runs on it; the second holds none,
    so the cut never runs on it."""
    cut, ref = inst.with_budget(k), inst.with_budget(k)
    cut._flow, ref._flow = root_flow(cut), False
    return cut, ref


@given(alg2_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_masked_alg2_matches_pooled_reference_with_the_lp_cut(case, data):
    # the flow is taken at a drawn k and serves every budget
    inst, banned, covered, c, base = case
    cut, ref = _lp_twins(inst, data.draw(st.integers(0, inst.n - 1)))
    for budget in range(inst.n - banned.bit_count() + 1):
        got = _alg2_masked(cut, c, base, banned, covered, budget)
        want = _pooled_alg2(ref, c, base, banned, covered, budget)
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1] == want[1] and type(got[1]) is type(want[1])


@given(weighted_instances(max_side=6), st.data())
@settings(max_examples=150, deadline=None)
def test_alg2_and_ptas_floors_with_the_lp_cut(inst, data):
    # as without the cut: a floor at or below the free value leaves the run
    # as it is, and above it the run returns a full-size set below it
    banned = data.draw(st.integers(0, (1 << inst.n) - 1))
    covered = data.draw(st.integers(0, inst._full_mask))
    cut, ref = _lp_twins(inst, data.draw(st.integers(0, inst.n - 1)))
    base = greedy_solver()
    for budget in range(inst.n - banned.bit_count() + 1):
        free = _alg2_masked(ref, 3, base, banned, covered, budget)
        for floor in (free[1] - 1, free[1], free[1] + 1):
            got = _alg2_masked(cut, 3, base, banned, covered, budget, floor)
            if floor <= free[1]:
                assert got == free and type(got[1]) is type(free[1])
            else:
                assert got[1] < floor and got[0].bit_count() == budget
    # ptas's inner levels run masked on the same instance and its flow
    ptas = build_solver(PTAS_GREEDY)
    budget = data.draw(st.integers(0, min(4, inst.n - banned.bit_count())))
    free = ptas.run_masked(ref, banned, covered, budget)
    for floor in (-1, free[1], free[1] + 1):
        got = ptas.run_masked(cut, banned, covered, budget, floor)
        if floor <= free[1]:
            assert got == free and type(got[1]) is type(free[1])
        else:
            assert got[1] < floor and got[0].bit_count() == budget


@given(weighted_instances(max_side=4), st.data())
@settings(max_examples=150, deadline=None)
def test_floor_passed_to_an_inner_amplifier_is_sound_with_the_lp_cut(inst,
                                                                      data):
    banned = data.draw(st.integers(0, (1 << inst.n) - 1))
    covered = data.draw(st.integers(0, inst._full_mask))
    cut, ref = _lp_twins(inst, data.draw(st.integers(0, inst.n - 1)))
    inner = build_solver(ALG2_BASES["alg2_greedy"])
    for budget in range(inst.n - banned.bit_count() + 1):
        base = _RecordingBase(inner)
        got = _alg2_masked(cut, 3, base, banned, covered, budget)
        assert got == _alg2_masked(ref, 3, inner, banned, covered, budget)
        for args, floor, run in base.calls:
            if floor is None:
                continue
            ws = cut.mask_weight(args[2] & ~covered)
            assert floor + ws <= got[1]
            assert run == inner.run_masked(ref, *args[1:]) or run[1] < floor


def _seeded_instance(seed, n, k, density):
    """Sides n//2 and n - n//2 with round(density * n_left * n_right)
    distinct edges drawn uniformly and weights in [1, 100], as the
    benchmark's weighted workloads draw them."""
    rng = random.Random(seed)
    nl, nr = n // 2, n - n // 2
    picks = sorted(rng.sample(range(nl * nr), round(density * nl * nr)))
    edges = [(e // nr, e % nr, rng.randint(1, 100)) for e in picks]
    return BipartiteInstance(nl, nr, edges, k)


# (kind, seed, n, k, density) -> (vertex ids, value) of alg2 over greedy and
# of ptas at eps 1/10, depth 2.  The benchmark digests reach only n <= 34
# for alg2 and n <= 16 for ptas, short of the small-set search's deeper
# paths and of the floors that nested levels hand down
PINNED_MODERATE_N = {
    ("alg2", 1, 60, 8, 0.3): ((0, 7, 17, 29, 35, 42, 57, 59), 5531),
    ("alg2", 2, 60, 10, 0.3): ((0, 1, 8, 12, 17, 22, 24, 26, 28, 35), 6756),
    ("alg2", 3, 100, 8, 0.3): ((10, 19, 21, 30, 39, 46, 47, 48), 8745),
    ("alg2", 4, 100, 10, 0.2): ((3, 6, 12, 13, 24, 33, 52, 53, 80, 97), 7449),
    ("alg2", 8, 200, 10, 0.2):
        ((2, 9, 10, 22, 60, 137, 142, 159, 173, 181), 14167),
    ("alg2", 10, 300, 10, 0.2):
        ((16, 58, 88, 95, 124, 132, 167, 198, 199, 293), 21795),
    ("ptas", 5, 40, 6, 0.3): ((20, 21, 28, 31, 34, 38), 2956),
    ("ptas", 6, 40, 8, 0.3): ((9, 16, 18, 19, 20, 27, 28, 34), 3333),
    ("ptas", 7, 40, 7, 0.25): ((1, 2, 10, 14, 16, 23, 36), 3042),
}


def test_alg2_and_ptas_outputs_pinned_at_moderate_n():
    solvers = {"alg2": build_solver(ALG2_BASES["alg2_greedy"]),
               "ptas": build_solver(PTAS_GREEDY)}
    for (kind, seed, n, k, density), (ids, value) in PINNED_MODERATE_N.items():
        inst = _seeded_instance(seed, n, k, density)
        sol = solvers[kind].run(inst)
        got = tuple(inst.vertex_id(r) for r in sol.sorted_vertices())
        assert (got, sol.covered_weight) == (ids, value), (kind, seed)


def test_ptas_searches_nothing_below_an_exact_inner_run(monkeypatch):
    # the outer amplifier's inner alg2 is exact up to c = 3, and the inner
    # one's greedy at one pick, so neither extends a small set with that
    # many picks left; without that cut the solve made 243 alg2 calls
    import mkvc.solvers as solvers
    calls, searches = [], []
    alg2, start = solvers._alg2_masked, solvers._search_start
    monkeypatch.setattr(solvers, "_alg2_masked", lambda *args, **kwargs: (
        calls.append(args) or alg2(*args, **kwargs)))
    monkeypatch.setattr(solvers, "_search_start", lambda *args: (
        searches.append(args) or start(*args)))
    inst = _seeded_instance(7, 14, 5, 0.3)
    sol = build_solver(PTAS_GREEDY).run(inst)
    assert sol.covered_weight == 659
    assert len(calls) == 109
    # over greedy at budget 1, the greedy run is the answer
    for budget in (1, 2):
        searches.clear()
        got = _alg2_masked(inst, 3, greedy_solver(), 0, 0, budget)
        assert got == _exact_flat(inst, 0, 0, budget)
        assert len(searches) == (budget == 2)


class _GreedyPathLog:
    """Wraps `_alg2_masked` and the greedy pick loop through their module
    globals.  Within each alg2 call over greedy it records the direct run's
    set (the pick loop at the call's full budget) and the full vertex set
    of every completion that ran to the end (a pick loop at a smaller
    budget, from a state whose negative gains are the banned vertices and
    the small set)."""

    def __init__(self, monkeypatch):
        import mkvc.solvers as solvers
        self.frames = []
        self.completed = 0
        alg2, picks = solvers._alg2_masked, solvers._greedy_picks
        alg2_args = inspect.signature(alg2).bind
        picks_args = inspect.signature(picks).bind

        def logged_alg2(*args, **kwargs):
            a = alg2_args(*args, **kwargs).arguments
            over_greedy = a["base"].spec.kind is SolverKind.GREEDY
            self.frames.append((over_greedy, a["banned"], a["budget"], [], []))
            try:
                got = alg2(*args, **kwargs)
            finally:
                frame = self.frames.pop()
            if over_greedy:
                self.check(*frame[3:])
            return got

        def logged_picks(*args, **kwargs):
            if not self.frames or not self.frames[-1][0]:
                return picks(*args, **kwargs)
            _, banned, budget, direct, ends = self.frames[-1]
            a = picks_args(*args, **kwargs).arguments
            start = sum(1 << v for v, g in enumerate(a["gains"]) if g < 0)
            got = picks(*args, **kwargs)
            if got is not None:
                full = (start & ~banned) | got[0]
                (direct if a["budget"] == budget else ends).append(full)
            return got

        monkeypatch.setattr(solvers, "_alg2_masked", logged_alg2)
        monkeypatch.setattr(solvers, "_greedy_picks", logged_picks)

    def check(self, direct, ends):
        assert len(direct) == 1
        assert direct[0] not in ends
        assert len(set(ends)) == len(ends)
        self.completed += len(ends)


def test_alg2_over_greedy_walks_each_greedy_path_once(monkeypatch):
    # greedy's pick rule is deterministic, so two completions that meet a
    # set end alike; the second stops there and offers nothing
    log = _GreedyPathLog(monkeypatch)
    alg2 = build_solver(ALG2_BASES["alg2_greedy"])
    for (kind, seed, n, k, density), (ids, value) in PINNED_MODERATE_N.items():
        if kind == "alg2":
            sol = alg2.run(_seeded_instance(seed, n, k, density))
            assert sol.covered_weight == value
    assert log.completed > 0


@given(alg2_cases())
@settings(max_examples=200, deadline=None)
def test_alg2_over_greedy_walks_each_greedy_path_once_on_masked_runs(case):
    import mkvc.solvers as solvers
    inst, banned, covered, c, base = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        _GreedyPathLog(monkeypatch)
        for budget in range(inst.n - banned.bit_count() + 1):
            solvers._alg2_masked(inst, c, base, banned, covered, budget)


@pytest.mark.parametrize("seed", range(12))
def test_alg2_floor_changes_only_results_below_it_on_deeper_paths(seed):
    # n = 24-40, where greedy completions run long enough to stop early
    rng = random.Random(seed)
    n = rng.randint(24, 40)
    inst = _seeded_instance(seed, n, 0, rng.choice([0.2, 0.3]))
    banned = sum(1 << v for v in range(n) if rng.random() < 0.2)
    covered = sum(1 << e for e in range(inst.m) if rng.random() < 0.3)
    free_ids = n - banned.bit_count()
    base = greedy_solver()
    for budget in (rng.randint(1, 3), rng.randint(4, 7), rng.randint(8, 10)):
        budget = min(budget, free_ids)
        free = _alg2_masked(inst, 3, base, banned, covered, budget, floor=-1)
        for floor in (free[1] - 1, free[1], free[1] + 1):
            got = _alg2_masked(inst, 3, base, banned, covered, budget, floor)
            if floor <= free[1]:
                assert got == free and type(got[1]) is type(free[1])
            else:
                assert got[1] < floor and got[0].bit_count() == budget


@given(st.integers(1, 12), st.data())
@settings(max_examples=300, deadline=None)
def test_lex_order_of_equal_size_masks_is_lowest_differing_id(size, data):
    ids = st.lists(st.integers(0, 40), min_size=size, max_size=size,
                   unique=True)
    a = sum(1 << v for v in data.draw(ids))
    b = sum(1 << v for v in data.draw(ids))
    def ids(mask):
        return [v for v in range(mask.bit_length()) if mask >> v & 1]

    assert _lex_less(a, b) == (ids(a) < ids(b))


def test_semiregular_is_rejected_as_a_base():
    # deleting a vertex breaks regularity, so the closed form has no
    # masked run to build on
    for kind in (SolverKind.ALG1, SolverKind.ALG2, SolverKind.PTAS):
        spec = SolverSpec(kind, base=SolverSpec(SolverKind.SEMI_REGULAR),
                          epsilon=Fraction(1, 10))
        with pytest.raises(MkvcError, match="cannot be a base"):
            build_solver(spec)
    semi = build_solver(SolverSpec(SolverKind.SEMI_REGULAR))
    inst = BipartiteInstance(3, 3, [(i, j, 1) for i in range(3)
                                    for j in range(3)], 2)
    assert semi.run(inst).covered_weight == 6
    for run in (lambda: solve_alg1(inst, 1, semi),
                lambda: solve_alg2(inst, 3, semi),
                lambda: solve_ptas(inst, Fraction(1, 10), semi, 2)):
        with pytest.raises(MkvcError, match="cannot be a base"):
            run()


def test_rated_ptas_builds_its_chain_once(monkeypatch):
    import mkvc.solvers
    calls = []
    chain = mkvc.solvers._ptas_chain
    monkeypatch.setattr(mkvc.solvers, "_ptas_chain",
                        lambda *a: calls.append(a) or chain(*a))
    solver = build_solver(SolverSpec(SolverKind.PTAS, epsilon=Fraction(1, 5),
                                     base=SolverSpec(SolverKind.GREEDY)))
    inst = BipartiteInstance(3, 3, [(i, j, 1 + i + j) for i in range(3)
                                    for j in range(3)], 2)
    sol = solver.run(inst)
    assert solver.run_masked(inst, 0, 0, 2)[0] == solver.chain[0].run_masked(
        inst, 0, 0, 2)[0]
    assert len(calls) == 1
    want = solve_ptas(inst, Fraction(1, 5), greedy_solver(), 2)
    assert sol == want and sol.meta == want.meta


# -- rated solver plumbing ----------------------------------------------------------

def _least_bound(rho):
    # what one amplifier pass proves: the least of its case bounds
    return min(improve_ratio(rho), *secondary_bounds(rho))


def test_build_solver_rhos():
    assert build_solver(SolverSpec(SolverKind.GREEDY)).rho == GREEDY_RHO
    assert build_solver(SolverSpec(SolverKind.EXACT)).rho == 1
    amp = build_solver(SolverSpec(SolverKind.ALG2,
                                  base=SolverSpec(SolverKind.GREEDY)))
    assert amp.rho == _least_bound(GREEDY_RHO) == Fraction(72409, 109197)
    assert amp.rho < improve_ratio(GREEDY_RHO)
    sch = build_solver(SolverSpec(SolverKind.PTAS,
                                  base=SolverSpec(SolverKind.GREEDY),
                                  epsilon=Fraction(1, 5)))
    # the schedule from greedy to 4/5 is longer than max_depth=2, so the
    # guarantee is that of the two passes that run, not 1 - epsilon
    assert sch.rho == _least_bound(_least_bound(GREEDY_RHO)) < Fraction(4, 5)
    ten = build_solver(SolverSpec(SolverKind.PTAS,
                                  base=SolverSpec(SolverKind.GREEDY),
                                  epsilon=Fraction(1, 10)))
    assert ten.rho == Fraction(40803, 59197)
    assert build_solver(SolverSpec(SolverKind.PTAS,
                                   base=SolverSpec(SolverKind.EXACT),
                                   epsilon=Fraction(1, 10))).rho == 1
    # no proven guarantee: see test_star_defeats_topside_and_alg1
    top = SolverSpec(SolverKind.TOP_SIDE)
    assert build_solver(top).rho is None
    for base in (SolverSpec(SolverKind.GREEDY), SolverSpec(SolverKind.EXACT)):
        assert build_solver(SolverSpec(SolverKind.ALG1, x_size=1,
                                       base=base)).rho is None
    assert build_solver(SolverSpec(SolverKind.ALG2, base=top)).rho is None


# every solver with a rho, built once: greedy, exact, alg2 over each rated
# base, and ptas at eps 1/10 with depth caps 1 and 2
RATED_SOLVERS = [solver for solver in (
    build_solver(SolverSpec(SolverKind.GREEDY)),
    build_solver(SolverSpec(SolverKind.EXACT)),
    *(build_solver(SolverSpec(SolverKind.ALG2, base=base))
      for base in ALG2_BASES.values()),
    *(build_solver(SolverSpec(SolverKind.PTAS, base=SolverSpec(
        SolverKind.GREEDY), epsilon=Fraction(1, 10), max_depth=depth))
      for depth in (1, 2))) if solver.rho is not None]


@given(weighted_instances(max_side=6), st.data())
@settings(max_examples=300, deadline=None)
def test_every_rated_solver_reaches_its_rho(inst, data):
    inst = inst.with_budget(data.draw(st.integers(0, inst.n - 1)))
    opt = solve_exact(inst).covered_weight
    for solver in RATED_SOLVERS:
        value = solver.run(inst).covered_weight
        rho = solver.rho
        assert value * rho.denominator >= rho.numerator * opt, solver.label()


@pytest.mark.parametrize("spec", [
    SolverSpec(SolverKind.TOP_SIDE),
    SolverSpec(SolverKind.ALG1, x_size=1, base=SolverSpec(SolverKind.GREEDY)),
], ids=["topside", "alg1"])
def test_star_defeats_topside_and_alg1(spec):
    # L0-L4 joined to R0 and L5 to R1, k = 1: R0 covers 5, but either run
    # takes L0 and covers 1/5 of that, below 1/2 and below greedy's rho
    star = BipartiteInstance(6, 2, [(i, 0, 1) for i in range(5)]
                             + [(5, 1, 1)], 1)
    solver = build_solver(spec)
    assert solve_exact(star).covered_weight == 5
    assert solver.run(star).vertices == {L(0)}
    assert solver.rho is None


@pytest.mark.parametrize("spec,match", [
    (SolverSpec(SolverKind.PTAS, base=SolverSpec(SolverKind.GREEDY)),
     "ptas needs epsilon"),
    (SolverSpec(SolverKind.PTAS, base=SolverSpec(SolverKind.GREEDY),
                epsilon=Fraction(1, 10), max_depth=0), "max_depth"),
    (SolverSpec(SolverKind.PTAS, base=SolverSpec(SolverKind.EXACT),
                epsilon=Fraction(1)), "admissible"),
], ids=["no-epsilon", "depth-0", "exact-eps-1"])
def test_build_solver_rejects_bad_ptas_chains(spec, match):
    with pytest.raises(MkvcError, match=match):
        build_solver(spec)


def test_build_solver_rejects_negative_prefix():
    # a negative x_size would slice all but the last vertices of the side
    nested = SolverSpec(SolverKind.ALG2, base=SolverSpec(
        SolverKind.ALG1, x_size=-1, base=SolverSpec(SolverKind.GREEDY)))
    with pytest.raises(MkvcError, match="x_size=-1"):
        build_solver(nested)


def test_build_solver_requires_base():
    with pytest.raises(MkvcError, match="base"):
        build_solver(SolverSpec(SolverKind.ALG2))


def test_solver_labels():
    spec = SolverSpec(SolverKind.ALG2, base=SolverSpec(SolverKind.GREEDY), c=3)
    assert spec.label() == "alg2[c=3](greedy)"
    assert SolverSpec(SolverKind.TOP_SIDE, side=Side.RIGHT).label() == "topside[R]"
    greedy = SolverSpec(SolverKind.GREEDY)
    for side, tag in ((Side.LEFT, "L"), (Side.RIGHT, "R")):
        assert SolverSpec(SolverKind.ALG1, base=greedy, x_size=5,
                          side=side).label() == f"alg1[x=5,{tag}](greedy)"


def test_all_solvers_on_edgeless_instance():
    inst = BipartiteInstance(2, 2, [], 2)
    expect = frozenset({L(0), L(1)})
    for sol in (solve_greedy(inst), solve_exact(inst),
                solve_alg2(inst, 3, greedy_solver()),
                solve_semiregular_exact(inst)):
        assert sol.vertices == expect and sol.covered_weight == 0
    assert solve_top_side(inst, Side.LEFT).covered_weight == 0
