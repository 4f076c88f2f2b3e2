import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mkvc import (
    BipartiteInstance, MkvcError, Side, SolverKind, SolverSpec, VertexRef,
    build_solver, covered_weight, exact_solver, greedy_solver,
    guess_split_runner, residual, solve_alg1, solve_alg2, solve_exact,
    solve_greedy, solve_ptas, solve_semiregular_exact, solve_top_side,
)
from mkvc.generate import GenKind, GenSpec, generate
from mkvc.solvers import (
    GREEDY_RHO, _alg2_masked, _greedy_masked, _lex_less, _mask_solution,
    _pad_mask, _top_side_masked,
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
    inst = generate(GenSpec(kind=GenKind.GREEDY_ADVERSARIAL, k=3, seed=9))
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
    rng = random.Random(8)
    for _ in range(15):
        inst = random_instance(rng, max_side=4)
        c = max(3, inst.k)
        assert (solve_alg2(inst, c, greedy_solver()).covered_weight
                == solve_exact(inst).covered_weight)


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
    with pytest.warns(UserWarning):
        got = solve_ptas(inst, Fraction(1, 10), greedy_solver(), 1)
    want = solve_alg2(inst, 3, greedy_solver())
    assert got.vertices == want.vertices


def test_ptas_with_exact_base_is_optimal(k22):
    sol = solve_ptas(k22, Fraction(1, 10), exact_solver(), 3)
    assert sol.covered_weight == 4
    assert sol.meta["executed_depth"] == 0


def test_ptas_warns_when_depth_clamped(k22):
    with pytest.warns(UserWarning, match="falls short"):
        sol = solve_ptas(k22, Fraction(1, 100), greedy_solver(), 1)
    assert sol.meta["achieved_ratio_bound"] < sol.meta["target_ratio"]
    assert sol.meta["executed_depth"] == 1
    assert sol.meta["scheduled_depth"] > 1


def test_ptas_metadata_reports_schedule():
    inst = BipartiteInstance(3, 3, [(i, j, 1) for i in range(3) for j in range(3)], 2)
    with pytest.warns(UserWarning):
        sol = solve_ptas(inst, Fraction(1, 10), greedy_solver(), 2)
    assert sol.meta["iteration_bound"] == 263
    assert sol.meta["target_ratio"] == Fraction(9, 10)


def test_ptas_epsilon_range_checked(k22):
    with pytest.raises(MkvcError, match="admissible"):
        solve_ptas(k22, Fraction(1, 2), greedy_solver(), 1)
    with pytest.raises(MkvcError, match="admissible"):
        solve_ptas(k22, 0, greedy_solver(), 1)


def test_ptas_depth_two_dominates_depth_one():
    rng = random.Random(11)
    import warnings
    for _ in range(6):
        inst = random_instance(rng, max_side=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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
    from mkvc.corpus import semiregular_corpus
    for _, inst in semiregular_corpus(count=25, seed=40):
        assert (solve_semiregular_exact(inst).covered_weight
                == solve_exact(inst).covered_weight)


# -- split guessing ---------------------------------------------------------------

def test_guess_split_identity_when_inner_ignores_split(k22):
    sol = guess_split_runner(k22, lambda k1, k2: solve_greedy(k22))
    assert sol == solve_greedy(k22)


def test_guess_split_tries_every_split():
    calls = []
    inst = BipartiteInstance(2, 2, [(0, 0, 1)], 3)

    def inner(k1, k2):
        calls.append((k1, k2))
        return solve_greedy(inst)

    guess_split_runner(inst, inner)
    assert calls == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_guess_split_pools_both_sides():
    rng = random.Random(14)
    for _ in range(20):
        inst = random_instance(rng)

        def inner(k1, k2):
            left = solve_top_side(inst.with_budget(k1), Side.LEFT)
            right = solve_top_side(inst.with_budget(k2), Side.RIGHT)
            refs = left.vertices | right.vertices
            from mkvc import CoverSolution
            return CoverSolution(vertices=frozenset(refs),
                                 covered_weight=covered_weight(inst, refs))

        pooled = guess_split_runner(inst, inner).covered_weight
        single = max(solve_top_side(inst, Side.LEFT).covered_weight,
                     solve_top_side(inst, Side.RIGHT).covered_weight)
        assert pooled >= single


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


def _residual_alg1(inst, x_size, base, side):
    """Reference alg1 on an explicitly built residual instance: the top
    x_size vertices of one side (ranked here by a plain sort) are deleted
    with their edges, the base runs on the residual, and the union is
    padded to k with the lexicographically first unused vertices."""
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
    return _mask_solution(inst, vm)


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
                lambda: solve_alg2(inst, 3, semi)):
        with pytest.raises(MkvcError, match="cannot be a base"):
            run()


def test_rated_ptas_builds_its_schedule_once(monkeypatch):
    import mkvc.solvers
    calls = []
    schedule = mkvc.solvers.ptas_schedule
    monkeypatch.setattr(mkvc.solvers, "ptas_schedule",
                        lambda *a: calls.append(a) or schedule(*a))
    solver = build_solver(SolverSpec(SolverKind.PTAS, epsilon=Fraction(1, 5),
                                     base=SolverSpec(SolverKind.GREEDY)))
    inst = BipartiteInstance(3, 3, [(i, j, 1 + i + j) for i in range(3)
                                    for j in range(3)], 2)
    with pytest.warns(UserWarning, match="depth clamped"):
        sol = solver.run(inst)
    assert solver.run_masked(inst, 0, 0, 2)[0] == solver.chain[0].run_masked(
        inst, 0, 0, 2)[0]
    assert len(calls) == 1
    with pytest.warns(UserWarning, match="depth clamped"):
        want = solve_ptas(inst, Fraction(1, 5), greedy_solver(), 2)
    assert sol == want and sol.meta == want.meta


# -- rated solver plumbing ----------------------------------------------------------

def test_build_solver_rhos():
    assert build_solver(SolverSpec(SolverKind.GREEDY)).rho == GREEDY_RHO
    assert build_solver(SolverSpec(SolverKind.EXACT)).rho == 1
    amp = build_solver(SolverSpec(SolverKind.ALG2,
                                  base=SolverSpec(SolverKind.GREEDY)))
    from mkvc import improve_ratio
    assert amp.rho == improve_ratio(GREEDY_RHO)
    sch = build_solver(SolverSpec(SolverKind.PTAS,
                                  base=SolverSpec(SolverKind.GREEDY),
                                  epsilon=Fraction(1, 5)))
    # the schedule from greedy to 4/5 is longer than max_depth=2, so the
    # guarantee is that of the two passes that run, not 1 - epsilon
    assert sch.rho == improve_ratio(improve_ratio(GREEDY_RHO)) < Fraction(4, 5)


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


def test_all_solvers_on_edgeless_instance():
    inst = BipartiteInstance(2, 2, [], 2)
    expect = frozenset({L(0), L(1)})
    for sol in (solve_greedy(inst), solve_exact(inst),
                solve_alg2(inst, 3, greedy_solver()),
                solve_semiregular_exact(inst)):
        assert sol.vertices == expect and sol.covered_weight == 0
    assert solve_top_side(inst, Side.LEFT).covered_weight == 0
