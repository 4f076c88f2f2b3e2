from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mkvc import (
    BipartiteInstance, MkvcError, Side, VertexRef, covered_weight,
    exact_solver, greedy_solver, residual, solve_alg1, solve_alg2,
    solve_exact, solve_greedy, solve_ptas, solve_semiregular_exact,
    solve_top_side,
)
from mkvc.solvers import _top_side_masked

L = lambda i: VertexRef(Side.LEFT, i)
R = lambda i: VertexRef(Side.RIGHT, i)


# -- construction -----------------------------------------------------------

def test_duplicate_edge_rejected():
    with pytest.raises(MkvcError, match="duplicate"):
        BipartiteInstance(2, 2, [(0, 0, 1), (0, 0, 2)], 1)


def test_budget_must_be_below_order():
    with pytest.raises(MkvcError, match="out of range"):
        BipartiteInstance(2, 2, [], 4)


def test_endpoint_range_checked():
    with pytest.raises(MkvcError, match="out of range"):
        BipartiteInstance(2, 2, [(2, 0, 1)], 1)


def test_weights_must_be_exact_and_nonnegative():
    with pytest.raises(MkvcError, match="negative"):
        BipartiteInstance(1, 1, [(0, 0, -1)], 1)
    with pytest.raises(MkvcError, match="exact"):
        BipartiteInstance(1, 1, [(0, 0, 0.5)], 1)
    inst = BipartiteInstance(1, 1, [(0, 0, Fraction(3, 4))], 1)
    assert inst.edges[0][2] == Fraction(3, 4)


def test_with_budget_shares_topology(k22):
    other = k22.with_budget(1)
    assert other.k == 1 and other.edges == k22.edges and k22.k == 2


# -- covered_weight ---------------------------------------------------------

def test_covered_weight_one_left_of_k22(k22):
    assert covered_weight(k22, {L(0)}) == 2


def test_covered_weight_empty_set(k22):
    assert covered_weight(k22, set()) == 0


def test_covered_weight_shared_right_vertex():
    inst = BipartiteInstance(2, 1, [(0, 0, 3), (1, 0, 5)], 1)
    assert covered_weight(inst, {R(0)}) == 8


def test_covered_weight_counts_each_edge_once(k22):
    assert covered_weight(k22, {L(0), R(0)}) == 3


def test_covered_weight_invalid_vertex(k22):
    with pytest.raises(MkvcError, match="vertex out of range"):
        covered_weight(k22, {L(5)})


# -- the per-shape ref table ------------------------------------------------

def test_refs_come_from_one_table_per_shape(k22):
    other = BipartiteInstance(2, 2, [(0, 0, 5)], 1)
    assert k22.all_refs() == [L(0), L(1), R(0), R(1)]
    assert all(k22.ref_of(v) is other.ref_of(v) for v in range(4))
    assert all(k22.vertex_id(k22.ref_of(v)) == v for v in range(4))


def test_ref_of_rejects_ids_outside_the_instance(k22):
    for vid in (-1, 4):
        with pytest.raises(MkvcError, match=f"vertex id {vid} out of range"):
            k22.ref_of(vid)


@given(st.data())
@settings(max_examples=120)
def test_plain_tuples_value_like_refs(data):
    inst = data.draw(instances())
    refs = data.draw(subset_strategy(inst))
    by_id = inst.cover_mask(inst.vertex_id(r) for r in refs)
    for form in ([(int(s), i) for s, i in refs], [(s, i) for s, i in refs],
                 [[int(s), i] for s, i in refs]):
        assert inst.cover_mask_of(form) == inst.cover_mask_of(refs) == by_id
    tuples = {(int(s), i) for s, i in refs}
    assert covered_weight(inst, tuples) == covered_weight(inst, refs)


@pytest.mark.parametrize("ref, text", [
    (VertexRef(Side.LEFT, 2), "VertexRef(side=<Side.LEFT: 0>, index=2)"),
    (VertexRef(Side.RIGHT, -1), "VertexRef(side=<Side.RIGHT: 1>, index=-1)"),
    ((0, 7), "(0, 7)"),
    ((1, 2), "(1, 2)"),
    ([1, 2], "[1, 2]"),
])
def test_out_of_range_refs_keep_their_error_text(k22, ref, text):
    for call in (lambda: covered_weight(k22, [L(0), ref]),
                 lambda: k22.cover_mask_of([ref]),
                 lambda: k22.vertex_id(ref)):
        with pytest.raises(MkvcError) as err:
            call()
        assert str(err.value) == f"vertex out of range: {text}"


def test_solver_outputs_hold_vertex_refs():
    inst = BipartiteInstance(3, 3, [(0, 0, 4), (0, 1, 1), (1, 1, 3),
                                    (1, 2, 2), (2, 0, 5), (2, 2, 1)], 2)
    k33 = BipartiteInstance(3, 3, [(i, j, 1) for i in range(3)
                                   for j in range(3)], 2)
    for sol in (solve_greedy(inst), solve_exact(inst),
                solve_top_side(inst, Side.RIGHT),
                solve_alg1(inst, 1, greedy_solver()),
                solve_alg2(inst, 3, greedy_solver()),
                solve_ptas(inst, Fraction(1, 10), exact_solver(), 1),
                solve_semiregular_exact(k33)):
        assert sol.vertices
        assert all(type(r) is VertexRef and type(r.side) is Side
                   for r in sol.vertices)


# -- residual ---------------------------------------------------------------

def test_residual_deletes_vertex_and_edges(k22):
    res = residual(k22, {L(0)}, 1)
    sub = res.instance
    assert (sub.n_left, sub.n_right, sub.m, sub.k) == (1, 2, 2, 1)


def test_residual_empty_set_is_identity(k22):
    sub = residual(k22, set(), k22.k).instance
    assert sub.edges == k22.edges
    assert (sub.n_left, sub.n_right, sub.k) == (2, 2, 2)


def test_residual_removing_all_rights_leaves_edgeless():
    star = BipartiteInstance(1, 4, [(0, j, 1) for j in range(4)], 1)
    res = residual(star, {R(j) for j in range(4)}, 0)
    assert res.instance.m == 0 and res.instance.n_right == 0


def test_residual_budget_range_checked(k22):
    with pytest.raises(MkvcError, match="out of range"):
        residual(k22, {L(0)}, 3)


def test_residual_lift_and_project_roundtrip():
    inst = BipartiteInstance(3, 3, [(i, j, 1) for i in range(3) for j in range(3)], 2)
    res = residual(inst, {L(1), R(0)}, 2)
    assert res.lift({L(1), R(1)}) == {L(2), R(2)}
    assert res.project({L(2), R(2)}) == {L(1), R(1)}
    with pytest.raises(MkvcError, match="deleted"):
        res.project({L(1)})


# -- single-side top-l ranking ------------------------------------------------
#
# The one ranking lives in the solvers (solve_top_side and the masked run it
# wraps); the budget k of the instance is the block size l.

def test_top_l_picks_largest_capacity():
    inst = BipartiteInstance(2, 2, [(0, 0, 3), (1, 0, 5), (1, 1, 1)], 1)
    assert solve_top_side(inst, Side.LEFT).vertices == {L(1)}


def test_top_l_zero_is_empty(k22):
    got = solve_top_side(k22.with_budget(0), Side.LEFT)
    assert got.vertices == frozenset() and got.covered_weight == 0


def test_top_l_whole_side(k22):
    got = solve_top_side(k22, Side.LEFT)
    assert got.vertices == {L(0), L(1)}
    assert got.covered_weight == covered_weight(k22, got.vertices) == 4


def test_top_l_clamps_oversized_request(k22):
    got = solve_top_side(k22.with_budget(3), Side.RIGHT)
    assert got.vertices == {R(0), R(1)}


def test_top_l_respects_already_covered():
    inst = BipartiteInstance(2, 2, [(0, 0, 3), (1, 0, 5), (1, 1, 1)], 1)
    covered = inst.cover_mask_of({R(0)})
    vm, gain, _ = _top_side_masked(inst, Side.LEFT, 1, 0, covered)
    assert vm == 1 << inst.vertex_id(L(1)) and gain == 1
    covered = inst.cover_mask_of({L(1)})
    vm, gain, _ = _top_side_masked(inst, Side.LEFT, 1, 0, covered)
    assert vm == 1 << inst.vertex_id(L(0)) and gain == 3


def test_top_l_negative_rejected(k22):
    # a caller picks the block size only through alg1's x_size
    with pytest.raises(MkvcError, match="x_size"):
        solve_alg1(k22, -1, greedy_solver())


# -- properties -------------------------------------------------------------

@st.composite
def instances(draw, max_side=5, max_w=6):
    nl = draw(st.integers(1, max_side))
    nr = draw(st.integers(1, max_side))
    edges = []
    for i in range(nl):
        for j in range(nr):
            if draw(st.booleans()):
                edges.append((i, j, draw(st.integers(0, max_w))))
    k = draw(st.integers(1, nl + nr - 1))
    return BipartiteInstance(nl, nr, edges, k)


def subset_strategy(inst):
    return st.sets(st.sampled_from(inst.all_refs()))


@given(st.data())
@settings(max_examples=120)
def test_coverage_monotone(data):
    inst = data.draw(instances())
    small = data.draw(subset_strategy(inst))
    extra = data.draw(subset_strategy(inst))
    assert covered_weight(inst, small) <= covered_weight(inst, small | extra)


@given(st.data())
@settings(max_examples=120)
def test_coverage_submodular(data):
    inst = data.draw(instances())
    small = data.draw(subset_strategy(inst))
    big = small | data.draw(subset_strategy(inst))
    v = data.draw(st.sampled_from(inst.all_refs()))
    if v in big:
        return
    gain_small = covered_weight(inst, small | {v}) - covered_weight(inst, small)
    gain_big = covered_weight(inst, big | {v}) - covered_weight(inst, big)
    assert gain_small >= gain_big


@given(st.data())
@settings(max_examples=80)
def test_top_l_matches_brute_force(data):
    from itertools import combinations
    inst = data.draw(instances(max_side=4))
    side = data.draw(st.sampled_from([Side.LEFT, Side.RIGHT]))
    size = inst.side_size(side)
    l = data.draw(st.integers(0, size))
    refs = [r for r in inst.all_refs() if r.side == side]
    best = max(covered_weight(inst, c) for c in combinations(refs, l))
    got = solve_top_side(inst.with_budget(l), side)
    assert covered_weight(inst, got.vertices) == got.covered_weight == best


@given(st.data())
@settings(max_examples=80)
def test_residual_coverage_additivity(data):
    inst = data.draw(instances())
    s = data.draw(st.sets(st.sampled_from(inst.all_refs()),
                          max_size=inst.n - 1))
    rest = [r for r in inst.all_refs() if r not in s]
    t = data.draw(st.sets(st.sampled_from(rest), max_size=max(0, len(rest) - 1))
                  if rest else st.just(set()))
    res = residual(inst, s, max(0, inst.n - len(s) - 1))
    assert covered_weight(inst, s | t) == (
        covered_weight(inst, s)
        + covered_weight(res.instance, res.project(t)))


@st.composite
def weighted_instances(draw):
    """Sparse instances whose weights are ints with 0, ints up to n**3
    (25 or more bit planes at n=300), Fractions with mixed denominators,
    Fractions with integral values, or none at all (m=0); m is any count,
    so mostly not a multiple of 8."""
    kind = draw(st.sampled_from(
        ["int", "scaled", "mixed_fraction", "integral_fraction", "edgeless"]))
    nl, nr = (150, 150) if kind == "scaled" else (draw(st.integers(1, 6)),
                                                   draw(st.integers(1, 6)))
    n = nl + nr
    if kind == "int":
        weights = st.integers(0, 9)
    elif kind == "scaled":
        weights = st.integers(0, n ** 3)
    elif kind == "mixed_fraction":
        weights = st.fractions(0, 7, max_denominator=30)
    else:
        weights = st.integers(0, 9).map(Fraction)
    m = 0 if kind == "edgeless" else draw(st.integers(1, min(40, nl * nr)))
    pairs = draw(st.lists(st.tuples(st.integers(0, nl - 1), st.integers(0, nr - 1)),
                          min_size=m, max_size=m, unique=True))
    edges = [(l, r, draw(weights)) for l, r in pairs]
    if kind == "scaled":
        edges[0] = (*pairs[0], n ** 3)
        assert (n ** 3).bit_length() >= 25
    return BipartiteInstance(nl, nr, edges, 1)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mask_weight_equals_naive_sum(data):
    inst = data.draw(weighted_instances())
    early_copy = inst.with_budget(0)
    masks = data.draw(st.lists(st.integers(0, inst._full_mask), min_size=1,
                               max_size=5))
    for mask in [0, inst._full_mask, *masks]:
        naive = sum(w for eid, (_, _, w) in enumerate(inst.edges)
                    if mask >> eid & 1)
        assert inst.mask_weight(mask) == naive
        assert early_copy.mask_weight(mask) == naive
        assert inst.with_budget(0).mask_weight(mask) == naive
