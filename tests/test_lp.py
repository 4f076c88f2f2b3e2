import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import mkvc.solvers as solvers
from mkvc import BipartiteInstance, build_solver, greedy_solver, solve_exact
from mkvc.corpus import random_weighted_corpus, rational_corpus
from mkvc.lp import root_flow
from mkvc.solvers import SolverKind, SolverSpec, _alg2_masked


@st.composite
def lp_cases(draw, max_side=5):
    """An instance with int or Fraction weights (density 0 gives m = 0) at
    a drawn budget, with random banned vertices and covered edges."""
    nl = draw(st.integers(1, max_side))
    nr = draw(st.integers(1, max_side))
    weights = draw(st.sampled_from([st.integers(0, 9),
                                    st.fractions(0, 5, max_denominator=12)]))
    density = draw(st.sampled_from([0, 3, 7, 10]))
    edges = [(i, j, draw(weights)) for i in range(nl) for j in range(nr)
             if draw(st.integers(0, 9)) < density]
    inst = BipartiteInstance(nl, nr, edges, draw(st.integers(0, nl + nr - 1)))
    banned = draw(st.integers(0, (1 << inst.n) - 1))
    covered = draw(st.integers(0, inst._full_mask))
    return inst, banned, covered


def _best_covers(inst, allowed):
    """g[j], the largest weight any j allowed vertices cover, j = 0 ... n."""
    return [max(inst.mask_weight(inst.cover_mask(sub))
                for sub in combinations(allowed, j))
            for j in range(len(allowed) + 1)]


def _hull_at(g, k):
    """The upper concave hull of the points (j, g[j]), at k."""
    return max(g[a] + Fraction(g[b] - g[a], b - a) * (k - a) if a < b
               else Fraction(g[a])
               for a in range(k + 1) for b in range(k, len(g)))


@given(lp_cases())
@settings(max_examples=200, deadline=None)
def test_lp_value_is_the_hull_of_the_best_covers_at_k(case):
    inst, _, _ = case
    flow = root_flow(inst)
    assert flow.value == _hull_at(_best_covers(inst, range(inst.n)), inst.k)
    assert flow.k == inst.k and flow.lam >= 0
    assert flow.lam_scaled == flow.lam * flow.scale
    # a feasible flow: within each edge's weight, at most lam* through a
    # vertex, and the slack is what each edge has left
    through = [0] * inst.n
    for e, (l, r, w) in enumerate(inst.edges):
        assert 0 <= flow.flow[e] <= flow.scale * w
        assert flow.slack[e] == flow.scale * w - flow.flow[e]
        through[l] += flow.flow[e]
        through[inst.n_left + r] += flow.flow[e]
    assert flow.through == through
    assert max(through, default=0) <= flow.lam_scaled
    # the bound of the empty set at budget k is B itself
    assert flow.offset(0, inst.k) == flow.value * flow.scale


@given(lp_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_lp_bound_caps_every_budget_set_holding_a_small_set(case, data):
    # the bound of U, and its bound before U's last member's edges are
    # walked, against the best new cover of a budget-set holding U
    inst, banned, covered = case
    allowed = [v for v in range(inst.n) if not banned >> v & 1]
    budget = data.draw(st.integers(0, len(allowed)))
    flow = root_flow(inst)
    base = flow.offset(covered, budget)
    best = {}
    for t in combinations(allowed, budget):
        w = inst.mask_weight(inst.cover_mask(t) & ~covered)
        for size in range(min(3, budget) + 1):
            for u in combinations(t, size):
                best[u] = max(best.get(u, w), w)

    def new_flow(u):
        cover = inst.cover_mask(u) & ~covered
        return sum(f for e, f in enumerate(flow.flow) if cover >> e & 1)

    for u, w in best.items():
        bound = base - flow.lam_scaled * len(u) + new_flow(u)
        assert bound >= w * flow.scale
        if u:
            before = (base - flow.lam_scaled * len(u) + new_flow(u[:-1])
                      + flow.through[u[-1]])
            assert before >= bound


@pytest.mark.parametrize("corpus", [random_weighted_corpus, rational_corpus])
def test_lp_value_is_at_least_the_optimum_on_the_seeded_corpora(corpus):
    for name, inst in corpus():
        assert root_flow(inst).value >= solve_exact(inst).covered_weight, name


def test_root_flow_is_built_once_and_only_past_the_gate(monkeypatch):
    built = []
    monkeypatch.setattr(solvers, "root_flow",
                        lambda inst: built.append(inst) or root_flow(inst))
    alg2 = build_solver(SolverSpec(SolverKind.ALG2,
                                   base=SolverSpec(SolverKind.GREEDY)))
    # C(8, 4) = 70 k-subsets: no flow, as on every sweep pair
    small = BipartiteInstance(4, 4, [(i, j, 1 + i + j) for i in range(4)
                                     for j in range(4)], 4)
    alg2.run(small)
    assert built == [] and small._flow is False
    # C(12, 4) = 495: one flow, kept for every later run on the instance
    inst = BipartiteInstance(6, 6, [(i, j, 1 + (i * j) % 5) for i in range(6)
                                    for j in range(6)], 4)
    alg2.run(inst)
    alg2.run(inst)
    assert built == [inst] and inst._flow.k == 4
    # a copy at another budget starts without it
    assert inst.with_budget(5)._flow is None


def test_flow_and_alg2_on_a_path_longer_than_twice_the_recursion_limit():
    # a path L0-R0-L1-R1-... with rising weights: residual paths run along
    # it, so a recursive search would overflow
    n = 2 * sys.getrecursionlimit() + 3
    edges = [(i // 2 + i % 2, i // 2, i + 1) for i in range(n - 1)]
    inst = BipartiteInstance((n + 1) // 2, n // 2, edges, 3)
    flow = root_flow(inst)
    got = solvers.solve_alg2(inst, 3, greedy_solver())
    assert inst._flow == flow
    assert solvers.solve_greedy(inst).covered_weight <= got.covered_weight
    assert got.covered_weight <= flow.value


@pytest.mark.parametrize("nl, nr, edges, k", [
    (3, 2, [], 2),                                          # no edges
    (3, 3, [(l, r, 0) for l in range(3) for r in range(3)], 4),  # all zero
    (2, 3, [(0, 0, 5), (0, 1, 1), (1, 2, 2)], 0),           # k = 0
    (2, 3, [(0, 0, 5), (0, 1, 1), (1, 2, 2), (1, 0, 3)], 4),  # k = n - 1
])
def test_degenerate_instances_with_the_lp_cut(nl, nr, edges, k):
    # the flow is put in place whatever the instance's size
    inst = BipartiteInstance(nl, nr, edges, k)
    flow = inst._flow = root_flow(inst)
    g = _best_covers(inst, range(inst.n))
    assert flow.value == _hull_at(g, k)
    base = greedy_solver()
    for budget in range(inst.n + 1):
        got = _alg2_masked(inst, 3, base, 0, 0, budget)
        assert got[1] == g[budget]
    # a masked call at budget 0 holds nothing and covers nothing new
    assert _alg2_masked(inst, 3, base, 1, inst._full_mask, 0) == (
        0, 0, inst._full_mask)
