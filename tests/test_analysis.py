from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mkvc import (
    BipartiteInstance, MkvcError, Side, VertexRef, covered_weight,
    improve_ratio, improvement_gap, inverse_improve, minimum_claim_holds,
    prop1_sweep, ptas_schedule, secondary_bounds, solve_exact,
)
from mkvc.analysis import _verify_optimal
from mkvc.solvers import GREEDY_RHO

L = lambda i: VertexRef(Side.LEFT, i)
R = lambda i: VertexRef(Side.RIGHT, i)

GRID = [Fraction(i, 100) for i in range(1, 100)]


# -- ratio formulas ----------------------------------------------------------

def test_improve_ratio_fixed_point_at_one():
    assert improve_ratio(1) == 1


def test_improve_ratio_half():
    assert improve_ratio(Fraction(1, 2)) == Fraction(3, 5)


def test_improve_ratio_near_greedy_constant():
    r = improve_ratio(GREEDY_RHO)
    assert Fraction(67596, 100000) < r < Fraction(67598, 100000)


def test_improve_ratio_domain():
    with pytest.raises(MkvcError):
        improve_ratio(0)
    with pytest.raises(MkvcError):
        improve_ratio(Fraction(11, 10))


def test_strict_improvement_on_grid():
    assert all(improve_ratio(r) > r for r in GRID)


def test_gap_identity_exact_on_grid():
    for r in GRID:
        assert improve_ratio(r) - r == improvement_gap(r)
        assert improvement_gap(r) == (1 - r) ** 3 / (1 + (1 - r) ** 2)


def test_gap_strictly_decreasing():
    gaps = [improvement_gap(r) for r in GRID]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_secondary_bounds_values():
    assert secondary_bounds(1) == (1, 1)
    assert secondary_bounds(Fraction(1, 2)) == (Fraction(3, 5), Fraction(5, 9))


def test_minimum_claim_region():
    # exact boundary: the amplified ratio is the least of the three case
    # bounds exactly on [3/4, 1]; below that the third bound undercuts it
    assert all(minimum_claim_holds(Fraction(i, 100)) for i in range(75, 100))
    assert not any(minimum_claim_holds(Fraction(i, 100)) for i in range(1, 75))
    assert improve_ratio(Fraction(1, 4)) == Fraction(13, 25)
    b1, b2 = secondary_bounds(Fraction(1, 4))
    assert (b1, b2) == (Fraction(5, 11), Fraction(7, 19))
    assert Fraction(13, 25) > b1 and Fraction(13, 25) > b2


# -- schedule ----------------------------------------------------------------

def test_schedule_converged_start_needs_no_levels():
    s = ptas_schedule(Fraction(9, 10), Fraction(1, 10))
    assert s.convergence_count == 0 and s.iterations == 0


def test_schedule_one_step_case():
    s = ptas_schedule(Fraction(1, 2), Fraction(2, 5))
    assert s.convergence_count == 1
    assert s.levels[0] >= Fraction(3, 5) - Fraction(1, 10 ** 38)


def test_schedule_iteration_bound_at_greedy_rho():
    s = ptas_schedule(GREEDY_RHO, Fraction(1, 10))
    assert 262 <= s.iterations <= 264


def test_schedule_levels_strictly_increase_below_one():
    s = ptas_schedule(Fraction(3, 10), Fraction(1, 4))
    assert all(a < b for a, b in zip((s.rho0,) + s.levels, s.levels))
    assert all(0 < lv < 1 for lv in s.levels)
    assert s.levels[-1] >= Fraction(3, 4)


def test_schedule_convergence_within_bound_on_grid():
    for rnum in range(5, 95, 5):
        for enum_ in range(5, 50, 5):
            rho0, eps = Fraction(rnum, 100), Fraction(enum_, 100)
            if not eps < 1 - rho0:
                continue
            s = ptas_schedule(rho0, eps)
            assert s.convergence_count <= s.iterations


def test_schedule_epsilon_validation():
    with pytest.raises(MkvcError):
        ptas_schedule(Fraction(1, 2), 0)
    with pytest.raises(MkvcError):
        ptas_schedule(Fraction(1, 2), 1)


def test_fixed_point_inversion_accuracy():
    for enum_ in range(5, 50, 5):
        eps = Fraction(enum_, 100)
        err = abs(improve_ratio(inverse_improve(eps)) - (1 - eps))
        assert err <= Fraction(1, 10 ** 12)


# -- remaining-optimum check -------------------------------------------------

def test_prop1_empty_subset(k22):
    # an empty O is optimal only when nothing can be covered; then X = {} is
    # the one subset checked
    assert prop1_sweep(BipartiteInstance(2, 2, [], 1), frozenset(), 0)
    opt = solve_exact(k22)
    assert prop1_sweep(k22, opt.vertices, opt.covered_weight)


def test_prop1_k22_half(k22):
    opt = solve_exact(k22)
    assert len(opt.vertices) == 2
    assert prop1_sweep(k22, opt.vertices, opt.covered_weight)


def test_prop1_skewed_private_weights():
    # the heavy member privately holds far more than the worst share; the
    # inequality and partition forms must still hold for every X
    inst = BipartiteInstance(2, 2, [(0, 0, 10), (1, 1, 1)], 2)
    o = solve_exact(inst)
    assert prop1_sweep(inst, o.vertices, o.covered_weight)


_K22 = BipartiteInstance(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)],
                         2)
# L0-R0, L0-R1 and L1-R0: {L0, R0} covers all 3, and L0 privately holds
# edge 1 (mask 0b010), R0 edge 2 (0b100)
_PATH = BipartiteInstance(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1)], 2)


@pytest.mark.parametrize("inst, O, opt, shifts", [
    # disjoint covers: cov(L1) one lower falls below opt - cov(L0); here
    # the partition restates the inequality, so both fail
    (_K22, [L(0), L(1)], 4, {0b1100: -1}),
    # the private part of L0 is no table entry, so only the partition fails
    (_PATH, [L(0), R(0)], 3, {0b010: 1}),
    # private parts valued above the covers that hold them: the partition
    # holds at every X and only the inequality fails
    (_PATH, [L(0), R(0)], 3, {0b011: -1, 0b101: -1, 0b010: 1, 0b100: 1}),
], ids=["inequality", "partition", "inequality-alone"])
def test_prop1_sweep_fails_when_a_clause_fails(monkeypatch, inst, O, opt,
                                              shifts):
    assert prop1_sweep(inst, O, opt) is True
    # O's full cover stays exact, so O still passes as optimal
    exact = BipartiteInstance.mask_weight
    monkeypatch.setattr(BipartiteInstance, "mask_weight",
                        lambda self, mask: exact(self, mask)
                        + shifts.get(mask, 0))
    assert prop1_sweep(inst, O, opt) is False


def test_prop1_sweep_rejects_more_than_20_members():
    # a 21-edge perfect matching: the left side is optimal at k = 21
    inst = BipartiteInstance(21, 21, [(i, i, 1) for i in range(21)], 21)
    with pytest.raises(MkvcError, match="too large for subset enumeration"):
        prop1_sweep(inst, [L(i) for i in range(21)], 21)


def test_prop1_sweep_small_instances():
    from mkvc.corpus import unweighted_instance
    for gmask in range(1, 2 ** 6, 3):
        inst = unweighted_instance(2, 3, gmask, 2)
        sol = solve_exact(inst)
        assert prop1_sweep(inst, sol.vertices, sol.covered_weight)


def _combo_prop1(inst, O, opt) -> bool:
    """Reference for prop1_sweep: the same three checks, with every subset
    of each size enumerated by `combinations` and every cover rebuilt."""
    refs = _verify_optimal(inst, O, opt)
    ordered = sorted(refs)
    cov_all = inst.cover_mask_of(refs)
    if inst.mask_weight(cov_all) != opt:
        return False
    masks = [inst.cover_mask_of([r]) for r in ordered]

    for size in range(len(ordered) + 1):
        worst = None
        combos = []
        for comb in combinations(range(len(ordered)), size):
            m = 0
            for i in comb:
                m |= masks[i]
            w = inst.mask_weight(m)
            combos.append((comb, m, w))
            if worst is None or w < worst:
                worst = w
        for comb, m, w in combos:
            rest = 0
            chosen = set(comb)
            for i in range(len(ordered)):
                if i not in chosen:
                    rest |= masks[i]
            w_rest = inst.mask_weight(rest)
            if w_rest < opt - w:
                return False
            if inst.mask_weight(m & ~rest) + w_rest != opt:
                return False
            if w == worst and w_rest < opt - worst:
                return False
    return True


@st.composite
def prop1_instances(draw):
    """Small graphs with int, all-zero, uniform or mixed int and Fraction
    weights, at any budget 0 <= k < n (k = 0 gives |O| = 0)."""
    kind = draw(st.sampled_from(["int", "zero", "uniform", "mixed_fraction"]))
    nl, nr = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if kind == "int":
        weights = st.integers(0, 9)
    elif kind == "zero":
        weights = st.just(0)
    elif kind == "uniform":
        weights = st.just(draw(st.integers(1, 5)))
    else:
        weights = st.one_of(st.integers(0, 6),
                            st.fractions(0, 6, max_denominator=12))
    edges = [(i, j, draw(weights)) for i in range(nl) for j in range(nr)
             if draw(st.booleans())]
    return BipartiteInstance(nl, nr, edges, draw(st.integers(0, nl + nr - 1)))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_prop1_subset_dp_matches_combinations(data):
    inst = data.draw(prop1_instances())
    sol = solve_exact(inst)
    opt = sol.covered_weight
    assert prop1_sweep(inst, sol.vertices, opt) is True
    assert _combo_prop1(inst, sol.vertices, opt) is True

    refs = inst.all_refs()
    other = data.draw(st.sets(st.sampled_from(refs), max_size=inst.k))
    if covered_weight(inst, other) < opt:
        for check in (prop1_sweep, _combo_prop1):
            with pytest.raises(MkvcError, match="not optimal"):
                check(inst, other, opt)
    # k < n, so some vertex lies outside O
    bigger = set(sol.vertices) | {data.draw(st.sampled_from(
        [r for r in refs if r not in sol.vertices]))}
    for check in (prop1_sweep, _combo_prop1):
        with pytest.raises(MkvcError, match="larger than the budget"):
            check(inst, bigger, opt)
