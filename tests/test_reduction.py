import math
import random
from fractions import Fraction

import pytest

from mkvc import (
    BipartiteInstance, MkvcError, covered_weight,
    ratio_transfer, scale_weights, solve_exact,
)
from mkvc.corpus import random_weighted_corpus, rational_corpus
from mkvc.reduction import MAX_SCALE_BITS


def test_scale_hand_computed_example():
    # order 4, ell=3 -> factor 64/w_max; weights (10, 7) -> (64, ceil(44.8) = 45)
    inst = BipartiteInstance(2, 2, [(0, 0, 10), (1, 1, 7)], 1)
    scaled, w_max = scale_weights(inst, 3)
    assert [w for _, _, w in scaled.edges] == [64, 45]
    assert w_max == 10


def test_scale_equal_weights_all_map_to_max():
    inst = BipartiteInstance(2, 2, [(0, 0, 7), (0, 1, 7), (1, 0, 7)], 1)
    scaled, _ = scale_weights(inst, 3)
    assert all(w == 4 ** 3 for _, _, w in scaled.edges)


def test_scale_keeps_zero_weights_zero():
    inst = BipartiteInstance(2, 2, [(0, 0, 5), (1, 1, 0)], 1)
    scaled, _ = scale_weights(inst, 3)
    assert scaled.edges[1][2] == 0


def test_scale_rejects_degenerate():
    with pytest.raises(MkvcError, match="degenerate"):
        scale_weights(BipartiteInstance(2, 2, [(0, 0, 0)], 1), 3)
    with pytest.raises(MkvcError, match="degenerate"):
        scale_weights(BipartiteInstance(2, 2, [], 1), 3)


def test_scale_rejects_small_ell():
    with pytest.raises(MkvcError) as exc:
        scale_weights(BipartiteInstance(2, 2, [(0, 0, 1)], 1), 2)
    assert str(exc.value) == "ell must be >= 3"


def test_scale_and_transfer_refuse_an_ell_past_the_bit_cap():
    # n = 4 has bit length 3: ell = 3333 passes the cap, 3334 does not
    inst = BipartiteInstance(2, 2, [(0, 0, 1)], 1)
    assert scale_weights(inst, MAX_SCALE_BITS // 3)[0].edges[0][2] == (
        4 ** (MAX_SCALE_BITS // 3))
    assert ratio_transfer(1, 4, MAX_SCALE_BITS // 3) < 1
    for ell in (MAX_SCALE_BITS // 3 + 1, 10 ** 18):
        with pytest.raises(MkvcError, match="too large"):
            scale_weights(inst, ell)
        with pytest.raises(MkvcError, match="too large"):
            ratio_transfer(1, 4, ell)


def test_scale_preserves_topology_and_budget():
    inst = BipartiteInstance(3, 2, [(0, 0, 2), (2, 1, 9)], 2)
    scaled, _ = scale_weights(inst, 4)
    assert [(l, r) for l, r, _ in scaled.edges] == [(0, 0), (2, 1)]
    assert scaled.k == 2 and scaled.n_left == 3 and scaled.n_right == 2


def test_scale_rational_weights_exact():
    inst = BipartiteInstance(2, 2, [(0, 0, Fraction(1, 3)), (1, 1, Fraction(1, 2))], 1)
    scaled, _ = scale_weights(inst, 3)
    # factor 64 / (1/2) = 128; 128 * 1/3 = 42.67 -> 43, 128 * 1/2 -> 64
    assert [w for _, _, w in scaled.edges] == [43, 64]


def test_ratio_transfer_values():
    assert ratio_transfer(1, 10, 3) == Fraction(39, 40)
    assert ratio_transfer(Fraction(9, 10), 2, 3) == Fraction(31, 40)


def test_ratio_transfer_approaches_rho_for_large_ell():
    rho = Fraction(4, 5)
    assert rho - ratio_transfer(rho, 3, 12) == Fraction(1, 4 * 3 ** 10)


def test_ratio_transfer_input_validation():
    with pytest.raises(MkvcError):
        ratio_transfer(1, 1, 3)
    with pytest.raises(MkvcError):
        ratio_transfer(1, 4, 2)


def test_scaled_weights_bounded_with_max_attained():
    corpora = (rational_corpus(count=25, seed=7)
               + random_weighted_corpus(count=25, seed=7))
    for _, inst in corpora:
        scaled, _ = scale_weights(inst, 3)
        ws = [w for _, _, w in scaled.edges]
        bound = inst.n ** 3
        w_max = max(w for _, _, w in inst.edges)
        assert ws == [
            math.ceil(Fraction(bound) * Fraction(w) / Fraction(w_max))
            for _, _, w in inst.edges]
        assert all(type(w) is int for w in ws)
        assert max(ws) == bound
        assert all(0 <= w <= bound for w in ws)


def test_overcount_bounded_by_edge_count():
    rng = random.Random(5)
    for _, inst in rational_corpus(count=20, seed=11):
        scaled, w_max = scale_weights(inst, 3)
        factor = Fraction(inst.n ** 3, 1) / Fraction(w_max)
        ids = rng.sample(range(inst.m), rng.randint(1, inst.m))
        diff = (sum(scaled.edges[e][2] for e in ids)
                - factor * sum(Fraction(inst.edges[e][2]) for e in ids))
        assert 0 <= diff <= len(ids)


def test_end_to_end_ratio_transfer_with_oracle():
    for _, inst in rational_corpus(count=30, seed=3):
        scaled, _ = scale_weights(inst, 3)
        chosen = solve_exact(scaled).vertices
        value = covered_weight(inst, chosen)
        opt = solve_exact(inst).covered_weight
        assert value >= ratio_transfer(1, inst.n, 3) * opt
