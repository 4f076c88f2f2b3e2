"""Analytic quantities behind the solvers: optimal-subset coverage shares,
the single-pass ratio-amplification formula and its case bounds, and the
iteration schedule of the bootstrapped approximation scheme.

Everything is exact rational arithmetic except the square root inside the
closed-form iteration bound, which is evaluated with directed rounding so
the reported bound errs on the high (safe) side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import MkvcError
from .graph import BipartiteInstance, Side, covered_weight

_SQRT_SCALE = 10 ** 40
_MAX_LEVELS = 1_000_000


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def sqrt_bounds(x) -> tuple:
    """Rational lower/upper bounds of sqrt(x), each within 1/10**40."""
    x = _frac(x)
    if x < 0:
        raise MkvcError("square root of a negative value")
    s2 = _SQRT_SCALE * _SQRT_SCALE
    lo = math.isqrt(x.numerator * s2 // x.denominator)
    hi = math.isqrt(-((-x.numerator * s2) // x.denominator)) + 1
    return Fraction(lo, _SQRT_SCALE), Fraction(hi, _SQRT_SCALE)


def improve_ratio(rho) -> Fraction:
    """Guarantee of one amplification pass over a rho-approximate base:
    (rho + (1-rho)**2) / (1 + (1-rho)**2)."""
    rho = _frac(rho)
    if not 0 < rho <= 1:
        raise MkvcError("rho must lie in (0, 1]")
    u = 1 - rho
    return (rho + u * u) / (1 + u * u)


def improvement_gap(rho) -> Fraction:
    """Exact gap improve_ratio(rho) - rho == (1-rho)**3 / (1 + (1-rho)**2)."""
    rho = _frac(rho)
    u = 1 - rho
    return u ** 3 / (1 + u * u)


def secondary_bounds(rho) -> tuple:
    """The two other case bounds of the amplification analysis:
    (1+rho)/(3-rho) and (1+3*rho)/(5-rho)."""
    rho = _frac(rho)
    if not 0 < rho <= 1:
        raise MkvcError("rho must lie in (0, 1]")
    return (1 + rho) / (3 - rho), (1 + 3 * rho) / (5 - rho)


def minimum_claim_holds(rho) -> bool:
    """Whether improve_ratio(rho) is <= both secondary case bounds: true
    exactly on [3/4, 1], false below (13/25 > 5/11 at rho = 1/4)."""
    r = improve_ratio(rho)
    b1, b2 = secondary_bounds(rho)
    return r <= b1 and r <= b2


def cw_lower_bound(rho, r, c_x) -> Fraction:
    """Lower bound on the worst-subset coverage share implied by a ratio-r
    outcome of the prefix-removal pass: (rho - r + (1-rho)*c_x) / rho.
    May be negative, in which case the bound is vacuous."""
    rho, r, c_x = _frac(rho), _frac(r), _frac(c_x)
    if not 0 < rho <= 1:
        raise MkvcError("rho must lie in (0, 1]")
    if not 0 <= r <= 1 or not 0 <= c_x <= 1:
        raise MkvcError("r and c_x must lie in [0, 1]")
    return (rho - r + (1 - rho) * c_x) / rho


def inverse_improve(epsilon) -> Fraction:
    """The ratio whose amplification lands on 1-epsilon:
    (-(1-2*eps) + sqrt(1-4*eps**2)) / (2*eps).  Requires epsilon < 1/2.
    Accurate to about 10**-40."""
    eps = _frac(epsilon)
    if not 0 < eps < Fraction(1, 2):
        raise MkvcError("epsilon must lie in (0, 1/2) for the inversion")
    lo, hi = sqrt_bounds(1 - 4 * eps * eps)
    mid = (lo + hi) / 2
    return (-(1 - 2 * eps) + mid) / (2 * eps)


@dataclass(frozen=True)
class Schedule:
    """Amplification levels needed to lift rho0 to at least 1-epsilon.

    levels[i] is a proven lower bound (rounded down at 10**-40) on the
    guarantee after i+1 passes; iterations is the closed-form worst-case
    pass count, rounded up.  The actual convergence count len(levels) never
    exceeds iterations where the closed form is defined (epsilon < 1/2).
    """

    rho0: Fraction
    epsilon: Fraction
    levels: tuple
    iterations: int

    def __post_init__(self):
        prev = self.rho0
        for lv in self.levels:
            if not prev < lv < 1:
                raise MkvcError("schedule levels must increase strictly within (0,1)")
            prev = lv

    @property
    def convergence_count(self) -> int:
        return len(self.levels)


def ptas_schedule(rho0, epsilon) -> Schedule:
    """Build the level schedule from rho0 for a target of 1-epsilon.

    Levels iterate improve_ratio with directed downward rounding, so each
    stored level is a valid guarantee.  The closed-form pass bound
    2*eps*(1-eps-rho0) / (1 - 2*eps**2 - sqrt(1-4*eps**2)) is evaluated
    with an upper-rounded square root and then ceiled; for epsilon >= 1/2
    the expression is undefined and the convergence count is reported as
    the bound instead.
    """
    rho0, eps = _frac(rho0), _frac(epsilon)
    if not 0 < rho0 <= 1:
        raise MkvcError("rho0 must lie in (0, 1]")
    if not 0 < eps < 1:
        raise MkvcError("epsilon out of range")
    target = 1 - eps
    if rho0 >= target:
        return Schedule(rho0=rho0, epsilon=eps, levels=(), iterations=0)

    levels = []
    r = rho0
    while r < target:
        if len(levels) >= _MAX_LEVELS:
            raise MkvcError("schedule does not converge within the level cap")
        r = improve_ratio(r)
        r = Fraction(r.numerator * _SQRT_SCALE // r.denominator, _SQRT_SCALE)
        levels.append(r)

    if eps < Fraction(1, 2):
        numer = 2 * eps * (1 - eps - rho0)
        _, sq_hi = sqrt_bounds(1 - 4 * eps * eps)
        denom_low = 1 - 2 * eps * eps - sq_hi
        if denom_low <= 0:
            raise MkvcError("iteration bound lost to rounding; epsilon too close to 1/2")
        iterations = math.ceil(numer / denom_low)
    else:
        iterations = len(levels)
    return Schedule(rho0=rho0, epsilon=eps, levels=tuple(levels),
                    iterations=iterations)


@dataclass(frozen=True)
class SubsetStats:
    """Coverage shares of size-x subsets of a verified optimal set."""

    opt_value: object
    x_size: int
    best_subset: frozenset
    worst_subset: frozenset
    c_best: Fraction
    c_worst: Fraction
    alpha: Fraction


def _verify_optimal(inst: BipartiteInstance, O, opt=None):
    from .solvers import solve_exact

    refs = frozenset(O)
    if len(refs) > inst.k:
        raise MkvcError("candidate optimal set larger than the budget")
    value = covered_weight(inst, refs)
    if opt is None:
        opt = solve_exact(inst).covered_weight
    if value != opt:
        raise MkvcError("set is not optimal for this instance")
    return refs, opt


def subset_stats(inst: BipartiteInstance, O, x_size: int,
                 opt=None) -> SubsetStats:
    """Best and worst coverage shares over all x_size-subsets of the optimal
    set O, plus the left class's total coverage share.

    O is re-verified against the exhaustive oracle unless its value is
    passed in.  Enumeration is capped at |O| <= 20.
    """
    refs, opt = _verify_optimal(inst, O, opt)
    if len(refs) > 20:
        raise MkvcError("optimal set too large for subset enumeration")
    if not 0 <= x_size <= len(refs):
        raise MkvcError("x_size out of range")
    if opt == 0:
        raise MkvcError("coverage shares undefined: optimal value is zero")

    ordered = sorted(refs)
    best_v = worst_v = None
    best_s = worst_s = frozenset()
    for comb in combinations(ordered, x_size):
        v = inst.mask_weight(inst.cover_mask_of(comb))
        if best_v is None or v > best_v:
            best_v, best_s = v, frozenset(comb)
        if worst_v is None or v < worst_v:
            worst_v, worst_s = v, frozenset(comb)
    left_cov = inst.mask_weight(inst.cover_mask_of(
        r for r in refs if r.side == Side.LEFT))
    return SubsetStats(
        opt_value=opt, x_size=x_size,
        best_subset=best_s, worst_subset=worst_s,
        c_best=Fraction(best_v, opt), c_worst=Fraction(worst_v, opt),
        alpha=Fraction(left_cov, opt),
    )


def prop1_sweep(inst: BipartiteInstance, O, opt=None) -> bool:
    """Check the remaining-optimum identity for every subset X of an
    optimal set O.

    Verified facts, all in exact arithmetic, for each X:
      - coverage(O \\ X) >= opt - coverage(X)  (the inequality form);
      - partition: weight privately covered by X plus total coverage of
        O \\ X equals opt;
      - when X is a worst-|X| subset, coverage(O \\ X) is at least
        (1 - C_w(|X|)) * opt.

    The literal equality reading fails for arbitrary X (a best subset can
    privately hold more than the worst subset's share), so the inequality
    plus the partition identity is what is asserted.

    Subsets are bitmasks x over the members of O in sorted order.  The
    edge cover of every x is built once by the low-bit recurrence
    cov[x] = cov[x ^ low] | cover(member low) and valued once; the worst
    value of each size is read off that table, and the complement O \\ X
    is the entry at full ^ x.  O is re-verified against the exhaustive
    oracle unless its value is passed in.  Used by the verification
    harness."""
    refs, opt = _verify_optimal(inst, O, opt)
    masks = [inst.cover_mask_of([r]) for r in sorted(refs)]
    full = (1 << len(masks)) - 1
    cov = [0] * (full + 1)
    for x in range(1, full + 1):
        low = x & -x
        cov[x] = cov[x ^ low] | masks[low.bit_length() - 1]
    mask_weight = inst.mask_weight
    w = [mask_weight(m) for m in cov]
    if w[full] != opt:
        return False
    worst = [None] * (len(masks) + 1)
    for x, v in enumerate(w):
        size = x.bit_count()
        if worst[size] is None or v < worst[size]:
            worst[size] = v

    for x, v in enumerate(w):
        rest = cov[full ^ x]
        w_rest = w[full ^ x]
        if w_rest < opt - v:
            return False
        if mask_weight(cov[x] & ~rest) + w_rest != opt:
            return False
        worst_v = worst[x.bit_count()]
        if v == worst_v and w_rest < opt - worst_v:
            return False
    return True
