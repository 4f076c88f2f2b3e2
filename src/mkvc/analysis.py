"""Analytic quantities behind the solvers: the single-pass
ratio-amplification formula and its case bounds, the iteration schedule of
the bootstrapped approximation scheme, and the remaining-optimum check over
the subsets of an optimal set.

Everything is exact rational arithmetic except the square root inside the
closed-form iteration bound, which is evaluated with directed rounding so
the reported bound errs on the high (safe) side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import MkvcError
from .graph import BipartiteInstance, covered_weight

# the grid that deep ratios are rounded down to: schedule levels, square
# roots and the guarantees of long amplifier chains
RATIO_SCALE = 10 ** 40
_MAX_LEVELS = 1_000_000


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _rho(x) -> Fraction:
    rho = _frac(x)
    if not 0 < rho <= 1:
        raise MkvcError("rho must lie in (0, 1]")
    return rho


def floor_at(x: Fraction, scale: int) -> tuple:
    """x rounded down to a multiple of 1/scale, as (numerator, scale)."""
    return x.numerator * scale // x.denominator, scale


def sqrt_bounds(x) -> tuple:
    """Rational lower/upper bounds of sqrt(x), each within 1/10**40."""
    x = _frac(x)
    if x < 0:
        raise MkvcError("square root of a negative value")
    s2 = RATIO_SCALE * RATIO_SCALE
    lo = math.isqrt(x.numerator * s2 // x.denominator)
    hi = math.isqrt(-((-x.numerator * s2) // x.denominator)) + 1
    return Fraction(lo, RATIO_SCALE), Fraction(hi, RATIO_SCALE)


def improve_ratio(rho) -> Fraction:
    """Guarantee of one amplification pass over a rho-approximate base:
    (rho + (1-rho)**2) / (1 + (1-rho)**2)."""
    rho = _rho(rho)
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
    rho = _rho(rho)
    return (1 + rho) / (3 - rho), (1 + 3 * rho) / (5 - rho)


def minimum_claim_holds(rho) -> bool:
    """Whether improve_ratio(rho) is <= both secondary case bounds: true
    exactly on [3/4, 1], false below (13/25 > 5/11 at rho = 1/4)."""
    r = improve_ratio(rho)
    b1, b2 = secondary_bounds(rho)
    return r <= b1 and r <= b2


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

    levels[i] is improve_ratio iterated i+1 times from rho0, rounded down
    at 10**-40.  It bounds the guarantee after i+1 passes only where the
    amplified ratio is the least case bound, on [3/4, 1], so only from
    rho0 >= 3/4; below that, a pass proves just the least case bound.
    iterations is the closed-form worst-case pass count, rounded up.  The
    actual convergence count len(levels) never exceeds iterations where
    the closed form is defined (epsilon < 1/2).
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
    stored level lies at or below the exact iterate; see Schedule for where
    that iterate is a proven guarantee.  The closed-form pass bound
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
        r = Fraction(*floor_at(improve_ratio(r), RATIO_SCALE))
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


def _verify_optimal(inst: BipartiteInstance, O, opt):
    """The refs of O, checked to fit in the budget, to cover exactly the
    optimum `opt` and to have at most 20 members."""
    refs = frozenset(O)
    if len(refs) > inst.k:
        raise MkvcError("candidate optimal set larger than the budget")
    if covered_weight(inst, refs) != opt:
        raise MkvcError("set is not optimal for this instance")
    if len(refs) > 20:
        raise MkvcError("optimal set too large for subset enumeration")
    return refs


def prop1_sweep(inst: BipartiteInstance, O, opt) -> bool:
    """Check the remaining-optimum identity for every subset X of an
    optimal set O.

    Verified facts, all in exact arithmetic, for each X:
      - coverage(O \\ X) >= opt - coverage(X)  (the inequality form);
      - partition: weight privately covered by X plus total coverage of
        O \\ X equals opt.

    The worst-subset fact (for a worst-|X| subset X, coverage(O \\ X) is
    at least (1 - C_w(|X|)) * opt) needs no check of its own: it is the
    inequality at that X, and the inequality is checked at every X, the
    worst ones included.  The literal equality reading fails for
    arbitrary X (a best subset can privately hold more than the worst
    subset's share), so the inequality plus the partition identity is
    what is asserted.

    Subsets are bitmasks x over the members of O in sorted order.  The
    edge cover of every x is built once by the low-bit recurrence
    cov[x] = cov[x ^ low] | cover(member low) and valued once, and the
    complement O \\ X is the entry at full ^ x.  `opt` is the instance's
    optimum, which O must cover exactly.  Enumeration is capped at
    |O| <= 20, checked before the tables are built.  Used by the
    verification harness."""
    refs = _verify_optimal(inst, O, opt)
    masks = [inst.cover_mask_of([r]) for r in sorted(refs)]
    full = (1 << len(masks)) - 1
    cov = [0] * (full + 1)
    for x in range(1, full + 1):
        low = x & -x
        cov[x] = cov[x ^ low] | masks[low.bit_length() - 1]
    mask_weight = inst.mask_weight
    w = [mask_weight(m) for m in cov]
    for x, v in enumerate(w):
        rest = cov[full ^ x]
        w_rest = w[full ^ x]
        if w_rest < opt - v:
            return False
        if mask_weight(cov[x] & ~rest) + w_rest != opt:
            return False
    return True
