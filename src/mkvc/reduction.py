"""Weight scaling that bounds all weights by n**ell while losing only an
additive 1/(4*n**(ell-2)) of approximation ratio.

The map is w -> ceil(n**ell * w / w_max), computed exactly as the negated
floor division -(-n**ell * w // w_max), an int for int and Fraction
weights alike, so the scaled instance has integer weights in [0, n**ell]
with the maximum attained exactly.  ratio_transfer() gives the guarantee
that carries back to the original weights when the scaled instance is
solved with ratio rho.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MkvcError
from .graph import BipartiteInstance


# the most bits that n**ell may take, judged as ell times the bit length of
# n; the scaled weights, their sums and the transfer guarantee then stay
# far inside Python's 4,300-digit limit on int-to-string conversion
MAX_SCALE_BITS = 10_000


def _check_ell(n: int, ell: int) -> None:
    if ell < 3:
        raise MkvcError("ell must be >= 3")
    if ell * n.bit_length() > MAX_SCALE_BITS:
        raise MkvcError(f"ell={ell} too large for n={n}: ell times the bit "
                        f"length of n must be at most {MAX_SCALE_BITS}")


def scale_weights(inst: BipartiteInstance, ell: int) -> tuple:
    """Return (scaled instance, w_max) with weights ceil(n**ell * w / w_max).

    Topology and budget are unchanged, so the scaled instance shares the
    source's incidence masks.  Requires at least one positive weight;
    raises "degenerate instance" when w_max == 0.
    """
    _check_ell(inst.n, ell)
    if inst.m == 0:
        raise MkvcError("degenerate instance: no edges to scale")
    w_max = max(w for _, _, w in inst.edges)
    if w_max <= 0:
        raise MkvcError("degenerate instance: all weights are zero")
    n_pow = inst.n ** ell
    # the scaled weights are non-negative ints on the source's checked edges
    scaled = tuple([(l, r, -(-n_pow * w // w_max)) for l, r, w in inst.edges])
    out = BipartiteInstance._checked(inst.n_left, inst.n_right, scaled,
                                     inst.k, inst._inc)
    assert all(w <= n_pow for _, _, w in out.edges)
    return out, w_max


def ratio_transfer(rho, n: int, ell: int) -> Fraction:
    """Guaranteed ratio on the original instance when the scaled one is
    solved with ratio rho: rho - 1/(4*n**(ell-2))."""
    if n < 2:
        raise MkvcError("n must be >= 2")
    _check_ell(n, ell)
    return Fraction(rho) - Fraction(1, 4 * n ** (ell - 2))
