"""Seeded instance generators for benchmarks and property sweeps."""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import MkvcError
from .graph import BipartiteInstance


class GenKind(str, Enum):
    UNIFORM_RANDOM = "uniform"
    SEMI_REGULAR = "semiregular"
    GREEDY_ADVERSARIAL = "adversarial"
    COMPLETE = "complete"


@dataclass(frozen=True)
class GenSpec:
    """Everything needed to rebuild an instance; the seed fully determines it."""

    kind: GenKind
    n_left: int = 4
    n_right: int = 4
    edge_prob: float = 0.5
    d_left: int = 0
    d_right: int = 0
    weight_min: int = 1
    weight_max: int = 100
    k: int | None = None
    seed: int = 0
    rational_weights: bool = False


def _default_k(n: int) -> int:
    return -(-n // 4)


def _draw_weight(rng: random.Random, spec: GenSpec):
    w = rng.randint(spec.weight_min, spec.weight_max)
    if spec.rational_weights:
        return Fraction(w, rng.randint(1, 9))
    return w


def generate(spec: GenSpec) -> BipartiteInstance:
    """Build the instance described by the spec.

    UniformRandom draws each possible edge independently (forcing edge (0,0)
    if the draw comes out empty, so weight scaling stays well defined).
    SemiRegular builds an unweighted biregular graph by permuting a circulant
    layout.  GreedyAdversarial builds a weighted family whose bait vertices
    drag the greedy away from the one-side optimum.  Complete is the full
    bipartite graph.
    """
    if not 0 <= spec.weight_min <= spec.weight_max:
        raise MkvcError(f"weights need 0 <= weight_min={spec.weight_min} "
                        f"<= weight_max={spec.weight_max}")
    rng = random.Random(spec.seed)
    n = spec.n_left + spec.n_right
    k = spec.k if spec.k is not None else _default_k(n)
    if spec.kind == GenKind.GREEDY_ADVERSARIAL:
        return _adversarial(rng, spec, k)
    if not 1 <= k < n:
        raise MkvcError(f"budget k={k} out of range [1, {n})")

    if spec.kind == GenKind.COMPLETE:
        edges = [(i, j, _draw_weight(rng, spec))
                 for i in range(spec.n_left) for j in range(spec.n_right)]
        return BipartiteInstance(spec.n_left, spec.n_right, edges, k)

    if spec.kind == GenKind.UNIFORM_RANDOM:
        edges = []
        for i in range(spec.n_left):
            for j in range(spec.n_right):
                if rng.random() < spec.edge_prob:
                    edges.append((i, j, _draw_weight(rng, spec)))
        if not edges:
            edges.append((0, 0, _draw_weight(rng, spec)))
        return BipartiteInstance(spec.n_left, spec.n_right, edges, k)

    if spec.kind == GenKind.SEMI_REGULAR:
        return _semi_regular(rng, spec, k)

    raise MkvcError(f"unknown generator kind {spec.kind}")


def _semi_regular(rng: random.Random, spec: GenSpec, k: int) -> BipartiteInstance:
    nl, nr, dl, dr = spec.n_left, spec.n_right, spec.d_left, spec.d_right
    if dl * nl != dr * nr:
        raise MkvcError(
            f"unrealizable degree sequence: {nl}*{dl} != {nr}*{dr}")
    if dl > nr or dr > nl or dl < 0 or dr < 0:
        raise MkvcError("unrealizable degree sequence: degree exceeds far side")
    perm_l = list(range(nl))
    perm_r = list(range(nr))
    rng.shuffle(perm_l)
    rng.shuffle(perm_r)
    edges = []
    # circulant layout: left i takes d_left consecutive right slots; every
    # right slot is hit exactly d_right times, then labels are shuffled
    for i in range(nl):
        for t in range(dl):
            edges.append((perm_l[i], perm_r[(i * dl + t) % nr], 1))
    edges.sort()
    return BipartiteInstance(nl, nr, edges, k)


def _adversarial(rng: random.Random, spec: GenSpec, k: int) -> BipartiteInstance:
    """k optimal left vertices with private bundles, plus k bait right
    vertices tuned so the greedy strictly prefers every bait in turn."""
    b = k
    if b < 2:
        raise MkvcError("adversarial family needs k >= 2")
    v = spec.weight_max * b + rng.randint(0, spec.weight_max)
    # bait weights, last first: bait t must beat any left's residual capacity
    w = [0] * b
    suffix = 0
    for t in range(b - 1, -1, -1):
        w[t] = (v + suffix) // (b - 1) + 1
        suffix += w[t]
    edges = []
    for i in range(b):
        edges.append((i, i, v))
        for t in range(b):
            edges.append((i, b + t, w[t]))
    return BipartiteInstance(b, 2 * b, edges, b)
