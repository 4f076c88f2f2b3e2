"""Bipartite instance representation and exact coverage arithmetic.

Edges carry exact non-negative weights (int, or Fraction at the harness
boundary).  Every edge has a stable id equal to its position in the input
edge list; sets of edges are manipulated as int bitmasks keyed by edge id,
which keeps "delete the covered edges" cheap inside the enumeration-heavy
solvers.  An edge set's weight is one popcount when all weights are
equal, and otherwise one popcount per bit plane of the weights scaled to
ints (see `BipartiteInstance.mask_weight`), exact for ints and Fractions.
The planes are built on first use; with weights up to 100 they take about
300 bytes at m=100 and 4.5 KB at m=4,500.  Instances are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, NamedTuple

from .errors import MkvcError


class Side(IntEnum):
    LEFT = 0
    RIGHT = 1


class VertexRef(NamedTuple):
    """A vertex tagged with its color class; orders Left-first then by index."""

    side: Side
    index: int


@lru_cache(maxsize=16)
def _ref_table(n_left: int, n_right: int) -> tuple:
    """`(refs, ids)` for one shape: refs[v] is the VertexRef of vertex id v
    and ids maps each ref back to its id.  The only place refs are made;
    every instance of the shape shares both, so neither may be mutated."""
    refs = tuple([VertexRef(Side.LEFT, i) for i in range(n_left)]
                 + [VertexRef(Side.RIGHT, j) for j in range(n_right)])
    return refs, {ref: v for v, ref in enumerate(refs)}


def _check_weight(w):
    if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
        raise MkvcError(f"weight {w!r} is not an exact number (int or Fraction)")
    if w < 0:
        raise MkvcError(f"negative edge weight {w}")
    return w


class BipartiteInstance:
    """An edge-weighted bipartite graph with a vertex budget k.

    Vertices are addressed either as VertexRef or, internally, as a flat id
    in [0, n): left vertices first (id == index), then right vertices
    (id == n_left + index); refs come from one table per shape, shared by
    every instance of that shape.  The budget satisfies
    0 <= k < n_left + n_right; k == 0 only arises for residual sub-problems,
    generators and file input require k >= 1.
    """

    __slots__ = (
        "n_left", "n_right", "k", "edges", "m",
        "_inc", "_uniform", "_full_mask", "_planes", "_refs", "_ref_ids",
    )

    def __init__(self, n_left: int, n_right: int,
                 edges: Iterable[tuple], k: int):
        if n_left < 0 or n_right < 0:
            raise MkvcError("side sizes must be non-negative")
        n = n_left + n_right
        if not 0 <= k < n:
            raise MkvcError(f"budget k={k} out of range [0, {n})")
        self.n_left = n_left
        self.n_right = n_right
        self.k = k

        edge_list = []
        seen = set()
        for l, r, w in edges:
            if not (0 <= l < n_left and 0 <= r < n_right):
                raise MkvcError(f"edge ({l},{r}) has an endpoint out of range")
            if (l, r) in seen:
                raise MkvcError(f"duplicate edge ({l},{r})")
            seen.add((l, r))
            edge_list.append((l, r, _check_weight(w)))
        self.edges = tuple(edge_list)
        self.m = len(edge_list)

        inc = [0] * n
        for eid, (l, r, _) in enumerate(edge_list):
            bit = 1 << eid
            inc[l] |= bit
            inc[n_left + r] |= bit
        self._inc = inc
        self._full_mask = (1 << self.m) - 1
        ws = {w for _, _, w in edge_list}
        self._uniform = ws.pop() if len(ws) == 1 else None
        self._planes = None
        self._refs, self._ref_ids = _ref_table(n_left, n_right)

    # -- addressing -------------------------------------------------------

    @property
    def n(self) -> int:
        return self.n_left + self.n_right

    def side_size(self, side: Side) -> int:
        return self.n_left if side == Side.LEFT else self.n_right

    def vertex_id(self, ref: VertexRef) -> int:
        side, idx = ref
        limit = self.n_left if side == Side.LEFT else self.n_right
        if not 0 <= idx < limit:
            raise MkvcError(f"vertex out of range: {ref}")
        return idx if side == Side.LEFT else self.n_left + idx

    def ref_of(self, vid: int) -> VertexRef:
        if not 0 <= vid < self.n:
            raise MkvcError(f"vertex id {vid} out of range [0, {self.n})")
        return self._refs[vid]

    def all_refs(self) -> list[VertexRef]:
        return list(self._refs)

    # -- edge-set arithmetic ----------------------------------------------

    def cover_mask(self, vids: Iterable[int]) -> int:
        """Bitmask of edges with at least one endpoint among the given ids."""
        inc = self._inc
        mask = 0
        for v in vids:
            mask |= inc[v]
        return mask

    def cover_mask_of(self, refs: Iterable[VertexRef]) -> int:
        """`cover_mask` of the ids of the given refs.  Refs are looked up in
        the shape's table; any other value (an out-of-range or unhashable
        ref) goes through `vertex_id`, which checks it."""
        inc = self._inc
        ids = self._ref_ids
        mask = 0
        for r in refs:
            try:
                v = ids[r]
            except (KeyError, TypeError):
                v = self.vertex_id(r)
            mask |= inc[v]
        return mask

    def mask_weight(self, edge_mask: int):
        """Total weight of the edges in the bitmask; each edge counted once.

        Uniform weights take one popcount.  Otherwise the weights, scaled by
        the lcm D of their denominators, are split into bit planes: plane b
        is the mask of the edges whose scaled weight has bit b set.  The
        total is one `&` and one popcount per plane, divided by D, so it is
        exact for ints and Fractions alike.  The planes are built on first
        use and take one m-bit int per bit of the largest scaled weight.
        """
        u = self._uniform
        if u is not None:
            return u * edge_mask.bit_count()
        if self._planes is None:
            self._build_planes()
        denominator, planes = self._planes
        total = 0
        for plane in planes:
            total = (total << 1) + (edge_mask & plane).bit_count()
        return total if denominator == 1 else Fraction(total, denominator)

    def _build_planes(self):
        denominator = 1
        for _, _, w in self.edges:
            if isinstance(w, Fraction):
                denominator = lcm(denominator, w.denominator)
        scaled = [int(w * denominator) for _, _, w in reversed(self.edges)]
        width = max(scaled, default=0).bit_length()
        # most significant plane first, for Horner's rule in mask_weight
        planes = tuple(
            int("".join("1" if s >> b & 1 else "0" for s in scaled), 2)
            for b in reversed(range(width)))
        self._planes = (denominator, planes)

    def total_weight(self):
        return self.mask_weight(self._full_mask)

    def degree(self, vid: int) -> int:
        return self._inc[vid].bit_count()

    # -- derived instances --------------------------------------------------

    def with_budget(self, k: int) -> "BipartiteInstance":
        """Cheap copy sharing all derived structures, with a different k."""
        if not 0 <= k < self.n:
            raise MkvcError(f"budget k={k} out of range [0, {self.n})")
        new = object.__new__(BipartiteInstance)
        for slot in BipartiteInstance.__slots__:
            object.__setattr__(new, slot, getattr(self, slot))
        new.k = k
        return new

    def __repr__(self):
        return (f"BipartiteInstance(n_left={self.n_left}, n_right={self.n_right},"
                f" m={self.m}, k={self.k})")


@dataclass(frozen=True)
class CoverSolution:
    """A set of at most k vertices together with the exact covered weight."""

    vertices: frozenset
    covered_weight: object
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def sorted_vertices(self) -> tuple:
        return tuple(sorted(self.vertices))


def covered_weight(inst: BipartiteInstance, vertices: Iterable[VertexRef]):
    """Total weight of edges with at least one endpoint in the given set."""
    return inst.mask_weight(inst.cover_mask_of(vertices))


@dataclass(frozen=True)
class Residual:
    """A sub-instance with some vertices deleted, plus the index mapping
    needed to lift residual solutions back to the parent instance."""

    instance: BipartiteInstance
    kept_left: tuple
    kept_right: tuple

    def lift(self, refs: Iterable[VertexRef]) -> frozenset:
        out = []
        for side, idx in refs:
            kept = self.kept_left if side == Side.LEFT else self.kept_right
            out.append(VertexRef(side, kept[idx]))
        return frozenset(out)

    def project(self, refs: Iterable[VertexRef]) -> frozenset:
        """Map parent refs (which must survive the deletion) into the residual."""
        pos_left = {orig: i for i, orig in enumerate(self.kept_left)}
        pos_right = {orig: i for i, orig in enumerate(self.kept_right)}
        out = []
        for side, idx in refs:
            pos = pos_left if side == Side.LEFT else pos_right
            if idx not in pos:
                raise MkvcError(f"vertex {VertexRef(side, idx)} was deleted")
            out.append(VertexRef(side, pos[idx]))
        return frozenset(out)


def residual(inst: BipartiteInstance, vertices: Iterable[VertexRef],
             new_k: int) -> Residual:
    """Delete a vertex set together with its incident edges.

    The surviving vertices are renumbered compactly per side, preserving
    relative order, so index-based tie-breaking agrees between a residual
    run and a masked run on the parent.
    """
    gone = {inst.vertex_id(r) for r in vertices}
    remaining = inst.n - len(gone)
    if not 0 <= new_k < remaining:
        raise MkvcError(f"residual budget {new_k} out of range [0, {remaining})")
    kept_left = tuple(i for i in range(inst.n_left) if i not in gone)
    kept_right = tuple(j for j in range(inst.n_right)
                       if inst.n_left + j not in gone)
    new_left = {orig: i for i, orig in enumerate(kept_left)}
    new_right = {orig: j for j, orig in enumerate(kept_right)}
    covered = inst.cover_mask(gone)
    new_edges = []
    for eid, (l, r, w) in enumerate(inst.edges):
        if covered >> eid & 1:
            continue
        new_edges.append((new_left[l], new_right[r], w))
    sub = BipartiteInstance(len(kept_left), len(kept_right), new_edges, new_k)
    return Residual(sub, kept_left, kept_right)

