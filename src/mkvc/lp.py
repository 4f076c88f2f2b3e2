"""The LP relaxation of max k-vertex cover on a bipartite graph, solved
exactly by parametric minimum cut, and its dual as a per-node bound.

Give every chosen vertex a penalty lam >= 0.  Then max over vertex sets S of
w(cov S) - lam |S| is W less a minimum s-t cut of the network with arcs
s -> l of capacity lam for each left vertex l, l -> r of capacity w(l, r)
for each edge, and r -> t of capacity lam for each right vertex r: S is the
left vertices on the sink side and the right vertices on the source side,
and the edges of the cut's middle arcs are those S leaves uncovered.  The
best cover of each size, g(j) = max over |S| = j of w(cov S), therefore has
an upper concave hull whose value at k is the LP optimum B (Ageev and
Sviridenko, J. Comb. Optim. 2004); `root_flow` walks that hull between
(0, 0) and (n, W) by one cut per step (Eisner and Severance 1976; Gallo,
Grigoriadis and Tarjan, SIAM J. Comput. 1989) and keeps the multiplier
lam* of the segment over k, with one maximum flow f at lam*.

Every s-t path crosses one edge arc, so f is a flow per edge: f_e <= w_e,
and the flow through each vertex is at most lam*.  For covered edges C,
budget b and a vertex set U, every b-set T holding U newly covers at most

    B - lam* (k - b) - w(C) + f(C) - lam* |U| + f(new cover of U)

since T's uncovered edges outside C keep their flow, and the edges that
T \\ U newly covers beyond U carry at most lam* per member.  Banned vertices
need no term.  `RootFlow.offset` is this bound for the empty U, and the
whole bound is integral in units of 1/`scale`.

All arithmetic is exact: the weights are scaled to ints by the lcm D of
their denominators, and each step's capacities by its lam's denominator.
The maximum flow is Dinic's, with an iterative depth-first search, since a
residual path can be about as long as the graph has vertices.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple


class RootFlow(NamedTuple):
    """A maximum flow at the LP's multiplier for the instance's budget k.
    Every flow, `lam_scaled` and `slack` are `scale` times their values."""

    value: Fraction     # B, the LP optimum at budget k
    lam: Fraction       # lam*, the slope of the hull segment over k
    k: int
    scale: int
    lam_scaled: int
    flow: list          # flow[e] on edge id e
    through: list       # through[v], the flow through vertex id v
    slack: list         # slack[e], scale * w_e - flow[e]

    def offset(self, covered: int, budget: int) -> int:
        """The scaled bound of a budget-set's new cover under covered edges
        C with no member counted yet: the slack of the edges outside C plus
        lam* per pick, that is scale * (B - lam* (k - b) - w(C) + f(C))."""
        rem = format(~covered & ((1 << len(self.slack)) - 1), "b")[::-1]
        return (sum(s for s, bit in zip(self.slack, rem) if bit == "1")
                + self.lam_scaled * budget)


def root_flow(inst) -> RootFlow:
    """The LP optimum at `inst.k`, its multiplier and one maximum flow there.

    The walk keeps two hull points a <= k <= b, first (0, 0) and (n, W).
    A cut at the slope lam between them either lies on their line, so the
    segment is on the hull, or yields a set S strictly above it; S is a best
    cover of its size and a hull point strictly between a and b, and it
    replaces the end on its side of k.  A set of size k ends the walk too:
    its cover is then B."""
    n, n_left, k = inst.n, inst.n_left, inst.k
    d = lcm(*{w.denominator for _, _, w in inst.edges})
    wd = [w.numerator * (d // w.denominator) for _, _, w in inst.edges]
    net = _Network(n_left, n, inst.edges)
    whole = sum(wd)
    a, ga, b, gb = 0, 0, n, whole       # hull points, covers in units of 1/d
    while True:
        lam = Fraction(gb - ga, b - a)
        p, q = lam.numerator, lam.denominator
        total, source_side = net.max_flow(p, [q * w for w in wd])
        # q h(lam), where h(lam) = max over S of d w(cov S) - lam |S|
        qh = q * whole - total
        size = (sum(1 for v in range(n_left) if not source_side[v])
                + sum(1 for v in range(n_left, n) if source_side[v]))
        if qh == q * ga - p * a or size == k:
            break
        g = (qh + p * size) // q
        if size < k:
            a, ga = size, g
        else:
            b, gb = size, g
    scale = q * d
    # an edge's flow is its reverse arc's capacity and its slack its own; a
    # vertex's flow is its source or sink arc's reverse capacity
    cap, m = net.cap, len(wd)
    return RootFlow(
        value=Fraction(qh + p * k, scale), lam=Fraction(p, scale), k=k,
        scale=scale, lam_scaled=p, flow=cap[1:2 * m:2],
        through=cap[2 * m + 1::2], slack=cap[0:2 * m:2])


class _Network:
    """The cut network on vertex ids 0..n-1, source n and sink n + 1.  Arc
    2e is edge e's l -> r, 2e + 1 its reverse; then each left vertex's
    s -> l and each right vertex's r -> t, each followed by its reverse."""

    def __init__(self, n_left, n, edges):
        m = len(edges)
        self.n, self.m = n, m
        to = []
        for l, r, _ in edges:
            to += [n_left + r, l]
        to += [v for l in range(n_left) for v in (l, n)]
        to += [v for r in range(n_left, n) for v in (n + 1, r)]
        self.to = to
        adj = [[] for _ in range(n + 2)]
        # a right vertex tries its sink arc first
        for r in range(n_left, n):
            adj[r].append(2 * (m + r))
        for e, (l, r, _) in enumerate(edges):
            adj[l].append(2 * e)
            adj[n_left + r].append(2 * e + 1)
        for l in range(n_left):
            adj[n].append(2 * (m + l))
            adj[l].append(2 * (m + l) + 1)
        for r in range(n_left, n):
            adj[n + 1].append(2 * (m + r) + 1)
        self.adj = adj
        self.cap = []

    def max_flow(self, side_cap: int, edge_caps: list):
        """The value of a maximum flow with capacity `side_cap` on every
        source and sink arc and `edge_caps[e]` on edge e, and the source
        side of the minimum cut it leaves (as one flag per node)."""
        m, n = self.m, self.n
        cap = [0] * len(self.to)
        cap[0:2 * m:2] = edge_caps
        cap[2 * m::2] = [side_cap] * n
        self.cap = cap
        total = 0
        while True:
            level = self._levels()
            if level[n + 1] < 0:
                return total, [x >= 0 for x in level]
            total += self._blocking_flow(level)

    def _levels(self):
        to, cap, adj = self.to, self.cap, self.adj
        level = [-1] * (self.n + 2)
        level[self.n] = 0
        frontier = [self.n]
        while frontier:
            nxt = []
            for u in frontier:
                lu = level[u] + 1
                for arc in adj[u]:
                    v = to[arc]
                    if cap[arc] and level[v] < 0:
                        level[v] = lu
                        nxt.append(v)
            frontier = nxt
        return level

    def _blocking_flow(self, level):
        """Augment along level-increasing paths until none is left; each
        node's next arc to try is kept, so a dead arc is never retried."""
        to, cap, adj = self.to, self.cap, self.adj
        source, sink = self.n, self.n + 1
        nxt = [0] * (self.n + 2)
        total = 0
        path = []               # arcs from the source to u
        u = source
        while True:
            if u == sink:
                push = min(cap[arc] for arc in path)
                total += push
                cut = None
                for i, arc in enumerate(path):
                    cap[arc] -= push
                    cap[arc ^ 1] += push
                    if cut is None and not cap[arc]:
                        cut = i
                # resume from the tail of the first saturated arc
                u = to[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs = adj[u]
            i = nxt[u]
            want = level[u] + 1
            while i < len(arcs) and not (cap[arcs[i]] and level[to[arcs[i]]] == want):
                i += 1
            nxt[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
                continue
            # a dead end: no path to the sink through u in this phase
            level[u] = -1
            if not path:
                return total
            u = to[path.pop() ^ 1]
            nxt[u] += 1
