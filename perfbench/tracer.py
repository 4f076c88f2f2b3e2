"""Outside-in tracer for the mkvc layers.

The tracer replaces each traced function at every name a caller looks it up
by (a module global such as ``mkvc.corpus.solve_alg2`` or a class attribute
such as ``BipartiteInstance.mask_weight``) with a wrapper that keeps a
per-function call count, self time and outermost inclusive time.  Self time
is a call's duration minus the part covered by traced callees.

Functions marked hot (leaf-like calls made millions of times per solve) only
feed those counters; every other call also records a span
``(id, parent, name, start, end, op)`` in memory, written out by
``write_spans`` when the run ends.  Nothing inside ``src/`` is modified: the
original objects are put back by ``uninstall``.

A wrapper costs time of its own, and on ``amplify`` there are hundreds of
thousands of ``mask_weight`` calls per solve.  Part of that cost falls inside
the callee's measured interval, the rest (entering the wrapper, the stack and
counter updates) inside its caller's.  ``probe_wrapper`` times both parts on
a wrapped no-op method after every traced op, and ``self_s`` and
``inclusive_s`` subtract their medians per call, so the reported layer times
are the program's and not the tracer's.  The raw figures stay available as
``raw_self_s`` and ``raw_inclusive_s``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from math import comb

import mkvc.analysis
import mkvc.bench
import mkvc.cli
import mkvc.corpus
import mkvc.fileio
import mkvc.graph
import mkvc.reduction
import mkvc.solvers
import mkvc.verify

# metric prefix -> (defining module, attribute path, hot)
TRACED = [
    ("graph.mask_weight", mkvc.graph, "BipartiteInstance.mask_weight", True),
    ("graph.residual", mkvc.graph, "residual", False),
    ("graph.covered_weight", mkvc.graph, "covered_weight", True),
    ("solvers.solve_greedy", mkvc.solvers, "solve_greedy", False),
    ("solvers.solve_top_side", mkvc.solvers, "solve_top_side", False),
    ("solvers.solve_alg1", mkvc.solvers, "solve_alg1", False),
    ("solvers.solve_alg2", mkvc.solvers, "solve_alg2", False),
    ("solvers.solve_ptas", mkvc.solvers, "solve_ptas", False),
    ("solvers.solve_exact", mkvc.solvers, "solve_exact", False),
    ("solvers.RatedSolver.run", mkvc.solvers, "RatedSolver.run", False),
    ("solvers.RatedSolver.run_masked", mkvc.solvers, "RatedSolver.run_masked", True),
    ("analysis.prop1_sweep", mkvc.analysis, "prop1_sweep", False),
    ("analysis.ptas_schedule", mkvc.analysis, "ptas_schedule", False),
    ("reduction.scale_weights", mkvc.reduction, "scale_weights", False),
    ("fileio.read_instance", mkvc.fileio, "read_instance", False),
    ("bench.run_matrix", mkvc.bench, "run_matrix", False),
    ("bench.write_csv", mkvc.bench, "write_csv", False),
    ("corpus.check_instance", mkvc.corpus, "check_instance", False),
    ("cli.main", mkvc.cli, "main", False),
]

# every module whose globals may hold an imported traced function
CALLER_MODULES = [mkvc.graph, mkvc.solvers, mkvc.analysis, mkvc.reduction,
                  mkvc.fileio, mkvc.bench, mkvc.corpus, mkvc.cli, mkvc.verify]

MAX_SPANS = 100_000
PROBE_CALLS = 5_000


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def binding_sites(module, path):
    """Every (owner, attribute) that holds the traced object: the class for a
    method, otherwise each caller module that imported the function."""
    owner, attr = _resolve(module, path)
    if owner is not module:
        return [(owner, attr)]
    original = getattr(module, attr)
    return [(mod, attr) for mod in CALLER_MODULES
            if getattr(mod, attr, None) is original]


class Tracer:
    """Counters and spans for one traced phase of a benchmark run."""

    # stats fields: calls, raw self s, raw outermost inclusive s, direct
    # traced callees, outermost calls, traced calls within outermost calls
    CALLS, SELF, INCL, CHILDREN, OUTER, NESTED = range(6)

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0, 0, 0, 0] for name, *_ in TRACED}
        self.active = {name: 0 for name, *_ in TRACED}
        self.total_calls = [0]
        self.probes = []             # (in callee, in caller) s per call
        self.spans = []
        self.dropped_spans = 0
        self.oracle_subsets = 0
        self.bytes_read = 0
        self.op_id = None
        self._stack = []
        self._next_id = 1
        self._saved = []

    # -- installation --------------------------------------------------------

    def install(self):
        for name, module, path, hot in TRACED:
            for owner, attr in binding_sites(module, path):
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hot))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrapping ------------------------------------------------------------

    def _on_call(self, name, args):
        if name == "solvers.solve_exact":
            inst = args[0]
            self.oracle_subsets += comb(inst.n, inst.k)
        elif name == "fileio.read_instance":
            self.bytes_read += os.path.getsize(args[0])

    def _wrap(self, name, fn, hot):
        stats = self.stats[name]
        active = self.active
        stack = self._stack
        total = self.total_calls
        clock = time.perf_counter
        hooked = name in ("solvers.solve_exact", "fileio.read_instance")

        def traced(*args, **kwargs):
            if hooked:
                self._on_call(name, args)
            parent = stack[-1][1] if stack else 0
            if hot:
                span_id = parent     # callees' spans hang off the caller's
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id, stats]   # [time in traced callees, id, stats]
            stack.append(frame)
            active[name] += 1
            total[0] += 1
            n0 = total[0]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt - frame[0]
                if not active[name]:
                    stats[2] += dt
                    stats[4] += 1
                    stats[5] += total[0] - n0
                if stack:
                    stack[-1][0] += dt
                    stack[-1][2][3] += 1
                if not hot:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((span_id, parent, name, t0, t1,
                                           self.op_id))
                    else:
                        self.dropped_spans += 1

        return traced

    def probe_wrapper(self):
        """Time the hot wrapper on a no-op method called from a wrapped loop,
        as the solvers call ``inst.mask_weight``, right after the same loop
        unwrapped.  Everything the no-op's own interval records is wrapper
        cost inside the callee; the loop's extra time beyond that is booked
        to the caller.  Called once per op, between ops, because the host's
        speed drifts; the medians over all probes are used."""

        class Probe:
            def leaf(self, x):
                return x

        def loop(obj, n):
            leaf = obj.leaf
            for i in range(n):
                leaf(i)

        probe = Probe()
        t0 = time.perf_counter()
        loop(probe, PROBE_CALLS)
        bare = time.perf_counter() - t0
        names = ("probe.loop", "probe.leaf")
        saved = self._stack[:], self._next_id, self.total_calls[0]
        original = Probe.leaf
        try:
            for name in names:
                self.stats[name] = [0, 0.0, 0.0, 0, 0, 0]
                self.active[name] = 0
            Probe.leaf = self._wrap("probe.leaf", original, True)
            self._wrap("probe.loop", loop, True)(probe, PROBE_CALLS)
            loop_s = self.stats["probe.loop"][self.SELF]
            leaf_s = self.stats["probe.leaf"][self.SELF]
        finally:
            Probe.leaf = original
            for name in names:
                del self.stats[name], self.active[name]
            self._stack[:], self._next_id, self.total_calls[0] = saved
        self.probes.append((leaf_s / PROBE_CALLS,
                            (loop_s - bare) / PROBE_CALLS))

    def wrapper_cost(self):
        """Median wrapper cost of the probes, s per call: (inside the
        callee's interval, booked to the caller)."""
        if not self.probes:
            return 0.0, 0.0
        return (statistics.median(c for c, _ in self.probes),
                max(0.0, statistics.median(c for _, c in self.probes)))

    # -- results -------------------------------------------------------------

    def calls(self, name):
        return self.stats[name][self.CALLS]

    def raw_self_s(self, name):
        return self.stats[name][self.SELF]

    def raw_inclusive_s(self, name):
        return self.stats[name][self.INCL]

    def self_s(self, name):
        """Self time less the wrapper cost inside this function's own calls
        and that of the traced calls it made."""
        st = self.stats[name]
        callee, caller = self.wrapper_cost()
        return (st[self.SELF] - st[self.CALLS] * callee
                - st[self.CHILDREN] * caller)

    def inclusive_s(self, name):
        """Time inside the outermost calls of `name`, nested calls counted
        once, less the wrapper cost of those calls and of every traced call
        made within them."""
        st = self.stats[name]
        callee, caller = self.wrapper_cost()
        return (st[self.INCL] - st[self.OUTER] * callee
                - st[self.NESTED] * (callee + caller))

    def wrapper_s(self):
        """Estimated wrapper cost over the whole traced phase."""
        return self.total_calls[0] * sum(self.wrapper_cost())

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for span_id, parent, name, t0, t1, op in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "op": op}) + "\n")
