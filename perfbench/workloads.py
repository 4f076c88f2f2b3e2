"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the seed in ``setup`` (all instance
construction and file writing happens there, so work moved into set-up shows
in ``setup_s``), then hands out rounds of operations.  A round is a fixed
cycle of operation kinds; a run executes whole rounds, so every kind appears
equally often and the medians do not jump between kinds.  The outputs of the
first ``digest_rounds`` rounds, about as many as a run at the benchmark's
``run_seconds`` completes or fewer, are checked against recorded digests.

An operation calls the package's public functions through their module
attribute at call time, so the tracer's wrappers are seen, and returns what
the program produced.  Its ``check`` validates that output independently and
returns the text its digest is taken over; it raises ``CheckFailed`` on a
wrong answer.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mkvc.cli
import mkvc.corpus
import mkvc.fileio
import mkvc.graph
import mkvc.reduction
import mkvc.solvers
from mkvc.graph import BipartiteInstance, Side, VertexRef


class CheckFailed(Exception):
    """An operation returned a wrong or inconsistent result."""


@dataclass
class Op:
    op_id: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str]


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _check_solution(inst, sol, want_size):
    """Size and self-consistency of a returned CoverSolution; the value is
    recomputed from the returned set with graph.covered_weight."""
    _require(len(sol.vertices) == want_size,
             f"returned {len(sol.vertices)} vertices, wanted {want_size}")
    value = mkvc.graph.covered_weight(inst, sol.vertices)
    _require(value == sol.covered_weight,
             f"reported value {sol.covered_weight} != covered weight {value}")


def random_instance(rng, n, k, density):
    """Sides n//2 and n - n//2, exactly round(density * n_left * n_right)
    distinct edges drawn uniformly, integer weights in [1, 100].

    A fixed edge count keeps solve times within a few percent across seeds;
    independent edge draws spread them by 10-20%.
    """
    nl, nr = n // 2, n - n // 2
    picks = sorted(rng.sample(range(nl * nr), round(density * nl * nr)))
    edges = [(e // nr, e % nr, rng.randint(1, 100)) for e in picks]
    return BipartiteInstance(nl, nr, edges, k)


def _solution_text(sol):
    return f"{sol.sorted_vertices()}|{sol.covered_weight}"


# ---------------------------------------------------------------------------
# sweep: the oracle-checked battery of tests/test_acceptance.py


SWEEP_VIOLATIONS = ("feasibility", "self_consistency", "dominance",
                    "greedy_floor", "greedy_kn", "alg2_vs_greedy", "prop1")


class Sweep:
    """Graph masks drawn by seed in blocks of consecutive masks, several
    blocks per n=8 shape per round.  One op takes one graph of every shape
    and checks it at every budget k < n through corpus.check_instance with
    alg2 and prop1 on, as the exhaustive acceptance sweep's inner loop
    does: 7 graphs, 49 (graph, k) pairs.

    Pair and graph times cluster by k and by shape, and a median that falls
    between two clusters jumps from run to run; an op that spans every
    shape and budget has a single cluster.  Many small blocks rather than a
    few large ones keep the mix of edge densities alike across seeds."""

    name = "sweep"
    rounds_per_second = 3            # pool size; a round takes about 0.6 s
    digest_rounds = 30

    def __init__(self, seed, workdir, max_n=8, block=4, blocks_per_shape=4):
        self.seed = seed
        self.shapes = [(nl, max_n - nl) for nl in range(1, max_n)]
        self.pairs_per_op = len(self.shapes) * (max_n - 1)
        self.block = block
        self.blocks_per_shape = blocks_per_shape
        self.pool = []

    def setup(self, seconds):
        rng = random.Random(f"sweep:{self.seed}")
        pool = []
        for _ in range(max(2, math.ceil(seconds * self.rounds_per_second))):
            per_shape = []
            for nl, nr in self.shapes:
                total = 1 << (nl * nr)
                graphs = []
                for _ in range(self.blocks_per_shape):
                    lo = rng.randrange(total - self.block + 1)
                    graphs += [
                        (g, mkvc.corpus.unweighted_instance(nl, nr, g, 1))
                        for g in range(lo, lo + self.block)]
                per_shape.append(graphs)
            pool.append(list(zip(*per_shape)))
        self.pool = pool

    def round(self, r):
        return [self._op(graphs) for graphs in self.pool[r % len(self.pool)]]

    @staticmethod
    def _op(graphs):
        pairs = [(f"u{inst1.n_left}x{inst1.n_right}/g{g}/k{k}", inst1, k)
                 for g, inst1 in graphs for k in range(1, inst1.n)]
        aggs = [mkvc.corpus.new_aggregate() for _ in pairs]

        def call():
            for (tag, inst1, k), agg in zip(pairs, aggs):
                mkvc.corpus.check_instance(inst1.with_budget(k), agg, tag)
            return aggs

        def check(out):
            texts = []
            for agg in out:
                bad = {key: agg[key] for key in SWEEP_VIOLATIONS if agg[key]}
                _require(not bad, f"violations {bad}: {agg['examples']}")
                _require(agg["pairs"] == 1, "pair not counted")
                texts.append(f"{agg['greedy_min_ratio']}|{agg['alg2_min_ratio']}")
            return "\n".join(texts)

        op_id = "+".join(f"u{i.n_left}x{i.n_right}/g{g}" for g, i in graphs)
        return Op(op_id, "op", call, check)


# ---------------------------------------------------------------------------
# amplify: the candidate-pool amplifier and the bootstrapped scheme


class Amplify:
    """solve_alg2(c=3, greedy base) on weighted uniform-random instances and
    solve_ptas(eps=1/10, depth 2) on smaller ones; no oracle, file or CLI
    code runs."""

    name = "amplify"
    rounds_per_second = 1            # pool size; a round takes about 3.5 s
    digest_rounds = 6
    # (kind, n, k), n split evenly between the sides.  Three fast, five
    # middle (about 200-240 ms) and three slow solves, so the median op
    # falls in the middle of the middle group.
    CLASSES = (("ptas", 12, 5), ("alg2", 24, 6), ("alg2", 26, 6),
               ("ptas", 14, 5), ("alg2", 27, 6), ("alg2", 28, 6),
               ("ptas", 14, 5), ("alg2", 27, 6),
               ("ptas", 16, 5), ("alg2", 30, 7), ("alg2", 34, 8))
    DENSITY = 0.3

    def __init__(self, seed, workdir, classes=CLASSES):
        self.seed = seed
        self.classes = classes
        self.pool = []

    def setup(self, seconds):
        rng = random.Random(f"amplify:{self.seed}")
        self.pool = [[(kind, random_instance(rng, n, k, self.DENSITY))
                      for kind, n, k in self.classes]
                     for _ in range(max(2, math.ceil(
                         seconds * self.rounds_per_second)))]

    def round(self, r):
        return [self._op(f"{kind}/n{inst.n}/k{inst.k}/r{r}", kind, inst)
                for kind, inst in self.pool[r % len(self.pool)]]

    @staticmethod
    def _op(op_id, kind, inst):
        if kind == "alg2":
            def call():
                return mkvc.solvers.solve_alg2(inst, 3,
                                               mkvc.solvers.greedy_solver())
        else:
            def call():
                return mkvc.solvers.solve_ptas(inst, Fraction(1, 10),
                                               mkvc.solvers.greedy_solver(), 2)

        def check(sol):
            _check_solution(inst, sol, inst.k)
            greedy = mkvc.solvers.solve_greedy(inst).covered_weight
            _require(sol.covered_weight >= greedy,
                     f"{kind} {sol.covered_weight} < greedy {greedy}")
            return _solution_text(sol)

        return Op(op_id, kind, call, check)


# ---------------------------------------------------------------------------
# cli: `mkvc solve` and `mkvc bench` driven in-process through cli.main


def _run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mkvc.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _parse_vertices(text):
    refs = []
    for token in text.split():
        _require(token[0] in "LR", f"bad vertex token {token!r}")
        side = Side.LEFT if token[0] == "L" else Side.RIGHT
        refs.append(VertexRef(side, int(token[1:])))
    _require(len(set(refs)) == len(refs), "repeated vertex")
    return refs


class Cli:
    """In-process `mkvc solve` on instance files with n=200-300 and
    `mkvc bench --oracle` over small directories with n=22-26."""

    name = "cli"
    digest_rounds = 14
    SOLVE_DENSITY = 0.2
    VARIANTS = 2                     # instance files per size, used in turn
    BENCH_DENSITY = 0.5
    BENCH_DIRS = 2
    BENCH_SOLVERS = "greedy,topside,alg1"
    HEADER = ["instance_id", "solver", "value", "opt", "ratio", "time_ms"]

    def __init__(self, seed, workdir, solve_sizes=(200, 300), solve_k=10,
                 bench_sizes=(22, 24, 26), bench_k=4):
        self.seed = seed
        self.workdir = Path(workdir)
        self.solve_sizes = solve_sizes
        self.solve_k = solve_k
        self.bench_sizes = bench_sizes
        self.bench_k = bench_k
        self.files = {}              # (size, variant) -> (path, instance)
        self.dirs = []               # [(path, [instance, ...])]
        self._scaled = {}

    def setup(self, seconds):
        rng = random.Random(f"cli:{self.seed}")
        self.workdir.mkdir(parents=True, exist_ok=True)
        files = {}
        for n in self.solve_sizes:
            for v in range(self.VARIANTS):
                inst = random_instance(rng, n, self.solve_k, self.SOLVE_DENSITY)
                path = self.workdir / f"solve-n{n}-v{v}.mkvc"
                mkvc.fileio.write_instance(inst, path)
                files[n, v] = (path, inst)
        dirs = []
        for d in range(self.BENCH_DIRS):
            sub = self.workdir / f"bench{d}"
            sub.mkdir(exist_ok=True)
            insts = []
            for n in self.bench_sizes:
                inst = random_instance(rng, n, self.bench_k, self.BENCH_DENSITY)
                mkvc.fileio.write_instance(inst, sub / f"n{n}.mkvc")
                insts.append(inst)
            dirs.append((sub, insts))
        self.files, self.dirs = files, dirs
        self._scaled = {}

    def round(self, r):
        ops = []
        v = r % self.VARIANTS
        for n in self.solve_sizes:
            path, inst = self.files[n, v]
            k = inst.k
            for label, extra in (("greedy", ["--algorithm", "greedy"]),
                                 ("topside", ["--algorithm", "topside"]),
                                 ("alg1", ["--algorithm", "alg1",
                                           "--x-size", str(k // 2)]),
                                 ("scaled", ["--algorithm", "greedy",
                                             "--scale-ell", "3"])):
                ops.append(self._solve_op(f"solve/{label}/n{n}/v{v}", path,
                                          inst, extra, label == "scaled"))
        sub, insts = self.dirs[r % len(self.dirs)]
        ops.append(self._bench_op(f"bench/{sub.name}", sub, insts))
        return ops

    def _scaled_instance(self, inst):
        key = id(inst)
        if key not in self._scaled:
            self._scaled[key] = mkvc.reduction.scale_weights(inst, 3)[0]
        return self._scaled[key]

    def _solve_op(self, op_id, path, inst, extra, scaled):
        argv = ["solve", str(path), *extra]

        def call():
            return _run_cli(argv)

        def check(result):
            code, out, err = result
            _require(code == 0, f"exit {code}: {err.strip()}")
            fields = dict(line.split(" ", 1) for line in out.splitlines())
            refs = _parse_vertices(fields["vertices"])
            _require(len(refs) == inst.k,
                     f"returned {len(refs)} vertices, wanted {inst.k}")
            value = mkvc.graph.covered_weight(inst, refs)
            _require(int(fields["value"]) == value,
                     f"value {fields['value']} != covered weight {value}")
            if scaled:
                sv = mkvc.graph.covered_weight(self._scaled_instance(inst),
                                               refs)
                _require(int(fields["scaled_value"]) == sv,
                         f"scaled value {fields['scaled_value']} != {sv}")
                _require("transfer_guarantee" in fields, "no guarantee line")
            return out

        return Op(op_id, "solve", call, check)

    def _bench_op(self, op_id, sub, insts):
        argv = ["bench", str(sub), "--oracle", "--solvers", self.BENCH_SOLVERS]
        n_solvers = len(self.BENCH_SOLVERS.split(","))

        def call():
            return _run_cli(argv)

        def check(result):
            code, out, err = result
            _require(code == 0, f"exit {code}: {err.strip()}")
            rows = list(csv.reader(io.StringIO(out)))
            _require(rows and rows[0] == self.HEADER, "bad CSV header")
            data = [row for row in rows[1:] if not row[0].startswith("summary/")]
            summary = [row for row in rows[1:] if row[0].startswith("summary/")]
            _require(len(data) == len(insts) * n_solvers,
                     f"{len(data)} data rows")
            _require(len(summary) == 2 * n_solvers, f"{len(summary)} summary rows")
            for row in data:
                value, opt = int(row[2]), int(row[3])
                _require(value <= opt, f"{row[0]}/{row[1]}: {value} > opt {opt}")
                _require(Fraction(row[4]) == Fraction(value, opt),
                         f"{row[0]}/{row[1]}: ratio {row[4]}")
            return "\n".join(",".join(row[:-1]) for row in rows)

        return Op(op_id, "bench", call, check)


WORKLOADS = {cls.name: cls for cls in (Sweep, Amplify, Cli)}
