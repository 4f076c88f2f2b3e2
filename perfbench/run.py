"""Seeded closed-loop benchmark of the mkvc package.

    python3 perfbench/run.py --workload {sweep,amplify,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  One client issues
one operation at a time from this single process (no worker pool).

With ``--trace 0`` the run builds its inputs from the seed (set-up is done
five times and the median reported), executes whole rounds of operations
for ``--seconds`` seconds, checks every operation's output and prints the
end-to-end metrics.  With ``--trace 1`` the same operations run untraced for
half the time and then traced for the other half; the traced half gives the
per-layer metrics and the pair gives the tracing overhead.

Every timing in the JSON line is in reference seconds: wall seconds scaled
by a calibration kernel timed between operations (see calibrate.py), which
takes the shared host's speed swings out of the comparison between runs.
The wall-clock figures are printed on the lines above it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
restate the metrics under their per-workload names, with sample counts, and
stamp the run.  A full record (and, when traced, the spans) is written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

from calibrate import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
EXPECTED = HERE / "expected_hashes.json"
SETUP_REPEATS = 5
SEGMENT_S = 0.25                     # op time per calibration factor
P90_MIN_SAMPLES = 100                # at least 10 samples beyond the p90


class SourceMissing(Exception):
    pass


def import_package():
    """Import mkvc from this checkout's src/ and fail if it is not there."""
    if not (SRC / "mkvc" / "__init__.py").is_file():
        raise SourceMissing(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import mkvc
    if Path(mkvc.__file__).resolve().parent != (SRC / "mkvc").resolve():
        raise SourceMissing(f"mkvc imported from {mkvc.__file__}, not {SRC}")
    # ptas at depth 2 cannot reach eps=1/10 from greedy; the clamp is expected
    warnings.filterwarnings("ignore", message="depth clamped",
                            category=UserWarning)


# ---------------------------------------------------------------------------
# running operations


def op_digest(op_id, text):
    return hashlib.sha256(f"{op_id}\n{text}".encode()).hexdigest()[:16]


def round_digest(op_digests):
    return hashlib.sha256("\n".join(map(str, op_digests)).encode()
                          ).hexdigest()[:16]


class Phase:
    """Outcome of running whole rounds of a workload for a time budget."""

    def __init__(self):
        self.times = []              # (kind, wall s, reference s) per op
        self.wrapped_calls = []      # traced calls per op, when traced
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = []            # digest per round, of the digested rounds

    def fail(self, op_id, error):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{op_id}: {error}")

    def wall_s(self):
        return sum(t[1] for t in self.times)

    def ref_s(self):
        return sum(t[2] for t in self.times)


def run_phase(workload, seconds, expected=None, tracer=None, rounds=None):
    """Run rounds until `seconds` of wall time have passed (at least one),
    or exactly `rounds` rounds when given.

    Only the program call is timed; checks and calibration samples run
    afterwards, untraced.  Op times are scaled to reference seconds in
    segments of at least SEGMENT_S of op time, each by the kernel samples
    taken during it.  Each of the first workload.digest_rounds rounds is
    digested over its ops' outputs and compared with `expected`, one digest
    per round; every op of a round whose digest differs counts as failed.
    """
    phase = Phase()
    cal = Calibration()
    segment = []

    def flush():
        factor = cal.take_factor()
        phase.times.extend((kind, dt, dt * factor) for kind, dt in segment)
        segment.clear()

    start = time.perf_counter()
    r = 0
    while (r < rounds if rounds is not None
           else r == 0 or time.perf_counter() - start < seconds):
        op_digests = []
        passed = []
        for op in workload.round(r):
            phase.attempted += 1
            if tracer is not None:
                tracer.op_id = op.op_id
                calls0 = tracer.total_calls[0]
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
                phase.wrapped_calls.append(tracer.total_calls[0] - calls0)
                tracer.probe_wrapper()
            text = None
            if error is None:
                try:
                    text = op.check(result)
                except Exception as exc:  # malformed output fails the op
                    error = f"check: {type(exc).__name__}: {exc}"
            if error is None:
                passed.append(op.op_id)
                op_digests.append(op_digest(op.op_id, text))
            else:
                phase.fail(op.op_id, error)
                op_digests.append(None)
            segment.append((op.kind, dt))
            cal.tick(dt)
            if sum(t[1] for t in segment) >= SEGMENT_S:
                flush()
        if r < workload.digest_rounds:
            digest = round_digest(op_digests)
            phase.digests.append(digest)
            if expected is not None and r < len(expected) \
                    and expected[r] != digest:
                for op_id in passed:
                    phase.fail(op_id, f"round {r} digest {digest} differs "
                               "from the recorded output")
        r += 1
    if segment:
        flush()
    return phase


def load_expected(workload_name, seed):
    if not EXPECTED.is_file():
        return None
    table = json.loads(EXPECTED.read_text(encoding="ascii"))
    return table.get(workload_name, {}).get(str(seed))


# ---------------------------------------------------------------------------
# metrics


def latency_summary(times, kinds=None, column=2):
    """p50 and, with enough samples, p90 in ms of the ops of the given kinds;
    column 1 is wall time, column 2 reference time."""
    vals = [t[column] * 1000 for t in times if kinds is None or t[0] in kinds]
    out = {"n": len(vals)}
    if vals:
        out["p50"] = statistics.median(vals)
        if len(vals) >= P90_MIN_SAMPLES:
            out["p90"] = statistics.quantiles(vals, n=10)[8]
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_workload(workload, seconds):
    """Median (wall, reference) time of SETUP_REPEATS set-ups, each scaled
    by kernel samples taken just before and after it."""
    cal = Calibration()
    wall, ref = [], []
    for _ in range(SETUP_REPEATS):
        cal.sample()
        t0 = time.perf_counter()
        workload.setup(seconds)
        dt = time.perf_counter() - t0
        cal.sample()
        wall.append(dt)
        ref.append(dt * cal.take_factor())
    return statistics.median(wall), statistics.median(ref)


def end_to_end(phase, setup):
    return {
        "setup_s": (setup[1], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_per_s": (len(phase.times) / phase.ref_s(), "1/s"),
        "op_ms.p50": (latency_summary(phase.times)["p50"], "ms"),
    }


LATENCY_KINDS = {
    "sweep": ("ops_per_s", {"op_ms": None}),
    "amplify": ("solves_per_s", {"solve_ms": None}),
    "cli": ("ops_per_s", {"op_ms": None, "solve_ms": {"solve"},
                          "bench_ms": {"bench"}}),
}


def named_lines(workload, phase, setup):
    """The end-to-end metrics under the workload's own names, with sample
    counts, in reference and in wall-clock time."""
    n = len(phase.times)
    rate_name, latencies = LATENCY_KINDS[workload.name]
    lines = [f"calibration.factor {phase.ref_s() / phase.wall_s():.6f} "
             "(reference s per wall s)",
             f"setup_s {setup[1]:.6f} s (wall {setup[0]:.6f}; "
             f"median of {SETUP_REPEATS})",
             f"peak_rss_mb {peak_rss_mb():.3f} MB",
             f"failed_ops {phase.failed / phase.attempted:.6f} share "
             f"({phase.failed}/{phase.attempted})",
             f"{rate_name} {n / phase.ref_s():.3f} 1/s "
             f"(wall {n / phase.wall_s():.3f}; n={n})"]
    if workload.name == "sweep":
        pairs = n * workload.pairs_per_op
        lines.append(f"pairs_per_s {pairs / phase.ref_s():.3f} 1/s "
                     f"(wall {pairs / phase.wall_s():.3f}; n={pairs})")
    for label, kinds in latencies.items():
        ref = latency_summary(phase.times, kinds)
        wall = latency_summary(phase.times, kinds, column=1)
        for q in ("p50", "p90"):
            if q in ref:
                lines.append(f"{label}.{q} {ref[q]:.3f} ms "
                             f"(wall {wall[q]:.3f}; n={ref['n']})")
        if "p90" not in ref:
            lines.append(f"{label}.p90 not reported: n={ref['n']} < "
                         f"{P90_MIN_SAMPLES}")
    return lines


def per_layer(tracer, untraced, traced):
    """Per-layer counters of the traced phase, plus the tracing overhead over
    the ops both phases completed.  Layer times have the wrapper cost taken
    out (see tracer.py) and are scaled to reference seconds by the traced
    phase's overall calibration factor."""
    from tracer import TRACED

    common = min(len(untraced.times), len(traced.times))
    t_untraced = sum(t[2] for t in untraced.times[:common])
    t_traced = sum(t[2] for t in traced.times[:common])
    ops = len(traced.times)
    wall = traced.wall_s() - tracer.wrapper_s()
    factor = traced.ref_s() / traced.wall_s()
    out = {}
    for name, *_ in TRACED:
        out[f"{name}.calls"] = (tracer.calls(name), "count")
        out[f"{name}.self_s"] = (tracer.self_s(name) * factor, "s")
    alg2_calls = tracer.calls("solvers.solve_alg2")
    exact_s = tracer.inclusive_s("solvers.solve_exact") * factor
    out.update({
        "solvers.base_runs_per_alg2": (
            tracer.calls("solvers.RatedSolver.run_masked") / alg2_calls
            if alg2_calls else 0.0, "count"),
        "solvers.exact.subsets_per_s": (
            tracer.oracle_subsets / exact_s if exact_s else 0.0, "1/s"),
        "graph.mask_weight.calls_per_op": (
            tracer.calls("graph.mask_weight") / ops, "count"),
        "fileio.bytes_read": (tracer.bytes_read, "bytes"),
        "solvers.solve_alg2.time_share": (
            tracer.inclusive_s("solvers.solve_alg2") / wall, "ratio"),
        "solvers.RatedSolver.run_masked.time_share": (
            tracer.inclusive_s("solvers.RatedSolver.run_masked") / wall,
            "ratio"),
        "trace.ops": (ops, "count"),
        "trace.spans": (len(tracer.spans) + tracer.dropped_spans, "count"),
        "trace.untraced_ops_per_s": (common / t_untraced, "1/s"),
        "trace.traced_ops_per_s": (common / t_traced, "1/s"),
        "trace.overhead": (t_traced / t_untraced - 1, "ratio"),
    })
    return out


# ---------------------------------------------------------------------------
# stamping


def git_commit(root):
    """Commit of the checkout read from .git, or "unknown" outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": git_commit(ROOT)}


# ---------------------------------------------------------------------------


def wrapper_lines(tracer, untraced, traced):
    """The wrapper cost per call taken out of the layer times, and, as a
    check on it, the traced ops' extra time over the same ops untraced
    divided by the traced calls they made."""
    common = min(len(untraced.times), len(traced.times))
    extra = (sum(t[2] for t in traced.times[:common])
             - sum(t[2] for t in untraced.times[:common]))
    calls = sum(traced.wrapped_calls[:common])
    factor = traced.ref_s() / traced.wall_s()
    callee, caller = tracer.wrapper_cost()
    lines = [f"trace.wrapper_ns_per_call {(callee + caller) * 1e9:.1f} ns "
             f"(wall; median of {len(tracer.probes)} no-op probes; "
             f"{callee * 1e9:.1f} inside the callee)"]
    if calls:
        lines.append(f"trace.extra_ns_per_call {extra / calls / factor * 1e9:.1f}"
                     f" ns (wall; traced minus untraced time over {calls} "
                     f"calls of {common} common ops)")
    return lines


def run(workload, seconds, trace, expected=None):
    """Set up, measure and return (phase, metrics, report lines, tracer)."""
    setup = setup_workload(workload, seconds)
    if not trace:
        phase = run_phase(workload, seconds, expected)
        return (phase, end_to_end(phase, setup),
                named_lines(workload, phase, setup), None)
    from tracer import Tracer

    untraced = run_phase(workload, seconds / 2, expected)
    tracer = Tracer()
    traced = run_phase(workload, seconds / 2, expected, tracer)
    metrics = per_layer(tracer, untraced, traced)
    combined = Phase()
    combined.attempted = untraced.attempted + traced.attempted
    combined.failed = untraced.failed + traced.failed
    combined.errors = (untraced.errors + traced.errors)[:10]
    lines = [f"{name} {value} {unit}" for name, (value, unit) in metrics.items()]
    lines += wrapper_lines(tracer, untraced, traced)
    return combined, metrics, lines, tracer


def result_object(phase, metrics):
    return {"correct": phase.failed == 0, "attempted": phase.attempted,
            "failed": phase.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    try:
        import_package()
    except (SourceMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv)
    info = stamp(args)
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        phase, metrics, lines, tracer = run(
            workload, args.seconds, args.trace,
            load_expected(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = result_object(phase, metrics)

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(stamp=info, lines=lines, errors=phase.errors, **result)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="ascii")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{tag}.spans.jsonl")

    print(f"# stamp {json.dumps(info)}")
    for line in lines:
        print(line)
    for err in phase.errors:
        print(f"# failed: {err}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
