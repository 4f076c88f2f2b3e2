"""Command-line interface: gen, solve, bench, verify.

Exit codes: 0 success, 1 instance/solver error, 2 verification failure,
64 usage error.
"""

from __future__ import annotations

import argparse
import io
import sys
from fractions import Fraction
from pathlib import Path

from .bench import run_matrix, value_text, write_csv
from .errors import MkvcError
from .fileio import read_instance, write_instance
from .generate import GenKind, GenSpec, generate
from .graph import Side, covered_weight
from .reduction import ratio_transfer, scale_weights
from .solvers import (
    BASE_KINDS, ORACLE_BUDGET, SolverKind, SolverSpec, build_solver,
    needs_base,
)
from .verify import run_verification

USAGE_EXIT = 64

# the defaults of solve's solver options, which bench's solvers also take
_SOLVER_DEFAULTS = dict(base="greedy", c=3, x_size=0, side=Side.LEFT,
                       epsilon=Fraction(1, 10), max_depth=2)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _side(text: str) -> Side:
    if text in ("left", "L"):
        return Side.LEFT
    if text in ("right", "R"):
        return Side.RIGHT
    raise argparse.ArgumentTypeError("side must be left or right")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _int_at_least(least: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return parse


_oracle_budget = _int_at_least(1)
# a sweep needs a pair of vertices
_small_n = _int_at_least(2)


def _solver_names(text: str) -> list:
    names = [name.strip() for name in text.split(",") if name.strip()]
    valid = [k.value for k in SolverKind]
    for name in names:
        if name not in valid:
            raise argparse.ArgumentTypeError(
                f"unknown solver {name!r} (choose from {', '.join(valid)})")
    if not names:
        raise argparse.ArgumentTypeError("must name at least one solver")
    return names


def _build_parser() -> _Parser:
    parser = _Parser(prog="mkvc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", choices=[k.value for k in GenKind],
                     default="uniform")
    gen.add_argument("--n-left", type=int, default=4)
    gen.add_argument("--n-right", type=int, default=4)
    gen.add_argument("--edge-prob", type=float, default=0.5)
    gen.add_argument("--d-left", type=int, default=0)
    gen.add_argument("--d-right", type=int, default=0)
    gen.add_argument("--weight-min", type=int, default=1)
    gen.add_argument("--weight-max", type=int, default=100)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", "-o", required=True)
    gen.set_defaults(run=_cmd_gen)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("instance")
    solve.add_argument("--algorithm", required=True,
                       choices=[k.value for k in SolverKind])
    solve.add_argument("--base", choices=[k.value for k in BASE_KINDS])
    solve.add_argument("--c", type=int)
    solve.add_argument("--x-size", type=int)
    solve.add_argument("--side", type=_side)
    solve.add_argument("--epsilon", type=_fraction)
    solve.add_argument("--max-depth", type=int)
    solve.add_argument("--scale-ell", type=int, default=None)
    solve.add_argument("--oracle-budget", type=_oracle_budget,
                       default=ORACLE_BUDGET)
    solve.set_defaults(run=_cmd_solve, **_SOLVER_DEFAULTS)

    bench = sub.add_parser("bench", help="run solvers over a directory")
    bench.add_argument("directory")
    bench.add_argument("--oracle", action="store_true")
    bench.add_argument("--oracle-budget", type=_oracle_budget,
                       default=ORACLE_BUDGET)
    bench.add_argument("--solvers", type=_solver_names, default="greedy,alg2",
                       help="comma-separated solver names")
    bench.add_argument("--output", "-o", default=None)
    bench.set_defaults(run=_cmd_bench, **_SOLVER_DEFAULTS)

    verify = sub.add_parser("verify", help="run the invariant suite")
    verify.add_argument("--small-n", type=_small_n, default=6)
    verify.add_argument("--seed", type=int, default=20260810)
    verify.set_defaults(run=_cmd_verify)
    return parser


def _solver_spec(name: str, args) -> SolverSpec:
    kind = SolverKind(name)
    base = None
    if needs_base(kind):
        base = SolverSpec(SolverKind(args.base),
                          oracle_budget=args.oracle_budget)
    return SolverSpec(kind, base=base, c=args.c, x_size=args.x_size,
                      side=args.side, epsilon=args.epsilon,
                      max_depth=args.max_depth,
                      oracle_budget=args.oracle_budget)


def _warn_if_clamped(solvers) -> None:
    # one line for each distinct ptas whose depth cap falls short of 1 - eps
    for s in dict.fromkeys(solvers):
        target = 1 - s.spec.epsilon
        if s.spec.kind is SolverKind.PTAS and s.rho < target:
            print(f"warning: depth clamped to {s.chain[1]}: guarantee "
                  f"{s.rho} falls short of target {target}", file=sys.stderr)


def _cmd_gen(args) -> int:
    spec = GenSpec(kind=GenKind(args.kind), n_left=args.n_left,
                   n_right=args.n_right, edge_prob=args.edge_prob,
                   d_left=args.d_left, d_right=args.d_right,
                   weight_min=args.weight_min, weight_max=args.weight_max,
                   k=args.k, seed=args.seed)
    inst = generate(spec)
    write_instance(inst, args.output)
    print(f"wrote {args.output}: n_left={inst.n_left} n_right={inst.n_right} "
          f"m={inst.m} k={inst.k}")
    return 0


def _format_vertices(sol) -> str:
    return " ".join(f"{'L' if s == Side.LEFT else 'R'}{i}"
                    for s, i in sol.sorted_vertices())


def _cmd_solve(args) -> int:
    inst = read_instance(args.instance)
    solver = build_solver(_solver_spec(args.algorithm, args))
    if args.scale_ell is not None:
        scaled, receipt = scale_weights(inst, args.scale_ell)
        _warn_if_clamped([solver])
        sol = solver.run(scaled)
        original_value = covered_weight(inst, sol.vertices)
        guarantee = ("none" if solver.rho is None
                     else ratio_transfer(solver.rho, inst.n, args.scale_ell))
        lines = [f"scaled with {receipt.scale_note}",
                 f"scaled_value {value_text(sol.covered_weight)}",
                 f"value {value_text(original_value)}",
                 f"vertices {_format_vertices(sol)}",
                 f"transfer_guarantee {guarantee}"]
    else:
        _warn_if_clamped([solver])
        sol = solver.run(inst)
        lines = [f"value {value_text(sol.covered_weight)}",
                 f"vertices {_format_vertices(sol)}"]
    # every line is formatted before the first is printed
    print("\n".join(lines))
    return 0


def _cmd_bench(args) -> int:
    directory = Path(args.directory)
    files = sorted(directory.glob("*.mkvc"))
    if not files:
        print(f"error: no instance files in {directory}", file=sys.stderr)
        return 1
    instances = [(f.stem, read_instance(f)) for f in files]
    solvers = [build_solver(_solver_spec(name, args)) for name in args.solvers]
    _warn_if_clamped(solvers)
    records = run_matrix(instances, solvers, oracle=args.oracle,
                         oracle_budget=args.oracle_budget)
    # the whole CSV is formatted before any of it is written
    text = io.StringIO()
    write_csv(records, text)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text.getvalue())
    else:
        sys.stdout.write(text.getvalue())
    errors = [r for r in records if r.error]
    for rec in errors[:5]:
        print(f"error: {rec.instance_id}/{rec.solver}: {rec.error}",
              file=sys.stderr)
    return 1 if errors else 0


def _cmd_verify(args) -> int:
    ok = run_verification(small_n=args.small_n, seed=args.seed, out=print)
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        return args.run(args)
    except (MkvcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
