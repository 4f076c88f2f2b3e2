import io
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mkvc.bench
import mkvc.corpus as corpus
import mkvc.verify as verify
from mkvc import (
    BipartiteInstance, CoverSolution, MkvcError, ParseError, Side, SolverKind,
    SolverSpec, VertexRef, build_solver, covered_weight, improve_ratio,
    ptas_schedule, read_instance, residual, run_matrix, scale_weights,
    secondary_bounds, solve_exact, solve_greedy, write_csv, write_instance,
)
from mkvc.cli import main
from mkvc.generate import GenKind, GenSpec, generate
from mkvc.solvers import GREEDY_RHO, MAX_PTAS_DEPTH
from mkvc.verify import run_verification
from reference_reader import reference_read_instance


# -- generators ---------------------------------------------------------------

def test_complete_generator_builds_k22():
    inst = generate(GenSpec(kind=GenKind.COMPLETE, n_left=2, n_right=2,
                            weight_min=1, weight_max=1, k=2))
    assert inst.m == 4 and all(w == 1 for _, _, w in inst.edges)


def test_semiregular_handshake_checked():
    with pytest.raises(MkvcError, match="unrealizable"):
        generate(GenSpec(kind=GenKind.SEMI_REGULAR, n_left=3, n_right=2,
                         d_left=1, d_right=1, k=1))


def test_semiregular_generator_is_biregular():
    rng = random.Random(0)
    for seed in range(12):
        nl, nr, dl = 6, 4, 2
        inst = generate(GenSpec(kind=GenKind.SEMI_REGULAR, n_left=nl,
                                n_right=nr, d_left=dl, d_right=3,
                                k=2, seed=seed))
        left_degs = {inst.degree(v) for v in range(nl)}
        right_degs = {inst.degree(v) for v in range(nl, nl + nr)}
        assert left_degs == {2} and right_degs == {3}


def test_same_seed_same_instance():
    spec = GenSpec(kind=GenKind.UNIFORM_RANDOM, n_left=5, n_right=5, seed=99)
    assert generate(spec).edges == generate(spec).edges


def test_different_seed_usually_differs():
    a = generate(GenSpec(kind=GenKind.UNIFORM_RANDOM, n_left=5, n_right=5, seed=1))
    b = generate(GenSpec(kind=GenKind.UNIFORM_RANDOM, n_left=5, n_right=5, seed=2))
    assert a.edges != b.edges


def test_default_budget_is_quarter_of_order():
    inst = generate(GenSpec(kind=GenKind.UNIFORM_RANDOM, n_left=5, n_right=5))
    assert inst.k == 3


def test_rational_weight_generator():
    inst = generate(GenSpec(kind=GenKind.UNIFORM_RANDOM, n_left=3, n_right=3,
                            rational_weights=True, seed=4))
    assert any(isinstance(w, Fraction) for _, _, w in inst.edges)
    assert all(w >= 0 for _, _, w in inst.edges)


def test_adversarial_family_fools_greedy():
    for k in (2, 3, 4):
        inst = generate(GenSpec(kind=GenKind.GREEDY_ADVERSARIAL, n_left=k,
                                n_right=2 * k, k=k, seed=k))
        assert inst.n_left == k and inst.n_right == 2 * k and inst.k == k
        g = solve_greedy(inst).covered_weight
        opt = solve_exact(inst).covered_weight
        assert g < opt


def test_adversarial_needs_k_at_least_two():
    with pytest.raises(MkvcError, match="k >= 2"):
        generate(GenSpec(kind=GenKind.GREEDY_ADVERSARIAL, n_left=1,
                         n_right=2, k=1))


# -- instance files -------------------------------------------------------------

def test_round_trip(tmp_path, k22):
    path = tmp_path / "a.mkvc"
    write_instance(k22, path)
    back = read_instance(path)
    assert back.edges == k22.edges
    assert (back.n_left, back.n_right, back.k) == (2, 2, 2)


def test_read_known_format(tmp_path):
    path = tmp_path / "b.mkvc"
    path.write_text("c tiny complete graph\n"
                    "p mkvc 2 2 4 2\n"
                    "e 0 0 1\ne 0 1 1\ne 1 0 1\ne 1 1 1\n")
    inst = read_instance(path)
    assert inst.m == 4 and inst.k == 2


def test_duplicate_edge_reports_line(tmp_path):
    path = tmp_path / "c.mkvc"
    path.write_text("p mkvc 2 2 2 1\ne 0 0 1\ne 0 0 1\n")
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        read_instance(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "d.mkvc"
    path.write_text("p mkvc 2 2\n")
    with pytest.raises(ParseError, match="line 1"):
        read_instance(path)


def test_out_of_range_index_rejected(tmp_path):
    path = tmp_path / "e.mkvc"
    path.write_text("p mkvc 2 2 1 1\ne 5 0 1\n")
    with pytest.raises(ParseError, match="line 2.*out of range"):
        read_instance(path)


def test_budget_at_least_order_rejected(tmp_path):
    path = tmp_path / "f.mkvc"
    path.write_text("p mkvc 2 2 0 4\n")
    with pytest.raises(ParseError, match="k=4"):
        read_instance(path)


def test_edge_count_mismatch_rejected(tmp_path):
    path = tmp_path / "g.mkvc"
    path.write_text("p mkvc 2 2 3 1\ne 0 0 1\n")
    with pytest.raises(ParseError, match="declared 3"):
        read_instance(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "h.mkvc"
    path.write_text("c nothing here\n")
    with pytest.raises(ParseError, match="missing problem line"):
        read_instance(path)


@pytest.mark.parametrize("text, line, kind", [
    ("p mkvc 1 1 1 1\ne 0 0 {}\n", 2, "edge"),
    ("p mkvc 1 1 1 {}\n", 1, "problem")])
def test_overlong_integer_field_is_named_too_long(tmp_path, text, line, kind):
    # int() refuses 5,000 digits as it refuses a non-integer
    path = tmp_path / "long.mkvc"
    path.write_text(text.format("9" * 5000))
    with pytest.raises(ParseError, match=f"line {line}: field too long in "
                       f"{kind} line"):
        read_instance(path)


@pytest.mark.parametrize("body, line", [
    (b"c caf\xc3\xa9\np mkvc 2 2 1 1\ne 0 0 1\n", 1),
    (b"p mkvc 2 2 1 1\r\ne 0 0 1\xff\n", 2),
    (b"p mkvc 2 2 1 1\re 0 0 1\n\x80", 3),
])
def test_non_ascii_byte_is_a_parse_error(tmp_path, capsys, body, line):
    path = tmp_path / "u.mkvc"
    path.write_bytes(body)
    with pytest.raises(ParseError, match=f"line {line}: non-ASCII byte"):
        read_instance(path)
    assert main(["solve", str(path), "--algorithm", "greedy"]) == 1
    assert main(["bench", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: line {line}: non-ASCII byte",
                   f"error: u.mkvc: line {line}: non-ASCII byte"]


_TOKENS = st.one_of(st.sampled_from([b"p", b"e", b"c", b"mkvc", b"x", b""]),
                    st.integers(-2, 6).map(lambda i: str(i).encode()),
                    st.binary(max_size=3))


@st.composite
def instance_bytes(draw):
    """Arbitrary bytes, or lines of header, edge and comment tokens with
    arbitrary bytes mixed in and any line ending."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    lines = draw(st.lists(st.lists(_TOKENS, max_size=7).map(b" ".join),
                          max_size=8))
    end = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return end.join(lines)


@given(instance_bytes())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_instance_fuzz_returns_or_raises_mkvc_error(tmp_path, data):
    path = tmp_path / "fuzz.mkvc"
    path.write_bytes(data)
    try:
        inst = read_instance(path)
    except MkvcError:
        return
    assert isinstance(inst, BipartiteInstance)


def _read_outcome(read, path):
    """What a reader makes of a file: the instance's shape, budget and
    edges, or the text of the error it raises."""
    try:
        inst = read(path)
    except MkvcError as exc:
        return type(exc).__name__, str(exc)
    return inst.n_left, inst.n_right, inst.k, inst.edges


def _assert_reads_as_reference(path):
    outcome = _read_outcome(read_instance, path)
    assert outcome == _read_outcome(reference_read_instance, path)
    return outcome


_SPACE = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f"])


@st.composite
def valid_instance_bytes(draw):
    """A well-formed file: comments, blank lines, runs of whitespace
    between fields, integers spelt `3`, `+3` or `03`, any line ending and
    trailing blank lines or none.  At times one line is replaced by a
    line of `_TOKENS` or a stray edge line, or two lines swap, so a
    fault sits among good lines."""
    n_left, n_right = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_left - 1),
                                    st.integers(0, n_right - 1)),
                          unique=True, max_size=6))
    k = draw(st.integers(1, n_left + n_right - 1))
    spell = lambda i: draw(st.sampled_from([str(i), f"+{i}", f"0{i}"]))

    def line(*fields):
        return (draw(st.sampled_from(["", " ", "\x0c"]))
                + "".join(f + draw(_SPACE) for f in fields[:-1]) + fields[-1]
                + draw(st.sampled_from(["", " ", "\t"])))

    lines = [line("p", "mkvc", spell(n_left), spell(n_right),
                  spell(len(pairs)), spell(k))]
    lines += [line("e", spell(l), spell(r), spell(draw(st.integers(0, 99))))
              for l, r in pairs]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "c note", "  c", "\x0b"])))
    fault = draw(st.sampled_from(["none", "replace", "swap", "edge"]))
    if fault == "edge":
        # out of range, negative, a duplicate or an edge too many
        lines[draw(st.integers(0, len(lines) - 1))] = line(
            "e", *(str(draw(st.integers(-1, 4))) for _ in range(3)))
    elif fault == "replace":
        tokens = draw(st.lists(_TOKENS, max_size=6))
        lines[draw(st.integers(0, len(lines) - 1))] = (
            b" ".join(tokens).decode("ascii", "surrogateescape"))
    elif fault == "swap" and len(lines) > 1:
        i, j = draw(st.lists(st.integers(0, len(lines) - 1), min_size=2,
                             max_size=2, unique=True))
        lines[i], lines[j] = lines[j], lines[i]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tail = draw(st.sampled_from(["", end, end * 3]))
    return (end.join(lines) + tail).encode("ascii", "surrogateescape")


@given(st.one_of(instance_bytes(), valid_instance_bytes()))
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_reader_matches_the_line_by_line_reference(tmp_path, data):
    # the same instance or the same error text, line number included
    path = tmp_path / "diff.mkvc"
    path.write_bytes(data)
    _assert_reads_as_reference(path)


_K22_EDGES = ((0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4))


@pytest.mark.parametrize("body, outcome", [
    (b"p mkvc 2 2 4 2\r\ne 0 0 1\r\ne 0 1 2\r\ne 1 0 3\r\ne 1 1 4\r\n",
     (2, 2, 2, _K22_EDGES)),
    (b"p mkvc 2 2 4 2\re 0 0 1\re 0 1 2\re 1 0 3\re 1 1 4\r",
     (2, 2, 2, _K22_EDGES)),
    (b"p mkvc 2 2 4 2\ne 0 0 1\ne 0 1 2\ne 1 0 3\ne 1 1 4",
     (2, 2, 2, _K22_EDGES)),
    # \x0b and \x0c separate fields inside a line and end no line
    (b"p\x0bmkvc 2 2 4 2\ne 0\x0c0 1\ne 0 1 2\x0b\ne 1 0 3\ne\x0c1 1 4\n",
     (2, 2, 2, _K22_EDGES)),
    (b"p mkvc 2 2 5 2\ne 0 0 1\x0b\x0c\ne 0 1 2\n",
     ("ParseError", "line 4: declared 5 edges, found 2")),
    # trailing blank lines count towards the line after the last
    (b"p mkvc 2 2 3 2\ne 0 0 1\n\n \n\t\n",
     ("ParseError", "line 6: declared 3 edges, found 1")),
    (b"p mkvc 2 2 3 2\r\ne 0 0 1\r\n\r\n",
     ("ParseError", "line 4: declared 3 edges, found 1")),
    (b"p mkvc 2 2 3 2\re 0 0 1\r\r\r",
     ("ParseError", "line 5: declared 3 edges, found 1")),
    # two faults: the earlier line wins, whatever kinds they are
    (b"p mkvc 2 2 2 1\ne 0 0 1\ne 0 0 1\ne 0 1 -1\n",
     ("ParseError", "line 3: duplicate edge (0,0)")),
    (b"p mkvc 2 2 2 1\ne 0 0 -1\ne 0 0 1\n",
     ("ParseError", "line 2: negative weight")),
    (b"e 0 0 1\np mkvc 2 2 1 1\nq\n",
     ("ParseError", "line 1: edge line before problem line")),
    (b"p mkvc 2 2 1 1\ne 0 0 x\ne 0 1 1 \xff\n",
     ("ParseError", "line 2: non-integer field in edge line")),
    (b"p mkvc 2 2 1 1\ne 0 1 1 \xff\ne 0 0 x\n",
     ("ParseError", "line 2: non-ASCII byte")),
    (b"p mkvc 2 2 1 1\ne 0 0 1\ne 0 1 1\np mkvc 2 2 1 1\n",
     ("ParseError", "line 3: more edge lines than declared")),
    # two faults on one line: the reader's checks keep their order
    (b"p mkvc 2 2 2 1\ne 0 0 1\ne 0 0 -1\n",
     ("ParseError", "line 3: negative weight")),
    (b"p mkvc 2 2 2 1\ne 2 0 -1\n",
     ("ParseError", "line 2: edge (2,0) out of range")),
    (b"p mkvc 2 2 1 1\ne 0 0 1\ne 0 x\n",
     ("ParseError", "line 3: more edge lines than declared")),
    (b"p mkvc 2 2 1 1\ne 0 x\n",
     ("ParseError", "line 2: expected 'e left right weight'")),
    (b"p mkvc 2 2 1 x\ne 0 0 1\n",
     ("ParseError", "line 1: non-integer field in problem line")),
    (b"p mkvc 0 2 -1 9\n",
     ("ParseError", "line 1: side sizes must be >= 1")),
    (b"p mkvc 2 2 0 1\np mkvc 2 2 0 1\n",
     ("ParseError", "line 2: duplicate problem line")),
    (b"p mkvc 2 2 -1 1\n",
     ("ParseError", "line 1: negative edge count")),
], ids=["crlf", "cr", "no-final-newline", "vt-ff-in-line", "vt-ff-at-end",
        "trailing-blank-lines", "trailing-crlf", "trailing-cr",
        "duplicate-before-negative", "negative-before-duplicate",
        "edge-before-problem", "integer-before-non-ascii",
        "non-ascii-before-integer", "extra-edge-before-second-problem",
        "negative-duplicate", "out-of-range-negative", "extra-short-edge",
        "short-non-integer-edge", "non-integer-problem",
        "sizes-count-budget", "duplicate-problem", "negative-count"])
def test_reader_line_endings_and_fault_order(tmp_path, body, outcome):
    path = tmp_path / "case.mkvc"
    path.write_bytes(body)
    assert _assert_reads_as_reference(path) == outcome


def _assert_built_alike(inst, edges):
    """`inst` holds what `BipartiteInstance.__init__` builds on `edges`,
    its shape and budget, bit planes included."""
    ref = BipartiteInstance(inst.n_left, inst.n_right, edges, inst.k)
    for attr in ("n_left", "n_right", "k", "edges", "m", "_inc",
                 "_full_mask", "_uniform"):
        assert getattr(inst, attr) == getattr(ref, attr), attr
    inst._build_planes()
    ref._build_planes()
    assert inst._planes == ref._planes


@pytest.mark.parametrize("seed", range(6))
def test_read_and_scaled_instances_are_built_as_init_builds(tmp_path, seed):
    rng = random.Random(seed)
    inst = generate(GenSpec(kind=GenKind.UNIFORM_RANDOM,
                            n_left=rng.randint(1, 12),
                            n_right=rng.randint(1, 12), edge_prob=0.4,
                            weight_max=rng.choice([1, 100, 10 ** 30]),
                            seed=seed))
    path = tmp_path / "i.mkvc"
    write_instance(inst, path)
    read = read_instance(path)
    _assert_built_alike(read, list(inst.edges))
    scaled = scale_weights(read, 3)[0]
    _assert_built_alike(scaled, list(scaled.edges))
    path.write_text(f"p mkvc {inst.n_left} {inst.n_right} 0 {inst.k}\n")
    _assert_built_alike(read_instance(path), [])


def test_rational_weights_not_serializable(tmp_path):
    inst = BipartiteInstance(1, 1, [(0, 0, Fraction(1, 3))], 1)
    with pytest.raises(MkvcError, match="non-integer"):
        write_instance(inst, tmp_path / "x.mkvc")


# -- run matrix ------------------------------------------------------------------

def _solvers(*names):
    return [build_solver(SolverSpec(SolverKind(n))) for n in names]


def test_run_matrix_against_oracle(k22):
    records = run_matrix([("k22", k22)], _solvers("greedy", "exact"), oracle=True)
    assert len(records) == 2
    assert all(rec.ratio is not None and rec.ratio <= 1 for rec in records)
    greedy_rec = next(r for r in records if r.solver == "greedy")
    assert 100 * greedy_rec.ratio >= 63


def test_run_matrix_records_oracle_infeasible():
    big = BipartiteInstance(20, 20, [(i, i, 1) for i in range(20)], 20)
    records = run_matrix([("big", big)], _solvers("greedy"), oracle=True,
                         oracle_budget=100)
    assert len(records) == 1
    assert records[0].error and "oracle" in records[0].error
    assert records[0].value is not None


def test_run_matrix_runs_the_oracle_once_per_instance(monkeypatch, k22):
    calls = []

    def counted(inst, budget):
        calls.append(inst)
        return solve_exact(inst, budget)

    monkeypatch.setattr(mkvc.bench, "solve_exact", counted)
    big = BipartiteInstance(20, 20, [(i, i, 1) for i in range(20)], 20)
    records = run_matrix([("k22", k22), ("big", big)],
                         _solvers("greedy", "topside"), oracle=True,
                         oracle_budget=100)
    assert len(calls) == 2
    by_inst = {}
    for rec in records:
        by_inst.setdefault(rec.instance_id, []).append(rec)
    assert all(rec.opt == 4 and rec.error is None for rec in by_inst["k22"])
    assert [rec.error for rec in by_inst["big"]] == [
        "oracle: instance too large for oracle"] * 2


def test_cli_bench_exact_row_obeys_the_oracle_budget(tmp_path, capsys):
    # 6 x 6 at k = 4 has C(12, 4) = 495 subsets
    edges = "\n".join(f"e {i} {j} 1" for i in range(6) for j in range(6))
    (tmp_path / "k66.mkvc").write_text(f"p mkvc 6 6 36 4\n{edges}\n")
    code = main(["bench", str(tmp_path), "--oracle-budget", "100",
                 "--solvers", "exact,greedy"])
    assert code == 1
    assert "exact: instance too large for oracle" in capsys.readouterr().err


def test_run_matrix_amplifier_never_below_greedy():
    rng = random.Random(21)
    instances = []
    for i in range(8):
        nl, nr = rng.randint(2, 4), rng.randint(2, 4)
        edges = [(a, b, rng.randint(1, 9)) for a in range(nl)
                 for b in range(nr) if rng.random() < 0.7]
        instances.append((f"i{i}", BipartiteInstance(nl, nr, edges,
                                                     rng.randint(1, nl + nr - 1))))
    amp = build_solver(SolverSpec(SolverKind.ALG2,
                                  base=SolverSpec(SolverKind.GREEDY)))
    records = run_matrix(instances, _solvers("greedy") + [amp], oracle=True)
    by_inst = {}
    for rec in records:
        by_inst.setdefault(rec.instance_id, {})[rec.solver] = rec.ratio
    for ratios in by_inst.values():
        assert ratios["alg2[c=3](greedy)"] >= ratios["greedy"]


def test_csv_shape_and_summary(k22):
    records = run_matrix([("k22", k22)], _solvers("greedy", "exact"), oracle=True)
    buf = io.StringIO()
    write_csv(records, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "instance_id,solver,value,opt,ratio,time_ms"
    assert len(lines) == 1 + 2 + 4  # header, two rows, two summary rows each
    assert any(line.startswith("summary/min,greedy") for line in lines)


def test_csv_empty_matrix_is_header_only():
    buf = io.StringIO()
    write_csv([], buf)
    assert buf.getvalue() == "instance_id,solver,value,opt,ratio,time_ms\n"


@pytest.mark.parametrize("module", ["mkvc", "mkvc.cli"])
def test_import_loads_no_process_pool(module):
    # the package runs in one process, so importing it loads no pool
    src = str(Path(mkvc.__file__).resolve().parents[1])
    code = (f"import sys, {module}; print(sorted(name for name in "
            "sys.modules if name.split('.')[0] in "
            "('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


# -- CLI ----------------------------------------------------------------------------

def _write_k22(tmp_path, name="k22.mkvc", k=2):
    path = tmp_path / name
    path.write_text(f"p mkvc 2 2 4 {k}\ne 0 0 1\ne 0 1 1\ne 1 0 1\ne 1 1 1\n")
    return path


def test_cli_gen_then_read(tmp_path):
    out = tmp_path / "gen.mkvc"
    code = main(["gen", "--kind", "uniform", "--n-left", "4", "--n-right", "4",
                 "--seed", "7", "--output", str(out)])
    assert code == 0
    inst = read_instance(out)
    assert inst.n == 8


def test_cli_solve_exact_prints_value(tmp_path, capsys):
    path = _write_k22(tmp_path, k=1)
    assert main(["solve", str(path), "--algorithm", "exact"]) == 0
    out = capsys.readouterr().out
    assert "value 2" in out


def test_cli_alg2_over_exact_is_the_oracle_past_its_reduced_budgets(
        tmp_path, capsys):
    # (n, k) = (30, 27): the oracle values C(30, 27) = 4,060 sets, but
    # reduced oracle runs at b = 7 ... 23 would each pass its 2,000,000-set
    # guard.  The oracle's run at k is already exact, so alg2 makes none
    rng = random.Random(0)
    picks = sorted(rng.sample(range(225), 45))
    inst = BipartiteInstance(15, 15, [(e // 15, e % 15, rng.randint(1, 100))
                                      for e in picks], 27)
    path = tmp_path / "f30.mkvc"
    write_instance(inst, path)
    assert main(["solve", str(path), "--algorithm", "exact"]) == 0
    want = capsys.readouterr()
    assert main(["solve", str(path), "--algorithm", "alg2",
                 "--base", "exact"]) == 0
    got = capsys.readouterr()
    assert got.out == want.out and got.err == ""
    assert got.out.startswith("value 2236\n")


def test_cli_solve_with_scaling(tmp_path, capsys):
    path = _write_k22(tmp_path)
    assert main(["solve", str(path), "--algorithm", "greedy",
                 "--scale-ell", "3"]) == 0
    # unit weights scale to 4^3 = 64 each; the guarantee is GREEDY_RHO less
    # 1/(4*4), 0.63212 - 0.0625 = 0.56962
    assert capsys.readouterr().out == (
        "scaled with w -> ceil(4^3 * w / 1)\n"
        "scaled_value 256\n"
        "value 4\n"
        "vertices L0 L1\n"
        "transfer_guarantee 28481/50000\n")


@pytest.mark.parametrize("depth", [1, 2])
def test_cli_ptas_transfer_guarantee_is_the_executed_chains(tmp_path, capsys,
                                                            depth):
    # eps = 1/10 needs far more than two passes from greedy, so the printed
    # guarantee is that of the passes that ran, each proving its least case
    # bound, not 1 - eps - 1/(4n)
    path = tmp_path / "g12.mkvc"
    write_instance(generate(GenSpec(kind=GenKind.UNIFORM_RANDOM, n_left=6,
                                    n_right=6, seed=3, k=3)), path)
    assert main(["solve", str(path), "--algorithm", "ptas", "--scale-ell",
                 "3", "--max-depth", str(depth)]) == 0
    fields = dict(line.split(" ", 1)
                  for line in capsys.readouterr().out.splitlines())
    rho = GREEDY_RHO
    for _ in range(depth):
        rho = min(improve_ratio(rho), *secondary_bounds(rho))
    assert Fraction(fields["transfer_guarantee"]) == rho - Fraction(1, 48)
    assert fields["transfer_guarantee"] != "211/240"


def test_cli_reports_a_clamped_ptas_depth_in_one_stable_line(tmp_path,
                                                             capsys):
    # the line holds no path or source line, so it reads the same wherever
    # the package is installed; bench reports it once, not once per run
    path = tmp_path / "d" / "g12.mkvc"
    path.parent.mkdir()
    assert main(["gen", "--n-left", "6", "--n-right", "6", "--seed", "3",
                 "--k", "3", "-o", str(path)]) == 0
    capsys.readouterr()
    clamped = ("warning: depth clamped to 2: guarantee 40803/59197 falls "
               "short of target 9/10\n")
    assert main(["solve", str(path), "--algorithm", "ptas"]) == 0
    assert capsys.readouterr() == ("value 836\nvertices L0 L1 L3\n", clamped)
    assert main(["bench", str(path.parent), "--solvers", "ptas,greedy",
                 "--oracle"]) == 0
    assert capsys.readouterr().err == clamped
    # eps = 1/3 is met at depth 2, so nothing is reported
    assert main(["solve", str(path), "--algorithm", "ptas",
                 "--epsilon", "1/3"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("algorithm", [
    ["topside"], ["alg1", "--x-size", "1"], ["alg2", "--base", "topside"]],
    ids=["topside", "alg1", "alg2-topside"])
def test_cli_scaled_solve_without_a_guarantee_prints_none(tmp_path, capsys,
                                                          algorithm):
    path = _write_k22(tmp_path)
    assert main(["solve", str(path), "--algorithm", *algorithm,
                 "--scale-ell", "3"]) == 0
    fields = dict(line.split(" ", 1)
                  for line in capsys.readouterr().out.splitlines())
    assert fields["transfer_guarantee"] == "none"


def test_cli_ptas_at_a_tiny_epsilon_runs_at_the_cap(tmp_path, capsys):
    path = _write_k22(tmp_path)
    t0 = time.perf_counter()
    code = main(["solve", str(path), "--algorithm", "ptas",
                 "--epsilon", "1/10000"])
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert code == 0 and "value 4" in out
    assert err == ("warning: depth clamped to 2: guarantee 40803/59197 "
                   "falls short of target 9999/10000\n")


def _write_n8(tmp_path):
    path = tmp_path / "n8.mkvc"
    assert main(["gen", "--n-left", "4", "--n-right", "4", "--seed", "1",
                 "-o", str(path)]) == 0
    return path


@pytest.mark.parametrize("options, value", [
    (["ptas", "--epsilon", "1/1000", "--max-depth", "20"], True),
    (["ptas", "--epsilon", "1/1000", "--max-depth", "34"], True),
    (["ptas", "--max-depth", str(MAX_PTAS_DEPTH + 1)], False),
    (["greedy"], False),
], ids=["depth20", "depth34", "depth-above-cap", "long-weight"])
def test_cli_extreme_inputs_print_a_value_or_one_error(tmp_path, options,
                                                       value):
    # a deep chain once overflowed the int-to-string limit in its warning
    # and then the stack, and a long weight the limit in int(); none may
    # end in a traceback (for a huge --scale-ell see the next test)
    path = _write_n8(tmp_path)
    if options == ["greedy"]:
        path.write_text(f"p mkvc 4 4 1 2\ne 0 0 {'9' * 5000}\n")
    src = str(Path(mkvc.__file__).resolve().parents[1])
    t0 = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "mkvc.cli", "solve", str(path), "--algorithm",
         *options], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - t0 < 10
    assert "Traceback" not in run.stderr
    if value:
        assert run.returncode == 0 and run.stdout.startswith("value 348\n")
    else:
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr.startswith("error: ")
        assert run.stderr.count("error:") == 1


def test_cli_value_past_the_print_limit_is_one_error(tmp_path, capsys):
    # each weight fits int()'s limit, their sum has one digit more; solve
    # and bench print nothing of it, not a partial CSV or a traceback
    limit = sys.get_int_max_str_digits()
    weight = "9" * limit
    path = tmp_path / "long.mkvc"
    path.write_text(f"p mkvc 1 2 2 1\ne 0 0 {weight}\ne 0 1 {weight}\n")
    assert read_instance(path).total_weight() == 2 * int(weight)
    error = f"error: value too long to print (over {limit} digits)\n"
    for argv in (["solve", str(path), "--algorithm", "greedy"],
                 ["bench", str(tmp_path)],
                 ["bench", str(tmp_path), "-o", str(tmp_path / "out.csv")]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", error)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("ell", [5000, 10 ** 9])
def test_cli_unprintable_scale_ell_is_refused_at_once(tmp_path, capsys, ell):
    # n = 8: 8^5000 has 4,516 digits, past Python's limit on printing an
    # int; the cap is judged without building the power, as 8^(10^9)
    # would take long to build
    path = _write_n8(tmp_path)
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["solve", str(path), "--algorithm", "greedy",
                 "--scale-ell", str(ell)]) == 1
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: ell={ell} too large for n=8: ell times the bit length of n "
        "must be at most 10000\n")


def test_cli_ptas_over_topside_exits_one(tmp_path, capsys):
    path = _write_k22(tmp_path)
    assert main(["solve", str(path), "--algorithm", "ptas",
                 "--base", "topside"]) == 1
    assert "proven guarantee" in capsys.readouterr().err


@pytest.mark.parametrize("kind", list(SolverKind), ids=lambda k: k.value)
def test_cli_solve_every_algorithm(tmp_path, capsys, kind):
    if kind == SolverKind.SEMI_REGULAR:
        path = _write_k22(tmp_path)
    else:
        path = tmp_path / "small.mkvc"
        path.write_text("p mkvc 3 3 6 2\ne 0 0 4\ne 0 1 1\ne 1 1 3\n"
                        "e 1 2 2\ne 2 0 5\ne 2 2 1\n")
    assert main(["solve", str(path), "--algorithm", kind.value]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" ", 1) for line in out.splitlines())
    refs = {VertexRef(Side.LEFT if t[0] == "L" else Side.RIGHT, int(t[1:]))
            for t in fields["vertices"].split()}
    inst = read_instance(path)
    assert len(refs) == inst.k
    assert int(fields["value"]) == covered_weight(inst, refs)


def test_cli_solve_alg1_oversized_prefix_exits_one(tmp_path, capsys):
    path = _write_k22(tmp_path)
    assert main(["solve", str(path), "--algorithm", "alg1",
                 "--x-size", "3"]) == 1
    assert "x_size" in capsys.readouterr().err


def test_cli_solve_alg2_small_c_exits_one(tmp_path, capsys):
    path = _write_k22(tmp_path)
    assert main(["solve", str(path), "--algorithm", "alg2", "--c", "2"]) == 1
    assert "c must be > 2" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", [["alg1", "--x-size", "1"], ["alg2"],
                                       ["ptas"]])
def test_cli_solve_exact_base_obeys_the_oracle_budget(tmp_path, capsys,
                                                      algorithm):
    edges = "\n".join(f"e {i} {j} {i + j + 1}"
                      for i in range(6) for j in range(6))
    path = tmp_path / "k66.mkvc"
    path.write_text(f"p mkvc 6 6 36 3\n{edges}\n")
    args = ["solve", str(path), "--algorithm", *algorithm, "--base", "exact"]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--oracle-budget", "1"]) == 1
    assert "instance too large for oracle" in capsys.readouterr().err


def test_cli_solve_semiregular_error_exits_one(tmp_path, capsys):
    path = tmp_path / "odd.mkvc"
    path.write_text("p mkvc 2 2 3 1\ne 0 0 1\ne 0 1 1\ne 1 0 1\n")
    assert main(["solve", str(path), "--algorithm", "semiregular"]) == 1
    assert "not semi-regular" in capsys.readouterr().err


def test_cli_solve_missing_file_exits_one(capsys):
    assert main(["solve", "/nonexistent.mkvc", "--algorithm", "greedy"]) == 1


def test_cli_usage_errors_exit_64(capsys):
    assert main(["solve", "x", "--algorithm", "nope"]) == 64
    assert main(["--bogus"]) == 64
    assert main(["bench"]) == 64
    assert main(["bench", ".", "--jobs", "2"]) == 64
    assert main(["solve", "x", "--algorithm", "topside", "--side", "up"]) == 64
    assert "side must be left or right" in capsys.readouterr().err


@pytest.mark.parametrize("side,tag", [("left", "L"), ("L", "L"),
                                      ("right", "R"), ("R", "R")])
def test_cli_solve_side_picks_the_top_side(tmp_path, capsys, side, tag):
    path = tmp_path / "small.mkvc"
    path.write_text("p mkvc 3 3 6 2\ne 0 0 4\ne 0 1 1\ne 1 1 3\n"
                    "e 1 2 2\ne 2 0 5\ne 2 2 1\n")
    assert main(["solve", str(path), "--algorithm", "topside",
                 "--side", side]) == 0
    fields = dict(line.split(" ", 1)
                  for line in capsys.readouterr().out.splitlines())
    tokens = fields["vertices"].split()
    assert len(tokens) == 2 and all(t[0] == tag for t in tokens)


def test_cli_bench_writes_csv(tmp_path):
    _write_k22(tmp_path)
    _write_k22(tmp_path, "k22b.mkvc", k=1)
    out = tmp_path / "out.csv"
    code = main(["bench", str(tmp_path), "--oracle", "--solvers",
                 "greedy,exact", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("instance_id")
    assert len(lines) == 1 + 4 + 4


def test_cli_bench_reads_only_mkvc_files(tmp_path, capsys):
    # a .txt beside a .mkvc of the same stem would give a second `k22` row
    _write_k22(tmp_path)
    _write_k22(tmp_path, "k22.txt", k=1)
    assert main(["bench", str(tmp_path), "--solvers", "greedy"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [
        ["k22", "greedy", "4"], ["summary/min", "greedy", ""],
        ["summary/mean", "greedy", ""]]


def test_cli_bench_names_the_file_it_could_not_read(tmp_path, capsys):
    _write_k22(tmp_path, "a.mkvc")
    (tmp_path / "b.mkvc").write_text("p mkvc 2 2 2 1\ne 0 0 1\ne 0 0 2\n")
    assert main(["bench", str(tmp_path), "--solvers", "greedy"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: b.mkvc: line 3: duplicate edge (0,0)\n"


@pytest.mark.parametrize("names", [[], ["k22.txt"]], ids=["empty", "txt"])
def test_cli_bench_without_instance_files_exits_one(tmp_path, capsys, names):
    for name in names:
        _write_k22(tmp_path, name)
    assert main(["bench", str(tmp_path)]) == 1
    assert "no instance files" in capsys.readouterr().err


def test_cli_bench_unknown_solver_is_a_usage_error(tmp_path, capsys):
    _write_k22(tmp_path)
    assert main(["bench", str(tmp_path), "--solvers", "greedy,foo"]) == 64
    err = capsys.readouterr().err
    assert "unknown solver 'foo'" in err and "greedy" in err and "ptas" in err


def test_cli_bench_oracle_infeasible_exits_one(tmp_path, capsys):
    path = tmp_path / "big.mkvc"
    edges = "\n".join(f"e {i} {j} 1" for i in range(12) for j in range(12))
    path.write_text(f"p mkvc 12 12 144 12\n{edges}\n")
    code = main(["bench", str(tmp_path), "--oracle", "--oracle-budget", "100",
                 "--solvers", "greedy"])
    assert code == 1
    assert "oracle" in capsys.readouterr().err


@pytest.mark.parametrize("budget, message", [
    ("0", "must be >= 1, got 0"), ("-3", "must be >= 1, got -3"),
    ("x", "invalid int value: 'x'")], ids=["0", "-3", "x"])
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_cli_oracle_budget_below_one_is_a_usage_error(tmp_path, capsys,
                                                      command, budget,
                                                      message):
    path = _write_k22(tmp_path)
    args = ([str(path), "--algorithm", "exact"] if command == "solve"
            else [str(tmp_path), "--oracle"])
    assert main([command, *args, "--oracle-budget", budget]) == 64
    captured = capsys.readouterr()
    assert f"argument --oracle-budget: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("small_n, message", [
    ("-3", "must be >= 2, got -3"), ("0", "must be >= 2, got 0"),
    ("1", "must be >= 2, got 1"), ("x", "invalid int value: 'x'")],
    ids=["-3", "0", "1", "x"])
def test_cli_verify_small_n_below_two_is_a_usage_error(capsys, small_n,
                                                       message):
    # below a pair of vertices the sweep would check nothing and pass
    assert main(["verify", "--small-n", small_n]) == 64
    captured = capsys.readouterr()
    assert f"argument --small-n: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("names", ["", " , "])
def test_cli_bench_without_solvers_is_a_usage_error(tmp_path, capsys, names):
    _write_k22(tmp_path)
    assert main(["bench", str(tmp_path), "--solvers", names]) == 64
    captured = capsys.readouterr()
    assert "argument --solvers: must name at least one solver" in captured.err
    assert captured.out == ""


def test_cli_bench_naming_a_solver_twice_is_a_usage_error(tmp_path, capsys):
    # a repeat would write two identical rows under one label and count
    # the copy in the summary rows
    _write_k22(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["bench", str(tmp_path), "--solvers", "ptas,greedy,ptas",
                 "-o", str(out)]) == 64
    captured = capsys.readouterr()
    assert "argument --solvers: solver 'ptas' named twice" in captured.err
    assert captured.out == "" and not out.exists()


def test_sweep_checks_every_battery_solver_with_a_rho(monkeypatch):
    import mkvc.corpus as corpus
    assert corpus.BATTERY_RHOS == {
        "greedy": (GREEDY_RHO.numerator, GREEDY_RHO.denominator),
        "alg2": (72409, 109197)}
    # greedy takes L0 and then L1 for 3 of the 4 that R0 and R1 cover, so
    # a claimed rho of 1 is counted against it and against nothing else
    inst = BipartiteInstance(3, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1),
                                    (2, 1, 1)], 2)
    monkeypatch.setitem(corpus.BATTERY_RHOS, "greedy", (1, 1))
    agg = corpus.new_aggregate()
    corpus.check_instance(inst, agg, "t")
    assert agg["rho"] == 1
    assert agg["examples"] == ["t: greedy 3 < 1/1 of opt 4"]


# L0-R0 of weight 199 and L1-R1 of weight 101, L2 and L3 isolated, k = 4:
# every battery solver covers all 300; {L0, R0, L2, L3} covers 199, just
# above alg2's and greedy's rho and below k/n = 2/3 of it
_TWO_EDGES = BipartiteInstance(4, 2, [(0, 0, 199), (1, 1, 101)], 4)


def _ids_solution(inst, *ids):
    refs = frozenset(map(inst.ref_of, ids))
    return CoverSolution(vertices=refs,
                         covered_weight=covered_weight(inst, refs))


def _on_side(solve, side, change):
    """`solve`, with `change` applied to its solution on `side`."""
    return lambda inst, s: (change(inst, solve(inst, s)) if s is side
                            else solve(inst, s))


def _moved(by):
    return lambda inst, sol: replace(sol,
                                     covered_weight=sol.covered_weight + by)


@pytest.mark.parametrize("name, fault, fired, examples", [
    # {L0, L1, L2} covers 300, one vertex short of the left side's 4
    ("solve_top_side", _on_side(
        corpus.solve_top_side, Side.LEFT,
        lambda inst, sol: _ids_solution(inst, 0, 1, 2)),
     {"feasibility": 1}, ["t: topsideL returned 3 vertices, wanted 4"]),
    ("solve_top_side", _on_side(corpus.solve_top_side, Side.LEFT, _moved(-1)),
     {"self_consistency": 1}, ["t: topsideL value mismatch"]),
    # a value above the oracle is also one that recomputation refutes
    ("solve_top_side", _on_side(corpus.solve_top_side, Side.RIGHT, _moved(1)),
     {"self_consistency": 1, "dominance": 1},
     ["t: topsideR value mismatch", "t: topsideR 301 > opt 300"]),
    # below 63/100 is below greedy's rho as well, and here below k/n
    ("solve_greedy", lambda inst: _ids_solution(inst, 1, 2, 3, 5),
     {"rho": 1, "greedy_floor": 1, "greedy_kn": 1},
     ["t: greedy 101 < 15803/25000 of opt 300", "t: greedy 101 vs opt 300",
      "t: greedy below (k/n)*opt"]),
    ("solve_greedy", lambda inst: _ids_solution(inst, 0, 2, 3, 4),
     {"greedy_kn": 1}, ["t: greedy below (k/n)*opt"]),
    ("solve_alg2", lambda inst, c, base: _ids_solution(inst, 0, 2, 3, 4),
     {"alg2_vs_greedy": 1}, ["t: alg2 199 < greedy 300"]),
    ("prop1_sweep", lambda inst, O, opt: False,
     {"prop1": 1}, ["t: remaining-optimum check failed"]),
], ids=["feasibility", "self-consistency", "dominance", "greedy-floor",
        "greedy-kn", "alg2-vs-greedy", "prop1"])
def test_each_sweep_count_fires_on_its_fault(monkeypatch, name, fault, fired,
                                             examples):
    agg = corpus.new_aggregate()
    corpus.check_instance(_TWO_EDGES, agg, "t")
    assert not any(agg[key] for key in corpus.SWEEP_CHECKS)
    monkeypatch.setattr(corpus, name, fault)
    agg = corpus.new_aggregate()
    corpus.check_instance(_TWO_EDGES, agg, "t")
    assert {key: agg[key] for key in corpus.SWEEP_CHECKS if agg[key]} == fired
    assert agg["examples"] == examples


def _lowest_on_side(inst, side):
    start = 0 if side is Side.LEFT else inst.n_left
    return _ids_solution(inst, *range(start, start + inst.k))


def _one_pass_short(rho0, eps):
    """A schedule that claims one pass fewer than it converges in."""
    s = ptas_schedule(rho0, eps)
    return replace(s, iterations=s.convergence_count - 1)


@pytest.mark.parametrize("name, fault, failed, whole_suite", [
    ("ptas_schedule", _one_pass_short,
     {"iteration bound at (greedy rho, eps=1/10)",
      "convergence count within the closed-form bound"}, False),
    # a valuation that shrinks as the set grows
    ("covered_weight", lambda inst, refs: -covered_weight(inst, refs),
     {"coverage monotone under inclusion", "coverage gains submodular",
      "single-side top-l equals brute force",
      "oracle on scaled weights transfers ratio 1 - 1/(4n)"}, False),
    ("solve_top_side", _lowest_on_side,
     {"single-side top-l equals brute force"}, False),
    # a residual that deletes nothing counts the edges S and T share twice
    ("residual", lambda inst, deleted, k: residual(inst, set(), k),
     {"residual coverage additivity"}, False),
    ("scale_weights", lambda inst, ell: scale_weights(inst, ell + 1),
     {"scaled weights within [0, n^3], max attained",
      "ceiling over-count within |F| on random edge sets"}, False),
    ("ratio_transfer", lambda rho, n, ell: Fraction(rho),
     {"oracle on scaled weights transfers ratio 1 - 1/(4n)"}, True),
], ids=["schedule", "coverage", "top-side", "residual", "scaling",
        "transfer"])
def test_each_verify_line_fails_on_its_fault(monkeypatch, capsys, name, fault,
                                             failed, whole_suite):
    seed = 20260810  # mkvc verify's default

    def hundredths(*span):
        return [Fraction(i, 100) for i in range(*span)]

    def failing():
        lines = (verify.check_schedule(hundredths(5, 95, 5),
                                       hundredths(5, 50, 5))
                 + verify.check_graph_core(seed)
                 + verify.check_reduction(
                     corpus.rational_corpus(count=40, seed=seed), seed))
        return {line[1] for line in lines if line[0] == "FAIL"}

    assert failing() == set()
    monkeypatch.setattr(verify, name, fault)
    assert failing() == failed
    if whole_suite:
        assert run_verification(small_n=4) is False
        assert main(["verify", "--small-n", "4"]) == 2
        assert capsys.readouterr().out.endswith("verification FAILED\n")


def test_cli_verify_passes(capsys):
    assert main(["verify", "--small-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "verification PASSED" in out


@pytest.mark.parametrize("argv", [
    ["--weight-min", "5", "--weight-max", "1"],
    ["--kind", "adversarial", "--weight-max", "-5"],
    ["--weight-min", "-1"],
])
def test_cli_gen_bad_weight_range_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "f.mkvc"
    assert main(["gen", *argv, "-o", str(out)]) == 1
    assert "weight_min" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--k", "0"], "out of range"),
    (["--k", "8"], "out of range"),
    (["--kind", "semiregular", "--n-left", "2", "--n-right", "1",
      "--d-left", "2", "--d-right", "4"], "degree exceeds far side"),
    (["--kind", "adversarial", "--n-left", "5", "--n-right", "5", "--k", "3"],
     "adversarial family is k x 2k = 3 x 6, not 5 x 5"),
    (["--edge-prob", "2"], "edge_prob=2.0 out of range [0, 1]"),
    (["--edge-prob", "-0.5"], "edge_prob=-0.5 out of range [0, 1]"),
    (["--edge-prob", "nan"], "edge_prob=nan out of range [0, 1]"),
    (["--kind", "complete", "--n-left", "0", "--n-right", "5"],
     "side sizes must be >= 1"),
    (["--n-left", "0", "--n-right", "5"], "side sizes must be >= 1"),
    (["--kind", "complete", "--edge-prob", "0.1", "--n-left", "2",
      "--n-right", "2"], "kind complete does not read edge_prob"),
    (["--kind", "semiregular", "--n-left", "4", "--n-right", "4",
      "--d-left", "2", "--d-right", "2", "--weight-min", "7",
      "--weight-max", "9"], "kind semiregular does not read weight_min"),
], ids=["k-0", "k-n", "semiregular-degree", "adversarial-shape",
        "edge-prob-2", "edge-prob-negative", "edge-prob-nan",
        "complete-empty-side", "uniform-empty-side", "complete-edge-prob",
        "semiregular-weights"])
def test_cli_gen_bad_shape_exits_one(tmp_path, capsys, argv, message):
    out = tmp_path / "f.mkvc"
    assert main(["gen", *argv, "-o", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["1/0", "abc", ""])
def test_cli_solve_bad_epsilon_is_a_usage_error(tmp_path, capsys, eps):
    path = _write_k22(tmp_path)
    assert main(["solve", str(path), "--algorithm", "ptas",
                 "--epsilon", eps]) == 64
    assert "--epsilon" in capsys.readouterr().err


def test_cli_semiregular_base_is_a_usage_error(tmp_path, capsys):
    path = _write_k22(tmp_path)
    assert main(["solve", str(path), "--algorithm", "alg2",
                 "--base", "semiregular"]) == 64
    assert "invalid choice: 'semiregular'" in capsys.readouterr().err


# -- CLI exit codes under arbitrary arguments --------------------------------

_JUNK = st.one_of(
    st.sampled_from(["", "-", "--", "--nope", "-x", "-1", "1/0", "nan",
                     "--k=", "--help"]),
    st.text("abxyz019./=", max_size=4))


def _opt(flag, values):
    return values.map(lambda v: [flag, str(v)])


def _options(*strategies):
    """Up to four of the given options, in any order, as one token list."""
    return st.lists(st.one_of(strategies), max_size=4).map(
        lambda groups: [token for group in groups for token in group])


@st.composite
def _gen_options(draw):
    """`--kind`, the shape, and up to three more option groups that kind
    reads.  The values mostly lie in range, and the options that must
    agree (the adversarial k x 2k shape and budget, a semiregular
    handshake, the weight bounds) are drawn together, so that most draws
    are instances gen can write; an empty side, a budget of 0 or n,
    weights out of order and a broken handshake still come up."""
    ints = st.integers
    kind = draw(st.sampled_from(list(GenKind)))
    if kind is GenKind.GREEDY_ADVERSARIAL:
        b = draw(ints(1, 4))
        n_left, n_right = b, 2 * b
        shape = [("--n-left", b), ("--n-right", 2 * b), ("--k", b)]
        groups = [[("--weight-max", draw(ints(-1, 9)))]]
    else:
        n_left, n_right = draw(ints(0, 6)), draw(ints(0, 6))
        shape = [("--n-left", n_left), ("--n-right", n_right)]
        groups = [[("--k", draw(ints(0, n_left + n_right)))]]
    groups.append([("--seed", draw(ints(0, 9)))])
    if kind is GenKind.SEMI_REGULAR and n_right:
        # a left degree that meets the handshake, or any one
        fits = [d for d in range(n_right + 1) if n_left * d % n_right == 0]
        d_left = draw(st.one_of(st.sampled_from(fits), ints(0, n_right)))
        d_right = n_left * d_left // n_right
        groups.append([("--d-left", d_left), ("--d-right", d_right)])
    if kind in (GenKind.UNIFORM_RANDOM, GenKind.COMPLETE):
        low = draw(ints(-1, 5))
        groups.append([("--weight-min", low),
                       ("--weight-max", low + draw(ints(-1, 5)))])
    if kind is GenKind.UNIFORM_RANDOM:
        groups.append([("--edge-prob", draw(st.sampled_from(
            [-0.5, 0, 0.3, 0.7, 1, 1.5])))])
    chosen = draw(st.lists(st.sampled_from(groups), unique_by=id,
                           max_size=3))
    return ["--kind", kind.value] + [
        str(token) for group in [shape, *chosen] for pair in group
        for token in pair]


def _cli_flags(paths):
    """Per subcommand, its required tokens and a strategy for its option
    tokens (sizes <= 6, --small-n <= 4 and --scale-ell <= 4, so each call
    is quick)."""
    ints = st.integers
    kinds = [k.value for k in SolverKind]
    return {
        # the writable path two times in three
        "gen": ([st.just("-o"), st.one_of(st.just(paths["out"][0]),
                                          st.sampled_from(paths["out"]))],
                _gen_options()),
        "solve": ([st.sampled_from(paths["in"]), st.just("--algorithm"),
                   st.sampled_from(kinds)], _options(
            _opt("--base", st.sampled_from(kinds)),
            _opt("--c", ints(-1, 4)), _opt("--x-size", ints(-1, 4)),
            _opt("--side", st.sampled_from(["left", "R", "up"])),
            _opt("--epsilon", st.sampled_from(["1/10", "1/2", "0", "-1",
                                               "3/2", "1/0", "0.3"])),
            _opt("--max-depth", ints(-1, 2)), _opt("--scale-ell", ints(-1, 4)),
            _opt("--oracle-budget", ints(-1, 500)))),
        "bench": ([st.sampled_from(paths["dir"])], _options(
            st.just(["--oracle"]), _opt("--oracle-budget", ints(-1, 500)),
            _opt("--solvers", st.lists(st.sampled_from(kinds + ["foo", ""]),
                                       max_size=3).map(",".join)),
            _opt("--output", st.sampled_from(paths["out"])))),
        "verify": ([], _options(_opt("--small-n", ints(-1, 4)),
                                _opt("--seed", ints(-3, 9)))),
    }


@pytest.fixture
def cli_files(tmp_path):
    """Instance files, a garbage file, a directory and missing paths."""
    (tmp_path / "d").mkdir()
    _write_k22(tmp_path / "d")
    write_instance(generate(GenSpec(kind=GenKind.UNIFORM_RANDOM, n_left=6,
                                    n_right=5, seed=1, k=3)),
                   tmp_path / "g.mkvc")
    (tmp_path / "junk.mkvc").write_bytes(b"p mkvc 2\n\xff e 0 0")
    names = {"in": ["d/k22.mkvc", "g.mkvc", "junk.mkvc", "missing.mkvc", "d"],
             "out": ["out.mkvc", "d", "nodir/x.mkvc"],
             "dir": [".", "d", "missing", "g.mkvc"]}
    return {key: [str(tmp_path / name) for name in value]
            for key, value in names.items()}


@given(st.data())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exit_codes_under_fuzzed_arguments(cli_files, capsys, data):
    command = data.draw(st.sampled_from(["gen", "solve", "bench", "verify"]))
    required, options = _cli_flags(cli_files)[command]
    argv = [command] + [data.draw(token) for token in required]
    argv += data.draw(options)
    for junk in data.draw(st.lists(_JUNK, max_size=2)):
        argv.insert(data.draw(st.integers(0, len(argv))), junk)
    # the one output path gen can write; cleared so a file left by an
    # earlier example is not taken for this one's
    written = Path(cli_files["out"][0])
    written.unlink(missing_ok=True)
    code = main(argv)
    assert code in (0, 1, 2, 64)
    if command == "gen" and written.exists():
        # gen writes only on success, and only files that read back
        assert code == 0
        read_instance(written)
    capsys.readouterr()


# -- determinism ---------------------------------------------------------------------

# `mkvc verify` with its default flags, byte for byte
_VERIFY_DEFAULT_OUTPUT = """\
ok   amplification strictly improves on (0,1) [99/99 grid points]
ok   gap identity (1-r)^3/(1+(1-r)^2) exact [99/99 grid points]
ok   gap strictly decreasing in rho [99-point grid]
ok   amplified ratio minimal among case bounds on [3/4, 1) [25/25 grid points]
note minimality of the amplified-ratio bound is provably false below 3/4 (13/25 > 5/11 at rho=1/4); claim holds at 0/74 low grid points
ok   iteration bound at (greedy rho, eps=1/10) [263 (expected 263 +- 1), convergence in 46 levels]
ok   rho=1/2 reaches 3/5 in one level [1 levels]
ok   convergence count within the closed-form bound [admissible grid, violations: []]
ok   fixed-point inversion accurate to 1e-12 [eps grid 0.05..0.45, violations: []]
ok   coverage monotone under inclusion [30 instances]
ok   coverage gains submodular [30 instances]
ok   single-side top-l equals brute force [30 instances]
ok   residual coverage additivity [30 instances]
ok   scaled weights within [0, n^3], max attained [40 instances]
ok   ceiling over-count within |F| on random edge sets [40 instances]
ok   oracle on scaled weights transfers ratio 1 - 1/(4n) [40 instances]
ok   every solver returns its full budget [1034 (instance, k) pairs]
ok   reported values match recomputation [1034 (instance, k) pairs]
ok   no solver exceeds the oracle [1034 (instance, k) pairs]
ok   every solver with a guarantee reaches rho of optimum [1034 (instance, k) pairs]
ok   greedy value >= 63/100 of optimum [1034 (instance, k) pairs]
ok   greedy value >= (k/n) of optimum [1034 (instance, k) pairs]
ok   amplifier never below greedy [1034 (instance, k) pairs]
ok   remaining-optimum identity sweep [1034 (instance, k) pairs]
ok   amplifier empirical ratio floor 0.67597 [min ratio 1]
ok   repeated runs identical
verification PASSED
"""


def test_verification_output_is_byte_stable():
    lines_a, lines_b = [], []
    assert run_verification(small_n=4, out=lines_a.append)
    assert run_verification(small_n=4, out=lines_b.append)
    assert lines_a == lines_b
    lines = []
    assert run_verification(out=lines.append)
    assert lines == _VERIFY_DEFAULT_OUTPUT.splitlines()


def test_bench_csv_stable_apart_from_timing(tmp_path):
    _write_k22(tmp_path)
    outputs = []
    for _ in range(2):
        records = run_matrix([("k22", read_instance(tmp_path / "k22.mkvc"))],
                             _solvers("greedy", "exact", "topside"),
                             oracle=True)
        buf = io.StringIO()
        write_csv(records, buf)
        stripped = "\n".join(",".join(line.split(",")[:-1])
                             for line in buf.getvalue().split("\n"))
        outputs.append(stripped)
    assert outputs[0] == outputs[1]
