import io
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mkvc import (
    BipartiteInstance, MkvcError, ParseError, Side, SolverKind, SolverSpec,
    VertexRef, build_solver, covered_weight, improve_ratio, read_instance,
    run_matrix, solve_exact, solve_greedy, write_csv, write_instance,
)
from mkvc.cli import main
from mkvc.generate import GenKind, GenSpec, generate
from mkvc.solvers import GREEDY_RHO
from mkvc.verify import run_verification


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
        inst = generate(GenSpec(kind=GenKind.GREEDY_ADVERSARIAL, k=k, seed=k))
        assert inst.n_left == k and inst.n_right == 2 * k and inst.k == k
        g = solve_greedy(inst).covered_weight
        opt = solve_exact(inst).covered_weight
        assert g < opt


def test_adversarial_needs_k_at_least_two():
    with pytest.raises(MkvcError, match="k >= 2"):
        generate(GenSpec(kind=GenKind.GREEDY_ADVERSARIAL, k=1))


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
    assert err == [f"error: line {line}: non-ASCII byte"] * 2


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


def test_run_matrix_parallel_matches_serial(k22):
    solvers = _solvers("greedy", "exact")
    serial = run_matrix([("a", k22), ("b", k22.with_budget(1))], solvers,
                        oracle=True)
    parallel = run_matrix([("a", k22), ("b", k22.with_budget(1))], solvers,
                          oracle=True, jobs=2)
    strip = lambda recs: [(r.instance_id, r.solver, r.value, r.opt, r.ratio)
                          for r in recs]
    assert strip(serial) == strip(parallel)


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


def test_cli_solve_with_scaling(tmp_path, capsys):
    path = _write_k22(tmp_path)
    assert main(["solve", str(path), "--algorithm", "greedy",
                 "--scale-ell", "3"]) == 0
    out = capsys.readouterr().out
    assert "scaled_value" in out and "value 4" in out
    assert "transfer_guarantee" in out


@pytest.mark.filterwarnings("ignore:depth clamped")
@pytest.mark.parametrize("depth", [1, 2])
def test_cli_ptas_transfer_guarantee_is_the_executed_chains(tmp_path, capsys,
                                                            depth):
    # eps = 1/10 needs far more than two passes from greedy, so the printed
    # guarantee is that of the passes that ran, not 1 - eps - 1/(4n)
    path = tmp_path / "g12.mkvc"
    write_instance(generate(GenSpec(kind=GenKind.UNIFORM_RANDOM, n_left=6,
                                    n_right=6, seed=3, k=3)), path)
    assert main(["solve", str(path), "--algorithm", "ptas", "--scale-ell",
                 "3", "--max-depth", str(depth)]) == 0
    fields = dict(line.split(" ", 1)
                  for line in capsys.readouterr().out.splitlines())
    rho = GREEDY_RHO
    for _ in range(depth):
        rho = improve_ratio(rho)
    assert Fraction(fields["transfer_guarantee"]) == rho - Fraction(1, 48)
    assert fields["transfer_guarantee"] != "211/240"


@pytest.mark.filterwarnings("ignore:depth clamped")
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


def _cli_flags(paths):
    """Per subcommand, its required tokens and strategies for its options
    (sizes <= 6, --small-n <= 4, --scale-ell <= 4, --jobs <= 1, so no
    process is started)."""
    ints = st.integers
    kinds = [k.value for k in SolverKind]
    return {
        "gen": ([st.just("-o"), st.sampled_from(paths["out"])], [
            _opt("--kind", st.sampled_from([k.value for k in GenKind])),
            _opt("--n-left", ints(-1, 6)), _opt("--n-right", ints(-1, 6)),
            _opt("--edge-prob", st.sampled_from([-0.5, 0, 0.3, 1, 1.5])),
            _opt("--d-left", ints(-1, 6)), _opt("--d-right", ints(-1, 6)),
            _opt("--weight-min", ints(-2, 9)),
            _opt("--weight-max", ints(-2, 9)),
            _opt("--k", ints(-1, 12)), _opt("--seed", ints(0, 9))]),
        "solve": ([st.sampled_from(paths["in"]), st.just("--algorithm"),
                   st.sampled_from(kinds)], [
            _opt("--base", st.sampled_from(kinds)),
            _opt("--c", ints(-1, 4)), _opt("--x-size", ints(-1, 4)),
            _opt("--side", st.sampled_from(["left", "R", "up"])),
            _opt("--epsilon", st.sampled_from(["1/10", "1/2", "0", "-1",
                                               "3/2", "1/0", "0.3"])),
            _opt("--max-depth", ints(-1, 2)), _opt("--scale-ell", ints(-1, 4)),
            _opt("--oracle-budget", ints(-1, 500))]),
        "bench": ([st.sampled_from(paths["dir"])], [
            st.just(["--oracle"]), _opt("--oracle-budget", ints(-1, 500)),
            _opt("--solvers", st.lists(st.sampled_from(kinds + ["foo", ""]),
                                       max_size=3).map(",".join)),
            _opt("--jobs", ints(-1, 1)),
            _opt("--output", st.sampled_from(paths["out"]))]),
        "verify": ([], [_opt("--small-n", ints(-1, 4)),
                        _opt("--seed", ints(-3, 9))]),
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


@pytest.mark.filterwarnings("ignore:depth clamped")
@given(st.data())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exit_codes_under_fuzzed_arguments(cli_files, capsys, data):
    command = data.draw(st.sampled_from(["gen", "solve", "bench", "verify"]))
    required, options = _cli_flags(cli_files)[command]
    argv = [command] + [data.draw(token) for token in required]
    for tokens in data.draw(st.lists(st.one_of(options), max_size=4)):
        argv += tokens
    for junk in data.draw(st.lists(_JUNK, max_size=2)):
        argv.insert(data.draw(st.integers(0, len(argv))), junk)
    assert main(argv) in (0, 1, 2, 64)
    capsys.readouterr()


# -- determinism ---------------------------------------------------------------------

def test_verification_output_is_byte_stable():
    lines_a, lines_b = [], []
    assert run_verification(small_n=4, out=lines_a.append)
    assert run_verification(small_n=4, out=lines_b.append)
    assert lines_a == lines_b


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
