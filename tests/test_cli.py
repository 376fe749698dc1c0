import csv
import json
import math

import numpy as np
import pytest

from subproj import Linear, Problem, SolveTrace, TraceRow, solve
from subproj.cli import main, write_trace
from subproj.errors import SchemaError
from subproj.serialize import (
    control_from_record,
    control_to_record,
    function_from_record,
    function_to_record,
    parse_problem_file,
    problem_from_record,
    problem_to_record,
    set_from_record,
    set_to_record,
)


def two_ball_record(**overrides):
    record = {
        "dimension": 2,
        "functions": [
            {"type": "dist", "set": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}},
            {"type": "dist", "set": {"type": "ball", "center": [1.5, 0.0], "radius": 1.0}},
        ],
        "control": {"type": "cyclic"},
        "relaxation": 1.0,
        "epsilon": 0.05,
        "x0": [5.0, 5.0],
        "tol": 1e-8,
        "max_iter": 500,
        "feasible_witness": [0.75, 0.0],
    }
    record.update(overrides)
    return record


def neglog_record(**overrides):
    record = {
        "dimension": 1,
        "functions": [{"type": "neglog"}],
        "control": {"type": "cyclic"},
        "relaxation": 1.0,
        "epsilon": 0.05,
        "x0": [0.5],
        "tol": 1e-8,
        "max_iter": 100,
    }
    record.update(overrides)
    return record


def write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


# -- record round trips -----------------------------------------------------------

def test_problem_record_round_trip():
    record = two_ball_record()
    problem = problem_from_record(record)
    again = problem_to_record(problem)
    assert again == record
    p2 = problem_from_record(again)
    assert p2.dimension == problem.dimension
    assert np.array_equal(p2.x0, problem.x0)
    assert p2.tol == problem.tol
    assert p2.max_iter == problem.max_iter
    assert [type(f).__name__ for f in p2.functions] == \
        [type(f).__name__ for f in problem.functions]


def test_nested_function_round_trip():
    record = neglog_record(functions=[{
        "type": "scale", "factor": 2.0,
        "inner": {"type": "power", "alpha": 0.5,
                  "inner": {"type": "sqdist",
                            "set": {"type": "box", "lo": [-1.0], "hi": [1.0]}}},
    }])
    problem = problem_from_record(record)
    assert problem_to_record(problem) == record


def test_unknown_keys_rejected():
    with pytest.raises(SchemaError):
        problem_from_record(two_ball_record(extra_knob=1))
    bad = two_ball_record()
    bad["functions"][0]["set"]["colour"] = "red"
    with pytest.raises(SchemaError):
        problem_from_record(bad)


def test_missing_keys_rejected():
    record = two_ball_record()
    del record["tol"]
    with pytest.raises(SchemaError):
        problem_from_record(record)


# -- project command ----------------------------------------------------------------

def test_project_prints_closed_form(tmp_path, capsys):
    path = write(tmp_path, "p.json", neglog_record())
    assert main(["project", "--file", path, "--point", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "0.84657359" in out
    assert "status: projected" in out


def test_project_fixed_point(tmp_path, capsys):
    path = write(tmp_path, "p.json", neglog_record())
    assert main(["project", "--file", path, "--point", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "status: fixed" in out
    assert "point: [2]" in out


def test_project_numeric_error_exit_3(tmp_path, capsys):
    path = write(tmp_path, "p.json", neglog_record())
    assert main(["project", "--file", path, "--point", "-1.0"]) == 3
    assert "DomainError" in capsys.readouterr().err


def test_project_requires_single_function(tmp_path, capsys):
    path = write(tmp_path, "p.json", two_ball_record())
    assert main(["project", "--file", path, "--point", "1.0", "2.0"]) == 2


KINK = {"type": "affinemax", "pieces": [{"a": [1.0, 0.0], "b": 0.0},
                                        {"a": [0.0, 1.0], "b": 0.0}]}


@pytest.mark.parametrize("strategy, subgradient, point", [
    ("least-index", "[1, 0]", "[0, 1]"),
    ("centroid", "[0.5, 0.5]", "[0, 0]"),
    ("endpoint:1", "[0, 1]", "[1, 0]"),
])
def test_project_strategy_picks_the_subgradient_at_a_kink(tmp_path, capsys, strategy,
                                                          subgradient, point):
    # Both pieces are active at (1, 1), with f = 1.
    path = write(tmp_path, "p.json", neglog_record(functions=[KINK], dimension=2, x0=[1.0, 1.0]))
    assert main(["project", "--file", path, "--strategy", strategy]) == 0
    assert capsys.readouterr().out == (f"point: {point}\nstatus: projected\nf_value: 1\n"
                                       f"subgradient: {subgradient}\n")


@pytest.mark.parametrize("strategy, message", [
    ("endpoint:x", "bad strategy 'endpoint:x'"),
    ("bogus", "unknown strategy 'bogus'"),
])
def test_project_bad_strategy_exits_2(tmp_path, capsys, strategy, message):
    path = write(tmp_path, "p.json", neglog_record(functions=[KINK], dimension=2, x0=[1.0, 1.0]))
    assert main(["project", "--file", path, "--strategy", strategy]) == 2
    assert capsys.readouterr().err == f"error: SchemaError: {message}\n"


# -- solve command --------------------------------------------------------------------

def test_solve_two_balls_writes_trace(tmp_path, capsys):
    path = write(tmp_path, "p.json", two_ball_record())
    trace_path = tmp_path / "trace.csv"
    assert main(["solve", "--file", path, "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "status: Converged" in out

    lines = trace_path.read_text().splitlines()
    assert lines[0] == "n,index,lambda,residual,step_norm,dist_to_witness"
    assert lines[-1].startswith("# status=Converged")
    body = lines[1:-1]
    x, trace = solve(problem_from_record(two_ball_record()))
    assert len(body) == trace.iterations
    # 17 significant digits survive a parse round trip
    for line in body:
        fields = line.split(",")
        assert float(fields[3]) == trace.rows[int(fields[0])].residual


def test_solve_trace_is_byte_deterministic(tmp_path):
    path = write(tmp_path, "p.json", two_ball_record())
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["solve", "--file", path, "--trace", str(t1), "--seed", "0"]) == 0
    assert main(["solve", "--file", path, "--trace", str(t2), "--seed", "0"]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def write_trace_with_csv(path, trace):
    """The trace writer as it was: csv.writer with its default dialect, one str per field."""
    def fmt(v):
        return "{:.17g}".format(float(v))

    with_witness = any(r.dist_to_witness is not None for r in trace.rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["n", "index", "lambda", "residual", "step_norm"]
        if with_witness:
            header.append("dist_to_witness")
        writer.writerow(header)
        for r in trace.rows:
            row = [str(r.n), str(r.index), fmt(r.lam), fmt(r.residual), fmt(r.step_norm)]
            if with_witness:
                row.append(fmt(r.dist_to_witness))
            writer.writerow(row)
        fh.write(f"# status={trace.status} iterations={trace.iterations}"
                 f" residual={fmt(trace.final_residual)}"
                 f" assumes={trace.assumption}\n")


EDGE_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e300, -1e300, 0.1, 1.0, 2.5]


def edge_rows(witness):
    rows = []
    for n, v in enumerate(EDGE_FLOATS):
        rows.append(TraceRow(n=n, index=n % 3, lam=1.5, residual=v, step_norm=-v,
                             dist_to_witness=v if witness else None))
        rows.append(TraceRow(n=np.int64(n), index=np.int64(2), lam=np.float64(0.75),
                             residual=np.float64(v), step_norm=np.float64(1.0 / 3.0),
                             dist_to_witness=np.float64(v) if witness else None))
    return rows


def two_ball_trace(witness):
    record = two_ball_record()
    if not witness:
        del record["feasible_witness"]
    return solve(problem_from_record(record))[1]


@pytest.mark.parametrize("make", [
    lambda: SolveTrace(edge_rows(witness=True), "Converged", np.zeros(2), 5e-324),
    lambda: SolveTrace(edge_rows(witness=False), "MaxIterReached", np.zeros(2), math.nan),
    lambda: SolveTrace([], "Converged", np.zeros(2), np.float64(-0.0)),
    lambda: two_ball_trace(witness=True),
    lambda: two_ball_trace(witness=False),
], ids=["edge-witness", "edge-no-witness", "no-rows", "two-balls", "two-balls-no-witness"])
def test_trace_writer_writes_the_bytes_of_the_csv_writer(tmp_path, make):
    trace = make()
    write_trace(tmp_path / "got.csv", trace)
    write_trace_with_csv(tmp_path / "ref.csv", trace)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert got.count(b"\r\n") == len(trace.rows) + 1 and got.endswith(b"\n")


def test_solve_exit_codes(tmp_path, capsys):
    slow = write(tmp_path, "slow.json", two_ball_record(max_iter=1))
    assert main(["solve", "--file", slow]) == 1

    bad_lambda = write(tmp_path, "bad.json", two_ball_record(relaxation=2.5, epsilon=0.1))
    assert main(["solve", "--file", bad_lambda]) == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json at all")
    assert main(["solve", "--file", str(not_json)]) == 2

    unknown_key = write(tmp_path, "unk.json", two_ball_record(verbosity=3))
    assert main(["solve", "--file", unknown_key]) == 2
    capsys.readouterr()


# The centroid of the two active slopes at (3, 3) cuts straight to (1, 1).
CORNER = {"type": "affinemax", "pieces": [{"a": [1.0, 0.0], "b": -1.0},
                                          {"a": [0.0, 1.0], "b": -1.0}]}


@pytest.mark.parametrize("strategy, iterations", [("least-index", 2), ("centroid", 1)])
def test_solve_strategy_selects_the_subgradient(tmp_path, capsys, strategy, iterations):
    path = write(tmp_path, "p.json", neglog_record(functions=[CORNER], dimension=2, x0=[3.0, 3.0]))
    assert main(["solve", "--file", path, "--strategy", strategy]) == 0
    assert capsys.readouterr().out == (f"status: Converged\niterations: {iterations}\n"
                                       "residual: 0\nx_final: [1, 1]\n")


@pytest.mark.parametrize("strategy, message", [
    ("endpoint:x", "bad strategy 'endpoint:x'"),
    ("bogus", "unknown strategy 'bogus'"),
])
def test_solve_bad_strategy_exits_2(tmp_path, capsys, strategy, message):
    path = write(tmp_path, "p.json", neglog_record(functions=[CORNER], dimension=2, x0=[3.0, 3.0]))
    assert main(["solve", "--file", path, "--strategy", strategy]) == 2
    assert capsys.readouterr() == ("", f"error: SchemaError: {message}\n")


def test_solve_without_steps_prints_the_residual_at_x0(tmp_path, capsys):
    # 0 < residual <= tol: the start is accepted as it is, and its residual reported.
    record = neglog_record(functions=[{"type": "dist", "set": {
        "type": "ball", "center": [0.0], "radius": 1.0}}], x0=[1.000000001])
    path = write(tmp_path, "p.json", record)
    trace_path = tmp_path / "trace.csv"
    assert main(["solve", "--file", path, "--trace", str(trace_path)]) == 0
    assert capsys.readouterr().out == ("status: Converged\niterations: 0\n"
                                       "residual: 1.000000082740371e-09\n"
                                       "x_final: [1.0000000010000001]\n")
    assert trace_path.read_text().splitlines()[-1] == (
        "# status=Converged iterations=0 residual=1.000000082740371e-09"
        " assumes=subdifferentials-bounded-on-bounded-sets")


# -- analyze command ---------------------------------------------------------------------

def test_analyze_jacobian(tmp_path, capsys):
    path = write(tmp_path, "p.json", neglog_record())
    assert main(["analyze", "jacobian", "--file", path, "--point", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "0.69314718" in out


def test_analyze_distbound(tmp_path, capsys):
    path = write(tmp_path, "p.json", neglog_record())
    assert main(["analyze", "distbound", "--file", path, "--point", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "lhs: 0.34657359" in out
    assert "rhs: 0.5" in out
    assert "verdict: OK" in out


def test_analyze_monotone_deterministic(tmp_path, capsys):
    record = neglog_record(functions=[
        {"type": "dist", "set": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}}],
        dimension=2, x0=[2.0, 0.0])
    path = write(tmp_path, "p.json", record)
    args = ["analyze", "monotone", "--file", path, "--point", "2.0", "0.0",
            "--pairs", "100", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    worst = float(first.splitlines()[1].split(": ")[1])
    assert worst >= -1e-12


def test_analyze_seqlab(tmp_path, capsys):
    path = write(tmp_path, "p.json", neglog_record(x0=[2.0]))
    assert main(["analyze", "seqlab", "--file", path, "--point", "2.0",
                 "--horizon", "200"]) == 0
    out = capsys.readouterr().out
    assert "verdict: feasible-limit" in out


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_analyze_seqlab_refuses_an_empty_horizon(tmp_path, capsys, horizon):
    path = write(tmp_path, "p.json", neglog_record(x0=[2.0]))
    assert main(["analyze", "seqlab", "--file", path, "--point", "2.0",
                 "--horizon", horizon]) == 3
    assert capsys.readouterr() == ("", "error: EmptySample: need at least one step\n")


def test_analyze_lipschitz(tmp_path, capsys):
    record = neglog_record(functions=[{"type": "hyperbolic", "eta": 2.0}], x0=[3.0])
    path = write(tmp_path, "p.json", record)
    assert main(["analyze", "lipschitz", "--file", path, "--point", "3.0",
                 "--beta", "1.0", "--count", "30", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    bound = float(out.splitlines()[0].split(": ")[1])
    quot = float(out.splitlines()[1].split(": ")[1])
    assert quot <= bound + 1e-9


def test_analyze_lipschitz_gives_up_without_positive_samples(tmp_path, capsys):
    # Every draw around the centre of a large ball has f = 0, so none qualifies.
    record = neglog_record(functions=[{"type": "dist", "set": {
        "type": "ball", "center": [0.0, 0.0], "radius": 1000.0}}], dimension=2, x0=[0.0, 0.0])
    path = write(tmp_path, "p.json", record)
    assert main(["analyze", "lipschitz", "--file", path, "--point", "0.0", "0.0",
                 "--count", "5"]) == 3
    assert capsys.readouterr().err == ("error: EmptySample: 0 of 500 draws around the point"
                                       " have 0 < f(x) < +inf; 5 are needed\n")


@pytest.mark.parametrize("command", [
    ["project"], ["analyze", "jacobian"], ["analyze", "lipschitz"], ["analyze", "monotone"],
    ["analyze", "seqlab"], ["analyze", "distbound"],
])
def test_projection_commands_refuse_a_file_with_two_functions(tmp_path, capsys, command):
    path = write(tmp_path, "p.json", two_ball_record())
    assert main(command + ["--file", path]) == 2
    assert capsys.readouterr() == (
        "", f"error: SchemaError: {command[0]} needs a problem file with exactly one function\n")


def test_analyze_lipschitz_zero_gradient_exits_3(tmp_path, capsys):
    # f = 1 everywhere with gradient 0: every draw qualifies, and none has a cut.
    constant = {"type": "affinemax", "pieces": [{"a": [0.0, 0.0], "b": 1.0}]}
    record = neglog_record(functions=[constant], dimension=2, x0=[0.0, 0.0])
    path = write(tmp_path, "p.json", record)
    assert main(["analyze", "lipschitz", "--file", path, "--count", "5"]) == 3
    assert capsys.readouterr().err == ("error: ZeroSubgradient: zero subgradient"
                                       " with positive function value\n")


# -- every tag survives a record round trip ---------------------------------------------

BALL = {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}
SET_RECORDS = [
    BALL,
    {"type": "halfspace", "normal": [1.0, 2.0], "offset": 0.5},
    {"type": "box", "lo": [-1.0, -2.0], "hi": [1.0, 0.5]},
    {"type": "point", "c": [0.25, -0.75]},
]
FUNCTION_RECORDS = [
    {"type": "linear", "u": [0.5, -1.0]},
    {"type": "dist", "set": BALL},
    {"type": "sqdist", "set": {"type": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}},
    {"type": "normpow", "p": 2.0, "dim": 2},
    {"type": "neglog"},
    {"type": "sqrtshift", "eta": 2.0},
    {"type": "hyperbolic", "eta": 2.0},
    {"type": "affinemax", "pieces": [{"a": [1.0, 0.0], "b": 1.0}, {"a": [0.0, -1.0], "b": 0.5}]},
    {"type": "indicator", "set": {"type": "halfspace", "normal": [0.0, 1.0], "offset": 0.5}},
    {"type": "scale", "factor": 2.0, "inner": {"type": "dist", "set": {"type": "point", "c": [1.0, 1.0]}}},
    {"type": "power", "alpha": 0.5, "inner": {"type": "dist", "set": BALL}},
    {"type": "rightlinear", "matrix": [[0.0, -2.0], [2.0, 0.0]],
     "inner": {"type": "normpow", "p": 2.0, "dim": 2}},
    {"type": "moreau", "gamma": 0.5, "inner": {"type": "indicator", "set": BALL}},
]
CONTROL_RECORDS = [
    {"type": "cyclic"},
    {"type": "quasicyclic", "windows": [2, 3]},
    {"type": "explicit", "indices": [0, 1, 1]},
    {"type": "explicit", "indices": [1, 0], "windows": [2, 2]},
]


@pytest.mark.parametrize("record", SET_RECORDS, ids=lambda r: r["type"])
def test_set_record_round_trip(record):
    again = set_to_record(set_from_record(record))
    assert json.dumps(again) == json.dumps(record)


@pytest.mark.parametrize("record", FUNCTION_RECORDS, ids=lambda r: r["type"])
def test_function_record_round_trip(record):
    again = function_to_record(function_from_record(record))
    assert json.dumps(again) == json.dumps(record)


@pytest.mark.parametrize("record", CONTROL_RECORDS,
                         ids=lambda r: r["type"] + ("+windows" if "windows" in r else ""))
def test_control_record_round_trip(record):
    again = control_to_record(control_from_record(record))
    assert json.dumps(again) == json.dumps(record)


@pytest.mark.parametrize("relaxation", [1.5, [1.0, 1.5, 0.5]], ids=["number", "list"])
def test_problem_round_trip_keeps_relaxation_shape(relaxation):
    record = two_ball_record(relaxation=relaxation,
                             control={"type": "explicit", "indices": [1, 0], "windows": [2, 2]})
    again = problem_to_record(problem_from_record(record))
    assert json.dumps(again) == json.dumps(record)
    assert problem_from_record(again).relaxation_schedule(4) == \
        problem_from_record(record).relaxation_schedule(4)


@pytest.mark.parametrize("relaxation", [np.float32(1.5), np.int64(1), np.array(1.5)],
                         ids=["float32", "int64", "0-d-array"])
def test_problem_round_trip_takes_a_numpy_scalar_relaxation(relaxation):
    # Any real scalar is one constant relaxation, written as a JSON number.
    parts = parse_problem_file(two_ball_record())
    problem = Problem(**{**parts, "relaxation": relaxation})
    record = problem_to_record(problem)
    assert record == two_ball_record(relaxation=float(relaxation))
    again = problem_from_record(json.loads(json.dumps(record)))
    assert again.relaxation_schedule(3) == problem.relaxation_schedule(3) == [float(relaxation)] * 3


# -- exact messages for malformed records ------------------------------------------------

def _with(record, **changes):
    """Copy of a record with keys replaced; a value of DROP deletes the key."""
    out = dict(record)
    for key, value in changes.items():
        if value is DROP:
            del out[key]
        else:
            out[key] = value
    return out


DROP = object()
LINEAR = {"type": "linear", "u": [1.0, 0.0]}
DIST = {"type": "dist", "set": BALL}
PIECE = {"a": [1.0, 0.0], "b": 0.0}
SHEAR = [[1.0, 1.0], [0.0, 1.0]]


def _fn(record):
    """The two-ball problem with its constraints replaced by one function."""
    return two_ball_record(functions=[record])


def _in_set(set_record):
    return _fn({"type": "dist", "set": set_record})


def _ragged_message():
    try:
        np.array([[1.0, 0.0], [0.0]], dtype=float)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("numpy accepted a ragged matrix")


F0 = "problem.functions[0]"
NOT_FULL = "is not finite on the whole space; the iteration requires real-valued constraints"
MALFORMED_PROBLEMS = [
    # the problem object
    ([], "problem: expected an object, got list"),
    ("x", "problem: expected an object, got str"),
    (_with(two_ball_record(), tol=DROP), "problem: missing keys ['tol']"),
    (_with(two_ball_record(), tol=DROP, x0=DROP), "problem: missing keys ['tol', 'x0']"),
    (_with(two_ball_record(), tol=DROP, knob=1), "problem: missing keys ['tol']"),
    (two_ball_record(extra_knob=1), "problem: unknown keys ['extra_knob']"),
    (two_ball_record(dimension="2"), "problem.dimension: expected a positive integer"),
    (two_ball_record(dimension=0), "problem.dimension: expected a positive integer"),
    (two_ball_record(dimension=2.0), "problem.dimension: expected a positive integer"),
    (two_ball_record(dimension=True), "problem.dimension: expected a positive integer"),
    (two_ball_record(functions=[]), "problem.functions: expected a nonempty list"),
    (two_ball_record(functions={}), "problem.functions: expected a nonempty list"),
    (two_ball_record(relaxation=True),
     "problem.relaxation: expected a number or list of numbers"),
    (two_ball_record(relaxation="1"), "problem.relaxation: expected a number or list of numbers"),
    (two_ball_record(relaxation=[]), "problem.relaxation: expected a nonempty list of numbers"),
    (two_ball_record(relaxation=[1.0, "a"]),
     "problem.relaxation: expected a nonempty list of numbers"),
    (two_ball_record(relaxation=[1.0, True]),
     "problem.relaxation: expected a nonempty list of numbers"),
    (two_ball_record(relaxation=2.5, epsilon=0.1),
     "problem: lambda = 2.5 outside [0.1, 1.9] for epsilon = 0.1"),
    (two_ball_record(relaxation=[1.0, 1.99]),
     "problem: lambda = 1.99 outside [0.05, 1.95] for epsilon = 0.05"),
    (two_ball_record(epsilon="0.05"), "problem.epsilon: expected a number"),
    (two_ball_record(epsilon=True), "problem.epsilon: expected a number"),
    (two_ball_record(epsilon=0), "problem: epsilon must lie in (0, 1]"),
    (two_ball_record(x0=[]), "problem.x0: expected a nonempty list of numbers"),
    (two_ball_record(x0="abc"), "problem.x0: expected a nonempty list of numbers"),
    (two_ball_record(x0=[1.0, True]), "problem.x0: expected a nonempty list of numbers"),
    (two_ball_record(x0=[1.0, 2.0, 3.0]), "problem: expected dimension 2, got 3"),
    (two_ball_record(tol=None), "problem.tol: expected a number"),
    (two_ball_record(tol=0), "problem: tol must be positive and max_iter >= 1"),
    (two_ball_record(max_iter=1.5), "problem.max_iter: expected a positive integer"),
    (two_ball_record(max_iter=0), "problem.max_iter: expected a positive integer"),
    (two_ball_record(max_iter=True), "problem.max_iter: expected a positive integer"),
    (two_ball_record(feasible_witness=[]),
     "problem.feasible_witness: expected a nonempty list of numbers"),
    (two_ball_record(feasible_witness=[1.0]), "problem: expected dimension 2, got 1"),
    # tagged pieces
    (two_ball_record(functions=[3]), f"{F0}: expected an object with a 'type' tag"),
    (_fn({"u": [1.0, 0.0]}), f"{F0}: expected an object with a 'type' tag"),
    (_fn({"type": "bogus"}), f"{F0}: unknown function type 'bogus'"),
    (_fn({"type": ["dist"]}), f"{F0}: unknown function type ['dist']"),
    (_fn({"type": 3}), f"{F0}: unknown function type 3"),
    (_fn({"type": "bogus", "u": 1}), f"{F0}: unknown function type 'bogus'"),
    (two_ball_record(control="cyclic"), "problem.control: expected an object with a 'type' tag"),
    (two_ball_record(control={"type": "random"}), "problem.control: unknown control type 'random'"),
    (_in_set([1.0]), f"{F0}.set: expected an object with a 'type' tag"),
    (_in_set({"type": "circle"}), f"{F0}.set: unknown set type 'circle'"),
    # missing, unknown and mistyped keys
    (_fn(_with(LINEAR, u=DROP)), f"{F0}: missing keys ['u']"),
    (_fn(_with(LINEAR, v=1)), f"{F0}: unknown keys ['v']"),
    (_fn(_with(LINEAR, u="x")), f"{F0}.u: expected a nonempty list of numbers"),
    (_fn(_with(LINEAR, u=[])), f"{F0}.u: expected a nonempty list of numbers"),
    (_fn(_with(LINEAR, u=[1.0, True])), f"{F0}.u: expected a nonempty list of numbers"),
    (_fn(_with(LINEAR, u=[1.0, "2"])), f"{F0}.u: expected a nonempty list of numbers"),
    (_fn(_with(DIST, set=DROP)), f"{F0}: missing keys ['set']"),
    (_in_set(_with(BALL, colour="red")), f"{F0}.set: unknown keys ['colour']"),
    (_in_set(_with(BALL, radius=DROP)), f"{F0}.set: missing keys ['radius']"),
    (_in_set(_with(BALL, radius="1")), f"{F0}.set.radius: expected a number"),
    (_in_set(_with(BALL, radius=True)), f"{F0}.set.radius: expected a number"),
    (_in_set(_with(BALL, center=[])), f"{F0}.set.center: expected a nonempty list of numbers"),
    (_in_set(_with(BALL, center=[], radius="r")),
     f"{F0}.set.center: expected a nonempty list of numbers"),
    (_in_set({"type": "halfspace", "normal": [1.0, 0.0], "offset": None}),
     f"{F0}.set.offset: expected a number"),
    (_in_set({"type": "point", "c": "x"}), f"{F0}.set.c: expected a nonempty list of numbers"),
    (_fn({"type": "sqdist", "set": {"type": "disc"}}), f"{F0}.set: unknown set type 'disc'"),
    (_fn({"type": "normpow"}), f"{F0}: missing keys ['p']"),
    (_fn({"type": "normpow", "p": "2"}), f"{F0}.p: expected a number"),
    (_fn({"type": "normpow", "p": 2.0, "dim": 2, "q": 1}), f"{F0}: unknown keys ['q']"),
    (_fn({"type": "neglog", "eta": 2.0}), f"{F0}: unknown keys ['eta']"),
    (_fn({"type": "hyperbolic"}), f"{F0}: missing keys ['eta']"),
    (_fn({"type": "affinemax", "pieces": []}), f"{F0}.pieces: expected a nonempty list"),
    (_fn({"type": "affinemax", "pieces": "x"}), f"{F0}.pieces: expected a nonempty list"),
    (_fn({"type": "affinemax", "pieces": [3]}), f"{F0}.pieces[0]: expected an object, got int"),
    (_fn({"type": "affinemax", "pieces": [_with(PIECE, b=DROP)]}),
     f"{F0}.pieces[0]: missing keys ['b']"),
    (_fn({"type": "affinemax", "pieces": [_with(PIECE, c=1)]}),
     f"{F0}.pieces[0]: unknown keys ['c']"),
    (_fn({"type": "affinemax", "pieces": [_with(PIECE, a="x")]}),
     f"{F0}.pieces[0].a: expected a nonempty list of numbers"),
    (_fn({"type": "affinemax", "pieces": [PIECE, _with(PIECE, b="0")]}),
     f"{F0}.pieces[1].b: expected a number"),
    (_fn({"type": "scale", "factor": 2.0}), f"{F0}: missing keys ['inner']"),
    (_fn({"type": "scale", "factor": 2.0, "inner": {"type": "bogus"}}),
     f"{F0}.inner: unknown function type 'bogus'"),
    (_fn({"type": "scale", "factor": 2.0, "inner": {
        "type": "power", "alpha": 0.5, "inner": {"type": "sqdist", "set": _with(BALL, radius="r")}}}),
     f"{F0}.inner.inner.set.radius: expected a number"),
    (_fn({"type": "rightlinear", "matrix": "x", "inner": DIST}),
     f"{F0}.matrix: expected a list of rows"),
    (_fn({"type": "rightlinear", "matrix": [1.0, 2.0], "inner": DIST}),
     f"{F0}.matrix: expected a list of rows"),
    (_fn({"type": "moreau", "gamma": "1", "inner": DIST}), f"{F0}.gamma: expected a number"),
    (two_ball_record(control={"type": "cyclic", "windows": [2, 2]}),
     "problem.control: unknown keys ['windows']"),
    (two_ball_record(control={"type": "quasicyclic"}), "problem.control: missing keys ['windows']"),
    (two_ball_record(control={"type": "quasicyclic", "windows": [1.5, 2]}),
     "problem.control.windows: expected a nonempty list of integers"),
    (two_ball_record(control={"type": "quasicyclic", "windows": []}),
     "problem.control.windows: expected a nonempty list of integers"),
    (two_ball_record(control={"type": "quasicyclic", "windows": [True, 2]}),
     "problem.control.windows: expected a nonempty list of integers"),
    (two_ball_record(control={"type": "explicit", "windows": [2, 2]}),
     "problem.control: missing keys ['indices']"),
    (two_ball_record(control={"type": "explicit", "indices": []}),
     "problem.control.indices: expected a nonempty list of integers"),
    (two_ball_record(control={"type": "explicit", "indices": [0, 1], "windows": "x"}),
     "problem.control.windows: expected a nonempty list of integers"),
    # constructor failures, wrapped as "{where}: {message}"
    (_in_set(_with(BALL, radius=-1.0)), f"{F0}.set: ball radius must be positive"),
    (_in_set({"type": "halfspace", "normal": [0.0, 0.0], "offset": 1.0}),
     f"{F0}.set: halfspace normal must be nonzero"),
    (_in_set({"type": "box", "lo": [1.0, 0.0], "hi": [0.0, 1.0]}),
     f"{F0}.set: box requires lo <= hi componentwise"),
    (_in_set({"type": "box", "lo": [0.0, 0.0], "hi": [1.0]}),
     f"{F0}.set: expected dimension 2, got 1"),
    (_fn({"type": "normpow", "p": 0.5, "dim": 2}),
     f"{F0}: NormPow requires p >= 1; use PowerComp for smaller exponents"),
    (_fn({"type": "sqrtshift", "eta": 0.0}), f"{F0}: SqrtShift requires eta > 0"),
    (_fn({"type": "hyperbolic", "eta": 1.0}), f"{F0}: Hyperbolic requires eta > 1"),
    (_fn({"type": "affinemax", "pieces": [PIECE, {"a": [1.0], "b": 0.0}]}),
     f"{F0}: all pieces must share one dimension"),
    (_fn({"type": "scale", "factor": 0.0, "inner": DIST}), f"{F0}: Scale requires lam > 0"),
    (_fn({"type": "power", "alpha": 0.0, "inner": DIST}), f"{F0}: PowerComp requires alpha > 0"),
    (_fn({"type": "rightlinear", "matrix": [[1.0, 0.0], [0.0]], "inner": DIST}),
     f"{F0}: {_ragged_message()}"),
    (_fn({"type": "rightlinear", "matrix": SHEAR, "inner": DIST}),
     f"{F0}: L^T L is not a positive multiple of the identity"),
    (_fn({"type": "rightlinear", "matrix": [], "inner": DIST}), f"{F0}: matrix must be square"),
    (_fn({"type": "rightlinear", "matrix": [[1.0, 0.0], [0.0, 1.0]],
          "inner": {"type": "normpow", "p": 2.0, "dim": 3}}),
     f"{F0}: matrix rows must match the inner dimension"),
    (_fn({"type": "moreau", "gamma": 0.0, "inner": {"type": "indicator", "set": BALL}}),
     f"{F0}: gamma must be positive"),
    (_fn({"type": "moreau", "gamma": 1.0, "inner": {"type": "neglog"}}),
     f"{F0}: the Moreau envelope needs a prox-friendly inner function"),
    (two_ball_record(control={"type": "quasicyclic", "windows": [0, 2]}),
     "problem.control: window bounds must be >= 1"),
    # well-formed pieces that break a solver invariant
    (_in_set(_with(BALL, center=[0.0, 0.0, 0.0])),
     "problem: every function must match the problem dimension"),
    (_fn({"type": "indicator", "set": BALL}), f"problem: Indicator {NOT_FULL}"),
    (neglog_record(), f"problem: NegLog {NOT_FULL}"),
    # the window check QuasiCyclic and Explicit share
    (two_ball_record(control={"type": "explicit", "indices": [0, 1], "windows": [0, 5]}),
     "problem.control: window bounds must be >= 1"),
]


@pytest.mark.parametrize("record,message", MALFORMED_PROBLEMS)
def test_malformed_problem_message(record, message):
    with pytest.raises(SchemaError) as info:
        problem_from_record(record)
    assert str(info.value) == message


def test_malformed_piece_messages_from_entry_points():
    for parse, record, message in [
        (set_from_record, {"type": "x"}, "set: unknown set type 'x'"),
        (function_from_record, 5, "function: expected an object with a 'type' tag"),
        (control_from_record, {"type": "cyclic", "k": 1}, "control: unknown keys ['k']"),
    ]:
        with pytest.raises(SchemaError) as info:
            parse(record)
        assert str(info.value) == message


class Shifted(Linear):
    """A Linear with another value: writing it as "linear" would describe another function."""

    def value(self, x):
        return super().value(x) + 3.0


def test_unserializable_objects_named():
    from subproj import ControlSequence, ConvexSet, LeftCompose, NegLog

    for write_record, obj, message in [
        (set_to_record, ConvexSet(), "unserializable set ConvexSet"),
        (function_to_record, LeftCompose(lambda t: t, lambda t: 1.0, NegLog()),
         "unserializable function LeftCompose"),
        (function_to_record, Shifted([0.0, 1.0]), "unserializable function Shifted"),
        (control_to_record, ControlSequence(), "unserializable control ControlSequence"),
    ]:
        with pytest.raises(SchemaError) as info:
            write_record(obj)
        assert str(info.value) == message


def test_schema_error_reaches_stderr_with_exit_2(tmp_path, capsys):
    path = write(tmp_path, "p.json", _in_set(_with(BALL, radius=-1.0)))
    assert main(["solve", "--file", path]) == 2
    assert capsys.readouterr().err == f"error: SchemaError: {F0}.set: ball radius must be positive\n"


def test_round_trip_covers_every_tag():
    from subproj import serialize

    assert {r["type"] for r in FUNCTION_RECORDS} == set(serialize.TAGS["function"])
    assert {r["type"] for r in SET_RECORDS} == set(serialize.TAGS["set"])
    assert {r["type"] for r in CONTROL_RECORDS} == set(serialize.TAGS["control"])


def test_readme_lists_every_tag():
    import re
    from pathlib import Path

    from subproj import serialize

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("Function types:")
    paragraph = readme[start:readme.index("\n\n", start)]
    functions, rest = paragraph.split("Sets:")
    sets, controls = rest.split("Controls:")

    def tags(text):
        return {item.split()[0] for item in re.findall(r"`([^`]+)`", text)}

    assert tags(functions) == set(serialize.TAGS["function"])
    assert tags(sets) == set(serialize.TAGS["set"])
    assert tags(controls) == set(serialize.TAGS["control"])


# -- problem files that parse but would give wrong answers -------------------------------

@pytest.mark.parametrize("record,message", [
    (_in_set({"type": "halfspace", "normal": [1.0, 0.0], "offset": float("nan")}),
     f"{F0}.set.offset: expected a number"),
    (_in_set(_with(BALL, radius=float("inf"))), f"{F0}.set.radius: expected a number"),
    (two_ball_record(tol=float("nan")), "problem.tol: expected a number"),
    (two_ball_record(x0=[float("nan"), 5.0]), "problem.x0: expected a nonempty list of numbers"),
    (two_ball_record(feasible_witness=[0.75, float("-inf")]),
     "problem.feasible_witness: expected a nonempty list of numbers"),
    (two_ball_record(relaxation=[1.0, float("nan")]),
     "problem.relaxation: expected a nonempty list of numbers"),
    (_fn({"type": "normpow", "p": 2.0, "dim": 2.9}), f"{F0}.dim: expected a positive integer"),
    (_fn({"type": "normpow", "p": 2.0, "dim": True}), f"{F0}.dim: expected a positive integer"),
    (_fn({"type": "rightlinear", "matrix": [["1", "0"], ["0", "1"]], "inner": DIST}),
     f"{F0}.matrix: expected a list of rows"),
], ids=["nan-offset", "inf-radius", "nan-tol", "nan-x0", "inf-witness", "nan-relaxation",
        "fractional-dim", "boolean-dim", "string-matrix"])
def test_nonfinite_and_mistyped_values_exit_2(tmp_path, capsys, record, message):
    path = write(tmp_path, "p.json", record)
    assert main(["solve", "--file", path]) == 2
    assert capsys.readouterr().err == f"error: SchemaError: {message}\n"


def test_nan_oracle_value_exits_3_naming_the_error(tmp_path, capsys, monkeypatch):
    from subproj import Dist

    path = write(tmp_path, "p.json", two_ball_record())
    monkeypatch.setattr(Dist, "value", lambda self, x: float("nan"))
    assert main(["solve", "--file", path]) == 3
    assert capsys.readouterr().err == "error: NonFiniteValue: Dist value is NaN\n"


@pytest.mark.parametrize("command", [["project"], ["solve"]], ids=["project", "solve"])
def test_overflowing_power_exits_3_naming_the_error(tmp_path, capsys, command):
    normpow = {"type": "normpow", "p": 400, "dim": 1}
    path = write(tmp_path, "p.json", neglog_record(functions=[normpow], x0=[10.0]))
    assert main(command + ["--file", path]) == 3
    assert capsys.readouterr().err == \
        "error: NonFiniteValue: NormPow power 10.0 ** 400.0 overflows\n"


def test_overflowing_iterate_exits_3_naming_the_iteration(tmp_path, capsys):
    path = write(tmp_path, "p.json", neglog_record(functions=[{"type": "linear", "u": [1e-10]}],
                                                   x0=[1e300]))
    assert main(["solve", "--file", path]) == 3
    assert capsys.readouterr().err == \
        "error: NonFiniteValue: iteration 0 produced a non-finite iterate\n"
