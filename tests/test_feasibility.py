import dataclasses
import math
import sys
import tracemalloc
from itertools import cycle, islice
from typing import Optional

import numpy as np
import pytest

from subproj import (
    Ball,
    ControlSequence,
    Cyclic,
    Dist,
    Explicit,
    Halfspace,
    Hyperbolic,
    Indicator,
    InfConv,
    InvalidControl,
    InvalidSpec,
    LeftCompose,
    Linear,
    MoreauEnv,
    NegLog,
    NonFiniteValue,
    NormPow,
    PowerComp,
    Problem,
    QuasiCyclic,
    RelaxationOutOfRange,
    Scale,
    SqDist,
    SqrtShift,
    StalledStep,
    TraceRow,
    residual,
    solve,
    sproj,
    validate_control,
)
from subproj.feasibility import _turns


def two_ball_problem(**kwargs):
    f1 = Dist(Ball([0.0, 0.0], 1.0))
    f2 = Dist(Ball([1.5, 0.0], 1.0))
    defaults = dict(dimension=2, functions=[f1, f2], x0=[5.0, 5.0])
    defaults.update(kwargs)
    return Problem(**defaults)


# -- control sequences --------------------------------------------------------

def test_cyclic_control_is_valid():
    assert validate_control(Cyclic(), 3, 30) == []


def test_explicit_missing_index_is_violation():
    violations = validate_control(Explicit([0]), 2, 10)
    assert len(violations) == 1
    assert violations[0].index == 1


def test_explicit_declared_window_violation():
    control = Explicit([0, 1, 0, 0, 1], window_bounds=[5, 2])
    violations = validate_control(control, 2, 5)
    assert any(v.index == 1 and v.window_start == 2 for v in violations)


def test_quasicyclic_respects_heterogeneous_windows():
    control = QuasiCyclic([2, 4, 4])
    assert validate_control(control, 3, 200) == []
    control = QuasiCyclic([3, 3, 3])
    seq = control.indices(3, 9)
    assert seq == [0, 1, 2, 0, 1, 2, 0, 1, 2]


def test_quasicyclic_window_count_mismatch():
    with pytest.raises(InvalidControl):
        QuasiCyclic([2, 2]).indices(3, 10)


@pytest.mark.parametrize("make", [lambda: QuasiCyclic([0, 2]), lambda: Explicit([0, 1], [0, 5])],
                         ids=["quasicyclic", "explicit"])
def test_window_bounds_below_one_rejected_at_construction(make):
    with pytest.raises(InvalidControl, match="^window bounds must be >= 1$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: QuasiCyclic([2.7, 1.2]), "window bounds must be integers"),
    (lambda: QuasiCyclic([math.nan]), "window bounds must be integers"),
    (lambda: QuasiCyclic([math.inf]), "window bounds must be integers"),
    (lambda: QuasiCyclic([True, 2]), "window bounds must be integers"),
    (lambda: QuasiCyclic(["3"]), "window bounds must be integers"),
    (lambda: Explicit([0.9, 1.5]), "explicit indices must be integers"),
    (lambda: Explicit([0, False]), "explicit indices must be integers"),
    (lambda: Explicit([0, 1], [2.0, 2]), "window bounds must be integers"),
], ids=["fraction", "nan", "inf", "bool", "str", "explicit-fraction", "explicit-bool",
        "explicit-window"])
def test_non_integer_control_entries_rejected_at_construction(make, message):
    # int() would truncate 2.7 to 2, and raise a bare ValueError or OverflowError on nan or inf.
    with pytest.raises(InvalidControl) as info:
        make()
    assert str(info.value) == message


def test_numpy_integer_control_entries_accepted():
    assert QuasiCyclic(np.array([2, 3])).window_bounds == [2, 3]
    assert Explicit(np.arange(2), np.array([2, 2])).index_list == [0, 1]
    assert type(QuasiCyclic(np.array([2])).window_bounds[0]) is int


def test_validate_control_requires_covering_horizon():
    with pytest.raises(ValueError):
        validate_control(QuasiCyclic([50, 50]), 2, 10)


# -- problem validation ---------------------------------------------------------

def test_relaxation_schedule_out_of_range():
    with pytest.raises(RelaxationOutOfRange):
        two_ball_problem(relaxation=[1.0, 2.5], epsilon=0.1)


def test_epsilon_bounds_relaxation():
    with pytest.raises(RelaxationOutOfRange):
        two_ball_problem(relaxation=1.97, epsilon=0.05)
    two_ball_problem(relaxation=1.9, epsilon=0.05)


@pytest.mark.parametrize("relaxation, kept", [
    (np.array(1.5), 1.5), (np.float32(1.5), 1.5), (np.int64(1), 1.0), (1, 1.0),
    ((1, np.float64(1.5)), [1.0, 1.5]), (np.array([1.0, 1.5]), [1.0, 1.5]),
], ids=repr)
def test_problem_keeps_a_scalar_relaxation_as_a_float_and_a_sequence_as_a_list(relaxation, kept):
    p = two_ball_problem(relaxation=relaxation)
    assert p.relaxation == kept
    assert type(p.relaxation) is type(kept)
    assert all(type(lam) is float for lam in p.relaxation_schedule(3))


@pytest.mark.parametrize("relaxation", [True, np.True_, np.array(True), [True, 1.5],
                                        np.array([True, False]), "1.5", None, [[1.0]],
                                        [[1.0], [1.0, 2.0]]], ids=repr)
def test_problem_refuses_a_relaxation_that_is_not_a_real_number(relaxation):
    # A bool is refused from Python as the problem-file reader refuses it, not taken as 1.0.
    with pytest.raises(InvalidSpec, match="a relaxation must be a real number"):
        two_ball_problem(relaxation=relaxation)


@pytest.mark.parametrize("name", ["dimension", "epsilon", "tol", "max_iter"])
@pytest.mark.parametrize("flag", [True, np.True_], ids=repr)
def test_problem_refuses_a_bool_for_a_number(name, flag):
    # True would pass as 1: a one-dimensional problem, epsilon 1, tol 1 or one iteration.
    fields = dict(dimension=1, functions=[Dist(Ball([0.0], 1.0))], x0=[3.0])
    fields[name] = flag
    with pytest.raises(InvalidSpec) as info:
        Problem(**fields)
    assert str(info.value) == f"{name} must be a number, not a bool"


def test_problem_refuses_an_empty_relaxation_schedule():
    with pytest.raises(InvalidSpec, match="must be nonempty"):
        two_ball_problem(relaxation=[])


def test_problem_rejects_partial_domains():
    with pytest.raises(InvalidSpec):
        Problem(dimension=1, functions=[NegLog()], x0=[0.5])


@pytest.mark.parametrize("g, full", [(Indicator(Ball([0.0], 1.0)), False),
                                     (SqDist(Ball([0.0], 1.0)), True)], ids=repr)
def test_an_inf_convolution_is_real_valued_where_either_term_is(g, full):
    # dom of an inf-convolution is dom f + dom g: the whole line where g is finite on it.
    spec = InfConv(Indicator(Ball([0.0], 1.0)), g, lambda x: 0.5 * x)
    assert spec.domain_is_full is full
    if full:
        Problem(dimension=1, functions=[spec], x0=[5.0])
    else:
        with pytest.raises(InvalidSpec, match="InfConv is not finite on the whole space"):
            Problem(dimension=1, functions=[spec], x0=[5.0])


def test_problem_rejects_dimension_mismatch():
    with pytest.raises(InvalidSpec):
        Problem(dimension=3, functions=[Linear([1.0, 0.0])], x0=[0.0, 0.0, 0.0])


# -- residual ---------------------------------------------------------------------

def test_residual_examples():
    p = two_ball_problem()
    assert residual(p, [0.75, 0.0]) == 0.0
    assert residual(p, [5.0, 5.0]) == pytest.approx(np.hypot(5, 5) - 1.0, abs=1e-12)
    q = Problem(dimension=2, functions=[Linear([0.0, 1.0])], x0=[0.0, 3.0])
    assert residual(q, [0.0, 3.0]) == pytest.approx(3.0)


# -- solving ------------------------------------------------------------------------

def test_single_ball_converges_in_one_step():
    f = Dist(Ball([0.0, 0.0], 1.0))
    p = Problem(dimension=2, functions=[f], x0=[5.0, 0.0])
    x, trace = solve(p)
    assert trace.status == "Converged"
    assert trace.iterations == 1
    assert np.allclose(x, [1.0, 0.0])


def test_two_ball_feasibility():
    for lam in (1.0, 1.5):
        p = two_ball_problem(relaxation=lam, max_iter=500)
        x, trace = solve(p)
        assert trace.status == "Converged"
        assert trace.final_residual <= 1e-8
        assert np.linalg.norm(x) <= 1.0 + 1e-8
        assert np.linalg.norm(x - np.array([1.5, 0.0])) <= 1.0 + 1e-8


def test_already_feasible_start():
    p = two_ball_problem(x0=[0.75, 0.0])
    x, trace = solve(p)
    assert trace.status == "Converged"
    assert trace.iterations == 0
    assert np.array_equal(x, [0.75, 0.0])


def test_max_iter_reached():
    p = two_ball_problem(max_iter=1)
    x, trace = solve(p)
    assert trace.status == "MaxIterReached"
    assert trace.iterations == 1


def test_fejer_monotonicity_along_run():
    witness = np.array([0.75, 0.0])
    p = two_ball_problem(relaxation=1.5, feasible_witness=witness, max_iter=500)
    x, trace = solve(p)
    # replay the orbit to recover the pre-step distances and unrelaxed steps
    from subproj import sproj
    xn = p.x0
    for row in trace.rows:
        out = sproj(p.functions[row.index], xn, p.selections[row.index])
        x_next = xn + row.lam * (out.point - xn)
        d_prev = np.linalg.norm(xn - witness)
        d_next = np.linalg.norm(x_next - witness)
        assert d_next ** 2 <= d_prev ** 2 \
            - row.lam * (2.0 - row.lam) * np.linalg.norm(out.point - xn) ** 2 + 1e-10
        assert d_next <= d_prev + 1e-12
        assert row.dist_to_witness == pytest.approx(d_next, abs=0.0)
        assert row.step_norm == pytest.approx(np.linalg.norm(x_next - xn), abs=0.0)
        xn = x_next
    assert np.array_equal(xn, x)


def test_solve_is_deterministic():
    p1 = two_ball_problem(feasible_witness=[0.75, 0.0])
    p2 = two_ball_problem(feasible_witness=[0.75, 0.0])
    x1, t1 = solve(p1)
    x2, t2 = solve(p2)
    assert np.array_equal(x1, x2)
    assert t1.rows == t2.rows
    assert t1.status == t2.status


def test_quasicyclic_control_drives_solver():
    p = two_ball_problem(control=QuasiCyclic([2, 3]), max_iter=500)
    x, trace = solve(p)
    assert trace.status == "Converged"
    assert residual(p, x) <= 1e-8


def test_invalid_control_rejected_by_solve():
    p = two_ball_problem(control=Explicit([0]), max_iter=100)
    with pytest.raises(InvalidControl):
        solve(p)


def test_stalled_step_detected():
    # a flat, badly scaled constraint: positive value but an astronomically
    # large subgradient makes the projection step underflow
    f = Linear([1e160])
    p = Problem(dimension=1, functions=[f], x0=[1e-300], tol=1e-310)
    with pytest.raises(StalledStep):
        solve(p)


# -- control schedule through solve ---------------------------------------------------

@pytest.mark.parametrize("control", [
    Cyclic(), QuasiCyclic([2, 3]), Explicit([1, 0, 1]), Explicit([1, 0], [2, 2]),
], ids=repr)
def test_trace_columns_follow_control_and_relaxation(control):
    p = two_ball_problem(control=control, relaxation=[1.0, 1.5, 0.7], max_iter=500)
    _x, trace = solve(p)
    assert trace.iterations > 3
    assert [r.index for r in trace.rows] == control.indices(2, trace.iterations)
    assert [r.lam for r in trace.rows] == p.relaxation_schedule(trace.iterations)


class Streamed(ControlSequence):
    """A control whose stream cycles a list with no range check of its own."""

    def __init__(self, index_list):
        self.index_list = index_list

    def _stream(self, m):
        return cycle(self.index_list), None


@pytest.mark.parametrize("control, max_iter, message", [
    # violations are reported by index, then by window start
    (Explicit([0, 0, 0, 1, 1, 1], [2, 2]), 12,
     "index 0 missing from window [3, 4]; index 0 missing from window [9, 10]; "
     "index 1 missing from window [0, 1]; index 1 missing from window [6, 7]"),
    # the horizon is max_iter when no window is declared
    (Explicit([0, 1]), 1, "index 1 missing from window [0, 0]"),
    (Explicit([0, 1], [3, 3, 3]), 100, "3 window bounds for 2 functions"),
    # waits that repeat within the list's length are not its period
    (Explicit([0, 1, 0, 1, 0, 1, 0], [2, 2]), 36,
     "index 1 missing from window [6, 7]; index 1 missing from window [13, 14]; "
     "index 1 missing from window [20, 21]; index 1 missing from window [27, 28]; "
     "index 1 missing from window [34, 35]"),
    # at most five violations are named
    (QuasiCyclic([1, 1]), 10,
     "index 0 missing from window [1, 1]; index 0 missing from window [3, 3]; "
     "index 0 missing from window [5, 5]; index 0 missing from window [7, 7]; "
     "index 0 missing from window [9, 9]"),
    # an index outside [0, m) is named with its step (unchecked, -1 would visit
    # functions[-1]); Explicit checks its own list first
    (Streamed([0, 1, -1]), 100, "control index -1 at step 2 is outside [0, 2)"),
    (Explicit([0, 1, -1]), 100, "explicit index out of range"),
])
def test_invalid_control_messages_through_solve(control, max_iter, message):
    p = two_ball_problem(control=control, max_iter=max_iter)
    with pytest.raises(InvalidControl) as info:
        solve(p)
    assert str(info.value) == message


def test_a_control_without_a_stream_names_the_protocol():
    class OnlyIndices(ControlSequence):
        def indices(self, m, horizon):
            return [k % m for k in range(horizon)]

    with pytest.raises(NotImplementedError) as info:
        solve(two_ball_problem(control=OnlyIndices()))
    assert str(info.value) == ("OnlyIndices defines no _stream(m); a control defines that one "
                               "method, and indices(m, horizon) is a view of it")


@pytest.mark.parametrize("name, value", [
    ("relaxation", 5.0), ("tol", math.nan), ("x0", [1.0]), ("selections", []),
])
def test_problem_fields_cannot_be_reassigned_past_the_checks(name, value):
    p = two_ball_problem()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(p, name, value)
    _x, trace = solve(p)
    assert trace.status == "Converged"


def test_solve_builds_the_index_sequence_once():
    # The sequence is a stream, never a list: validation walks the whole
    # horizon of one stream and the run a fresh one as far as it goes.
    streams, listed = [], []

    class CountingQuasiCyclic(QuasiCyclic):
        def _stream(self, m):
            def counting(stream):
                pulled = [0]
                streams.append(pulled)
                for i in stream:
                    pulled[0] += 1
                    yield i

            return counting(super()._stream(m)[0]), None

        def indices(self, m, horizon):
            listed.append(horizon)
            return super().indices(m, horizon)

    _x, trace = solve(two_ball_problem(control=CountingQuasiCyclic([2, 3]), max_iter=500))
    assert trace.status == "Converged"
    assert streams == [[500], [trace.iterations]]
    assert listed == []


def test_quasicyclic_groups_its_windows_once_per_solve():
    # Validation's stream and the run's share one grouping of the windows, and each
    # stream moves a copy of the heads, so two streams walked in turn are the stream.
    _turns.cache_clear()
    _x, trace = solve(two_ball_problem(control=QuasiCyclic([2, 3]), max_iter=500))
    assert trace.status == "Converged" and trace.iterations > 1
    info = _turns.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    control = QuasiCyclic([3, 2, 3, 5, 2, 7])
    alone = control.indices(6, 300)
    pairs = list(islice(zip(control._stream(6)[0], control._stream(6)[0]), 300))
    assert [a for a, _ in pairs] == [b for _, b in pairs] == alone


def test_a_trace_row_is_a_slotted_mutable_dataclass():
    # The same fields, order, equality and repr as the frozen row it replaced, and no
    # larger than any slotted dataclass of six fields: a tuple row costs 16 B more.
    names = ["n", "index", "lam", "residual", "step_norm", "dist_to_witness"]
    assert [f.name for f in dataclasses.fields(TraceRow)] == names
    row = TraceRow(3, 1, 1.5, 0.25, 0.5)
    assert row == TraceRow(n=3, index=1, lam=1.5, residual=0.25, step_norm=0.5,
                           dist_to_witness=None)
    assert row != TraceRow(3, 1, 1.5, 0.25, 0.5, 0.0)
    assert repr(row) == ("TraceRow(n=3, index=1, lam=1.5, residual=0.25, step_norm=0.5, "
                         "dist_to_witness=None)")
    assert TraceRow.__slots__ == tuple(names)
    assert not hasattr(row, "__dict__")

    @dataclasses.dataclass(slots=True)
    class Six:
        a: int
        b: int
        c: float
        d: float
        e: float
        f: Optional[float] = None

    assert sys.getsizeof(row) <= sys.getsizeof(Six(3, 1, 1.5, 0.25, 0.5))


@pytest.mark.parametrize("control", [Cyclic(), QuasiCyclic([2, 3]), Explicit([1, 0, 1])], ids=repr)
def test_solve_memory_does_not_grow_with_max_iter(control):
    # x0 is two steps from feasible, so the solve stops long before either
    # budget; only validation walks the horizon, and it keeps nothing.
    def peak(max_iter):
        p = two_ball_problem(control=control, x0=[0.75, 0.5], max_iter=max_iter)
        solve(p)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            _x, trace = solve(p)
            return tracemalloc.get_traced_memory()[1], trace.iterations
        finally:
            tracemalloc.stop()

    small, iters_small = peak(10**3)
    big, iters_big = peak(10**5)
    assert iters_small == iters_big < 10
    assert big <= small + 1024


# -- non-finite input and oracle values --------------------------------------------------

def _problem_with(**kwargs):
    return lambda: Problem(dimension=1, functions=[Linear([1.0])], x0=[1.0], **kwargs)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Ball([0.0, 0.0], math.nan), ValueError, "ball radius must be finite"),
    (lambda: Ball([0.0, 0.0], math.inf), ValueError, "ball radius must be finite"),
    (lambda: Ball([0.0, 0.0], -math.inf), ValueError, "ball radius must be finite"),
    (lambda: Ball([0.0, 0.0], 0.0), ValueError, "ball radius must be positive"),
    (lambda: Halfspace([1.0, 0.0], math.nan), ValueError, "halfspace offset must be finite"),
    (lambda: Halfspace([1.0, 0.0], math.inf), ValueError, "halfspace offset must be finite"),
    (lambda: Halfspace([1.0, 0.0], -math.inf), ValueError, "halfspace offset must be finite"),
    (lambda: NormPow(math.nan), InvalidSpec, "NormPow p must be finite"),
    (lambda: NormPow(2.0, dim=0), InvalidSpec, "NormPow requires dim >= 1"),
    (lambda: Scale(math.nan, Linear([1.0])), InvalidSpec, "Scale lam must be finite"),
    (lambda: PowerComp(math.nan, NormPow(2.0)), InvalidSpec, "PowerComp alpha must be finite"),
    (lambda: SqrtShift(math.nan), InvalidSpec, "SqrtShift eta must be finite"),
    (lambda: Hyperbolic(math.nan), InvalidSpec, "Hyperbolic eta must be finite"),
    (lambda: Hyperbolic(1.0), InvalidSpec, "Hyperbolic requires eta > 1"),
    (lambda: MoreauEnv(math.nan, NormPow(2.0)), ValueError, "gamma must be finite"),
    (lambda: LeftCompose(lambda t: math.nan, lambda t: 1.0, Linear([1.0])), InvalidSpec,
     "left composition requires phi(0) = 0"),
    (_problem_with(tol=math.nan), InvalidSpec, "tol must be finite"),
    (_problem_with(tol=math.inf), InvalidSpec, "tol must be finite"),
    (_problem_with(tol=0.0), InvalidSpec, "tol must be positive and max_iter >= 1"),
    (_problem_with(max_iter=2.5), InvalidSpec, "max_iter must be an integer"),
])
def test_non_finite_and_non_integer_parameters_rejected(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def nan_outside_unit_ball():
    """A broken oracle: phi(t) is NaN for t > 0, so the value is NaN off the ball."""
    return LeftCompose(lambda t: math.nan if t > 0.0 else t, lambda t: 1.0,
                       Dist(Ball([0.0, 0.0], 1.0)))


def test_nan_oracle_value_is_not_converged():
    p = Problem(dimension=2, functions=[nan_outside_unit_ball()], x0=[3.0, 0.0])
    with pytest.raises(NonFiniteValue, match="LeftCompose value is NaN"):
        solve(p)


def test_nan_oracle_value_is_not_projected():
    with pytest.raises(NonFiniteValue, match="LeftCompose value is NaN"):
        sproj(nan_outside_unit_ball(), [3.0, 0.0])


def test_nan_oracle_value_is_not_skipped_by_residual():
    p = Problem(dimension=2, functions=[nan_outside_unit_ball(), Dist(Ball([0.0, 0.0], 1.0))],
                x0=[3.0, 0.0])
    with pytest.raises(NonFiniteValue, match="LeftCompose value is NaN"):
        residual(p, [3.0, 0.0])
    assert residual(p, [0.5, 0.0]) == 0.0
