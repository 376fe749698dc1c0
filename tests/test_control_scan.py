"""Property tests: the one-pass control scan agrees with a per-index occurrence-list scan,
also where it stops at a repeating stream's prefix, never pulls more of a stream than
Brent's checkpoint alone would, and QuasiCyclic breaks ties by the smallest index; and
the solve's kept verdicts are the walk's."""

import copy
import pickle
import random
import sys
from itertools import chain, count, cycle, islice

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from subproj import (
    Ball,
    ControlSequence,
    ControlViolation,
    Cyclic,
    Dist,
    Explicit,
    InvalidControl,
    Linear,
    Problem,
    QuasiCyclic,
    solve,
    validate_control,
)
from subproj.feasibility import _STATE_MAX, _verdict
from subproj.serialize import control_from_record, control_to_record


def reference_windows(control, m):
    if isinstance(control, Cyclic):
        return [m] * m
    if control.window_bounds is None:
        return [None] * m
    if m != len(control.window_bounds):
        raise InvalidControl(f"{len(control.window_bounds)} window bounds for {m} functions")
    return list(control.window_bounds)


def reference_validate(control, m, horizon):
    """Collect every index's visits, then walk each index's gaps in turn."""
    if m < 1:
        raise InvalidControl("need at least one function")
    windows = reference_windows(control, m)
    declared = [w for w in windows if w is not None]
    if declared and horizon < max(declared):
        raise ValueError("horizon must cover the largest declared window")
    seq = control.indices(m, horizon)
    occurrences = [[] for _ in range(m)]
    for n, i in enumerate(seq):
        if 0 <= i < m:
            occurrences[i].append(n)
    violations = []
    for i in range(m):
        w = windows[i]
        if w is None:
            if not occurrences[i]:
                violations.append(ControlViolation(i, 0, horizon))
            continue
        prev = -1
        for n in occurrences[i]:
            if n - prev > w:
                violations.append(ControlViolation(i, prev + 1, w))
            prev = n
        if horizon - prev > w:
            violations.append(ControlViolation(i, prev + 1, w))
    return violations


def outcome(check, control, m, horizon):
    try:
        return "ok", check(control, m, horizon)
    except (InvalidControl, ValueError) as exc:
        return "raised", type(exc), str(exc)


@st.composite
def cases(draw):
    m = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["explicit", "explicit-windows", "quasicyclic"]))
    if kind == "quasicyclic":
        control = QuasiCyclic(draw(st.lists(st.integers(1, 10), min_size=max(m - 1, 1),
                                            max_size=m + 1)))
    else:
        index_list = draw(st.lists(st.integers(-1, m), min_size=1, max_size=12))
        # Mostly one bound per index; sometimes a wrong count, to reach that error.
        # Bounds below 1 are rejected at construction (tested in test_feasibility).
        windows = (draw(st.lists(st.integers(1, 10), min_size=m - 1, max_size=m + 1))
                   if kind == "explicit-windows" else None)
        control = Explicit(index_list, windows)
    return control, m, draw(st.integers(0, 60))


@settings(max_examples=500, deadline=None)
@given(cases())
def test_scan_matches_occurrence_list_reference(case):
    control, m, horizon = case
    assert outcome(validate_control, control, m, horizon) == \
        outcome(reference_validate, control, m, horizon)


def reference_quasicyclic(windows, horizon):
    """QuasiCyclic's schedule with the smallest-index tie-break written into the key."""
    m = len(windows)
    last = [-1] * m
    out = []
    for n in range(horizon):
        best = max(range(m), key=lambda i: ((n - last[i]) / windows[i], n - last[i], -i))
        out.append(best)
        last[best] = n
    return out


@settings(max_examples=300, deadline=None)
@given(windows=st.lists(st.integers(1, 12), min_size=1, max_size=8), horizon=st.integers(0, 200))
def test_quasicyclic_breaks_ties_by_smallest_index(windows, horizon):
    assert QuasiCyclic(windows).indices(len(windows), horizon) == \
        reference_quasicyclic(windows, horizon)


def test_quasicyclic_matches_the_reference_over_long_runs():
    # The stream compares only the next index of each distinct window; the
    # reference compares every index.  Windows are drawn from 1 to 2m + 3, so
    # some share a bound and some cannot be met.
    rng = random.Random(16)
    for m in [*range(1, 65), 200]:
        windows = [rng.randint(1, 2 * m + 3) for _ in range(m)]
        assert QuasiCyclic(windows).indices(m, 20_000) == \
            reference_quasicyclic(windows, 20_000), windows


def deviating(base):
    """A subclass of ``base`` whose stream is base's up to step ``after`` and then
    visits m - 1 in place of 0; it overrides ``_stream`` and states no phase."""

    class Deviating(base):
        after = 0

        def _stream(self, m):
            stream, _phase = super()._stream(m)
            return (m - 1 if i == 0 and n >= self.after else i
                    for n, i in enumerate(stream)), None

    return Deviating


class Lasso(ControlSequence):
    """A custom stream: a prefix, then a list repeated, with no phase declared."""

    def __init__(self, prefix, body, window_bounds=None):
        self.prefix, self.body, self.window_bounds = prefix, body, window_bounds

    def _stream(self, m):
        return chain(self.prefix, cycle(self.body)), None


@st.composite
def long_cases(draw):
    m = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["explicit", "explicit-windows", "quasicyclic", "custom",
                                 "deviating-cyclic", "deviating-quasicyclic"]))
    windows = st.lists(st.integers(1, 2 * m + 2), min_size=m, max_size=m)
    indices = st.lists(st.integers(0, m - 1), min_size=1, max_size=3 * m)
    if kind == "explicit":
        control = Explicit(draw(indices))
    elif kind == "explicit-windows":
        control = Explicit(draw(indices), draw(windows))
    elif kind == "quasicyclic":
        control = QuasiCyclic(draw(windows))
    elif kind == "custom":
        control = Lasso(draw(indices), draw(indices), draw(st.none() | windows))
    else:
        control = deviating(Cyclic)() if kind == "deviating-cyclic" else \
            deviating(QuasiCyclic)(draw(windows))
        control.after = draw(st.integers(0, 10_000))
    return control, m, draw(st.integers(0, 100) | st.integers(100, 10_000))


@settings(max_examples=300, deadline=None)
@given(long_cases())
def test_scan_matches_the_full_reference_at_long_horizons(case):
    control, m, horizon = case
    assert outcome(validate_control, control, m, horizon) == \
        outcome(reference_validate, control, m, horizon)


@pytest.mark.parametrize("base, args", [(Cyclic, ()), (QuasiCyclic, ([3, 3, 3],))],
                         ids=["Cyclic", "QuasiCyclic"])
def test_a_stream_that_leaves_its_parents_period_is_walked_to_the_horizon(base, args):
    # Index 0 stops recurring after step 1000, far past the parent's prefix;
    # believing the parent's period would accept the control.
    control = deviating(base)(*args)
    control.after = 1000
    violations = validate_control(control, 3, 5000)
    assert violations and violations == reference_validate(control, 3, 5000)


def test_a_window_across_the_period_end_is_missed_within_the_prefix():
    # Index 0 is visited at step 1 of each period of 4.  Within the first
    # period it waits 2 and then 3 to the period's end, within its window of 3;
    # only the wait across the end, 4, misses it.  So the walk needs the W
    # steps after T + P.
    control = Explicit([1, 0, 1, 1], [3, 2])
    violations = validate_control(control, 2, 100)
    assert violations[0] == ControlViolation(0, 2, 3)
    assert violations == reference_validate(control, 2, 100)


def test_waits_that_repeat_off_the_phase_are_not_a_period():
    # The waits after 4 indices equal those after 2, but the list has length 7,
    # so the stream repeats only every 7 indices; the two indices 6 and 7 at
    # the end of each round miss index 1's window of 2.  Taken as a period,
    # 4 - 2 would end the walk at a clean prefix of 6 indices.
    control = Explicit([0, 1, 0, 1, 0, 1, 0], [2, 2])
    violations = validate_control(control, 2, 36)
    assert violations == [ControlViolation(1, s, 2) for s in (6, 13, 20, 27, 34)]
    assert violations == reference_validate(control, 2, 36)


class FifthToZero(ControlSequence):
    """Every fifth step, from step 4, visits index 0; every other step the index that
    has waited longest, the smaller first.  Index n depends on n mod 5 and the waits."""

    window_bounds = [2, 2]

    def _stream(self, m):
        def stream():
            last = [-1] * m
            for n in count():
                i = 0 if n % 5 == 4 else min(range(m), key=lambda a: (last[a], a))
                yield i
                last[i] = n

        return stream(), 5


def test_waits_that_repeat_off_the_phase_of_the_finer_checkpoint_are_not_a_period():
    # The stream is 0 1 0 1 0, then 1 0 1 0 0 repeated.  The finer checkpoint is
    # taken after 5 indices; after 7 the waits are the same, with 0 visited last,
    # but 7 - 5 is no multiple of the phase.  Taken as a period, it would end the
    # walk at a clean prefix of 9 indices; index 1 first waits 3, from step 7 to 10.
    violations = validate_control(FifthToZero(), 2, 60)
    assert violations[0] == ControlViolation(1, 8, 2)
    assert violations == reference_validate(FifthToZero(), 2, 60)


class Counting(ControlSequence):
    """Any control, with a count of the indices that its streams yield."""

    def __init__(self, control):
        self.control, self.pulled = control, 0

    def windows(self, m):
        return self.control.windows(m)

    def _stream(self, m):
        def counting(stream):
            for i in stream:
                self.pulled += 1
                yield i

        stream, phase = self.control._stream(m)
        return counting(stream), phase


@pytest.mark.parametrize("base, args", [(Cyclic, ()),
                                        (QuasiCyclic, ([20 + i % 5 for i in range(20)],))],
                         ids=["Cyclic", "QuasiCyclic"])
def test_validation_pulls_do_not_grow_with_max_iter(base, args):
    # x0 is feasible, so the solve pulls only what validation pulls.
    def pulls(max_iter):
        control = Counting(base(*args))
        fs = [Dist(Ball([0.0], 1.0 + i)) for i in range(20)]
        _x, trace = solve(Problem(dimension=1, functions=fs, x0=[0.0], control=control,
                                  max_iter=max_iter))
        assert trace.iterations == 0
        return control.pulled

    assert pulls(10**3) == pulls(10**7) < 10**3


def walked(check, control, m, horizon):
    """What ``check`` gives on control, and the count of indices it pulled of its stream."""
    counting = Counting(control)
    return outcome(check, counting, m, horizon), counting.pulled


@pytest.mark.parametrize("control, m, most, brent", [
    (QuasiCyclic([20 + i % 5 for i in range(20)]), 20, 396, 556),
    (Cyclic(), 64, 192, 192),
    (Explicit([0, 5, 1, 6, 2, 3, 4]), 7, 15, 15),
], ids=["QuasiCyclic-bench", "Cyclic-64", "Explicit-mixed-oracles"])
def test_a_repeating_control_is_validated_within_a_short_prefix(control, m, most, brent):
    # The QuasiCyclic control repeats every 20 indices from step 340 on.  Brent's
    # checkpoint alone finds that at 532, from its copy at 512, and the walk ends
    # 24 indices later, at 556; the finer checkpoint, retaken every 32 indices
    # there, finds it at 372.
    result, pulled = walked(validate_control, control, m, 5000)
    assert result == ("ok", []) and pulled <= most
    assert walked(brent_validate, control, m, 5000) == (result, brent)


def brent_validate(control, m, horizon):
    """The control scan with Brent's checkpoint alone: a copy of last after 1, 2, 4, ...
    indices, and nothing else."""
    if m < 1:
        raise InvalidControl("need at least one function")
    windows = control.windows(m)
    if any(w is not None and w > horizon for w in windows):
        raise ValueError("horizon must cover the largest declared window")
    bound = [horizon if w is None else w for w in windows]
    widest = max((w for w in windows if w is not None), default=0)
    stream, phase = control._stream(m)
    saved, c, mark = None, 0, -1
    check = horizon if phase is None else 1
    last = [-1] * m
    violations = []
    k = 0
    for i in islice(stream, horizon):
        if not 0 <= i < m:
            raise InvalidControl(f"control index {i} at step {k} is outside [0, {m})")
        if k - last[i] > bound[i]:
            violations.append(ControlViolation(i, last[i] + 1, bound[i]))
        last[i] = k
        k += 1
        if (i == mark and (k - c) % phase == 0
                and all(a - b == k - c for a, b in zip(last, saved))):
            mark, phase, check = -1, None, min(horizon, k + widest)
        if k == check:
            if phase is not None:
                saved, c, mark, check = last[:], k, i, 2 * k
            elif not violations and all(k - a <= min(b, k) for a, b in zip(last, bound)):
                return []
    for i in range(m):
        if horizon - last[i] > bound[i]:
            violations.append(ControlViolation(i, last[i] + 1, bound[i]))
    violations.sort(key=lambda v: v.index)
    return violations


@st.composite
def repeating_cases(draw):
    m = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["quasicyclic", "quasicyclic-few", "explicit",
                                 "explicit-windows", "cyclic"]))
    if kind == "cyclic":
        control = Cyclic()
    elif kind.startswith("quasicyclic"):
        # Few distinct windows, as on the bench, or any, some of which cannot be met.
        pool = draw(st.lists(st.integers(m, 2 * m + 4), min_size=1, max_size=3)) \
            if kind == "quasicyclic-few" else None
        bounds = st.sampled_from(pool) if pool else st.integers(1, 3 * m + 4)
        control = QuasiCyclic(draw(st.lists(bounds, min_size=m, max_size=m)))
    else:
        index_list = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4 * m))
        windows = draw(st.lists(st.integers(1, 3 * m), min_size=m, max_size=m)) \
            if kind == "explicit-windows" else None
        control = Explicit(index_list, windows)
    return control, m, draw(st.integers(3 * m + 4, 3000))


@seed(27)
@settings(max_examples=400, deadline=None, database=None)
@given(repeating_cases())
def test_the_walk_never_pulls_more_than_brents_checkpoint_alone(case):
    control, m, horizon = case
    result, pulled = walked(validate_control, control, m, horizon)
    expected, brent = walked(brent_validate, control, m, horizon)
    assert result == expected and pulled <= brent


# -- the verdict cache in front of the solve's check ----------------------------------

def feasible_problem(control, m, max_iter=500):
    """m constraints that x0 satisfies: a solve runs the control check and no step."""
    return Problem(dimension=1, functions=[Dist(Ball([0.0], 1.0)) for _ in range(m)],
                   x0=[0.0], control=control, max_iter=max_iter)


def solve_outcome(control, m, max_iter=500):
    try:
        _x, trace = solve(feasible_problem(control, m, max_iter))
    except InvalidControl as exc:
        return "raised", str(exc)
    assert trace.iterations == 0
    return "ok", None


def expected_outcome(control, m, horizon):
    """What the check raises on control: validate_control's first five violations."""
    violations = validate_control(control, m, horizon)
    return ("raised", "; ".join(str(v) for v in violations[:5])) if violations else ("ok", None)


@pytest.mark.parametrize("make, m", [(lambda: QuasiCyclic([1, 1, 2]), 3),
                                     (lambda: Explicit([0, 0, 0, 1], [2, 2]), 2)],
                         ids=["QuasiCyclic", "Explicit"])
def test_a_kept_verdict_raises_what_the_walk_raises(make, m):
    _verdict.cache_clear()
    first = solve_outcome(make(), m)
    assert _verdict.cache_info()[:2] == (0, 1)
    second = solve_outcome(make(), m)
    assert _verdict.cache_info()[:2] == (1, 1)
    assert first == second == expected_outcome(make(), m, 500)
    assert first[0] == "raised"


@pytest.mark.parametrize("make, changed, m, name, at, bad", [
    (lambda: QuasiCyclic([3, 3, 3]), lambda: QuasiCyclic([1, 3, 3]), 3, "window_bounds", 0, 1),
    (lambda: Explicit([0, 1, 2]), lambda: Explicit([0, 1, 0]), 3, "index_list", 2, 0),
    (lambda: Explicit([0, 1, 2], [3, 3, 3]), lambda: Explicit([0, 1, 2], [3, 2, 3]), 3,
     "window_bounds", 1, 2),
], ids=["QuasiCyclic-windows", "Explicit-indices", "Explicit-windows"])
def test_a_control_cannot_be_changed_after_a_solve(make, changed, m, name, at, bad):
    # A control holds tuples and takes no assignment, so the verdict kept for it stays
    # its own; the changed control is another value, with the walk's verdict.
    control = make()
    values = getattr(control, name)
    assert solve_outcome(control, m) == ("ok", None)
    with pytest.raises(TypeError):
        values[at] = bad  # in place
    with pytest.raises(AttributeError):
        setattr(control, name, values[:at] + (bad,) + values[at + 1:])  # a new tuple
    with pytest.raises(AttributeError):
        setattr(control, name, list(values))
    assert getattr(control, name) is values and control == make()
    assert solve_outcome(control, m) == ("ok", None)
    assert getattr(changed(), name)[at] == bad and changed() != control
    assert solve_outcome(changed(), m) == expected_outcome(changed(), m, 500)
    assert solve_outcome(changed(), m)[0] == "raised"
    assert solve_outcome(make(), m) == ("ok", None)


class SubCyclic(Cyclic):
    """A subclass: its verdict is not kept, whatever it overrides."""


@pytest.mark.parametrize("make", [lambda: Counting(QuasiCyclic([20 + i % 5 for i in range(20)])),
                                  lambda: Counting(Cyclic()), SubCyclic],
                         ids=["Counting-QuasiCyclic", "Counting-Cyclic", "subclass"])
def test_another_control_class_is_walked_at_every_solve(make):
    control = make()
    info = _verdict.cache_info()
    assert solve_outcome(control, 20) == ("ok", None)
    first = getattr(control, "pulled", None)  # a count of both solves' pulls
    assert solve_outcome(control, 20) == ("ok", None)
    assert _verdict.cache_info() == info
    if first is not None:
        assert first > 0 and control.pulled == 2 * first


def only_zeros(*_args):
    return cycle([0])


@pytest.mark.parametrize("name, replacement", [
    ("_stream", lambda self, m: (only_zeros(), 1)),
    ("_schedule", staticmethod(lambda m, windows: only_zeros())),
    ("windows", lambda self, m: [1] * m),
], ids=["_stream", "_schedule", "windows"])
def test_a_class_function_replaced_after_a_solve_misses_the_cache(monkeypatch, name,
                                                                   replacement):
    def make():
        return QuasiCyclic([3, 3, 3])

    assert solve_outcome(make(), 3) == ("ok", None)
    misses = _verdict.cache_info().misses
    monkeypatch.setattr(QuasiCyclic, name, replacement)
    assert solve_outcome(make(), 3) == expected_outcome(make(), 3, 500)
    assert solve_outcome(make(), 3)[0] == "raised"
    assert _verdict.cache_info().misses == misses + 1
    monkeypatch.undo()
    assert solve_outcome(make(), 3) == ("ok", None)
    assert _verdict.cache_info().misses == misses + 1


def test_the_verdict_cache_holds_no_more_than_its_bound():
    _verdict.cache_clear()
    assert _verdict.cache_info().maxsize == 32
    for k in range(40):
        solve_outcome(Explicit([0, 1] * (k + 1)), 2)
        assert _verdict.cache_info().currsize <= 32
    assert _verdict.cache_info().currsize == 32
    # A list longer than _STATE_MAX is walked at every solve, not kept.
    _verdict.cache_clear()
    long_list = Explicit([0, 1] * (_STATE_MAX // 2) + [0])
    assert solve_outcome(Explicit([0, 1] * (_STATE_MAX // 2)), 2) == ("ok", None)
    assert _verdict.cache_info().currsize == 1
    assert solve_outcome(long_list, 2) == ("ok", None)
    assert _verdict.cache_info().currsize == 1
    # An entry that is not an int cannot be put in after construction, where a bool is
    # refused; a horizon past sys.maxsize is refused before the walk, and not kept.
    with pytest.raises(InvalidControl, match="must be integers"):
        Explicit([0, True])
    for control, max_iter in [(QuasiCyclic([2 ** 70, 2]), 500), (Cyclic(), 2 ** 70)]:
        assert solve_outcome(control, 2, max_iter)[0] == "raised"
    assert _verdict.cache_info().currsize == 1
    # The largest control that is kept: its walk ended, so its windows are at most the
    # horizon, at most sys.maxsize, and its indices below m; two tuples of _STATE_MAX
    # such ints take about 90 KB, and 32 of them with their messages under 3 MB.
    entries = tuple(range(sys.maxsize - _STATE_MAX, sys.maxsize))
    size = 2 * (sys.getsizeof(entries) + sum(map(sys.getsizeof, entries)))
    assert size <= 92_000 and 32 * (size + 600) < 3e6


@seed(31)
@settings(max_examples=300, deadline=None, database=None)
@given(repeating_cases())
def test_solving_twice_gives_the_walks_verdict_both_times(case):
    control, m, horizon = case
    expected = expected_outcome(control, m, horizon)
    _verdict.cache_clear()
    assert solve_outcome(control, m, horizon) == expected
    assert solve_outcome(copy.deepcopy(control), m, horizon) == expected
    assert _verdict.cache_info()[:2] == (1, 1)


# -- controls as values -----------------------------------------------------------------

VALUES = [
    (lambda: Cyclic(), lambda: Cyclic()),
    (lambda: QuasiCyclic([2, 3, 2]), lambda: QuasiCyclic((2, 3, 2))),
    (lambda: Explicit([0, 2, 1]), lambda: Explicit(iter([0, 2, 1]))),
    (lambda: Explicit([0, 2, 1], [3, 3, 3]), lambda: Explicit([0, 2, 1], (3, 3, 3))),
]
VALUE_IDS = ["Cyclic", "QuasiCyclic", "Explicit", "Explicit-windows"]


@pytest.mark.parametrize("make, again", VALUES, ids=VALUE_IDS)
def test_a_control_is_a_value(make, again):
    control = make()
    assert control == again() and hash(control) == hash(again())
    for copied in (copy.deepcopy(control), copy.copy(control),
                   pickle.loads(pickle.dumps(control)),
                   control_from_record(control_to_record(control))):
        assert type(copied) is type(control) and copied == control
        assert hash(copied) == hash(control) and repr(copied) == repr(control)
    for name in ("window_bounds", "index_list", "anything"):
        with pytest.raises(AttributeError):
            setattr(control, name, (1, 1, 1))
    assert control == again()


def test_controls_with_other_arguments_or_classes_differ():
    controls = [Cyclic(), QuasiCyclic([3, 3, 3]), QuasiCyclic([3, 3, 2]), Explicit([0, 1, 2]),
                Explicit([0, 1, 2], [3, 3, 3]), Explicit([0, 2, 1]), SubCyclic(),
                deviating(QuasiCyclic)([3, 3, 3])]
    for k, a in enumerate(controls):
        assert [b for b in controls if b == a] == [a], k
    # Equal ints of any integral type give one value; the reprs print lists, as before.
    assert QuasiCyclic(np.array([3, 3, 3])) == QuasiCyclic([3, 3, 3])
    assert repr(Explicit([0, 1], [2, 2])) == "Explicit(index_list=[0, 1], window_bounds=[2, 2])"
    assert repr(QuasiCyclic([3, 2])) == "QuasiCyclic(window_bounds=[3, 2])"


def test_a_control_subclass_defined_elsewhere_keeps_its_own_attributes():
    # Only the three classes refuse an assignment: a subclass sets what it adds, and a
    # copy keeps it; its verdict is not kept (test_another_control_class_...).
    control = deviating(QuasiCyclic)([3, 3, 3])
    control.after = 1000
    copied = copy.deepcopy(control)
    assert copied.after == 1000 and copied.window_bounds == (3, 3, 3)
    counting = copy.deepcopy(Counting(QuasiCyclic([3, 3, 3])))
    counting.pulled = 5
    assert counting.control == QuasiCyclic([3, 3, 3])


def test_a_freshly_built_equal_control_hits_the_kept_verdict():
    # The benchmark builds a new QuasiCyclic for every unit: an equal value is a hit.
    windows = [20 + i % 5 for i in range(20)]
    _verdict.cache_clear()
    for k in range(3):
        assert solve_outcome(QuasiCyclic(list(windows)), 20, 5000) == ("ok", None)
        assert _verdict.cache_info()[:2] == (k, 1)


# -- a horizon past sys.maxsize -----------------------------------------------------------

def test_a_horizon_past_sys_maxsize_is_refused_before_the_walk():
    # islice cannot count past sys.maxsize: the walk raised its bare ValueError.
    for control, m, horizon in [(Cyclic(), 1, 2 ** 70), (QuasiCyclic([2 ** 70, 3]), 2, 2 ** 70),
                                (Explicit([0, 1]), 2, sys.maxsize + 1)]:
        with pytest.raises(InvalidControl, match="beyond the 9223372036854775807 steps"):
            validate_control(control, m, horizon)
    assert validate_control(Cyclic(), 1, sys.maxsize) == []
    info = _verdict.cache_info()
    p = Problem(dimension=1, functions=[Linear([1.0])], x0=[1.0], max_iter=2 ** 70)
    with pytest.raises(InvalidControl, match="horizon 1180591620717411303424"):
        solve(p)
    q = Problem(dimension=1, functions=[Linear([1.0]), Linear([2.0])], x0=[1.0],
                control=QuasiCyclic([2 ** 70, 3]))
    with pytest.raises(InvalidControl, match="horizon 1180591620717411303424"):
        solve(q)
    assert _verdict.cache_info().currsize == info.currsize


# -- a negative horizon, and a horizon past sys.maxsize in indices -------------------------

def test_cyclic_indices_refuse_a_horizon_past_sys_maxsize():
    # islice cannot count past sys.maxsize: indices let its bare ValueError out.
    with pytest.raises(InvalidControl, match="^horizon 1180591620717411303424 is beyond the "
                                              "9223372036854775807 steps a walk can take$"):
        Cyclic().indices(1, 2 ** 70)


def test_quasicyclic_indices_refuse_a_negative_horizon():
    with pytest.raises(ValueError, match="^horizon -1 is negative$"):
        QuasiCyclic([3]).indices(1, -1)
    assert QuasiCyclic([3]).indices(1, 0) == []


def test_validate_control_refuses_a_negative_horizon():
    # A presence-only control has no declared window for the horizon to cover.
    with pytest.raises(ValueError, match="^horizon -1 is negative$"):
        validate_control(Explicit([0]), 1, -1)
    assert validate_control(Explicit([0]), 1, 1) == []
