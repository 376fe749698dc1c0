"""Property tests: the one-pass control scan agrees with a per-index occurrence-list scan,
also where it stops at a repeating stream's prefix, and QuasiCyclic breaks ties by the
smallest index."""

import random
from itertools import chain, cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subproj import (
    Ball,
    ControlSequence,
    ControlViolation,
    Cyclic,
    Dist,
    Explicit,
    InvalidControl,
    Problem,
    QuasiCyclic,
    solve,
    validate_control,
)


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
    visits m - 1 in place of 0; it overrides ``_stream`` without restating a period."""

    class Deviating(base):
        after = 0

        def _stream(self, m):
            for n, i in enumerate(super()._stream(m)):
                yield m - 1 if i == 0 and n >= self.after else i

    return Deviating


class Lasso(ControlSequence):
    """A custom stream: a prefix, then a list repeated, with no period declared."""

    def __init__(self, prefix, body, window_bounds=None):
        self.prefix, self.body, self.window_bounds = prefix, body, window_bounds

    def _stream(self, m):
        return chain(self.prefix, cycle(self.body))


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


def counted(base):
    """A subclass of ``base`` that counts the indices its streams yield and
    restates base's period, so that validation may stop at the prefix."""

    class Counted(base):
        pulled = 0

        def _stream(self, m):
            for i in super()._stream(m):
                self.pulled += 1
                yield i

        def _period(self, m):
            return super()._period(m)

    return Counted


@pytest.mark.parametrize("base, args", [(Cyclic, ()),
                                        (QuasiCyclic, ([20 + i % 5 for i in range(20)],))],
                         ids=["Cyclic", "QuasiCyclic"])
def test_validation_pulls_do_not_grow_with_max_iter(base, args):
    # x0 is feasible, so the solve pulls only what validation pulls.
    def pulls(max_iter):
        control = counted(base)(*args)
        fs = [Dist(Ball([0.0], 1.0 + i)) for i in range(20)]
        _x, trace = solve(Problem(dimension=1, functions=fs, x0=[0.0], control=control,
                                  max_iter=max_iter))
        assert trace.iterations == 0
        return control.pulled

    assert pulls(10**3) == pulls(10**7) < 10**3
