"""Property tests: the one-pass control scan agrees with a per-index occurrence-list scan,
and QuasiCyclic breaks ties by the smallest index."""

from hypothesis import given, settings
from hypothesis import strategies as st

from subproj import ControlViolation, Cyclic, Explicit, InvalidControl, QuasiCyclic, validate_control


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
