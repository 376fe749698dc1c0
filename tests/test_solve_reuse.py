"""The solver evaluates each constraint once per distinct iterate.

A step on a satisfied constraint is the identity, so ``solve`` reuses the
values it already has instead of calling the oracles again.  The reference
loop below is the iteration written plainly: the public ``sproj`` on every
step, then ``residual`` at every new iterate.  ``solve`` must reproduce it
bit for bit while calling ``value`` only where the iterate has moved.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subproj import (
    CENTROID,
    AffineMax,
    Ball,
    Box,
    Cyclic,
    Dist,
    Explicit,
    Halfspace,
    Indicator,
    InvalidControl,
    LEAST_INDEX,
    Linear,
    MoreauEnv,
    NonFiniteValue,
    Point,
    PowerComp,
    Problem,
    ProjStatus,
    QuasiCyclic,
    RightLinear,
    Scale,
    SqDist,
    StalledStep,
    TraceRow,
    residual,
    solve,
    sproj,
    validate_control,
)
from subproj.core import norm, norm2
from subproj.feasibility import STALL_FLOOR


def reference_solve(p):
    """(x, rows, status, final residual, statuses).

    sproj on every step, then residual at every iterate.
    """
    m = len(p.functions)
    declared = [w for w in p.control.windows(m) if w is not None]
    horizon = max([p.max_iter] + declared)
    violations = validate_control(p.control, m, horizon)
    if violations:
        raise InvalidControl("; ".join(str(v) for v in violations[:5]))
    idx = p.control.indices(m, horizon)
    lams = p.relaxation_schedule(p.max_iter)
    witness = p.feasible_witness
    x = np.array(p.x0)
    res = residual(p, x)
    if res <= p.tol:
        return x, [], "Converged", res, []
    rows, statuses, status = [], [], "MaxIterReached"
    for n, i in zip(range(p.max_iter), idx):
        out = sproj(p.functions[i], x, p.selections[i])
        statuses.append(out.status)
        if out.status is ProjStatus.PROJECTED:
            step_scale = out.f_value / norm2(out.subgradient_used)
            if step_scale < STALL_FLOOR:
                raise StalledStep(f"step size {step_scale:.3e} underflowed at iteration {n}")
        lam = lams[n]
        x_next = x + lam * (out.point - x)
        res = residual(p, x_next)
        rows.append(TraceRow(
            n=n, index=i, lam=lam, residual=res, step_norm=norm(x_next - x),
            dist_to_witness=None if witness is None else norm(x_next - witness)))
        x = x_next
        if res <= p.tol:
            status = "Converged"
            break
    return x, rows, status, res, statuses


def outcome(run, p):
    """What a solve leaves behind: its result, or the type and message of its error."""
    try:
        return run(p)
    except Exception as exc:  # noqa: BLE001 -- the error itself is the outcome compared
        return type(exc), str(exc)


def assert_same_solve(p):
    """solve(p) matches the reference loop row for row and bit for bit; returns the statuses."""
    ref = outcome(reference_solve, p)
    got = outcome(solve, p)
    if isinstance(ref[0], type):
        assert got == ref
        return []
    x_ref, rows_ref, status_ref, res_ref, statuses = ref
    x, trace = got
    assert trace.status == status_ref
    assert trace.final_residual.hex() == res_ref.hex()
    assert len(trace.rows) == len(rows_ref)
    for row, row_ref in zip(trace.rows, rows_ref):
        assert row == row_ref
    assert x.tobytes() == x_ref.tobytes()
    assert trace.x_final.tobytes() == x_ref.tobytes()
    return statuses


def halfspaces(seed, m, n, witness=True, **kwargs):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    b = rng.uniform(1.0, 2.0, m)
    fs = [Dist(Halfspace(A[i], b[i])) for i in range(m)]
    defaults = dict(dimension=n, functions=fs, x0=10.0 * np.ones(n), relaxation=1.5,
                    tol=1e-6, max_iter=3000,
                    feasible_witness=np.zeros(n) if witness else None)
    defaults.update(kwargs)
    return Problem(**defaults)


def mixed(seed, **kwargs):
    rng = np.random.default_rng(seed)
    n = 5
    w = rng.normal(0.0, 0.3, n)
    S = rng.standard_normal((12, n))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = rng.standard_normal(n)
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    # Two unit balls touch at w, so the run ends in the slow tangent regime.
    fs = [
        MoreauEnv(1.0, Indicator(Ball(w + 0.3, 1.0))),
        Dist(Box(w - 1.0, w + 1.0)),
        SqDist(Ball(w - 0.2, 0.8)),
        AffineMax(list(zip(S, -S @ w - rng.uniform(0.5, 1.0, 12)))),
        Scale(2.0, Dist(Ball(w + d, 1.0))),
        PowerComp(0.5, Dist(Halfspace(a, float(a @ w) + 0.5))),
        RightLinear(2.0 * Q, Dist(Ball(2.0 * Q @ (w - d), 2.0))),
    ]
    defaults = dict(dimension=n, functions=fs, x0=w + 5.0 * rng.standard_normal(n),
                    control=Explicit([0, 5, 1, 6, 2, 3, 4]), relaxation=[1.0, 1.5, 1.2],
                    tol=1e-3, max_iter=3000, feasible_witness=w)
    defaults.update(kwargs)
    return Problem(**defaults)


def linear_and_halfspaces(seed, m, n):
    """A Linear constraint (a halfspace through 0) among halfspaces, affine rows of both kinds."""
    p = halfspaces(seed, m, n)
    u = np.random.default_rng(seed + 100).standard_normal(n)
    return halfspaces(seed, m, n, functions=p.functions[:2] + [Linear(u)] + p.functions[2:])


def two_balls(**kwargs):
    defaults = dict(dimension=2, functions=[Dist(Ball([0.0, 0.0], 1.0)),
                                            Dist(Ball([1.5, 0.0], 1.0))],
                    x0=[5.0, 5.0], feasible_witness=[0.75, 0.0])
    defaults.update(kwargs)
    return Problem(**defaults)


CASES = {
    "halfspaces-cyclic": lambda: halfspaces(0, 24, 12),
    "halfspaces-cyclic-no-witness": lambda: halfspaces(1, 24, 12, witness=False),
    "halfspaces-quasicyclic": lambda: halfspaces(2, 16, 8, control=QuasiCyclic(list(range(16, 32)))),
    "halfspaces-explicit-schedule": lambda: halfspaces(
        3, 8, 4, control=Explicit([7, 0, 6, 1, 5, 2, 4, 3, 0]), relaxation=[1.0, 1.9, 0.3]),
    "halfspaces-negative-zero-start": lambda: halfspaces(4, 10, 3, x0=[-0.0, 10.0, -0.0]),
    "halfspaces-max-iter": lambda: halfspaces(5, 24, 12, max_iter=40),
    "halfspaces-64x64": lambda: halfspaces(7, 64, 64),
    "linear-and-halfspaces": lambda: linear_and_halfspaces(8, 20, 10),
    "mixed-explicit": lambda: mixed(0),
    "mixed-cyclic-max-iter": lambda: mixed(1, control=Cyclic(), relaxation=1.0, max_iter=500),
    "mixed-quasicyclic": lambda: mixed(2, control=QuasiCyclic([7, 8, 9, 7, 8, 9, 10])),
    "two-balls-schedule": lambda: two_balls(relaxation=[1.0, 1.5, 0.7], tol=1e-6),
    "two-balls-feasible-start": lambda: two_balls(x0=[0.75, 0.0]),
    # Steps at lam <= 1, where the constraint just cut is asked no radius, and beyond.
    "two-balls-cut-schedule": lambda: two_balls(
        functions=[Dist(Ball([0.0, 0.0], 1.0)), Dist(Ball([2.0, 0.0], 1.0))],  # tangent
        feasible_witness=[1.0, 0.0], relaxation=[0.5, 1.0, 1.5], tol=1e-6, max_iter=600),
    "mixed-cut-schedule": lambda: mixed(3, relaxation=[0.5, 1.0, 1.5]),
    "affinemax-linear-1d": lambda: Problem(
        dimension=1, functions=[AffineMax([([1.0], -1.0), ([2.0], -3.0)]), Linear([-1.0])],
        x0=[40.0], control=Explicit([1, 0, 0]), relaxation=[0.5, 1.0]),
    "stalled-step": lambda: Problem(dimension=1, functions=[Linear([1e160])], x0=[1e-300],
                                    tol=1e-310),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_matches_the_reference_loop(name):
    assert_same_solve(CASES[name]())


def test_the_table_exercises_fixed_steps():
    # Without fixed steps the reuse would never be taken and the table would prove nothing.
    for name in ("halfspaces-cyclic", "halfspaces-quasicyclic", "mixed-explicit"):
        statuses = assert_same_solve(CASES[name]())
        fixed = statuses.count(ProjStatus.FIXED)
        assert fixed > len(statuses) // 2, name


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), n=st.integers(1, 5),
       balls=st.integers(0, 3), lam=st.sampled_from([1.0, 1.5, 0.5, [1.0, 1.8, 0.6]]),
       negative_zeros=st.lists(st.booleans(), min_size=5, max_size=5),
       scale=st.integers(-150, 150).map(lambda k: 10.0 ** k), linear=st.booleans())
def test_random_halfspace_and_ball_problems_match_the_reference_loop(seed, m, n, balls, lam,
                                                                     negative_zeros, scale,
                                                                     linear):
    # The problem at unit scale, times ``scale``: its values all scale alike.
    rng = np.random.default_rng(seed)
    fs = [Dist(Halfspace(rng.standard_normal(n), scale * rng.uniform(0.0, 2.0)))
          for _ in range(m)]
    fs += [Dist(Ball(scale * rng.normal(0.0, 0.5, n), scale * rng.uniform(1.0, 2.0)))
           for _ in range(balls)]
    if linear:
        fs.insert(int(rng.integers(0, len(fs) + 1)), Linear(rng.standard_normal(n)))
    x0 = scale * rng.normal(0.0, 5.0, n)
    x0[negative_zeros[:n]] = -0.0
    p = Problem(dimension=n, functions=fs, x0=x0, relaxation=lam,
                tol=1e-6 * scale, max_iter=400, feasible_witness=np.zeros(n))
    assert_same_solve(p)


class CountingDist(Dist):
    """Dist with its oracle calls counted, and the iterates its value was computed at.

    With ``screened`` false it exposes no affine row, so the solve computes it
    at every moved iterate; with it true, the solve's affine block screens it.
    """

    def __init__(self, s, counts, screened=False):
        super().__init__(s)
        self.counts = counts
        self.screened = screened

    def affine_row(self):
        return super().affine_row() if self.screened else None

    def value(self, x):
        self.counts["value"] += 1
        self.counts.setdefault("at", []).append((id(self), x.tobytes()))
        return super().value(x)

    def subgradient(self, x, strategy=LEAST_INDEX):
        self.counts["subgradient"] += 1
        return super().subgradient(x, strategy)


def counting_problem(counts, screened):
    m, n = 16, 8
    rng = np.random.default_rng(7)
    A = rng.standard_normal((m, n))
    b = rng.uniform(1.0, 2.0, m)
    make = Dist if counts is None else (lambda s: CountingDist(s, counts, screened))
    return Problem(dimension=n, functions=[make(Halfspace(A[i], b[i])) for i in range(m)],
                   x0=10.0 * np.ones(n), relaxation=1.5, tol=1e-6)


def test_each_constraint_is_evaluated_once_per_distinct_iterate():
    m = 16
    counts = {"value": 0, "subgradient": 0}
    _x, _rows, _status, _res, statuses = reference_solve(counting_problem(None, False))
    big_n, big_p = len(statuses), statuses.count(ProjStatus.PROJECTED)
    assert 0 < big_p < big_n
    _x, trace = solve(counting_problem(counts, screened=False))
    assert trace.iterations == big_n
    assert (counts["value"], counts["subgradient"]) == (m * (1 + big_p), big_p)


def test_the_affine_block_computes_few_values_and_none_twice():
    # Screened, a constraint is computed where the bound cannot settle it:
    # where it could hold the residual, or when a step visits it.
    m = 16
    counts = {"value": 0, "subgradient": 0}
    _x, _rows, _status, _res, statuses = reference_solve(counting_problem(None, False))
    big_n, big_p = len(statuses), statuses.count(ProjStatus.PROJECTED)
    _x, trace = solve(counting_problem(counts, screened=True))
    assert trace.iterations == big_n
    assert counts["subgradient"] == big_p
    assert len(set(counts["at"])) == len(counts["at"])
    # m values at x0; every projected step but the first visits a new iterate,
    # where its own value is computed, and about one more row holds the residual.
    assert m + big_p - 1 <= counts["value"] <= m + 2 * big_p


@pytest.mark.parametrize("u, x0", [([1e-10], [1e300]), ([-1e-10], [-1e300])],
                         ids=["-inf", "+inf"])
def test_overflowing_iterate_raises_naming_the_iteration(u, x0):
    # f(x) = 1e290 over ||u||^2 = 1e-20 overflows the step scale to +inf, which
    # sends the iterate to -inf or to +inf.  No numpy warning may arise on the way.
    p = Problem(dimension=1, functions=[Linear(u)], x0=x0)
    with pytest.raises(NonFiniteValue) as info:
        solve(p)
    assert str(info.value) == "iteration 0 produced a non-finite iterate"


def test_a_nan_iterate_raises_naming_the_iteration():
    # The overflowed step scale times u's zero entry is inf * 0, a NaN entry;
    # numpy warns of that product in the cut, so only that warning is let pass.
    p = Problem(dimension=2, functions=[Linear([1e-10, 0.0])], x0=[1e300, 0.0])
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteValue) as info:
        solve(p)
    assert str(info.value) == "iteration 0 produced a non-finite iterate"


def test_an_overflowing_subgradient_norm_stalls_the_solve():
    # ||u||^2 = 2e400 overflows, so the cut's step scale is 0 and the iterate cannot move.
    p = Problem(dimension=2, functions=[Linear([1e200, 1e200])], x0=[1.0, 1.0])
    with pytest.raises(StalledStep) as info:
        solve(p)
    assert str(info.value) == "step size 0.000e+00 underflowed at iteration 0"


@pytest.mark.parametrize("witness", [True, False])
def test_only_a_projected_step_measures_its_iterate(monkeypatch, witness):
    # A fixed step leaves x as it is: its step norm is 0 and its witness
    # distance the one measured when x last moved, or at the start.
    p = halfspaces(6, 16, 8, witness=witness)
    _x, _rows, _status, _res, statuses = reference_solve(p)
    big_n, big_p = len(statuses), statuses.count(ProjStatus.PROJECTED)
    assert 0 < big_p < big_n
    calls = []

    def counted(v):
        calls.append(v)
        return norm(v)

    monkeypatch.setattr("subproj.feasibility.norm", counted)
    _x, trace = solve(p)
    assert trace.iterations == big_n
    assert len(calls) == (1 + 2 * big_p if witness else big_p)


def test_a_solve_without_steps_reports_the_residual_at_x0():
    # 0 < residual <= tol, so the start is accepted as it is.
    p = Problem(dimension=1, functions=[Dist(Ball([0.0], 1.0))], x0=[1.000000001])
    x, trace = solve(p)
    assert trace.iterations == 0
    assert trace.final_residual == residual(p, p.x0) == 1.000000082740371e-09
    assert x.tobytes() == p.x0.tobytes()


@pytest.mark.parametrize("s", [Ball([0.5, -1.0], 2.0), Halfspace([1.0, -2.0], 0.5),
                               Box([-1.0, 0.0], [1.0, 2.0]), Point([0.25, 3.0])],
                         ids=["ball", "halfspace", "box", "point"])
def test_dist_states_its_cut_normal_from_the_held_value_bit_for_bit(s):
    # Where fx = value(x) > 0, (x - P x) / fx is what subgradient computes, with the
    # distance it would measure again.
    f = Dist(s)
    rng = np.random.default_rng(3)
    outside = 0
    for x in rng.standard_normal((60, 2)) * 10.0 ** rng.integers(-3, 4, (60, 1)):
        fx = f.value(x)
        if fx > 0.0:
            outside += 1
            for strategy in (LEAST_INDEX, CENTROID):
                assert f._cut_normal(x, fx).tobytes() == f.subgradient(x, strategy).tobytes()
    assert outside >= 10


@pytest.mark.parametrize("oracle", [None, "value", "subgradient"])
def test_only_a_dist_that_owns_both_oracles_is_cut_by_its_fused_normal(monkeypatch, oracle):
    # A subclass that replaces either oracle that the fused normal speaks for, even
    # with the same answers, is cut by its own subgradient at every projected step.
    calls = []
    subgradient = Dist.subgradient
    monkeypatch.setattr(Dist, "subgradient", lambda self, x, strategy=LEAST_INDEX:
                        calls.append(1) or subgradient(self, x, strategy))
    atom = Dist if oracle is None else type(
        "Own", (Dist,), {oracle: lambda self, *args: getattr(Dist, oracle)(self, *args)})
    sets = [f.set for f in halfspaces(6, 16, 8).functions]
    p = halfspaces(6, 16, 8, functions=[atom(s) for s in sets])
    projected = assert_same_solve(p).count(ProjStatus.PROJECTED)  # the reference calls sproj
    calls.clear()
    solve(p)
    assert projected > 0 and len(calls) == (0 if oracle is None else projected)
