"""The solver evaluates each constraint once per distinct iterate.

A step on a satisfied constraint is the identity, so ``solve`` reuses the
values it already has instead of calling the oracles again.  The reference
loop below is the iteration written plainly: the public ``sproj`` on every
step, then ``residual`` at every new iterate.  ``solve`` must reproduce it
bit for bit while calling ``value`` only where the iterate has moved.
"""

import math
import traceback

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
    DomainError,
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
from subproj import feasibility
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

    Defined outside the package, so the solve trusts none of its fast paths: it
    exposes no affine row, and the solve computes it at every moved iterate.
    """

    def __init__(self, s, counts):
        super().__init__(s)
        self.counts = counts

    def value(self, x):
        self.counts["value"] += 1
        self.counts.setdefault("at", []).append((id(self), x.tobytes()))
        return super().value(x)

    def subgradient(self, x, strategy=LEAST_INDEX):
        self.counts["subgradient"] += 1
        return super().subgradient(x, strategy)


def counting_problem(make=Dist):
    m, n = 16, 8
    rng = np.random.default_rng(7)
    A = rng.standard_normal((m, n))
    b = rng.uniform(1.0, 2.0, m)
    return Problem(dimension=n, functions=[make(Halfspace(A[i], b[i])) for i in range(m)],
                   x0=10.0 * np.ones(n), relaxation=1.5, tol=1e-6)


def test_each_constraint_is_evaluated_once_per_distinct_iterate():
    m = 16
    counts = {"value": 0, "subgradient": 0}
    _x, _rows, _status, _res, statuses = reference_solve(counting_problem())
    big_n, big_p = len(statuses), statuses.count(ProjStatus.PROJECTED)
    assert 0 < big_p < big_n
    _x, trace = solve(counting_problem(lambda s: CountingDist(s, counts)))
    assert trace.iterations == big_n
    assert (counts["value"], counts["subgradient"]) == (m * (1 + big_p), big_p)


def test_the_affine_block_computes_few_values_and_none_twice(monkeypatch):
    # Screened, a constraint is computed where the bound cannot settle it:
    # where it could hold the residual, or when a step visits it.  The spies
    # replace Dist's oracles on the class, which the block still trusts; the
    # fused cut normal counts as the subgradient it stands in for.
    m = 16
    counts = {"value": 0, "subgradient": 0}
    _x, _rows, _status, _res, statuses = reference_solve(counting_problem())
    big_n, big_p = len(statuses), statuses.count(ProjStatus.PROJECTED)
    value = Dist.value

    def counted_value(self, x):
        counts["value"] += 1
        counts.setdefault("at", []).append((id(self), x.tobytes()))
        return value(self, x)

    def counted(oracle):
        def normal(self, *args):
            counts["subgradient"] += 1
            return oracle(self, *args)
        return normal

    monkeypatch.setattr(Dist, "value", counted_value)
    monkeypatch.setattr(Dist, "subgradient", counted(Dist.subgradient))
    monkeypatch.setattr(Dist, "_cut_normal", counted(Dist._cut_normal))
    _x, trace = solve(counting_problem())
    assert trace.iterations == big_n
    assert counts["subgradient"] == big_p
    assert len(set(counts["at"])) == len(counts["at"])
    # m values at x0; every projected step but the first visits a new iterate,
    # where its own value is computed, and about one more row holds the residual.
    assert m + big_p - 1 <= counts["value"] <= m + 2 * big_p


@pytest.mark.parametrize("u, x0", [([1e-10], [1e300]), ([-1e-10], [-1e300]),
                                   ([1e-10, 0.0], [1e300, 0.0])],
                         ids=["-inf", "+inf", "nan"])
def test_an_overflowing_step_scale_raises_naming_it(u, x0):
    # f(x) = 1e290 over ||u||^2 = 1e-20 overflows the step scale to +inf, which would
    # send the iterate to -inf or to +inf, and a zero entry of u to inf * 0, a NaN.  The
    # cut refuses that scale before it forms a point, so no numpy warning arises.
    p = Problem(dimension=len(u), functions=[Linear(u)], x0=x0)
    with pytest.raises(NonFiniteValue) as info:
        solve(p)
    assert str(info.value) == "the step scale f(x) / ||u||^2 = 1.000e+290 / 1.000e-20 overflows"


def test_an_overflowing_iterate_raises_naming_the_iteration():
    # The step scale 1.7e308 is finite, but the relaxed step 1.9 * 1.7e308 overflows;
    # numpy warns of that product, so only that warning is let pass.
    p = Problem(dimension=1, functions=[Linear([1.0])], x0=[1.7e308], relaxation=1.9)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue) as info:
        solve(p)
    assert str(info.value) == "iteration 0 produced a non-finite iterate"


@pytest.mark.parametrize("numpy_errors", ["warn", "raise"])
def test_an_overflowing_iterate_raises_naming_the_iteration_where_numpy_errors(numpy_errors):
    # Warnings are errors in this suite, so the overflowing product 1.9 * 1.7e308
    # raises numpy's RuntimeWarning, or its FloatingPointError where numpy raises;
    # either is the same non-finite iterate, named as such.
    p = Problem(dimension=1, functions=[Linear([1.0])], x0=[1.7e308], relaxation=1.9)
    with np.errstate(over=numpy_errors), pytest.raises(NonFiniteValue) as info:
        solve(p)
    assert str(info.value) == "iteration 0 produced a non-finite iterate"
    assert info.value.__cause__ is None and info.value.__suppress_context__


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


# -- the block is built where a second projected step can use it ---------------------------

def spy_on_the_block(monkeypatch):
    """(built, cuts): the number of cuts made before each _AffineBlock was built, and the
    list of cuts made so far, by class-level spies on _AffineBlock.__init__ and _cut."""
    built, cuts = [], []
    init, cut = feasibility._AffineBlock.__init__, feasibility._cut

    def counted_init(self, p):
        built.append(len(cuts))
        init(self, p)

    def counted_cut(*args):
        cuts.append(1)
        return cut(*args)

    monkeypatch.setattr(feasibility._AffineBlock, "__init__", counted_init)
    monkeypatch.setattr(feasibility, "_cut", counted_cut)
    return built, cuts


@pytest.mark.parametrize("bad, start, where", [
    (math.nan, 40, "visit"), (math.nan, 41, "contender"),
    (math.inf, 40, "visit"), (math.inf, 41, "contender"),
])
def test_a_bad_value_past_the_first_step_raises_where_the_solve_computes_it(monkeypatch, bad,
                                                                          start, where):
    # Dist.value, replaced on the class, returns NaN or +inf from its start-th call on.
    # From the second projected step the block computes a contender's value itself, and
    # the solve the value of a row the block left as NaN when it visits the row; both
    # raise what the plain loop raises.  The NaN ones used to return Converged with
    # final_residual 0.0, the true residual being 8.2 and 9.2.
    p = halfspaces(6, 16, 8)
    value, calls = Dist.value, []
    monkeypatch.setattr(Dist, "value", lambda self, x: calls.append(1) or (
        value(self, x) if len(calls) < start else bad))
    error, message = ((NonFiniteValue, "^Dist value is NaN$") if bad != bad else
                      (DomainError, "^residual undefined where a constraint is \\+inf$"))
    with pytest.raises(error, match=message) as raised:
        solve(p)
    frames = [frame.name for frame in traceback.extract_tb(raised.tb)]
    assert ("values" in frames) == (where == "contender") and "_values" not in frames


def one_step(m=12, n=6):
    """Halfspaces that x0 = 0 meets but for the first, which one projection settles."""
    rng = np.random.default_rng(11)
    fs = [Dist(Halfspace(np.eye(n)[0], -1.0))]
    fs += [Dist(Halfspace(a, 5.0)) for a in rng.uniform(-1.0, 1.0, (m - 1, n))]
    return Problem(dimension=n, functions=fs, x0=np.zeros(n))


def test_a_one_step_solve_builds_no_block(monkeypatch):
    built, cuts = spy_on_the_block(monkeypatch)
    x, trace = solve(one_step())
    assert (trace.status, trace.iterations, trace.final_residual) == ("Converged", 1, 0.0)
    assert len(cuts) == 1 and built == []
    assert x.tobytes() == np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0]).tobytes()


@pytest.mark.parametrize("name", ["halfspaces-cyclic", "halfspaces-64x64", "mixed-explicit",
                                  "linear-and-halfspaces", "two-balls-schedule"])
def test_a_solve_builds_one_block_at_its_second_projected_step(monkeypatch, name):
    p = CASES[name]()
    statuses = assert_same_solve(p)
    assert statuses.count(ProjStatus.PROJECTED) >= 2
    built, cuts = spy_on_the_block(monkeypatch)
    _x, trace = solve(p)
    # Built once, after the first cut and before the second.
    assert built == [1] and len(cuts) == statuses.count(ProjStatus.PROJECTED)


def test_an_oracle_replaced_on_its_class_is_met_at_the_first_step(monkeypatch):
    # Dist.value, replaced on the class, returns NaN anywhere but at x0.  x1 is
    # evaluated by the plain loop, which calls every value oracle and so meets the NaN
    # there; 16 rows in R^8 are enough for the affine screen, which would settle
    # most rows without asking them.
    p = halfspaces(6, 16, 8)
    value, x0 = Dist.value, p.x0.tobytes()
    monkeypatch.setattr(Dist, "value",
                        lambda self, x: value(self, x) if x.tobytes() == x0 else float("nan"))
    built, cuts = spy_on_the_block(monkeypatch)
    with pytest.raises(NonFiniteValue, match="^Dist value is NaN$"):
        solve(p)
    assert len(cuts) == 1 and built == []
