import numpy as np
import pytest

from subproj import (
    AffineMax,
    Ball,
    Box,
    Dist,
    Halfspace,
    Hyperbolic,
    Indicator,
    Linear,
    MoreauEnv,
    NegLog,
    NoLevelSetOracle,
    NonFiniteValue,
    NormPow,
    PowerComp,
    ProxAuditFailed,
    RightLinear,
    Scale,
    SqDist,
    SqrtShift,
    UnsupportedAtom,
    fd_gradient,
    is_prox_friendly,
    moreau_value,
    prox,
    sproj,
    sproj_moreau,
)
from subproj.serialize import TAGS, function_to_record


def prox_friendly_atoms():
    return [
        Indicator(Ball([0.0, 0.0], 1.0)),
        Indicator(Box([-1.0, -1.0], [1.0, 1.0])),
        Indicator(Halfspace([0.0, 1.0], 0.5)),
        NormPow(2.0, dim=2),
        NormPow(1.0, dim=2),
        Linear([0.7, -0.2]),
        Scale(0.5, NormPow(2.0, dim=2)),
    ]


def test_prox_examples():
    assert np.allclose(prox(Indicator(Ball([0, 0], 1.0)), 1.0, [3.0, 0.0]), [1.0, 0.0])
    assert np.allclose(prox(Scale(0.5, NormPow(2.0, dim=2)), 1.0, [4.0, 2.0]), [2.0, 1.0])
    u = np.array([0.7, -0.2])
    x = np.array([1.0, 1.0])
    assert np.allclose(prox(Linear(u), 2.0, x), x - 2.0 * u)


def test_prox_norm_soft_threshold():
    f = NormPow(1.0, dim=2)
    x = np.array([3.0, 4.0])
    p = prox(f, 1.0, x)
    # stationarity: (x - p)/gamma must be the gradient of the norm at p
    assert np.linalg.norm((x - p) - p / np.linalg.norm(p)) <= 1e-9
    assert np.allclose(prox(f, 10.0, x), [0.0, 0.0])


def test_prox_rejects_unsupported():
    with pytest.raises(UnsupportedAtom):
        prox(NegLog(), 1.0, 0.5)
    assert not is_prox_friendly(NegLog())
    assert is_prox_friendly(Scale(2.0, Indicator(Ball([0.0], 1.0))))


def test_prox_firmly_nonexpansive():
    rng = np.random.default_rng(60)
    for f in prox_friendly_atoms():
        for _ in range(150):
            x = rng.standard_normal(2) * 4.0
            y = rng.standard_normal(2) * 4.0
            px, py = prox(f, 1.0, x), prox(f, 1.0, y)
            lhs = float(np.dot(px - py, px - py))
            rhs = float(np.dot(px - py, x - y))
            assert lhs <= rhs + 1e-12


def test_moreau_value_of_indicator_is_half_squared_distance():
    ball = Ball([0.0, 0.0], 1.0)
    ind = Indicator(ball)
    assert moreau_value(ind, 1.0, [3.0, 0.0]) == pytest.approx(2.0, abs=1e-12)
    assert moreau_value(ind, 1.0, [0.3, 0.1]) == 0.0
    rng = np.random.default_rng(61)
    for gamma in (0.5, 1.0, 2.0):
        for _ in range(50):
            x = rng.standard_normal(2) * 3.0
            d = ball.distance(x)
            assert moreau_value(ind, gamma, x) == pytest.approx(d * d / (2 * gamma), abs=1e-12)


def test_moreau_gradient_identity():
    rng = np.random.default_rng(62)
    for f in prox_friendly_atoms():
        for gamma in (0.5, 1.0, 2.0):
            for _ in range(10):
                x = rng.standard_normal(2) * 3.0
                if isinstance(f, Indicator) and f.set.distance(x) < 0.15:
                    continue  # envelope kink band for finite differences
                grad = (x - prox(f, gamma, x)) / gamma
                approx = fd_gradient(lambda z: moreau_value(f, gamma, z), x)
                assert np.linalg.norm(grad - approx) <= 1e-6 * (1.0 + np.linalg.norm(grad))


def test_sproj_moreau_indicator_ball():
    ind = Indicator(Ball([0.0, 0.0], 1.0))
    assert np.allclose(sproj_moreau(ind, 1.0, [3.0, 0.0]), [2.0, 0.0])
    x = np.array([0.5, 0.2])
    assert np.array_equal(sproj_moreau(ind, 1.0, x), x)


def test_sproj_moreau_is_averaged_projection_exactly():
    ball = Ball([0.0, 0.0], 1.0)
    ind = Indicator(ball)
    rng = np.random.default_rng(63)
    for _ in range(300):
        x = rng.standard_normal(2) * rng.uniform(1.1, 5.0)
        if np.linalg.norm(x) <= 1.0:
            continue
        got = sproj_moreau(ind, 1.0, x)
        p = ball.project(x)
        assert np.array_equal(got, x - 0.5 * (x - p))
        assert np.allclose(got, 0.5 * (x + p), rtol=1e-14, atol=0.0)


def test_sproj_moreau_cross_checks_squared_distance():
    # The envelope of the indicator at gamma=1 is half the squared distance,
    # whose projector is scale invariant.
    ball = Ball([0.0, 0.0], 1.0)
    ind = Indicator(ball)
    half_sq = Scale(0.5, SqDist(ball))
    rng = np.random.default_rng(64)
    for _ in range(100):
        x = rng.standard_normal(2) * 4.0
        got = sproj_moreau(ind, 1.0, x)
        want = sproj(half_sq, x).point
        assert np.linalg.norm(got - want) <= 1e-10 * (1.0 + np.linalg.norm(x))


def test_moreau_env_spec_matches_direct_operator():
    ind = Indicator(Ball([0.0, 0.0], 1.0))
    env = MoreauEnv(1.0, ind)
    rng = np.random.default_rng(65)
    for _ in range(50):
        x = rng.standard_normal(2) * 3.0
        got = sproj(env, x).point
        want = sproj_moreau(ind, 1.0, x)
        assert np.linalg.norm(got - want) <= 1e-12


def test_moreau_env_requires_prox_friendly():
    with pytest.raises(UnsupportedAtom):
        MoreauEnv(1.0, NegLog())


_BALL = Ball([0.0, 0.0], 1.0)
# (spec, prox-friendly) for every serializable function tag: exactly Indicator,
# Linear, NormPow with p in {1, 2}, and Scale of those.
PROX_TABLE = [
    (Linear([0.7, -0.2]), True),
    (Dist(_BALL), False),
    (SqDist(_BALL), False),
    (NormPow(1.0, dim=2), True),
    (NormPow(2.0, dim=2), True),
    (NormPow(1.5, dim=2), False),
    (NormPow(3.0, dim=2), False),
    (NegLog(), False),
    (SqrtShift(1.0), False),
    (Hyperbolic(2.0), False),
    (AffineMax([([1.0, 0.0], 0.0)]), False),
    (Indicator(_BALL), True),
    (Scale(2.0, Indicator(_BALL)), True),
    (Scale(2.0, Linear([0.7, -0.2])), True),
    (Scale(0.5, Scale(3.0, NormPow(1.0, dim=2))), True),
    (Scale(2.0, NormPow(3.0, dim=2)), False),
    (Scale(2.0, Dist(_BALL)), False),
    (PowerComp(0.5, Dist(_BALL)), False),
    (RightLinear(np.eye(2), NormPow(2.0, dim=2)), False),
    (MoreauEnv(1.0, Indicator(_BALL)), False),
]


def test_the_prox_table_covers_every_function_tag():
    assert {function_to_record(f)["type"] for f, _ in PROX_TABLE} == set(TAGS["function"])


@pytest.mark.parametrize("f, friendly", PROX_TABLE, ids=repr)
def test_is_prox_friendly_accepts_exactly_the_closed_form_atoms(f, friendly):
    assert is_prox_friendly(f) is friendly


@pytest.mark.parametrize("f, friendly", PROX_TABLE, ids=repr)
def test_moreau_env_accepts_exactly_the_prox_friendly_atoms(f, friendly):
    if friendly:
        assert MoreauEnv(1.0, f).inner is f
    else:
        with pytest.raises(UnsupportedAtom, match="needs a prox-friendly inner function"):
            MoreauEnv(1.0, f)


@pytest.mark.parametrize("inner, x, expected", [
    (Indicator(Ball([0.0, 0.0], 1.0)), [3.0, 0.0], [1.0, 0.0]),
    (NormPow(1.0, dim=2), [3.0, 4.0], [0.0, 0.0]),
    (Scale(2.0, Indicator(Box([-1.0, -1.0], [1.0, 1.0]))), [3.0, 0.5], [1.0, 0.5]),
], ids=["indicator", "normpow", "scaled-indicator"])
def test_moreau_env_level_set_of_nonnegative_inner(inner, x, expected):
    # For f >= 0 the envelope vanishes exactly where f does.
    assert np.array_equal(MoreauEnv(0.5, inner).level_set_project(np.array(x)), expected)


def test_moreau_env_level_set_needs_nonnegative_inner():
    with pytest.raises(NoLevelSetOracle, match="MoreauEnv has no level-set projection"):
        MoreauEnv(1.0, Linear([1.0, 0.0])).level_set_project(np.array([1.0, 0.0]))


class _FlippedLinear(Linear):
    """A linear atom whose value has the wrong sign, so its closed-form prox is wrong."""

    def value(self, x):
        return -super().value(x)


def test_prox_audit_failure_is_a_named_error():
    with pytest.raises(ProxAuditFailed) as exc:
        prox(_FlippedLinear([100.0, 0.0]), 1.0, [0.0, 0.0])
    # The margin names the first winning competitor, so it pins the audit's probes.
    assert str(exc.value) == "prox optimality audit failed: a competitor improves it by 3.467e+02"


@pytest.mark.parametrize("s", [1e150, 1e160, 1e300])
def test_prox_audit_passes_a_true_prox_where_the_norm_overflows(s):
    # Past ~1.34e154 ||x|| is +inf; under an infinite probe scale every
    # competitor's objective is NaN, which fails the audit.
    assert np.array_equal(prox(Linear([1.0]), 1.0, [s]), [s - 1.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [[1e308, 1e308], [-1.7e308, 1.7e308], [1.7976931348623157e308]])
def test_prox_audit_passes_a_true_prox_next_to_the_largest_double(x):
    # A probe scale of ~1.4e308 times a draw above ~1.3 overflows a competitor;
    # its objective was then inf or NaN, and NaN failed the audit.
    u = np.ones(len(x))
    assert np.array_equal(prox(Linear(u), 1.0, x), np.array(x) - u)


@pytest.mark.parametrize("f, gamma, x, message", [
    (Linear([1e300]), 1e10, [0.0], "Linear prox is not finite"),  # x - gamma * u is -inf
    (Scale(1e300, Linear([1.0, 0.0])), 1e10, [0.0, 0.0], "Scale prox is not finite"),  # inf * 0
])
def test_prox_audit_fails_a_minimizer_that_is_not_finite(f, gamma, x, message):
    # The closed form overflows on finite inputs, so neither the point nor the
    # envelope is finite: prox names the atom before the audit runs, and numpy's
    # own warning from the product stays.  That the audit returns on a point no
    # scale makes finite is tested in test_core.
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteValue) as info:
        prox(f, gamma, x)
    assert str(info.value) == message


def test_prox_audit_survives_optimized_mode():
    import subprocess
    import sys
    from pathlib import Path

    import subproj

    code = (
        "from subproj import Linear, ProxAuditFailed, prox\n"
        "class Flipped(Linear):\n"
        "    def value(self, x):\n"
        "        return -super().value(x)\n"
        "try:\n"
        "    prox(Flipped([100.0, 0.0]), 1.0, [0.0, 0.0])\n"
        "except ProxAuditFailed:\n"
        "    print('raised')\n"
    )
    src = str(Path(subproj.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised\n"
