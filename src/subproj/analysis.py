"""Differential, Lipschitz, monotonicity, and sequential diagnostics.

Everything here is a numerical probe of operator regularity: the exact
Jacobian of the projector where the function is twice differentiable, its 1-D
derivative, Lipschitz bounds assembled from curvature data, monotonicity
witnesses on sampled pairs, and a small lab for sequences of functions
approaching a limit function.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import as_vector, dot, norm, norm2
from .errors import (
    DimensionMismatch,
    DomainError,
    EmptySample,
    NonFiniteValue,
    NotPositiveHere,
    ZeroFunctionValue,
)
from .functions import INF, LEAST_INDEX, FunctionSpec, SelectionStrategy
from .projector import _normal, _overflow, _value, sproj


def _positive_value(f: FunctionSpec, x: np.ndarray, message: str) -> float:
    """f(x) through the projector's value gate; NotPositiveHere(message) unless f(x) > 0."""
    try:
        fx = _value(f, x)
    except DomainError:
        raise NotPositiveHere(message) from None
    if fx <= 0.0:
        raise NotPositiveHere(message)
    return fx


def _hessian(f: FunctionSpec, x: np.ndarray) -> np.ndarray:
    """f's Hessian at x, checked: DimensionMismatch unless its shape is (dim, dim),
    NonFiniteValue unless every entry is finite, each naming f's class."""
    h = np.asarray(f.hessian(x), dtype=float)
    name = type(f).__name__
    if h.shape != (f.dim, f.dim):
        raise DimensionMismatch(f"{name} Hessian has shape {h.shape}, expected {(f.dim, f.dim)}")
    if not np.isfinite(h).all():
        raise NonFiniteValue(f"{name} Hessian is not finite")
    return h


def sproj_jacobian(f: FunctionSpec, x) -> np.ndarray:
    """Jacobian of the projector at a point with f(x) > 0 and C^2 data.

    With u = grad f(x) and H = hess f(x):

        I - u u^T / ||u||^2 - f(x) H / ||u||^2 + 2 f(x) u (H u)^T / ||u||^4.

    Matches central finite differences of the projector away from the level
    boundary, where the operator is smooth; NonFiniteValue where it overflows.
    """
    x = as_vector(x, dim=f.dim)
    fx = _positive_value(f, x, "the Jacobian formula applies where f(x) > 0")
    u = f.gradient(x)
    h = _hessian(f, x)
    u, n2 = _normal(u, x)
    t = fx / n2
    if t == INF:
        raise _overflow(fx, n2)
    hu = h @ u
    c = 2.0 * fx / (n2 * n2)
    with np.errstate(over="ignore", invalid="ignore"):
        # Where c overflows, u (H u)^T is scaled by 1 / ||u||^2 and then t, so 0 stays 0.
        last = c * np.outer(u, hu) if c < INF else 2.0 * (np.outer(u, hu) / n2 * t)
        jac = np.eye(f.dim) - np.outer(u, u) / n2 - t * h + last
    if not np.isfinite(jac).all():
        raise NonFiniteValue(f"the projector Jacobian at f(x) = {fx:.3e}, ||u||^2 = {n2:.3e} "
                             "overflows")
    return jac


def sproj_deriv_1d(f: FunctionSpec, x: float) -> float:
    """Derivative of the 1-D projector: 1 where f < 0, f''(x) f(x) / f'(x)^2 where f > 0.

    Raises ZeroFunctionValue on the zero level set, where the projector need
    not be differentiable even for smooth f.
    """
    xv = as_vector(x, dim=1)
    fx = _value(f, xv)
    if fx == 0.0:
        raise ZeroFunctionValue("the projector derivative is undefined where f(x) = 0")
    if fx < 0.0:
        return 1.0
    u = f.gradient(xv)
    fpp = float(_hessian(f, xv)[0, 0])
    return fpp * fx / _normal(u, xv)[1]


def lipschitz_bound(f: FunctionSpec, samples: Sequence, beta: float) -> float:
    """Lipschitz constant for the projector from curvature data over a region.

    ``beta`` is a user-asserted Lipschitz constant of grad f on the sampled
    region, which must lie inside {f > 0}.  In one dimension the bound is
    max(1, sup f / inf f'^2 * beta); in higher dimensions it is
    2 + 3 sup|f| / inf ||grad f||^2 * beta.  Sampled difference quotients of
    the projector never exceed the returned value.
    """
    pts = [as_vector(s, dim=f.dim) for s in samples]
    if not pts:
        raise EmptySample("need at least one sample point")
    vals = []
    grads = []
    for p in pts:
        vals.append(_positive_value(f, p, "every sample must satisfy 0 < f(x) < +inf"))
        grads.append(f.gradient(p))
    inf_g2 = min(_normal(g, p)[1] for g, p in zip(grads, pts))
    if f.dim == 1:
        sup_f = max(vals)
        return max(1.0, sup_f / inf_g2 * beta)
    sup_f = max(abs(v) for v in vals)
    return 2.0 + 3.0 * sup_f / inf_g2 * beta


@dataclass(frozen=True)
class MonotonicityReport:
    """Worst-case inner products certifying (or refuting) monotonicity."""

    worst_inner: float          # min <Gx - Gy, x - y> over all pairs
    worst_margin: float         # min ||x-y||^2 - <x-y, f(x) inv u - f(y) inv v> on {f>0} pairs
    pairs: int
    positive_pairs: int


def monotonicity_probe(f: FunctionSpec, pairs: Sequence[tuple],
                       strategy: SelectionStrategy = LEAST_INDEX) -> MonotonicityReport:
    """Probe monotonicity of the projector on sampled pairs.

    Reports both the raw witness min <Gx - Gy, x - y> and, on pairs with both
    values positive, the margin of the equivalent inequality
    <x - y, f(x) u/||u||^2 - f(y) v/||v||^2> <= ||x - y||^2.
    """
    worst_inner = INF
    worst_margin = INF
    n_pos = 0
    count = 0
    for a, b in pairs:
        a = as_vector(a, dim=f.dim)
        b = as_vector(b, dim=f.dim)
        out_a = sproj(f, a, strategy)
        out_b = sproj(f, b, strategy)
        inner = dot(out_a.point - out_b.point, a - b)
        worst_inner = min(worst_inner, inner)
        count += 1
        if out_a.f_value > 0.0 and out_b.f_value > 0.0:
            ua, ub = out_a.subgradient_used, out_b.subgradient_used
            lhs = dot(a - b, out_a.f_value * ua / norm2(ua) - out_b.f_value * ub / norm2(ub))
            worst_margin = min(worst_margin, norm(a - b) ** 2 - lhs)
            n_pos += 1
    if count == 0:
        raise EmptySample("need at least one pair")
    return MonotonicityReport(worst_inner, worst_margin, count, n_pos)


class SeqVerdict(Enum):
    """Outcome of a sequential projection run against the limit operator."""

    FEASIBLE_LIMIT = "feasible-limit"        # f(x) <= 0, x eventually feasible for f_n
    PERSISTENT_GAP = "persistent-gap"        # f(x) > 0 but f_n(x) <= 0 recurs
    POINTWISE_LIMIT = "pointwise-limit"      # f(x) > 0 with values and selections converging
    INCONCLUSIVE = "inconclusive"


@dataclass
class SeqLabReport:
    verdict: SeqVerdict
    tail_deviation: float               # max ||G_n x - G x|| over the last quarter
    gap_floor: float                    # f(x)/||Ux|| when f(x) > 0, else 0
    recurrent_deviation: float          # largest deviation recurring in every length-4 window
    deviations: np.ndarray


# A feasibility event "recurs" when it happens at least once in every window
# of this length over the horizon.
RECUR_WINDOW = 4


def seq_lab(family: Callable[[int], FunctionSpec], f: FunctionSpec, x,
            n_steps: int = 1000,
            strategy: SelectionStrategy = LEAST_INDEX) -> SeqLabReport:
    """Classify the run n -> G_{f_n} x against G_f x.

    Three decidable regimes:

    * f(x) <= 0 and x eventually feasible for every f_n: deviations vanish
      (they are bounded by the distance from x to the f_n-sublevel sets).
    * f(x) > 0 while f_n(x) <= 0 keeps recurring: the deviation returns to
      f(x)/||Ux|| infinitely often and the run cannot converge.
    * f(x) > 0 with f_n(x) -> f(x) and U_n x -> U x: plain convergence.

    A horizon ``n_steps`` below 1 raises EmptySample.
    """
    if n_steps < 1:
        raise EmptySample("need at least one step")
    x = as_vector(x, dim=f.dim)
    out = sproj(f, x, strategy)
    fx, gx = out.f_value, out.point

    devs = np.zeros(n_steps)
    fn_vals = np.zeros(n_steps)
    sel_devs = np.zeros(n_steps)
    u_lim = out.subgradient_used
    for j in range(n_steps):
        out_n = sproj(family(j + 1), x, strategy)
        fn_vals[j] = out_n.f_value
        devs[j] = norm(out_n.point - gx)
        if u_lim is not None and out_n.subgradient_used is not None:
            sel_devs[j] = norm(out_n.subgradient_used - u_lim)

    quarter = max(1, n_steps // 4)
    tail = devs[-quarter:]
    tail_dev = float(np.max(tail))
    feas = fn_vals <= 0.0

    def recurs(mask: np.ndarray) -> bool:
        if n_steps < RECUR_WINDOW:
            return bool(np.all(mask))
        windows = np.lib.stride_tricks.sliding_window_view(mask, RECUR_WINDOW)
        return bool(np.all(np.any(windows, axis=1)))

    if fx <= 0.0:
        half = n_steps // 2
        eventually_feasible = bool(np.all(feas[half:]))
        verdict = SeqVerdict.FEASIBLE_LIMIT if eventually_feasible else SeqVerdict.INCONCLUSIVE
        return SeqLabReport(verdict, tail_dev, 0.0, 0.0, devs)

    gap_floor = fx / norm(u_lim)
    if recurs(feas):
        # Deviation recurring in every window: the largest value d with
        # min over windows of (max deviation in window) >= d.
        windows = np.lib.stride_tricks.sliding_window_view(devs, RECUR_WINDOW) \
            if n_steps >= RECUR_WINDOW else devs.reshape(1, -1)
        recurrent = float(np.min(np.max(windows, axis=1)))
        return SeqLabReport(SeqVerdict.PERSISTENT_GAP, tail_dev, gap_floor, recurrent, devs)

    head = max(1, n_steps // 4)
    val_head = float(np.max(np.abs(fn_vals[:head] - fx)))
    val_tail = float(np.max(np.abs(fn_vals[-quarter:] - fx)))
    sel_head = float(np.max(sel_devs[:head]))
    sel_tail = float(np.max(sel_devs[-quarter:]))
    vals_converge = val_tail <= max(1e-12 * (1.0 + abs(fx)), 0.5 * val_head)
    sels_converge = sel_tail <= max(1e-12 * (1.0 + norm(u_lim)), 0.5 * sel_head) \
        if np.any(sel_devs > 0.0) else True
    eventually_positive = bool(np.all(fn_vals[-quarter:] > 0.0))
    if eventually_positive and vals_converge and sels_converge:
        return SeqLabReport(SeqVerdict.POINTWISE_LIMIT, tail_dev, gap_floor, 0.0, devs)
    return SeqLabReport(SeqVerdict.INCONCLUSIVE, tail_dev, gap_floor, 0.0, devs)


def dist_bound_check(f: FunctionSpec, x,
                     strategy: SelectionStrategy = LEAST_INDEX) -> tuple[float, float]:
    """Return (f(x)/||u||, distance to the zero sublevel set) at a point with f(x) > 0.

    The first quantity never exceeds the second: the cutting halfspace
    contains the sublevel set, so the projection step is a lower bound on the
    true distance.  Requires an exact level-set projection oracle.
    """
    x = as_vector(x, dim=f.dim)
    fx = _positive_value(f, x, "the bound is defined where f(x) > 0")
    u = f.subgradient(x, strategy)
    lhs = fx / float(np.sqrt(_normal(u, x)[1]))
    rhs = norm(x - f.level_set_project(x))
    return lhs, rhs
