"""Relaxed quasi-cyclic subgradient projection solver for convex feasibility.

Given functions f_1 .. f_m whose zero sublevel sets intersect, the iteration

    x_{n+1} = x_n + lam_n (G_{f_{i(n)}} x_n - x_n),   lam_n in [eps, 2 - eps],

visits the constraints in the order prescribed by a control sequence in which
every index recurs within a bounded window.  Distances to any feasible point
are nonincreasing along the run (Fejer monotonicity), and the solver stops once
the residual max_i [f_i(x)]_+ drops to the tolerance or the iteration budget
runs out.  A solve is single threaded and fully deterministic: the same
problem produces a bit-identical trace.

The convergence theory behind the iteration assumes each f_i is finite
everywhere with subdifferentials bounded on bounded sets; the solver checks
the finiteness structurally and records the boundedness assumption in the
trace, since it cannot be verified numerically for user-supplied oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, cycle, islice
from numbers import Integral
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import AffineRows, as_vector, finite_float, norm
from .errors import (
    DomainError,
    InvalidControl,
    InvalidSpec,
    NonFiniteValue,
    RelaxationOutOfRange,
    StalledStep,
)
from .functions import INF, LEAST_INDEX, FunctionSpec, SelectionStrategy
from .projector import _project

# Below this step scale a positive residual can no longer move the iterate.
STALL_FLOOR = 1e-300

TRACE_ASSUMPTION = "subdifferentials-bounded-on-bounded-sets"


# ---------------------------------------------------------------------------
# control sequences
# ---------------------------------------------------------------------------

class ControlSequence:
    """Order in which constraint indices are visited.

    A control defines one method, ``_stream(m)``: the endless index sequence
    for m functions.  ``indices`` is a view of it, and the solver walks it.
    A control whose stream repeats may also say so in ``_period(m)``; the
    class that defines ``_stream`` must define ``_period`` too, or it is not
    believed (see ``validate_control``).
    """

    window_bounds: Optional[list[int]] = None  # None: every index need only appear

    def _stream(self, m: int) -> Iterator[int]:
        """The endless index sequence for m functions, checked before the first index."""
        raise NotImplementedError(
            f"{type(self).__name__} defines no _stream(m); a control defines that one "
            "method, and indices(m, horizon) is a view of it")

    def _period(self, m: int):
        """How the stream repeats: ``(T, P)`` when index n + P equals index n for
        every n >= T; ``_WAITS`` when the next index is a function of the waits
        n - (last visit of i), so that a walk finds (T, P) itself; None if unknown."""
        return None

    def indices(self, m: int, horizon: int) -> list[int]:
        """The first ``horizon`` indices."""
        return list(islice(self._stream(m), horizon))

    def windows(self, m: int) -> list[Optional[int]]:
        """Declared window bound per index (None when only presence is required)."""
        if self.window_bounds is None:
            return [None] * m
        if m != len(self.window_bounds):
            raise InvalidControl(
                f"{len(self.window_bounds)} window bounds for {m} functions")
        return list(self.window_bounds)


# The ``_period`` of a stream whose next index depends only on the waits.
_WAITS = "waits"


def _integers(values: Sequence[int], what: str) -> list[int]:
    """``values`` as a list of ints, raising InvalidControl on any that is not an integer."""
    out = list(values)
    # type(v) is int first: the ABC check alone costs ten times as much.
    if not all(type(v) is int or isinstance(v, Integral) and not isinstance(v, bool)
               for v in out):
        raise InvalidControl(f"{what} must be integers")
    return [int(v) for v in out]


def _window_bounds(window_bounds: Sequence[int]) -> list[int]:
    """Declared window bounds as ints, raising InvalidControl on any below 1."""
    bounds = _integers(window_bounds, "window bounds")
    if any(w < 1 for w in bounds):
        raise InvalidControl("window bounds must be >= 1")
    return bounds


def _turns(windows: list[int]) -> tuple[list[int], list[int], list[int]]:
    """The order in which QuasiCyclic visits the indices of each distinct window.

    ``heads[j]`` is the first index of the j-th distinct window ``bounds[j]``,
    and ``after[i]`` the index of i's window visited after i: the next larger
    one, or the smallest after the largest.
    """
    groups: dict[int, list[int]] = {}
    for i, w in enumerate(windows):
        groups.setdefault(w, []).append(i)
    after = [0] * len(windows)
    for g in groups.values():
        for a, b in zip(g, g[1:] + g[:1]):
            after[a] = b
    return [g[0] for g in groups.values()], list(groups), after


class Cyclic(ControlSequence):
    """0, 1, ..., m-1, 0, 1, ...; every index recurs within a window of m."""

    def _stream(self, m):
        return cycle(range(m))

    def _period(self, m):
        return 0, m

    def windows(self, m):
        return [m] * m

    def __repr__(self):
        return "Cyclic()"


class QuasiCyclic(ControlSequence):
    """Deterministic schedule honoring per-index window bounds M_i.

    At each step the index with the largest normalized waiting time
    (steps since last visit divided by its window) is chosen, ties broken by
    longest absolute wait and then by smallest index.  The produced sequence
    is validated against the declared windows before a solve runs.

    Among indices that share a window, the largest key belongs to the one
    that has waited longest, the smallest index first; once visited it has
    waited least.  So the indices of one window are visited in turn, in
    increasing order, and a step compares only the next index of each
    distinct window.  The next index depends only on the waits, which take
    finitely many values while every index recurs, so the stream is periodic
    after a transient: ``validate_control`` finds the period from the waits
    and stops at T + P + W, with W the largest window (see there).
    """

    def __init__(self, window_bounds: Sequence[int]):
        self.window_bounds = _window_bounds(window_bounds)

    def _stream(self, m):
        return self._schedule(m, self.windows(m))

    def _period(self, m):
        return _WAITS

    @staticmethod
    def _schedule(m, windows):
        heads, bounds, after = _turns(windows)
        del windows  # the frame keeps only what a step reads
        last = [-1] * m
        for n in count():
            best, ratio, wait, j = m, -1.0, 0, 0
            for k, i in enumerate(heads):
                w = n - last[i]
                r = w / bounds[k]
                if r > ratio or r == ratio and (w > wait or w == wait and i < best):
                    best, ratio, wait, j = i, r, w, k
            yield best
            last[best] = n
            heads[j] = after[best]

    def __repr__(self):
        return f"QuasiCyclic(window_bounds={self.window_bounds})"


class Explicit(ControlSequence):
    """A user-given index list, repeated to cover the horizon.

    Optional declared windows are validated against the produced sequence;
    without them only presence of every index over the horizon is required.
    """

    def __init__(self, index_list: Sequence[int], window_bounds: Optional[Sequence[int]] = None):
        self.index_list = _integers(index_list, "explicit indices")
        if not self.index_list:
            raise InvalidControl("the index list must be nonempty")
        self.window_bounds = None if window_bounds is None else _window_bounds(window_bounds)

    def _stream(self, m):
        if any(i < 0 or i >= m for i in self.index_list):
            raise InvalidControl("explicit index out of range")
        return cycle(self.index_list)

    def _period(self, m):
        return 0, len(self.index_list)

    def __repr__(self):
        return f"Explicit(index_list={self.index_list}, window_bounds={self.window_bounds})"


@dataclass(frozen=True)
class ControlViolation:
    """A window of the control sequence missing the required index."""

    index: int
    window_start: int
    window_len: int

    def __str__(self):
        return (f"index {self.index} missing from window "
                f"[{self.window_start}, {self.window_start + self.window_len - 1}]")


def _believed_period(control: ControlSequence, m: int):
    """``control._period(m)`` if the class that defines its ``_stream`` defines it, else None.

    A subclass that overrides ``_stream`` without restating its period gets
    the full walk: its stream is not accepted on its parent's period.
    """
    for cls in type(control).__mro__:
        if "_stream" in vars(cls):
            return control._period(m) if "_period" in vars(cls) else None


def validate_control(control: ControlSequence, m: int, horizon: int) -> list[ControlViolation]:
    """Scan every admissible window over the horizon; violations are data, not errors.

    The scan walks the control's indices once and keeps only each index's
    last visit; the violations come sorted by index and start.  An index
    outside [0, m) raises InvalidControl, naming the index and its step.

    A stream that repeats with period P from step T on is walked only over
    its first L = T + P + W indices, W the largest declared window, when
    that prefix misses no window (a presence-only index: when it appears in
    the prefix).  A window missed anywhere in the horizon is missed within
    L: one that starts at or after T, shifted back by multiples of P to
    start in [T, T + P), sees the same indices and ends before L; one that
    starts before T ends before T + W.  Likewise an index present anywhere
    appears before T + P.  Where the prefix misses a window, or the period
    is unknown, the same walk goes on over the whole horizon, so the list
    is always the full scan's.

    (T, P) comes from ``control._period(m)``.  Where that says the next index
    depends only on the waits n - last[i] (``_WAITS``), the walk finds it by
    Brent's cycle detection on ``last``: it copies ``last`` after 1, 2, 4, ...
    indices, and waits equal to the copy's, k - c indices later, give
    T <= c and P = k - c.
    """
    if m < 1:
        raise InvalidControl("need at least one function")
    windows = control.windows(m)
    if any(w is not None and w > horizon for w in windows):
        raise ValueError("horizon must cover the largest declared window")
    # A presence-only index has the whole horizon as its window, missed only if it never appears.
    bound = [horizon if w is None else w for w in windows]
    widest = max((w for w in windows if w is not None), default=0)
    period = _believed_period(control, m)
    stop = horizon  # where the walk ends, or takes stock of a clean prefix
    if period is not None and period != _WAITS:
        stop = min(horizon, period[0] + period[1] + widest)
    # Brent's checkpoint: a copy of last after c indices, and the index visited
    # last before it; waits equal to the copy's need that same index last.
    saved, c, mark = None, 0, -1
    check = 1 if period == _WAITS else stop  # the next step count to take stock at
    last = [-1] * m
    violations = []
    k = 0
    for i in islice(control._stream(m), horizon):
        if not 0 <= i < m:
            raise InvalidControl(f"control index {i} at step {k} is outside [0, {m})")
        if k - last[i] > bound[i]:
            violations.append(ControlViolation(i, last[i] + 1, bound[i]))
        last[i] = k
        k += 1
        if i == mark and all(a - b == k - c for a, b in zip(last, saved)):
            mark = -1
            check = stop = min(horizon, k + widest)
        if k == check:
            if k < stop:  # a checkpoint
                saved, c, mark, check = last[:], k, i, 2 * k
            elif k < horizon:
                if not violations and all(k - a <= min(b, k) for a, b in zip(last, bound)):
                    return []
                stop = check = horizon
    for i in range(m):
        if horizon - last[i] > bound[i]:
            violations.append(ControlViolation(i, last[i] + 1, bound[i]))
    violations.sort(key=lambda v: v.index)
    return violations


# ---------------------------------------------------------------------------
# problems and traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """A convex feasibility problem: find x with f_i(x) <= 0 for every i.

    Frozen, so that no field can be reassigned past the checks of its construction.
    """

    dimension: int
    functions: list[FunctionSpec]
    x0: np.ndarray
    control: ControlSequence = field(default_factory=Cyclic)
    relaxation: float | Sequence[float] = 1.0
    epsilon: float = 0.05
    selections: SelectionStrategy | Sequence[SelectionStrategy] = LEAST_INDEX
    tol: float = 1e-8
    max_iter: int = 100_000
    feasible_witness: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.functions:
            raise InvalidSpec("a problem needs at least one function")
        object.__setattr__(self, "x0", as_vector(self.x0, dim=self.dimension))
        for f in self.functions:
            if f.dim != self.dimension:
                raise InvalidSpec("every function must match the problem dimension")
            if not f.domain_is_full:
                raise InvalidSpec(
                    f"{type(f).__name__} is not finite on the whole space; "
                    "the iteration requires real-valued constraints")
        if not 0.0 < self.epsilon <= 1.0:
            raise InvalidSpec("epsilon must lie in (0, 1]")
        finite_float(self.tol, "tol", InvalidSpec)
        if not isinstance(self.max_iter, Integral):
            raise InvalidSpec("max_iter must be an integer")
        if self.tol <= 0.0 or self.max_iter < 1:
            raise InvalidSpec("tol must be positive and max_iter >= 1")
        if isinstance(self.selections, SelectionStrategy):
            object.__setattr__(self, "selections", [self.selections] * len(self.functions))
        else:
            object.__setattr__(self, "selections", list(self.selections))
            if len(self.selections) != len(self.functions):
                raise InvalidSpec("one selection strategy per function is required")
        lo, hi = self.epsilon, 2.0 - self.epsilon
        for lam in self._relaxation_base():
            if not lo <= lam <= hi:
                raise RelaxationOutOfRange(
                    f"lambda = {lam} outside [{lo}, {hi}] for epsilon = {self.epsilon}")
        if self.feasible_witness is not None:
            object.__setattr__(self, "feasible_witness",
                               as_vector(self.feasible_witness, dim=self.dimension))

    def _relaxation_base(self) -> list[float]:
        if isinstance(self.relaxation, (int, float)):
            return [float(self.relaxation)]
        vals = [float(v) for v in self.relaxation]
        if not vals:
            raise InvalidSpec("the relaxation schedule must be nonempty")
        return vals

    def relaxation_schedule(self, horizon: int) -> list[float]:
        """First ``horizon`` relaxation values (a finite schedule repeats)."""
        base = self._relaxation_base()
        reps = -(-horizon // len(base))
        return (base * reps)[:horizon]


@dataclass(frozen=True, slots=True)
class TraceRow:
    """One executed iteration: x_{n+1} statistics under constraint i(n).

    Slotted: a solve keeps one row per iteration, so the trace is most of the
    memory a long solve holds.
    """

    n: int
    index: int
    lam: float
    residual: float
    step_norm: float
    dist_to_witness: Optional[float] = None


@dataclass
class SolveTrace:
    """Complete, replayable record of a solve."""

    rows: list[TraceRow]
    status: str  # "Converged" or "MaxIterReached"
    x_final: np.ndarray
    final_residual: float  # the residual at x_final, x0's when no step ran
    assumption: str = TRACE_ASSUMPTION

    @property
    def iterations(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def residual(p: Problem, x) -> float:
    """Infeasibility measure max_i [f_i(x)]_+ (zero exactly on the target set)."""
    return _values(p, as_vector(x, dim=p.dimension))[0]


def _values(p: Problem, x: np.ndarray) -> tuple[float, list[float]]:
    """The residual at a checked vector x, with the value f_i(x) of every constraint."""
    values = [0.0] * len(p.functions)
    return _evaluate(enumerate(p.functions), x, values), values


def _evaluate(rows, x: np.ndarray, values: list[float]) -> float:
    """Store f(x) at values[i] for each (i, f) of rows, in order, and return the largest
    positive one (0.0 if none), raising where a value is +inf or NaN."""
    worst = 0.0
    for i, f in rows:
        v = f.value(x)
        if v > worst:
            if v == INF:
                raise DomainError("residual undefined where a constraint is +inf")
            worst = v
        elif v != v:
            raise NonFiniteValue(f"{type(f).__name__} value is NaN")
        values[i] = v
    return worst


class _AffineBlock:
    """The constraints of a problem that expose an affine row, screened together.

    ``values(x)`` gives the residual of ``_values``, bit for bit, and the values
    the solve uses, from one matrix-vector product and its rounding bounds
    (``core.AffineRows``).  An affine constraint is computed by its own oracle
    only where the bounds cannot settle it: where it could be the largest
    value.  Of the others, one proved <= 0 holds its negative block value, and
    one of unsettled sign holds NaN, to be computed when the solve visits it.
    Oracles are pure, so each computed value is the plain loop's.  The other
    constraints are computed as in ``_values``, in order; an affine oracle
    cannot raise within the screen's range, so any error is the plain loop's.
    Where the screen is not used (too few affine rows, one row or offset, or
    the iterate, as long as ``core.SCREEN_MAX``), the plain loop runs instead.
    """

    def __init__(self, p: Problem):
        self.p = p
        # Filled in place, so no second copy of the rows exists; at most m x n
        # doubles, as when every constraint is affine.
        rows = np.empty((len(p.functions), p.dimension))
        offsets = np.empty(len(p.functions))
        self.index: list[int] = []
        self.others = []
        for i, f in enumerate(p.functions):
            row = f.affine_row()
            if row is None:
                self.others.append((i, f))
            else:
                k = len(self.index)
                rows[k], offsets[k] = row
                self.index.append(i)
        k = len(self.index)
        self.rows = AffineRows(rows[:k], offsets[:k])
        self._scatter = np.array(self.index) if self.others else slice(None)

    def values(self, x: np.ndarray) -> tuple[float, list[float]]:
        g, hi, contenders = self.rows.screen(x)
        if g is None:
            return _values(self.p, x)
        g[hi > 0.0] = np.nan
        full = np.empty(len(self.p.functions))
        full[self._scatter] = g
        values = full.tolist()
        worst = _evaluate(self.others, x, values)
        for k in contenders(worst):
            i = self.index[k]
            v = values[i] = self.p.functions[i].value(x)
            if v > worst:
                worst = v
        return worst, values


def _check_control(p: Problem, m: int) -> None:
    """Raise InvalidControl, naming the first five missed windows, where the control
    misses one within max(max_iter, largest declared window) steps.  A function of
    its own, so that nothing of the check stays alive through the run."""
    declared = [w for w in p.control.windows(m) if w is not None]
    violations = validate_control(p.control, m, max([p.max_iter] + declared))
    if violations:
        raise InvalidControl("; ".join(str(v) for v in violations[:5]))


def solve(p: Problem) -> tuple[np.ndarray, SolveTrace]:
    """Run the relaxed quasi-cyclic projection iteration until residual <= tol.

    Raises InvalidControl when the control sequence misses its coverage
    windows over the horizon, StalledStep when a positive residual can no
    longer move the iterate (step size underflow), and NonFiniteValue when an
    iterate overflows.
    """
    m = len(p.functions)
    _check_control(p, m)
    lams = p._relaxation_base()

    witness = p.feasible_witness
    x = np.array(p.x0)
    rows: list[TraceRow] = []
    status = "MaxIterReached"

    res, values = _values(p, x)
    if res <= p.tol:
        return x, SolveTrace([], "Converged", x, res)
    x = x + 0.0  # -0.0 entries become +0.0, as x + lam (G x - x) makes them on any step
    dist = None if witness is None else norm(x - witness)
    block = None  # built at the first projected step, so a solve that never moves builds none

    # Oracles are pure, so the values at x hold until the iterate moves: a step
    # on a satisfied constraint (G x = x) leaves x, and everything measured at
    # it, as it is.
    for n, i in zip(range(p.max_iter), p.control._stream(m)):
        lam = lams[n % len(lams)]
        fx = values[i]
        if fx != fx:  # a value the block left to the visit
            fx = values[i] = p.functions[i].value(x)
        step = 0.0
        if fx > 0.0:
            out, step_scale = _project(p.functions[i], x, fx, p.selections[i])
            if step_scale < STALL_FLOOR:
                raise StalledStep(
                    f"step size {step_scale:.3e} underflowed at iteration {n}")
            x_next = x + lam * (out.point - x)
            if not np.all(np.isfinite(x_next)):
                raise NonFiniteValue(f"iteration {n} produced a non-finite iterate")
            if block is None:
                block = _AffineBlock(p)
            res, values = block.values(x_next)
            step = norm(x_next - x)
            if witness is not None:
                dist = norm(x_next - witness)
            x = x_next
        rows.append(TraceRow(
            n=n,
            index=i,
            lam=lam,
            residual=res,
            step_norm=step,
            dist_to_witness=dist,
        ))
        if res <= p.tol:
            status = "Converged"
            break

    return x, SolveTrace(rows, status, x, res)
