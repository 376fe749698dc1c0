"""Seeded workloads for the subproj benchmark.

Each workload turns a seed into plain numpy arrays (or a JSON problem file),
builds ready problems from them through the public API (``setup``), runs one
timed unit (``call``: one ``solve()`` or one in-process ``cli.main``), and
checks the unit's output against a numpy recomputation from the generated data
(``check``).  The library only ever receives the generated arrays; the checks
never trust the library's own ``residual``.

A unit fails when it raises, when its status is not ``Converged``, when the
final residual recomputed here exceeds the tolerance, when the distance to the
known feasible witness grows by more than a rounding bound (a Fejer
violation), when the CLI exits with a nonzero code, or when two CLI runs of
one file write traces whose bytes differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from subproj import cli, feasibility, functions, sets
from subproj.prox import MoreauEnv

# Slack on the recomputed residual: numpy sums in another order than the
# library's per-constraint dot products, so the two can differ in the last ulps.
RESIDUAL_RTOL = 1e-6
# Rounding allowance for the Fejer check: distances are norms of 1-D vectors
# of at most 50 entries, whose relative error is a few 1e-15.
FEJER_RTOL = 1e-9
FEJER_ATOL = 1e-12


def fejer_failure(d0: float, dists) -> str | None:
    """Describe the first step whose distance to the witness grows, if any."""
    prev = d0
    for n, d in enumerate(dists):
        if not d <= prev * (1.0 + FEJER_RTOL) + FEJER_ATOL:
            return f"Fejer violation at row {n}: {prev!r} -> {d!r}"
        prev = d
    return None


def residual_failure(res: float, tol: float) -> str | None:
    if not res <= tol * (1.0 + RESIDUAL_RTOL):
        return f"recomputed residual {res!r} above tol {tol!r}"
    return None


def _ball_dist(x, center, radius):
    return max(float(np.linalg.norm(x - center)) - radius, 0.0)


def _unit_vector(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


class Workload:
    """One benchmark workload: ``n_units`` distinct units, visited round robin."""

    name = ""
    why = ""
    n_units = 1
    traced_units = 1  # units per traced pass; tracing multiplies unit time

    def setup(self, k: int) -> None:
        """Build the ready problem of unit ``k`` from the generated inputs."""
        raise NotImplementedError

    def call(self, k: int):
        """Run unit ``k``; the only timed step."""
        raise NotImplementedError

    def check(self, k: int, out) -> tuple[int, str | None]:
        """Return (iterations, failure reason or None) for the output of unit ``k``."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove files the workload wrote."""


class _ApiWorkload(Workload):
    """Units are ``feasibility.solve(problem)`` calls on problems built in ``setup``."""

    tol = 1e-6

    def __init__(self):
        self.problems: dict[int, feasibility.Problem] = {}

    def call(self, k):
        return feasibility.solve(self.problems[k])

    def reference_residual(self, k, x) -> float:
        raise NotImplementedError

    def check(self, k, out):
        x, trace = out
        p = self.problems[k]
        iters = trace.iterations
        if trace.status != "Converged":
            return iters, f"status {trace.status}"
        if not np.array_equal(x, trace.x_final):
            return iters, "returned point differs from trace.x_final"
        failure = residual_failure(self.reference_residual(k, x), self.tol)
        if failure:
            return iters, failure
        d0 = float(np.linalg.norm(p.x0 - p.feasible_witness))
        return iters, fejer_failure(d0, [r.dist_to_witness for r in trace.rows])


class HalfspaceCyclic(_ApiWorkload):
    """m Dist(Halfspace) constraints in R^m, Cyclic order, lambda = 1.5, x0 = 10 * 1.

    With as many dimensions as constraints, the random normals are close to
    orthogonal and an instance converges in a few sweeps: the median over a
    run's 32 instances moves by about 0.05 between seeds.  With m=200 in R^50
    one instance took 1200 to 3600 iterations and 0.5 s; with m=200 in R^200
    it took 0.25 s.  Units that long are slowed as a whole when the shared
    host is busy, and the fastest repeat then moved by 0.2 between seeds.

    No instance of seeds 0 to 54 needed more than 784 iterations.  max_iter is
    5000, not the default 100000, because validating the control walks the
    whole horizon: at 100000 that took a third of a unit.
    """

    name = "halfspace-cyclic"
    why = ("m=64 Dist(Halfspace) in R^64 under Cyclic: residual re-evaluates all m "
           "constraints after every step, so the residual loop dominates solve time")

    def __init__(self, seed, m=64, n=64, instances=32, traced=4, max_iter=5_000, fault=None):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.n = n
        self.data = []
        for _ in range(instances):
            A = rng.standard_normal((m, n))
            b = rng.uniform(1.0, 2.0, m)  # strictly feasible at 0
            self.data.append((A, b))
        self.n_units = instances
        self.traced_units = min(traced, instances)
        self.max_iter = max_iter
        self.fault = fault

    def setup(self, k):
        A, b = self.data[k]
        fs = [functions.Dist(sets.Halfspace(A[i], b[i])) for i in range(len(b))]
        if self.fault:
            fs[0] = _FAULTS[self.fault](fs[0].set)
        self.problems[k] = feasibility.Problem(
            dimension=self.n, functions=fs, x0=10.0 * np.ones(self.n),
            control=feasibility.Cyclic(), relaxation=1.5, tol=self.tol,
            max_iter=self.max_iter, feasible_witness=np.zeros(self.n))

    def reference_residual(self, k, x):
        A, b = self.data[k]
        return max(0.0, float(np.max((A @ x - b) / np.linalg.norm(A, axis=1))))


class _NaNDist(functions.Dist):
    """Broken oracle for the harness self-test: its value is NaN."""

    def value(self, x):
        return math.nan


class _FlippedDist(functions.Dist):
    """Broken oracle for the harness self-test: its subgradient has the wrong sign."""

    def subgradient(self, x, strategy=functions.LEAST_INDEX):
        return -super().subgradient(x, strategy)


_FAULTS = {"nan": _NaNDist, "sign": _FlippedDist}


class WarmStartQuasiCyclic(_ApiWorkload):
    """m halfspaces, QuasiCyclic windows m..m+4, max_iter 5000, x0 one step from feasible.

    x0 = 0 satisfies every constraint except the first, which it misses by
    1e-3; QuasiCyclic visits index 0 first (smallest window, then smallest
    index), so the solve runs exactly one iteration and its time is the
    control validation and index generation over the whole horizon.  That
    cost grows linearly with max_iter; at the default 100000 a solve took
    0.7 s, too long to repeat often within one run, so the horizon is 5000.
    """

    name = "warm-start-quasicyclic"
    why = ("x0 one projection from feasible, QuasiCyclic, max_iter=5000: time is control "
           "validation and index generation over the whole horizon, not iterations")
    tol = 1e-8

    def __init__(self, seed, m=20, n=50, max_iter=5_000):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.n, self.m, self.max_iter = n, m, max_iter
        self.A = rng.standard_normal((m, n))
        self.b = rng.uniform(1.0, 2.0, m)
        self.b[0] = -1e-3
        self.windows = [m + i % 5 for i in range(m)]
        # <a_0, w> = -2e-3 < b_0, and |<a_i, w>| stays far below b_i >= 1.
        self.witness = -2e-3 * self.A[0] / float(self.A[0] @ self.A[0])

    def setup(self, k):
        fs = [functions.Dist(sets.Halfspace(self.A[i], self.b[i])) for i in range(self.m)]
        self.problems[k] = feasibility.Problem(
            dimension=self.n, functions=fs, x0=np.zeros(self.n),
            control=feasibility.QuasiCyclic(self.windows), tol=self.tol,
            max_iter=self.max_iter, feasible_witness=self.witness)

    def reference_residual(self, k, x):
        return max(0.0, float(np.max((self.A @ x - self.b) / np.linalg.norm(self.A, axis=1))))


class MixedOracles(_ApiWorkload):
    """Seven heterogeneous constraints in R^n, an Explicit order and a relaxation schedule.

    Two of the constraints are balls tangent at a point w that every other
    constraint holds with margin, so {w} is the feasible set and each solve
    ends in the sublinear tangent-ball regime.  With a fixed order that pins
    the iteration count to the tolerance rather than to the random geometry,
    so runs on different seeds are comparable.  Each run draws ``geometries``
    constraint sets with ``starts`` seeded x0 ~ w + 5 N(0, I) each.
    """

    name = "mixed-oracles"
    why = ("7 heterogeneous oracles in R^20 (Moreau prox+audit, 64-piece AffineMax, ball "
           "pull-back) under an Explicit order: oracle evaluation dominates, control is cheap")
    tol = 1e-2
    relaxation = [1.0, 1.5, 1.2]
    # Fixed, not seeded: in the tangent regime the iteration count depends on
    # where the tangent pair (indices 4 and 6) sits in the order.
    order = [0, 5, 1, 6, 2, 3, 4]

    def __init__(self, seed, n=20, pieces=64, geometries=8, starts=2, max_iter=5000):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.n, self.max_iter, self.starts = n, max_iter, starts
        self.geoms = []
        for _ in range(geometries):
            w = rng.normal(0.0, 0.3, n)
            d = _unit_vector(rng, n)
            g = {
                "w": w,
                "c1": w + 0.3 * _unit_vector(rng, n), "r1": 0.3 + rng.uniform(0.5, 1.0),
                "lo": w - rng.uniform(0.5, 1.5, n), "hi": w + rng.uniform(0.5, 1.5, n),
                "c2": w + 0.3 * _unit_vector(rng, n), "r2": 0.3 + rng.uniform(0.5, 1.0),
                "S": rng.standard_normal((pieces, n)),
                "c3": w + d,  # unit ball touching w from one side
                "a6": rng.standard_normal(n),
                "Q": np.linalg.qr(rng.standard_normal((n, n)))[0],
                "X0": w + 5.0 * rng.standard_normal((starts, n)),
            }
            g["sb"] = -g["S"] @ w - rng.uniform(1.0, 2.0, pieces)
            g["b6"] = float(g["a6"] @ w) + rng.uniform(0.5, 1.0) * float(np.linalg.norm(g["a6"]))
            # Under 2Q the radius-2 ball becomes the unit ball centred at w - d,
            # which touches w from the other side.
            g["c4"] = 2.0 * g["Q"] @ (w - d)
            self.geoms.append(g)
        self.n_units = geometries * starts
        self.traced_units = self.n_units

    def setup(self, k):
        g = self.geoms[k // self.starts]
        Ball, F = sets.Ball, functions
        fs = [
            MoreauEnv(1.0, F.Indicator(Ball(g["c1"], g["r1"]))),
            F.Dist(sets.Box(g["lo"], g["hi"])),
            F.SqDist(Ball(g["c2"], g["r2"])),
            F.AffineMax(list(zip(g["S"], g["sb"]))),
            F.Scale(2.0, F.Dist(Ball(g["c3"], 1.0))),
            F.PowerComp(0.5, F.Dist(sets.Halfspace(g["a6"], g["b6"]))),
            F.RightLinear(2.0 * g["Q"], F.Dist(Ball(g["c4"], 2.0))),
        ]
        self.problems[k] = feasibility.Problem(
            dimension=self.n, functions=fs, x0=g["X0"][k % self.starts],
            control=feasibility.Explicit(self.order), relaxation=self.relaxation,
            tol=self.tol, max_iter=self.max_iter, feasible_witness=g["w"])

    def reference_residual(self, k, x):
        g = self.geoms[k // self.starts]
        a6 = g["a6"]
        values = [
            _ball_dist(x, g["c1"], g["r1"]) ** 2 / 2.0,
            float(np.linalg.norm(x - np.clip(x, g["lo"], g["hi"]))),
            _ball_dist(x, g["c2"], g["r2"]) ** 2,
            float(np.max(g["S"] @ x + g["sb"])),
            2.0 * _ball_dist(x, g["c3"], 1.0),
            (max(float(a6 @ x) - g["b6"], 0.0) / float(np.linalg.norm(a6))) ** 2,
            _ball_dist(2.0 * g["Q"] @ x, g["c4"], 2.0),
        ]
        return max(0.0, max(values))


class CliTangentTrace(Workload):
    """``subproj solve --file F --trace T`` in-process on two tangent unit balls in R^2.

    The seed places the tangent point w, the axis d and x0; the iteration
    count (about 500 at tol 1e-3) depends only on the tolerance, because the
    convergence is sublinear.  Every unit solves the same file, so every trace
    must have the bytes of the first.
    """

    name = "cli-tangent-trace"
    why = ("subproj solve --trace in-process on two tangent balls: cheap m=2 iterations, so "
           "per-call overhead, serialize and write_trace dominate")

    def __init__(self, seed, workdir: Path, tol=1e-3):
        rng = np.random.default_rng(seed)
        self.w = rng.uniform(-1.0, 1.0, 2)
        d = _unit_vector(rng, 2)
        self.centers = [self.w + d, self.w - d]
        # x0 lies 3 from w at 45..135 degrees off the axis d: on the axis, a
        # single projection lands on w and the solve ends after one step.
        angle = rng.uniform(0.25 * np.pi, 0.75 * np.pi)
        normal = np.array([-d[1], d[0]])
        self.x0 = self.w + 3.0 * (np.cos(angle) * d + np.sin(angle) * normal)
        self.tol = tol
        self.file = workdir / "tangent.json"
        self.trace = workdir / "tangent-trace.csv"
        record = {
            "dimension": 2,
            "functions": [{"type": "dist", "set": {"type": "ball", "center": c.tolist(),
                                                   "radius": 1.0}} for c in self.centers],
            "control": {"type": "cyclic"},
            "relaxation": 1.0,
            "epsilon": 0.05,
            "x0": self.x0.tolist(),
            "tol": tol,
            # Four times the iterations needed.  Validating the control walks
            # the whole max_iter horizon, which at 100000 took more than half
            # of a unit and hid the per-iteration cost this workload measures.
            "max_iter": 2_000,
            "feasible_witness": self.w.tolist(),
        }
        self.file.write_text(json.dumps(record), encoding="utf-8")
        self.trace_digest = None

    def setup(self, k):
        cli.load_problem(str(self.file))

    def call(self, k):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["solve", "--file", str(self.file), "--trace", str(self.trace)])
        return code, out.getvalue()

    def check(self, k, out):
        code, text = out
        fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        iters = int(fields.get("iterations", "0"))
        if code != 0:
            return iters, f"exit code {code}"
        if fields.get("status") != "Converged":
            return iters, f"status {fields.get('status')}"
        x = np.array(json.loads(fields["x_final"]), dtype=float)
        res = max(_ball_dist(x, c, 1.0) for c in self.centers)
        failure = residual_failure(res, self.tol)
        if failure:
            return iters, failure
        raw = self.trace.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if self.trace_digest is None:
            self.trace_digest = digest
        elif digest != self.trace_digest:
            return iters, "trace bytes differ between two runs of one file"
        lines = raw.decode("utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        if len(rows) != iters or not lines[-1].startswith("# status=Converged"):
            return iters, "trace rows or summary disagree with the printed result"
        d0 = float(np.linalg.norm(self.x0 - self.w))
        return iters, fejer_failure(d0, [float(r[5]) for r in rows])

    def close(self):
        for path in (self.file, self.trace):
            path.unlink(missing_ok=True)


def make(name: str, seed: int, workdir: Path, tiny: bool = False, fault: str | None = None) -> Workload:
    """Build a workload; ``tiny`` shrinks it for the harness self-test."""
    if name == HalfspaceCyclic.name:
        if tiny:
            return HalfspaceCyclic(seed, m=6, n=3, instances=2, traced=2, max_iter=500, fault=fault)
        return HalfspaceCyclic(seed, fault=fault)
    if name == MixedOracles.name:
        return MixedOracles(seed, n=3, pieces=4, geometries=1, starts=2) if tiny else MixedOracles(seed)
    if name == CliTangentTrace.name:
        return CliTangentTrace(seed, workdir, tol=1e-2 if tiny else 1e-3)
    if name == WarmStartQuasiCyclic.name:
        return WarmStartQuasiCyclic(seed, m=3, n=3, max_iter=100) if tiny else WarmStartQuasiCyclic(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = [HalfspaceCyclic.name, MixedOracles.name, CliTangentTrace.name, WarmStartQuasiCyclic.name]
