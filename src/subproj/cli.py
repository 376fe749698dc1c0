"""Command-line entry point.

Usage
-----
    subproj project --file problem.json [--point 0.5] [--strategy least-index]
    subproj solve   --file problem.json [--trace trace.csv]
    subproj analyze {jacobian|lipschitz|monotone|seqlab|distbound}
                    --file problem.json --point ... [--seed 0] [options]

Exit codes: 0 success (solve: converged), 1 iteration budget exhausted,
2 schema error in the problem file, 3 numeric error (the message names the
error variant).  Randomized diagnostics are reproducible through --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import analysis
from .core import as_vector, fd_jacobian, norm
from .errors import EmptySample, SchemaError, SubprojError
from .feasibility import Problem, SolveTrace, solve
from .functions import EndpointK, LEAST_INDEX, CENTROID, SelectionStrategy
from .projector import sproj
from .serialize import parse_problem_file, problem_from_record

FMT = "{:.17g}"  # trace numbers carry 17 significant digits

# analyze lipschitz gives up after this many random draws per requested sample.
DRAWS_PER_SAMPLE = 100


def _fmt(v: float) -> str:
    return FMT.format(float(v))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def parse_strategy(name: str) -> SelectionStrategy:
    if name == "least-index":
        return LEAST_INDEX
    if name == "centroid":
        return CENTROID
    if name.startswith("endpoint:"):
        try:
            return EndpointK(int(name.split(":", 1)[1]))
        except ValueError:
            raise SchemaError(f"bad strategy {name!r}") from None
    raise SchemaError(f"unknown strategy {name!r}")


def load_problem(path: str) -> Problem:
    """Parse a file into a solver-ready Problem (schema and invariants checked)."""
    return problem_from_record(_load_json(path))


def load_parts(path: str) -> dict:
    """Parse a file for projection/analysis: schema only, no solver invariants."""
    return parse_problem_file(_load_json(path))


def write_trace(path: str, trace: SolveTrace) -> None:
    """CSV trace: header, one row per iteration, then one summary comment row."""
    with_witness = any(r.dist_to_witness is not None for r in trace.rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["n", "index", "lambda", "residual", "step_norm"]
        if with_witness:
            header.append("dist_to_witness")
        writer.writerow(header)
        for r in trace.rows:
            row = [str(r.n), str(r.index), _fmt(r.lam), _fmt(r.residual), _fmt(r.step_norm)]
            if with_witness:
                row.append(_fmt(r.dist_to_witness))
            writer.writerow(row)
        fh.write(f"# status={trace.status} iterations={trace.iterations}"
                 f" residual={_fmt(trace.final_residual) if trace.rows else 'NA'}"
                 f" assumes={trace.assumption}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_project(args) -> int:
    parts = load_parts(args.file)
    if len(parts["functions"]) != 1:
        raise SchemaError("project needs a problem file with exactly one function")
    f = parts["functions"][0]
    point = as_vector(args.point if args.point is not None else parts["x0"], dim=f.dim)
    out = sproj(f, point, parse_strategy(args.strategy))
    print(f"point: {_vec_str(out.point)}")
    print(f"status: {out.status.value}")
    print(f"f_value: {_fmt(out.f_value)}")
    if out.subgradient_used is not None:
        print(f"subgradient: {_vec_str(out.subgradient_used)}")
    else:
        print("subgradient: none (fixed point)")
    return 0


def cmd_solve(args) -> int:
    problem = load_problem(args.file)
    x, trace = solve(problem)
    if args.trace:
        write_trace(args.trace, trace)
    print(f"status: {trace.status}")
    print(f"iterations: {trace.iterations}")
    print(f"residual: {_fmt(trace.final_residual) if trace.rows else _fmt(0.0)}")
    print(f"x_final: {_vec_str(x)}")
    return 0 if trace.status == "Converged" else 1


def cmd_analyze(args) -> int:
    parts = load_parts(args.file)
    f = parts["functions"][0]
    strategy = parse_strategy(args.strategy)
    point = as_vector(args.point if args.point is not None else parts["x0"], dim=f.dim)
    rng = np.random.default_rng(args.seed)

    if args.what == "jacobian":
        jac = analysis.sproj_jacobian(f, point)
        fd = fd_jacobian(lambda z: sproj(f, z, strategy).point, point)
        dev = np.abs(jac - fd)
        print("row  entries...  | max_fd_deviation")
        for i in range(jac.shape[0]):
            entries = "  ".join(_fmt(v) for v in jac[i])
            print(f"{i}  {entries}  | {_fmt(float(np.max(dev[i])))}")
        return 0

    if args.what == "lipschitz":
        samples = []
        draws = DRAWS_PER_SAMPLE * args.count
        for _ in range(draws):
            if len(samples) >= args.count:
                break
            cand = point + rng.standard_normal(f.dim)
            if 0.0 < f.value(cand) < np.inf:
                samples.append(cand)
        if len(samples) < args.count:
            raise EmptySample(f"{len(samples)} of {draws} draws around the point"
                              f" have 0 < f(x) < +inf; {args.count} are needed")
        bound = analysis.lipschitz_bound(f, samples, args.beta)
        quotients = []
        for _ in range(args.count):
            a, b = samples[rng.integers(len(samples))], samples[rng.integers(len(samples))]
            if np.array_equal(a, b):
                continue
            ga = sproj(f, a, strategy).point
            gb = sproj(f, b, strategy).point
            quotients.append(norm(ga - gb) / norm(a - b))
        print(f"bound: {_fmt(bound)}")
        print(f"max_sampled_quotient: {_fmt(max(quotients) if quotients else 0.0)}")
        return 0

    if args.what == "monotone":
        pairs = [(point + rng.standard_normal(f.dim), point + rng.standard_normal(f.dim))
                 for _ in range(args.pairs)]
        report = analysis.monotonicity_probe(f, pairs, strategy)
        print(f"pairs: {report.pairs} (both_positive: {report.positive_pairs})")
        print(f"worst_inner: {_fmt(report.worst_inner)}")
        print(f"worst_margin: {_fmt(report.worst_margin)}")
        return 0

    if args.what == "seqlab":
        from .functions import Scale
        report = analysis.seq_lab(lambda n: Scale(1.0 + 1.0 / n, f), f, point,
                                  n_steps=args.horizon, strategy=strategy)
        print(f"verdict: {report.verdict.value}")
        print(f"tail_deviation: {_fmt(report.tail_deviation)}")
        print(f"gap_floor: {_fmt(report.gap_floor)}")
        return 0

    if args.what == "distbound":
        lhs, rhs = analysis.dist_bound_check(f, point, strategy)
        ok = lhs <= rhs + 1e-9
        print(f"lhs: {_fmt(lhs)}")
        print(f"rhs: {_fmt(rhs)}")
        print(f"verdict: {'OK' if ok else 'VIOLATION'}")
        return 0

    raise SchemaError(f"unknown analyze subcommand {args.what!r}")


def _vec_str(v: np.ndarray) -> str:
    return "[" + ", ".join(_fmt(t) for t in v) + "]"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subproj",
        description="Subgradient projections, convex feasibility, and operator diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--file", required=True, help="problem file (JSON)")
        p.add_argument("--strategy", default="least-index",
                       help="subgradient selection: least-index, centroid, endpoint:K")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized diagnostics (default 0)")

    p_project = sub.add_parser("project", help="apply the projector at one point")
    common(p_project)
    p_project.add_argument("--point", type=float, nargs="+", default=None,
                           help="evaluation point (defaults to x0)")

    p_solve = sub.add_parser("solve", help="run the feasibility iteration")
    common(p_solve)
    p_solve.add_argument("--trace", default=None, help="write a CSV iteration trace here")

    p_analyze = sub.add_parser("analyze", help="operator diagnostics")
    p_analyze.add_argument("what", choices=["jacobian", "lipschitz", "monotone",
                                            "seqlab", "distbound"])
    common(p_analyze)
    p_analyze.add_argument("--point", type=float, nargs="+", default=None)
    p_analyze.add_argument("--beta", type=float, default=1.0,
                           help="asserted Lipschitz constant of the gradient")
    p_analyze.add_argument("--count", type=int, default=50, help="sample size")
    p_analyze.add_argument("--pairs", type=int, default=100, help="monotonicity pairs")
    p_analyze.add_argument("--horizon", type=int, default=1000, help="seqlab horizon")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "project":
            return cmd_project(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        parser.error(f"unknown command {args.command!r}")
    except SchemaError as exc:
        print(f"error: SchemaError: {exc}", file=sys.stderr)
        return 2
    except SubprojError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
