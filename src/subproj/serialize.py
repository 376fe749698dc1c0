"""JSON-shaped records for sets, functions, and problem files.

Only descriptions without user callables are serializable: the catalog atoms
plus Scale, PowerComp, RightLinear, and MoreauEnv.  Parsing is strict: unknown
keys are rejected before any numerics run, and every number must be finite.

``TAGS`` maps each tag to its class and the ordered fields its constructor
takes; one generic reader and one generic writer walk it, so a new tag is one
table entry.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import SchemaError, SubprojError
from .feasibility import Cyclic, Explicit, Problem, QuasiCyclic
from .functions import (
    AffineMax,
    Dist,
    Hyperbolic,
    Indicator,
    Linear,
    NegLog,
    NormPow,
    PowerComp,
    Scale,
    SqDist,
    SqrtShift,
    RightLinear,
)
from .prox import MoreauEnv
from .sets import Ball, Box, Halfspace, Point

REQUIRED = object()  # default of a field that must be present
_MAX_FLOAT = sys.float_info.max


class Field(NamedTuple):
    """One JSON key of a record and the object attribute it describes."""

    key: str
    attr: str
    parse: Callable[[Any, str, str], Any]  # (JSON value, where, key) -> constructor argument
    write: Callable[[Any], Any]  # attribute value -> JSON value
    default: Any = REQUIRED  # used when the key is absent; a None value is not written


class Shape:
    """The ordered fields of one kind of record, and the keys it must and may have."""

    def __init__(self, *fields: Field, tagged: bool = True):
        self.fields = fields
        self.required = {f.key for f in fields if f.default is REQUIRED} | (
            {"type"} if tagged else set())
        self.allowed = self.required | {f.key for f in fields}

    def parse(self, record: Any, where: str) -> list:
        """Check the record's keys, then parse its fields in order."""
        if not isinstance(record, dict):
            raise SchemaError(f"{where}: expected an object, got {type(record).__name__}")
        if not self.required <= record.keys() <= self.allowed:
            missing = self.required - record.keys()
            if missing:
                raise SchemaError(f"{where}: missing keys {sorted(missing)}")
            raise SchemaError(f"{where}: unknown keys {sorted(record.keys() - self.allowed)}")
        return [f.parse(record[f.key], where, f.key) if f.key in record else f.default
                for f in self.fields]

    def write(self, obj: Any, record: dict) -> dict:
        for f in self.fields:
            value = getattr(obj, f.attr)
            if value is not None:
                record[f.key] = f.write(value)
        return record


# ---------------------------------------------------------------------------
# field parsers: (JSON value, where, key) -> Python value; errors name where.key
# ---------------------------------------------------------------------------

def _is_number(v: Any) -> bool:
    """A finite JSON number (booleans are not numbers)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and -_MAX_FLOAT <= v <= _MAX_FLOAT


def _number(v: Any, where: str, key: str) -> float:
    if not _is_number(v):
        raise SchemaError(f"{where}.{key}: expected a number")
    return float(v)


def _positive_int(v: Any, where: str, key: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise SchemaError(f"{where}.{key}: expected a positive integer")
    return v


def _vector(v: Any, where: str, key: str) -> list[float]:
    if not isinstance(v, list) or not v or not all(map(_is_number, v)):
        raise SchemaError(f"{where}.{key}: expected a nonempty list of numbers")
    return [float(t) for t in v]


def _int_list(v: Any, where: str, key: str) -> list[int]:
    if not isinstance(v, list) or not v or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in v):
        raise SchemaError(f"{where}.{key}: expected a nonempty list of integers")
    return [int(t) for t in v]


def _matrix(v: Any, where: str, key: str) -> np.ndarray:
    if not isinstance(v, list) or not all(
            isinstance(r, list) and all(map(_is_number, r)) for r in v):
        raise SchemaError(f"{where}.{key}: expected a list of rows")
    return np.array(v, dtype=float)


def _relaxation(v: Any, where: str, key: str) -> float | list[float]:
    if isinstance(v, list):
        return _vector(v, where, key)
    if not _is_number(v):
        raise SchemaError(f"{where}.{key}: expected a number or list of numbers")
    return float(v)


def _nested(parse_record: Callable[[Any, str], Any]) -> Callable[[Any, str, str], Any]:
    """A field holding one record, parsed by ``parse_record(record, where)``."""
    return lambda v, where, key: parse_record(v, f"{where}.{key}")


def _nonempty_list(parse_record: Callable[[Any, str], Any]) -> Callable[[Any, str, str], list]:
    """A field holding a nonempty list of records."""
    def parse(v: Any, where: str, key: str) -> list:
        if not isinstance(v, list) or not v:
            raise SchemaError(f"{where}.{key}: expected a nonempty list")
        return [parse_record(item, f"{where}.{key}[{i}]") for i, item in enumerate(v)]
    return parse


# ---------------------------------------------------------------------------
# the generic reader and writer, and their public entry points
# ---------------------------------------------------------------------------

def _from_record(kind: str, record: Any, where: str | None = None) -> Any:
    where = where or kind
    if not isinstance(record, dict) or "type" not in record:
        raise SchemaError(f"{where}: expected an object with a 'type' tag")
    tag = record["type"]
    entry = TAGS[kind].get(tag) if isinstance(tag, str) else None
    if entry is None:
        raise SchemaError(f"{where}: unknown {kind} type {tag!r}")
    cls, shape = entry
    try:
        return cls(*shape.parse(record, where))
    except SchemaError:
        raise
    except (ValueError, SubprojError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _to_record(kind: str, obj: Any) -> dict:
    # The exact class: a subclass may override an oracle, so its base's tag would
    # describe another function.
    entry = _WRITERS[kind].get(type(obj))
    if entry is None:
        raise SchemaError(f"unserializable {kind} {type(obj).__name__}")
    tag, shape = entry
    return shape.write(obj, {"type": tag})


# (record, where=kind) -> ConvexSet / FunctionSpec / ControlSequence, and back
set_from_record = partial(_from_record, "set")
set_to_record = partial(_to_record, "set")
function_from_record = partial(_from_record, "function")
function_to_record = partial(_to_record, "function")
control_from_record = partial(_from_record, "control")
control_to_record = partial(_to_record, "control")


# ---------------------------------------------------------------------------
# the tag table
# ---------------------------------------------------------------------------

def _same(v: Any) -> Any:
    return v


def _num(key: str, attr: str | None = None) -> Field:
    return Field(key, attr or key, _number, _same)


def _vec(key: str, default: Any = REQUIRED) -> Field:
    return Field(key, key, _vector, np.ndarray.tolist, default)


def _ints(key: str, attr: str, default: Any = REQUIRED) -> Field:
    return Field(key, attr, _int_list, list, default)


SET = Field("set", "set", _nested(set_from_record), set_to_record)
INNER = Field("inner", "inner", _nested(function_from_record), function_to_record)
PIECE = Shape(_vec("a"), _num("b"), tagged=False)

TAGS: dict[str, dict[str, tuple[type, Shape]]] = {
    "set": {
        "ball": (Ball, Shape(_vec("center"), _num("radius"))),
        "halfspace": (Halfspace, Shape(_vec("normal"), _num("offset"))),
        "box": (Box, Shape(_vec("lo"), _vec("hi"))),
        "point": (Point, Shape(_vec("c"))),
    },
    "function": {
        "linear": (Linear, Shape(_vec("u"))),
        "dist": (Dist, Shape(SET)),
        "sqdist": (SqDist, Shape(SET)),
        "normpow": (NormPow, Shape(_num("p"), Field("dim", "dim", _positive_int, _same, 1))),
        "neglog": (NegLog, Shape()),
        "sqrtshift": (SqrtShift, Shape(_num("eta"))),
        "hyperbolic": (Hyperbolic, Shape(_num("eta"))),
        "affinemax": (AffineMax, Shape(Field(
            "pieces", "pieces", _nonempty_list(PIECE.parse),
            lambda pieces: [{"a": a.tolist(), "b": b} for a, b in pieces]))),
        "indicator": (Indicator, Shape(SET)),
        "scale": (Scale, Shape(_num("factor", "lam"), INNER)),
        "power": (PowerComp, Shape(_num("alpha"), INNER)),
        "rightlinear": (RightLinear, Shape(Field("matrix", "L", _matrix, np.ndarray.tolist), INNER)),
        "moreau": (MoreauEnv, Shape(_num("gamma"), INNER)),
    },
    "control": {
        "cyclic": (Cyclic, Shape()),
        "quasicyclic": (QuasiCyclic, Shape(_ints("windows", "window_bounds"))),
        "explicit": (Explicit, Shape(_ints("indices", "index_list"),
                                     _ints("windows", "window_bounds", None))),
    },
}

_WRITERS = {kind: {cls: (tag, shape) for tag, (cls, shape) in table.items()}
            for kind, table in TAGS.items()}


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

PROBLEM = Shape(
    Field("dimension", "dimension", _positive_int, _same),
    Field("functions", "functions", _nonempty_list(function_from_record),
          lambda fs: [function_to_record(f) for f in fs]),
    Field("control", "control", _nested(control_from_record), control_to_record),
    Field("relaxation", "relaxation", _relaxation,
          lambda r: r if isinstance(r, float) else list(r)),
    _num("epsilon"),
    _vec("x0"),
    _num("tol"),
    Field("max_iter", "max_iter", _positive_int, _same),
    _vec("feasible_witness", None),
    tagged=False,
)


def problem_to_record(p: Problem) -> dict:
    return PROBLEM.write(p, {})


def parse_problem_file(record: Any) -> dict:
    """Schema-validate a problem record and instantiate its parts.

    Returns a plain dict of constructor-ready fields.  Solver-specific
    invariants (full domains, relaxation range) are enforced when a Problem
    is built from the parts, not here, so projection and analysis commands
    can run on files whose functions have restricted domains.
    """
    values = PROBLEM.parse(record, "problem")
    return {f.attr: v for f, v in zip(PROBLEM.fields, values)}


def problem_from_record(record: Any) -> Problem:
    """Parse a record into a solver-ready Problem; every failure is a SchemaError."""
    parts = parse_problem_file(record)
    try:
        return Problem(**parts)
    except SubprojError as exc:
        raise SchemaError(f"problem: {exc}") from exc
