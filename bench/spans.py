"""Span tracing of subproj's public functions, installed from outside the library.

``Tracer.install`` replaces each traced function or method with a wrapper that
times the call, and ``uninstall`` puts the originals back.  Modules bind
helpers with ``from .core import as_vector``, so a module-level function is
patched in every subproj module that holds it, not only where it is defined;
otherwise its calls would silently go uncounted.

Per traced name the tracer keeps the call count, inclusive time and self time
(inclusive time minus the time of child spans).  The first ``span_cap`` spans
are also kept in memory as (id, parent id, name, start ns, end ns, unit) and
written out by ``write``.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

ATOMS = ["Dist", "SqDist", "AffineMax", "Scale", "PowerComp", "RightLinear", "Indicator"]
SET_CLASSES = ["Ball", "Halfspace", "Box", "Point"]
CONTROL_CLASSES = ["Cyclic", "QuasiCyclic", "Explicit"]

# (module, function) pairs traced under the name "<module>.<function>".
FUNCTIONS = [
    ("core", "as_vector"), ("core", "norm"),
    ("projector", "sproj"), ("projector", "halfspace_project"),
    ("feasibility", "residual"), ("feasibility", "solve"), ("feasibility", "validate_control"),
    ("prox", "prox"),
    ("serialize", "problem_from_record"),
    ("cli", "load_problem"), ("cli", "write_trace"), ("cli", "main"),
]


def _methods():
    """(module, class, method, traced name) for every traced method."""
    out = [("functions", a, m, f"functions.{a}.{m}") for a in ATOMS for m in ("value", "subgradient")]
    out += [("sets", c, m, f"sets.{m}") for c in SET_CLASSES for m in ("distance", "project")]
    out += [("feasibility", c, "indices", "feasibility.control.indices") for c in CONTROL_CLASSES]
    out += [("feasibility", "Problem", "__init__", "feasibility.Problem.init"),
            ("feasibility", "Problem", "relaxation_schedule", "feasibility.relaxation_schedule"),
            ("prox", "MoreauEnv", "value", "prox.MoreauEnv.value"),
            ("prox", "MoreauEnv", "subgradient", "prox.MoreauEnv.subgradient")]
    return out


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, inclusive ns, self ns]
        self.counts: dict[str, int] = defaultdict(int)
        self.unit = 0
        self.span_cap = span_cap
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.spans_dropped = 0
        self._names: list[str] = []
        self._stack: list[list[int]] = []  # per open span: [child ns, span id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object, bool, object]] = []

    def _wrap(self, name, fn, after=None):
        st = self.stats.setdefault(name, [0, 0, 0])
        name_id = len(self._names)
        self._names.append(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if len(spans) < self.span_cap:
                    spans.append((sid, parent, name_id, t0, t1, self.unit))
                else:
                    self.spans_dropped += 1
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def _count_sproj(self, out, args):
        self.counts[f"projector.sproj.{out.status.value}"] += 1

    def _count_trace(self, out, args):
        path, trace = args
        self.counts["cli.write_trace.rows"] += trace.iterations
        self.counts["cli.write_trace.bytes"] += os.path.getsize(path)

    def install(self) -> None:
        """Wrap every traced function and method of the loaded subproj package."""
        if not self._patches:
            self._plan()
        for owner, attr, _original, _own, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, own, _wrapper in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _plan(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "subproj" or name.startswith("subproj."))}
        after = {"projector.sproj": self._count_sproj, "cli.write_trace": self._count_trace}
        for modname, attr in FUNCTIONS:
            name = f"{modname}.{attr}"
            original = getattr(mods[f"subproj.{modname}"], attr)
            wrapper = self._wrap(name, original, after.get(name))
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original, True, wrapper))
        for modname, clsname, attr, name in _methods():
            cls = getattr(mods[f"subproj.{modname}"], clsname)
            original = getattr(cls, attr)
            self._patches.append((cls, attr, original, attr in vars(cls),
                                  self._wrap(name, original)))

    def inclusive_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[1]

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[2]

    def snapshot(self) -> tuple[dict, dict]:
        return ({k: list(v) for k, v in self.stats.items()}, dict(self.counts))

    def write(self, path) -> None:
        """Write the kept spans as CSV: id,parent,name,start_ns,end_ns,unit."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns,unit\n")
            for sid, parent, name_id, t0, t1, unit in self.spans:
                fh.write(f"{sid},{parent},{self._names[name_id]},{t0},{t1},{unit}\n")
            fh.write(f"# kept={len(self.spans)} dropped={self.spans_dropped}\n")
