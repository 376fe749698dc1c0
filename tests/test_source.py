"""Rules on the package source that no behaviour test can observe."""

import ast
from pathlib import Path

import pytest

import subproj

PACKAGE = Path(subproj.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one silently vanishes.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_gradient_is_defined_only_on_the_base_class():
    # A gradient is the subgradient under the rule that refuses to choose at a
    # kink; an override would be a second oracle that can drift from the first.
    found = [f"{path.name}:{item.lineno} {cls.name}.gradient"
             for path in sorted(PACKAGE.glob("*.py"))
             for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(cls, ast.ClassDef) and cls.name != "FunctionSpec"
             for item in cls.body
             if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "gradient"]
    assert found == []


def _self_products(tree):
    """Nodes forming x.x: np.dot(v, v), np.vdot(v, v), v.dot(v) or v @ v."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            pair = [node.left, node.right]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("dot", "vdot")):
            pair = node.args if len(node.args) == 2 else [node.func.value, *node.args]
        else:
            continue
        if len(pair) == 2 and ast.dump(pair[0]) == ast.dump(pair[1]):
            yield node


def _dot_calls(tree):
    """Calls of np.dot or of an array's .dot method; 1-D inner products use np.vdot."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dot"):
            yield node


def _eps_norm_uses(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == "EPS_NORM"
                or isinstance(node, ast.Attribute) and node.attr == "EPS_NORM"
                or isinstance(node, ast.alias) and node.name == "EPS_NORM"):
            yield node


@pytest.mark.parametrize("source", ["np.dot(v, v)", "np.vdot(v, v)", "v.dot(v)", "v @ v",
                                    "np.dot(u.w, u.w)"])
def test_self_product_rule_sees_every_spelling(source):
    assert len(list(_self_products(ast.parse(source)))) == 1


def test_squared_lengths_and_the_zero_length_test_live_in_core():
    # core.norm2 is the one squared-length formula and core.nonzero_norm2 the one
    # test against EPS_NORM; a second copy can drift from them.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno} self-product" for node in _self_products(tree)]
        if path.name != "__init__.py":  # the package re-exports the constant
            found += [f"{path.name}:{node.lineno} EPS_NORM" for node in _eps_norm_uses(tree)]
    assert found == []


@pytest.mark.parametrize("source, found", [
    ("np.dot(x, u)", 1), ("numpy.dot(a, b)", 1), ("x.dot(u)", 1), ("float(np.dot(x, u)) - b", 1),
    ("np.vdot(x, u)", 0), ("A @ x", 0), ("dot(x, u)", 0),
])
def test_dot_rule_sees_every_dot_call(source, found):
    assert len(list(_dot_calls(ast.parse(source)))) == found


def test_inner_products_use_vdot():
    # np.dot warns "overflow encountered in dot" where np.vdot returns the same
    # +-inf silently, and both give the same bits on 1-D operands; matrix
    # products are written with @.
    found = [f"{path.name}:{node.lineno} {ast.unparse(node.func)}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in _dot_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def _rng_constructions(tree):
    """Calls of default_rng, however numpy is imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr == "default_rng"
                or isinstance(node.func, ast.Name) and node.func.id == "default_rng"):
            yield node


@pytest.mark.parametrize("source, found", [
    ("np.random.default_rng(1)", 1), ("default_rng(seed)", 1), ("rng.standard_normal(3)", 0),
])
def test_rng_rule_sees_every_spelling(source, found):
    assert len(list(_rng_constructions(ast.parse(source)))) == found


def test_only_the_audit_and_the_cli_seed_draw_random_numbers():
    # The minimizer audit in core draws its probes from fixed seeds and the CLI
    # seeds its sampled diagnostics from --seed; a generator anywhere else would
    # make a result depend on hidden randomness.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name not in ("core.py", "cli.py")
             for node in _rng_constructions(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def _names(tree):
    """Every name a module mentions: bare names, attributes and imported aliases."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


@pytest.mark.parametrize("source, found", [
    ("Dist(s)", {"Dist"}), ("functions.Halfspace", {"Halfspace"}),
    ("from .functions import Linear", {"Linear"}), ("f.affine_row()", set()),
])
def test_atom_rule_sees_every_spelling(source, found):
    assert {"Dist", "Halfspace", "Linear", "AffineMax"} & set(_names(ast.parse(source))) == found


def test_the_solver_finds_affine_rows_only_through_the_spec():
    # The affine block asks each constraint for its row (FunctionSpec.affine_row);
    # naming an atom in the solver would be a second, type-based dispatch.
    tree = ast.parse((PACKAGE / "feasibility.py").read_text(encoding="utf-8"))
    assert {"Dist", "Halfspace", "Linear", "AffineMax"} & set(_names(tree)) == set()


def _screen_decisions(tree):
    """Calls of a ``.bounds(`` method and mentions of ``screen_row``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "bounds"
                or isinstance(node, ast.Name) and node.id == "screen_row"
                or isinstance(node, ast.Attribute) and node.attr == "screen_row"
                or isinstance(node, ast.alias) and node.name == "screen_row"):
            yield node


@pytest.mark.parametrize("source, found", [
    ("self.rows.bounds(x)", 1), ("AffineRows(r, c).bounds(x)", 1), ("bounds = rows.screen(x)", 0),
    ("from .core import screen_row", 1), ("core.screen_row(r, c)", 1), ("screen_row(r, c)", 1),
])
def test_screen_rule_sees_every_spelling(source, found):
    assert len(list(_screen_decisions(ast.parse(source)))) == found


def test_the_affine_screen_decides_only_in_core():
    # core.AffineRows holds the screen's range and contender rules; a caller that
    # read the raw bounds, or checked a row itself, would be a second copy of them.
    found = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"
             for node in _screen_decisions(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def _stream_calls(tree):
    """``(scopes, call)`` for each call of a name or method ``_stream``, where scopes
    are the class and function definitions that enclose the call, outermost first."""
    def visit(node, scopes):
        for child in ast.iter_child_nodes(node):
            inner = scopes
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scopes + [child]
            elif isinstance(child, ast.Call) and (
                    isinstance(child.func, ast.Attribute) and child.func.attr == "_stream"
                    or isinstance(child.func, ast.Name) and child.func.id == "_stream"):
                yield scopes, child
            yield from visit(child, inner)

    yield from visit(tree, [])


def _stray_stream_calls(tree):
    """Where a call of ``_stream`` is not in validate_control, solve or a control class."""
    controls = {"ControlSequence"}
    for node in tree.body:  # a control class names ControlSequence or a control as a base
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in controls for b in node.bases):
            controls.add(node.name)
    for scopes, call in _stream_calls(tree):
        top = scopes[0] if scopes else None
        if not (isinstance(top, ast.FunctionDef) and top.name in ("validate_control", "solve")
                or isinstance(top, ast.ClassDef) and top.name in controls):
            yield ".".join(s.name for s in scopes) or "<module>", call.lineno


@pytest.mark.parametrize("source, found", [
    ("def f(c, m):\n    return c._stream(m)", ["f"]),
    ("def f(p, m):\n    for i in p.control._stream(m):\n        pass", ["f"]),
    ("def f(m):\n    return list(_stream(m))", ["f"]),
    ("class Walker:\n    def walk(self, c):\n        return [i for i in c._stream(2)]", ["Walker.walk"]),
    ("first = next(c._stream(2))", ["<module>"]),
    ("def solve(p):\n    return zip(range(9), p.control._stream(2))", []),
    ("def validate_control(c, m, h):\n    return c._stream(m)", []),
    ("class Q(ControlSequence):\n    def indices(self, m, h):\n        return self._stream(m)", []),
    ("class Q(ControlSequence):\n    pass\nclass R(Q):\n    def f(self):\n        return self._stream(1)",
     []),
    ("def f(c):\n    return c._schedule(2, [1, 1])", []),
])
def test_stream_rule_sees_every_spelling(source, found):
    assert [where for where, _line in _stray_stream_calls(ast.parse(source))] == found


def test_one_walker_reads_the_control_stream():
    # validate_control walks a stream once (and stops early only where the
    # control's period says it may), solve walks a fresh one as far as it runs,
    # and ControlSequence.indices is a view of it.  Any other walk would be a
    # second code path that can drift from the checked one.
    found = [f"{path.name}:{line} {where}"
             for path in sorted(PACKAGE.glob("*.py"))
             for where, line in _stray_stream_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
