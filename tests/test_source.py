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
    """Nodes forming x.x: np.dot(v, v), np.vdot(v, v), v.dot(v), v @ v, or the kernel's
    dot(v, v) and core.dot(v, v)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            pair = [node.left, node.right]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("dot", "vdot")):
            pair = node.args if len(node.args) == 2 else [node.func.value, *node.args]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "dot"):
            pair = node.args
        else:
            continue
        if len(pair) == 2 and ast.dump(pair[0]) == ast.dump(pair[1]):
            yield node


def _dot_calls(tree):
    """Calls of np.dot or of an array's .dot method; 1-D inner products use core.dot."""
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
                                    "np.dot(u.w, u.w)", "dot(v, v)", "core.dot(v, v)"])
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
    # np.dot and ndarray.dot warn "overflow encountered in dot" where np.vdot returns
    # the same +-inf silently, and all give the same bits on 1-D operands; every inner
    # product is core.dot, called by its bare name, and matrix products are written with @.
    found = [f"{path.name}:{node.lineno} {ast.unparse(node.func)}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in _dot_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def _vdot_uses(tree):
    """Mentions of numpy's vdot: np.vdot, numpy.vdot and from numpy import vdot."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "vdot"
                or isinstance(node, ast.ImportFrom) and node.module == "numpy"
                and any(alias.name == "vdot" for alias in node.names)):
            yield node


@pytest.mark.parametrize("source, found", [
    ("np.vdot(x, u)", 1), ("numpy.vdot(a, b)", 1), ("from numpy import vdot", 1),
    ("from numpy import vdot as inner", 1), ("f = np.vdot", 1), ("dot(x, u)", 0),
    ("core.dot(x, u)", 0), ("from numpy import dot", 0),
])
def test_vdot_rule_sees_every_spelling(source, found):
    assert len(list(_vdot_uses(ast.parse(source)))) == found


def test_numpys_vdot_is_bound_only_in_core():
    # core.dot reaches numpy's C vdot past its __array_function__ dispatcher, with the
    # same bits and the same silent +-inf; a second spelling elsewhere would put the
    # dispatcher back on that call.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"
             for node in _vdot_uses(ast.parse(path.read_text(encoding="utf-8")))]
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


def _table_key(node):
    """The key of a trust table named by ``node``: ``T`` for a name T, ``.T`` for an
    attribute ``obj.T`` of any object (built as ``self.T``, read as ``block.T``)."""
    if isinstance(node, ast.Name):
        return node.id
    return "." + node.attr if isinstance(node, ast.Attribute) else None


def _owner_check(test, receiver, fast, tables=None):
    """Whether ``test`` is, or is an ``and`` of, a call ``_trusted(receiver, fast, ...)``,
    or, with ``tables`` (``_trust_tables``), an entry ``T[k]`` of a trust table T over
    seq where the receiver is ``seq[k]`` or a name bound to it."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_owner_check(value, receiver, fast, tables) for value in test.values)
    if tables and isinstance(test, ast.Subscript):
        seqs, binds = tables
        key = _table_key(test.value)
        if key not in seqs:
            return False
        entry = ast.dump(ast.Subscript(value=seqs[key], slice=test.slice, ctx=ast.Load()))
        return ast.dump(receiver) == entry or (
            isinstance(receiver, ast.Name) and (receiver.id, entry) in binds)
    return (isinstance(test, ast.Call) and len(test.args) >= 2
            and (isinstance(test.func, ast.Name) and test.func.id == "_trusted"
                 or isinstance(test.func, ast.Attribute) and test.func.attr == "_trusted")
            and ast.dump(test.args[0]) == ast.dump(receiver)
            and isinstance(test.args[1], ast.Constant) and test.args[1].value == fast)


def _trust_tables(tree, fast):
    """({key: seq}, binds): each ``T = bytes(_trusted(v, "<fast>", ...) for v in seq)``, one
    trust answer per item of seq, keyed by ``_table_key(T)`` (T a name or an attribute),
    and the (name, value) pair of every name assignment."""
    seqs = {}
    binds = {(t.id, ast.dump(node.value)) for node in ast.walk(tree)
             if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and _table_key(node.targets[0]) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name) and node.value.func.id == "bytes"
                and len(node.value.args) == 1 and isinstance(node.value.args[0], ast.GeneratorExp)):
            continue
        (loop, *more), item = node.value.args[0].generators, node.value.args[0].elt
        if (not more and not loop.ifs and isinstance(loop.target, ast.Name)
                and _owner_check(item, ast.Name(id=loop.target.id, ctx=ast.Load()), fast)):
            seqs[_table_key(node.targets[0])] = loop.iter
    return seqs, binds


def _unguarded(tree, fast):
    """Mentions ``r.<fast>`` outside the true branch of an if, or the later operands
    of an ``and``, that checks ``_trusted(r, "<fast>", ...)``, or r's entry in a trust
    table of those checks, first."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    tables = _trust_tables(tree, fast)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr == fast):
            continue
        child, guarded = node, False
        while child in parents and not guarded:
            up = parents[child]
            if isinstance(up, ast.IfExp) and child is up.body or (
                    isinstance(up, ast.If) and child in up.body):
                guarded = _owner_check(up.test, node.value, fast, tables)
            elif isinstance(up, ast.BoolOp) and isinstance(up.op, ast.And):
                guarded = any(_owner_check(v, node.value, fast, tables)
                              for v in up.values[:up.values.index(child)])
            child = up
        if not guarded:
            yield node


@pytest.mark.parametrize("source, found", [
    ("row = f.affine_row()", 1),
    ("row = f.affine_row() if _trusted(f, 'affine_row', 'value') else None", 0),
    ("row = f.affine_row() if core._trusted(f, 'affine_row', 'value') else None", 0),
    ("row = None if _trusted(f, 'affine_row', 'value') else f.affine_row()", 1),
    ("row = f.affine_row() if _trusted(g, 'affine_row', 'value') else None", 1),
    ("row = f.affine_row() if _trusted(f, 'value', 'value') else None", 1),
    ("row = f.affine_row() if not _trusted(f, 'affine_row', 'value') else None", 1),
    ("row = f.affine_row() if ok and _trusted(f, 'affine_row', 'value') else None", 0),
    ("if _trusted(s, 'affine_row', 'distance'):\n    row = s.affine_row()", 0),
    ("if _trusted(s, 'affine_row', 'distance'):\n    pass\nelse:\n    row = s.affine_row()", 1),
    ("row = _trusted(self.set, 'affine_row', 'distance') and self.set.affine_row()", 0),
    ("row = self.set.affine_row() and _trusted(self.set, 'affine_row', 'distance')", 1),
    ("rows = [g.affine_row() for g in fs]", 1),
    ("fast = f.affine_row", 1),
    ("def affine_row(self):\n    return None", 0),
])
def test_affine_row_rule_sees_every_spelling(source, found):
    assert len(list(_unguarded(ast.parse(source), "affine_row"))) == found


def test_every_affine_row_is_read_behind_the_ownership_rule():
    # A row stands in for an oracle (value, or a set's distance); core._trusted
    # refuses it for a class from outside the package, a subclass that overrides
    # that oracle too.
    found = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in _unguarded(ast.parse(path.read_text(encoding="utf-8")), "affine_row")]
    assert found == []


_RADII = ("_bind_margin", "_depth")  # a spec's one radius method and a set's depth


@pytest.mark.parametrize("source, fast, found", [
    ("v, rho = f._bind_margin()", "_bind_margin", 1),
    ("margin = f._bind_margin() if _trusted(f, '_bind_margin', 'value') else None", "_bind_margin", 0),
    ("rho = f._bind_margin()(x, v) if _trusted(f, '_bind_margin', 'value') else 0.0", "_bind_margin", 0),
    ("m = f._bind_margin() if core._trusted(f, '_bind_margin', 'value') else (f.value(x), 0.0)",
     "_bind_margin", 0),
    ("m = (f.value(x), 0.0) if _trusted(f, '_bind_margin', 'value') else f._bind_margin()",
     "_bind_margin", 1),
    ("m = f._bind_margin() if _trusted(g, '_bind_margin', 'value') else None", "_bind_margin", 1),
    ("m = f._bind_margin() if _trusted(f, 'affine_row', 'value') else None", "_bind_margin", 1),
    ("m = f._bind_margin() if not _trusted(f, '_bind_margin', 'value') else None", "_bind_margin", 1),
    ("if env <= 0.0 and _trusted(f, '_bind_margin', 'value'):\n    rho = f._bind_margin()(x, v)",
     "_bind_margin", 0),
    ("if _trusted(s, '_depth', 'distance'):\n    pass\nelse:\n    d = s._depth(x)", "_depth", 1),
    ("d = _trusted(self.set, '_depth', 'distance') and self.set._depth(x)", "_depth", 0),
    ("d = self.set._depth(x) and _trusted(self.set, '_depth', 'distance')", "_depth", 1),
    ("rhos = [g._bind_margin()(x, v) for g in fs]", "_bind_margin", 1),
    ("fast = super()._bind_margin", "_bind_margin", 1),
    ("def _bind_margin(self):\n    return None", "_bind_margin", 0),
    ("_bind_margin = _SetAtom._bind_depth", "_bind_margin", 0),
    ("ok = bytes(_trusted(g, '_bind_margin', 'value') for g in fs)\n"
     "r = fs[i]._bind_margin() if ok[i] else None", "_bind_margin", 0),
    ("ok = bytes(_trusted(g, '_bind_margin', 'value') for g in fs)\n"
     "r = fs[i]._bind_margin() if ok[j] else None", "_bind_margin", 1),
    # A radius wrapper that binds the oracle again at each ask, unguarded.
    ("def _margin(self, x, v):\n    margin = self._bind_margin()\n"
     "    return margin(x, v) if margin is not None else 0.0", "_bind_margin", 1),
    ("return s._depth if _trusted(s, '_depth', 'distance', 'contains', 'project') else None",
     "_depth", 0),
    ("return s._depth if _trusted(s, '_bind_margin', 'value') else None", "_depth", 1),
    ("return s._depth if _trusted(t, '_depth', 'distance') else None", "_depth", 1),
    ("return MethodType(_depth, s._depth)", "_depth", 1),
    ("def _depth(self, x, v=0.0):\n    return 0.0", "_depth", 0),
])
def test_margin_rule_sees_every_spelling(source, fast, found):
    assert len(list(_unguarded(ast.parse(source), fast))) == found


def test_every_margin_is_read_behind_the_ownership_rule():
    # A radius lets the solve skip a value; core._trusted refuses it for a class
    # from outside the package, a subclass that overrides the oracle it speaks for too.
    found = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
             for path in sorted(PACKAGE.glob("*.py"))
             for fast in _RADII
             for node in _unguarded(ast.parse(path.read_text(encoding="utf-8")), fast)]
    assert found == []


_FUSED = "fused = bytes(_trusted(g, '_cut_normal', 'subgradient', 'value') for g in p.functions)\n"
_BLOCK = "self." + _FUSED
_SOLVE = ("fused = block = None\n"
          "for n, i in zip(range(p.max_iter), order):\n"
          "    if fx > 0.0:\n"
          "        if fused is None:\n"
          "            fused = bytes(_trusted(f, '_cut_normal') for f in p.functions)\n"
          "        elif block is None:\n"
          "            block = _AffineBlock(p)\n"
          "        f = p.functions[i]\n"
          "        point = _cut(x, f._cut_normal(x, fx) if {} else f.subgradient(x), fx)\n")


@pytest.mark.parametrize("source, found", [
    ("u = f._cut_normal(x, fx)", 1),
    ("u = f._cut_normal(x, fx) if _trusted(f, '_cut_normal', 'subgradient', 'value') else None", 0),
    ("u = None if _trusted(f, '_cut_normal', 'subgradient', 'value') else f._cut_normal(x, fx)", 1),
    ("u = f._cut_normal(x, fx) if _trusted(f, '_bind_margin', 'value') else None", 1),
    ("u = f._cut_normal(x, fx) if _trusted(g, '_cut_normal', 'subgradient') else None", 1),
    (_FUSED + "f = p.functions[i]\nu = f._cut_normal(x, fx) if fused[i] else f.subgradient(x)", 0),
    (_FUSED + "u = p.functions[i]._cut_normal(x, fx) if fused[i] else None", 0),
    (_FUSED + "if fused[i]:\n    u = p.functions[i]._cut_normal(x, fx)", 0),
    (_FUSED + "f = p.functions[j]\nu = f._cut_normal(x, fx) if fused[i] else None", 1),
    (_FUSED + "f = q.functions[i]\nu = f._cut_normal(x, fx) if fused[i] else None", 1),
    (_FUSED + "f = p.functions[i]\nu = None if fused[i] else f._cut_normal(x, fx)", 1),
    (_FUSED + "f = p.functions[i]\nu = f._cut_normal(x, fx) if other[i] else None", 1),
    ("fused = bytes(_trusted(g, '_bind_margin', 'value') for g in p.functions)\n"
     "f = p.functions[i]\nu = f._cut_normal(x, fx) if fused[i] else None", 1),
    ("fused = bytes(g.ok for g in p.functions)\n"
     "f = p.functions[i]\nu = f._cut_normal(x, fx) if fused[i] else None", 1),
    ("fused = bytes(_trusted(g, '_cut_normal', 'value') for g in p.functions if g)\n"
     "f = p.functions[i]\nu = f._cut_normal(x, fx) if fused[i] else None", 1),
    (_BLOCK + "f = p.functions[i]\nu = f._cut_normal(x, fx) if block.fused[i] else f.subgradient(x)", 0),
    (_BLOCK + "u = p.functions[i]._cut_normal(x, fx) if self.fused[i] else None", 0),
    (_BLOCK + "f = p.functions[i]\nu = f._cut_normal(x, fx) if block.other[i] else None", 1),
    (_BLOCK + "f = p.functions[i]\nu = f._cut_normal(x, fx) if fused[i] else None", 1),
    (_FUSED + "f = p.functions[i]\nu = f._cut_normal(x, fx) if block.fused[i] else None", 1),
    (_BLOCK + "f = p.functions[j]\nu = f._cut_normal(x, fx) if block.fused[i] else None", 1),
    (_BLOCK + "f = p.functions[i]\nu = None if block.fused[i] else f._cut_normal(x, fx)", 1),
    ("self.fused = bytes(_trusted(g, '_bind_margin', 'value') for g in p.functions)\n"
     "f = p.functions[i]\nu = f._cut_normal(x, fx) if block.fused[i] else None", 1),
    ("normals = [g._cut_normal for g in fs]", 1),
    ("def _cut_normal(self, x, fx):\n    return x / fx", 0),
    # solve's own table, resolved at its first projected step.
    (_SOLVE.format("fused[i]"), 0),
    (_SOLVE.format("fused[n]"), 1),
])
def test_fused_normal_rule_sees_every_spelling(source, found):
    assert len(list(_unguarded(ast.parse(source), "_cut_normal"))) == found


def test_every_fused_normal_is_read_behind_the_ownership_rule():
    # A cut normal stated from the held value stands in for subgradient at that value;
    # core._trusted refuses it for a class from outside the package.
    found = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in _unguarded(ast.parse(path.read_text(encoding="utf-8")), "_cut_normal")]
    assert found == []


def _block_builds(tree):
    """Calls that construct the solve's block: ``_AffineBlock(...)``, by name or attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "_AffineBlock"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "_AffineBlock"):
            yield node


@pytest.mark.parametrize("source, found", [
    ("block = _AffineBlock(p)", 1), ("block = feasibility._AffineBlock(p)", 1),
    ("res = _AffineBlock(p).values(x)", 1), ("values = block.values(x, step, i)", 0),
    ("class _AffineBlock:\n    pass", 0), ("build = _AffineBlock", 0),
])
def test_block_rule_sees_every_spelling(source, found):
    assert len(list(_block_builds(ast.parse(source)))) == found


def test_the_block_is_built_at_one_place():
    # A build is the fixed cost that solve defers to its second projected step; a
    # second construction would pay it again, or where no second step can use it.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in _block_builds(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(found) == 1 and found[0].startswith("feasibility.py:")


def _is_property(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in ("property", "cached_property")
            or isinstance(node, ast.Attribute) and node.attr in ("property", "cached_property"))


def _returns_tuple(node) -> bool:
    return isinstance(node, ast.Tuple) or isinstance(node, ast.IfExp) and (
        _returns_tuple(node.body) or _returns_tuple(node.orelse))


def _margins_with_a_value(tree, name):
    """Definitions of ``name`` (a radius method or a depth) that return a tuple (a value
    with the radius), or bind it to a property: a def, a lambda, a ``property(...)`` call,
    or a name of a property that the module defines."""
    properties = {node.name for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and any(map(_is_property, node.decorator_list))}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            if any(map(_is_property, node.decorator_list)) or any(
                    isinstance(r, ast.Return) and _returns_tuple(r.value) for r in ast.walk(node)):
                yield node
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            v = node.value
            if (isinstance(v, ast.Call) and _is_property(v.func)
                    or isinstance(v, ast.Lambda) and _returns_tuple(v.body)
                    or isinstance(v, ast.Attribute) and v.attr in properties
                    or isinstance(v, ast.Name) and v.id in properties):
                yield node


@pytest.mark.parametrize("source, name, found", [
    ("def _depth(self, x):\n    return self.distance(x), 0.0", "_depth", 1),
    ("def _depth(self, x, v=0.0):\n    return 0.0", "_depth", 0),
    ("def _depth(self, x, v=0.0):\n    if v < 0.0:\n        return (v, 1.0)\n    return 0.0", "_depth", 1),
    ("def _depth(self, x, v=0.0):\n    return (v, 1.0) if v < 0.0 else 0.0", "_depth", 1),
    ("def _depth(self, x, v=0.0):\n    return _reach(-excess, scale, self.dim)", "_depth", 0),
    ("@property\ndef _depth(self):\n    return self.set._depth", "_depth", 1),
    ("@functools.cached_property\ndef _depth(self):\n    return None", "_depth", 1),
    ("_depth = property(lambda self: self._gap)", "_depth", 1),
    ("_depth = lambda self, x, v=0.0: (v, 0.0)", "_depth", 1),
    ("_depth = lambda self, x, v=0.0: 0.0", "_depth", 0),
    ("@property\ndef _gap(self):\n    return None\n_depth = ConvexSet._gap", "_depth", 1),
    ("@property\ndef _gap(self):\n    return None\n_depth = _gap", "_depth", 1),
    ("def _gap(self, x, v=0.0):\n    return 0.0\n_depth = ConvexSet._gap", "_depth", 0),
    ("def _top(self, x):\n    return 1.0, {}", "_depth", 0),
    ("@property\ndef _bind_margin(self):\n    return self._rows.reach", "_bind_margin", 1),
    ("def _bind_margin(self):\n    return self._rows.reach", "_bind_margin", 0),
    ("def _bind_margin(self):\n    return self.set._depth, 0.0", "_bind_margin", 1),
    ("_bind_margin = _SetAtom._bind_depth", "_bind_margin", 0),
    ("@property\ndef _bind_depth(self):\n    return None\n_bind_margin = _SetAtom._bind_depth",
     "_bind_margin", 1),
])
def test_margin_definition_rule_sees_every_spelling(source, name, found):
    assert len(list(_margins_with_a_value(ast.parse(source), name))) == found


def test_a_margin_states_only_a_radius():
    # Every value the solve uses comes from value; a radius or a depth that returned
    # one too would be a second computation of it, which the two could let drift apart.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for name in _RADII
             for node in _margins_with_a_value(ast.parse(path.read_text(encoding="utf-8")), name)]
    assert found == []


_FAST_PATH_NAMES = {"affine_row", "_bind_margin", "_cut_normal", "_depth"}


def _class_body_bindings(cls):
    """(node, name) for each name that cls's body binds itself, outside the scopes of its
    functions, lambdas, comprehensions and nested classes: each Name stored (an
    assignment of any form, a loop or with target, a walrus), each import alias, and
    each def or class statement."""
    stack = list(cls.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node, node.id
        elif isinstance(node, ast.alias):
            yield node, node.asname or node.name.split(".")[0]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, node.name
        elif not isinstance(node, (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
            stack.extend(ast.iter_child_nodes(node))


def _fast_paths_bound_by_assignment(tree):
    """Fast-path names that a class body binds other than by a def at its top level."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node, name in _class_body_bindings(cls):
                if name in _FAST_PATH_NAMES and not (
                        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node in cls.body):
                    yield node


@pytest.mark.parametrize("source, found", [
    ("class A:\n    _bind_margin = _SetAtom._bind_depth", 1),
    ("class A:\n    def _bind_margin(self):\n        return None", 0),
    ("class A:\n    async def _depth(self, x, v=0.0):\n        return 0.0", 0),
    ("class A:\n    affine_row: object = None", 1),
    ("class A:\n    _cut_normal = staticmethod(normal)", 1),
    ("class A:\n    _depth, gap = depth, 0.0", 1),
    ("class A:\n    [*_depth] = depths", 1),
    ("class A:\n    _bind_margin += 1", 1),
    ("class A:\n    if fast:\n        _depth = depth", 1),
    ("class A:\n    if fast:\n        def _depth(self, x, v=0.0):\n            return 0.0", 1),
    ("class A:\n    for _depth in depths:\n        pass", 1),
    ("class A:\n    with rows() as affine_row:\n        pass", 1),
    ("class A:\n    (affine_row := row)", 1),
    ("class A:\n    from .sets import _depth", 1),
    ("class A:\n    import affine_row", 1),
    ("class A:\n    class B:\n        _cut_normal = normal", 1),
    ("class A:\n    class _depth:\n        pass", 1),
    ("class A:\n    def f(self):\n        affine_row = self.row\n        return affine_row", 0),
    ("class A:\n    rows = [affine_row for affine_row in rows]", 0),
    ("class A:\n    depth = lambda self, _depth: _depth", 0),
    ("class A:\n    value = Dist.value", 0),
    ("_depth = depth", 0),
    ("def f():\n    _bind_margin = None", 0),
])
def test_fast_path_definition_rule_sees_every_spelling(source, found):
    assert len(list(_fast_paths_bound_by_assignment(ast.parse(source)))) == found


def test_a_fast_path_is_defined_only_by_def():
    # core._trusted takes the function that a class holds for its own.  A fast path bound
    # by assignment (_bind_margin = _SetAtom._bind_depth) borrows one written for another
    # name; each is stated where it is defined, and a subclass inherits it by name.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in _fast_paths_bound_by_assignment(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


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


_PERIOD_NAMES = {"_period", "_WAITS", "_believed_period"}


def _own_nodes(func):
    """The nodes of a function's body, leaving out the functions and classes it defines."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _control_protocol_breaks(tree):
    """``(line, what)``, sorted, for each ``yield`` in a ``_stream`` and each ``return``
    there that is not a pair, and for each mention of a name of the old period protocol."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_stream":
            for inner in _own_nodes(node):
                if isinstance(inner, (ast.Yield, ast.YieldFrom)):
                    found.append((inner.lineno, "yield"))
                elif isinstance(inner, ast.Return) and not (
                        isinstance(inner.value, ast.Tuple) and len(inner.value.elts) == 2):
                    found.append((inner.lineno, "return"))
        name = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in _PERIOD_NAMES:
            found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("source, found", [
    ("class C:\n    def _stream(self, m):\n        return cycle(range(m)), m", []),
    ("def _stream(self, m):\n    return cycle(range(m))", [(2, "return")]),
    ("def _stream(self, m):\n    if m:\n        return s, None\n    return (s, 1, 2)", [(4, "return")]),
    ("def _stream(self, m):\n    return", [(2, "return")]),
    ("def _stream(self, m):\n    yield 0", [(2, "yield")]),
    ("def _stream(self, m):\n    yield from range(m)", [(2, "yield")]),
    ("def _stream(self, m):\n    def g(s):\n        yield from s\n        return\n    return g(s), 1",
     []),
    ("def _streams(self, m):\n    return s", []),
    ("def _period(self, m):\n    return 0, m", [(1, "_period")]),
    ("_WAITS = 'waits'", [(1, "_WAITS")]),
    ("from .feasibility import _WAITS", [(1, "_WAITS")]),
    ("period = feasibility._believed_period(c, m)", [(1, "_believed_period")]),
])
def test_control_protocol_rule_sees_every_spelling(source, found):
    assert _control_protocol_breaks(ast.parse(source)) == found


def test_a_control_states_its_phase_with_its_stream():
    # _stream(m) returns (stream, phase), the one statement of how a control
    # repeats; a period method, a marker or a rule for which claim to believe
    # would be a second one that can drift from the stream.
    found = [f"{path.name}:{line} {what}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, what in _control_protocol_breaks(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def _isinstance_calls(tree):
    """Calls of isinstance, bare or through a module such as builtins."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "isinstance"):
            yield node


def _spec_classes():
    """Names of FunctionSpec and of every class the package derives from it."""
    found, todo = set(), [subproj.FunctionSpec]
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("subproj.") and cls.__name__ not in found:
            found.add(cls.__name__)
            todo += cls.__subclasses__()
    return found


def _spec_isinstance_calls(tree, specs):
    """(line, names) for each isinstance call that names one of ``specs``."""
    for call in _isinstance_calls(tree):
        named = specs & {n for arg in call.args for n in _names(arg)}
        if named:
            yield call.lineno, sorted(named)


@pytest.mark.parametrize("source, found", [
    ("isinstance(f, Scale)", 1), ("builtins.isinstance(f, Linear)", 1),
    ("ok = [isinstance(v, (int, float)) for v in r]", 1), ("issubclass(type(f), Scale)", 0),
    ("type(f) is Scale", 0), ("f._prox_map()", 0),
])
def test_isinstance_rule_sees_every_spelling(source, found):
    assert len(list(_isinstance_calls(ast.parse(source)))) == found


def test_prox_makes_no_isinstance_call():
    # Each atom states its own closed form (FunctionSpec._prox_map); a type test
    # in prox.py would be a second list of prox-friendly atoms.
    tree = ast.parse((PACKAGE / "prox.py").read_text(encoding="utf-8"))
    assert [ast.unparse(call) for call in _isinstance_calls(tree)] == []


@pytest.mark.parametrize("source, found", [
    ("isinstance(f, Scale)", [["Scale"]]), ("isinstance(f, functions.Linear)", [["Linear"]]),
    ("isinstance(f, (NormPow, int))", [["NormPow"]]), ("isinstance(f.inner, _SetAtom)", [["_SetAtom"]]),
    ("isinstance(f, FunctionSpec)", [["FunctionSpec"]]), ("isinstance(r, (int, float))", []),
    ("isinstance(s, SelectionStrategy)", []), ("Scale(2.0, f)", []),
])
def test_spec_isinstance_rule_sees_every_spelling(source, found):
    assert [names for _line, names in _spec_isinstance_calls(ast.parse(source), _spec_classes())] \
        == found


def test_no_type_test_names_a_function_spec_outside_serialize():
    # A spec answers for itself through its methods; only the JSON layer, which
    # maps tags to classes, may test a spec's class.
    specs = _spec_classes()
    assert {"FunctionSpec", "Scale", "Indicator", "MoreauEnv", "_SetAtom"} <= specs
    found = [f"{path.name}:{line} {names}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "serialize.py"
             for line, names in _spec_isinstance_calls(
                 ast.parse(path.read_text(encoding="utf-8")), specs)]
    assert found == []


def _all_of_isfinite(tree):
    """Calls of a function ``all`` (np.all, numpy.all or the builtin) on an isfinite call."""
    def named(func, name):
        return (isinstance(func, ast.Name) and func.id == name
                or isinstance(func, ast.Attribute) and func.attr == name
                and isinstance(func.value, ast.Name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and named(node.func, "all") and node.args
                and isinstance(node.args[0], ast.Call) and named(node.args[0].func, "isfinite")):
            yield node


@pytest.mark.parametrize("source, found", [
    ("np.all(np.isfinite(v))", 1), ("numpy.all(numpy.isfinite(v), axis=1)", 1),
    ("all(isfinite(v))", 1), ("np.isfinite(v).all()", 0), ("np.isfinite(v).all(axis=1)", 0),
    ("math.isfinite(t)", 0), ("np.all(v > 0)", 0),
])
def test_finiteness_rule_sees_every_spelling(source, found):
    assert len(list(_all_of_isfinite(ast.parse(source)))) == found


def test_finiteness_tests_reduce_with_the_array_method():
    # np.all(np.isfinite(v)) dispatches through the function layer and costs about
    # twice np.isfinite(v).all() on a short vector; as_vector runs it on every input.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in _all_of_isfinite(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []



_CUT_NORMAL_NAMES = {"ZeroSubgradient", "_cut_norm2"}


def _cut_normal_names(tree):
    """The names of _CUT_NORMAL_NAMES that a module mentions or defines."""
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    return _CUT_NORMAL_NAMES & (set(_names(tree)) | defined)


@pytest.mark.parametrize("source, found", [
    ("from .errors import ZeroSubgradient", {"ZeroSubgradient"}),
    ("raise errors.ZeroSubgradient(m)", {"ZeroSubgradient"}),
    ("error = ZeroSubgradient", {"ZeroSubgradient"}),
    ("class ZeroSubgradient(SubprojError):\n    pass", {"ZeroSubgradient"}),
    ("from .projector import _cut_norm2", {"_cut_norm2"}),
    ("n2 = projector._cut_norm2(u)", {"_cut_norm2"}),
    ("n2 = _cut_norm2(u)", {"_cut_norm2"}),
    ("def _cut_norm2(u):\n    return u", {"_cut_norm2"}),
    ("u, n2 = _normal(u, x)", set()),
])
def test_cut_normal_rule_sees_every_spelling(source, found):
    assert _cut_normal_names(ast.parse(source)) == found


def test_one_check_for_every_cut_normal():
    # projector._normal is the one check of a cut normal (finite, of x's length,
    # nonzero) and so the one place that raises ZeroSubgradient; a module naming
    # the error, or a norm-only check such as the old _cut_norm2, is a second rule.
    found = [f"{path.name}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for name in sorted(_cut_normal_names(ast.parse(path.read_text(encoding="utf-8"))))
             if name == "_cut_norm2" or path.name not in ("errors.py", "projector.py")]
    assert found == []


def _unused_imports(tree):
    """Names that a module-level import binds and the module never reads."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for stmt in tree.body:
        if (isinstance(stmt, (ast.Import, ast.ImportFrom))
                and getattr(stmt, "module", "") != "__future__"):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    yield name


@pytest.mark.parametrize("source, found", [
    ("import math", ["math"]),
    ("import math\nr = math.sqrt(2.0)", []),
    ("import numpy as np", ["np"]),
    ("import numpy as np\nz = np.zeros(1)", []),
    ("import os.path", ["os"]),
    ("import os.path\nsep = os.path.sep", []),
    ("from .core import SCREEN_MAX, _reach, norm\nn = norm(x)", ["SCREEN_MAX", "_reach"]),
    ("from .core import (\n    SCREEN_MAX,\n    norm,\n)\nn = norm(x)", ["SCREEN_MAX"]),
    ("from .core import _reach as reach", ["reach"]),
    ("from .core import _reach as reach\nrho = reach(g, s, 1)", []),
    ("from .core import norm\nnorm = None", ["norm"]),
    ("from .core import SCREEN_MAX\n'''Lengths below SCREEN_MAX.'''", ["SCREEN_MAX"]),
    ("from typing import Optional\ndef f(x) -> Optional[int]:\n    pass", []),
    ("from .errors import DomainError\nclass E(DomainError):\n    pass", []),
    ("def f():\n    import math", []),
    ("from __future__ import annotations", []),
    ("from .errors import *", []),
])
def test_unused_import_rule_sees_every_spelling(source, found):
    assert list(_unused_imports(ast.parse(source))) == found


def test_no_module_imports_a_name_it_does_not_use():
    # An import left behind by a removal keeps a dependency the module no longer
    # has; the package __init__ imports names only to export them.
    found = [f"{path.name}: {name}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
