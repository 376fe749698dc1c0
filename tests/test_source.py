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
