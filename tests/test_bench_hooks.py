"""The benchmark's tracer wraps library attributes by name; every name it
lists must still resolve, or a traced benchmark run breaks."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers():
    # read LAYERS from the source so that the benchmark is never imported
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no LAYERS")


@pytest.mark.parametrize("layer,module_name,attr", _layers())
def test_traced_attribute_resolves(layer, module_name, attr):
    # the lookup Tracer.install does: a method must be defined on the class
    # itself, since install replaces vars(owner)[method]
    module = importlib.import_module(module_name)
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert callable(vars(owner).get(method)), \
            f"{layer}: {owner_name} defines no method {method}"
    else:
        assert callable(getattr(module, attr, None)), \
            f"{layer}: {module_name} has no function {attr}"
