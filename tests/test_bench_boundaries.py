"""The traced benchmark wraps library functions by (module, attribute) name;
every name it lists must resolve, or that layer silently reads "not measured"."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _boundaries():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no BOUNDARIES list in bench/spans.py")


def test_every_traced_boundary_resolves():
    boundaries = _boundaries()
    assert boundaries
    for layer, modname, attr, _leaf in boundaries:
        owner = importlib.import_module(modname)
        for name in attr.split("."):
            assert hasattr(owner, name), f"{layer}: {modname}.{attr} does not resolve"
            owner = getattr(owner, name)
        assert callable(owner), f"{layer}: {modname}.{attr} is not callable"
