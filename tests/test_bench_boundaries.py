"""The traced benchmark wraps library functions by (module, attribute) name;
every name it lists must resolve, or that layer silently reads "not measured",
and every call the searches make must go through the wrapped names, or the
per-layer call counts change silently."""

import ast
import importlib
from pathlib import Path

import pytest

from widthplan import domains, search
from widthplan.novelty import parse_tuple_set
from tests.conftest import ground_bundle

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


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


@pytest.mark.parametrize("make,run", [
    (lambda: domains.blocks_on(1, 2), lambda g, bundle: search.iw_k(g, 2)),
    (lambda: domains.blocks_clear(3), lambda g, bundle: search.iw_k(g, 1)),
    (lambda: domains.blocks_clear(3),
     lambda g, bundle: search.iw_t(g, parse_tuple_set(bundle.tuple_sets["walk"], g))),
], ids=["iw2-on-1-2", "iw1-clear-3", "iwt-clear-3"])
def test_traced_boundaries_see_every_call(make, run, monkeypatch):
    # the novelty test runs once per dequeued non-goal state, and successors
    # are generated once per expansion and once per plan step
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    bundle = make()
    g = ground_bundle(bundle)
    tracer = spans.Tracer()
    tracer.install()
    try:
        r = run(g, bundle)
    finally:
        tracer.uninstall()
    stats = r.stats
    assert r.solved and r.plan and stats.pruned
    assert tracer.calls["novelty.NoveltyTable.register"] == stats.expanded + stats.pruned
    assert tracer.calls["strips.applicable_actions"] == stats.expanded + len(r.plan)
