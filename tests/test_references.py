"""Every function and method of the library has a caller in the library or
the benchmark: code that only tests call is deleted or named here with the
reason it stays."""

import ast
from collections import Counter
from pathlib import Path

from tests.test_bench_boundaries import _boundaries

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "widthplan"

# (module, qualified name) -> why it stays with no caller in src/ or bench/
KEPT = {
    ("features", "boolean_projection"): "the reference the policy-graph tests compare against",
    ("oracle", "StateSpace.cost_star"): "the reference the cost* tests compare against",
    ("strips", "ApplicabilityTables.applicable_mask"):
        "the tested specification of the loop that enumerate_space compiles",
    ("novelty", "format_tuple_set"): "writes the tuple sets that exact width will derive",
    ("strips", "replay"): "the plan validator that tests use",
    ("features", "_marbles_first_box"): "registered builtin, called through BUILTINS",
    ("features", "_hanoi_parity"): "registered builtin, called through BUILTINS",
}


def _references(node) -> tuple[Counter, Counter]:
    """Names loaded and attributes read under `node`."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
    return names, attrs


def _imports(tree) -> set[tuple[str, str]]:
    """(widthplan module, name) of every name a file imports from a module
    of the package, by its own name."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module:
            module = n.module.removeprefix("widthplan.")
            out.update((module, a.name) for a in n.names if a.asname is None)
    return out


def _definitions(tree):
    """(qualified name, node, kind) of every function; kind is "module",
    "method" or "nested"."""
    def walk(body, prefix, kind):
        for n in body:
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + n.name, n, kind
                yield from walk(n.body, f"{prefix}{n.name}.", "nested")
            elif isinstance(n, ast.ClassDef):
                yield from walk(n.body, f"{prefix}{n.name}.", "method")

    yield from walk(tree.body, "", "module")


def _unreferenced():
    files = {p: ast.parse(p.read_text()) for p in [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]}
    refs = {p: _references(tree) for p, tree in files.items()}
    imports = {p: _imports(tree) for p, tree in files.items()}
    all_attrs = sum((attrs for _, attrs in refs.values()), Counter())
    traced = {attr for _layer, _module, attr, _leaf in _boundaries()}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for qualname, node, kind in _definitions(files[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own_names, own_attrs = _references(node)
            uses = all_attrs[name] - own_attrs[name]
            if kind == "method":
                uses += qualname in traced
            else:
                uses += refs[path][0][name] - own_names[name]
                if kind == "module":
                    uses += name in traced
                    uses += sum(refs[p][0][name] for p in files
                                if p != path and (module, name) in imports[p])
            if not uses:
                yield module, qualname


def test_every_function_has_a_caller_or_a_reason():
    unreferenced = set(_unreferenced())
    assert unreferenced - KEPT.keys() == set(), "no caller in src/ or bench/: delete it or keep it in KEPT"
    assert KEPT.keys() - unreferenced == set(), "a KEPT entry now has a caller, or is gone"
