"""Spans and per-layer counters for the traced run.

The traced run wraps public widthplan functions at each layer boundary, from
the benchmark's side: every reference to a wrapped function in a loaded
`widthplan` module is swapped for a wrapper while a `Tracer` is installed,
and put back afterwards.  The program itself is not edited.

Two kinds of boundary are recorded:

* span boundaries (searches, oracle checks, grounding, ...) keep one `Span`
  per call, with its name, start, end and parent;
* leaf boundaries (`applicable_actions`, novelty registration, feature
  valuation, the sketch relation, state-space successors) are called up to
  hundreds of thousands of times per round, so they are kept as call counts
  and summed durations instead of one span each.

Both take part in self time: a call's self time is its duration minus the
time its wrapped callees cover.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from dataclasses import dataclass

import checks


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    self_s: float


class _Frame:
    __slots__ = ("id", "layer", "start", "child_s", "outer", "alloc")

    def __init__(self, id, layer, start, outer):
        self.id = id
        self.layer = layer
        self.start = start
        self.child_s = 0.0
        self.outer = outer  # parent is not in the same layer
        self.alloc = False  # tracemalloc runs for this call


# (layer, module, attribute, leaf).  An attribute "Class.method" wraps a method.
BOUNDARIES = [
    ("domains", "widthplan.domains", "blocks_clear", False),
    ("domains", "widthplan.domains", "blocks_on", False),
    ("domains", "widthplan.domains", "grid", False),
    ("domains", "widthplan.domains", "grid2", False),
    ("domains", "widthplan.domains", "delivery", False),
    ("domains", "widthplan.domains", "marbles", False),
    ("domains", "widthplan.domains", "hanoi", False),
    ("domains", "widthplan.domains", "hanoi_odd", False),
    ("pddl", "widthplan.pddl", "parse_domain", False),
    ("pddl", "widthplan.pddl", "parse_problem", False),
    ("grounding", "widthplan.grounding", "ground", False),
    ("strips", "widthplan.strips", "applicable_actions", True),
    ("novelty", "widthplan.novelty", "NoveltyTable.register", True),
    ("search", "widthplan.search", "iw_k", False),
    ("search", "widthplan.search", "iw_t", False),
    ("search", "widthplan.search", "iw", False),
    ("search", "widthplan.search", "iw_phi", False),
    ("search", "widthplan.search", "bfs_optimal", False),
    ("features", "widthplan.features", "FeatureSet.valuation", True),
    ("sketches", "widthplan.sketches", "relation", True),
    ("siw", "widthplan.siw", "siw_r", False),
    ("siw", "widthplan.siw", "run_policy", False),
    ("oracle", "widthplan.oracle", "enumerate_space", False),
    ("oracle", "widthplan.oracle", "lower_bound_witness", False),
    ("oracle", "widthplan.oracle", "is_admissible", False),
    ("oracle", "widthplan.oracle", "sketch_width_on", False),
    ("oracle", "widthplan.oracle", "effective_width", False),
    ("oracle", "widthplan.oracle", "StateSpace.successors", True),
]

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "domains.gen_s": ("s", "lower"),
    "pddl.parse_s": ("s", "lower"),
    "grounding.ground_s": ("s", "lower"),
    "grounding.bindings": ("count", "lower"),
    "grounding.actions": ("count", "lower"),
    "grounding.kept_ratio": ("ratio", "higher"),
    "grounding.atoms": ("count", "lower"),
    "strips.applicable_calls": ("count", "lower"),
    "strips.applicable_s": ("s", "lower"),
    "novelty.register_calls": ("count", "lower"),
    "novelty.register_s": ("s", "lower"),
    "novelty.novel_ratio": ("ratio", "higher"),
    "search.calls": ("count", "lower"),
    "search.self_s": ("s", "lower"),
    "search.expanded": ("count", "lower"),
    "search.expanded_all": ("count", "lower"),
    "search.generated": ("count", "lower"),
    "search.failed_iterations": ("count", "lower"),
    "search.alloc_peak_mb": ("MB", "lower"),
    "features.valuation_calls": ("count", "lower"),
    "features.valuation_s": ("s", "lower"),
    "sketches.relation_calls": ("count", "lower"),
    "sketches.relation_s": ("s", "lower"),
    "siw.segments": ("count", "lower"),
    "siw.self_s": ("s", "lower"),
    "siw.policy_steps": ("count", "lower"),
    "oracle.states": ("count", "lower"),
    "oracle.enumerate_s": ("s", "lower"),
    "oracle.states_per_s": ("1/s", "higher"),
    "oracle.successors_calls": ("count", "lower"),
    "oracle.lower_bound_s": ("s", "lower"),
    "oracle.admissible_s": ("s", "lower"),
    "oracle.sketch_width_s": ("s", "lower"),
    "oracle.family_size": ("count", "lower"),
    "oracle.subproblem_searches": ("count", "lower"),
    "cli.solve_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "wall.setup_s": ("s", "lower"),
    "wall.solve_s": ("s", "lower"),
    "wall.ref_loop_s": ("s", "lower"),
}


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: dict[str, set[str]] = {}  # layer -> boundaries not found
        self.alloc = False  # trace allocations inside each outermost search call
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[_Frame] = []
        self._next_id = 0
        self.bound_violations: list[str] = []
        self.layers_used: set[str] = set()  # layers with a call in any round
        self.reset()

    # -- per-round aggregates ------------------------------------------------

    def reset(self):
        self.calls: dict[str, int] = {}
        self.incl_s: dict[str, float] = {}  # duration of calls not nested in their own layer
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.alloc_peak = 0

    def add(self, key: str, value: float = 1):
        self.counts[key] = self.counts.get(key, 0) + value

    # -- installation --------------------------------------------------------

    def install(self):
        for layer, modname, attr, leaf in BOUNDARIES:
            try:
                module = importlib.import_module(modname)
                owner, name = module, attr
                if "." in attr:
                    cls_name, name = attr.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.setdefault(layer, set()).add(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(original, f"{modname.split('.')[-1]}.{attr}", layer, leaf)
            if owner is module:
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("widthplan"):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patches.append((mod, key, value))
                                setattr(mod, key, wrapper)
            else:
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, fn, name, layer, leaf):
        stack = self._stack
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(self._next_id, layer, 0.0, parent is None or parent.layer != layer)
            self._next_id += 1
            if self.alloc and layer == "search" and frame.outer:
                tracemalloc.start()
                frame.alloc = True
            stack.append(frame)
            frame.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                if parent is not None:
                    parent.child_s += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                if frame.outer:
                    self.incl_s[name] = self.incl_s.get(name, 0.0) + duration
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame.child_s
                if not leaf:
                    self.spans.append(Span(
                        frame.id, name, layer, frame.start, end,
                        parent.id if parent is not None else None, duration - frame.child_s,
                    ))
                if frame.alloc:
                    self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if observe is not None:
                observe(self, frame, parent, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def record(self, name: str, layer: str, start: float, end: float):
        """A span timed by the caller (the CLI pass runs with wrappers off)."""
        self.spans.append(Span(self._next_id, name, layer, start, end, None, end - start))
        self._next_id += 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.layers_used.add(layer)
        self.incl_s[name] = self.incl_s.get(name, 0.0) + end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + end - start

    # -- per-round metrics ---------------------------------------------------

    @staticmethod
    def layer_sum(table: dict[str, float], layer: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    def round_metrics(self) -> dict[str, float]:
        c, calls, incl, own = self.counts, self.calls, self.incl_s, self.self_s
        # every boundary's name starts with its layer
        self.layers_used.update(name.split(".", 1)[0] for name in calls)
        bindings = c.get("bindings", 0)
        novel, pruned = c.get("novel", 0), c.get("pruned", 0)
        states, enum_s = c.get("states", 0), incl.get("oracle.enumerate_space", 0.0)
        return {
            "domains.gen_s": self.layer_sum(incl, "domains"),
            "pddl.parse_s": self.layer_sum(incl, "pddl"),
            "grounding.ground_s": self.layer_sum(incl, "grounding"),
            "grounding.bindings": bindings,
            "grounding.actions": c.get("actions", 0),
            "grounding.kept_ratio": c.get("actions", 0) / bindings if bindings else 0.0,
            "grounding.atoms": c.get("atoms", 0),
            "strips.applicable_calls": calls.get("strips.applicable_actions", 0),
            "strips.applicable_s": incl.get("strips.applicable_actions", 0.0),
            "novelty.register_calls": calls.get("novelty.NoveltyTable.register", 0),
            "novelty.register_s": incl.get("novelty.NoveltyTable.register", 0.0),
            "novelty.novel_ratio": novel / (novel + pruned) if novel + pruned else 0.0,
            "search.calls": c.get("search_calls", 0),
            "search.self_s": self.layer_sum(own, "search"),
            "search.expanded": c.get("expanded", 0),
            "search.expanded_all": c.get("expanded_all", 0),
            "search.generated": c.get("generated", 0),
            "search.failed_iterations": c.get("failed_iterations", 0),
            "search.alloc_peak_mb": self.alloc_peak / 2**20,
            "features.valuation_calls": calls.get("features.FeatureSet.valuation", 0),
            "features.valuation_s": incl.get("features.FeatureSet.valuation", 0.0),
            "sketches.relation_calls": calls.get("sketches.relation", 0),
            "sketches.relation_s": incl.get("sketches.relation", 0.0),
            "siw.segments": c.get("segments", 0),
            "siw.self_s": self.layer_sum(own, "siw"),
            "siw.policy_steps": c.get("policy_steps", 0),
            "oracle.states": states,
            "oracle.enumerate_s": enum_s,
            "oracle.states_per_s": states / enum_s if enum_s else 0.0,
            "oracle.successors_calls": calls.get("oracle.StateSpace.successors", 0),
            "oracle.lower_bound_s": incl.get("oracle.lower_bound_witness", 0.0),
            "oracle.admissible_s": incl.get("oracle.is_admissible", 0.0),
            "oracle.sketch_width_s": incl.get("oracle.sketch_width_on", 0.0),
            "oracle.family_size": c.get("family_size", 0),
            "oracle.subproblem_searches": c.get("subproblem_searches", 0),
        }


# -- observers: counts taken from arguments and results at the boundary ------


def _observe_ground(tracer, frame, parent, args, kwargs, problem):
    domain, problem_ast = args[0], args[1]
    n_objects = len(problem_ast.objects)
    tracer.add("bindings", sum(n_objects ** len(s.params) for s in domain.schemas))
    tracer.add("actions", len(problem.actions))
    tracer.add("atoms", problem.n_atoms)


def _observe_register(tracer, frame, parent, args, kwargs, novel):
    tracer.add("novel" if novel else "pruned")


def _observe_search(tracer, frame, parent, args, kwargs, result):
    if frame.outer:
        tracer.add("search_calls")
        tracer.add("expanded", result.stats.expanded)
        tracer.add("generated", result.stats.generated)
        if parent is not None and parent.layer == "oracle":
            tracer.add("subproblem_searches")


def _observe_iw_k(tracer, frame, parent, args, kwargs, result):
    _observe_search(tracer, frame, parent, args, kwargs, result)
    problem, k = args[0], args[1]
    tracer.add("expanded_all", result.stats.expanded)
    if not result.solved:
        tracer.add("failed_iterations")
    bound = checks.iw_bound(problem.n_atoms, k)
    if result.stats.expanded > bound:
        tracer.bound_violations.append(
            f"IW({k}) on {problem.name} expanded {result.stats.expanded} > {bound}"
        )


def _observe_siw_r(tracer, frame, parent, args, kwargs, result):
    tracer.add("segments", len(result.segments))


def _observe_run_policy(tracer, frame, parent, args, kwargs, run):
    tracer.add("policy_steps", len(run.actions))


def _observe_enumerate(tracer, frame, parent, args, kwargs, space):
    tracer.add("states", len(space))


def _observe_sketch_width(tracer, frame, parent, args, kwargs, report):
    tracer.add("family_size", report.family_size)


_OBSERVERS = {
    "grounding.ground": _observe_ground,
    "novelty.NoveltyTable.register": _observe_register,
    "search.iw_k": _observe_iw_k,
    "search.iw_t": _observe_search,
    "search.iw": _observe_search,
    "search.iw_phi": _observe_search,
    "search.bfs_optimal": _observe_search,
    "siw.siw_r": _observe_siw_r,
    "siw.run_policy": _observe_run_policy,
    "oracle.enumerate_space": _observe_enumerate,
    "oracle.sketch_width_on": _observe_sketch_width,
}
