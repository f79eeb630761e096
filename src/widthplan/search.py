"""Breadth-first search engines with exact expansion/generation accounting.

All engines dequeue FIFO, test the goal on the dequeued state before any
pruning decision, and generate successors in ascending action-id order, so
node counts are reproducible.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable

from .novelty import NoveltyTable, TupleSet, all_tuples_up_to
from .strips import GroundProblem, State, applicable_actions, is_goal

GoalTest = Callable[[State], bool]


class Outcome(Enum):
    SOLVED = "solved"
    FAILURE = "failure"
    NO_PLAN = "no_plan"


@dataclass
class SearchStats:
    expanded: int = 0
    generated: int = 0
    max_queue: int = 0
    pruned: int = 0
    pruned_duplicate: int = 0
    wall_ms: float = 0.0


def sum_stats(parts) -> SearchStats:
    """Counts and times added up over `parts`; `max_queue` is their maximum."""
    total = SearchStats()
    for st in parts:
        total.expanded += st.expanded
        total.generated += st.generated
        total.max_queue = max(total.max_queue, st.max_queue)
        total.pruned += st.pruned
        total.pruned_duplicate += st.pruned_duplicate
        total.wall_ms += st.wall_ms
    return total


@dataclass
class SearchResult:
    """`stats` are those of the search that produced the outcome; for the
    iterated search `iw` that is the last IW(k) run, and `iterations` holds
    the stats of every IW(k) run it made, in order."""

    outcome: Outcome
    plan: list[int] | None
    stats: SearchStats
    k: int | None = None
    reason: str | None = None
    goal_state: State | None = None
    iterations: list[SearchStats] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.outcome is Outcome.SOLVED


class _Node:
    __slots__ = ("state", "parent", "action", "delta")

    def __init__(self, state, parent, action, delta):
        self.state = state
        self.parent = parent
        self.action = action
        self.delta = delta


def _extract_plan(node: _Node) -> list[int]:
    plan = []
    while node.parent is not None:
        plan.append(node.action)
        node = node.parent
    plan.reverse()
    return plan


def _pruned_bfs(
    problem: GroundProblem,
    accept: Callable[[State, State | None], bool],
    max_nodes: int | None,
    goal_test: GoalTest | None = None,
    start: State | None = None,
) -> SearchResult:
    """Shared engine: expand a dequeued non-goal node iff `accept` says so.
    The search starts from `start` (default: the initial state) and stops at
    the first state `goal_test` accepts (default: the problem's goal)."""
    t0 = time.perf_counter()
    if goal_test is None:
        goal_test = partial(is_goal, problem)
    stats = SearchStats()
    root = problem.init if start is None else start
    queue: deque[_Node] = deque([_Node(root, None, None, None)])
    stats.generated = 1
    stats.max_queue = 1
    dequeued: set[State] = set()

    while queue:
        node = queue.popleft()
        s = node.state
        if goal_test(s):
            stats.wall_ms = (time.perf_counter() - t0) * 1000.0
            return SearchResult(Outcome.SOLVED, _extract_plan(node), stats, goal_state=s)
        if not accept(s, node.delta):
            stats.pruned += 1
            if s in dequeued:
                stats.pruned_duplicate += 1
            dequeued.add(s)
            continue
        dequeued.add(s)
        stats.expanded += 1
        for aid in applicable_actions(problem, s):
            act = problem.actions[aid]
            succ = (s & ~act.delete) | act.add
            queue.append(_Node(succ, node, aid, s ^ succ))
            stats.generated += 1
        if len(queue) > stats.max_queue:
            stats.max_queue = len(queue)
        if max_nodes is not None and stats.generated > max_nodes:
            stats.wall_ms = (time.perf_counter() - t0) * 1000.0
            return SearchResult(
                Outcome.FAILURE, None, stats, reason=f"node limit {max_nodes} exceeded"
            )

    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return SearchResult(Outcome.FAILURE, None, stats, reason="queue exhausted")


def bfs_optimal(problem: GroundProblem, *, max_nodes: int | None = None) -> SearchResult:
    """Plain breadth-first search with duplicate elimination; optimal plans."""
    t0 = time.perf_counter()
    root = problem.init
    stats = SearchStats()
    queue: deque[State] = deque([root])
    parent: dict[State, tuple[State, int] | None] = {root: None}
    stats.generated = 1
    stats.max_queue = 1

    while queue:
        s = queue.popleft()
        if is_goal(problem, s):
            plan = []
            cur = s
            while parent[cur] is not None:
                prev, aid = parent[cur]
                plan.append(aid)
                cur = prev
            plan.reverse()
            stats.wall_ms = (time.perf_counter() - t0) * 1000.0
            return SearchResult(Outcome.SOLVED, plan, stats, goal_state=s)
        stats.expanded += 1
        for aid in applicable_actions(problem, s):
            act = problem.actions[aid]
            succ = (s & ~act.delete) | act.add
            if succ in parent:
                continue
            parent[succ] = (s, aid)
            queue.append(succ)
            stats.generated += 1
        if len(queue) > stats.max_queue:
            stats.max_queue = len(queue)
        if max_nodes is not None and stats.generated > max_nodes:
            stats.wall_ms = (time.perf_counter() - t0) * 1000.0
            return SearchResult(
                Outcome.FAILURE, None, stats, reason=f"node limit {max_nodes} exceeded"
            )

    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return SearchResult(Outcome.NO_PLAN, None, stats, reason="state space exhausted")


def iw_t(
    problem: GroundProblem, tuples: TupleSet, *, max_nodes: int | None = None
) -> SearchResult:
    """Breadth-first search pruning states that make no tracked tuple true
    for the first time; FAILURE means the tuple set is not admissible."""
    return _pruned_bfs(problem, NoveltyTable(tuples).register, max_nodes)


def iw_k(
    problem: GroundProblem,
    k: int,
    goal_test: GoalTest | None = None,
    *,
    start: State | None = None,
    max_nodes: int | None = None,
) -> SearchResult:
    """Novelty search over all tuples of at most k atoms.

    k=0 degenerates to checking the start state and its direct successors:
    tracking just the empty tuple expands the root once and prunes all else.
    """
    tracked = TupleSet.from_iterable([()]) if k == 0 else all_tuples_up_to(problem, k)
    result = _pruned_bfs(problem, NoveltyTable(tracked).register, max_nodes, goal_test, start)
    result.k = k
    return result


def iw(
    problem: GroundProblem,
    goal_test: GoalTest | None = None,
    *,
    start: State | None = None,
    max_k: int | None = None,
    max_nodes: int | None = None,
) -> SearchResult:
    """Run iw_k for k = 0, 1, ..., max_k (default: the atom count) until a
    plan is found.

    Stops early when a failed iteration pruned nothing but duplicate states:
    larger k would expand and prune exactly the same sets, so no plan exists.
    `max_nodes` is a budget: the first iteration that hits it ends the run
    with FAILURE instead of moving on to a larger k.
    """
    top = problem.n_atoms if max_k is None else max_k
    if not 0 <= top <= problem.n_atoms:
        raise ValueError(f"max_k={top} out of range 0..{problem.n_atoms}")
    iterations: list[SearchStats] = []
    for k in range(top + 1):
        result = iw_k(problem, k, goal_test, start=start, max_nodes=max_nodes)
        iterations.append(result.stats)
        if result.solved:
            result.iterations = iterations
            return result
        if result.reason != "queue exhausted":  # the node limit
            result.reason = f"{result.reason} at k={k}"
            result.iterations = iterations
            return result
        if result.stats.pruned == result.stats.pruned_duplicate:
            return SearchResult(
                Outcome.NO_PLAN, None, result.stats, k=k,
                reason=f"complete at k={k}: only duplicate states pruned",
                iterations=iterations,
            )
    return SearchResult(
        Outcome.NO_PLAN, None, iterations[-1], k=top, reason=f"no plan up to k={top}",
        iterations=iterations,
    )


def iw_phi(problem: GroundProblem, phi, *, max_nodes: int | None = None) -> SearchResult:
    """Breadth-first search pruning states whose feature valuation was seen.

    `phi` is a FeatureSet (or any object with `valuation(problem, state)`).
    """
    seen: set[tuple] = set()

    def accept(s: State, _delta) -> bool:
        v = phi.valuation(problem, s)
        if v in seen:
            return False
        seen.add(v)
        return True

    return _pruned_bfs(problem, accept, max_nodes)
