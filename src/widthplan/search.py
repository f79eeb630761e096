"""Breadth-first search with exact expansion/generation accounting.

One engine serves IW(k), IW(T), IW(Phi) and plain BFS.  It dequeues FIFO,
tests the goal on the dequeued state before any pruning decision, generates
successors in ascending action-id order and drops a successor already
generated, so node counts are reproducible.  `generated` counts the root and
every successor, duplicates included; `pruned` counts the dequeued states
the pruning test rejected.  Besides the queue and the pruning test's table,
the search keeps one parent state per generated state; a plan is read back
from that chain, each step being the lowest-id action between two linked
states, which is the action that linked them.
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
    pruned: int = 0
    wall_ms: float = 0.0


def sum_stats(parts) -> SearchStats:
    """Counts and times added up over `parts`."""
    total = SearchStats()
    for st in parts:
        total.expanded += st.expanded
        total.generated += st.generated
        total.pruned += st.pruned
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


def _bfs(
    problem: GroundProblem,
    accept: Callable[[State, State], bool] | None,
    max_nodes: int | None,
    goal_test: GoalTest | None = None,
    start: State | None = None,
) -> SearchResult:
    """The one search engine.  It runs from `start` (default: the initial
    state) to the first state `goal_test` accepts (default: the problem's
    goal), and drops every successor already generated.

    A dequeued non-goal state is expanded iff `accept(state, flipped)` says
    so, where `flipped` holds the atoms that differ from its parent (for the
    root, the root itself).  Dropping a duplicate changes no expansion and
    no plan: its first copy was dequeued earlier and marked as seen all that
    the duplicate could make new, so `accept` would reject it.  With no
    `accept` every state is expanded, which is plain BFS, and an exhausted
    queue means that no plan exists.

    `parent` maps each generated state to the state whose expansion first
    generated it (the root to None), so the search keeps one reference per
    state and no action.  A plan step p -> c is recovered as the lowest-id
    action applicable in p whose successor is c.  That is the action that
    linked them: `parent[c]` is set only when c is first generated, during
    the one expansion of p, which tries the actions applicable in p in
    ascending id order, so the first of them to reach c has the lowest id.
    Recovery costs one `applicable_actions` call per plan step, made once,
    at the goal.
    """
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be >= 0, got {max_nodes}")
    t0 = time.perf_counter()
    if goal_test is None:
        goal_test = partial(is_goal, problem)
    stats = SearchStats(generated=1)
    root = problem.init if start is None else start
    actions = problem.actions
    parent: dict[State, State | None] = {root: None}
    queue: deque[State] = deque([root])

    def done(outcome: Outcome, reason: str | None = None, goal: State | None = None):
        stats.wall_ms = (time.perf_counter() - t0) * 1000.0
        plan = None
        if goal is not None:
            plan = []
            c, p = goal, parent[goal]
            while p is not None:
                plan.append(next(
                    aid for aid in applicable_actions(problem, p)
                    if (p & ~actions[aid].delete) | actions[aid].add == c
                ))
                c, p = p, parent[p]
            plan.reverse()
        return SearchResult(outcome, plan, stats, reason=reason, goal_state=goal)

    while queue:
        s = queue.popleft()
        if goal_test(s):
            return done(Outcome.SOLVED, goal=s)
        if accept is not None:
            p = parent[s]
            if not accept(s, s if p is None else s ^ p):
                stats.pruned += 1
                continue
        stats.expanded += 1
        aids = applicable_actions(problem, s)
        stats.generated += len(aids)
        for aid in aids:
            act = actions[aid]
            succ = (s & ~act.delete) | act.add
            if succ not in parent:
                parent[succ] = s
                queue.append(succ)
        if max_nodes is not None and stats.generated > max_nodes:
            return done(Outcome.FAILURE, f"node limit {max_nodes} exceeded")

    if accept is None:
        return done(Outcome.NO_PLAN, "state space exhausted")
    return done(Outcome.FAILURE, "queue exhausted")


def bfs_optimal(problem: GroundProblem, *, max_nodes: int | None = None) -> SearchResult:
    """Plain breadth-first search: the engine with nothing pruned; optimal plans."""
    return _bfs(problem, None, max_nodes)


def iw_t(
    problem: GroundProblem, tuples: TupleSet, *, max_nodes: int | None = None
) -> SearchResult:
    """Breadth-first search pruning states that make no tracked tuple true
    for the first time; FAILURE means the tuple set is not admissible."""
    return _bfs(problem, NoveltyTable(tuples).register, max_nodes)


def iw_k(
    problem: GroundProblem,
    k: int,
    goal_test: GoalTest | None = None,
    *,
    start: State | None = None,
    max_nodes: int | None = None,
) -> SearchResult:
    """Novelty search over all tuples of at most k atoms.

    The empty tuple lets the start state through, so k=0 checks the start
    state and its direct successors and expands nothing else.
    """
    table = NoveltyTable(all_tuples_up_to(problem, k))
    result = _bfs(problem, table.register, max_nodes, goal_test, start)
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
    """Run iw_k for k = 0, 1, ..., max_k until a plan is found; max_k
    defaults to, and is capped at, the atom count n, above which IW(k) is
    IW(n).  Grounding numbers only the atoms that can be true (and the goal
    atoms); a tuple holding any other atom is never true, so counting those
    would only repeat IW(n).

    Stops early when a failed iteration pruned no state (duplicates are
    dropped when generated): it searched the whole reachable space, so no
    plan exists.
    `max_nodes` is a budget: the first iteration that hits it ends the run
    with FAILURE instead of moving on to a larger k.
    """
    if max_k is not None and max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {max_k}")
    top = problem.n_atoms if max_k is None else min(max_k, problem.n_atoms)
    iterations: list[SearchStats] = []
    for k in range(top + 1):
        result = iw_k(problem, k, goal_test, start=start, max_nodes=max_nodes)
        iterations.append(result.stats)
        if result.solved:
            result.iterations = iterations
            return result
        if max_nodes is not None and result.stats.generated > max_nodes:
            result.reason = f"{result.reason} at k={k}"
            result.iterations = iterations
            return result
        if result.stats.pruned == 0:
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

    return _bfs(problem, accept, max_nodes)
