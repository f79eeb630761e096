"""Greedy serialized search over sketch subgoals, and direct policy execution.

The serialized driver repeatedly runs an iterated-width search from the
current state toward the nearest state that is a goal or relates to the
segment start under the sketch, concatenating the segment plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .features import FeatureSet
from .search import Outcome, SearchStats, iw, sum_stats
from .sketches import Sketch, relation
from .strips import GroundProblem, State, applicable_actions, is_goal

STEP_CAP = 1_000_000  # run_policy stops with status "cap" after this many steps


@dataclass
class Segment:
    k: int
    plan: list[int]
    start_values: tuple[int, ...]
    end_values: tuple[int, ...]
    iterations: list[SearchStats] = field(default_factory=list)  # one per IW(k) run

    @property
    def stats(self) -> SearchStats:
        """What finding this segment cost, summed over its IW(k) runs."""
        return sum_stats(self.iterations)


@dataclass
class SerializedResult:
    """`stats` sums every IW(k) run of every inner search, failed ones and
    the last, unsolved segment's included."""

    outcome: Outcome
    plan: list[int] | None
    segments: list[Segment]
    stats: SearchStats
    reason: str | None = None
    goal_state: State | None = None

    @property
    def solved(self) -> bool:
        return self.outcome is Outcome.SOLVED


def siw_r(
    problem: GroundProblem,
    sketch: Sketch,
    phi: FeatureSet,
    *,
    k_max: int,
    max_nodes: int | None = None,
) -> SerializedResult:
    """Solve by chaining subgoal segments, each found by IW with k <= k_max.

    Fails when an inner search exhausts k_max (`reason` starts with "inner")
    or when a segment ends in a state that already started one (`reason`
    starts with "cycle").  Segment starts are distinct states, so the loop
    ends on any finite state space.
    """
    bound = phi.select(sketch.names_kinds)
    totals = SearchStats()
    segments: list[Segment] = []
    plan: list[int] = []
    s = problem.init
    seen_starts = {s}

    while not is_goal(problem, s):
        start_values = bound.valuation(problem, s)
        # the search stops at the first state the test accepts, so the last
        # state valued is the segment's end unless that end is a goal
        last_state, last_values = None, None

        def subgoal(st: State) -> bool:
            nonlocal last_state, last_values
            if is_goal(problem, st):
                return True
            last_state, last_values = st, bound.valuation(problem, st)
            return relation(sketch, start_values, last_values)

        result = iw(problem, subgoal, start=s, max_k=k_max, max_nodes=max_nodes)
        totals = sum_stats([totals, *result.iterations])
        if not result.solved:
            return SerializedResult(
                Outcome.FAILURE, None, segments, totals,
                reason=f"inner search exhausted k_max={k_max}: {result.reason}",
            )
        s2 = result.goal_state
        end_values = last_values if s2 == last_state else bound.valuation(problem, s2)
        segments.append(Segment(result.k, result.plan, start_values, end_values, result.iterations))
        plan.extend(result.plan)
        s = s2
        if not is_goal(problem, s):
            if s in seen_starts:
                return SerializedResult(
                    Outcome.FAILURE, None, segments, totals,
                    reason="cycle guard: segment start revisited",
                )
            seen_starts.add(s)

    return SerializedResult(Outcome.SOLVED, plan, segments, totals, goal_state=s)


@dataclass
class PolicyRun:
    status: str  # "goal" | "stuck" | "cyclic" | "cap"
    states: list[State]
    actions: list[int]
    expanded: int = 0  # states whose successors were computed
    generated: int = 0  # successors computed

    @property
    def reached_goal(self) -> bool:
        return self.status == "goal"


def run_policy(problem: GroundProblem, sketch: Sketch, phi: FeatureSet) -> PolicyRun:
    """Follow the rule relation greedily from the initial state, taking the
    first compatible successor in canonical action order at each step."""
    bound = phi.select(sketch.names_kinds)
    acts = problem.actions
    s = problem.init
    states = [s]
    actions: list[int] = []
    visited = {s}
    status = "goal"
    expanded = generated = 0

    while not is_goal(problem, s):
        if len(actions) >= STEP_CAP:
            status = "cap"
            break
        values = bound.valuation(problem, s)
        aids = applicable_actions(problem, s)
        expanded += 1
        generated += len(aids)
        for aid in aids:
            act = acts[aid]
            succ = (s & ~act.delete) | act.add
            if relation(sketch, values, bound.valuation(problem, succ)):
                break
        else:
            status = "stuck"
            break
        s = succ
        actions.append(aid)
        states.append(s)
        if s in visited and not is_goal(problem, s):
            status = "cyclic"
            break
        visited.add(s)

    return PolicyRun(status, states, actions, expanded, generated)

