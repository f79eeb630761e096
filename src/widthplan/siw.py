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
from .strips import GroundProblem, State, is_goal, successors


class SiwError(ValueError):
    pass


STEP_CAP = 1_000_000  # run_policy stops with status "cap" after this many steps
POLICY_CLOSURE_CAP = 100_000  # policy_reachable raises past this many states


def bind(sketch: Sketch, phi: FeatureSet) -> FeatureSet:
    """Features of `phi` reordered to the sketch's declaration order."""
    return phi.select(sketch.names_kinds)


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
    or when the cycle guard trips on a revisited segment start or the segment
    cap (`reason` starts with "cycle").
    """
    bound = bind(sketch, phi)
    # generous: cyclic rule sets are caught by the revisit check
    max_segments = max(problem.n_atoms, 2) ** (len(sketch.numeric_indices()) + 1)

    totals = SearchStats()
    segments: list[Segment] = []
    plan: list[int] = []
    s = problem.init
    seen_starts = {s}

    while not is_goal(problem, s):
        if len(segments) >= max_segments:
            return SerializedResult(
                Outcome.FAILURE, None, segments, totals,
                reason=f"cycle guard: segment cap {max_segments} reached",
            )
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
    bound = bind(sketch, phi)
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
        succs = successors(problem, s)
        expanded += 1
        generated += len(succs)
        chosen = None
        for aid, succ in succs:
            if relation(sketch, values, bound.valuation(problem, succ)):
                chosen = (aid, succ)
                break
        if chosen is None:
            status = "stuck"
            break
        aid, s = chosen
        actions.append(aid)
        states.append(s)
        if s in visited and not is_goal(problem, s):
            status = "cyclic"
            break
        visited.add(s)

    return PolicyRun(status, states, actions, expanded, generated)


def policy_reachable(problem: GroundProblem, sketch: Sketch, phi: FeatureSet) -> set[State]:
    """Closure of the initial state under all policy transitions
    (transitions leaving non-goal states that satisfy some rule)."""
    bound = bind(sketch, phi)
    seen = {problem.init}
    frontier = [problem.init]
    while frontier:
        s = frontier.pop()
        if is_goal(problem, s):
            continue
        values = bound.valuation(problem, s)
        for _, succ in successors(problem, s):
            if succ in seen:
                continue
            if relation(sketch, values, bound.valuation(problem, succ)):
                seen.add(succ)
                frontier.append(succ)
                if len(seen) > POLICY_CLOSURE_CAP:
                    raise SiwError(f"policy closure exceeds {POLICY_CLOSURE_CAP} states")
    return seen
