"""Brute-force verification on exhaustively enumerable instances: optimal
costs, optimal-state sets for tuples, cost-envelopes, admissibility of tuple
sets, width lower bounds, the effective-width surrogate, feature-acyclicity,
and sketch width over the induced subproblem family.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .features import FeatureSet
from .novelty import TupleSet
from .search import GoalTest, bfs_optimal, iw_k
from .siw import bind
from .sketches import Sketch, pair_satisfies, strongly_connected_components
from .strips import GroundProblem, State, applicable_actions, is_goal


class OracleError(ValueError):
    pass


DEFAULT_CAP = 200_000
LOWER_BOUND_MAX_K = 2  # largest k `lower_bound_witness` supports


@dataclass
class StateSpace:
    """Forward closure of the reachable states with cost maps and the state
    graph.

    States are numbered in breadth-first order, so `cost` does not decrease
    along `states`.  The graph is stored once, in compressed sparse rows: row
    i, `targets[offsets[i]:offsets[i + 1]]`, holds the successor index under
    each action applicable in state i, in ascending action-id order.  Memory
    is linear in the number of edges.  `cost_star` equals `cost` on non-goal
    states and the problem cost on goal states.
    """

    problem: GroundProblem
    states: list[State]
    index: dict[State, int]
    cost: array  # array('i')
    goal_flags: bytearray
    problem_cost: int | None
    offsets: array  # array('i'), len(states) + 1 entries
    targets: array  # array('i'), one entry per edge
    _goal_distance: list[int | None] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def start(self) -> State:
        """The initial state; its index is 0."""
        return self.states[0]

    def is_goal_state(self, idx: int) -> bool:
        return bool(self.goal_flags[idx])

    def cost_star(self, idx: int) -> int | None:
        if self.goal_flags[idx]:
            return self.problem_cost
        return self.cost[idx]

    def row(self, idx: int) -> array:
        """Successor indices of state `idx`, one per applicable action."""
        return self.targets[self.offsets[idx]:self.offsets[idx + 1]]

    def successors(self, idx: int) -> list[tuple[int, int]]:
        """(action_id, successor index) pairs in canonical order."""
        return list(zip(applicable_actions(self.problem, self.states[idx]), self.row(idx)))

    @property
    def goal_distance(self) -> list[int | None]:
        """Backward breadth-first distance to the nearest goal state."""
        if self._goal_distance is None:
            offsets, targets = self.offsets, self.targets
            preds: list[list[int]] = [[] for _ in self.states]
            for i in range(len(self.states)):
                for j in targets[offsets[i]:offsets[i + 1]]:
                    preds[j].append(i)
            dist: list[int | None] = [None] * len(self.states)
            queue = [i for i, g in enumerate(self.goal_flags) if g]
            for i in queue:
                dist[i] = 0
            pos = 0
            while pos < len(queue):
                i = queue[pos]
                pos += 1
                for j in preds[i]:
                    if dist[j] is None:
                        dist[j] = dist[i] + 1
                        queue.append(j)
            self._goal_distance = dist
        return self._goal_distance


def enumerate_space(problem: GroundProblem, cap: int = DEFAULT_CAP) -> StateSpace:
    """Breadth-first closure from the initial state."""
    root = problem.init
    actions = problem.actions
    states = [root]  # also the FIFO: states are appended in dequeue order
    index = {root: 0}
    cost = array("i", [0])
    offsets = array("i", [0])
    targets = array("i")
    lookup, push = index.get, targets.append
    i = 0
    n = 1
    while i < n:
        s = states[i]
        c = cost[i] + 1
        for aid in applicable_actions(problem, s):
            act = actions[aid]
            succ = (s & ~act.delete) | act.add
            j = lookup(succ)
            if j is None:
                if n >= cap:
                    raise OracleError(f"state space exceeds cap {cap}")
                j = index[succ] = n
                n += 1
                states.append(succ)
                cost.append(c)
            push(j)
        offsets.append(len(targets))
        i += 1
    goal_flags = bytearray(is_goal(problem, s) for s in states)
    first_goal = goal_flags.find(1)  # costs do not decrease along `states`
    problem_cost = cost[first_goal] if first_goal >= 0 else None
    return StateSpace(problem, states, index, cost, goal_flags, problem_cost, offsets, targets)


# ---------------------------------------------------------------------------
# Optimal states for tuple sets


def _first_holding(space: StateSpace, mask: State) -> int:
    """Index of the first, hence cheapest, state making the tuple true; -1 if none."""
    for i, s in enumerate(space.states):
        if s & mask == mask:
            return i
    return -1


def tuple_cost(space: StateSpace, mask: State) -> int | None:
    """Min cost of a state making the tuple true; None if unreachable."""
    i = _first_holding(space, mask)
    return space.cost[i] if i >= 0 else None


def opt_states(space: StateSpace, tuples: TupleSet) -> set[int]:
    """Indices of min-cost states for each tuple, unioned over the set."""
    states, cost = space.states, space.cost
    out: set[int] = set()
    for mask in tuples.masks():
        first = _first_holding(space, mask)
        if first < 0:
            continue
        end = bisect_right(cost, cost[first], first)
        out.update(i for i in range(first, end) if states[i] & mask == mask)
    return out


# ---------------------------------------------------------------------------
# Envelopes and admissibility


@dataclass
class EnvelopeReport:
    ok: bool
    witness: State | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def is_cost_envelope(space: StateSpace, member_idxs: set[int]) -> EnvelopeReport:
    """A set of states is a cost-envelope iff it contains the initial state
    and every non-goal member has a successor member of strictly larger
    finite optimal cost."""
    if 0 not in member_idxs:
        return EnvelopeReport(False, space.start, "initial state not in the set")
    goal, cost, pc = space.goal_flags, space.cost, space.problem_cost
    offsets, targets = space.offsets, space.targets
    for i in member_idxs:
        if goal[i]:
            continue
        ci = cost[i]
        ok = False
        for j in targets[offsets[i]:offsets[i + 1]]:
            if j not in member_idxs:
                continue
            cj = pc if goal[j] else cost[j]
            if cj is not None and ci < cj:
                ok = True
                break
        if not ok:
            return EnvelopeReport(
                False, space.states[i], "no cost-increasing successor inside the set"
            )
    return EnvelopeReport(True)


def _require_strips(problem: GroundProblem, what: str):
    if problem.goal_neg:
        raise OracleError(f"{what} requires a positive-conjunction goal")


@dataclass
class AdmissibleReport:
    ok: bool
    witness: State | None = None
    reason: str = ""
    envelope: EnvelopeReport | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_admissible(space: StateSpace, tuples: TupleSet) -> AdmissibleReport:
    """Check admissibility of a tuple set by two independent routes and
    insist they agree.

    Direct route: some tuple holds initially, and from every non-goal
    min-cost state of a tuple some successor is a min-cost state of a tuple
    of cost exactly one more.  Envelope route: the union of min-cost states
    is a cost-envelope.
    """
    _require_strips(space.problem, "admissibility")
    for mask in tuples.masks():
        if tuple_cost(space, mask) is None:
            atoms = space.problem.state_str(mask)
            return AdmissibleReport(False, mask, f"unreachable tuple {atoms}")

    direct = _admissible_direct(space, tuples)
    envelope = is_cost_envelope(space, opt_states(space, tuples))
    if direct.ok != envelope.ok:
        raise OracleError(
            "admissibility routes disagree: "
            f"direct={direct.ok} ({direct.reason}), envelope={envelope.ok} ({envelope.reason})"
        )
    direct.envelope = envelope
    return direct


def _admissible_direct(space: StateSpace, tuples: TupleSet) -> AdmissibleReport:
    masks = tuples.masks()
    costs = [tuple_cost(space, m) for m in masks]
    start = space.start
    if not any(start & m == m for m in masks):
        return AdmissibleReport(False, start, "no tuple true in the initial state")

    states, cost, goal, pc = space.states, space.cost, space.goal_flags, space.problem_cost
    offsets, targets = space.offsets, space.targets
    # Optimal plans ending in goal states are terminal; any other optimal
    # plan for a tuple must extend by one action into an optimal plan for
    # another tuple of the set.  The min-cost states of a tuple of cost c all
    # lie in the cost-c layer of `states`.
    for mask, c in zip(masks, costs):
        next_masks = [m2 for m2, c2 in zip(masks, costs) if c2 == c + 1]
        lo = bisect_left(cost, c)
        for i in range(lo, bisect_right(cost, c, lo)):
            s = states[i]
            if s & mask != mask or goal[i]:
                continue
            extended = False
            for j in targets[offsets[i]:offsets[i + 1]]:
                if (pc if goal[j] else cost[j]) != c + 1:
                    continue
                sj = states[j]
                if any(sj & m2 == m2 for m2 in next_masks):
                    extended = True
                    break
            if not extended:
                return AdmissibleReport(
                    False,
                    s,
                    f"optimal state for tuple {space.problem.state_str(mask)} "
                    "has no one-step extension to another tuple",
                )
    return AdmissibleReport(True)


# ---------------------------------------------------------------------------
# Width bounds


def _opt_membership(space: StateSpace, k: int) -> bytearray:
    """For T = all tuples of size <= k: whether each state is a min-cost
    state of some tuple true in it.

    Costs do not decrease along `states`, so a tuple's min-cost states are
    the holders of the tuple in the first cost layer that holds it.  One pass
    over the layers keeps, as bit masks, what earlier layers held: the atoms
    (`seen`) and, per fluent atom a, the atoms held together with a
    (`with_[a]`).  An atom is new in a layer iff it is not in `seen`; a pair
    {a, b} is new iff b is not in `with_[a]`.
    """
    if k > LOWER_BOUND_MAX_K:
        raise OracleError(f"width lower-bound check supports k <= {LOWER_BOUND_MAX_K}")
    states, cost = space.states, space.cost
    n = len(states)
    member = bytearray(n)
    if k <= 0:
        member[0] = k == 0  # only the empty tuple, true exactly at cost 0
        return member
    # A non-fluent atom is held by every state, so a pair holding one is new
    # exactly when its other atom is: the single-atom test covers it, and the
    # pair test walks the fluent atoms only.
    fluent = space.problem.fluent_mask
    with_ = [0] * space.problem.n_atoms
    seen = 0
    lo = 0
    while lo < n:
        hi = bisect_right(cost, cost[lo], lo)
        held = 0
        for i in range(lo, hi):
            held |= states[i]
        new = held & ~seen
        for i in range(lo, hi):
            s = states[i]
            if s & new:
                member[i] = 1
            elif k == 2:
                rest = s & fluent
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if s & ~(with_[low.bit_length() - 1] | low):
                        member[i] = 1
                        break
        if k == 2:
            for i in range(lo, hi):
                s = states[i]
                rest = s & fluent
                while rest:
                    low = rest & -rest
                    rest ^= low
                    a = low.bit_length() - 1
                    with_[a] |= s
        seen |= held
        lo = hi
    return member


def lower_bound_witness(space: StateSpace, k: int) -> bool:
    """True iff no optimal goal-reaching trajectory stays inside the min-cost
    states of size-<=k tuples; this certifies that the width exceeds k."""
    _require_strips(space.problem, "the width lower bound")
    if space.problem_cost is None:
        raise OracleError("width lower bound needs a solvable instance")
    member = _opt_membership(space, k)
    # forward reachability from the start through cost+1 transitions inside
    # the membership set, looking for a closest goal state
    if not member[0]:
        return True
    cost, goal, pc = space.cost, space.goal_flags, space.problem_cost
    offsets, targets = space.offsets, space.targets
    seen = bytearray(len(space))
    seen[0] = 1
    queue = [0]
    pos = 0
    while pos < len(queue):
        i = queue[pos]
        pos += 1
        ci = cost[i]
        if goal[i] and ci == pc:
            return False
        for j in targets[offsets[i]:offsets[i + 1]]:
            if not seen[j] and member[j] and cost[j] == ci + 1:
                seen[j] = 1
                queue.append(j)
    return True


def effective_width(problem: GroundProblem, k_cap: int = 3) -> int | None:
    """Smallest k <= k_cap for which the novelty search of width k returns a
    plan of optimal length; None when every k up to the cap falls short.

    This surrogate upper-bounds how much pruning the instance tolerates; a
    certified width needs the lower-bound witness bracket as well.
    """
    _require_strips(problem, "effective width")
    base = bfs_optimal(problem)
    if not base.solved:
        raise OracleError(f"reference search failed: {base.reason}")
    return _smallest_width(problem, len(base.plan), k_cap)


def effective_width_on(space: StateSpace, k_cap: int = 3) -> int | None:
    """`effective_width` with the optimal cost read from the enumerated space
    instead of a reference search."""
    _require_strips(space.problem, "effective width")
    if space.problem_cost is None:
        raise OracleError("reference search failed: state space exhausted")
    return _smallest_width(space.problem, space.problem_cost, k_cap)


def _smallest_width(
    problem: GroundProblem,
    optimal: int,
    k_cap: int,
    *,
    start: State | None = None,
    goal_test: GoalTest | None = None,
) -> int | None:
    """Smallest k <= k_cap whose IW(k) returns a plan of length `optimal`."""
    for k in range(k_cap + 1):
        result = iw_k(problem, k, goal_test, start=start)
        if result.solved and len(result.plan) == optimal:
            return k
    return None


# ---------------------------------------------------------------------------
# Feature-acyclicity and sketch width


def _compatibility(space: StateSpace, sketch: Sketch, phi: FeatureSet):
    """Per state, the index of its feature valuation among the realized
    ones; and per pair (a, b) of realized valuations, whether some rule is
    compatible with going from a to b."""
    bound = bind(sketch, phi)
    vals: list[tuple[int, ...]] = []
    val_index: dict[tuple[int, ...], int] = {}
    state_val: list[int] = []
    for s in space.states:
        v = bound.valuation(space.problem, s)
        vi = val_index.get(v)
        if vi is None:
            vi = len(vals)
            val_index[v] = vi
            vals.append(v)
        state_val.append(vi)
    compat = [
        [any(pair_satisfies(rule, va, vb) for rule in sketch.rules) for vb in vals]
        for va in vals
    ]
    return state_val, compat


def is_feature_acyclic_on(space: StateSpace, sketch: Sketch, phi: FeatureSet) -> bool:
    """No chain of reachable states under the sketch relation repeats a
    feature valuation.

    Since the relation only depends on the valuations of a pair, a chain
    repeating a valuation exists iff the compatibility digraph over the
    realized valuations has a cycle (self-loops included).
    """
    _, compat = _compatibility(space, sketch, phi)
    n = len(compat)
    # pair (s, s') compatible means s' precedes s: edge a -> b
    succ = [[b for b in range(n) if row[b]] for row in compat]
    for scc in strongly_connected_components(n, succ):
        if len(scc) > 1 or compat[scc[0]][scc[0]]:
            return False
    return True


@dataclass
class SketchWidthReport:
    value: int | None  # None means some subproblem exceeds the cap (or a dead end)
    family_size: int
    subproblem_widths: dict[int, int | None]  # start state index -> width
    reason: str = ""

    @property
    def bounded(self) -> bool:
        return self.value is not None


def sketch_width_on(
    space: StateSpace, sketch: Sketch, phi: FeatureSet, k_cap: int = 2
) -> SketchWidthReport:
    """Max effective width over the family of subproblems the sketch induces
    from the initial state.

    A subproblem from state s asks for a goal state or a state below s in
    the sketch relation.  Successor subgoals induce new subproblems; distant
    subgoals only do when no successor of s is a goal or subgoal.
    """
    problem = space.problem
    state_val, compat = _compatibility(space, sketch, phi)
    states, index, goal_flags = space.states, space.index, space.goal_flags
    offsets, targets = space.offsets, space.targets
    family: list[int] = [0]
    in_family = {0}
    pos = 0
    while pos < len(family):
        i = family[pos]
        pos += 1
        if goal_flags[i]:
            continue
        ca = state_val[i]
        succs = targets[offsets[i]:offsets[i + 1]]
        has_goal_or_subgoal_succ = any(
            goal_flags[j] or compat[ca][state_val[j]] for j in succs
        )
        new_starts: list[int] = []
        if has_goal_or_subgoal_succ:
            for j in succs:
                if not goal_flags[j] and compat[ca][state_val[j]]:
                    new_starts.append(j)
        else:
            new_starts = [
                j for j, _d in _breadth_first(space, i)
                if not goal_flags[j] and compat[ca][state_val[j]]
            ]
        for j in new_starts:
            if j not in in_family:
                in_family.add(j)
                family.append(j)

    # Subproblems ask for the problem's own goal; every state reachable from
    # a family member is in the space, so subgoal tests are index lookups.
    widths: dict[int, int | None] = {}
    worst: int = 0
    for i in family:
        if goal_flags[i]:
            widths[i] = 0
            continue
        below = compat[state_val[i]]

        def reached(j: int, below=below) -> bool:
            return bool(goal_flags[j] or below[state_val[j]])

        def subgoal(st: State, reached=reached) -> bool:
            return reached(index[st])

        optimal = next((d for j, d in _breadth_first(space, i) if reached(j)), None)
        # no goal or subgoal reachable: a dead-end subproblem
        w = None if optimal is None else _smallest_width(
            problem, optimal, k_cap, start=states[i], goal_test=subgoal
        )
        widths[i] = w
        if w is None:
            return SketchWidthReport(
                None, len(family), widths,
                reason=f"subproblem from {problem.state_str(states[i])} "
                f"has width above {k_cap} or is a dead end",
            )
        worst = max(worst, w)
    return SketchWidthReport(worst, len(family), widths)


def _breadth_first(space: StateSpace, i: int):
    """(index, distance) of every state reachable from state i, in
    breadth-first order."""
    offsets, targets = space.offsets, space.targets
    seen = bytearray(len(space))
    seen[i] = 1
    layer = [i]
    d = 0
    while layer:
        nxt = []
        for a in layer:
            yield a, d
            for b in targets[offsets[a]:offsets[a + 1]]:
                if not seen[b]:
                    seen[b] = 1
                    nxt.append(b)
        layer = nxt
        d += 1
