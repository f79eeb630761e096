"""Brute-force verification on exhaustively enumerable instances: optimal
costs, optimal-state sets for tuples, cost-envelopes, admissibility of tuple
sets, width lower bounds, the effective-width surrogate, feature-acyclicity,
and sketch width over the induced subproblem family.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress

from .features import FeatureSet
from .novelty import NoveltyTable, TupleSet, all_tuples_up_to
from .search import GoalTest, bfs_optimal, iw_k
from .sketches import Sketch, relation, strongly_connected_components
from .strips import GroundProblem, State, applicability_tables, applicable_actions


class OracleError(ValueError):
    pass


DEFAULT_CAP = 200_000


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

    def __len__(self) -> int:
        return len(self.states)

    @property
    def start(self) -> State:
        """The initial state; its index is 0."""
        return self.states[0]

    def cost_star(self, idx: int) -> int | None:
        if self.goal_flags[idx]:
            return self.problem_cost
        return self.cost[idx]

    def successors(self, idx: int) -> list[tuple[int, int]]:
        """(action_id, successor index) pairs in canonical order."""
        row = self.targets[self.offsets[idx]:self.offsets[idx + 1]]
        return list(zip(applicable_actions(self.problem, self.states[idx]), row))


def enumerate_space(problem: GroundProblem, cap: int = DEFAULT_CAP) -> StateSpace:
    """Breadth-first closure from the initial state; raises `OracleError`
    once it would hold more than `cap` states.

    Applicability is read from byte tables built once per call
    (`strips.applicability_tables`): the AND of a state's entries is the
    mask of its applicable actions, whose set bits, low to high, are the
    row's ascending action ids.  The loop is compiled for each call
    (`_compile_kernel`) with that AND written out over the bytes the
    preconditions read, so no state pays a loop over the tables.
    """
    if cap < 1:
        raise OracleError(f"cap must be >= 1, got {cap}")
    compiled = applicability_tables(problem)
    kernel = _compile_kernel(compiled.n_bytes, [b for b, _ in compiled.tables])
    root = problem.init
    states = [root]  # also the FIFO: states are appended in dequeue order
    index = {root: 0}
    cost = array("i", [0])
    offsets = array("i", [0])
    targets = array("i")
    kernel(states, index, cost, offsets, targets, problem.effects, cap, compiled.all_actions,
           tuple(table for _, table in compiled.tables))
    pos, neg = problem.goal_pos, problem.goal_neg
    goal_flags = bytearray(s & pos == pos and not s & neg for s in states)
    first_goal = goal_flags.find(1)  # costs do not decrease along `states`
    problem_cost = cost[first_goal] if first_goal >= 0 else None
    return StateSpace(problem, states, index, cost, goal_flags, problem_cost, offsets, targets)


# CPython's compiler recurses once per operand of a chained `&`: one AND of
# 3,000 terms raises RecursionError, so the mask is built 32 terms a statement
_TERMS_PER_STATEMENT = 32


def _compile_kernel(n_bytes: int, read: list[int]):
    """The breadth-first loop of `enumerate_space` for a problem whose
    states are `n_bytes` long and whose preconditions read the bytes `read`,
    ascending.  `ApplicabilityTables.applicable_mask` is unrolled into it:
    `tables[k][bs[b]]` is the entry of the k-th table, that of byte b, for
    the state's bytes `bs`.  The loop walks `states` and `cost` as they
    grow, so they are also its FIFO.

    The source holds only these integers and names that do not depend on
    them: a name that only a kernel held would enter and leave the
    interpreter's table of interned strings on every call.
    """
    terms = [f"tables[{k}][bs[{b}]]" for k, b in enumerate(read)]
    mask = [f"bs = s.to_bytes({n_bytes}, 'little')"] if terms else ["m = all_actions"]
    for k in range(0, len(terms), _TERMS_PER_STATEMENT):
        mask.append(("m = " if k == 0 else "m &= ")
                    + " & ".join(terms[k:k + _TERMS_PER_STATEMENT]))
    source = "\n".join([
        "def kernel(states, index, cost, offsets, targets, effects, cap, all_actions, tables):",
        "    lookup, push = index.get, targets.append",
        "    n = 1",
        "    for s, c in zip(states, cost):",
        "        c += 1",
        *(f"        {line}" for line in mask),
        "        while m:",
        "            low = m & -m",
        "            m ^= low",
        "            keep, add = effects[low.bit_length() - 1]",
        "            succ = s & keep | add",
        "            j = lookup(succ)",
        "            if j is None:",
        "                if n >= cap:",
        "                    raise OracleError(f'state space exceeds cap {cap}')",
        "                j = index[succ] = n",
        "                n += 1",
        "                states.append(succ)",
        "                cost.append(c)",
        "            push(j)",
        "        offsets.append(len(targets))",
        "",
    ])
    namespace = {"OracleError": OracleError}
    exec(compile(source, "<enumerate_space kernel>", "exec"), namespace)
    return namespace.pop("kernel")  # no cycle through its globals


# ---------------------------------------------------------------------------
# Optimal states for tuple sets


def tuple_cost(space: StateSpace, mask: State) -> int | None:
    """Min cost of a state making the tuple true; None if unreachable.  The
    first holder along `states` is the cheapest."""
    for s, c in zip(space.states, space.cost):
        if s & mask == mask:
            return c
    return None


def opt_states(space: StateSpace, tuples: TupleSet) -> set[int]:
    """Indices of min-cost states for each tuple, unioned over the set: the
    holders in the cost layer of the tuple's cost."""
    states, cost = space.states, space.cost
    out: set[int] = set()
    for mask in tuples.masks():
        c = tuple_cost(space, mask)
        if c is None:
            continue
        lo = bisect_left(cost, c)
        out.update(i for i in range(lo, bisect_right(cost, c, lo)) if states[i] & mask == mask)
    return out


# ---------------------------------------------------------------------------
# Envelopes and admissibility


@dataclass
class Report:
    """A verdict, a state that refutes it, and why."""

    ok: bool
    witness: State | None = None
    reason: str = ""
    envelope: Report | None = None  # the envelope route of `is_admissible`


def is_cost_envelope(space: StateSpace, member_idxs: set[int]) -> Report:
    """A set of states is a cost-envelope iff it contains the initial state
    and every non-goal member has a successor member of strictly larger
    finite optimal cost."""
    if 0 not in member_idxs:
        return Report(False, space.start, "initial state not in the set")
    goal, cost, pc = space.goal_flags, space.cost, space.problem_cost
    offsets, targets = space.offsets, space.targets
    # a goal successor means a goal exists, so pc is set
    for i in member_idxs:
        if goal[i]:
            continue
        ci = cost[i]
        if not any(j in member_idxs and ci < (pc if goal[j] else cost[j])
                   for j in targets[offsets[i]:offsets[i + 1]]):
            return Report(
                False, space.states[i], "no cost-increasing successor inside the set"
            )
    return Report(True)


def _require_strips(problem: GroundProblem, what: str):
    if problem.goal_neg:
        raise OracleError(f"{what} requires a positive-conjunction goal")


def _require_nonnegative(name: str, value: int):
    if value < 0:
        raise OracleError(f"{name} must be >= 0, got {value}")


def is_admissible(space: StateSpace, tuples: TupleSet) -> Report:
    """Check admissibility of a tuple set by two independent routes and
    insist they agree.

    Direct route: some tuple holds initially, and from every non-goal
    min-cost state of a tuple some successor is a min-cost state of a tuple
    of cost exactly one more.  Envelope route: the union of min-cost states
    is a cost-envelope.
    """
    _require_strips(space.problem, "admissibility")
    masks = tuples.masks()
    costs = [tuple_cost(space, m) for m in masks]
    if None in costs:
        mask = masks[costs.index(None)]
        return Report(False, mask, f"unreachable tuple {tuples.state_str(space.problem, mask)}")

    direct = _admissible_direct(space, masks, costs)
    envelope = is_cost_envelope(space, opt_states(space, tuples))
    if direct.ok != envelope.ok:
        raise OracleError(
            "admissibility routes disagree: "
            f"direct={direct.ok} ({direct.reason}), envelope={envelope.ok} ({envelope.reason})"
        )
    direct.envelope = envelope
    return direct


def _admissible_direct(space: StateSpace, masks: list[State], costs: list[int]) -> Report:
    start = space.start
    if not any(start & m == m for m in masks):
        return Report(False, start, "no tuple true in the initial state")

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
                return Report(
                    False,
                    s,
                    f"optimal state for tuple {space.problem.state_str(mask)} "
                    "has no one-step extension to another tuple",
                )
    return Report(True)


# ---------------------------------------------------------------------------
# Width bounds


def _opt_membership(space: StateSpace, k: int, max_cost: int) -> bytearray:
    """For T = all tuples of size <= k: whether each state of cost <=
    `max_cost` is a min-cost state of some tuple true in it.

    Costs do not decrease along `states`, so a tuple's min-cost states are
    the holders of the tuple in the first cost layer that holds it: a state
    is a member iff it holds a tuple no earlier layer held.  One novelty
    table over the universe sweeps the layers: it tests every state of a
    layer, then folds in the members.  A state that is not a member holds
    no new tuple and so would add nothing to the table.  The empty tuple
    makes the initial state, alone in layer 0, a member at every k.

    A state's membership depends only on the layers up to its own, so the
    sweep stops after layer `max_cost`: the entries of the states above it
    are 0 and must not be read.
    """
    _require_nonnegative("k", k)
    table = NoveltyTable(all_tuples_up_to(space.problem, k))
    states, cost = space.states, space.cost
    member = bytearray(len(states))
    n = bisect_right(cost, max_cost)
    lo = 0
    while lo < n:
        hi = bisect_right(cost, cost[lo], lo)
        layer = states[lo:hi]
        member[lo:hi] = bytes(map(table.novel, layer))
        for s in compress(layer, member[lo:hi]):
            table.add(s)
        lo = hi
    return member


def lower_bound_witness(space: StateSpace, k: int) -> bool:
    """True iff no optimal goal-reaching trajectory stays inside the min-cost
    states of size-<=k tuples; this certifies that the width exceeds k.

    An optimal trajectory visits only states of cost <= the problem's cost
    pc, so membership is decided for those layers alone: on blocks_on(2,3),
    7,501 of the 65,990 states.
    """
    _require_strips(space.problem, "the width lower bound")
    pc = space.problem_cost
    if pc is None:
        raise OracleError("width lower bound needs a solvable instance")
    member = _opt_membership(space, k, pc)
    # one forward sweep: a cost + 1 edge leads to a later state, so every
    # state is reached or not before the sweep gets to it.  A successor of
    # cost pc + 1 reads 0 from `member`, and the sweep stops before it
    cost, goal = space.cost, space.goal_flags
    offsets, targets = space.offsets, space.targets
    reached = bytearray(len(space))
    reached[0] = member[0]
    for i in range(bisect_right(cost, pc)):
        if not reached[i]:
            continue
        if goal[i]:  # a goal of cost <= pc has cost pc
            return False
        c = cost[i] + 1
        for j in targets[offsets[i]:offsets[i + 1]]:
            if member[j] and cost[j] == c:
                reached[j] = 1
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


def _smallest_width(
    problem: GroundProblem,
    optimal: int,
    k_cap: int,
    *,
    start: State | None = None,
    goal_test: GoalTest | None = None,
) -> int | None:
    """Smallest k <= k_cap whose IW(k) returns a plan of length `optimal`.
    IW(0) expands only its start, so it does iff `optimal` <= 1, and the
    searches start at k = 1.  IW(k) above the atom count n is IW(n), so no
    larger k is tried.  The count is that of the numbered atoms: a tuple
    holding an atom that is never true is never true, so it makes no state
    novel."""
    _require_nonnegative("k_cap", k_cap)
    if optimal <= 1:
        return 0
    for k in range(1, min(k_cap, problem.n_atoms) + 1):
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
    bound = phi.select(sketch.names_kinds)
    val_index: dict[tuple[int, ...], int] = {}
    state_val = [val_index.setdefault(bound.valuation(space.problem, s), len(val_index))
                 for s in space.states]
    vals = list(val_index)  # in index order
    compat = [[relation(sketch, va, vb) for vb in vals] for va in vals]
    return state_val, compat


def is_feature_acyclic_on(space: StateSpace, sketch: Sketch, phi: FeatureSet) -> bool:
    """No chain of reachable states under the sketch relation repeats a
    feature valuation.

    Since the relation only depends on the valuations of a pair, a chain
    repeating a valuation exists iff the compatibility digraph over the
    realized valuations has a cycle (self-loops included).  Valuations are
    over the whole header, as the paper defines acyclicity over all of the
    sketch's features.
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


def sketch_width_on(
    space: StateSpace, sketch: Sketch, phi: FeatureSet, k_cap: int = 2
) -> SketchWidthReport:
    """Max effective width over the family of subproblems the sketch induces
    from the initial state.

    A subproblem from state s asks for a goal state or a state below s in
    the sketch relation.  Successor subgoals induce new subproblems; distant
    subgoals only do when no successor of s is a goal or subgoal.

    The subgoals of s depend only on its valuation class v, so the states
    the full walks of class v visit form a region closed under successors
    whose subgoals are all in the family.  A member inside its class's
    region walks only to its nearest goal or subgoal, for the distance, and
    adds no start: the family is the same as if every member walked fully.
    Classes are taken over `sketch.read`, as the features no rule reads
    decide no subgoal.
    """
    _require_nonnegative("k_cap", k_cap)
    problem = space.problem
    # the selection checks the whole header's names and kinds
    state_val, compat = _compatibility(space, sketch.read, phi.select(sketch.names_kinds))
    states, index, goal_flags = space.states, space.index, space.goal_flags
    offsets, targets = space.offsets, space.targets
    family: list[int] = [0]
    in_family = {0}
    # per non-goal member, the distance to its nearest goal or subgoal, that
    # is the subproblem's optimal cost; None for a dead end
    optimal: dict[int, int | None] = {}
    regions: dict[int, bytearray] = {}  # per class, what its full walks visited
    for i in family:  # grows as it is read
        if goal_flags[i]:
            continue
        v = state_val[i]
        below = compat[v]
        succs = targets[offsets[i]:offsets[i + 1]]
        if any(goal_flags[j] or below[state_val[j]] for j in succs):
            new_starts = [j for j in succs if not goal_flags[j] and below[state_val[j]]]
            dist = 0 if below[v] else 1
        else:
            region = regions.get(v)
            if region is None:
                region = regions[v] = bytearray(len(states))
            full = not region[i]
            new_starts, dist = [], None
            for j, d in _breadth_first(space, i):
                region[j] = 1
                if goal_flags[j] or below[state_val[j]]:
                    if dist is None:
                        dist = d
                        if not full:
                            break
                    if not goal_flags[j]:
                        new_starts.append(j)
        optimal[i] = dist
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

        def subgoal(st: State, below=below) -> bool:
            j = index[st]
            return bool(goal_flags[j] or below[state_val[j]])

        w = None if optimal[i] is None else _smallest_width(
            problem, optimal[i], k_cap, start=states[i], goal_test=subgoal
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
