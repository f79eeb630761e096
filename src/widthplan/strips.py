"""Ground STRIPS state model: atoms, bit-vector states, actions, goal tests."""

from __future__ import annotations

from dataclasses import dataclass, field

# A state is an arbitrary-precision int used as a bit-vector over atom ids:
# bit i is set iff atom i holds.  Equality and hashing are structural, and
# set algebra becomes cheap mask arithmetic.
State = int


def state_from_atoms(atom_ids) -> State:
    s = 0
    for i in atom_ids:
        s |= 1 << i
    return s


def atoms_of(state: State) -> list[int]:
    """Atom ids set in `state`, ascending."""
    out = []
    while state:
        low = state & -state
        out.append(low.bit_length() - 1)
        state ^= low
    return out


@dataclass(frozen=True)
class GroundAtom:
    atom_id: int
    predicate: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.predicate}({','.join(self.args)})"


@dataclass(frozen=True)
class GroundAction:
    """Fully instantiated action; pre/add/delete are atom-id bit masks."""

    action_id: int
    name: str
    args: tuple[str, ...]
    pre: State
    add: State
    delete: State

    def __str__(self) -> str:
        if self.args:
            return f"({self.name} {' '.join(self.args)})"
        return f"({self.name})"


@dataclass
class GroundProblem:
    """Immutable-after-construction ground model shared across searches."""

    name: str
    atoms: tuple[GroundAtom, ...]
    actions: tuple[GroundAction, ...]
    init: State
    goal_pos: State
    goal_neg: State
    objects: tuple[str, ...] = ()
    predicates: dict[str, int] = field(default_factory=dict)  # declared arities
    atom_index: dict[tuple[str, tuple[str, ...]], int] = field(init=False)
    atoms_by_predicate: dict[str, list[int]] = field(init=False)
    # atoms some action adds or deletes; every other atom keeps its initial
    # truth value along every transition
    fluent_mask: State = field(default=0, init=False, repr=False, compare=False)
    _watch_buckets: list[list[int]] = field(default_factory=list, init=False, repr=False, compare=False)
    _watch_always: list[int] = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.atom_index = {(a.predicate, a.args): a.atom_id for a in self.atoms}
        self.atoms_by_predicate = {}
        for a in self.atoms:
            self.atoms_by_predicate.setdefault(a.predicate, []).append(a.atom_id)
        fluent = 0
        for act in self.actions:
            fluent |= act.add | act.delete
        self.fluent_mask = fluent
        self._build_watch_index()

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def atom_id(self, predicate: str, args: tuple[str, ...]) -> int | None:
        """Id of a numbered atom: one that can be true, or a goal atom."""
        return self.atom_index.get((predicate, args))

    def is_well_formed(self, predicate: str, args: tuple[str, ...]) -> bool:
        """Whether predicate(args) is an atom of the problem: a declared
        predicate at its arity over distinct objects.  It is numbered when
        it can be true or is a goal atom."""
        return (self.predicates.get(predicate) == len(args) == len(set(args))
                and set(args).issubset(self.objects))

    def state_str(self, state: State) -> str:
        return "{" + ", ".join(str(self.atoms[i]) for i in atoms_of(state)) + "}"

    def _build_watch_index(self):
        # Each action is filed under one of its fluent precondition atoms
        # (greedily the least-loaded bucket) so applicability scans touch few
        # candidates and skip the static atoms every state carries.  Actions
        # without a fluent precondition are checked on every scan.
        buckets: list = [()] * len(self.atoms)  # static atoms are never scanned
        for i in atoms_of(self.fluent_mask):
            buckets[i] = []
        always: list[int] = []
        for act in self.actions:
            pre_atoms = atoms_of(act.pre & self.fluent_mask)
            if not pre_atoms:
                always.append(act.action_id)
                continue
            best = min(pre_atoms, key=lambda i: len(buckets[i]))
            buckets[best].append(act.action_id)
        self._watch_buckets = buckets
        self._watch_always = always


def applicable_actions(problem: GroundProblem, s: State) -> list[int]:
    """Action ids applicable in `s` (pre subset of s), ascending."""
    buckets = problem._watch_buckets
    actions = problem.actions
    out = []
    for aid in problem._watch_always:
        pre = actions[aid].pre
        if pre & s == pre:
            out.append(aid)
    rest = s & problem.fluent_mask
    while rest:
        low = rest & -rest
        rest ^= low
        for aid in buckets[low.bit_length() - 1]:
            pre = actions[aid].pre
            if pre & s == pre:
                out.append(aid)
    out.sort()
    return out


def successors(problem: GroundProblem, s: State) -> list[tuple[int, State]]:
    """(action id, successor state) pairs of the actions applicable in `s`,
    in ascending action-id order."""
    actions = problem.actions
    out = []
    for aid in applicable_actions(problem, s):
        act = actions[aid]
        out.append((aid, (s & ~act.delete) | act.add))
    return out


def apply(problem: GroundProblem, s: State, action_id: int) -> State:
    """Successor state (s minus deletes, plus adds); rejects inapplicable actions."""
    act = problem.actions[action_id]
    if act.pre & s != act.pre:
        raise ValueError(
            f"action {act} not applicable: unsatisfied precondition in {problem.state_str(s)}"
        )
    return (s & ~act.delete) | act.add


def is_goal(problem: GroundProblem, s: State) -> bool:
    return (s & problem.goal_pos) == problem.goal_pos and not (s & problem.goal_neg)


def replay(problem: GroundProblem, plan: list[int], start: State | None = None) -> list[State]:
    """States visited by `plan` from `start` (default init), validating each step."""
    s = problem.init if start is None else start
    states = [s]
    for aid in plan:
        s = apply(problem, s, aid)
        states.append(s)
    return states
