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
    # object tuples the grounding join yielded, before the relaxed fixpoint
    bindings: int = field(default=0, compare=False)
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


@dataclass(frozen=True)
class ApplicabilityTables:
    """Precondition tests compiled into one 256-entry table per byte of the
    state that some precondition reads.

    Entry v of the table of byte b is the bit mask of the actions whose
    precondition atoms in byte b are a subset of v; an action that reads
    nothing in byte b is in every entry.  So the AND of the entries that the
    bytes of a state select is exactly the mask of the actions applicable
    in it, static atoms included.
    """

    n_bytes: int  # length of s.to_bytes(n_bytes, "little") for any state s
    tables: tuple[tuple[int, list[int]], ...]  # (byte position, table), ascending
    all_actions: int  # the mask when no byte is read

    def applicable_mask(self, s: State) -> int:
        """Bit mask of the action ids applicable in `s`."""
        m = self.all_actions
        bs = s.to_bytes(self.n_bytes, "little")
        for b, table in self.tables:
            m &= table[bs[b]]
        return m


def applicability_tables(problem: GroundProblem) -> ApplicabilityTables:
    """Compile the precondition test of every action into byte tables.

    The oracle's enumeration builds them once per call; `GroundProblem`
    does not, and the searches keep the watch index of `applicable_actions`.
    A search visits few states per problem, so the build would not pay
    off: SIW_R with sketch r5 on delivery(6,6,[3,8,20,30,12],1,5) searched
    in 0.012 s with the tables against 0.011 s with the watch index, and
    building the tables took 8 ms.  Memory is about
    256 x len(tables) x (actions / 8) bytes.
    """
    actions = problem.actions
    all_actions = (1 << len(actions)) - 1
    reads = 0
    for act in actions:
        reads |= act.pre
    tables = []
    for b in range((reads.bit_length() + 7) // 8):
        bits = (reads >> 8 * b) & 0xFF
        if not bits:
            continue
        # base[p]: the actions reading exactly p in this byte; every p is a
        # subset of `bits`, and the actions reading nothing sit at p = 0
        base = [0] * 256
        for act in actions:
            base[(act.pre >> 8 * b) & 0xFF] |= 1 << act.action_id
        # superset closure over the read bits: base[v] gains base[p] for
        # every p below v
        for bit in (1 << i for i in range(8)):
            if bits & bit:
                for v in range(256):
                    if v & bit:
                        base[v] |= base[v ^ bit]
        tables.append((b, [base[v & bits] for v in range(256)]))
    return ApplicabilityTables((problem.n_atoms + 7) // 8, tuple(tables), all_actions)


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
