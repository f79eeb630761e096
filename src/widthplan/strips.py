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
    # the watch index of `applicable_actions`: (pre, action_id) pairs per
    # watched atom, the pairs of actions without a fluent precondition, and
    # the mask of the atoms whose bucket is non-empty
    _watch_buckets: list[list[tuple[State, int]]] = field(
        default_factory=list, init=False, repr=False, compare=False)
    _watch_always: list[tuple[State, int]] = field(
        default_factory=list, init=False, repr=False, compare=False)
    _watched: State = field(default=0, init=False, repr=False, compare=False)

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
        # Each action is filed under one fluent precondition atom, and a scan
        # checks the actions filed under the atoms the state holds.  So the
        # watch is the precondition atom a state is least likely to hold:
        # one whose predicate has the smallest smoothed share (true + 1) /
        # (fluent + 2) of its fluent atoms true initially (hold(x) before
        # clear(y); Hanoi's parity flag o(), false initially but true after
        # every other move, is not share 0), ties going to the least-loaded
        # bucket, then to the lowest atom id.  Actions without a fluent
        # precondition are checked on every scan.
        fluent = self.fluent_mask
        share = {}
        for pred, ids in self.atoms_by_predicate.items():
            m = state_from_atoms(ids) & fluent
            if m:
                share[pred] = ((m & self.init).bit_count() + 1) / (m.bit_count() + 2)
        rank = {v: r for r, v in enumerate(sorted(set(share.values())))}
        # key[i]: the share's rank, then the load of bucket i (below stride),
        # in one int
        stride = len(self.actions) + 1
        base = {pred: rank[v] * stride for pred, v in share.items()}
        key = [base.get(a.predicate, 0) for a in self.atoms]
        buckets: list = [()] * len(self.atoms)  # static atoms are never scanned
        for i in atoms_of(fluent):
            buckets[i] = []
        always = []
        for act in self.actions:
            pre = act.pre
            m = pre & fluent
            if not m:
                always.append((pre, act.action_id))
                continue
            low = m & -m
            best = low.bit_length() - 1
            m ^= low
            while m:
                low = m & -m
                m ^= low
                i = low.bit_length() - 1
                if key[i] < key[best]:
                    best = i
            key[best] += 1
            buckets[best].append((pre, act.action_id))
        self._watch_buckets = buckets
        self._watch_always = always
        self._watched = state_from_atoms(i for i, b in enumerate(buckets) if b)


def applicable_actions(problem: GroundProblem, s: State) -> list[int]:
    """Action ids applicable in `s` (pre subset of s), ascending."""
    buckets = problem._watch_buckets
    out = [aid for pre, aid in problem._watch_always if pre & s == pre]
    rest = s & problem._watched
    while rest:
        low = rest & -rest
        rest ^= low
        for pre, aid in buckets[low.bit_length() - 1]:
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

    The oracle's enumeration builds them once per call; `GroundProblem` does
    not.  The searches scan the watch index of `applicable_actions`, which
    files each action under the fluent precondition atom whose predicate has
    the smallest smoothed share of its fluent atoms true initially, so an
    expansion checks few candidates: 14.0 per expansion of IW(2) on
    blocks_on(5,5) and 34.9 of IW(1) on blocks_clear(32).  A search visits
    too few states to pay for the build (medians of 15 runs on 2 shared
    CPUs): SIW_R with sketch r5 on delivery(6,6,[3,8,20,30,12],1,5) took
    5.9 ms with either test, and the build 7.3 ms; IW(2) on grid(10,10)
    took 0.3 ms with the index, 0.7 ms with the tables and 9 ms to build
    them; IW(2) on blocks_on(5,5) took 96-100 ms with the index, 91-92 ms
    with the tables and 3 ms to build them.  Memory is about
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
