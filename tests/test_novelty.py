"""Novelty tables: first-seen semantics, flipped-atom shortcut, counts."""

import random
from functools import cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthplan import applicable_actions, apply, domains, state_from_atoms
from widthplan.novelty import (
    NoveltyTable,
    TupleSet,
    TupleSetError,
    all_tuples_up_to,
    format_tuple_set,
    parse_tuple_set,
)
from widthplan.strips import atoms_of
from tests.conftest import ground_bundle


def test_universe_counts():
    assert len(all_tuples_up_to_n(3, 2)) == 7  # the empty tuple, 3 singles, 3 pairs
    assert len(all_tuples_up_to_n(3, 0)) == 1
    assert len(all_tuples_up_to_n(4, 4)) == 2**4


def test_universe_above_atom_count_holds_every_tuple(qclear2):
    g, _ = qclear2
    assert all_tuples_up_to(g, g.n_atoms + 3) == all_tuples_up_to(g, g.n_atoms)
    assert len(all_tuples_up_to(g, g.n_atoms + 3)) == 2**g.n_atoms
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        all_tuples_up_to(g, -1)


def all_tuples_up_to_n(n, k):
    """The universe over n atoms, every one of them fluent."""
    from widthplan.novelty import TupleUniverse

    return TupleUniverse(n, k, (1 << n) - 1)


def test_register_first_seen():
    table = NoveltyTable(all_tuples_up_to_n(5, 1))
    s = state_from_atoms([0, 2])
    assert table.register(s) is True
    assert table.register(s) is False


def test_register_explicit_untracked_tuple():
    table = NoveltyTable(TupleSet.from_iterable([(3,)]))
    assert table.register(state_from_atoms([0, 1])) is False
    assert table.register(state_from_atoms([3])) is True


def test_register_trajectory_marks_in_order(qclear2):
    from widthplan import bfs_optimal, replay

    g, bundle = qclear2
    tuples = parse_tuple_set(bundle.tuple_sets["walk"], g)
    table = NoveltyTable(tuples)
    states = replay(g, bfs_optimal(g).plan)
    assert [table.register(s) for s in states] == [True] * 4


def test_idempotence_random_states():
    rng = random.Random(7)
    table = NoveltyTable(all_tuples_up_to_n(12, 2))
    for _ in range(60):
        s = state_from_atoms(rng.sample(range(12), rng.randint(0, 6)))
        table.register(s)
        assert table.register(s) is False


_WALK_INSTANCES = {
    "delivery": lambda: domains.delivery(2, 2, [2], target=4, start=1),
    "grid2": lambda: domains.grid2(3, 2, (1, 1), (3, 2)),
    "hanoi": lambda: domains.hanoi(3),
    "marbles": lambda: domains.marbles([2, 1]),
    "blocks": lambda: domains.blocks_on(1, 1),
}


@cache
def _walk_problem(name):
    return ground_bundle(_WALK_INSTANCES[name]())


class _EveryTuple:
    """The reference table: a plain set of every tuple of 0..k atoms seen,
    static atoms included."""

    def __init__(self, k):
        self.k = k
        self.seen = set()

    def register(self, s):
        atoms = atoms_of(s)
        fresh = {t for r in range(self.k + 1) for t in combinations(atoms, r)} - self.seen
        self.seen |= fresh
        return bool(fresh)


# a walk that comes back to registered states that were not novel and goes
# on from them, on hanoi and on blocks alike
_BACK_AND_ON = [(0, 0), (1, 0), (2, 1), (3, 2), (2, 3), (4, 0), (5, 1), (1, 2), (6, 0)]


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(_WALK_INSTANCES)),
    k=st.integers(0, 4),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=40),
)
@example(name="hanoi", k=3, picks=_BACK_AND_ON)
@example(name="hanoi", k=4, picks=_BACK_AND_ON)
@example(name="blocks", k=3, picks=_BACK_AND_ON)
@example(name="blocks", k=4, picks=_BACK_AND_ON)
def test_universe_table_matches_every_tuple_set(name, k, picks):
    # random transitions out of registered states, novel or not, each
    # registered with its flipped atoms by one table and without them by
    # another; the first folds only the tuples holding an atom the
    # transition made true
    g = _walk_problem(name)
    with_delta = NoveltyTable(all_tuples_up_to(g, k))
    without = NoveltyTable(all_tuples_up_to(g, k))
    reference = _EveryTuple(k)
    assert with_delta.register(g.init, g.init) == without.register(g.init) == reference.register(g.init)
    registered = [g.init]
    for pick_state, pick_succ in picks:
        parent = registered[pick_state % len(registered)]
        aids = applicable_actions(g, parent)
        if not aids:
            continue
        succ = apply(g, parent, aids[pick_succ % len(aids)])
        expected = reference.register(succ)
        assert with_delta.register(succ, parent ^ succ) == expected
        assert without.register(succ) == expected
        registered.append(succ)


class _FullFoldTable:
    """A reference universe table that folds every state in full: `add`
    ORs the state into the mask under every fluent subset, so the masks are
    symmetric and one direction decides each tuple."""

    def __init__(self, tracked):
        self._k = tracked.k
        self._fluent = tracked.fluent
        self._empty_seen = False
        self._seen1 = 0 if tracked.k else -1
        self._pair = [0] * tracked.n_atoms if tracked.k >= 2 else None
        self._with = {}

    def register(self, s, delta=None):
        if not self.novel(s, delta):
            return False
        self.add(s)
        return True

    def novel(self, s, delta=None):
        if not self._empty_seen:
            return True
        scope = s if delta is None else s & delta
        if scope & ~self._seen1:
            return True
        if self._k < 2:
            return False
        fs = s & self._fluent
        if any(fs & ~self._pair[b] for b in atoms_of(fs & scope)):
            return True
        return self._k > 2 and self._fresh(fs, scope)

    def add(self, s):
        self._empty_seen = True
        self._seen1 |= s
        if self._k >= 2:
            fs = s & self._fluent
            atoms = atoms_of(fs)
            for a in atoms:
                self._pair[a] |= fs
            for r in range(2, self._k):
                for sub in combinations(atoms, r):
                    self._with[sub] = self._with.get(sub, 0) | fs

    def _fresh(self, fs, scope):
        flipped, kept = atoms_of(fs & scope), atoms_of(fs & ~scope)
        return any(
            fs & ~self._with.get(tuple(sorted(part + rest)), 0)
            for r in range(2, self._k)
            for j in range(1, r + 1)
            for part in combinations(flipped, j)
            for rest in combinations(kept, r - j)
        )


@pytest.mark.parametrize("name", sorted(_WALK_INSTANCES))
def test_iw_k_counts_equal_with_the_full_fold(name, monkeypatch):
    from widthplan import search

    g = _walk_problem(name)
    runs = []
    for table in (NoveltyTable, _FullFoldTable):
        monkeypatch.setattr(search, "NoveltyTable", table)
        results = [search.iw_k(g, k) for k in range(4)]
        runs.append([(r.outcome, r.plan, r.stats.expanded, r.stats.generated, r.stats.pruned)
                     for r in results])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_delta_agrees_with_full_check(k):
    # walk the reachable transitions of a small instance with static atoms,
    # feeding one table the flipped-atom sets and the other nothing; a third
    # set of every tuple over every atom, static ones included, is the
    # reference
    g = ground_bundle(domains.delivery(2, 2, [2], target=4, start=1))
    with_delta = NoveltyTable(all_tuples_up_to(g, k))
    without = NoveltyTable(all_tuples_up_to(g, k))
    every_atom = _EveryTuple(k)
    assert g.init & ~g.fluent_mask
    assert with_delta.register(g.init) == without.register(g.init) == every_atom.register(g.init)
    frontier, seen = [g.init], {g.init}
    while frontier:
        s = frontier.pop()
        for aid in applicable_actions(g, s):
            succ = apply(g, s, aid)
            r1 = with_delta.register(succ, s ^ succ)
            r2 = without.register(succ)
            assert r1 == r2 == every_atom.register(succ)
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)


def test_k0_universe_tracks_no_tuple():
    # the k = 0 universe holds only the empty tuple: the first state is new
    g = ground_bundle(domains.grid(3, 1, 1, 3))
    universe = all_tuples_up_to(g, 0)
    table = NoveltyTable(universe)
    assert len(universe) == 1
    assert table.register(g.init) is True
    assert table.register(g.init) is False
    for aid in applicable_actions(g, g.init):
        succ = apply(g, g.init, aid)
        assert table.register(succ, g.init ^ succ) is False


def test_true_returns_bounded_by_tuple_count():
    rng = random.Random(3)
    n, k = 10, 2
    table = NoveltyTable(all_tuples_up_to_n(n, k))
    hits = 0
    for _ in range(500):
        s = state_from_atoms(rng.sample(range(n), rng.randint(0, 5)))
        if table.register(s):
            hits += 1
    assert hits <= sum(comb(n, i) for i in range(k + 1))


def test_explicit_true_returns_bounded():
    tuples = TupleSet.from_iterable([(0,), (1, 2), (3,)])
    table = NoveltyTable(tuples)
    hits = sum(
        table.register(state_from_atoms(bits))
        for bits in ([0], [0, 1], [1, 2], [3], [0, 1, 2, 3])
    )
    assert hits <= len(tuples)


def test_tuple_set_file_round_trip(qclear2):
    g, bundle = qclear2
    ts = parse_tuple_set(bundle.tuple_sets["walk"], g)
    assert parse_tuple_set(format_tuple_set(ts, g), g) == ts
    assert len(ts) == 4 and all(len(t) == 1 for t in ts.tuples)


def test_tuple_set_two_atom_line(qclear2):
    g, _ = qclear2
    ts = parse_tuple_set("hold(b1) & clear(x)\n# comment\n", g)
    assert ts.tuples == (tuple(sorted((g.atom_id("hold", ("b1",)), g.atom_id("clear", ("x",))))),)


def test_tuple_set_unknown_atom(qclear2):
    g, _ = qclear2
    for text in ("hold(nosuch)", "nosuch(b1)", "hold(b1,b2)", "on(b1,b1)"):
        with pytest.raises(TupleSetError, match="unknown atom"):
            parse_tuple_set(text, g)


# (text, line, message): every diagnostic of the tuple-set reader, on
# blocks_clear(2)
TUPLE_SET_DIAGNOSTICS = [
    ("hold b1", 1, "malformed atom 'hold b1'"),
    ("\n\nclear(x) & hold(b1\n", 3, "malformed atom 'hold(b1'"),
    ("hold(b1) x", 1, "malformed atom 'hold(b1) x'"),
    ("clear(x) &", 1, "malformed atom ''"),
    ("hold(b1) & & clear(x)", 1, "malformed atom ''"),
    ("hold(nosuch)", 1, "unknown atom 'hold(nosuch)'"),
    ("# c\nnosuch(b1)", 2, "unknown atom 'nosuch(b1)'"),
    ("hold(b1,b2)", 1, "unknown atom 'hold(b1,b2)'"),
    ("hold()", 1, "unknown atom 'hold()'"),
    ("on(b1,b1)", 1, "unknown atom 'on(b1,b1)'"),
    ("(b1)", 1, "unknown atom '(b1)'"),
    ("hold((b1)", 1, "malformed atom 'hold((b1)'"),
    ("hold(b1))", 1, "malformed atom 'hold(b1))'"),
    ("hold(b1,)", 1, "malformed atom 'hold(b1,)'"),
    ("hold(b1)\non( b1 ,, x )", 2, "malformed atom 'on( b1 ,, x )'"),
]


@pytest.mark.parametrize(
    "text, line, message", TUPLE_SET_DIAGNOSTICS, ids=[repr(row[0]) for row in TUPLE_SET_DIAGNOSTICS],
)
def test_tuple_set_diagnostics(qclear2, text, line, message):
    g, _ = qclear2
    with pytest.raises(TupleSetError) as info:
        parse_tuple_set(text, g)
    assert type(info.value) is TupleSetError and str(info.value) == f"line {line}: {message}"


# (text, tuples): what the line-split reader accepts, each tuple as its
# atoms' names, in the order of the parsed set
TUPLE_SET_PARSES = [
    ("", []),
    ("\n  \n# only a comment\n", []),
    ("HOLD(B1) & Clear( x )", [["clear(x)", "hold(b1)"]]),
    ("ontable(b1) # trailing comment\r\n\r\nhandempty()", [["handempty()"], ["ontable(b1)"]]),
    ("hold(b1) & hold(b1)\nhold(b1)", [["hold(b1)"]]),
    ("clear(x)&hold(b1)\nhold(b1) & clear(x)", [["clear(x)", "hold(b1)"]]),
    ("handempty( )\non( b1 , x )", [["handempty()"], ["on(b1,x)"]]),
]


@pytest.mark.parametrize("text, tuples", TUPLE_SET_PARSES, ids=[repr(row[0]) for row in TUPLE_SET_PARSES])
def test_tuple_set_reader_accepts(qclear2, text, tuples):
    g, _ = qclear2
    ts = parse_tuple_set(text, g)
    assert [[str(g.atoms[i]) for i in t] for t in ts.tuples] == tuples and ts.never_true == ()


def test_never_true_atom_makes_its_tuple_never_novel():
    # adjacent(c1,c3) is well formed but never true: it gets an id no state
    # holds, and is printed by name
    g = ground_bundle(domains.grid(3, 1, 1, 3))
    assert g.atom_id("adjacent", ("c1", "c3")) is None
    ts = parse_tuple_set("adjacent(c1,c3) & pos(c1)\npos(c1)\n", g)
    pos = g.atom_id("pos", ("c1",))
    assert ts.tuples == ((pos,), (pos, g.n_atoms))
    assert [str(a) for a in ts.never_true] == ["adjacent(c1,c3)"]
    assert format_tuple_set(ts, g) == "pos(c1)\npos(c1) & adjacent(c1,c3)\n"
    assert parse_tuple_set(format_tuple_set(ts, g), g) == ts
    table = NoveltyTable(TupleSet.from_iterable([ts.tuples[1]]))
    assert not any(table.register(s) for s in (g.init, (1 << g.n_atoms) - 1))
