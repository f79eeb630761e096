"""Novelty tables: first-seen semantics, flipped-atom shortcut, counts."""

import random
from functools import cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
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
from widthplan.strips import atoms_of, successors
from tests.conftest import ground_bundle


def test_universe_counts():
    assert len(all_tuples_up_to_n(3, 2)) == 6  # 3 singles + 3 pairs, empty excluded
    assert len(all_tuples_up_to_n(3, 0)) == 0
    assert len(all_tuples_up_to_n(4, 4)) == 2**4 - 1


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
    """The reference table: a plain set of every tuple of 1..k atoms seen,
    static atoms included."""

    def __init__(self, k):
        self.k = k
        self.seen = set()

    def register(self, s):
        atoms = atoms_of(s)
        fresh = {t for r in range(1, self.k + 1) for t in combinations(atoms, r)} - self.seen
        self.seen |= fresh
        return bool(fresh)


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(_WALK_INSTANCES)),
    k=st.integers(0, 4),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=40),
)
def test_universe_table_matches_every_tuple_set(name, k, picks):
    # random transitions out of registered states, each registered with its
    # flipped atoms by one table and without them by another
    g = _walk_problem(name)
    with_delta = NoveltyTable(all_tuples_up_to(g, k))
    without = NoveltyTable(all_tuples_up_to(g, k))
    reference = _EveryTuple(k)
    assert with_delta.register(g.init, g.init) == without.register(g.init) == reference.register(g.init)
    registered = [g.init]
    for pick_state, pick_succ in picks:
        parent = registered[pick_state % len(registered)]
        succs = successors(g, parent)
        if not succs:
            continue
        succ = succs[pick_succ % len(succs)][1]
        expected = reference.register(succ)
        assert with_delta.register(succ, parent ^ succ) == expected
        assert without.register(succ) == expected
        registered.append(succ)


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
    g = ground_bundle(domains.grid(3, 1, 1, 3))
    universe = all_tuples_up_to(g, 0)
    table = NoveltyTable(universe)
    assert len(universe) == 0
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
    assert hits <= sum(comb(n, i) for i in range(1, k + 1))


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
    assert ts.size == 1 and len(ts) == 4


def test_tuple_set_two_atom_line(qclear2):
    g, _ = qclear2
    ts = parse_tuple_set("hold(b1) & clear(x)\n# comment\n", g)
    assert len(ts) == 1 and ts.size == 2


def test_tuple_set_unknown_atom(qclear2):
    g, _ = qclear2
    with pytest.raises(TupleSetError, match="unknown atom"):
        parse_tuple_set("hold(nosuch)", g)
