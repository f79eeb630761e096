"""Ground state model: applicability, successor function, goal tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthplan import (
    applicable_actions,
    apply,
    atoms_of,
    bfs_optimal,
    domains,
    ground,
    is_goal,
    parse_domain,
    parse_problem,
    replay,
    search,
    state_from_atoms,
)
from widthplan.strips import applicability_tables
from tests.conftest import (
    EMPTY_ROOT_DOMAIN, EMPTY_ROOT_PROBLEM, NO_ACTION_DOMAIN, NO_ACTION_PROBLEM, ground_bundle,
)
from tests.test_oracle import _small_bundles


def _blocks2():
    bundle = domains.blocks([["b", "a"]], ("clear", "b"))
    return ground_bundle(bundle)


def _aid(problem, name, *args):
    for act in problem.actions:
        if act.name == name and act.args == tuple(args):
            return act.action_id
    raise AssertionError(f"no action {name}{args}")


def _atom(problem, pred, *args):
    aid = problem.atom_id(pred, tuple(args))
    assert aid is not None
    return aid


def test_applicable_single_unstack():
    # two blocks, a on b: the only applicable action is unstack(a, b)
    g = _blocks2()
    acts = applicable_actions(g, g.init)
    assert [str(g.actions[i]) for i in acts] == ["(unstack a b)"]


def test_apply_unstack_effects():
    g = _blocks2()
    succ = apply(g, g.init, _aid(g, "unstack", "a", "b"))
    have = {str(g.atoms[i]) for i in atoms_of(succ)}
    assert have == {"ontable(b)", "clear(b)", "hold(a)"}


def test_apply_rejects_unsatisfied_precondition():
    g = _blocks2()
    with pytest.raises(ValueError):
        apply(g, g.init, _aid(g, "pickup", "a"))


def test_empty_precondition_always_applicable():
    text = """(define (domain t) (:predicates (p) (q))
      (:action noop :parameters () :precondition (and) :effect (and (p))))"""
    d = parse_domain(text)
    p = parse_problem("(define (problem i) (:domain t) (:objects o) (:init) (:goal (and (p))))")
    g = ground(d, p)
    assert applicable_actions(g, 0) == [0]
    assert applicable_actions(g, state_from_atoms(range(g.n_atoms))) == [0]


def test_grid_forced_move():
    g = ground_bundle(domains.grid(3, 1, 1, 3))
    acts = applicable_actions(g, g.init)
    assert [str(g.actions[i]) for i in acts] == ["(move c1 c2)"]


def test_apply_identity_when_no_effects():
    text = """(define (domain t) (:predicates (p))
      (:action hold :parameters () :precondition (and (p)) :effect (and)))"""
    d = parse_domain(text)
    p = parse_problem("(define (problem i) (:domain t) (:objects o) (:init (p)) (:goal (and (p))))")
    g = ground(d, p)
    assert apply(g, g.init, 0) == g.init


def test_is_goal_variants():
    g = _blocks2()
    assert not is_goal(g, g.init)
    succ = apply(g, g.init, _aid(g, "unstack", "a", "b"))
    assert is_goal(g, succ)  # clear(b) reached


def test_negative_goal_literals():
    g = ground_bundle(domains.marbles([1]))
    assert not is_goal(g, g.init)
    plan = bfs_optimal(g).plan
    assert is_goal(g, replay(g, plan)[-1])


def test_empty_goal_every_state_is_goal():
    text = """(define (domain t) (:predicates (p))
      (:action a :parameters () :precondition (and (p)) :effect (and)))"""
    d = parse_domain(text)
    p = parse_problem("(define (problem i) (:domain t) (:objects o) (:init) (:goal (and)))")
    g = ground(d, p)
    assert is_goal(g, 0)
    assert is_goal(g, state_from_atoms([0]))


def test_apply_deterministic_and_atom_conserving():
    g = ground_bundle(domains.delivery(2, 2, [2], target=4, start=1))
    universe = state_from_atoms(range(g.n_atoms))
    frontier, seen = [g.init], {g.init}
    while frontier:
        s = frontier.pop()
        for aid in applicable_actions(g, s):
            succ = apply(g, s, aid)
            assert succ == apply(g, s, aid)
            assert succ & ~universe == 0
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)


def test_transition_flip_bound():
    # flips per transition never exceed the largest add+delete footprint
    g = ground_bundle(domains.blocks_clear(3))
    cap = max(len(atoms_of(a.add)) + len(atoms_of(a.delete)) for a in g.actions)
    s = g.init
    for aid in bfs_optimal(g).plan:
        succ = apply(g, s, aid)
        assert len(atoms_of(s ^ succ)) <= cap
        s = succ


def test_static_only_precondition_checked():
    # an action whose preconditions are all static is scanned on every call,
    # so it must still be filtered by the state
    text = """(define (domain t) (:predicates (s) (p))
      (:action a :parameters () :precondition (and (s)) :effect (and (p))))"""
    d = parse_domain(text)
    p = parse_problem("(define (problem i) (:domain t) (:objects o) (:init (s)) (:goal (and (p))))")
    g = ground(d, p)
    assert g.fluent_mask == state_from_atoms([g.atom_id("p", ())])
    assert applicable_actions(g, g.init) == [0]
    assert applicable_actions(g, 0) == []


@pytest.mark.parametrize("bundle", [
    domains.grid(3, 3, 1, 9), domains.hanoi(3), domains.delivery(2, 2, [2], target=4, start=1),
], ids=lambda b: b.family)
def test_applicable_matches_precondition_scan(bundle):
    # arbitrary states, static atoms true or false, against the plain definition
    g = ground_bundle(bundle)
    rng = random.Random(5)
    states = [g.init] + [
        state_from_atoms(rng.sample(range(g.n_atoms), rng.randint(0, g.n_atoms)))
        for _ in range(200)
    ]
    for s in states:
        expected = [a.action_id for a in g.actions if a.pre & s == a.pre]
        assert applicable_actions(g, s) == expected


@settings(max_examples=60, deadline=None)
@given(bundle=_small_bundles(), data=st.data())
def test_watch_index_files_each_action_once_and_matches_precondition_scan(bundle, data):
    if bundle is None:
        return
    g = ground_bundle(bundle)
    filed = [(aid, i) for i, bucket in enumerate(g._watch_buckets) for _, aid in bucket]
    filed += [(aid, None) for _, aid in g._watch_always]
    assert sorted(aid for aid, _ in filed) == list(range(len(g.actions)))
    for aid, i in filed:
        pre = g.actions[aid].pre
        assert (pre & g.fluent_mask == 0) if i is None else (pre & g.fluent_mask) >> i & 1
    assert g._watched == state_from_atoms(i for i, b in enumerate(g._watch_buckets) if b)
    # arbitrary states, static atoms true or false
    everything = (1 << g.n_atoms) - 1
    drawn = st.integers(0, everything)
    for s in [0, g.init, g.init & g.fluent_mask, everything] + [data.draw(drawn) for _ in range(20)]:
        assert applicable_actions(g, s) == [a.action_id for a in g.actions if a.pre & s == a.pre]


@pytest.mark.parametrize("bundle, k, bound", [
    # IW(2) expands 7,228 states, with 7.1 applicable actions each
    pytest.param(domains.blocks_on(5, 5), 2, 15, id="iw2-blocks-on-5-5"),
    # IW(1) expands 528 states, with 20.8 applicable actions each
    pytest.param(domains.blocks_clear(32), 1, 40, id="iw1-blocks-clear-32"),
    # 28.0 and 40.0 with the parity flag o() smoothed; 48.5 and 83.0 with
    # its share 0, which files every odd move under it
    pytest.param(domains.hanoi(4), 3, 30, id="iw3-hanoi-4"),
    pytest.param(domains.hanoi_odd(5), 2, 42, id="iw2-hanoi-odd-5"),
])
def test_watch_index_keeps_scans_short(bundle, k, bound, monkeypatch):
    # the mean number of precondition tests per expansion: the always-list
    # plus the buckets of the watched atoms the state holds.  Watching an
    # atom most states hold, such as clear(y) in place of hold(x) for
    # stack(x,y), makes these scans 51 and 349 long.
    g = ground_bundle(bundle)
    states = []

    def recording(problem, s):
        states.append(s)
        return applicable_actions(problem, s)

    monkeypatch.setattr(search, "applicable_actions", recording)
    search.iw_k(g, k)
    buckets = g._watch_buckets
    checked = [len(g._watch_always) + sum(len(buckets[i]) for i in atoms_of(s & g._watched))
               for s in states]
    assert sum(checked) / len(checked) <= bound


@pytest.mark.parametrize("load", [
    lambda: ground_bundle(domains.grid(3, 3, 1, 9)),  # 33 atoms
    lambda: ground_bundle(domains.hanoi(3)),  # 32 atoms, static ones read
    lambda: ground_bundle(domains.delivery(2, 2, [2], target=4, start=1)),
    lambda: ground_bundle(domains.marbles([2, 1])),  # 13 atoms
    lambda: ground(parse_domain(EMPTY_ROOT_DOMAIN), parse_problem(EMPTY_ROOT_PROBLEM)),
    lambda: ground(parse_domain(NO_ACTION_DOMAIN), parse_problem(NO_ACTION_PROBLEM)),
], ids=["grid-3x3", "hanoi-3", "delivery-2x2", "marbles-2-1", "empty-precondition", "no-action"])
def test_applicability_tables_match_precondition_scan(load):
    # arbitrary states, static atoms true or false, against the plain definition
    g = load()
    tables = applicability_tables(g)
    assert len(tables.tables) <= tables.n_bytes == (g.n_atoms + 7) // 8
    rng = random.Random(7)
    states = [0, g.init, state_from_atoms(range(g.n_atoms))] + [
        state_from_atoms(rng.sample(range(g.n_atoms), rng.randint(0, g.n_atoms)))
        for _ in range(300)
    ]
    for s in states:
        expected = [a.action_id for a in g.actions if a.pre & s == a.pre]
        assert atoms_of(tables.applicable_mask(s)) == expected == applicable_actions(g, s)


def test_applicability_table_edge_cases(empty_root, no_action):
    assert empty_root.n_atoms % 8 and empty_root.actions[0].pre == 0
    tables = applicability_tables(empty_root)
    # the action with the empty precondition is in every entry of every table
    assert all(entry & 1 for _, table in tables.tables for entry in table)
    assert tables.applicable_mask(0) == 1

    assert no_action.actions == ()
    tables = applicability_tables(no_action)
    assert tables.tables == () and tables.all_actions == 0
    assert tables.applicable_mask(no_action.init) == tables.applicable_mask(1) == 0
