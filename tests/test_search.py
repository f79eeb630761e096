"""Search engines: optimality, pruning bounds, accounting, goal-test order."""

import sys
import threading
import tracemalloc
import zlib
from collections import deque
from math import comb
from types import SimpleNamespace

import pytest

from widthplan import (
    Outcome,
    bfs_optimal,
    domains,
    ground,
    is_goal,
    iw,
    iw_k,
    iw_phi,
    iw_t,
    parse_domain,
    parse_problem,
    replay,
)
from widthplan import search as search_module
from widthplan.features import parse_features
from widthplan.novelty import TupleSet, parse_tuple_set
from tests.conftest import ground_bundle


def _check_plan(problem, result, goal_test=None):
    states = replay(problem, result.plan)
    final = states[-1]
    assert goal_test(final) if goal_test else is_goal(problem, final)
    assert result.stats.expanded <= result.stats.generated


def test_bfs_grid_line():
    g = ground_bundle(domains.grid(4, 1, 1, 4))
    r = bfs_optimal(g)
    assert len(r.plan) == 3
    _check_plan(g, r)


def test_bfs_hanoi3():
    g = ground_bundle(domains.hanoi(3))
    r = bfs_optimal(g)
    assert len(r.plan) == 7  # 2^n - 1
    _check_plan(g, r)


def test_bfs_qclear2(qclear2):
    g, _ = qclear2
    assert len(bfs_optimal(g).plan) == 3


def test_bfs_node_limit():
    g = ground_bundle(domains.grid(5, 5, 1, 25))
    r = bfs_optimal(g, max_nodes=3)
    assert r.outcome is Outcome.FAILURE and "limit" in r.reason


@pytest.mark.parametrize("search", [bfs_optimal, iw, iw_k, iw_t, iw_phi])
def test_negative_node_budget_rejected(qclear2, search):
    g, bundle = qclear2
    args = {
        iw_k: (1,),
        iw_t: (parse_tuple_set(bundle.tuple_sets["walk"], g),),
        iw_phi: (parse_features(bundle.features_text),),
    }.get(search, ())
    with pytest.raises(ValueError, match="max_nodes must be >= 0, got -1"):
        search(g, *args, max_nodes=-1)
    # a budget of 0 is valid: the root alone is over it
    r = search(g, *args, max_nodes=0)
    assert r.outcome is Outcome.FAILURE and r.reason.startswith("node limit 0 exceeded")


def test_iwt_on_admissible_set_is_optimal(qclear2):
    g, bundle = qclear2
    tuples = parse_tuple_set(bundle.tuple_sets["walk"], g)
    r = iw_t(g, tuples)
    assert len(r.plan) == len(bfs_optimal(g).plan)
    assert r.stats.expanded <= len(tuples)
    _check_plan(g, r)


def test_iwt_superset_still_optimal(qclear2):
    g, bundle = qclear2
    base = parse_tuple_set(bundle.tuple_sets["walk"], g)
    extra = TupleSet.from_iterable(list(base.tuples) + [(0, 1), (2,)])
    r = iw_t(g, extra)
    assert len(r.plan) == len(bfs_optimal(g).plan)
    assert r.stats.expanded <= len(extra)


def test_iwt_empty_set_fails_without_expanding(qclear2):
    g, _ = qclear2
    r = iw_t(g, TupleSet.from_iterable([]))
    assert r.outcome is Outcome.FAILURE
    assert r.stats.expanded == 0


@pytest.mark.parametrize("height", [1, 2, 3])
def test_iw1_solves_clear_goal_optimally(height):
    g = ground_bundle(domains.blocks_clear(height))
    r = iw_k(g, 1)
    assert len(r.plan) == len(bfs_optimal(g).plan)
    assert r.stats.expanded <= g.n_atoms


def test_iw2_solves_on_goal_optimally():
    g = ground_bundle(domains.blocks_on(2, 1))
    r = iw_k(g, 2)
    assert len(r.plan) == len(bfs_optimal(g).plan)
    assert r.stats.expanded <= comb(g.n_atoms, 1) + comb(g.n_atoms, 2)


def test_iw0_goal_in_initial_state():
    g = ground_bundle(domains.grid(3, 1, 2, 2))
    r = iw_k(g, 0)
    assert r.solved and r.plan == []


def test_iw0_one_step_plan():
    g = ground_bundle(domains.grid(3, 1, 1, 2))
    r = iw_k(g, 0)
    assert r.solved and len(r.plan) == 1
    assert r.stats.expanded == 1


def test_iw0_fails_on_two_step_problem():
    g = ground_bundle(domains.grid(3, 1, 1, 3))
    assert iw_k(g, 0).outcome is Outcome.FAILURE


def test_iw_terminates_small_k_on_grid2():
    g = ground_bundle(domains.grid2(3, 2, (1, 1), (3, 2)))
    r = iw(g)
    assert r.solved and r.k <= 2
    _check_plan(g, r)


def test_iw_unsolvable_early_stop():
    text = """(define (domain t) (:predicates (p) (q) (r))
      (:action a :parameters () :precondition (and (p)) :effect (and (q))))"""
    d = parse_domain(text)
    p = parse_problem(
        "(define (problem i) (:domain t) (:objects o) (:init (p)) (:goal (and (r))))"
    )
    g = ground(d, p)
    r = iw(g)
    assert r.outcome is Outcome.NO_PLAN
    assert "duplicate" in r.reason  # stopped before exhausting k = n_atoms
    assert r.k < g.n_atoms


def test_iw_stops_at_first_iteration_over_node_limit():
    # the budget ends the run at the IW(k) that overran it, not at k = n_atoms
    g = ground_bundle(domains.hanoi(4))
    r = iw(g, max_nodes=50)
    assert r.outcome is Outcome.FAILURE and r.k == 2
    assert r.reason == "node limit 50 exceeded at k=2"
    assert len(r.iterations) == 3 and r.iterations[-1] is r.stats


def test_iw_budget_that_no_iteration_exceeds_changes_nothing():
    # the budget is met, not exceeded, by the iteration that generates most
    g = ground_bundle(domains.hanoi(4))
    free = iw(g)
    r = iw(g, max_nodes=max(it.generated for it in free.iterations))
    assert (r.outcome, r.plan, r.k, r.reason) == (free.outcome, free.plan, free.k, free.reason)
    assert [it.generated for it in r.iterations] == [it.generated for it in free.iterations]


def test_iw_rejects_max_k_out_of_range(qclear2):
    # only a negative max_k is out of range: one above the atom count runs
    # as the atom count, since no tuple is larger
    g, _ = qclear2
    with pytest.raises(ValueError, match="max_k must be >= 0, got -1"):
        iw(g, max_k=-1)
    above, at = iw(g, max_k=g.n_atoms + 1), iw(g, max_k=g.n_atoms)
    assert (above.plan, above.k, above.stats.expanded) == (at.plan, at.k, at.stats.expanded)


def test_iw_stops_at_the_numbered_atoms():
    # marbles([2, 1]) numbers the 13 atoms that can be true; IW(k) for k
    # at or above 3 is one search, and `iw` stops at k = 13
    g = ground_bundle(domains.marbles([2, 1]))
    r = iw(g)
    assert g.n_atoms == 13 and (r.outcome, r.k) == (Outcome.NO_PLAN, 13)
    assert r.reason == "no plan up to k=13"
    assert [(it.expanded, it.generated) for it in r.iterations] == (
        [(1, 4), (4, 11), (7, 17)] + [(8, 19)] * 11
    )


def test_iw_plan_valid_but_possibly_suboptimal():
    g = ground_bundle(domains.delivery(3, 1, [2], target=3, start=1))
    r = iw(g)
    assert r.solved
    _check_plan(g, r)


def test_iwphi_qclear_valuation_budget():
    bundle = domains.blocks_clear(3)
    g = ground_bundle(bundle)
    phi = parse_features(bundle.features_text)
    r = iw_phi(g, phi)
    blocks = 4  # b1..b3 and x
    assert len(r.plan) == len(bfs_optimal(g).plan)
    assert r.stats.expanded <= 2 * (blocks + 1)


def test_iwphi_marbles_optimal():
    bundle = domains.marbles([3])
    g = ground_bundle(bundle)
    r = iw_phi(g, parse_features(bundle.features_text))
    assert len(r.plan) == 4  # marbles plus boxes
    _check_plan(g, r)


def test_iwphi_pigeonhole_failure():
    # two valuations cannot carry a search past depth two
    bundle = domains.delivery(3, 1, [3], target=1, start=1)
    g = ground_bundle(bundle)
    phi = parse_features("feature H bool = nonzero(count(holding(_)))\n")
    assert len(bfs_optimal(g).plan) >= 3
    r = iw_phi(g, phi)
    assert r.outcome is Outcome.FAILURE
    assert r.stats.expanded <= 2


def test_goal_test_at_dequeue_not_generation():
    # a one-step goal is found by width 0 even though every successor is
    # pruned: the dequeued node is goal-tested before the novelty check
    g = ground_bundle(domains.grid(2, 1, 1, 2))
    r = iw_k(g, 0)
    assert r.solved and len(r.plan) == 1


def test_expansion_counts_montone_without_duplicates():
    instances = [
        domains.grid(4, 1, 1, 4),
        domains.blocks_clear(2),
        domains.delivery(2, 2, [2], target=4, start=1),
    ]
    counts = []
    for bundle in instances:
        g = ground_bundle(bundle)
        expanded = [iw_k(g, k).stats.expanded for k in (1, 2, 3)]
        assert expanded == sorted(expanded)
        counts.append(expanded)
    assert counts == [[3, 3, 3], [3, 3, 3], [5, 9, 9]]


@pytest.mark.parametrize("search", [
    lambda g, bundle: iw_k(g, 2),
    lambda g, bundle: iw_t(g, parse_tuple_set(bundle.tuple_sets["walk"], g)),
    lambda g, bundle: iw_phi(g, parse_features(bundle.features_text)),
    lambda g, bundle: bfs_optimal(g),
], ids=["iw_k", "iw_t", "iw_phi", "bfs_optimal"])
def test_goal_test_never_sees_a_state_twice(search, monkeypatch):
    # a successor already generated is dropped, so no state is dequeued
    # twice; the goal test sees each dequeued state once, so the queue's
    # pops are recorded
    bundle = domains.blocks_clear(3)
    g = ground_bundle(bundle)
    seen = []

    class RecordingQueue(deque):
        def popleft(self):
            s = super().popleft()
            seen.append(s)
            return s

    monkeypatch.setattr(search_module, "deque", RecordingQueue)
    assert search(g, bundle).solved
    assert len(seen) == len(set(seen)) > 1


def test_bfs_generated_counts_every_successor():
    # duplicates count as generated, as in the novelty searches
    r = bfs_optimal(ground_bundle(domains.hanoi(5)))
    assert (r.stats.expanded, r.stats.generated, len(r.plan)) == (448, 1342, 31)


def test_pruned_counts_no_duplicates():
    r = iw_k(ground_bundle(domains.blocks_on(5, 5)), 2)
    assert (r.stats.expanded, r.stats.generated, r.stats.pruned) == (7228, 51100, 28858)


# crc32 of (expanded, generated, plan as action names) for IW(0..3), of the
# same plus k and per-iteration counts for `iw`, then IW(T) on each bundled
# tuple set and IW(Phi) on the bundled features; keyed on names so that the
# pins outlive a renumbering of atoms and actions
PARITY_PINS = [
    ("clear-2", lambda: domains.blocks_clear(2), 470444968),
    ("clear-2-held", lambda: domains.blocks_clear(2, holding="y"), 597007936),
    # blocks_on ships no tuple set: these two are the earlier pins' rows
    # less the IW(T) row of the walk set it once carried
    ("on-1-1", lambda: domains.blocks_on(1, 1), 4145286085),
    ("on-2-1", lambda: domains.blocks_on(2, 1), 2408217159),
    ("blocks", lambda: domains.blocks([["a", "b"], ["c"]], ("on", "c", "a")), 1092845708),
    ("grid", lambda: domains.grid(4, 3, 1, 12), 3755954021),
    ("grid2", lambda: domains.grid2(3, 2, (1, 1), (3, 2)), 2982365911),
    ("delivery", lambda: domains.delivery(3, 3, [3], target=1, start=5), 1146609739),
    # `iw` runs IW(0..n) for the n = 13 atoms that can be true, not for the
    # 184 of the injective atom universe (test_iw_stops_at_the_numbered_atoms)
    ("marbles", lambda: domains.marbles([2, 1]), 2640504547),
    ("hanoi", lambda: domains.hanoi(3), 2819842384),
]


@pytest.mark.parametrize("make, crc", [p[1:] for p in PARITY_PINS], ids=[p[0] for p in PARITY_PINS])
def test_search_counts_parity_pinned(make, crc):
    bundle = make()
    g = ground_bundle(bundle)

    def counts(r):
        plan = None if r.plan is None else [str(g.actions[a]) for a in r.plan]
        return (r.stats.expanded, r.stats.generated, plan)

    rows = [counts(iw_k(g, k)) for k in range(4)]
    r = iw(g)
    rows.append(counts(r) + (r.k, [(it.expanded, it.generated) for it in r.iterations]))
    for name in sorted(bundle.tuple_sets):
        rows.append(counts(iw_t(g, parse_tuple_set(bundle.tuple_sets[name], g))))
    if bundle.features_text:
        rows.append(counts(iw_phi(g, parse_features(bundle.features_text))))
    assert zlib.crc32(repr(rows).encode()) == crc


def test_iwk_dequeues_within_bfs_horizon():
    from widthplan import oracle

    bundle = domains.delivery(2, 2, [2], target=4, start=1)
    g = ground_bundle(bundle)
    space = oracle.enumerate_space(g)
    optimal = len(bfs_optimal(g).plan)
    seen = []

    def recording_goal(s):
        seen.append(s)
        return is_goal(g, s)

    r = iw_k(g, 2, recording_goal)
    assert r.solved
    assert all(space.cost[space.index[s]] <= optimal for s in seen)
    assert r.stats.expanded <= bfs_optimal(g).stats.expanded


# -- novelty over fluent atoms: counts pinned on instances with static atoms --


@pytest.mark.parametrize("make, k, counts", [
    (lambda: domains.grid(10, 10, 1, 100), 2, (99, 359, 18)),
    (lambda: domains.hanoi(4, 1, 3), 3, (117, 350, 15)),
    (lambda: domains.hanoi(4, 1, 2), 3, (125, 373, 15)),
], ids=["grid-10x10", "hanoi-4-to-3", "hanoi-4-to-2"])
def test_iwk_counts_pinned_with_static_atoms(make, k, counts):
    g = ground_bundle(make())
    assert g.init & ~g.fluent_mask  # states carry static atoms
    r = iw_k(g, k)
    assert (r.stats.expanded, r.stats.generated, len(r.plan)) == counts


def test_iw_counts_and_iterations_pinned(delivery_small):
    g, _ = delivery_small
    r = iw(g)
    assert (r.stats.expanded, r.stats.generated, len(r.plan), r.k) == (587, 1858, 12, 3)
    # stats stay the final IW(k)'s; iterations keep every IW(0..3) run
    assert len(r.iterations) == 4 and r.iterations[-1] is r.stats
    assert sum(it.expanded for it in r.iterations) == 786


@pytest.mark.parametrize("k", [1, 2, 3])
def test_root_with_only_static_atoms_is_expanded(k):
    # (s) is never added or deleted, so the root holds no fluent atom; the
    # full tuple universe calls it novel through (s), and so must the table
    text = """(define (domain t) (:predicates (s) (p) (q))
      (:action a :parameters () :precondition (and (s)) :effect (and (p))))"""
    d = parse_domain(text)
    p = parse_problem("(define (problem i) (:domain t) (:objects o) (:init (s)) (:goal (and (q))))")
    g = ground(d, p)
    assert g.init and not g.init & g.fluent_mask
    r = iw_k(g, k)
    assert r.outcome is Outcome.FAILURE
    assert (r.stats.expanded, r.stats.generated) == (2, 3)


@pytest.mark.parametrize("k", [1, 2])
def test_root_with_no_atom_is_expanded(empty_root, k):
    # the empty tuple is true in the root, and in no state before it
    assert empty_root.init == 0
    r = iw_k(empty_root, k)
    assert r.solved and len(r.plan) == 2
    assert (r.stats.expanded, r.stats.generated) == (2, 4)


def test_iw_solves_root_with_no_atom_at_k1(empty_root):
    r = iw(empty_root)
    assert r.solved and r.k == 1
    assert [it.expanded for it in r.iterations] == [1, 2]


def test_iw2_memory_sized_by_fluent_atoms():
    # 10,000 atoms of which 100 fluent: an n-squared table would be ~100 MB
    g = ground_bundle(domains.grid(10, 10, 1, 100))
    tracemalloc.start()
    try:
        r = iw_k(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.solved
    assert peak < 5 * 2**20


def test_iw2_memory_one_parent_reference_per_state():
    # IW(2) on blocks_on(5,5) generates 38,431 distinct states; a (parent,
    # action) tuple per state, kept to rebuild the plan, took the peak
    # above 5 MB
    g = ground_bundle(domains.blocks_on(5, 5))
    tracemalloc.start()
    try:
        r = iw_k(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.solved
    assert peak < 4 * 2**20


_TWIN_DOMAIN = """(define (domain twin) (:predicates (at ?x) (next ?x ?y))
  (:action walk :parameters (?x ?y) :precondition (and (at ?x) (next ?x ?y))
    :effect (and (at ?y) (not (at ?x))))
  (:action run :parameters (?x ?y) :precondition (and (at ?x) (next ?x ?y))
    :effect (and (at ?y) (not (at ?x)))))"""


@pytest.mark.parametrize("search", [
    bfs_optimal,
    lambda g: iw_k(g, 1),
    lambda g: iw_t(g, TupleSet.from_iterable((a,) for a in range(g.n_atoms))),
    # a valuation that tells every state apart
    lambda g: iw_phi(g, SimpleNamespace(valuation=lambda _problem, s: s)),
], ids=["bfs", "iw1", "iwt", "iwphi"])
def test_plan_recovery_takes_the_lower_of_two_actions_with_one_successor(search):
    # walk and run have the same effects, so every step has two actions
    # from the same state to the same successor
    g = ground(parse_domain(_TWIN_DOMAIN), parse_problem(
        "(define (problem i) (:domain twin) (:objects a b c d)"
        " (:init (at a) (next a b) (next b c) (next c d)) (:goal (and (at d))))"))
    twins = {}  # (x, y) -> the ids of walk(x, y) and run(x, y)
    for act in g.actions:
        twins.setdefault(act.args, []).append(act.action_id)
    steps = [("a", "b"), ("b", "c"), ("c", "d")]
    assert [len(twins[step]) for step in steps] == [2, 2, 2]
    r = search(g)
    assert r.solved
    assert r.plan == [min(twins[step]) for step in steps]


@pytest.mark.parametrize("make, counts", [
    (lambda: domains.blocks_on(1, 2), (166, 520, 8)),
    (lambda: domains.delivery(2, 2, [2, 3, 4], target=1, start=1), (419, 1203, 14)),
], ids=["on-1-2", "delivery-2x2-3"])
def test_iw4_counts_pinned(make, counts):
    r = iw_k(ground_bundle(make()), 4)
    assert (r.stats.expanded, r.stats.generated, len(r.plan)) == counts


def test_iw4_memory_one_bit_per_tuple():
    # a table holding each seen 4-tuple as a tuple object peaks near 0.75 MB
    g = ground_bundle(domains.blocks_on(1, 2))
    iw_k(g, 4)  # the second call measures the search, not first-use set-up
    tracemalloc.start()
    try:
        r = iw_k(g, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.solved
    assert peak < 0.4 * 10**6


def test_concurrent_searches_share_one_problem():
    bundle = domains.delivery(3, 3, [3, 8], target=1, start=5)

    def counts(problem):
        r = iw_k(problem, 3)
        return r.stats.expanded, r.stats.generated, r.plan

    expected = counts(ground_bundle(bundle))
    shared = ground_bundle(bundle)
    results = [None] * 4

    def work(i):
        results[i] = counts(shared)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4
