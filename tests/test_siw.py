"""Serialized subgoal search and greedy policy execution."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthplan import (
    Outcome, applicable_actions, bfs_optimal, domains, ground, is_goal, iw, parse_domain,
    parse_problem, replay,
)
from widthplan.features import FeatureError, parse_features
from widthplan.oracle import enumerate_space, is_feature_acyclic_on, sketch_width_on
from widthplan.siw import run_policy, siw_r
from widthplan.sketches import parse_sketch, relation
from tests.conftest import bundle_features, bundle_sketch, ground_bundle
from tests.test_oracle import _sketch_width_walking_every_member, _small_bundles


def _replay_serialized(problem, result):
    states = replay(problem, result.plan)
    assert is_goal(problem, states[-1])


def test_siwr_delivery_r5_segments_width_one(delivery_small):
    g, bundle = delivery_small
    res = siw_r(g, bundle_sketch(bundle, "r5"), bundle_features(bundle), k_max=1)
    assert res.solved
    assert all(seg.k <= 1 for seg in res.segments)
    _replay_serialized(g, res)


def test_siwr_r0_single_segment_plain_iw(delivery_one):
    g, bundle = delivery_one
    res = siw_r(g, bundle_sketch(bundle, "r0"), bundle_features(bundle), k_max=2)
    assert res.solved and len(res.segments) == 1
    assert res.segments[0].k == 2
    assert len(res.plan) == len(bfs_optimal(g).plan)


def test_siwr_r8_zero_width_unit_segments(delivery_small):
    g, bundle = delivery_small
    res = siw_r(g, bundle_sketch(bundle, "r8"), bundle_features(bundle), k_max=0)
    assert res.solved
    assert all(len(seg.plan) == 1 for seg in res.segments)
    _replay_serialized(g, res)


def test_siwr_hanoi_exponential_segments(hanoi3):
    g, bundle = hanoi3
    res = siw_r(g, bundle_sketch(bundle), bundle_features(bundle), k_max=0)
    assert res.solved and len(res.segments) == 7
    assert all(len(seg.plan) == 1 for seg in res.segments)


def test_siwr_segment_endpoints_relate(delivery_small):
    g, bundle = delivery_small
    sketch = bundle_sketch(bundle, "r5")
    res = siw_r(g, sketch, bundle_features(bundle), k_max=1)
    assert is_goal(g, replay(g, res.plan)[-1])
    for seg in res.segments[:-1]:
        assert relation(sketch, seg.start_values, seg.end_values)


def test_siwr_inner_exhaustion_reported(delivery_one):
    g, bundle = delivery_one
    res = siw_r(g, bundle_sketch(bundle, "r0"), bundle_features(bundle), k_max=1)
    assert res.outcome is Outcome.FAILURE
    assert res.reason.startswith("inner")


def test_siwr_cycle_guard_on_non_acyclic_rules(delivery_one):
    g, bundle = delivery_one
    res = siw_r(g, bundle_sketch(bundle, "r3"), bundle_features(bundle), k_max=1)
    assert res.outcome is Outcome.FAILURE
    assert res.reason.startswith("cycle")


def test_run_policy_qclear_length():
    bundle = domains.blocks_clear(3)
    g = ground_bundle(bundle)
    run = run_policy(g, bundle_sketch(bundle), bundle_features(bundle))
    assert run.reached_goal
    assert len(run.actions) == 5  # confirmed optimal by search
    assert len(bfs_optimal(g).plan) == 5


def test_run_policy_marbles_length():
    for counts in ([3], [2, 2], [1, 2, 1]):
        bundle = domains.marbles(counts)
        g = ground_bundle(bundle)
        run = run_policy(g, bundle_sketch(bundle), bundle_features(bundle))
        assert run.reached_goal
        assert len(run.actions) == sum(counts) + len(counts)


def test_run_policy_empty_sketch_stuck(delivery_one):
    g, bundle = delivery_one
    run = run_policy(g, bundle_sketch(bundle, "r0"), bundle_features(bundle))
    assert run.status == "stuck" and run.states == [g.init]


def test_run_policy_trajectory_is_valid(delivery_small):
    g, bundle = delivery_small
    run = run_policy(g, bundle_sketch(bundle), bundle_features(bundle))
    assert run.reached_goal
    assert replay(g, run.actions)[-1] == run.states[-1]


ZERO_WIDTH_PAIRS = [
    ("blocks-clear", lambda: domains.blocks_clear(3), "policy"),
    ("marbles", lambda: domains.marbles([2, 1]), "policy"),
    ("delivery-r8", lambda: domains.delivery(3, 2, [2, 6], target=1, start=4), "r8"),
    ("hanoi", lambda: domains.hanoi_odd(3), "policy"),
]


@pytest.mark.parametrize("name,make,key", ZERO_WIDTH_PAIRS, ids=lambda v: v if isinstance(v, str) else "")
def test_zero_width_matches_policy_success(name, make, key):
    bundle = make()
    g = ground_bundle(bundle)
    sketch = parse_sketch(bundle.sketches[key])
    phi = bundle_features(bundle)
    assert run_policy(g, sketch, phi).reached_goal
    res = siw_r(g, sketch, phi, k_max=0)
    assert res.solved


def test_zero_width_fails_where_policy_stuck(delivery_one):
    g, bundle = delivery_one
    sketch = parse_sketch(bundle.sketches["r2"])  # helps until holding, then stalls
    phi = bundle_features(bundle)
    assert run_policy(g, sketch, phi).status == "stuck"
    assert not siw_r(g, sketch, phi, k_max=0).solved


def test_siwr_totals_sum_every_iteration():
    # failed lower-k runs count too: the final IW(k) runs alone expand 2,334
    bundle = domains.delivery(5, 5, [7, 13, 24], target=1, start=12)
    g = ground_bundle(bundle)
    res = siw_r(g, bundle_sketch(bundle, "r4"), bundle_features(bundle), k_max=2)
    assert res.solved
    runs = [it for seg in res.segments for it in seg.iterations]
    assert res.stats.expanded == sum(it.expanded for it in runs) == 2421
    assert res.stats.generated == sum(it.generated for it in runs)
    assert sum(seg.iterations[-1].expanded for seg in res.segments) == 2334
    for seg in res.segments:
        assert len(seg.iterations) == seg.k + 1
        assert seg.stats.expanded == sum(it.expanded for it in seg.iterations)


# -- parity pins: plan length / segments / expanded / generated per sketch ------

DELIVERY_PINS = {
    (4, 4, (3, 8, 12), 1, 5): {"r4": (29, 3, 1211, 4080), "r5": (29, 6, 126, 483),
                               "r8": (29, 29, 29, 130)},
    (5, 5, (7, 13, 24), 1, 12): {"r4": (31, 3, 2421, 8420), "r5": (29, 6, 173, 718),
                                 "r8": (29, 29, 29, 146)},
    (6, 6, (3, 8, 20, 30, 12), 1, 5): {"r4": (56, 5, 11843, 41969), "r5": (52, 10, 323, 1363),
                                       "r8": (52, 52, 52, 256)},
}
K_MAX = {"r4": 2, "r5": 1, "r8": 0}


@pytest.mark.parametrize("layout", list(DELIVERY_PINS), ids=lambda l: f"{l[0]}x{l[1]}x{len(l[2])}")
def test_siwr_delivery_parity_pins(layout):
    width, height, packages, target, start = layout
    bundle = domains.delivery(width, height, list(packages), target=target, start=start)
    g = ground_bundle(bundle)
    phi = bundle_features(bundle)
    for rules, pin in DELIVERY_PINS[layout].items():
        sketch = bundle_sketch(bundle, rules)
        res = siw_r(g, sketch, phi, k_max=K_MAX[rules])
        assert res.solved
        assert (len(res.plan), len(res.segments), res.stats.expanded,
                res.stats.generated) == pin, rules
        # each segment's start and end values are the whole header's values
        # of the states the segment starts from and reaches
        bound = phi.select(sketch.names_kinds)
        s = g.init
        for seg in res.segments:
            assert seg.start_values == bound.valuation(g, s)
            s = replay(g, seg.plan, s)[-1]
            assert seg.end_values == bound.valuation(g, s)


def test_run_policy_hanoi_odd_seven():
    bundle = domains.hanoi_odd(7)
    g = ground_bundle(bundle)
    run = run_policy(g, bundle_sketch(bundle), bundle_features(bundle))
    assert run.status == "goal" and len(run.actions) == 2**7 - 1
    assert replay(g, run.actions)[-1] == run.states[-1]
    # SIW_R chains one one-step segment per policy step; it ends by its
    # revisit check alone, however many segments the sketch needs
    for k_max in (0, 1):
        res = siw_r(g, bundle_sketch(bundle), bundle_features(bundle), k_max=k_max)
        assert res.solved and len(res.segments) == 2**7 - 1
        assert res.plan == run.actions


def test_run_policy_cyclic():
    bundle = domains.grid(3, 1, 1, 3)
    g = ground_bundle(bundle)
    sketch = parse_sketch("features { d: num; } rules { { d>0 } => { d? }; }")
    run = run_policy(g, sketch, bundle_features(bundle))
    # the first successor compatible with `d?` is the way back
    assert run.status == "cyclic" and not run.reached_goal
    assert [str(g.actions[a]) for a in run.actions] == ["(move c1 c2)", "(move c2 c1)"]
    assert run.states[-1] == run.states[0] == g.init


def test_run_policy_counts_states_expanded_and_successors(hanoi3):
    g, bundle = hanoi3
    run = run_policy(g, bundle_sketch(bundle), bundle_features(bundle))
    assert run.reached_goal and run.expanded == 7
    assert run.generated == sum(
        len(applicable_actions(g, s)) for s in run.states if not is_goal(g, s)
    )


def test_concurrent_siwr_share_one_problem_and_features():
    bundle = domains.delivery(4, 4, [3, 8, 12], target=1, start=5)
    sketch = bundle_sketch(bundle, "r4")

    def segments(problem, phi):
        res = siw_r(problem, sketch, phi, k_max=2)
        values = [phi.valuation(problem, s) for s in replay(problem, res.plan)]
        return [(seg.k, seg.plan, seg.start_values, seg.end_values) for seg in res.segments], values

    expected = segments(ground_bundle(bundle), bundle_features(bundle))
    shared, shared_phi = ground_bundle(bundle), bundle_features(bundle)
    results = [None] * 4

    def work(i):
        results[i] = segments(shared, shared_phi)

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


def test_siwr_runs_share_compiled_kernels(delivery_small, monkeypatch):
    # each siw_r selects the sketch's features anew; the selections reuse the
    # kernels the first run compiled for the problem
    from widthplan import features

    g, bundle = delivery_small
    sketch, phi = bundle_sketch(bundle, "r5"), bundle_features(bundle)
    compiled = []
    original = features.compile_feature

    def counting(feature, problem):
        compiled.append(feature.name)
        return original(feature, problem)

    monkeypatch.setattr(features, "compile_feature", counting)
    first = siw_r(g, sketch, phi, k_max=1)
    second = siw_r(g, sketch, phi, k_max=1)
    assert first.plan == second.plan
    assert sorted(compiled) == sorted(name for name, _ in sketch.names_kinds)


def test_run_policy_stops_at_the_step_cap(monkeypatch):
    from widthplan import siw

    bundle = domains.hanoi_odd(5)
    g = ground_bundle(bundle)
    monkeypatch.setattr(siw, "STEP_CAP", 3)
    run = run_policy(g, bundle_sketch(bundle), bundle_features(bundle))
    assert run.status == "cap" and not run.reached_goal
    assert (len(run.actions), run.expanded, run.generated) == (3, 3, 8)
    assert run.states == replay(g, run.actions)


# Moves follow `link`, a -> b -> c; the distance d follows `road`, which
# leads from a to c and not from b, so d fails on b alone.
_ROADS_DOMAIN = """(define (domain roads)
  (:predicates (at ?x) (link ?x ?y) (road ?x ?y))
  (:action move :parameters (?x ?y)
    :precondition (and (at ?x) (link ?x ?y))
    :effect (and (at ?y) (not (at ?x)))))
"""
_ROADS_FEATURES = parse_features(
    "feature B bool = nonzero(count(at(b)))\n"
    "feature C bool = nonzero(count(at(c)))\n"
    "feature d num = distance(at, road, cells(c))\n"
)
# d is unread: each rule leaves it `?`.  One segment a -> c; then two, a -> b -> c
_TO_C = parse_sketch("features { C: bool; d: num; } rules { { !C } => { C, d? }; }")
_BY_B = parse_sketch("features { B: bool; C: bool; d: num; }\n"
                     "rules { { !B, !C } => { B, d? }; { B } => { !B, C, d? }; }")


def _roads(start):
    problem = f"""(define (problem roads-3) (:domain roads) (:objects a b c)
  (:init (at {start}) (link a b) (link b c) (road a c)) (:goal (and (at c))))"""
    return ground(parse_domain(_ROADS_DOMAIN), parse_problem(problem))


def test_an_unread_feature_is_not_valued_inside_a_segment():
    # the subgoal test values b on C alone; the old full-header test raised
    g = _roads("a")
    res = siw_r(g, _TO_C, _ROADS_FEATURES, k_max=1)
    assert res.solved and len(res.plan) == 2
    assert [(seg.start_values, seg.end_values) for seg in res.segments] == [((0, 1), (1, 0))]
    # run_policy and the sketch-width oracle value only B and C
    assert run_policy(g, _BY_B, _ROADS_FEATURES).reached_goal
    space = enumerate_space(g)
    assert sketch_width_on(space, _BY_B, _ROADS_FEATURES).value == 0
    # feature-acyclicity is over the whole header, so it values d on b
    with pytest.raises(FeatureError, match="reachable from 'b'"):
        is_feature_acyclic_on(space, _BY_B, _ROADS_FEATURES)


def test_an_unread_feature_still_fails_at_segment_ends():
    # segment starts and ends are valued on the whole header
    with pytest.raises(FeatureError, match="reachable from 'b'"):
        siw_r(_roads("a"), _BY_B, _ROADS_FEATURES, k_max=1)  # the first segment ends on b
    with pytest.raises(FeatureError, match="reachable from 'b'"):
        siw_r(_roads("b"), _TO_C, _ROADS_FEATURES, k_max=1)  # the first segment starts on b


def test_an_unread_feature_must_still_be_declared():
    # names and kinds are checked over the whole header
    sketch = parse_sketch("features { C: bool; x: num; } rules { { !C } => { C, x? }; }")
    g = _roads("a")
    for run in (lambda: siw_r(g, sketch, _ROADS_FEATURES, k_max=1),
                lambda: run_policy(g, sketch, _ROADS_FEATURES),
                lambda: sketch_width_on(enumerate_space(g), sketch, _ROADS_FEATURES)):
        with pytest.raises(FeatureError, match="feature 'x' not defined"):
            run()


# -- parity with valuing the whole header ----------------------------------------


def _siw_r_full_header(problem, sketch, phi, k_max):
    """`siw_r` with a subgoal test over the sketch's whole header: (plan,
    [(k, plan, start values, end values)], expanded, generated, reason)."""
    bound = phi.select(sketch.names_kinds)
    s, seen, plan, segments, runs = problem.init, {problem.init}, [], [], []
    reason = None
    while not is_goal(problem, s):
        start = bound.valuation(problem, s)
        result = iw(problem, lambda st: is_goal(problem, st) or relation(
            sketch, start, bound.valuation(problem, st)), start=s, max_k=k_max)
        runs += result.iterations
        if not result.solved:
            plan, reason = None, f"inner search exhausted k_max={k_max}: {result.reason}"
            break
        s = result.goal_state
        segments.append((result.k, result.plan, start, bound.valuation(problem, s)))
        plan += result.plan
        if not is_goal(problem, s):
            if s in seen:
                plan, reason = None, "cycle guard: segment start revisited"
                break
            seen.add(s)
    return (plan, segments, sum(it.expanded for it in runs), sum(it.generated for it in runs),
            reason)


def _run_policy_full_header(problem, sketch, phi):
    """`run_policy` over the sketch's whole header: (status, states, actions,
    expanded, generated)."""
    bound = phi.select(sketch.names_kinds)
    s, states, actions, expanded, generated = problem.init, [problem.init], [], 0, 0
    status = "goal"
    while not is_goal(problem, s):
        values = bound.valuation(problem, s)
        aids = applicable_actions(problem, s)
        expanded, generated = expanded + 1, generated + len(aids)
        succs = [(aid, (s & ~problem.actions[aid].delete) | problem.actions[aid].add) for aid in aids]
        step = next(((aid, t) for aid, t in succs
                     if relation(sketch, values, bound.valuation(problem, t))), None)
        if step is None:
            status = "stuck"
            break
        actions.append(step[0])
        s = step[1]
        if s in states:
            status = "cyclic"
            states.append(s)
            break
        states.append(s)
    return status, states, actions, expanded, generated


@settings(max_examples=60, deadline=None)
@given(bundle=_small_bundles(("delivery",)), data=st.data())
def test_valuing_the_read_features_changes_no_result(bundle, data):
    if bundle is None:
        return
    g, phi = ground_bundle(bundle), bundle_features(bundle)
    space = enumerate_space(g)
    for name in ("r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8"):
        sketch = bundle_sketch(bundle, name)
        k_max = data.draw(st.integers(0, 2), label=f"k_max {name}")
        res = siw_r(g, sketch, phi, k_max=k_max)
        segments = [(seg.k, seg.plan, seg.start_values, seg.end_values) for seg in res.segments]
        assert (res.plan, segments, res.stats.expanded, res.stats.generated, res.reason) == \
            _siw_r_full_header(g, sketch, phi, k_max), name
        run = run_policy(g, sketch, phi)
        assert (run.status, run.states, run.actions, run.expanded, run.generated) == \
            _run_policy_full_header(g, sketch, phi), name
        report = sketch_width_on(space, sketch, phi, 2)
        value, size, widths, reason = _sketch_width_walking_every_member(space, sketch, phi, 2)
        assert (report.value, report.family_size, list(report.subproblem_widths.items()),
                report.reason) == (value, size, list(widths.items()), reason), name
