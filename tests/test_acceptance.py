"""End-to-end acceptance: one test per criterion, each printing a verdict.

Criterion 10 (expansion accounting) is enforced on the fly: every
novelty-search invocation in this module goes through `_iwk` / `_iwt`,
which assert the expansion bounds and record the run.
"""

import itertools
import random
import zlib
from math import comb

from widthplan import Outcome, atoms_of, bfs_optimal, domains, is_goal, iw_k, iw_phi, iw_t, replay
from widthplan.features import parse_features
from widthplan.novelty import TupleSet, parse_tuple_set
from widthplan.oracle import (
    enumerate_space,
    effective_width,
    is_admissible,
    is_feature_acyclic_on,
    lower_bound_witness,
    sketch_width_on,
)
from widthplan.siw import run_policy, siw_r
from widthplan.sketches import build_policy_graph, parse_sketch, sieve
from tests.conftest import ground_bundle

_ACCOUNTED_RUNS = []

# pinned by a sweep over small three-package layouts: breadth-first needs
# ten steps here while the width-2 search exhausts its novelty budget
FORCED_ORDER_3PKG = dict(width=3, height=1, packages=[1, 2, 3], target=1, start=1)


def _report(num, ok, detail=""):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{' (' + detail + ')' if detail else ''}")
    assert ok, f"criterion {num} failed: {detail}"


def _iwk(problem, k, **kw):
    result = iw_k(problem, k, **kw)
    bound = sum(comb(problem.n_atoms, i) for i in range(1, k + 1)) if k else 1
    assert result.stats.expanded <= bound, f"iw({k}) expanded over {bound}"
    _ACCOUNTED_RUNS.append(("iwk", k, result.stats.expanded, bound))
    return result


def _iwt(problem, tuples, admissible, **kw):
    result = iw_t(problem, tuples, **kw)
    if admissible:
        assert result.stats.expanded <= len(tuples), "iw(T) expanded over |T|"
        _ACCOUNTED_RUNS.append(("iwt", len(tuples), result.stats.expanded, len(tuples)))
    return result


def test_criterion_01_qclear_width_one():
    checked = 0
    for height in (1, 2, 3, 4, 5):
        for holding in (None, "y"):
            bundle = domains.blocks_clear(height, holding=holding)
            g = ground_bundle(bundle)
            optimal = len(bfs_optimal(g).plan)
            r = _iwk(g, 1)
            assert r.solved and len(r.plan) == optimal, (height, holding)
            space = enumerate_space(g, cap=1_000_000)
            tuples = parse_tuple_set(bundle.tuple_sets["walk"], g)
            assert is_admissible(space, tuples).ok, (height, holding)
            r2 = _iwt(g, tuples, admissible=True)
            assert r2.solved and len(r2.plan) == optimal
            checked += 1
    _report(1, checked == 10, f"{checked} clear-goal instances, walk sets admissible")


def test_criterion_02_qon_width_two():
    checked = 0
    for above_x, above_y in itertools.product((1, 2, 3), repeat=2):
        bundle = domains.blocks_on(above_x, above_y)
        g = ground_bundle(bundle)
        optimal = len(bfs_optimal(g).plan)
        r = _iwk(g, 2)
        assert r.solved and len(r.plan) == optimal, (above_x, above_y)
        space = enumerate_space(g, cap=1_000_000)
        assert lower_bound_witness(space, 1), (above_x, above_y)
        checked += 1
    _report(2, checked == 9, "IW(2) optimal and width certified > 1 on all nine layouts")


def test_criterion_03_grid_widths():
    for width, height in [(4, 1), (10, 1), (3, 3), (5, 4), (10, 10)]:
        g = ground_bundle(domains.grid(width, height, 1, width * height))
        assert effective_width(g, 2) == 1, (width, height)
    for width, height in [(3, 3), (5, 4), (10, 10)]:
        g = ground_bundle(domains.grid2(width, height, (1, 1), (width, height)))
        assert effective_width(g, 2) == 2, (width, height)
        assert lower_bound_witness(enumerate_space(g), 1), (width, height)
    _report(3, True, "single-predicate grids width 1, split-coordinate diagonals width 2")


def test_criterion_04_delivery_widths():
    for pkg, start in [(3, 5), (9, 1), (6, 2)]:
        g = ground_bundle(domains.delivery(3, 3, [pkg], target=1, start=start))
        assert effective_width(g, 2) == 2, (pkg, start)
        assert lower_bound_witness(enumerate_space(g), 1), (pkg, start)
    g3 = ground_bundle(domains.delivery(**FORCED_ORDER_3PKG))
    space3 = enumerate_space(g3)
    assert lower_bound_witness(space3, 1)
    optimal = len(bfs_optimal(g3).plan)
    r2 = _iwk(g3, 2)
    suboptimal = (not r2.solved) or len(r2.plan) > optimal
    assert suboptimal
    _report(4, True, "one-package width 2; pinned three-package run beats width-2 pruning")


TABLE = {
    # rule set -> (sieve accepts, one-package width, two-package width)
    "r0": (True, 2, None),
    "r1": (True, 2, None),
    "r2": (True, 1, None),
    "r3": (False, None, None),
    "r4": (True, 2, 2),
    "r5": (True, 1, 1),
    "r6": (True, 2, None),
    "r7": (True, 2, None),
    "r8": (True, 0, 0),
}


def test_criterion_05_sketch_table():
    one = domains.delivery(3, 3, [3], target=1, start=5)
    two = domains.delivery(3, 2, [2, 5], target=1, start=4)
    g1, g2 = ground_bundle(one), ground_bundle(two)
    phi1, phi2 = parse_features(one.features_text), parse_features(two.features_text)
    space1, space2 = enumerate_space(g1), enumerate_space(g2)
    g3 = ground_bundle(domains.delivery(**FORCED_ORDER_3PKG))
    space3 = enumerate_space(g3)
    phi3 = parse_features(domains.delivery(**FORCED_ORDER_3PKG).features_text)

    for name, (accepts, w1, w2) in TABLE.items():
        sketch = parse_sketch(one.sketches[name])
        assert sieve(build_policy_graph(sketch)).accepted is accepts, name
        if not accepts:
            continue
        assert sketch_width_on(space1, sketch, phi1, 2).value == w1, name
        if w2 is not None:
            assert sketch_width_on(space2, sketch, phi2, 2).value == w2, name
        else:
            # the class width is unbounded: a three-package subproblem
            # already exceeds the cap
            report = sketch_width_on(space3, sketch, phi3, 2)
            assert report.value is None, name
    _report(5, True, "sieve and sketch-width columns reproduced exactly")


def test_criterion_06_siwr_segments():
    layouts = [
        (3, 3, [3]), (3, 3, [3, 8]), (3, 3, [2, 6, 9]),
        (4, 4, [6, 11]), (5, 5, [7, 13, 24]), (5, 5, [25]),
    ]
    for width, height, pkgs in layouts:
        bundle = domains.delivery(width, height, pkgs, target=1, start=min(width * height, 12))
        g = ground_bundle(bundle)
        phi = parse_features(bundle.features_text)
        r5 = siw_r(g, parse_sketch(bundle.sketches["r5"]), phi, k_max=1)
        assert r5.solved and all(seg.k <= 1 for seg in r5.segments), (width, height, pkgs)
        assert is_goal(g, replay(g, r5.plan)[-1])
        r8 = siw_r(g, parse_sketch(bundle.sketches["r8"]), phi, k_max=0)
        assert r8.solved and all(len(seg.plan) == 1 for seg in r8.segments)
    _report(6, True, f"{len(layouts)} delivery layouts solved; R5 at k<=1, R8 in unit steps")


def test_criterion_07_hanoi_policy():
    for n in (3, 5, 7):
        bundle = domains.hanoi_odd(n)
        g = ground_bundle(bundle)
        run = run_policy(g, parse_sketch(bundle.sketches["policy"]), parse_features(bundle.features_text))
        assert run.reached_goal and len(run.actions) == 2**n - 1, n
    _report(7, True, "alternation policy takes exactly 2^n - 1 moves for n = 3, 5, 7")


def test_criterion_08_iw_phi():
    for height in (1, 2, 3, 4):
        bundle = domains.blocks_clear(height)
        g = ground_bundle(bundle)
        phi = parse_features(bundle.features_text)
        r = iw_phi(g, phi)
        assert r.solved and len(r.plan) == len(bfs_optimal(g).plan), height
        assert r.stats.expanded <= 2 * (height + 2), height

    profiles = [[1], [3], [2, 2], [1, 2, 1], [4, 3], [2, 2, 2, 2], [4, 4, 1]]
    for counts in profiles:
        assert sum(counts) + len(counts) <= 12
        bundle = domains.marbles(counts)
        g = ground_bundle(bundle)
        r = iw_phi(g, parse_features(bundle.features_text))
        assert r.solved and len(r.plan) == sum(counts) + len(counts), counts
        assert len(r.plan) == len(bfs_optimal(g).plan), counts

    pigeon = domains.delivery(3, 1, [3], target=1, start=1)
    g = ground_bundle(pigeon)
    assert len(bfs_optimal(g).plan) >= 3
    only_h = parse_features("feature H bool = nonzero(count(holding(_)))\n")
    r = iw_phi(g, only_h)
    assert r.outcome is Outcome.FAILURE and r.stats.expanded <= 2
    _report(8, True, "clear-goal and marbles optimal within valuation budgets; pigeonhole fails")


ORACLE_MATRIX = [
    ("grid-1x4", lambda: domains.grid(4, 1, 1, 4)),
    ("grid2-2x2", lambda: domains.grid2(2, 2, (1, 1), (2, 2))),
    ("qclear-2", lambda: domains.blocks_clear(2)),
    ("qon-1-1", lambda: domains.blocks_on(1, 1)),
    ("delivery-2x2", lambda: domains.delivery(2, 2, [2], target=4, start=1)),
]


def test_criterion_09a_dual_route_agreement():
    for name, make in ORACLE_MATRIX:
        g = ground_bundle(make())
        space = enumerate_space(g)
        rng = random.Random(0xC0FFEE ^ zlib.crc32(name.encode()) & 0xFFFF)
        for _ in range(110):
            tuples = []
            for _ in range(rng.randint(1, 5)):
                s = space.states[rng.randrange(len(space))]
                pool = atoms_of(s)
                tuples.append(tuple(rng.sample(pool, rng.randint(1, min(3, len(pool))))))
            report = is_admissible(space, TupleSet.from_iterable(tuples))  # raises on disagreement
            if report.ok:
                ts = TupleSet.from_iterable(tuples)
                r = _iwt(g, ts, admissible=True)
                assert r.solved and len(r.plan) == space.problem_cost
    _report("9a", True, "direct and envelope routes agree on 550 randomized tuple sets")


def test_criterion_09b_cost_trajectory_lemma():
    from tests.test_oracle import _goal_reaching_paths

    for _name, make in ORACLE_MATRIX:
        g = ground_bundle(make())
        space = enumerate_space(g)
        assert len(space) <= 5000
        pc = space.problem_cost

        def cost_increasing(i, j):
            ci, cj = space.cost_star(i), space.cost_star(j)
            return ci is not None and cj is not None and ci < cj

        def optimal_step(i, j):
            return space.cost[j] == space.cost[i] + 1 and space.cost[j] <= pc

        lhs = _goal_reaching_paths(space, cost_increasing)
        rhs = {p for p in _goal_reaching_paths(space, optimal_step) if len(p) == pc + 1}
        assert lhs == rhs
    _report("9b", True, "goal-reaching cost-relation trajectories = optimal trajectories")


def test_criterion_09c_sieve_acceptance_implies_feature_acyclicity():
    checks = 0
    delivery_instances = [
        domains.delivery(3, 3, [3], target=1, start=5),
        domains.delivery(2, 2, [2, 3], target=1, start=4),
        domains.delivery(3, 1, [2], target=3, start=1),
    ]
    for bundle in delivery_instances:
        g = ground_bundle(bundle)
        phi = parse_features(bundle.features_text)
        space = enumerate_space(g)
        for name, text in bundle.sketches.items():
            sketch = parse_sketch(text)
            if sieve(build_policy_graph(sketch)).accepted:
                assert is_feature_acyclic_on(space, sketch, phi), name
                checks += 1
    for make in (
        lambda: domains.blocks_clear(3),
        lambda: domains.grid(4, 1, 1, 4),
        lambda: domains.grid2(3, 2, (1, 1), (3, 2)),
        lambda: domains.marbles([2, 1]),
        lambda: domains.hanoi_odd(3),
    ):
        bundle = make()
        g = ground_bundle(bundle)
        phi = parse_features(bundle.features_text)
        sketch = parse_sketch(bundle.sketches["policy"])
        if sieve(build_policy_graph(sketch)).accepted:
            assert is_feature_acyclic_on(enumerate_space(g), sketch, phi)
            checks += 1

    # the rejection side is not claimed in general, but the all-Boolean
    # alternation policy shows it is no false alarm: its long trajectories
    # must repeat valuations, and the oracle agrees
    hanoi = domains.hanoi_odd(3)
    gh = ground_bundle(hanoi)
    hs = parse_sketch(hanoi.sketches["policy"])
    assert not sieve(build_policy_graph(hs)).accepted
    assert not is_feature_acyclic_on(
        enumerate_space(gh), hs, parse_features(hanoi.features_text)
    )
    _report("9c", True, f"{checks} accepted sketches feature-acyclic on their instances")


def test_criterion_09d_zero_width_equivalence():
    solving = [
        (domains.blocks_clear(3), "policy"),
        (domains.marbles([2, 1]), "policy"),
        (domains.delivery(3, 2, [2, 6], target=1, start=4), "r8"),
        (domains.hanoi_odd(3), "policy"),
    ]
    for bundle, key in solving:
        g = ground_bundle(bundle)
        sketch = parse_sketch(bundle.sketches[key])
        phi = parse_features(bundle.features_text)
        assert run_policy(g, sketch, phi).reached_goal, bundle.family
        assert siw_r(g, sketch, phi, k_max=0).solved, bundle.family

    stuck = [
        (domains.delivery(3, 3, [3], target=1, start=5), "r0"),
        (domains.delivery(3, 3, [3], target=1, start=5), "r2"),
    ]
    for bundle, key in stuck:
        g = ground_bundle(bundle)
        sketch = parse_sketch(bundle.sketches[key])
        phi = parse_features(bundle.features_text)
        assert not run_policy(g, sketch, phi).reached_goal, key
        assert not siw_r(g, sketch, phi, k_max=0).solved, key
    _report("9d", True, "policies solve iff zero-width serialized search succeeds")


def test_criterion_10_accounting_summary():
    # the bounds were asserted inside _iwk/_iwt at every call site; this
    # just confirms the evidence actually accumulated
    iwk_runs = [r for r in _ACCOUNTED_RUNS if r[0] == "iwk"]
    iwt_runs = [r for r in _ACCOUNTED_RUNS if r[0] == "iwt"]
    ok = len(iwk_runs) >= 20 and len(iwt_runs) >= 10
    _report(10, ok, f"{len(iwk_runs)} bounded iw(k) runs, {len(iwt_runs)} bounded iw(T) runs")
