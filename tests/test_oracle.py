"""Brute-force verification checks against the search algorithms."""

import random
import zlib
from array import array
from dataclasses import replace
from bisect import bisect_right
from collections import deque
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthplan import (
    Outcome, applicable_actions, apply, atoms_of, bfs_optimal, domains, ground, iw, iw_k,
    iw_phi, iw_t, is_goal, oracle, parse_domain, parse_problem, replay,
)
from widthplan.domains import DomainError
from widthplan.features import compile_feature, parse_features
from widthplan.novelty import NoveltyTable, TupleSet, all_tuples_up_to, parse_tuple_set
from widthplan.oracle import (
    OracleError,
    StateSpace,
    _breadth_first,
    _compatibility,
    _opt_membership,
    _smallest_width,
    enumerate_space,
    effective_width,
    is_admissible,
    is_cost_envelope,
    is_feature_acyclic_on,
    lower_bound_witness,
    opt_states,
    sketch_width_on,
    tuple_cost,
)
from widthplan.siw import siw_r
from widthplan.sketches import build_policy_graph, parse_sketch, relation, sieve
from widthplan.strips import (
    GroundAction, GroundAtom, GroundProblem, applicability_tables, state_from_atoms,
)
from tests.conftest import bundle_features, ground_bundle


def test_enumerate_grid2_cells():
    g = ground_bundle(domains.grid2(2, 2, (1, 1), (2, 2)))
    assert len(enumerate_space(g)) == 4


def test_enumerate_hanoi3():
    g = ground_bundle(domains.hanoi(3))
    # 3^n disk configurations, nearly all reachable at both move parities
    assert len(enumerate_space(g)) == 54


def test_enumerate_costs(qclear2):
    g, _ = qclear2
    space = enumerate_space(g)
    assert space.cost[space.index[g.init]] == 0
    assert space.problem_cost == 3
    goal_idx = next(i for i, f in enumerate(space.goal_flags) if f)
    assert space.cost_star(goal_idx) == 3


def test_enumerate_cap():
    g = ground_bundle(domains.blocks_on(2, 2))
    with pytest.raises(OracleError, match="cap"):
        enumerate_space(g, cap=10)


@pytest.mark.parametrize("cap", [0, -1])
def test_enumerate_rejects_cap_below_one(no_action, cap):
    # a cap below one is refused before the initial state is numbered, even
    # where no action could ever add a second state
    assert no_action.actions == () and len(enumerate_space(no_action, cap=1)) == 1
    with pytest.raises(OracleError, match=f"^cap must be >= 1, got {cap}$"):
        enumerate_space(no_action, cap=cap)


# every bundle whose family ships tuple sets, on a small parameter grid
TUPLE_SET_BUNDLES = [
    *[(f"clear-{n}", lambda n=n: domains.blocks_clear(n)) for n in range(1, 6)],
    *[(f"clear-{n}-held", lambda n=n: domains.blocks_clear(n, holding="y")) for n in range(1, 6)],
    *[(f"on-{l}-{m}", lambda l=l, m=m: domains.blocks_on(l, m))
      for l in range(1, 4) for m in range(1, 5 - l)],
]


def _solved_optimally_by_iw(g, space, tuples):
    """An admissible tuple set T makes IW(T) optimal, and IW(k) too, with k
    the size of T's largest tuple."""
    k = max(map(len, tuples.tuples))
    for result in (iw_t(g, tuples), iw_k(g, k)):
        assert result.solved and len(result.plan) == space.problem_cost, (k, tuples)


@pytest.mark.parametrize("make", [m for _, m in TUPLE_SET_BUNDLES], ids=[n for n, _ in TUPLE_SET_BUNDLES])
def test_bundled_tuple_sets_are_admissible(make):
    bundle = make()
    g = ground_bundle(bundle)
    space = enumerate_space(g)
    for name, text in bundle.tuple_sets.items():
        tuples = parse_tuple_set(text, g)
        report = is_admissible(space, tuples)
        assert report.ok and report.envelope.ok, (name, report.reason)
        _solved_optimally_by_iw(g, space, tuples)


def test_opt_states_clear_goal(qclear2):
    g, _ = qclear2
    space = enumerate_space(g)
    clear_x = TupleSet.from_iterable([(g.atom_id("clear", ("x",)),)])
    chosen = opt_states(space, clear_x)
    assert chosen
    assert all(space.cost[i] == 3 for i in chosen)
    assert all((space.states[i] >> g.atom_id("clear", ("x",))) & 1 for i in chosen)


def test_opt_states_unreachable_tuple():
    g = ground_bundle(domains.grid(3, 1, 1, 3))
    space = enumerate_space(g)
    # well formed but never true, so not numbered: its tuple is unreachable
    assert g.atom_id("adjacent", ("c1", "c3")) is None
    unreachable = parse_tuple_set("adjacent(c1,c3)", g)
    assert tuple_cost(space, unreachable.masks()[0]) is None
    assert opt_states(space, unreachable) == set()


def test_opt_states_empty_tuple(qclear2):
    g, _ = qclear2
    space = enumerate_space(g)
    assert opt_states(space, TupleSet.from_iterable([()])) == {space.index[g.init]}


def test_cost_envelope_of_optimal_trajectory():
    g = ground_bundle(domains.grid(4, 1, 1, 4))
    space = enumerate_space(g)
    from widthplan import replay

    members = {space.index[s] for s in replay(g, bfs_optimal(g).plan)}
    assert is_cost_envelope(space, members).ok


def test_cost_envelope_rejects_initial_only(qclear2):
    g, _ = qclear2
    space = enumerate_space(g)
    report = is_cost_envelope(space, {space.index[g.init]})
    assert not report.ok and report.witness == g.init


def test_qclear_walk_set_is_admissible_and_an_envelope(qclear2):
    g, bundle = qclear2
    space = enumerate_space(g)
    tuples = parse_tuple_set(bundle.tuple_sets["walk"], g)
    report = is_admissible(space, tuples)
    assert report.ok and report.envelope.ok
    assert is_cost_envelope(space, opt_states(space, tuples)).ok


def test_qon_singletons_not_admissible():
    g = ground_bundle(domains.blocks_on(1, 1))
    space = enumerate_space(g)
    reachable_atoms = sorted({a for s in space.states for a in atoms_of(s)})
    singles = TupleSet.from_iterable([(a,) for a in reachable_atoms])
    assert not is_admissible(space, singles).ok


def test_empty_tuple_set_not_admissible(qclear2):
    g, _ = qclear2
    space = enumerate_space(g)
    assert not is_admissible(space, TupleSet.from_iterable([])).ok


def test_admissible_refuses_negative_goals():
    g = ground_bundle(domains.marbles([1]))
    space = enumerate_space(g)
    with pytest.raises(OracleError, match="positive"):
        is_admissible(space, TupleSet.from_iterable([(0,)]))


def test_admissible_unreachable_tuple_witness():
    g = ground_bundle(domains.grid(3, 1, 1, 3))
    space = enumerate_space(g)
    bad = parse_tuple_set("adjacent(c1,c2) & pos(c1)\nadjacent(c1,c3)\n", g)
    report = is_admissible(space, bad)
    assert not report.ok and report.reason == "unreachable tuple {adjacent(c1,c3)}"
    assert bad.state_str(g, report.witness) == "{adjacent(c1,c3)}"


# tiny instances, by the name that seeds their draws, and how many of the
# 120 draws are admissible.  On qclear-2, qon-1-1 and delivery-2x2 none of
# them is: there the test checks only that the two routes agree on rejections
DUAL_ROUTE_INSTANCES = [
    ("grid-1x4", lambda: domains.grid(4, 1, 1, 4), 1),
    ("grid2-2x2", lambda: domains.grid2(2, 2, (1, 1), (2, 2)), 5),
    ("qclear-2", lambda: domains.blocks_clear(2), 0),
    ("qon-1-1", lambda: domains.blocks_on(1, 1), 0),
    ("delivery-2x2", lambda: domains.delivery(2, 2, [2], target=4, start=1), 0),
]


@pytest.mark.parametrize("name,make,admissible", DUAL_ROUTE_INSTANCES,
                         ids=[n for n, _, _ in DUAL_ROUTE_INSTANCES])
def test_dual_route_agreement_randomized(name, make, admissible):
    # is_admissible raises if its two routes ever disagree
    g = ground_bundle(make())
    space = enumerate_space(g)
    rng = random.Random(zlib.crc32(name.encode()))
    admissible_seen = 0
    for _ in range(120):
        n_tuples = rng.randint(1, 6)
        tuples = []
        for _ in range(n_tuples):
            s = space.states[rng.randrange(len(space))]
            atoms = atoms_of(s)
            size = rng.randint(1, min(3, len(atoms)))
            tuples.append(tuple(rng.sample(atoms, size)))
        ts = TupleSet.from_iterable(tuples)
        report = is_admissible(space, ts)
        if report.ok:
            admissible_seen += 1
            result = iw_t(g, ts)
            assert result.solved
            assert len(result.plan) == space.problem_cost
            assert result.stats.expanded <= len(ts)
    assert admissible_seen == admissible


# tiny instances, by the name that seeds their draws, and how many of the
# 1,500 draws are admissible
IMPLICATION_INSTANCES = [
    ("grid-1x4", lambda: domains.grid(4, 1, 1, 4), 8),
    ("grid2-2x2", lambda: domains.grid2(2, 2, (1, 1), (2, 2)), 16),
    ("qclear-2", lambda: domains.blocks_clear(2), 19),
    ("qclear-2-held", lambda: domains.blocks_clear(2, holding="y"), 1),
    ("hanoi-1", lambda: domains.hanoi(1), 147),
    ("delivery-2x1", lambda: domains.delivery(2, 1, [2], target=1, start=1), 1),
]


@pytest.mark.parametrize("name,make,admissible", IMPLICATION_INSTANCES,
                         ids=[n for n, _, _ in IMPLICATION_INSTANCES])
def test_admissible_tuple_sets_make_iw_optimal(name, make, admissible):
    # seeded draws of 1-6 tuples of 1-2 atoms, each true in a reachable state
    g = ground_bundle(make())
    space = enumerate_space(g)
    rng = random.Random(zlib.crc32(name.encode()))
    seen = 0
    for _ in range(1500):
        tuples = []
        for _ in range(rng.randint(1, 6)):
            atoms = atoms_of(space.states[rng.randrange(len(space))])
            tuples.append(tuple(rng.sample(atoms, rng.randint(1, min(2, len(atoms))))))
        ts = TupleSet.from_iterable(tuples)
        if is_admissible(space, ts).ok:
            seen += 1
            _solved_optimally_by_iw(g, space, ts)
    assert seen == admissible


def _goal_reaching_paths(space, step_ok):
    """All goal-reaching trajectories from the start under `step_ok`."""
    out = []
    start = space.index[space.start]

    def walk(i, path):
        if space.goal_flags[i]:
            out.append(tuple(path))
            return
        for _aid, j in space.successors(i):
            if step_ok(i, j):
                path.append(j)
                walk(j, path)
                path.pop()

    walk(start, [start])
    return set(out)


PCOST_INSTANCES = [
    lambda: domains.grid(4, 1, 1, 4),
    lambda: domains.grid2(2, 2, (1, 1), (2, 2)),
    lambda: domains.blocks_clear(2),
    lambda: domains.delivery(2, 2, [2], target=4, start=1),
]


@pytest.mark.parametrize("make", PCOST_INSTANCES)
def test_cost_relation_trajectories_are_optimal_trajectories(make):
    g = ground_bundle(make())
    space = enumerate_space(g)
    pc = space.problem_cost

    def cost_increasing(i, j):
        ci, cj = space.cost_star(i), space.cost_star(j)
        return ci is not None and cj is not None and ci < cj

    def optimal_step(i, j):
        return space.cost[j] == space.cost[i] + 1 and space.cost[j] <= pc

    pcost_paths = _goal_reaching_paths(space, cost_increasing)
    optimal_paths = {
        p for p in _goal_reaching_paths(space, optimal_step) if len(p) == pc + 1
    }
    assert pcost_paths == optimal_paths


def test_lower_bound_examples():
    cases = [
        (domains.grid2(3, 3, (1, 1), (3, 3)), 1, True),
        (domains.blocks_on(1, 1), 1, True),
        (domains.delivery(3, 1, [1, 2, 3], target=1, start=1), 1, True),
        (domains.grid(4, 1, 1, 4), 1, False),
    ]
    for bundle, k, expected in cases:
        g = ground_bundle(bundle)
        assert lower_bound_witness(enumerate_space(g), k) is expected


@pytest.mark.parametrize("height", [1, 2, 3, 4])
def test_effective_width_qclear(height):
    # a one-step instance has width 0 by convention; taller towers need 1
    g = ground_bundle(domains.blocks_clear(height))
    assert effective_width(g, 2) == (0 if height == 1 else 1)


def test_effective_width_grid2_diagonal():
    g = ground_bundle(domains.grid2(3, 3, (1, 1), (3, 3)))
    assert effective_width(g, 3) == 2


def test_effective_width_delivery_one(delivery_one):
    g, _ = delivery_one
    assert effective_width(g, 3) == 2


def test_effective_width_cap_exceeded():
    g = ground_bundle(domains.delivery(3, 1, [1, 2, 3], target=1, start=1))
    assert effective_width(g, 2) is None


def test_feature_acyclic_table_rows(delivery_one):
    g, bundle = delivery_one
    phi = bundle_features(bundle)
    space = enumerate_space(g)
    assert not is_feature_acyclic_on(space, parse_sketch(bundle.sketches["r3"]), phi)
    assert is_feature_acyclic_on(space, parse_sketch(bundle.sketches["r5"]), phi)
    assert is_feature_acyclic_on(space, parse_sketch(bundle.sketches["r0"]), phi)


def test_sketch_width_table_rows(delivery_one):
    g, bundle = delivery_one
    phi = bundle_features(bundle)
    space = enumerate_space(g)
    for name, expected in [("r2", 1), ("r5", 1), ("r8", 0), ("r0", 2)]:
        report = sketch_width_on(space, parse_sketch(bundle.sketches[name]), phi, 2)
        assert report.value == expected, name


def test_sketch_width_two_packages():
    bundle = domains.delivery(3, 2, [2, 5], target=1, start=4)
    g = ground_bundle(bundle)
    phi = bundle_features(bundle)
    space = enumerate_space(g)
    for name, expected in [("r4", 2), ("r5", 1), ("r8", 0)]:
        report = sketch_width_on(space, parse_sketch(bundle.sketches[name]), phi, 2)
        assert report.value == expected, name


def test_width_bracket_consistency(qclear2):
    # a lower-bound witness at k-1 plus an optimal run at k pins the width,
    # and the example tuple set confirms it from above
    g, bundle = qclear2
    space = enumerate_space(g)
    assert effective_width(g, 2) == 1
    assert lower_bound_witness(space, 0)
    tuples = parse_tuple_set(bundle.tuple_sets["walk"], g)
    assert is_admissible(space, tuples).ok and {len(t) for t in tuples.tuples} == {1}


def test_iwphi_optimal_when_policy_valuations_form_envelope():
    from widthplan import iw_phi
    from widthplan.sketches import parse_sketch, relation

    def policy_closure(g, sketch, phi):
        # the initial state closed under the transitions that leave a
        # non-goal state and satisfy some rule
        seen, frontier = {g.init}, [g.init]
        while frontier:
            s = frontier.pop()
            if is_goal(g, s):
                continue
            values = phi.valuation(g, s)
            for aid in applicable_actions(g, s):
                succ = apply(g, s, aid)
                if succ not in seen and relation(sketch, values, phi.valuation(g, succ)):
                    seen.add(succ)
                    frontier.append(succ)
        return seen

    for make, key in [
        (lambda: domains.blocks_clear(2), "policy"),
        (lambda: domains.blocks_clear(3), "policy"),
        (lambda: domains.grid(4, 1, 1, 4), "policy"),
    ]:
        bundle = make()
        g = ground_bundle(bundle)
        sketch = parse_sketch(bundle.sketches[key])
        phi = bundle_features(bundle).select(sketch.names_kinds)
        space = enumerate_space(g)
        reached = policy_closure(g, sketch, phi)
        valuations = {phi.valuation(g, s) for s in reached}
        members = {
            i
            for i, s in enumerate(space.states)
            if phi.valuation(g, s) in valuations
            and space.cost[i]
            == min(
                space.cost[j]
                for j, s2 in enumerate(space.states)
                if phi.valuation(g, s2) == phi.valuation(g, s)
            )
        }
        if is_cost_envelope(space, members).ok:
            result = iw_phi(g, phi)
            assert result.solved
            assert len(result.plan) == space.problem_cost


# ---------------------------------------------------------------------------
# The explicit state graph and the walks over it

GRAPH_INSTANCES = [
    ("grid-3x3", lambda: domains.grid(3, 3, 1, 9)),
    ("grid2-3x3", lambda: domains.grid2(3, 3, (1, 1), (3, 3))),
    ("qclear-3", lambda: domains.blocks_clear(3)),
    ("qon-1-2", lambda: domains.blocks_on(1, 2)),
    ("delivery-3x2", lambda: domains.delivery(3, 2, [2, 5], 1, 4)),
    ("hanoi-3", lambda: domains.hanoi(3)),
    ("marbles-2-1", lambda: domains.marbles([2, 1])),
]


@pytest.fixture(scope="module", params=GRAPH_INSTANCES, ids=[n for n, _ in GRAPH_INSTANCES])
def graph_space(request):
    g = ground_bundle(request.param[1]())
    return g, enumerate_space(g)


def _enumerate_reference(problem, cap):
    """The enumeration loop as it was before the applicability tables: the
    sorted `applicable_actions` per state and one `is_goal` call per state."""
    root = problem.init
    states, index = [root], {root: 0}
    cost, offsets, targets = array("i", [0]), array("i", [0]), array("i")
    i = 0
    while i < len(states):
        s = states[i]
        for aid in applicable_actions(problem, s):
            act = problem.actions[aid]
            succ = (s & ~act.delete) | act.add
            j = index.get(succ)
            if j is None:
                if len(states) >= cap:
                    raise OracleError(f"state space exceeds cap {cap}")
                j = index[succ] = len(states)
                states.append(succ)
                cost.append(cost[i] + 1)
            targets.append(j)
        offsets.append(len(targets))
        i += 1
    goal_flags = bytearray(is_goal(problem, s) for s in states)
    first_goal = goal_flags.find(1)
    problem_cost = cost[first_goal] if first_goal >= 0 else None
    return StateSpace(problem, states, index, cost, goal_flags, problem_cost, offsets, targets)


def _first_difference(got, want):
    """The first index at which two sequences differ, or None if they are equal."""
    differ = (i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return next(differ, None if len(got) == len(want) else min(len(got), len(want)))


def _assert_same_space(space, reference):
    # states are integers of up to an atom count of bits, which pytest would
    # print whole: report where the sequences part and how long they are
    assert space.problem is reference.problem
    for name in ("states", "index", "cost", "offsets", "targets"):
        got, want = getattr(space, name), getattr(reference, name)
        if name == "index":
            got, want = list(got.items()), list(want.items())
        elif name != "states":
            assert got.typecode == want.typecode, name
        i = _first_difference(got, want)
        assert i is None, f"{name} differ first at index {i}; lengths {len(got)} and {len(want)}"
    assert type(space.goal_flags) is bytearray and space.goal_flags == reference.goal_flags
    assert space.problem_cost == reference.problem_cost


def test_enumeration_matches_reference_loop(graph_space):
    g, space = graph_space
    _assert_same_space(space, _enumerate_reference(g, len(space)))


def test_a_space_mismatch_names_its_first_index():
    g = ground_bundle(domains.grid(3, 1, 1, 3))
    space = enumerate_space(g)
    states = [*space.states[:1], 1 << 5000, *space.states[1:]]
    with pytest.raises(AssertionError, match="states differ first at index 1; lengths 4 and 3"):
        _assert_same_space(replace(space, states=states), space)
    n = len(space.targets)
    with pytest.raises(AssertionError, match=f"targets differ first at index {n - 1}; lengths {n - 1} and {n}"):
        _assert_same_space(replace(space, targets=space.targets[:-1]), space)


@st.composite
def _small_bundles(draw, families=(
        "blocks", "blocks-clear", "blocks-on", "delivery", "grid", "grid2", "hanoi", "marbles")):
    """Small bundles of the generated `families`; some parameters are
    invalid, which `generate` rejects."""
    family = draw(st.sampled_from(families))
    width, height = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    cell = st.integers(1, max(1, width * height)).map(str)
    if family == "blocks-clear":
        params = {"l": draw(st.integers(1, 3).map(str))}
    elif family == "blocks-on":
        params = {"l": draw(st.integers(0, 2).map(str)), "m": draw(st.integers(0, 2).map(str))}
    elif family == "blocks":
        towers = draw(st.sampled_from(["a.b;c", "a;b.c", "a.b.c", "a;b"]))
        goal = draw(st.sampled_from(["on:a:c", "clear:b", "on:b:a"]))
        params = {"towers": towers, "goal": goal}
    elif family == "grid":
        params = {"width": str(width), "height": str(height),
                  "start": draw(cell), "goal": draw(cell)}
    elif family == "grid2":
        pair = st.tuples(st.integers(1, max(1, width)), st.integers(1, height)).map(
            lambda p: f"{p[0]},{p[1]}")
        params = {"width": str(width), "height": str(height),
                  "start": draw(pair), "goal": draw(pair)}
    elif family == "delivery":
        packages = draw(st.lists(cell, max_size=2))
        params = {"width": str(width), "height": str(height), "target": draw(cell),
                  "start": draw(cell), "packages": ",".join(packages)}
    elif family == "marbles":
        params = {"counts": ",".join(map(str, draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))))}
    else:
        params = {"n": draw(st.integers(1, 3).map(str))}
    try:
        return domains.generate(family, params)
    except DomainError:
        return None


@settings(max_examples=60, deadline=None)
@given(bundle=_small_bundles(), data=st.data())
def test_enumeration_matches_reference_on_generated_bundles(bundle, data):
    if bundle is None:
        return
    g = ground_bundle(bundle)
    space = enumerate_space(g)
    _assert_same_space(space, _enumerate_reference(g, len(space)))
    # a smaller cap raises at the same state count in both loops
    cap = data.draw(st.integers(1, len(space)), label="cap")
    outcomes = []
    for enumerate_with in (enumerate_space, _enumerate_reference):
        try:
            outcomes.append(enumerate_with(g, cap))
        except OracleError as e:
            outcomes.append(str(e))
    if cap == len(space):
        _assert_same_space(*outcomes)
    else:
        assert outcomes == [f"state space exceeds cap {cap}"] * 2


def _synthetic(n_atoms, actions, init, goal=()):
    """A ground problem over `n_atoms` nullary atoms p0, p1, ...; `actions`
    holds (pre, add, delete) atom-id lists."""
    atoms = tuple(GroundAtom(i, f"p{i}", ()) for i in range(n_atoms))
    ground_actions = tuple(
        GroundAction(aid, f"a{aid}", (), *map(state_from_atoms, effects))
        for aid, effects in enumerate(actions))
    return GroundProblem("synthetic", atoms, ground_actions, state_from_atoms(init),
                         state_from_atoms(goal), 0)


# 4 bytes, of which preconditions read bytes 0 and 2: byte 1 is only added,
# byte 3 only deleted, and a4 has an empty precondition
UNREAD_BYTES = _synthetic(32, [
    ([0], [1, 9], [0]),
    ([1], [16, 25], [1, 31]),
    ([16], [2, 10], [16]),
    ([2, 16], [3], []),
    ([], [8], [24]),
], init=[0, 24, 31], goal=[2])


def test_enumeration_matches_reference_on_kernel_shapes(empty_root, no_action):
    grid2 = ground_bundle(domains.grid2(2, 2, (1, 1), (2, 2)))
    shapes = {
        # 2 atoms, one read byte, an empty precondition
        "empty_root": (empty_root, 1, [0]),
        # no action: no table, and the mask is `all_actions` = 0
        "no_action": (no_action, 1, []),
        "unread_bytes": (UNREAD_BYTES, 4, [0, 2]),
        # 8 atoms: one full byte
        "one_byte": (grid2, 1, [0]),
    }
    sizes = {}
    for name, (problem, n_bytes, read) in shapes.items():
        tables = applicability_tables(problem)
        assert (tables.n_bytes, [b for b, _ in tables.tables]) == (n_bytes, read), name
        assert tables.all_actions == (1 << len(problem.actions)) - 1
        space = enumerate_space(problem)
        _assert_same_space(space, _enumerate_reference(problem, len(space)))
        sizes[name] = len(space)
    assert sizes == {"empty_root": 3, "no_action": 1, "unread_bytes": 8, "one_byte": 4}


@st.composite
def _random_problems(draw):
    """Up to 40 atoms and 8 actions, each reading, adding and deleting a few
    random atoms, so that some bytes are never read."""
    n_atoms = draw(st.integers(1, 40))
    atom_lists = st.lists(st.integers(0, n_atoms - 1), max_size=3)
    actions = draw(st.lists(st.tuples(atom_lists, atom_lists, atom_lists), max_size=8))
    return _synthetic(n_atoms, actions, draw(atom_lists), draw(atom_lists))


@settings(max_examples=200, deadline=None)
@given(problem=_random_problems())
def test_enumeration_matches_reference_on_random_problems(problem):
    outcomes = []
    for enumerate_with in (enumerate_space, _enumerate_reference):
        try:
            outcomes.append(enumerate_with(problem, 300))
        except OracleError as e:
            outcomes.append(str(e))
    if isinstance(outcomes[0], str):
        assert outcomes == ["state space exceeds cap 300"] * 2
    else:
        _assert_same_space(*outcomes)


def test_enumeration_compiles_a_precondition_of_3000_bytes():
    # one action reads one atom of each of 3,000 bytes: a single AND of
    # 3,000 terms would not compile.  It is applicable only where all of
    # them hold, so every statement of the split AND counts
    reads = [8 * b for b in range(3000)]
    for init, size in ((reads, 2), (reads[1:], 1), (reads[:-1], 1)):
        problem = _synthetic(8 * 3000, [(reads, [1], [])], init=init, goal=[1])
        assert len(applicability_tables(problem).tables) == 3000
        space = enumerate_space(problem)
        _assert_same_space(space, _enumerate_reference(problem, len(space)))
        assert len(space) == size


def test_kernel_names_do_not_depend_on_the_problem():
    # a name only a kernel held would enter and leave the interpreter's
    # table of interned strings on every enumeration
    codes = [oracle._compile_kernel(1, [0]).__code__,
             oracle._compile_kernel(3000, list(range(0, 3000, 7))).__code__]
    names = [code.co_varnames + code.co_names for code in codes]
    assert names[0] == names[1]


def _bfs_with_action_links(problem, accept, max_nodes=None):
    """The search engine as it was when each generated state kept a
    (parent, action id) link: outcome, reason, plan, expanded, generated,
    pruned, goal state."""
    parent = {problem.init: None}
    queue = deque([problem.init])
    expanded, generated, pruned = 0, 1, 0
    while queue:
        s = queue.popleft()
        if is_goal(problem, s):
            plan, link = [], parent[s]
            while link is not None:
                plan.append(link[1])
                link = parent[link[0]]
            return Outcome.SOLVED, None, plan[::-1], expanded, generated, pruned, s
        if accept is not None:
            link = parent[s]
            if not accept(s, s if link is None else s ^ link[0]):
                pruned += 1
                continue
        expanded += 1
        aids = applicable_actions(problem, s)
        generated += len(aids)
        for aid in aids:
            act = problem.actions[aid]
            succ = (s & ~act.delete) | act.add
            if succ not in parent:
                parent[succ] = (s, aid)
                queue.append(succ)
        if max_nodes is not None and generated > max_nodes:
            return (Outcome.FAILURE, f"node limit {max_nodes} exceeded", None,
                    expanded, generated, pruned, None)
    if accept is None:
        return Outcome.NO_PLAN, "state space exhausted", None, expanded, generated, pruned, None
    return Outcome.FAILURE, "queue exhausted", None, expanded, generated, pruned, None


def _seen_valuation(problem, phi):
    """The pruning test of `iw_phi`: a state is new iff its valuation is."""
    seen = set()

    def accept(s, _delta):
        v = phi.valuation(problem, s)
        if v in seen:
            return False
        seen.add(v)
        return True

    return accept


@settings(max_examples=60, deadline=None)
@given(bundle=_small_bundles(), data=st.data())
def test_searches_match_the_engine_with_action_links(bundle, data):
    # every exit path: goal, exhausted queue and node limit, the last with
    # budgets of 0, 1 and a drawn value, so the counters written back on
    # each exit are compared
    if bundle is None:
        return
    g = ground_bundle(bundle)
    tuple_sets = [parse_tuple_set(text, g) for text in bundle.tuple_sets.values()]
    phi = parse_features(bundle.features_text) if bundle.features_text else None
    for max_nodes in (None, 0, 1, data.draw(st.integers(2, 200), label="max_nodes")):
        runs = [(bfs_optimal(g, max_nodes=max_nodes), None)]
        runs += [(iw_k(g, k, max_nodes=max_nodes), NoveltyTable(all_tuples_up_to(g, k)).register)
                 for k in range(4)]
        runs += [(iw_t(g, ts, max_nodes=max_nodes), NoveltyTable(ts).register) for ts in tuple_sets]
        if phi is not None:
            runs.append((iw_phi(g, phi, max_nodes=max_nodes), _seen_valuation(g, phi)))
        for r, accept in runs:
            stats = r.stats
            got = (r.outcome, r.reason, r.plan, stats.expanded, stats.generated, stats.pruned,
                   r.goal_state)
            assert got == _bfs_with_action_links(g, accept, max_nodes)
        # iw's per-iteration stats are those of IW(0), IW(1), ... in turn
        result = iw(g, max_k=3, max_nodes=max_nodes)
        assert result.iterations[-1] is result.stats
        for k, stats in enumerate(result.iterations):
            _, _, _, *counts, _ = _bfs_with_action_links(
                g, NoveltyTable(all_tuples_up_to(g, k)).register, max_nodes)
            assert [stats.expanded, stats.generated, stats.pruned] == counts


@settings(max_examples=300, deadline=None)
@given(bundle=_small_bundles())
def test_generated_bundles_parse_with_their_own_features_and_sketches(bundle):
    if bundle is None or bundle.features_text is None:
        return
    g = ground_bundle(bundle)
    phi = parse_features(bundle.features_text)
    for feature in phi:
        compile_feature(feature, g)
    for text in bundle.sketches.values():
        phi.select(parse_sketch(text).names_kinds)


_CONDITIONS = {"bool": ["{}", "!{}"], "num": ["{}=0", "{}>0"]}
# `?` twice: a rule that leaves a feature unknown lets more valuations follow
_EFFECTS = {"bool": ["{}", "!{}", "{}?", "{}?"], "num": ["{}++", "{}--", "{}?", "{}?"]}


@st.composite
def _random_sketches(draw, phi):
    """One to three rules over the features of `phi`, each feature left out
    of a rule side or given a random form on it."""
    rules = []
    for _ in range(draw(st.integers(1, 3), label="rules")):
        sides = []
        for forms in (_CONDITIONS, _EFFECTS):
            ops = [draw(st.sampled_from([None, *forms[f.kind]])) for f in phi]
            sides.append(", ".join(op.format(f.name) for op, f in zip(ops, phi) if op))
        rules.append("{ %s } => { %s };" % tuple(sides))
    names = "".join(f"{f.name}: {f.kind}; " for f in phi)
    return "features { " + names + "}\nrules { " + " ".join(rules) + " }\n"


@settings(max_examples=300, deadline=None)
@given(bundle=_small_bundles(), data=st.data())
def test_sketches_the_sieve_accepts_are_feature_acyclic(bundle, data):
    # the policy graph and the relation read the same compiled rules: a
    # cycle of the relation on the states would be a cycle the sieve kept.
    # The bundled sketches pass even a sieve that ignores increments; random
    # ones do not.
    if bundle is None or not bundle.sketches:
        return
    space = enumerate_space(ground_bundle(bundle))
    phi = parse_features(bundle.features_text)
    drawn = [data.draw(_random_sketches(phi), label="sketch") for _ in range(3)]
    for text in [*bundle.sketches.values(), *drawn]:
        sketch = parse_sketch(text)
        if sieve(build_policy_graph(sketch)).accepted:
            assert is_feature_acyclic_on(space, sketch, phi), text


def test_rows_match_recomputed_successors(graph_space):
    g, space = graph_space
    assert len(space.offsets) == len(space) + 1
    assert space.offsets[0] == 0 and space.offsets[-1] == len(space.targets)
    for i, s in enumerate(space.states):
        aids = applicable_actions(g, s)
        expected = [space.index[apply(g, s, aid)] for aid in aids]
        assert list(space.targets[space.offsets[i]:space.offsets[i + 1]]) == expected
        assert space.successors(i) == list(zip(aids, expected))


def test_cost_is_breadth_first_and_does_not_decrease(graph_space):
    _g, space = graph_space
    cost = space.cost
    assert cost[0] == 0 and space.states[0] == space.start
    assert all(a <= b for a, b in zip(cost, cost[1:]))
    best_pred = [None] * len(space)
    for i in range(len(space)):
        for j in space.targets[space.offsets[i]:space.offsets[i + 1]]:
            assert cost[j] <= cost[i] + 1
            if best_pred[j] is None or cost[i] < best_pred[j]:
                best_pred[j] = cost[i]
    assert all(best_pred[j] == cost[j] - 1 for j in range(1, len(space)))


def _membership_reference(space, k):
    """Min-cost membership for all tuples of size <= k, the empty tuple
    included, by tuple dicts."""
    best: dict[tuple[int, ...], int] = {}
    tuples_of = []
    for i, s in enumerate(space.states):
        atoms = atoms_of(s)
        ts = [t for size in range(k + 1) for t in combinations(atoms, size)]
        tuples_of.append(ts)
        for t in ts:
            best[t] = min(best.get(t, space.cost[i]), space.cost[i])
    return [any(best[t] == space.cost[i] for t in ts) for i, ts in enumerate(tuples_of)]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_opt_membership_matches_tuple_dicts(graph_space, k):
    _g, space = graph_space
    member = _opt_membership(space, k, space.cost[-1])
    assert [bool(m) for m in member] == _membership_reference(space, k)


def _assert_bounded_membership(space, k, max_cost):
    """The sweep bounded at `max_cost` decides the states up to that cost as
    the full sweep does, and leaves the rest 0."""
    full = _opt_membership(space, k, space.cost[-1])
    bounded = _opt_membership(space, k, max_cost)
    n = bisect_right(space.cost, max_cost)
    assert len(bounded) == len(space)
    assert bounded[:n] == full[:n] and not any(bounded[n:])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_opt_membership_bounded_at_the_problem_cost(graph_space, k):
    _g, space = graph_space
    assert space.problem_cost is not None
    _assert_bounded_membership(space, k, space.problem_cost)


@settings(max_examples=60, deadline=None)
@given(bundle=_small_bundles(), data=st.data())
def test_opt_membership_bounded_at_any_cost(bundle, data):
    if bundle is None:
        return
    space = enumerate_space(ground_bundle(bundle))
    bounds = {data.draw(st.integers(0, space.cost[-1] + 1), label="max_cost")}
    if space.problem_cost is not None:
        bounds.add(space.problem_cost)
    for k in range(4):
        for max_cost in bounds:
            _assert_bounded_membership(space, k, max_cost)


def test_root_with_no_atom_is_a_member_at_every_k(empty_root):
    # only the empty tuple makes the root a min-cost state, and IW(1) is
    # optimal, so the width does not exceed 1
    space = enumerate_space(empty_root)
    assert space.start == 0
    for k in range(4):
        member = _opt_membership(space, k, space.cost[-1])
        assert member[0] == 1
        assert [bool(m) for m in member] == _membership_reference(space, k)
    assert lower_bound_witness(space, 0) is True
    assert lower_bound_witness(space, 1) is False


def test_lower_bound_is_monotone_in_k(graph_space):
    # a trajectory inside the min-cost states of tuples of size <= k - 1
    # stays inside those of size <= k
    g, space = graph_space
    if g.goal_neg:
        with pytest.raises(OracleError, match="positive-conjunction"):
            lower_bound_witness(space, 0)
        return
    verdicts = [lower_bound_witness(space, k) for k in range(4)]
    assert verdicts == sorted(verdicts, reverse=True)


def test_cap_raises_at_the_same_state_count(graph_space):
    g, space = graph_space
    assert len(enumerate_space(g, cap=len(space))) == len(space)
    with pytest.raises(OracleError, match=f"exceeds cap {len(space) - 1}"):
        enumerate_space(g, cap=len(space) - 1)


def _crc(values) -> int:
    return zlib.crc32(repr(list(values)).encode())


def _random_tuple(rng, space, size_cap=3):
    atoms = atoms_of(space.states[rng.randrange(len(space))])
    return tuple(rng.sample(atoms, rng.randint(1, min(size_cap, len(atoms)))))


def _name(g, state):
    return None if state is None else g.state_str(state)


# name -> (states, lower bounds for k = 0, 1, 2, crc32 of the tuple costs
# (single atoms by name, then drawn tuples), of the opt_states sets, of both
# admissibility routes' reports (witnesses by name), admissible sets among
# those checked); keyed on names so that the pins outlive a renumbering of
# atoms
ORACLE_PINS = {
    "grid2-3x3": (9, (True, True, False), 2278119740, 2013817670, 1398962447, 2),
    "qclear-3": (125, (True, False, False), 3948732346, 2298717887, 914586957, 2),
    # re-derived from the earlier pin less the blocks_on walk set, which is gone
    "qon-1-2": (866, (True, True, False), 3787169449, 3965659156, 658285140, 1),
    "delivery-3x2": (288, (True, True, True), 1699233114, 3773599821, 1462252145, 1),
    "hanoi-3": (54, (True, True, False), 3361641356, 2118554113, 791614787, 1),
}


@pytest.mark.parametrize("name", list(ORACLE_PINS))
def test_oracle_parity_pins(name):
    bundle = dict(GRAPH_INSTANCES)[name]()
    g = ground_bundle(bundle)
    space = enumerate_space(g)
    rng = random.Random(zlib.crc32(name.encode()))
    held = sorted({a for s in space.states for a in atoms_of(s)})
    singles = [(str(g.atoms[a]), tuple_cost(space, 1 << a)) for a in held]
    drawn = [_random_tuple(rng, space) for _ in range(200)]
    costs = singles + [tuple_cost(space, TupleSet.from_iterable([t]).masks()[0]) for t in drawn]
    sets = [
        TupleSet.from_iterable([_random_tuple(rng, space) for _ in range(rng.randint(1, 6))])
        for _ in range(60)
    ]
    for k in (1, 2):  # every tuple of size <= k that some state holds
        sets.append(TupleSet.from_iterable(sorted(
            {t for s in space.states for n in range(1, k + 1) for t in combinations(atoms_of(s), n)}
        )))
    sets += [parse_tuple_set(text, g) for _, text in sorted(bundle.tuple_sets.items())]
    # the states of an optimal plan, each as one tuple
    sets.append(TupleSet.from_iterable(tuple(atoms_of(s)) for s in replay(g, bfs_optimal(g).plan)))
    chosen, reports, admissible = [], [], 0
    for ts in sets:
        chosen.append(sorted(opt_states(space, ts)))
        report = is_admissible(space, ts)
        env = report.envelope
        reports.append((report.ok, _name(g, report.witness), report.reason,
                        env is not None and (env.ok, _name(g, env.witness), env.reason)))
        admissible += report.ok
    got = (
        len(space),
        tuple(lower_bound_witness(space, k) for k in range(3)),
        _crc(costs),
        _crc(chosen),
        _crc(reports),
        admissible,
    )
    assert got == ORACLE_PINS[name]


# sketch -> (sketch width, family size, crc32 of the subproblem widths) on
# delivery(3, 2, [2, 5], 1, 4); recorded before subproblem optimal lengths
# were read from the state graph
SKETCH_WIDTH_PINS = {
    "policy": (0, 10, 1091240948),
    "r0": (None, 1, 3381564966),
    "r1": (None, 1, 3381564966),
    "r2": (None, 61, 1327262565),
    "r3": (1, 210, 3960063109),
    "r4": (2, 73, 1136786366),
    "r5": (1, 133, 620650367),
    "r6": (None, 2, 3060983770),
    "r7": (None, 1, 3381564966),
    "r8": (0, 10, 1091240948),
}


def test_sketch_width_family_pins():
    bundle = domains.delivery(3, 2, [2, 5], 1, 4)
    g = ground_bundle(bundle)
    phi = bundle_features(bundle)
    space = enumerate_space(g)
    got = {}
    for name in sorted(bundle.sketches):
        report = sketch_width_on(space, parse_sketch(bundle.sketches[name]), phi, 2)
        got[name] = (report.value, report.family_size, _crc(report.subproblem_widths.items()))
    assert got == SKETCH_WIDTH_PINS


_ONEWAY_DOMAIN = """(define (domain oneway)
  (:predicates (at ?x) (link ?x ?y) (sealed))
  (:action move :parameters (?x ?y)
    :precondition (and (at ?x) (link ?x ?y))
    :effect (and (at ?y) (not (at ?x)))))
"""

_ONEWAY_PROBLEM = """(define (problem oneway-3) (:domain oneway)
  (:objects a b c)
  (:init (at a) (link a b) (link b c))
  (:goal (and (sealed))))
"""


def test_sketch_width_dead_end_subproblem():
    # from b neither the (unreachable) goal nor a subgoal of b can be reached
    g = ground(parse_domain(_ONEWAY_DOMAIN), parse_problem(_ONEWAY_PROBLEM))
    phi = parse_features("feature A bool = nonzero(count(at(a)))\n")
    sketch = parse_sketch("features { A: bool; }\nrules { { A } => { !A }; }")
    space = enumerate_space(g)
    assert len(space) == 3 and space.problem_cost is None
    report = sketch_width_on(space, sketch, phi, 2)
    assert report.value is None and report.family_size == 2
    assert report.subproblem_widths == {0: 0, 1: None}
    assert "at(b)" in report.reason and "dead end" in report.reason


def test_sketch_width_when_the_initial_state_is_a_goal():
    # the family is the goal root alone, a subproblem of width 0
    bundle = domains.grid(3, 1, 2, 2)
    g = ground_bundle(bundle)
    space = enumerate_space(g)
    assert space.goal_flags[0]
    report = sketch_width_on(space, parse_sketch(bundle.sketches["policy"]), bundle_features(bundle), 2)
    assert (report.value, report.family_size, report.subproblem_widths) == (0, 1, {0: 0})
    assert not report.reason


def _sketch_width_walking_every_member(space, sketch, phi, k_cap):
    """`sketch_width_on` before full walks were shared per valuation class:
    every member with no goal or subgoal successor walks all it can reach.
    Returns (value, family size, subproblem widths, reason)."""
    problem, goal = space.problem, space.goal_flags
    state_val, compat = _compatibility(space, sketch, phi)
    offsets, targets = space.offsets, space.targets
    family, in_family, optimal = [0], {0}, {}
    pos = 0
    while pos < len(family):
        i = family[pos]
        pos += 1
        if goal[i]:
            continue
        below = compat[state_val[i]]
        succs = targets[offsets[i]:offsets[i + 1]]
        if any(goal[j] or below[state_val[j]] for j in succs):
            new_starts = [j for j in succs if not goal[j] and below[state_val[j]]]
            dist = 0 if below[state_val[i]] else 1
        else:
            new_starts, dist = [], None
            for j, d in _breadth_first(space, i):
                if goal[j] or below[state_val[j]]:
                    if dist is None:
                        dist = d
                    if not goal[j]:
                        new_starts.append(j)
        optimal[i] = dist
        for j in new_starts:
            if j not in in_family:
                in_family.add(j)
                family.append(j)
    widths, worst = {}, 0
    for i in family:
        if goal[i]:
            widths[i] = 0
            continue
        below = compat[state_val[i]]

        def subgoal(st, below=below):
            j = space.index[st]
            return bool(goal[j] or below[state_val[j]])

        w = None if optimal[i] is None else _smallest_width(
            problem, optimal[i], k_cap, start=space.states[i], goal_test=subgoal)
        widths[i] = w
        if w is None:
            return (None, len(family), widths, f"subproblem from {problem.state_str(space.states[i])} "
                    f"has width above {k_cap} or is a dead end")
        worst = max(worst, w)
    return worst, len(family), widths, ""


def _graph_bundle(n_nodes, links, marked, goal):
    """A token on the digraph `links` over nodes 0..n_nodes-1, starting at
    node 0, with the goal of reaching node `goal` and a Boolean feature Bk,
    true at node marked[k]."""
    nodes = " ".join(f"n{i}" for i in range(n_nodes))
    init = " ".join(f"(link n{a} n{b})" for a, b in links)
    problem = (f"(define (problem walk) (:domain oneway) (:objects {nodes})\n"
               f"  (:init (at n0) {init}) (:goal (and (at n{goal}))))\n")
    features = "".join(f"feature B{k} bool = nonzero(count(at(n{x})))\n" for k, x in enumerate(marked))
    return domains.Bundle("graph", _ONEWAY_DOMAIN, problem, features)


@st.composite
def _one_way_graphs(draw):
    """`_graph_bundle` on a random digraph of at most seven nodes.  Its
    states reach different parts of the space, where every `_small_bundles`
    space but marbles' is strongly connected: one walk from any state
    reaches every state."""
    n = draw(st.integers(2, 7), label="nodes")
    links = draw(st.lists(st.sampled_from(list(permutations(range(n), 2))), max_size=14, unique=True),
                 label="links")
    marked = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True), label="marked")
    return _graph_bundle(n, links, marked, draw(st.integers(0, n - 1), label="goal"))


@st.composite
def _bundles_with_rules(draw):
    """A `_small_bundles` or `_one_way_graphs` draw with its bundled sketches
    and three random rule sets over its features; None without features."""
    bundle = draw(st.one_of(_small_bundles(), _one_way_graphs()))
    if bundle is None or bundle.features_text is None:
        return None
    phi = parse_features(bundle.features_text)
    return bundle, [*bundle.sketches.values(), *(draw(_random_sketches(phi)) for _ in range(3))]


def _graph_case(links, rules):
    """A `_graph_bundle` over nodes 0..7, node 0 marked B0, 2 marked B1, 5
    marked B2, and node 7, which no link enters, the goal; with the sketch
    `rules` over B0, B1 and B2."""
    text = "features { B0: bool; B1: bool; B2: bool; }\nrules { " + rules + " }\n"
    return _graph_bundle(8, links, [0, 2, 5], 7), [text]


# Random rule sets rarely reach these cases.  In each, a member walks fully
# that a wrong region would let skip: member 2, which the walk of another
# class visited; member 3, whose class walked before, from 1; and member 3,
# whose class-mate 1 met a subgoal next door.
@example(case=_graph_case([(0, 1), (1, 4), (4, 2), (2, 5), (5, 3)],
                          "{ B0 } => { !B0 }; { } => { B1 }; { B1 } => { !B1 };"))
@example(case=_graph_case([(0, 1), (0, 3), (1, 4), (4, 2), (3, 6), (6, 5)],
                          "{ B0 } => { !B0 }; { } => { B1 }; { } => { B2 };"))
@example(case=_graph_case([(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
                          "{ B0 } => { !B0 }; { } => { B1 }; { } => { B2 }; { B1 } => { !B1 };"))
@settings(max_examples=150, deadline=None)
@given(case=_bundles_with_rules())
def test_family_build_matches_walking_every_member(case):
    # a member inside its class's region skips its full walk
    if case is None:
        return
    bundle, texts = case
    space = enumerate_space(ground_bundle(bundle))
    phi = parse_features(bundle.features_text)
    for text in texts:
        sketch = parse_sketch(text)
        report = sketch_width_on(space, sketch, phi, 2)
        got = (report.value, report.family_size, list(report.subproblem_widths.items()), report.reason)
        value, size, widths, reason = _sketch_width_walking_every_member(space, sketch, phi, 2)
        assert got == (value, size, list(widths.items()), reason), text


@settings(max_examples=150, deadline=None)
@given(case=_bundles_with_rules())
def test_acyclic_sketches_of_width_w_are_solved_by_siw_r_w(case):
    # an acyclic sketch of sketch width w: SIW_R with k_max = w solves, and
    # each segment ends in a goal or in a subgoal of its start (Bonet &
    # Geffner, KR 2021).  Checked on the whole header's valuations, which
    # SIW_R's subgoal test, over `sketch.read`, does not use
    if case is None:
        return
    bundle, texts = case
    g = ground_bundle(bundle)
    space = enumerate_space(g)
    phi = parse_features(bundle.features_text)
    for text in texts:
        sketch = parse_sketch(text)
        if not is_feature_acyclic_on(space, sketch, phi):
            continue
        w = sketch_width_on(space, sketch, phi, 2).value
        if w is None:
            continue
        result = siw_r(g, sketch, phi, k_max=w)
        assert result.solved, (text, result.reason)
        header = phi.select(sketch.names_kinds)
        s = g.init
        for segment in result.segments:
            end = replay(g, segment.plan, s)[-1]
            assert is_goal(g, end) or relation(
                sketch, header.valuation(g, s), header.valuation(g, end)), text
            s = end
        assert s == result.goal_state


# sketch -> (sketch width, family size, crc32 of the subproblem widths) on
# delivery(4, 4, [6, 11], 1, 12), 4,608 states, from the family build that
# walked fully from every member with no goal or subgoal successor: 2,354,688
# states walked for r4, 4,290,048 for r5
FAMILY_WALK_PINS = {
    "r4": (2, 513, 1176522784),
    "r5": (1, 993, 2596245741),
    "r8": (0, 19, 3740724289),
}


# sketch -> IW(k) searches of its subproblem widths on the same layout; a
# subproblem of optimal length <= 1 has width 0 and needs none
LADDER_SEARCHES = {"r4": 992, "r5": 931, "r8": 0}


def test_family_build_walks_each_class_region_once(monkeypatch):
    bundle = domains.delivery(4, 4, [6, 11], 1, 12)
    space = enumerate_space(ground_bundle(bundle))
    phi = bundle_features(bundle)
    walked = searches = 0

    def counting(space, i):
        nonlocal walked
        for step in _breadth_first(space, i):
            walked += 1
            yield step

    def counting_iw_k(*args, **kwargs):
        nonlocal searches
        searches += 1
        return iw_k(*args, **kwargs)

    monkeypatch.setattr(oracle, "_breadth_first", counting)
    monkeypatch.setattr(oracle, "iw_k", counting_iw_k)
    for name, pin in FAMILY_WALK_PINS.items():
        walked = searches = 0
        report = sketch_width_on(space, parse_sketch(bundle.sketches[name]), phi, 2)
        assert (report.value, report.family_size, _crc(report.subproblem_widths.items())) == pin, name
        assert walked <= 80 * len(space), (name, walked)
        assert searches == LADDER_SEARCHES[name], name


def _smallest_width_from_zero(problem, optimal, k_cap, *, start=None, goal_test=None):
    """`_smallest_width` before IW(0) was decided without a search: IW(k)
    for k = 0, 1, ... until one returns a plan of length `optimal`."""
    for k in range(min(k_cap, problem.n_atoms) + 1):
        result = iw_k(problem, k, goal_test, start=start)
        if result.solved and len(result.plan) == optimal:
            return k
    return None


@settings(max_examples=60, deadline=None)
@given(bundle=_small_bundles(), data=st.data())
def test_smallest_width_matches_the_ladder_from_zero(bundle, data):
    # from drawn starts to a drawn set of goal states, so that optimal
    # lengths 0, 1 and more all occur
    if bundle is None:
        return
    g = ground_bundle(bundle)
    space = enumerate_space(g)
    index = st.integers(0, len(space) - 1)
    goals = set(data.draw(st.lists(index, min_size=1, max_size=4), label="goals"))

    def goal_test(state):
        return space.index[state] in goals

    k_cap = data.draw(st.integers(0, 3), label="k_cap")
    for i in data.draw(st.lists(index, min_size=1, max_size=3), label="starts"):
        optimal = next((d for j, d in _breadth_first(space, i) if j in goals), None)
        if optimal is None:
            continue
        args = (g, optimal, k_cap)
        kwargs = {"start": space.states[i], "goal_test": goal_test}
        assert _smallest_width(*args, **kwargs) == _smallest_width_from_zero(*args, **kwargs)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_delivery_sketches_have_their_stated_widths(data):
    # r4, r5 and r8 are acyclic with sketch widths 2, 1 and 0 on every small
    # layout; a subproblem from a goal has width 0, so all three have width
    # 0 when the initial state is a goal
    width, height = data.draw(st.integers(2, 3), label="width"), data.draw(st.integers(2, 3), label="height")
    cell = st.integers(1, width * height)
    packages = data.draw(st.lists(cell, min_size=1, max_size=2), label="packages")
    bundle = domains.delivery(width, height, packages, data.draw(cell, label="target"),
                              data.draw(cell, label="start"))
    space = enumerate_space(ground_bundle(bundle))
    phi = bundle_features(bundle)
    for name, stated in [("r4", 2), ("r5", 1), ("r8", 0)]:
        sketch = parse_sketch(bundle.sketches[name])
        assert is_feature_acyclic_on(space, sketch, phi), name
        report = sketch_width_on(space, sketch, phi, 2)
        assert report.value == (0 if space.goal_flags[0] else stated), (name, report.reason)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_policy_sketches_have_sketch_width_zero(data):
    # the `policy` sketch of Grid, Grid2, clear-goal Blocksworld and Marbles
    # is acyclic with sketch width 0 on every small instance: each rule's
    # subgoal is one action away.  Hanoi's is left out: it is not
    # feature-acyclic on hanoi(2) or hanoi(3)
    family = data.draw(st.sampled_from(["grid", "grid2", "blocks-clear", "marbles"]), label="family")
    width, height = data.draw(st.integers(1, 4), label="width"), data.draw(st.integers(1, 3), label="height")
    cell = st.integers(1, width * height)
    pair = st.tuples(st.integers(1, width), st.integers(1, height))
    if family == "grid":
        bundle = domains.grid(width, height, data.draw(cell, label="start"), data.draw(cell, label="goal"))
    elif family == "grid2":
        bundle = domains.grid2(width, height, data.draw(pair, label="start"), data.draw(pair, label="goal"))
    elif family == "blocks-clear":
        held = data.draw(st.sampled_from([None, "y"]), label="held")
        bundle = domains.blocks_clear(data.draw(st.integers(1, 3), label="height"), holding=held)
    else:
        counts = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=2), label="counts")
        bundle = domains.marbles(counts)
    space = enumerate_space(ground_bundle(bundle))
    phi = bundle_features(bundle)
    sketch = parse_sketch(bundle.sketches["policy"])
    assert is_feature_acyclic_on(space, sketch, phi)
    report = sketch_width_on(space, sketch, phi, 2)
    assert report.value == 0, report.reason


@pytest.mark.parametrize("n_disks", [2, 3])
def test_hanoi_policy_sketch_is_not_feature_acyclic(n_disks):
    bundle = domains.hanoi(n_disks)
    space = enumerate_space(ground_bundle(bundle))
    sketch = parse_sketch(bundle.sketches["policy"])
    assert not is_feature_acyclic_on(space, sketch, bundle_features(bundle))


def test_effective_width_errors():
    g = ground_bundle(domains.marbles([1]))
    with pytest.raises(OracleError, match="positive-conjunction"):
        effective_width(g)
    g = ground(parse_domain(_ONEWAY_DOMAIN), parse_problem(_ONEWAY_PROBLEM))
    with pytest.raises(OracleError, match="reference search failed: state space exhausted"):
        effective_width(g)
