"""Grounder: enumeration order, counts, static pruning, schema fidelity."""

from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthplan import apply, bfs_optimal, domains, ground, is_goal
from widthplan import parse_domain, parse_problem
from widthplan.cli import main
from widthplan.grounding import GroundingError
from widthplan.strips import GroundAction, GroundAtom, GroundProblem, atoms_of, state_from_atoms
from tests.conftest import ground_bundle


def test_grid_1x3_counts():
    g = ground_bundle(domains.grid(3, 1, 1, 3))
    preds = [a.predicate for a in g.atoms]
    assert preds.count("pos") == 3
    assert preds.count("adjacent") == 4  # the initial facts: adjacent cells only
    assert len(g.actions) == 4  # two per adjacent pair after static pruning


def test_blocks_on_atoms_non_reflexive():
    g = ground_bundle(domains.blocks([["a"], ["b"]], ("on", "a", "b")))
    on_atoms = [a for a in g.atoms if a.predicate == "on"]
    assert sorted(a.args for a in on_atoms) == [("a", "b"), ("b", "a")]


def test_unsatisfiable_static_precondition_prunes_all():
    text = """(define (domain t) (:predicates (stat ?x ?y) (p ?x))
      (:action a :parameters (?x ?y)
        :precondition (and (stat ?x ?y)) :effect (and (p ?x))))"""
    d = parse_domain(text)
    p = parse_problem(
        "(define (problem i) (:domain t) (:objects o1 o2) (:init) (:goal (and)))"
    )
    g = ground(d, p)
    assert len(g.actions) == 0


def test_atom_order_lexicographic():
    g = ground_bundle(domains.grid(2, 1, 1, 2))
    keys = [(a.predicate, a.args) for a in g.atoms]
    assert keys == sorted(keys)
    assert [a.atom_id for a in g.atoms] == list(range(g.n_atoms))


def test_action_order_lexicographic():
    g = ground_bundle(domains.blocks_clear(2))
    keys = [(a.name, a.args) for a in g.actions]
    assert keys == sorted(keys)


def test_grounding_deterministic():
    bundle = domains.delivery(2, 2, [3], target=1, start=2)
    g1, g2 = ground_bundle(bundle), ground_bundle(bundle)
    assert [(a.predicate, a.args) for a in g1.atoms] == [(a.predicate, a.args) for a in g2.atoms]
    assert [(a.name, a.args, a.pre, a.add, a.delete) for a in g1.actions] == [
        (a.name, a.args, a.pre, a.add, a.delete) for a in g2.actions
    ]
    assert (g1.init, g1.goal_pos, g1.goal_neg) == (g2.init, g2.goal_pos, g2.goal_neg)


def test_goal_over_unknown_predicate():
    d = parse_domain("(define (domain t) (:predicates (p ?x)))")
    p = parse_problem(
        "(define (problem i) (:domain t) (:objects a) (:init) (:goal (and (q a))))"
    )
    with pytest.raises(GroundingError, match="undeclared predicate"):
        ground(d, p)


def test_domain_name_mismatch():
    d = parse_domain("(define (domain t) (:predicates (p ?x)))")
    p = parse_problem("(define (problem i) (:domain other) (:init) (:goal (and)))")
    with pytest.raises(GroundingError, match="references domain"):
        ground(d, p)


_TWO_PREDICATES = "(define (domain t) (:predicates (p ?x) (q ?x ?y)))"


@pytest.mark.parametrize("init_goal, message", [
    ("(:init) (:goal (and (p a) (not (p a))))",
     "goal contains an atom both positively and negatively"),
    ("(:init (p a b)) (:goal (and))", "init atom p(a,b) has arity 2, declared 1"),
    ("(:init (q a a)) (:goal (and))",
     "init atom q(a,a) names an unknown object or repeats an argument"),
], ids=["contradictory-goal", "init-arity", "init-repeated-argument"])
def test_ground_rejects_bad_input(init_goal, message, tmp_path, capsys):
    problem = f"(define (problem i) (:domain t) (:objects a b) {init_goal})"
    with pytest.raises(GroundingError) as info:
        ground(parse_domain(_TWO_PREDICATES), parse_problem(problem))
    assert str(info.value) == message
    # the command line names it on one line, with no traceback
    (tmp_path / "domain.pddl").write_text(_TWO_PREDICATES)
    (tmp_path / "problem.pddl").write_text(problem)
    files = ["--domain", str(tmp_path / "domain.pddl"), "--problem", str(tmp_path / "problem.pddl")]
    assert main(["solve", "--alg", "bfs", *files]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# Schema-level simulator used to cross-check ground plans.


def _schema_simulate(domain, problem, ground_problem, plan):
    state = {(a.predicate, a.args) for a in problem.init}
    schemas = {s.name: s for s in domain.schemas}
    for aid in plan:
        act = ground_problem.actions[aid]
        schema = schemas[act.name]
        binding = dict(zip(schema.params, act.args))
        for atom in schema.pre:
            assert (atom.predicate, tuple(binding[v] for v in atom.args)) in state
        for atom in schema.delete:
            state.discard((atom.predicate, tuple(binding[v] for v in atom.args)))
        for atom in schema.add:
            state.add((atom.predicate, tuple(binding[v] for v in atom.args)))
    return state


@pytest.mark.parametrize(
    "bundle",
    [
        domains.blocks_clear(2),
        domains.grid(3, 2, 1, 6),
        domains.delivery(2, 2, [2], target=4, start=1),
        domains.hanoi(2),
        domains.marbles([2]),
    ],
    ids=lambda b: b.family,
)
def test_ground_plan_matches_schema_simulation(bundle):
    domain = parse_domain(bundle.domain_text)
    problem = parse_problem(bundle.problem_text)
    g = ground(domain, problem)
    plan = bfs_optimal(g).plan
    end_schema = _schema_simulate(domain, problem, g, plan)
    s = g.init
    for aid in plan:
        s = apply(g, s, aid)
    end_ground = {(g.atoms[i].predicate, g.atoms[i].args) for i in atoms_of(s)}
    assert end_ground == end_schema
    assert is_goal(g, s)


# Parity with the product grounder: the join plus the relaxed fixpoint must
# give, by name, the product grounder's model restricted to what can be true.


def _ground_by_product(domain, problem):
    """Reference grounder: every injective atom tuple as an atom, and every
    object tuple of each schema as an action, dropped when it mentions an
    atom outside the universe, adds and deletes one atom, or has a static
    precondition false in init."""
    objects = tuple(sorted(problem.objects))
    atoms, index = [], {}
    for pred, arity in sorted(domain.predicates):
        for args in permutations(objects, arity):
            index[(pred, args)] = len(atoms)
            atoms.append(GroundAtom(len(atoms), pred, args))
    fluent = {a.predicate for s in domain.schemas for a in s.add + s.delete}
    static_preds = {p for p, _ in domain.predicates} - fluent
    init = state_from_atoms(index[(a.predicate, a.args)] for a in problem.init)

    def bind_all(schema_atoms, binding):
        out = []
        for atom in schema_atoms:
            aid = index.get((atom.predicate, tuple(binding[v] for v in atom.args)))
            if aid is None:
                return None
            out.append(aid)
        return out

    actions = []
    for schema in sorted(domain.schemas, key=lambda s: s.name):
        for binding_args in product(objects, repeat=len(schema.params)):
            binding = dict(zip(schema.params, binding_args))
            pre = bind_all(schema.pre, binding)
            add = bind_all(schema.add, binding)
            delete = bind_all(schema.delete, binding)
            if pre is None or add is None or delete is None:
                continue
            pre_mask = state_from_atoms(pre)
            add_mask = state_from_atoms(add)
            del_mask = state_from_atoms(delete)
            if add_mask & del_mask:
                continue
            if any(
                atoms[a].predicate in static_preds and not (init >> a) & 1 for a in pre
            ):
                continue
            actions.append(
                GroundAction(len(actions), schema.name, binding_args, pre_mask, add_mask, del_mask)
            )
    goal_pos = state_from_atoms(index[(a.predicate, a.args)] for a in problem.goal_pos)
    goal_neg = state_from_atoms(index[(a.predicate, a.args)] for a in problem.goal_neg)
    return GroundProblem(
        problem.name, tuple(atoms), tuple(actions), init, goal_pos, goal_neg, objects
    )


def _relaxed_reach(g):
    """Atoms true in the delete relaxation of `g`, by rounds over all actions."""
    reach = g.init
    while True:
        grown = reach
        for act in g.actions:
            if act.pre & grown == act.pre:
                grown |= act.add
        if grown == reach:
            return reach
        reach = grown


def _names(g, mask):
    return {str(g.atoms[i]) for i in atoms_of(mask)}


def _reachable_states(g, limit=20_000):
    seen, frontier = {g.init}, [g.init]
    while frontier:
        s = frontier.pop()
        for act in g.actions:
            if act.pre & s == act.pre:
                t = (s & ~act.delete) | act.add
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        assert len(seen) <= limit, "state space too large to enumerate"
    return seen


def assert_same_grounding(domain_text, problem_text, enumerate_states=False):
    domain, problem = parse_domain(domain_text), parse_problem(problem_text)
    g, ref = ground(domain, problem), _ground_by_product(domain, problem)
    reach = _relaxed_reach(ref)
    # atoms: the relaxed-reachable ones plus the goal atoms, in the product's order
    numbered = reach | ref.goal_pos | ref.goal_neg
    assert [(a.predicate, a.args) for a in g.atoms] == [
        (ref.atoms[i].predicate, ref.atoms[i].args) for i in atoms_of(numbered)
    ]
    assert [a.atom_id for a in g.atoms] == list(range(g.n_atoms))
    # actions: the relaxed-applicable ones, in the product's order, with the
    # same atoms by name; a delete of a never-true atom is dropped
    kept = [a for a in ref.actions if a.pre & reach == a.pre]
    assert [(a.name, a.args) for a in g.actions] == [(a.name, a.args) for a in kept]
    for act, want in zip(g.actions, kept):
        assert _names(g, act.pre) == _names(ref, want.pre)
        assert _names(g, act.add) == _names(ref, want.add)
        assert _names(g, act.delete) == _names(ref, want.delete & reach)
    assert [a.action_id for a in g.actions] == list(range(len(g.actions)))
    # every dropped product action is never relaxed-applicable
    names = {(a.name, a.args) for a in g.actions}
    for act in ref.actions:
        if (act.name, act.args) not in names:
            assert act.pre & reach != act.pre, str(act)
    for part in ("init", "goal_pos", "goal_neg"):
        assert _names(g, getattr(g, part)) == _names(ref, getattr(ref, part))
    assert g.objects == ref.objects
    if enumerate_states:
        # no atom left unnumbered is true in any reachable state
        dropped = state_from_atoms(range(ref.n_atoms)) & ~numbered
        assert all(not s & dropped for s in _reachable_states(ref))


@pytest.mark.parametrize(
    "family, params",
    [
        ("blocks-clear", {"l": "3"}),
        ("blocks-clear", {"l": "2", "held": "h"}),
        ("blocks-on", {"l": "2", "m": "1"}),
        ("blocks", {"towers": "a.b;c", "goal": "on:c:a", "held": "d"}),
        ("grid", {"width": "4", "height": "3", "start": "1", "goal": "12"}),
        ("grid2", {"width": "4", "height": "3", "start": "1,1", "goal": "4,3"}),
        ("delivery", {"width": "3", "height": "3", "packages": "3,8", "target": "1", "start": "5"}),
        ("marbles", {"counts": "2,2,1"}),
        ("hanoi", {"n": "4", "from": "2", "to": "1"}),
    ],
)
def test_join_matches_product_on_every_family(family, params):
    bundle = domains.generate(family, params)
    assert_same_grounding(bundle.domain_text, bundle.problem_text, enumerate_states=True)


_PROBLEM = "(define (problem i) (:domain t) (:objects {}) (:init {}) (:goal (and)))"


@st.composite
def _untyped_tasks(draw):
    """A small untyped domain and problem: predicates p0.. of arity 0-2,
    schemas over ?x ?y ?z, and a random subset of the atom universe as init."""
    arities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    preds = " ".join(
        f"(p{i}{''.join(f' ?a{j}' for j in range(k))})" for i, k in enumerate(arities)
    )
    n_fluent = draw(st.integers(0, len(arities)))
    actions = []
    for n in range(draw(st.integers(1, 3))):
        params = ["?x", "?y", "?z"][: draw(st.integers(0, 3))]
        usable = [i for i, k in enumerate(arities) if k == 0 or params]

        def atoms(preds, max_size):
            if not preds:
                return []
            return [
                f"(p{i}{''.join(' ' + draw(st.sampled_from(params)) for _ in range(arities[i]))})"
                for i in draw(st.lists(st.sampled_from(preds), max_size=max_size))
            ]

        pre = atoms(usable, 4)
        fluent = [i for i in usable if i < n_fluent]  # the others stay static
        effects = atoms(fluent, 2) + [f"(not {a})" for a in atoms(fluent, 2)]
        actions.append(
            f"(:action s{n} :parameters ({' '.join(params)}) "
            f":precondition (and {' '.join(pre)}) :effect (and {' '.join(effects)}))"
        )
    objects = draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=4))
    universe = [
        f"(p{i}{''.join(' ' + o for o in args)})"
        for i, k in enumerate(arities)
        for args in permutations(sorted(objects), k)
    ]
    init = draw(st.lists(st.sampled_from(universe), unique=True)) if universe else []
    domain = f"(define (domain t) (:predicates {preds}) {' '.join(actions)})"
    return domain, _PROBLEM.format(" ".join(objects), " ".join(init))


def _task(predicates, actions, objects, init):
    return (
        f"(define (domain t) (:predicates {predicates}) {actions})",
        _PROBLEM.format(objects, init),
    )


@settings(max_examples=150, deadline=None)
@given(task=_untyped_tasks())
@example(task=_task(  # static precondition with a repeated variable
    "(stat ?a ?b) (p ?a)",
    "(:action s :parameters (?x ?y) :precondition (and (stat ?x ?x) (stat ?x ?y)) "
    ":effect (and (p ?y)))",
    "a b c", "(stat a b) (stat b a) (stat b c)"))
@example(task=_task(  # 0-ary static predicate, true in init
    "(ok) (p ?a)",
    "(:action s :parameters (?x) :precondition (and (ok)) :effect (and (p ?x)))",
    "a b", "(ok)"))
@example(task=_task(  # 0-ary static predicate, false in init
    "(ok) (p ?a)",
    "(:action s :parameters (?x) :precondition (and (ok)) :effect (and (p ?x)))",
    "a b", "(p a)"))
@example(task=_task(  # a parameter no atom mentions
    "(stat ?a ?b) (p ?a)",
    "(:action s :parameters (?x ?z ?y) :precondition (and (stat ?x ?y)) "
    ":effect (and (p ?y) (not (p ?x))))",
    "a b c", "(stat a c) (stat c b) (p a)"))
@example(task=_task(  # no static precondition, as Delivery's pick and drop
    "(at ?a ?b) (hold ?a) (free)",
    "(:action pick :parameters (?p ?c) :precondition (and (at ?p ?c) (free)) "
    ":effect (and (hold ?p) (not (at ?p ?c)) (not (free)))) "
    "(:action drop :parameters (?p ?c) :precondition (and (hold ?p)) "
    ":effect (and (at ?p ?c) (free) (not (hold ?p))))",
    "a b c", "(at a b) (free)"))
@example(task=_task(  # static preconditions sharing a variable, two ending at ?z
    "(s1 ?a ?b) (s2 ?a ?b) (s3 ?a) (p ?a)",
    "(:action s :parameters (?x ?y ?z) "
    ":precondition (and (s1 ?x ?y) (s2 ?y ?z) (s3 ?z) (p ?x)) :effect (and (p ?z)))",
    "a b c d e",
    "(s1 a b) (s1 b c) (s1 c a) (s2 b a) (s2 b c) (s2 b d) (s2 b e) (s2 c a) "
    "(s3 a) (s3 c) (s3 d) (s3 e) (p a)"))
@example(task=_task(  # static predicate with no initial facts
    "(stat ?a) (p ?a)",
    "(:action s :parameters (?x) :precondition (and (stat ?x)) :effect (and (p ?x)))",
    "a b", "(p a)"))
@example(task=_task(  # argument domains that grow over several fixpoint rounds
    "(p0 ?a) (p1 ?a) (p2 ?a) (p3 ?a)",
    "(:action s2 :parameters (?x) :precondition (and (p2 ?x)) :effect (and (p3 ?x))) "
    "(:action s1 :parameters (?x) :precondition (and (p1 ?x)) :effect (and (p2 ?x))) "
    "(:action s0 :parameters (?x) :precondition (and (p0 ?x)) "
    ":effect (and (p1 ?x) (not (p0 ?x))))",
    "a b c d", "(p0 a) (p1 b)"))
@example(task=_task(  # a parameter that appears only in effects
    "(p ?a) (q ?a)",
    "(:action s :parameters (?x ?y) :precondition (and (p ?x)) "
    ":effect (and (q ?y) (not (p ?x))))",
    "a b c", "(p a)"))
@example(task=_task(  # a fluent precondition position with an empty domain: only
    # `grow` adds r, and its ?x fills positions with disjoint domains
    "(p ?a) (q ?a) (r ?a ?b) (s ?a)",
    "(:action grow :parameters (?x ?y) :precondition (and (p ?x) (q ?x)) "
    ":effect (and (r ?x ?y))) "
    "(:action never :parameters (?x ?y) :precondition (and (r ?x ?y)) :effect (and (s ?x))) "
    "(:action some :parameters (?x) :precondition (and (q ?x)) :effect (and (s ?x) (not (p ?x))))",
    "a b c", "(p a) (q b)"))
@example(task=_task(  # a repeated variable in a fluent precondition
    "(p ?a ?b) (q ?a)",
    "(:action s :parameters (?x ?y) :precondition (and (p ?x ?x) (q ?y)) "
    ":effect (and (p ?x ?y))) "
    "(:action t :parameters (?x ?y) :precondition (and (p ?x ?y)) :effect (and (q ?x)))",
    "a b c", "(p a b) (p b a) (q c)"))
@example(task=_task(  # a 0-ary fluent precondition that is never reachable
    "(done) (ready) (p ?a)",
    "(:action finish :parameters () :precondition (and (ready)) :effect (and (done))) "
    "(:action mark :parameters (?x) :precondition (and (done)) :effect (and (p ?x)))",
    "a b", "(p a)"))
@example(task=_task(  # zero parameters and zero objects
    "(ok) (p)",
    "(:action s :parameters () :precondition (and (ok)) :effect (and (p))) "
    "(:action t :parameters () :precondition (and) :effect (and (not (p))))",
    "", "(ok)"))
def test_join_matches_product_on_random_domains(task):
    assert_same_grounding(*task)


# The join yields only bindings inside the argument domains.  On Delivery every
# yielded binding is kept; `pick` and `drop` have no static precondition, so
# without the domains they would range over every object pair.  These counts
# stand in for a timing test of the join.


@pytest.mark.parametrize(
    "bundle, bindings, kept",
    [
        pytest.param(domains.delivery(4, 4, [3, 8, 12], 1, 5), 144, 144, id="delivery-4x4x3"),
        pytest.param(domains.delivery(5, 5, [7, 13, 24], 1, 12), 230, 230, id="delivery-5x5x3"),
        pytest.param(domains.delivery(6, 6, [3, 8, 20, 30, 12], 1, 5), 480, 480,
                     id="delivery-6x6x5"),
        pytest.param(domains.delivery(8, 8, [3, 10, 20, 30, 40, 50, 60, 63], 1, 12), 1248, 1248,
                     id="delivery-8x8x8"),
        # 1,173 and 840 over all object tuples
        pytest.param(domains.marbles([4, 4, 1]), 111, 36, id="marbles-4-4-1"),
        pytest.param(domains.hanoi_odd(7), 756, 476, id="hanoi-odd-7"),
        # unchanged: every blocks position can hold every object, and grid's
        # static join already bounds its moves
        pytest.param(domains.blocks_on(2, 3), 112, 98, id="blocks-on-2-3"),
        pytest.param(domains.blocks_on(5, 5), 312, 288, id="blocks-on-5-5"),
        pytest.param(domains.blocks_clear(6), 112, 98, id="blocks-clear-6"),
        pytest.param(domains.grid(10, 10, 1, 100), 360, 360, id="grid-10x10"),
    ],
)
def test_join_yields_only_bindings_inside_the_argument_domains(bundle, bindings, kept):
    g = ground_bundle(bundle)
    assert (g.bindings, len(g.actions)) == (bindings, kept)


def test_bindings_do_not_enter_equality():
    g = ground_bundle(domains.grid(3, 1, 1, 3))
    assert g.bindings == 4
    assert g == GroundProblem(g.name, g.atoms, g.actions, g.init, g.goal_pos, g.goal_neg,
                              g.objects, g.predicates)
