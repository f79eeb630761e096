"""Feature evaluation, valuations and projections."""

import zlib
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthplan import (
    applicable_actions, apply, bfs_optimal, domains, ground, parse_domain, parse_problem, replay,
)
from widthplan.features import (
    BUILTINS,
    Builtin,
    CellTargets,
    Distance,
    Feature,
    FeatureError,
    FeatureSet,
    Nonzero,
    Pattern,
    Sum,
    _graph,
    _pattern_mask,
    boolean_projection,
    compile_feature,
    parse_features,
)
from widthplan.oracle import enumerate_space
from widthplan.strips import atoms_of, state_from_atoms
from tests.conftest import ground_bundle
from tests.test_oracle import _small_bundles


def _delivery(pkg_cells, target=1, start=5):
    bundle = domains.delivery(3, 3, pkg_cells, target=target, start=start)
    return ground_bundle(bundle), parse_features(bundle.features_text)


def test_holding_flag():
    g, phi = _delivery([5])  # package at the agent's cell
    pick = next(
        a.action_id for a in g.actions if a.name == "pick" and a.args == ("p1", "c5")
    )
    s = apply(g, g.init, pick)
    assert phi.valuation(g, g.init)[0] == 0
    assert phi.valuation(g, s)[0] == 1


def test_chain_count_blocks_above():
    bundle = domains.blocks_clear(3)
    g = ground_bundle(bundle)
    phi = parse_features(bundle.features_text)
    assert phi.valuation(g, g.init) == (0, 3)


def test_undelivered_count():
    g, phi = _delivery([3, 1])  # one of two packages already at the target
    assert phi.valuation(g, g.init)[3] == 1


def test_distance_to_package():
    # agent in one corner, single package two columns and one row away
    bundle = domains.delivery(3, 3, [6], target=9, start=1)
    g = ground_bundle(bundle)
    phi = parse_features(bundle.features_text)
    assert phi.valuation(g, g.init)[1] == 3


def test_distance_zero_when_holding():
    g, phi = _delivery([5, 3])
    pick = next(
        a.action_id for a in g.actions if a.name == "pick" and a.args == ("p1", "c5")
    )
    s = apply(g, g.init, pick)
    # another package remains on the grid, but a held package pins p to 0
    assert phi.valuation(g, s)[1] == 0


def test_distance_empty_target_set():
    bundle = domains.delivery(2, 2, [1], target=1, start=2)
    g = ground_bundle(bundle)
    phi = parse_features(bundle.features_text)
    assert phi.valuation(g, g.init)[1] == 0  # nothing left to fetch
    assert phi.valuation(g, g.init)[3] == 0


def test_valuation_componentwise(qclear2):
    g, bundle = qclear2
    phi = parse_features(bundle.features_text)
    assert phi.valuation(g, g.init) == (0, 2)
    goal = replay(g, bfs_optimal(g).plan)[-1]
    assert phi.valuation(g, goal)[1] == 0


def test_hanoi_initial_valuation(hanoi3):
    g, bundle = hanoi3
    phi = parse_features(bundle.features_text)
    # single tower on peg 1, pegs 2 and 3 empty: empty-versus-empty is false
    assert phi.valuation(g, g.init) == (1, 1, 1, 0)


def test_boolean_projection():
    phi = parse_features(
        "feature H bool = nonzero(count(holding(_)))\n"
        "feature n num = count(ontable(_))\n"
    )
    assert boolean_projection(phi, (0, 2)) == (False, False)
    assert boolean_projection(phi, (1, 0)) == (True, True)
    assert boolean_projection(phi, (0, 0)) == (False, True)


def test_evaluate_deterministic(hanoi3):
    g, bundle = hanoi3
    phi = parse_features(bundle.features_text)
    for _ in range(3):
        assert phi.valuation(g, g.init) == phi.valuation(g, g.init)


def test_values_non_negative_on_reachable_states():
    bundle = domains.marbles([2, 1])
    g = ground_bundle(bundle)
    phi = parse_features(bundle.features_text)
    frontier, seen = [g.init], {g.init}
    while frontier:
        s = frontier.pop()
        assert all(v >= 0 for v in phi.valuation(g, s))
        for aid in applicable_actions(g, s):
            succ = apply(g, s, aid)
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)


def test_unregistered_builtin():
    phi = parse_features("feature z num = builtin(nope)\n")
    bundle = domains.marbles([1])
    g = ground_bundle(bundle)
    with pytest.raises(FeatureError, match="unregistered"):
        compile_feature(phi.features[0], g)(g.init)


def test_chain_cycle_detected():
    bundle = domains.blocks_clear(1)
    g = ground_bundle(bundle)
    phi = parse_features("feature n num = chain_count(on, x, up)\n")
    cyclic = g.init | (1 << g.atom_id("on", ("x", "b1")))  # forge on(x,b1) over on(b1,x)
    with pytest.raises(FeatureError, match="cycle"):
        compile_feature(phi.features[0], g)(cyclic)


def test_parse_rejects_bad_declaration():
    with pytest.raises(FeatureError):
        parse_features("feature x int = count(p())\n")
    with pytest.raises(FeatureError):
        parse_features("feature x num = mystery(p())\n")


def test_parse_sample_declarations():
    text = (
        "feature H bool = nonzero(count(holding(_)))\n"
        "feature n num = chain_count(on, x, up)\n"
        "feature t num = distance(pos, adjacent, cells(target))\n"
        "feature m num = builtin(marbles_first_box)\n"
    )
    phi = parse_features(text)
    assert [f.name for f in phi] == ["H", "n", "t", "m"]
    assert [f.kind for f in phi] == ["bool", "num", "num", "num"]


def test_marbles_first_box_order():
    # lexicographically first box on the table decides m
    bundle = domains.marbles([2, 3])
    g = ground_bundle(bundle)
    phi = parse_features(bundle.features_text)
    assert phi.valuation(g, g.init) == (2, 2)  # b1 first with 2 marbles


# -- parity pins of the compiled kernels ---------------------------------------
#
# crc32 of the valuation sequence over every reachable state, visited depth
# first with successors pushed in action order, as the per-state interpreter
# that preceded the kernels computed it.


def _dfs_valuations(g, phi):
    stack, seen, out = [g.init], {g.init}, []
    while stack:
        s = stack.pop()
        out.append(phi.valuation(g, s))
        for aid in applicable_actions(g, s):
            succ = apply(g, s, aid)
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return out


@pytest.mark.parametrize("bundle, states, crc", [
    (domains.delivery(4, 3, [2, 7, 12], target=4, start=1), 25920, 2497952229),
    (domains.blocks_clear(4), 866, 3631822550),
    (domains.marbles([2, 1, 2]), 75, 819486174),
    (domains.hanoi(5), 486, 2293401275),
    (domains.grid2(5, 5, (1, 1), (5, 4)), 25, 2707221103),
], ids=lambda v: getattr(v, "family", None))
def test_valuation_crc_over_reachable_states(bundle, states, crc):
    g = ground_bundle(bundle)
    vals = _dfs_valuations(g, parse_features(bundle.features_text))
    assert len(vals) == states
    assert zlib.crc32(repr(vals).encode()) == crc


def test_valuation_recompiles_for_another_problem():
    small, large = domains.delivery(3, 3, [6], 9, 1), domains.delivery(4, 4, [6], 16, 1)
    phi = parse_features("feature t num = distance(pos, adjacent, cells(c6))\n")
    g_small, g_large = ground_bundle(small), ground_bundle(large)
    assert phi.valuation(g_small, g_small.init) == (3,)  # c1 -> c6 on 3x3
    assert phi.valuation(g_large, g_large.init) == (2,)  # c1 -> c6 on 4x4
    assert phi.valuation(g_small, g_small.init) == (3,)


# -- error paths the kernels keep ----------------------------------------------


def _forge(g, s, *atoms, drop=()):
    for pred, args in atoms:
        s |= 1 << g.atom_id(pred, args)
    for pred, args in drop:
        s &= ~(1 << g.atom_id(pred, args))
    return s


def test_distance_several_positions():
    g, phi = _delivery([3])
    s = _forge(g, g.init, ("pos", ("c1",)))  # agent at c5 and c1
    with pytest.raises(FeatureError, match="several pos atoms true"):
        phi.valuation(g, s)


def test_distance_unreachable_target():
    g, phi = _delivery([3])
    # a package is no grid cell, so no adjacency path ends at it
    bad = parse_features("feature t num = distance(pos, adjacent, cells(p1))\n")
    with pytest.raises(FeatureError, match=r"^distance: no target of cells\(p1\) reachable from 'c5'$"):
        bad.valuation(g, g.init)
    # a state without the adjacency facts of the initial state is walked over
    # its own facts: from c5, cut off from c1
    cut = [a for a in g.atoms if a.predicate == "adjacent" and "c5" in a.args]
    s = _forge(g, g.init, drop=[(a.predicate, a.args) for a in cut])
    msg = r"^distance: no target of cells_of\(ppos\(_, _\), not c1\) reachable from 'c5'$"
    with pytest.raises(FeatureError, match=msg):
        phi.valuation(g, s)


@pytest.mark.parametrize("targets", [
    "cells(c1)", "cells(c1, c2)", "cells_of(ppos(_, _))", "cells_of(ppos(_, c2), not c1, c3)",
])
def test_distance_targets_print_as_written(targets):
    # a distance error names its targets in feature syntax
    phi = parse_features(f"feature d num = distance(pos, adjacent, {targets})\n")
    assert str(phi.by_name["d"].expr.targets) == targets


def test_chain_two_links_from_one_object():
    bundle = domains.blocks_clear(2)  # b1 on b2 on x
    g = ground_bundle(bundle)
    s = _forge(g, g.init, ("on", ("b1", "x")))
    phi = parse_features("feature n num = chain_count(on, x, up)\n")
    with pytest.raises(FeatureError, match="two links from 'x'"):
        phi.valuation(g, s)
    # the chain above b1 is empty, yet the second link below is still an error
    top = parse_features("feature n num = chain_count(on, b1, up)\n")
    assert top.valuation(g, g.init) == (0,)
    with pytest.raises(FeatureError, match="two links from 'x'"):
        top.valuation(g, s)


def test_missing_repeated_and_groundless_objects():
    g, _ = _delivery([3, 1])  # p1 at c3, p2 already at the target c1
    phi = parse_features(
        "feature a num = missing(ppos(_, c1), p1, p1, c2)\n"  # p1 twice, ppos(c2,c1) no atom
        "feature b num = missing(ppos(_, c1), p2, p2, c2)\n"
        "feature c num = missing(ppos(_, c1), p1, p2, c2)\n"
    )
    assert phi.valuation(g, g.init) == (3, 1, 2)


def test_missing_counts_objects_with_no_numbered_atom():
    # ppos(c2,c1), ppos(c3,c1) and ppos(p1,p2) are well formed and never
    # true, so they are not numbered; each counts as missing (an object the
    # problem does not have is rejected instead)
    g, _ = _delivery([3, 1])
    assert g.atom_id("ppos", ("c2", "c1")) is None
    phi = parse_features("feature m num = missing(ppos(_, c1), p1, c2, c3)\n"
                         "feature n num = missing(ppos(p1, _), p2, c1)\n")
    assert phi.valuation(g, g.init) == (3, 2)


def test_bool_feature_out_of_range():
    bundle = domains.marbles([1, 1])
    g = ground_bundle(bundle)
    phi = parse_features("feature n bool = count(ontable(_))\n")
    with pytest.raises(FeatureError, match="declared bool but evaluated to 2"):
        phi.valuation(g, g.init)


def test_negative_builtin_value(monkeypatch):
    monkeypatch.setitem(BUILTINS, "minus_one", lambda problem: lambda s: -1)
    bundle = domains.marbles([1])
    g = ground_bundle(bundle)
    phi = parse_features(
        "feature z num = sum(count(ontable(_)), builtin(minus_one))\n"  # 1 - 1
        "feature m num = sum(builtin(marbles_first_box), builtin(minus_one))\n"
    )
    with pytest.raises(FeatureError, match="feature 'm' evaluated to negative value -1"):
        phi.valuation(g, apply(g, g.init, applicable_actions(g, g.init)[0]))  # marble taken
    assert phi.valuation(g, g.init) == (0, 0)


_LINKS_DOMAIN = """(define (domain links)
  (:predicates (at ?x) (link ?x ?y))
  (:action move :parameters (?x ?y)
    :precondition (and (at ?x) (link ?x ?y))
    :effect (and (at ?y) (not (at ?x))))
  (:action build :parameters (?x ?y)
    :precondition (and (at ?x))
    :effect (and (link ?x ?y)))
  (:action cut :parameters (?x ?y)
    :precondition (and (link ?x ?y))
    :effect (and (not (link ?x ?y)))))
"""

_LINKS_PROBLEM = """(define (problem links-4) (:domain links)
  (:objects a b c d)
  (:init (at a) (link a b) (link b c) (link c d))
  (:goal (and (at d))))
"""


def test_distance_over_fluent_adjacency():
    g = ground(parse_domain(_LINKS_DOMAIN), parse_problem(_LINKS_PROBLEM))
    phi = parse_features("feature d num = distance(at, link, cells(d))\n")

    def after(*steps):
        s = g.init
        for name, args in steps:
            s = apply(g, s, next(a.action_id for a in g.actions
                                 if a.name == name and a.args == args))
        return s

    assert phi.valuation(g, g.init) == (3,)  # a-b-c-d
    assert phi.valuation(g, after(("move", ("a", "b")))) == (2,)
    assert phi.valuation(g, after(("build", ("a", "c")))) == (2,)  # a-c-d
    assert phi.valuation(g, after(("build", ("a", "d")))) == (1,)
    assert phi.valuation(g, after(("move", ("a", "b")), ("build", ("b", "d")))) == (1,)
    assert phi.valuation(g, after(("build", ("a", "d")), ("cut", ("a", "d")))) == (3,)
    assert phi.valuation(g, after(("move", ("a", "b")), ("move", ("b", "c")),
                                  ("move", ("c", "d")))) == (0,)
    with pytest.raises(FeatureError, match="no target .* reachable from 'a'"):
        phi.valuation(g, after(("cut", ("b", "c"))))
    # moving back over a cut link is impossible, but the walk is from the
    # state's own links: b reaches d again once c-d is rebuilt around it
    s = after(("move", ("a", "b")), ("cut", ("c", "d")), ("build", ("b", "d")))
    assert phi.valuation(g, s) == (1,)


def test_distance_without_a_position_is_zero():
    g, phi = _delivery([3])
    s = _forge(g, g.init, drop=[("pos", ("c5",))])
    assert phi.valuation(g, s) == (0, 0, 0, 1)


# -- the layer kernel against the dict-row kernel it replaced -------------------


def _distance_by_rows(expr, problem):
    """The distance kernel as it was before layer masks: it names the target
    cells the state holds, looks each name up in the BFS row of the
    position, keyed by cell name, and takes the least distance."""
    atoms, spec = problem.atoms, expr.targets
    pos_mask = _pattern_mask(problem, Pattern(expr.pos_predicate, ("_",)))
    zero_mask = _pattern_mask(problem, expr.zero_if) if expr.zero_if is not None else 0
    adj_mask = state_from_atoms(problem.atoms_by_predicate.get(expr.adj_predicate, ()))
    base = problem.init & adj_mask

    def bfs(graph, source):
        dist, queue = {source: 0}, deque([source])
        while queue:
            cur = queue.popleft()
            for nxt in graph.get(cur, ()):
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        return dist

    source_of = {aid: atoms[aid].args[0] for aid in atoms_of(pos_mask)}
    rows = {src: bfs(_graph(problem, base), src) for src in source_of.values()}
    if isinstance(spec, CellTargets):
        fixed, target_mask = spec.objects, 0
    else:
        fixed = None
        target_mask = state_from_atoms(
            aid for aid in atoms_of(_pattern_mask(problem, spec.pattern))
            if atoms[aid].args[-1] not in spec.exclude
        )

    def kernel(s):
        if s & zero_mask:
            return 0
        pos = s & pos_mask
        if not pos:
            return 0
        if pos & (pos - 1):
            raise FeatureError(f"distance: several {expr.pos_predicate} atoms true")
        source = source_of[pos.bit_length() - 1]
        targets = fixed or [atoms[aid].args[-1] for aid in atoms_of(s & target_mask)]
        if not targets:
            return 0
        adj = s & adj_mask
        row = rows[source] if adj == base else bfs(_graph(problem, adj), source)
        best = min((row[t] for t in targets if t in row), default=None)
        if best is None:
            raise FeatureError(f"distance: no target of {spec} reachable from '{source}'")
        return best

    return kernel


def _distances(expr):
    if isinstance(expr, Distance):
        yield expr
    elif isinstance(expr, Sum):
        yield from _distances(expr.left)
        yield from _distances(expr.right)
    elif isinstance(expr, Nonzero):
        yield from _distances(expr.inner)


def _value_or_message(kernel, s):
    try:
        return kernel(s)
    except FeatureError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(bundle=_small_bundles(("delivery", "grid", "grid2")), data=st.data())
def test_distance_layers_match_dict_rows(bundle, data):
    # every reachable state, and states forged from some of them: a second
    # position, no position, and adjacency facts cut at random
    if bundle is None:
        return
    g = ground_bundle(bundle)
    states = enumerate_space(g).states
    for expr in (e for f in parse_features(bundle.features_text) for e in _distances(f.expr)):
        layers = compile_feature(Feature("d", "num", expr), g)
        rows = _distance_by_rows(expr, g)
        pos_mask = _pattern_mask(g, Pattern(expr.pos_predicate, ("_",)))
        adj_mask = state_from_atoms(g.atoms_by_predicate.get(expr.adj_predicate, ()))
        forged = []
        for s in data.draw(st.lists(st.sampled_from(states), max_size=4), label="forge from"):
            extra = data.draw(st.sampled_from([1 << i for i in atoms_of(pos_mask)]), label="pos")
            cut = data.draw(st.integers(0, adj_mask), label="cut") & adj_mask
            forged += [s | extra, s & ~pos_mask, s & ~cut]
        for s in [*states, *forged]:
            assert _value_or_message(layers, s) == _value_or_message(rows, s)


def test_hanoi_builtins_reject_a_cycle_of_on_atoms():
    bundle = domains.hanoi(1)
    # on(peg1,d1) is never true, so the cycle with on(d1,peg1) is written
    # into the initial state, where it is numbered
    problem = bundle.problem_text.replace("(on d1 peg1)", "(on d1 peg1) (on peg1 d1)")
    g = ground(parse_domain(bundle.domain_text), parse_problem(problem))
    phi = parse_features(bundle.features_text)
    with pytest.raises(FeatureError, match="cycle"):
        phi.valuation(g, g.init)


_DECL = "feature a num = "

# every diagnostic of the bundle parser
FEATURE_DIAGNOSTICS = [
    ("feature a int = count(p(_))", "line 1: expected 'feature NAME bool|num = EXPR'"),
    (_DECL + "count(p(_)", "line 1: unexpected end of expression"),
    (_DECL + "sum(count(p(_)), count(q(_))", "line 1: unexpected end of expression"),
    (_DECL + "count(p(_) x", "line 1: expected ')', found 'x'"),
    (_DECL + "count(p(_)) x", "line 1: trailing 'x'"),
    ("\n\n  " + _DECL + "distance(at, adj, cells_of(p(_), not a, b), zero_if(q(_))) x",
     "line 3: trailing 'x'"),
    (_DECL + "foo(x)", "line 1: unknown expression 'foo'"),
    (_DECL + "missing(p(_, _), a)", "line 1: missing(...) needs exactly one '_' hole"),
    (_DECL + "missing(p(a), b)", "line 1: missing(...) needs exactly one '_' hole"),
    (_DECL + "missing(p(_))", "line 1: missing(...) needs at least one object"),
    (_DECL + "chain_count(on, x, left)", "line 1: chain_count direction must be 'up' or 'down'"),
    (_DECL + "chain_count(on, (, up)", "line 1: expected name, found '('"),
    # a pattern's arguments are names, read when the line is parsed (on
    # line 2, as the message of line 1 is already a row's id)
    (_DECL + "count(clear(,))", "line 1: expected name, found ','"),
    ("\n" + _DECL + "count(clear(())", "line 2: expected name, found '('"),
    (_DECL + "distance(at, adj, nowhere(a))",
     "line 1: expected cells(...) or cells_of(...), found 'nowhere'"),
    (_DECL + "distance(at, adj, cells_of(p(_), but a))", "line 1: expected 'not', found 'but'"),
    (_DECL + "distance(at, adj, cells(a), nonzero(q(_)))",
     "line 1: expected 'zero_if', found 'nonzero'"),
    (_DECL + "count(p(_))\n\nfeature a bool = nonzero(count(p(_)))",
     "line 3: duplicate feature name 'a'"),
    # the 101st level of nesting (test_nesting_at_the_bound_is_valued)
    (_DECL + "nonzero(" * 100 + "count(p(_))" + ")" * 100, "line 1: expressions nest at most 100 deep"),
]


@pytest.mark.parametrize("text, message", FEATURE_DIAGNOSTICS, ids=[m for _, m in FEATURE_DIAGNOSTICS])
def test_feature_diagnostics(text, message):
    with pytest.raises(FeatureError) as info:
        parse_features(text)
    assert type(info.value) is FeatureError and str(info.value) == message


def test_nesting_at_the_bound_is_valued():
    # 100 levels parse, compile and are valued; one more, in either
    # argument of a sum, is a diagnostic
    g = ground_bundle(domains.blocks_clear(2))
    deep = "nonzero(" * 99 + "count(clear(_))" + ")" * 99
    sums = "sum(" * 99 + "count(clear(_))" + ", count(hold(_)))" * 99
    phi = parse_features(f"feature a bool = {deep}\nfeature b num = {sums}\n")
    for feature in phi:
        compile_feature(feature, g)
    assert phi.valuation(g, g.init) == (1, 1)
    for body in (f"sum({deep}, count(p(_)))", f"sum(count(p(_)), {deep})"):
        with pytest.raises(FeatureError, match="^line 2: expressions nest at most 100 deep$"):
            parse_features(f"\nfeature a num = {body}")


# every compile-time error of compile_feature, on delivery(3,3,[3,8],1,5);
# a known object whose atom is never true is no error (see the missing
# tests), and of two faults the first the compile walk meets is reported
COMPILE_DIAGNOSTICS = [
    ("count(nosuchpred(_))", "undeclared predicate 'nosuchpred'"),
    ("count(pos(_, _))", "predicate 'pos' has arity 1, not 2"),
    ("count(ppos(p9, _))", "unknown object 'p9'"),
    ("missing(ppos(_, c1), p1, nosuch)", "unknown object 'nosuch'"),
    ("missing(ppos(_, nosuch), p1)", "unknown object 'nosuch'"),
    ("chain_count(nosuchpred, p1, up)", "undeclared predicate 'nosuchpred'"),
    ("chain_count(pos, c1, up)", "predicate 'pos' has arity 1, not 2"),
    ("chain_count(adjacent, nosuch, up)", "unknown object 'nosuch'"),
    ("distance(nopos, adjacent, cells(c1))", "undeclared predicate 'nopos'"),
    ("distance(adjacent, adjacent, cells(c1))", "predicate 'adjacent' has arity 2, not 1"),
    ("distance(pos, noadj, cells(c1))", "undeclared predicate 'noadj'"),
    ("distance(pos, pos, cells(c1))", "predicate 'pos' has arity 1, not 2"),
    ("distance(pos, adjacent, cells(nosuchcell))", "unknown object 'nosuchcell'"),
    ("distance(pos, adjacent, cells_of(nope(_, _)))", "undeclared predicate 'nope'"),
    ("distance(pos, adjacent, cells_of(ppos(_, _), not c1, nosuch))", "unknown object 'nosuch'"),
    ("distance(pos, adjacent, cells_of(empty()))",
     "cells_of(empty()): a pattern with no argument names no cell"),
    ("distance(pos, adjacent, cells(c1), zero_if(holding(_, _)))",
     "predicate 'holding' has arity 1, not 2"),
    ("sum(count(pos(_)), nonzero(count(empty(x))))", "predicate 'empty' has arity 0, not 1"),
    ("builtin(nope)", "unregistered builtin 'nope'"),
    ("sum(builtin(nope), count(nosuchpred(_)))", "unregistered builtin 'nope'"),
    ("distance(pos, adjacent, cells_of(nope(_, _)), zero_if(holding(nosuch)))",
     "unknown object 'nosuch'"),
]


@pytest.mark.parametrize("body, message", COMPILE_DIAGNOSTICS, ids=[b for b, _ in COMPILE_DIAGNOSTICS])
def test_compile_feature_rejects_what_the_problem_does_not_declare(delivery_small, body, message):
    g, _ = delivery_small
    feature = parse_features("# the declaration is on line 2\n" + _DECL + body).features[0]
    assert feature.line == 2 and feature == parse_features(_DECL + body).features[0]
    with pytest.raises(FeatureError) as info:
        compile_feature(feature, g)
    assert type(info.value) is FeatureError and str(info.value) == f"line 2: feature 'a': {message}"


def test_feature_tokens_are_words_or_single_characters():
    phi = parse_features(_DECL + "count ( P ( A , _ ) ) # comment\n" + "feature b num = builtin(é)\n")
    assert phi.features[0].expr.pattern == Pattern("p", ("a", "_"))
    assert phi.features[1].expr == Builtin("é")


def test_select_diagnostics():
    phi = parse_features(_DECL + "count(p(_))")
    with pytest.raises(FeatureError, match=r"^feature 'b' not defined in bundle$"):
        phi.select([("b", "num")])
    with pytest.raises(FeatureError, match=r"^feature 'a' is num in the bundle but bool in the sketch$"):
        phi.select([("a", "bool")])


def test_feature_set_names_a_duplicate_feature():
    phi = parse_features(_DECL + "count(p(_))")
    with pytest.raises(FeatureError, match=r"^duplicate feature name 'a'$"):
        FeatureSet([*phi.features, *phi.features])
    with pytest.raises(FeatureError, match=r"^duplicate feature name 'a'$"):
        phi.select([("a", "num"), ("a", "num")])


def test_compile_rejects_an_unknown_expression(qclear2):
    g, _ = qclear2
    with pytest.raises(FeatureError, match=r"^feature 'a': unknown expression 'x'$"):
        compile_feature(Feature("a", "num", "x"), g)


@given(st.text(alphabet="feature abnum=cot(p_),issgh dlyz\n#é", max_size=80))
@settings(max_examples=300, deadline=None)
def test_parse_features_total_on_junk(text):
    for body in (text, _DECL + text):
        try:
            parse_features(body)
        except FeatureError:
            pass


@given(st.text(max_size=60))
@settings(max_examples=150, deadline=None)
def test_parse_features_total_on_unicode(text):
    try:
        parse_features(_DECL + text)
    except FeatureError:
        pass
