"""Rule language semantics, the Boolean policy graph, and the sieve check."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthplan.features import boolean_projection, parse_features
from widthplan.oracle import enumerate_space
from widthplan.sketches import (
    ANYBOOL,
    ANYNUM,
    DEC,
    EQ0,
    GT0,
    INC,
    NEG,
    POS,
    SET,
    UNSET,
    Rule,
    Sketch,
    SketchError,
    SketchFeature,
    build_policy_graph,
    parse_sketch,
    relation,
    sieve,
    strongly_connected_components,
)

CLEAR_SKETCH = "features { H: bool; n: num; }\nrules { { !H, n>0 } => { H, n-- }; }\n"
DELIVERY_HEADER = "features { H: bool; p: num; t: num; u: num; }\n"


def format_sketch(sketch) -> str:
    """Sketch text that parses back to `sketch`."""
    feats = " ".join(f"{f.name}: {f.kind};" for f in sketch.features)
    cond_txt = {POS: "{0}", NEG: "!{0}", EQ0: "{0}=0", GT0: "{0}>0"}
    eff_txt = {SET: "{0}", UNSET: "!{0}", ANYBOOL: "{0}?", INC: "{0}++", DEC: "{0}--", ANYNUM: "{0}?"}
    rule_texts = []
    for rule in sketch.rules:
        conds = ", ".join(cond_txt[op].format(sketch.features[i].name) for i, op in rule.conditions)
        effs = ", ".join(eff_txt[op].format(sketch.features[i].name) for i, op in rule.effects)
        rule_texts.append(f"{{ {conds} }} => {{ {effs} }};")
    rules = " ".join(rule_texts)
    return f"features {{ {feats} }}\nrules {{ {rules} }}\n"


def test_parse_single_rule():
    sk = parse_sketch(CLEAR_SKETCH)
    assert len(sk.rules) == 1
    assert sk.names_kinds == [("H", "bool"), ("n", "num")]


def test_parse_empty_rules_block():
    sk = parse_sketch(DELIVERY_HEADER + "rules { }\n")
    assert sk.rules == ()


def test_parse_undeclared_feature():
    with pytest.raises(SketchError, match="undeclared"):
        parse_sketch("features { H: bool; }\nrules { { m>0 } => { H }; }\n")


def test_parse_duplicate_mention():
    with pytest.raises(SketchError, match="twice"):
        parse_sketch("features { n: num; }\nrules { { n>0, n=0 } => { n-- }; }\n")


def test_kind_checked_ops():
    with pytest.raises(SketchError, match="invalid"):
        parse_sketch("features { H: bool; }\nrules { { H>0 } => { H }; }\n")
    with pytest.raises(SketchError, match="invalid"):
        parse_sketch("features { n: num; }\nrules { { n>0 } => { n }; }\n")


def test_format_round_trip():
    for text in [CLEAR_SKETCH, DELIVERY_HEADER + "rules { { u>0 } => { u--, H?, p?, t? }; }\n"]:
        sk = parse_sketch(text)
        assert parse_sketch(format_sketch(sk)) == sk


def _one_rule(text):
    """The sketch of `text` and one sketch per rule, holding only that rule."""
    sk = parse_sketch(text)
    return sk, [Sketch(sk.features, (rule,)) for rule in sk.rules]


def test_pair_satisfies_examples():
    _, (sk,) = _one_rule(CLEAR_SKETCH)
    assert relation(sk, (0, 2), (1, 1))
    assert not relation(sk, (0, 2), (1, 2))  # n must strictly decrease
    assert not relation(sk, (1, 2), (0, 1))  # condition !H fails


def test_unmentioned_features_must_hold_value():
    _, (sk,) = _one_rule("features { H: bool; n: num; }\nrules { { H } => { !H }; }\n")
    assert relation(sk, (1, 3), (0, 3))
    assert not relation(sk, (1, 3), (0, 2))


def test_relation_table_rows():
    r2 = parse_sketch(DELIVERY_HEADER + "rules { { !H } => { H, p?, t? }; }\n")
    r1 = parse_sketch(DELIVERY_HEADER + "rules { { H } => { !H, p?, t? }; }\n")
    r0 = parse_sketch(DELIVERY_HEADER + "rules { }\n")
    a, b = (0, 1, 2, 1), (1, 0, 2, 1)
    assert relation(r2, a, b)
    assert not relation(r1, a, b)
    assert not relation(r0, a, b)


def test_policy_graph_no_rules():
    sk = parse_sketch(DELIVERY_HEADER + "rules { }\n")
    graph = build_policy_graph(sk)
    assert graph.n_vertices == 16 and graph.edges == []


def test_policy_graph_single_decrement():
    sk = parse_sketch("features { n: num; }\nrules { { n>0 } => { n-- }; }\n")
    graph = build_policy_graph(sk)
    # vertex bit set encodes n=0; edges leave only the n>0 vertex
    assert sorted((u, v) for u, v, _ in graph.edges) == [(0, 0), (0, 1)]


def test_policy_graph_feature_cap():
    names = "".join(f"b{i}: bool; " for i in range(17))
    with pytest.raises(SketchError, match="cap"):
        build_policy_graph(parse_sketch("features { " + names + "}\nrules { }\n"))


def test_policy_graph_parallel_edges_per_rule():
    sk = parse_sketch(
        "features { H: bool; }\nrules { { H } => { !H }; { H } => { !H }; }\n"
    )
    graph = build_policy_graph(sk)
    assert sorted(graph.edges) == [(1, 0, 0), (1, 0, 1)]


def test_tarjan_components():
    # 0 -> 1 -> 2 -> 0 plus a tail 3 -> 0
    sccs = strongly_connected_components(4, [[1], [2], [0], [0]])
    assert sorted(map(tuple, sccs)) == [(0, 1, 2), (3,)]


TABLE_VERDICTS = {
    "r0": True, "r1": True, "r2": True, "r3": False, "r4": True,
    "r5": True, "r6": True, "r7": True, "r8": True,
}


@pytest.mark.parametrize("name", sorted(TABLE_VERDICTS))
def test_sieve_verdicts(name, delivery_small):
    _, bundle = delivery_small
    sk = parse_sketch(bundle.sketches[name])
    assert sieve(build_policy_graph(sk)).accepted == TABLE_VERDICTS[name]


def test_sieve_accepts_empty_graph():
    sk = parse_sketch(DELIVERY_HEADER + "rules { }\n")
    result = sieve(build_policy_graph(sk))
    assert result.accepted and result.steps == []


def test_sieve_delivery_policy_removes_u_first(delivery_small):
    _, bundle = delivery_small
    sk = parse_sketch(bundle.sketches["policy"])
    graph = build_policy_graph(sk)
    result = sieve(graph)
    assert result.accepted
    u_index = [f.name for f in sk.features].index("u")
    big = max(result.steps, key=lambda step: len(step.component))
    assert big.feature == u_index
    # that big component is the strongly connected core of the graph
    assert len(big.component) >= 6


def test_sieve_confluent_under_choice_order(delivery_small):
    _, bundle = delivery_small
    for name, expected in TABLE_VERDICTS.items():
        sk = parse_sketch(bundle.sketches[name])
        for seed in range(5):
            rng = random.Random(seed)
            res = sieve(build_policy_graph(sk), choice=lambda c: c[rng.randrange(len(c))])
            assert res.accepted == expected


@pytest.mark.parametrize(
    "family",
    ["qclear", "delivery"],
)
def test_concrete_pairs_project_to_graph_edges(family, qclear2, delivery_one):
    problem, bundle = qclear2 if family == "qclear" else delivery_one
    sketch, singles = _one_rule(bundle.sketches["policy"])
    phi = parse_features(bundle.features_text).select(sketch.names_kinds)
    edge_set = set(build_policy_graph(sketch).edges)
    space = enumerate_space(problem)
    vals = [phi.valuation(problem, s) for s in space.states]

    def vertex(values):
        bits = boolean_projection(phi, values)
        return sum(1 << i for i, b in enumerate(bits) if b)

    # a pair that rule r alone relates maps to an edge of rule r
    for a in range(len(space)):
        for b in range(len(space)):
            rules = [r for r, single in enumerate(singles) if relation(single, vals[a], vals[b])]
            assert bool(rules) == relation(sketch, vals[a], vals[b])
            for r in rules:
                assert (vertex(vals[a]), vertex(vals[b]), r) in edge_set


_ONE_NUM = "features { n: num; }\nrules { "


def _row(text, message, line_added=False):
    # a row's id is its message; a diagnostic raised past the tokenizer keeps
    # the id it had before it named its line, its message without "line N: "
    return pytest.param(text, message, id=message.split(": ", 1)[1] if line_added else message)


# every diagnostic the sketch parser raises
SKETCH_DIAGNOSTICS = [
    _row("", "unexpected end of sketch text"),
    _row("features {", "unexpected end of sketch text"),
    _row("features { n: num }", "line 1: expected ';', found '}'"),
    _row("features { ; }", "line 1: bad feature name ';'", line_added=True),
    _row("features {\n  n: int; }", "line 2: feature 'n': kind must be bool or num, not 'int'",
         line_added=True),
    _row("features { n: num;\n  n: bool; }", "line 2: duplicate feature 'n'", line_added=True),
    _row("features { }\nrules { }\nx", "line 3: trailing token 'x'", line_added=True),
    _row("features { 1n: num; }", "line 1: bad character '1'"),
    _row(_ONE_NUM + "{ n>0 } = > { }; }", "line 2: bad character '='"),
    # lines are counted as str.splitlines counts them
    _row("features { n: num; }\n# c\r\nrules { { n$ } => { }; }", "line 3: bad character '$'"),
    _row("features { n: num; }\f\x85rules { { n>0 } => { n++ } }", "line 3: expected ';', found '}'"),
    _row("features { H: bool; }\nrules { { H? } => { }; }", "line 2: 'H?' is only valid as an effect",
         line_added=True),
    _row(_ONE_NUM + "{ n>0 } => { n-- };\n{ H } => { }; }", "line 3: undeclared feature 'H'",
         line_added=True),
    _row(_ONE_NUM + "{ n>0,\n n=0 } => { }; }",
         "line 3: feature 'n' mentioned twice on one rule side", line_added=True),
    _row(_ONE_NUM + "{ n } => { }; }", "line 2: 'n' (num): invalid condition form", line_added=True),
    _row(_ONE_NUM + "{ n>0 } =>\n{ n }; }", "line 3: 'n' (num): invalid effect form", line_added=True),
]


@pytest.mark.parametrize("text, message", SKETCH_DIAGNOSTICS)
def test_sketch_diagnostics(text, message):
    with pytest.raises(SketchError) as info:
        parse_sketch(text)
    assert type(info.value) is SketchError and str(info.value) == message


@given(st.text(alphabet="featurslbonm{}:;!?=>+-0,# \n\r\f\x85_Hn1é", max_size=80))
@settings(max_examples=300, deadline=None)
def test_parse_sketch_total_on_junk(text):
    try:
        parse_sketch(text)
    except SketchError:
        pass


@given(st.text(max_size=60))
@settings(max_examples=150, deadline=None)
def test_parse_sketch_total_on_unicode(text):
    try:
        parse_sketch("features { n: num; }\nrules { " + text)
    except SketchError:
        pass


INC_SKETCH = "features { n: num; m: num; }\nrules { { n>0 } => { n--, m++ }; { m>0 } => { m--, n++ }; }\n"


def test_increment_parses_and_relates_only_growth():
    sk, (first, _) = _one_rule(INC_SKETCH)
    assert sk.rules[0].conditions == ((0, GT0),)
    assert sk.rules[0].effects == ((0, DEC), (1, INC))
    assert parse_sketch(format_sketch(sk)) == sk
    assert relation(first, (2, 0), (1, 1))
    assert relation(first, (2, 0), (1, 5))
    assert not relation(first, (2, 3), (1, 3))  # m must grow
    assert not relation(first, (2, 3), (1, 2))


def test_increment_edge_targets_a_positive_value():
    sk = parse_sketch("features { n: num; }\nrules { { n=0 } => { n++ }; }\n")
    # only the n=0 vertex (bit set) has an edge, and its target has n > 0
    assert build_policy_graph(sk).edges == [(1, 0, 0)]


def test_sieve_keeps_a_decrement_beside_an_increment():
    # n falls and m rises on one edge, m falls and n rises on the other: the
    # cycle has an increment for each decrement, so no edge can go
    graph = build_policy_graph(parse_sketch(INC_SKETCH))
    result = sieve(graph)
    assert not result.accepted and result.steps == []
    assert result.remaining_edges == list(range(len(graph.edges)))
    inside = [i for i in result.remaining_edges if graph.edges[i][:2] == (0, 0)]
    assert {graph.edges[i][2] for i in inside} == {0, 1}


# ---------------------------------------------------------------------------
# The relation as it was before each rule became masks: one rule's ops read
# feature by feature.


def _pair_satisfies(rule, fs, fs2):
    """True iff `fs` meets the conditions and the change to `fs2` matches the
    effects; features unmentioned in the effects must keep their value."""
    for i, op in rule.conditions:
        v = fs[i]
        if op == POS and not v:
            return False
        if op == NEG and v:
            return False
        if op == EQ0 and v != 0:
            return False
        if op == GT0 and v <= 0:
            return False
    mentioned = 0
    for i, op in rule.effects:
        mentioned |= 1 << i
        v, w = fs[i], fs2[i]
        if op == SET and w != 1:
            return False
        if op == UNSET and w != 0:
            return False
        if op == INC and not w > v:
            return False
        if op == DEC and not w < v:
            return False
        # ANYBOOL / ANYNUM are unconstrained
    for i in range(len(fs)):
        if not (mentioned >> i) & 1 and fs[i] != fs2[i]:
            return False
    return True


# ---------------------------------------------------------------------------
# The policy graph and the sieve as they were before each rule became masks:
# the builder read every rule's ops at every vertex, the sieve every edge's
# effects for every numerical feature.  The masks must give the same edges
# and the same sieve runs.


def _old_policy_edges(sketch):
    n = len(sketch.features)
    edges = []
    for ridx, rule in enumerate(sketch.rules):
        eff = dict(rule.effects)
        for v in range(1 << n):
            if any(
                (op in (POS, EQ0) and not (v >> i) & 1) or (op in (NEG, GT0) and (v >> i) & 1)
                for i, op in rule.conditions
            ):
                continue
            fixed_mask = fixed_val = free_mask = 0
            ok = True
            for i in range(n):
                bit = (v >> i) & 1
                op = eff.get(i)
                if op is None:
                    fixed_mask |= 1 << i
                    fixed_val |= bit << i
                elif op == SET:
                    fixed_mask |= 1 << i
                    fixed_val |= 1 << i
                elif op in (UNSET, INC):
                    fixed_mask |= 1 << i
                elif op == DEC:
                    if bit:
                        ok = False
                        break
                    free_mask |= 1 << i
                else:
                    free_mask |= 1 << i
            if not ok:
                continue
            sub = free_mask
            while True:
                edges.append((v, fixed_val | sub, ridx))
                if sub == 0:
                    break
                sub = (sub - 1) & free_mask
    edges.sort()
    return edges


def _old_sieve(sketch, edges, choice=None):
    """(accepted, steps as (component, feature, removed) tuples, remaining edges)"""
    n_vertices = 1 << len(sketch.features)
    numeric = [i for i, f in enumerate(sketch.features) if f.kind == "num"]
    alive = [True] * len(edges)
    steps = []
    while True:
        succ = [[] for _ in range(n_vertices)]
        for idx, (u, v, _r) in enumerate(edges):
            if alive[idx]:
                succ[u].append(v)
        sccs = strongly_connected_components(n_vertices, succ)
        comp_of = [0] * n_vertices
        for ci, scc in enumerate(sccs):
            for v in scc:
                comp_of[v] = ci
        internal = {}
        for idx, (u, v, _r) in enumerate(edges):
            if alive[idx] and comp_of[u] == comp_of[v]:
                internal.setdefault(comp_of[u], []).append(idx)
        if not internal:
            break
        candidates = []
        for ci in sorted(internal, key=lambda c: sccs[c][0]):
            for n in numeric:
                dec_edges = []
                blocked = False
                for idx in internal[ci]:
                    op = dict(sketch.rules[edges[idx][2]].effects).get(n)
                    if op == DEC:
                        dec_edges.append(idx)
                    elif op in (INC, ANYNUM):
                        blocked = True
                        break
                if not blocked and dec_edges:
                    candidates.append((tuple(sccs[ci]), n, tuple(dec_edges)))
        if not candidates:
            return False, steps, [i for i, a in enumerate(alive) if a]
        step = candidates[0] if choice is None else choice(candidates)
        for idx in step[2]:
            alive[idx] = False
        steps.append(step)
    return True, steps, [i for i, a in enumerate(alive) if a]


_OPS = {  # kind -> (condition ops, effect ops); None leaves the feature out
    "bool": ([None, None, None, POS, NEG], [None, None, None, SET, UNSET, ANYBOOL]),
    "num": ([None, None, None, EQ0, GT0], [None, None, None, INC, DEC, ANYNUM]),
}


@st.composite
def _parsed_sketches(draw):
    kinds = draw(st.lists(st.sampled_from(["bool", "num"]), max_size=6))
    rules = []
    for _ in range(draw(st.integers(0, 4))):
        sides = [
            tuple((i, op) for i, kind in enumerate(kinds)
                  if (op := draw(st.sampled_from(_OPS[kind][side]))) is not None)
            for side in (0, 1)
        ]
        rules.append(Rule(*sides))
    sketch = Sketch(tuple(SketchFeature(f"f{i}", k) for i, k in enumerate(kinds)), tuple(rules))
    return parse_sketch(format_sketch(sketch))


def _chooser(rng):
    return None if rng is None else lambda candidates: candidates[rng.randrange(len(candidates))]


@given(sketch=_parsed_sketches(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_rule_masks_match_the_old_policy_graph_and_sieve(sketch, seed):
    graph = build_policy_graph(sketch)
    assert graph.edges == _old_policy_edges(sketch)
    # the first choice by default, then a random one
    for new_rng, old_rng in ((None, None), (random.Random(seed), random.Random(seed))):
        result = sieve(graph, choice=_chooser(new_rng))
        steps = [(step.component, step.feature, step.removed_edges) for step in result.steps]
        old = _old_sieve(sketch, graph.edges, choice=_chooser(old_rng))
        assert (result.accepted, steps, result.remaining_edges) == old


@st.composite
def _valuation_pairs(draw):
    """A sketch and two valuations of its features, 0 or 1 for a Boolean and
    n >= 0 for a number; the second keeps some values of the first."""
    sketch = draw(_parsed_sketches())
    values = [st.integers(0, 1) if f.kind == "bool" else st.integers(0, 3) for f in sketch.features]
    fs = tuple(draw(v) for v in values)
    fs2 = tuple(w if draw(st.booleans()) else draw(v) for v, w in zip(values, fs))
    return sketch, fs, fs2


@given(_valuation_pairs())
@settings(max_examples=400, deadline=None)
def test_relation_matches_the_op_loop(case):
    sketch, fs, fs2 = case
    assert relation(sketch, fs, fs2) == any(_pair_satisfies(rule, fs, fs2) for rule in sketch.rules)
    # a valuation and itself, which no rule with n++ or n-- relates
    assert relation(sketch, fs, fs) == any(_pair_satisfies(rule, fs, fs) for rule in sketch.rules)


@given(_valuation_pairs())
@settings(max_examples=400, deadline=None)
def test_the_read_sketch_keeps_the_relation(case):
    # `read` keeps a feature iff some rule has a condition on it or an
    # effect other than `?` (no effect at all keeps its value)
    sketch, fs, fs2 = case
    read = sketch.read
    constrained = [i for i in range(len(sketch.features)) if any(
        any(j == i for j, _ in rule.conditions)
        or not any(j == i and op in (ANYBOOL, ANYNUM) for j, op in rule.effects)
        for rule in sketch.rules)]
    assert read.features == tuple(sketch.features[i] for i in constrained)
    assert len(read.rules) == len(sketch.rules)

    at = [sketch.features.index(f) for f in read.features]

    def proj(values):
        return tuple(values[i] for i in at)

    assert relation(sketch, fs, fs2) == relation(read, proj(fs), proj(fs2))
    assert relation(sketch, fs, fs) == relation(read, proj(fs), proj(fs))


def test_the_read_sketch_of_delivery_rules():
    # r4 reads u alone, r5 H and u; a `?` on a feature another rule reads stays
    bodies = ["{ u>0 } => { u--, H?, p?, t? };",
              "{ !H } => { H, p?, t? }; { u>0 } => { u--, H?, p?, t? };",
              "{ H } => { u? };", ""]
    read = [parse_sketch(DELIVERY_HEADER + "rules { " + body + " }\n").read for body in bodies]
    assert [sk.names_kinds for sk in read] == [
        [("u", "num")], [("H", "bool"), ("u", "num")], [("H", "bool"), ("p", "num"), ("t", "num")], []]
    assert read[1].rules == (Rule(((0, NEG),), ((0, SET),)), Rule(((1, GT0),), ((0, ANYBOOL), (1, DEC))))
    assert read[3].rules == ()
