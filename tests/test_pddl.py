"""The parser: round trips through the generators' problem writer,
diagnostics, and totality on arbitrary input."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthplan import domains, parse_domain, parse_problem
from widthplan.pddl import PddlError

ALL_BUNDLES = [
    domains.blocks_clear(2),
    domains.blocks_on(1, 1),
    domains.grid(3, 2, 1, 6),
    domains.grid2(3, 3, (1, 1), (3, 2)),
    domains.delivery(2, 2, [2], target=4, start=1),
    domains.marbles([2, 1]),
    domains.hanoi(3),
]


@pytest.mark.parametrize("bundle", ALL_BUNDLES, ids=lambda b: b.family)
def test_round_trip(bundle):
    # the generators' problem writer inverts the parser, byte for byte
    p = parse_problem(bundle.problem_text)
    assert parse_domain(bundle.domain_text).name == p.domain_name
    texts = [[domains._ga(a.predicate, *a.args) for a in atoms]
             for atoms in (p.init, p.goal_pos, p.goal_neg)]
    assert domains._problem(p.name, p.domain_name, p.objects, *texts) == bundle.problem_text


def test_blocks_domain_has_four_schemas():
    d = parse_domain(domains.blocks_clear(1).domain_text)
    assert sorted(s.name for s in d.schemas) == ["pickup", "putdown", "stack", "unstack"]


def test_grid_problem_objects():
    p = parse_problem(domains.grid(3, 3, 1, 9).problem_text)
    assert len(p.objects) == 9


def test_arity_mismatch():
    text = """(define (domain t) (:predicates (on ?x ?y))
      (:action a :parameters (?x) :precondition (and (on ?x)) :effect (and)))"""
    with pytest.raises(PddlError, match="arity"):
        parse_domain(text)


def test_unbound_variable():
    text = """(define (domain t) (:predicates (p ?x))
      (:action a :parameters (?x) :precondition (and (p ?y)) :effect (and)))"""
    with pytest.raises(PddlError, match="unbound"):
        parse_domain(text)


def test_undeclared_predicate():
    text = """(define (domain t) (:predicates (p ?x))
      (:action a :parameters (?x) :precondition (and (q ?x)) :effect (and)))"""
    with pytest.raises(PddlError, match="undeclared predicate"):
        parse_domain(text)


def test_empty_effect_accepted():
    text = """(define (domain t) (:predicates (p))
      (:action a :parameters () :precondition (and (p)) :effect (and)))"""
    d = parse_domain(text)
    assert d.schemas[0].add == () and d.schemas[0].delete == ()


def test_negation_rejected_in_init():
    text = """(define (problem i) (:domain t) (:objects a)
      (:init (not (p a))) (:goal (and)))"""
    with pytest.raises(PddlError, match="closed world"):
        parse_problem(text)


def test_negation_allowed_in_goal():
    p = parse_problem(
        "(define (problem i) (:domain t) (:objects b1) (:init (ontable b1))"
        " (:goal (and (not (ontable b1)))))"
    )
    assert p.goal_neg and not p.goal_pos


def test_goal_with_undeclared_object():
    text = """(define (problem i) (:domain t) (:objects a)
      (:init) (:goal (and (p b))))"""
    with pytest.raises(PddlError, match="undeclared object"):
        parse_problem(text)


def test_error_carries_position():
    try:
        parse_domain("(define (domain t)\n  (:bogus))")
    except PddlError as exc:
        assert exc.line == 2 and exc.col is not None
    else:
        pytest.fail("expected a parse error")


def test_case_insensitive():
    d = parse_domain(
        "(define (domain T) (:predicates (P ?X))"
        " (:action A :parameters (?X) :precondition (and (p ?x)) :effect (and)))"
    )
    assert d.name == "t" and d.schemas[0].name == "a"


def test_comments_skipped():
    d = parse_domain("(define (domain t) ; comment\n (:predicates (p)))")
    assert d.predicates == (("p", 0),)


@given(st.text(alphabet="()?:abp -\n;", max_size=80))
@settings(max_examples=300, deadline=None)
def test_parser_total_on_junk(text):
    for fn in (parse_domain, parse_problem):
        try:
            fn(text)
        except PddlError:
            pass


@given(st.text(max_size=60))
@settings(max_examples=150, deadline=None)
def test_parser_total_on_unicode(text):
    try:
        parse_domain(text)
    except PddlError:
        pass


_DOMAIN_HEAD = "(define (domain t) (:predicates (p ?x) (q))\n"
_PROBLEM_HEAD = "(define (problem i) (:domain t) (:objects a b)\n"


def _action(body: str) -> str:
    return _DOMAIN_HEAD + f"(:action a :parameters {body}))"


# (parser, text, message, line, col): every diagnostic the parsers raise,
# with the position it names; `None` where the message carries none
PDDL_DIAGNOSTICS = [
    (parse_domain, "", "unexpected end of input", 1, 1),
    (parse_domain, "(define (domain t", "unexpected end of input", 1, 17),
    (parse_domain, "(define (problem i))", "expected 'domain', found 'problem'", 1, 10),
    (parse_domain, "(define (domain ()", "expected domain name, found '('", 1, 17),
    (parse_domain, "(define (domain t)) x", "trailing input 'x'", 1, 21),
    (parse_domain, "(define (domain t)", "unterminated domain definition", None, None),
    (parse_domain, "(define (domain t) (:predicates (p ?x", "unterminated atom", 1, 33),
    (parse_domain, "(define (domain t) (:predicates (p (q))))",
     "nested expression inside atom", 1, 36),
    (parse_domain, "(define (domain t) (:requirements :strips :typing))",
     "unsupported requirement ':typing'", 1, 43),
    (parse_domain, "(define (domain t) (:predicates (p ?x)\n  (p ?y)))",
     "duplicate predicate 'p'", 2, 4),
    (parse_domain, "(define (domain t) (:predicates (p a)))",
     "predicate declaration argument 'a' must be a variable", 1, 34),
    (parse_domain, _DOMAIN_HEAD + "(:action a :parameters () :precondition (and) :effect (and))\n"
     "(:action a :parameters () :precondition (and) :effect (and)))",
     "duplicate action 'a'", 3, 2),
    (parse_domain, _action("(x) :precondition (and) :effect (and)"),
     "parameter 'x' must start with '?'", 2, 25),
    (parse_domain, _action("(?x ?x) :precondition (and) :effect (and)"),
     "duplicate parameter '?x'", 2, 28),
    (parse_domain, _action("() :precondition (and (not (q))) :effect (and)"),
     "negation not allowed here", 2, 47),
    (parse_domain, _action("() :precondition (and (r)) :effect (and)"),
     "undeclared predicate 'r'", 2, 47),
    (parse_domain, _action("() :precondition (and (p)) :effect (and)"),
     "arity mismatch for 'p': declared 1, used 0", 2, 47),
    (parse_domain, _action("() :precondition (and (p c)) :effect (and)"),
     "constant 'c' not allowed in schema body", 2, 47),
    (parse_domain, _action("() :precondition (and (p ?y)) :effect (and)"),
     "unbound variable '?y'", 2, 47),
    (parse_domain, _action("() :precondition (q) :effect (q) :cost 1"),
     "expected ')', found ':cost'", 2, 57),
    (parse_domain, _DOMAIN_HEAD + "(:constants c))", "unexpected section ':constants'", 2, 2),
    # tabs and carriage returns are one column each, comments none, and
    # words are lower-cased
    (parse_domain, "(define\t(domain T) ; c\r\n (:BOGUS))", "unexpected section ':bogus'", 2, 3),
    (parse_problem, "(define (domain t))", "expected 'problem', found 'domain'", 1, 10),
    (parse_problem, "(define (problem ()", "expected problem name, found '('", 1, 18),
    (parse_problem, "(define (problem i) (:domain t)", "unterminated problem definition", None, None),
    (parse_problem, "(define (problem i) (:domain t) (:domain t))", "duplicate section ':domain'", 1, 34),
    (parse_problem, "(define (problem i) (:objects ?a))", "bad object name '?a'", 1, 31),
    (parse_problem, "(define (problem i) (:objects :a))", "bad object name ':a'", 1, 31),
    (parse_problem, "(define (problem i) (:objects a\n b a))", "duplicate object 'a'", 2, 4),
    (parse_problem, "(define (problem i) (:domain t) (:metric x))", "unexpected section ':metric'", 1, 34),
    (parse_problem, "(define (problem i) (:objects a))", "missing (:domain ...) section", None, None),
    (parse_problem, _PROBLEM_HEAD + "(:init (p ?x)) (:goal (and)))", "variable '?x' in ground atom", 2, 9),
    (parse_problem, _PROBLEM_HEAD + "(:init (p c)) (:goal (and)))", "undeclared object 'c'", 2, 9),
    (parse_problem, _PROBLEM_HEAD + "(:init (not (p a))) (:goal (and)))",
     "negated atom in :init (closed world)", 2, 14),
    (parse_problem, _PROBLEM_HEAD + "(:init) (:goal (and (not (p ?y)))))",
     "variable '?y' in ground atom", 2, 27),
    (parse_problem, _PROBLEM_HEAD + "(:init) (:goal (p a))) )", "trailing input ')'", 2, 24),
]


@pytest.mark.parametrize(
    "parse, text, message, line, col", PDDL_DIAGNOSTICS,
    ids=[f"{row[0].__name__}-{row[2]}" for row in PDDL_DIAGNOSTICS],
)
def test_pddl_diagnostics(parse, text, message, line, col):
    with pytest.raises(PddlError) as info:
        parse(text)
    where = "" if line is None else f" at {line}:{col}"
    assert type(info.value) is PddlError
    assert (str(info.value), info.value.line, info.value.col) == (message + where, line, col)
