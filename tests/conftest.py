import pytest

from widthplan import domains, ground, parse_domain, parse_problem
from widthplan.features import parse_features
from widthplan.sketches import parse_sketch


def ground_bundle(bundle):
    return ground(parse_domain(bundle.domain_text), parse_problem(bundle.problem_text))


def bundle_features(bundle):
    return parse_features(bundle.features_text)


def bundle_sketch(bundle, name="policy"):
    return parse_sketch(bundle.sketches[name])


# Two atoms and no initial fact: `a` adds p, `b` needs p and adds q, the
# goal is q.  The root holds no atom, so only the empty tuple makes it new.
EMPTY_ROOT_DOMAIN = """(define (domain empty-root) (:predicates (p) (q))
  (:action a :parameters () :precondition (and) :effect (and (p)))
  (:action b :parameters () :precondition (and (p)) :effect (and (q))))"""
EMPTY_ROOT_PROBLEM = "(define (problem e) (:domain empty-root) (:init) (:goal (and (q))))"


@pytest.fixture(scope="session")
def empty_root():
    return ground(parse_domain(EMPTY_ROOT_DOMAIN), parse_problem(EMPTY_ROOT_PROBLEM))


# No action survives grounding: `a` needs q, which nothing makes true, so the
# state space is the initial state alone and the goal p is unreachable.
NO_ACTION_DOMAIN = """(define (domain no-action) (:predicates (p) (q))
  (:action a :parameters () :precondition (and (q)) :effect (and (p))))"""
NO_ACTION_PROBLEM = "(define (problem n) (:domain no-action) (:init) (:goal (and (p))))"


@pytest.fixture(scope="session")
def no_action():
    return ground(parse_domain(NO_ACTION_DOMAIN), parse_problem(NO_ACTION_PROBLEM))


@pytest.fixture(scope="session")
def qclear2():
    bundle = domains.blocks_clear(2)
    return ground_bundle(bundle), bundle


@pytest.fixture(scope="session")
def delivery_small():
    bundle = domains.delivery(3, 3, [3, 8], target=1, start=5)
    return ground_bundle(bundle), bundle


@pytest.fixture(scope="session")
def delivery_one():
    bundle = domains.delivery(3, 3, [3], target=1, start=5)
    return ground_bundle(bundle), bundle


@pytest.fixture(scope="session")
def hanoi3():
    bundle = domains.hanoi_odd(3)
    return ground_bundle(bundle), bundle
