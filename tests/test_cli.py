"""Command-line surface: exit codes, stats schema, determinism."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from widthplan.cli import main
from tests.conftest import (
    EMPTY_ROOT_DOMAIN, EMPTY_ROOT_PROBLEM, NO_ACTION_DOMAIN, NO_ACTION_PROBLEM,
)
from tests.test_grounding import assert_same_grounding


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = {}
    for family, params in [
        ("blocks-clear", ["l=3"]),
        ("delivery", ["width=3", "height=3", "packages=3,8", "target=1", "start=5"]),
        ("hanoi", ["n=3"]),
        ("grid", ["width=4", "height=1", "start=1", "goal=4"]),
    ]:
        path = tmp_path_factory.mktemp(family)
        assert main(["gen", "--family", family, "--params", *params, "--out", str(path)]) == 0
        out[family] = path
    return out


def _solve(gen_dir, family, *extra):
    d = gen_dir[family]
    return main([
        "solve", "--domain", str(d / "domain.pddl"), "--problem", str(d / "problem.pddl"), *extra,
    ])


def test_gen_writes_expected_files(gen_dir):
    d = gen_dir["delivery"]
    names = {p.name for p in d.iterdir()}
    assert {"domain.pddl", "problem.pddl", "features.feat", "r3.sketch", "policy.sketch"} <= names


def test_solve_bfs_exit_zero(gen_dir, capsys):
    assert _solve(gen_dir, "grid", "--alg", "bfs") == 0
    out = capsys.readouterr().out
    assert "(move c1 c2)" in out and "plan_length=3" in out


def test_solve_iwk_optimal_on_clear_goal(gen_dir, capsys):
    assert _solve(gen_dir, "blocks-clear", "--alg", "iwk", "--k", "1", "--json") == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["algorithm"] == "iwk" and stats["k"] == 1
    assert stats["plan_length"] == 5
    assert set(stats) == {
        "algorithm", "k", "expanded", "generated", "plan_length",
        "segments", "wall_ms", "verdict", "atoms", "actions", "bindings",
    }
    # blocks_clear(3) has no atom that is never true; its join yields 40
    # bindings, and the 8 stack/unstack bindings with ?x = ?y mention on(x,x)
    assert (stats["atoms"], stats["actions"], stats["bindings"]) == (25, 32, 40)


def test_solve_json_reports_the_numbered_model(gen_dir, capsys):
    # grid 4x1 numbers its 4 pos atoms and 6 adjacent facts, not all 12
    # ordered pairs of cells (16 atoms), and keeps its 6 moves
    assert _solve(gen_dir, "grid", "--alg", "bfs", "--json") == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (stats["atoms"], stats["actions"], stats["plan_length"]) == (10, 6, 3)


def test_solve_iwt_with_tuples(gen_dir, capsys):
    d = gen_dir["blocks-clear"]
    code = _solve(gen_dir, "blocks-clear", "--alg", "iwt", "--tuples", str(d / "walk.tuples"), "--json")
    assert code == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["plan_length"] == 5


def test_solve_iwphi_json_matches_the_library(gen_dir, capsys):
    from widthplan import ground, iw_phi, parse_domain, parse_features, parse_problem

    d = gen_dir["blocks-clear"]
    code = _solve(gen_dir, "blocks-clear", "--alg", "iwphi",
                  "--features", str(d / "features.feat"), "--json")
    assert code == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    g = ground(parse_domain((d / "domain.pddl").read_text()),
               parse_problem((d / "problem.pddl").read_text()))
    result = iw_phi(g, parse_features((d / "features.feat").read_text()))
    assert stats["algorithm"] == "iwphi" and stats["verdict"] == "solved"
    assert (stats["expanded"], stats["generated"], stats["plan_length"]) == (
        result.stats.expanded, result.stats.generated, len(result.plan)) == (5, 12, 5)


def test_solve_iwphi_names_a_feature_nested_too_deep(gen_dir, tmp_path, capsys):
    features = tmp_path / "features.feat"
    features.write_text("feature a bool = " + "nonzero(" * 1200 + "count(hold(_))" + ")" * 1200 + "\n")
    code = _solve(gen_dir, "blocks-clear", "--alg", "iwphi", "--features", str(features))
    assert (code, capsys.readouterr().err) == (2, "error: line 1: expressions nest at most 100 deep\n")


def test_solve_siwr_hanoi_policy(gen_dir, capsys):
    d = gen_dir["hanoi"]
    code = _solve(
        gen_dir, "hanoi", "--alg", "siwr", "--k", "0",
        "--sketch", str(d / "policy.sketch"), "--features", str(d / "features.feat"),
        "--json",
    )
    assert code == 0
    out = capsys.readouterr().out
    stats = json.loads(out.strip().splitlines()[-1])
    assert stats["plan_length"] == 7 and stats["segments"] == 7
    assert "segment 0: k=0 len=1" in out


def _siwr_error_with_line_2(gen_dir, tmp_path, capsys, line_2):
    """Exit code and stderr of SIW_R r4 on Delivery with feature t on line 2."""
    d = gen_dir["delivery"]
    features = tmp_path / "features.feat"
    features.write_text(
        "feature H bool = nonzero(count(holding(_)))\n"
        f"{line_2}\n"
        "feature p num = distance(pos, adjacent, cells_of(ppos(_, _), not c1), zero_if(holding(_)))\n"
        "feature u num = missing(ppos(_, c1), p1, p2)\n"
    )
    capsys.readouterr()
    code = _solve(gen_dir, "delivery", "--alg", "siwr", "--sketch", str(d / "r4.sketch"),
                  "--features", str(features))
    return code, capsys.readouterr().err


def test_solve_siwr_names_the_line_of_an_undeclared_object(gen_dir, tmp_path, capsys):
    line_2 = "feature t num = distance(pos, adjacent, cells(nosuchcell))"
    assert _siwr_error_with_line_2(gen_dir, tmp_path, capsys, line_2) == (
        2, "error: line 2: feature 't': unknown object 'nosuchcell'\n")


def test_solve_siwr_names_the_line_of_a_cells_of_pattern_with_no_argument(gen_dir, tmp_path, capsys):
    line_2 = "feature t num = distance(pos, adjacent, cells_of(empty()))"
    assert _siwr_error_with_line_2(gen_dir, tmp_path, capsys, line_2) == (
        2, "error: line 2: feature 't': cells_of(empty()): a pattern with no argument names no cell\n")


def test_solve_siwr_names_the_line_of_an_unregistered_builtin(gen_dir, tmp_path, capsys):
    line_2 = "feature t num = builtin(nope)"
    assert _siwr_error_with_line_2(gen_dir, tmp_path, capsys, line_2) == (
        2, "error: line 2: feature 't': unregistered builtin 'nope'\n")


def test_solve_policy_alg(gen_dir, capsys):
    d = gen_dir["delivery"]
    code = _solve(
        gen_dir, "delivery", "--alg", "policy",
        "--sketch", str(d / "policy.sketch"), "--features", str(d / "features.feat"),
    )
    assert code == 0
    assert "verdict=goal" in capsys.readouterr().out


def test_solve_policy_reports_its_time(gen_dir, capsys):
    d = gen_dir["delivery"]
    code = _solve(
        gen_dir, "delivery", "--alg", "policy",
        "--sketch", str(d / "policy.sketch"), "--features", str(d / "features.feat"), "--json",
    )
    assert code == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["verdict"] == "goal" and stats["wall_ms"] > 0


def test_solve_policy_counts_expansions_not_steps(gen_dir, capsys):
    from widthplan import applicable_actions, ground, parse_domain, parse_problem, replay

    d = gen_dir["hanoi"]
    code = _solve(
        gen_dir, "hanoi", "--alg", "policy",
        "--sketch", str(d / "policy.sketch"), "--features", str(d / "features.feat"), "--json",
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    stats = json.loads(lines[-1])
    g = ground(parse_domain((d / "domain.pddl").read_text()),
               parse_problem((d / "problem.pddl").read_text()))
    by_name = {str(a): a.action_id for a in g.actions}
    states = replay(g, [by_name[line] for line in lines[:-1]])
    assert stats["plan_length"] == stats["expanded"] == 7
    assert stats["generated"] == sum(len(applicable_actions(g, s)) for s in states[:-1])


def test_solve_failure_exit_one(gen_dir, capsys):
    assert _solve(gen_dir, "delivery", "--alg", "iwk", "--k", "1") == 1


def test_solve_iw_k_bounds_the_iterations(gen_dir, capsys):
    # the delivery instance needs k = 3: a lower --k fails, one above the
    # atom count runs as the atom count, a negative one is an input error
    assert _solve(gen_dir, "delivery", "--alg", "iw", "--k", "2", "--json") == 1
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["k"] == 2 and stats["verdict"] == "no plan up to k=2"
    for k in ("3", "100000"):
        assert _solve(gen_dir, "delivery", "--alg", "iw", "--k", k, "--json") == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["k"] == 3
    assert _solve(gen_dir, "delivery", "--alg", "iw", "--k", "-1") == 2
    assert "error: max_k must be >= 0, got -1" in capsys.readouterr().err


def test_sieve_reject_exit_one(gen_dir, capsys):
    d = gen_dir["delivery"]
    code = main(["sieve", "--sketch", str(d / "r3.sketch"), "--features", str(d / "features.feat")])
    assert code == 1
    assert capsys.readouterr().out.strip() == "REJECT"


def test_sieve_accept_with_trace(gen_dir, capsys):
    d = gen_dir["delivery"]
    code = main(["sieve", "--sketch", str(d / "r5.sketch"), "--trace"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == "ACCEPT"
    assert "feature=u" in captured.err


def test_oracle_checks(gen_dir, capsys):
    d = gen_dir["blocks-clear"]
    base = ["--domain", str(d / "domain.pddl"), "--problem", str(d / "problem.pddl")]
    assert main(["oracle", "width", *base]) == 0
    assert "width=1 certified=yes" in capsys.readouterr().out
    assert main(["oracle", "admissible", *base, "--tuples", str(d / "walk.tuples")]) == 0
    assert main(["oracle", "envelope", *base, "--tuples", str(d / "walk.tuples")]) == 0
    assert main(["oracle", "lower-bound", *base, "--k", "0"]) == 0
    assert main(["oracle", "lower-bound", *base, "--k", "1"]) == 1


def test_oracle_admissible_names_a_never_true_atom(gen_dir, tmp_path, capsys):
    # adjacent(c1,c3) is well formed but never true, so its tuple is
    # unreachable; adjacent(c1,c1) repeats an argument and is an input error
    d = gen_dir["grid"]
    base = ["--domain", str(d / "domain.pddl"), "--problem", str(d / "problem.pddl")]
    tuples = tmp_path / "t.tuples"
    tuples.write_text("pos(c1)\nadjacent(c1,c3)\n")
    assert main(["oracle", "admissible", *base, "--tuples", str(tuples)]) == 1
    assert capsys.readouterr().out == (
        "verdict=false reason='unreachable tuple {adjacent(c1,c3)}' witness={adjacent(c1,c3)}\n"
    )
    tuples.write_text("adjacent(c1,c1)\n")
    assert main(["oracle", "admissible", *base, "--tuples", str(tuples)]) == 2
    assert "unknown atom 'adjacent(c1,c1)'" in capsys.readouterr().err


_UNSOLVABLE_DOMAIN = """(define (domain oneway)
  (:predicates (at ?x) (link ?x ?y) (sealed))
  (:action move :parameters (?x ?y)
    :precondition (and (at ?x) (link ?x ?y))
    :effect (and (at ?y) (not (at ?x)))))
"""

_UNSOLVABLE_PROBLEM = """(define (problem oneway-3) (:domain oneway)
  (:objects a b c)
  (:init (at a) (link a b) (link b c))
  (:goal (and (sealed))))
"""


def test_oracle_width_outputs(gen_dir, tmp_path, capsys):
    d = gen_dir["hanoi"]
    base = ["--domain", str(d / "domain.pddl"), "--problem", str(d / "problem.pddl")]
    assert main(["oracle", "width", *base]) == 0
    assert capsys.readouterr().out == "width=2 certified=yes\n"
    assert main(["oracle", "width", *base, "--k-cap", "1"]) == 1
    assert capsys.readouterr().out == "verdict=unbounded k_cap=1\n"
    assert main(["oracle", "width", *base, "--cap", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: state space exceeds cap 10")

    from widthplan import domains

    cases = [
        (domains.marbles([1]).domain_text, domains.marbles([1]).problem_text,
         "error: effective width requires a positive-conjunction goal"),
        (_UNSOLVABLE_DOMAIN, _UNSOLVABLE_PROBLEM,
         "error: reference search failed: state space exhausted"),
    ]
    for n, (domain_text, problem_text, message) in enumerate(cases):
        (tmp_path / f"d{n}.pddl").write_text(domain_text)
        (tmp_path / f"p{n}.pddl").write_text(problem_text)
        code = main(["oracle", "width", "--domain", str(tmp_path / f"d{n}.pddl"),
                     "--problem", str(tmp_path / f"p{n}.pddl")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(message)


def test_oracle_width_four_is_certified(tmp_path, capsys):
    # width 4 is certified by the lower bound at k = 3
    params = ["width=2", "height=2", "packages=2,3,4", "target=1", "start=1"]
    assert main(["gen", "--family", "delivery", "--params", *params, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    base = ["--domain", str(tmp_path / "domain.pddl"), "--problem", str(tmp_path / "problem.pddl")]
    assert main(["oracle", "width", *base, "--k-cap", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "width=4 certified=yes\n" and captured.err == ""
    assert main(["oracle", "lower-bound", *base, "--k", "3"]) == 0
    assert capsys.readouterr().out == "width_exceeds_3=yes\n"
    assert main(["oracle", "lower-bound", *base, "--k", "4"]) == 1
    assert capsys.readouterr().out == "width_exceeds_4=no\n"


def test_root_with_no_atom_solves_and_certifies(tmp_path, capsys):
    (tmp_path / "domain.pddl").write_text(EMPTY_ROOT_DOMAIN)
    (tmp_path / "problem.pddl").write_text(EMPTY_ROOT_PROBLEM)
    base = ["--domain", str(tmp_path / "domain.pddl"), "--problem", str(tmp_path / "problem.pddl")]
    assert main(["solve", "--alg", "iw", *base, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["k"] == 1 and stats["plan_length"] == 2
    for cap in ([], ["--k-cap", "3"]):  # a cap above the two atoms is no error
        assert main(["oracle", "width", *base, *cap]) == 0
        assert capsys.readouterr().out == "width=1 certified=yes\n"
    assert main(["oracle", "lower-bound", *base, "--k", "1"]) == 1
    assert capsys.readouterr().out == "width_exceeds_1=no\n"


@pytest.mark.parametrize("argv, message", [
    (["oracle", "lower-bound", "--k", "-1"], "error: k must be >= 0, got -1"),
    (["oracle", "width", "--k-cap", "-1"], "error: k_cap must be >= 0, got -1"),
    (["oracle", "sketch-width", "--k-cap", "-2", "--features", "features.feat",
      "--sketch", "r5.sketch"], "error: k_cap must be >= 0, got -2"),
    (["solve", "--alg", "bfs", "--max-nodes", "-1"], "error: max_nodes must be >= 0, got -1"),
], ids=["lower-bound", "width", "sketch-width", "solve"])
def test_negative_width_or_budget_exit_two(gen_dir, capsys, argv, message):
    d = gen_dir["delivery"]
    argv = [str(d / a) if a.endswith((".feat", ".sketch")) else a for a in argv]
    code = main([*argv, "--domain", str(d / "domain.pddl"), "--problem", str(d / "problem.pddl")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_oracle_cap_below_one_exits_two(tmp_path, capsys, cap):
    # refused before enumerating, also where the space is the initial state
    # alone
    (tmp_path / "domain.pddl").write_text(NO_ACTION_DOMAIN)
    (tmp_path / "problem.pddl").write_text(NO_ACTION_PROBLEM)
    base = ["--domain", str(tmp_path / "domain.pddl"), "--problem", str(tmp_path / "problem.pddl")]
    assert main(["oracle", "lower-bound", *base, "--k", "0", "--cap", "1"]) == 2
    assert capsys.readouterr().err == "error: width lower bound needs a solvable instance\n"
    for check in (["width"], ["lower-bound", "--k", "0"]):
        code = main(["oracle", *check, *base, "--cap", cap])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: cap must be >= 1, got {cap}\n"


def test_oracle_sketch_checks(gen_dir, capsys):
    d = gen_dir["delivery"]
    base = [
        "--domain", str(d / "domain.pddl"), "--problem", str(d / "problem.pddl"),
        "--features", str(d / "features.feat"),
    ]
    assert main(["oracle", "feature-acyclic", *base, "--sketch", str(d / "r5.sketch")]) == 0
    assert main(["oracle", "feature-acyclic", *base, "--sketch", str(d / "r3.sketch")]) == 1
    assert main(["oracle", "sketch-width", *base, "--sketch", str(d / "r5.sketch")]) == 0
    assert "sketch_width=1" in capsys.readouterr().out


def test_solve_policy_reports_the_step_cap(tmp_path, capsys, monkeypatch):
    from widthplan import siw

    assert main(["gen", "--family", "hanoi", "--params", "n=5", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(siw, "STEP_CAP", 3)
    code = main([
        "solve", "--alg", "policy", "--domain", str(tmp_path / "domain.pddl"),
        "--problem", str(tmp_path / "problem.pddl"), "--sketch", str(tmp_path / "policy.sketch"),
        "--features", str(tmp_path / "features.feat"),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict=cap" in out and "plan_length=3" in out
    assert "expanded=3" in out and "generated=8" in out


def test_oracle_sketch_width_unbounded_exits_one(tmp_path, capsys):
    params = ["width=3", "height=2", "packages=2,5", "target=1", "start=4"]
    assert main(["gen", "--family", "delivery", "--params", *params, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    argv = [
        "oracle", "sketch-width", "--domain", str(tmp_path / "domain.pddl"),
        "--problem", str(tmp_path / "problem.pddl"), "--features", str(tmp_path / "features.feat"),
        "--sketch", str(tmp_path / "r4.sketch"),
    ]
    assert main([*argv, "--k-cap", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("sketch_width=unbounded k_cap=1 reason='subproblem from {")
    assert out.endswith("has width above 1 or is a dead end'\n")
    # the family is the one that k_cap = 2 bounds
    assert main([*argv, "--k-cap", "2"]) == 0
    assert capsys.readouterr().out == "sketch_width=2 subproblems=73\n"


def test_input_error_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.pddl")
    assert main(["solve", "--alg", "bfs", "--domain", missing, "--problem", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_two(capsys):
    assert main(["solve", "--alg", "wat", "--domain", "x", "--problem", "y"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "widthplan solve: error:" in err


def test_help_exit_zero(capsys):
    assert main(["solve", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_missing_required_input_exit_two(gen_dir, capsys):
    assert _solve(gen_dir, "grid", "--alg", "iwk") == 2  # --k absent
    assert _solve(gen_dir, "grid", "--alg", "iwt") == 2  # --tuples absent


def test_deterministic_output(gen_dir, capsys):
    def run():
        assert _solve(gen_dir, "delivery", "--alg", "iw", "--json") == 0
        out = capsys.readouterr().out
        plan = [line for line in out.splitlines() if line.startswith("(")]
        stats = json.loads(out.strip().splitlines()[-1])
        stats.pop("wall_ms")
        return plan, stats

    assert run() == run()


# -- totality: random gen/solve argv never escapes the 0/1/2 contract ---------

_PARAM_KEYS = [
    "l", "m", "held", "towers", "goal", "width", "height", "start", "target",
    "packages", "counts", "n", "from", "to", "zz",
]
_PARAM_VALUES = st.one_of(
    st.integers(-1, 4).map(str),
    st.lists(st.integers(-1, 5), max_size=3).map(lambda xs: ",".join(map(str, xs))),
    st.text(alphabet="abx1.;:,", max_size=6),
    st.sampled_from(["on:a:b", "clear:a", "on:a", "a.b;c", "b1"]),
)
_PARAM = st.one_of(
    st.tuples(st.sampled_from(_PARAM_KEYS), _PARAM_VALUES).map("=".join),
    st.sampled_from(["width", "=3", ""]),
)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error:"), (argv, err)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    family=st.sampled_from([
        "blocks-clear", "blocks-on", "blocks", "grid", "grid2", "delivery", "marbles", "hanoi",
    ]),
    params=st.lists(_PARAM, max_size=6),
)
def test_gen_random_argv_keeps_exit_contract(tmp_path, family, params):
    out = tempfile.mkdtemp(dir=tmp_path)
    _run_cli(["gen", "--family", family, "--params", *params, "--out", out])


_SMALL = st.one_of(st.integers(1, 3), st.integers(-2, 4))  # half in range, half anything
_INT = _SMALL.map(str)
_PAIR = st.tuples(_SMALL, _SMALL).map(lambda p: f"{p[0]},{p[1]}")
_BLOCK = st.sampled_from("abcd")
_GEN_PARAMS = {
    "blocks-clear": st.fixed_dictionaries({"l": _INT}, optional={"held": st.sampled_from("hxb")}),
    "blocks-on": st.fixed_dictionaries({"l": _INT, "m": _INT}),
    "blocks": st.fixed_dictionaries(
        {
            "towers": st.lists(
                st.lists(_BLOCK | st.sampled_from(["", "B", "(e"]), min_size=1, max_size=3)
                .map(".".join), min_size=1, max_size=2).map(";".join),
            "goal": st.one_of(
                _BLOCK.map("clear:{}".format),
                st.tuples(_BLOCK, _BLOCK).map(lambda b: f"on:{b[0]}:{b[1]}"),
            ),
        },
        optional={"held": _BLOCK},
    ),
    "grid": st.fixed_dictionaries(
        {"width": _INT, "height": _INT, "start": _INT, "goal": _INT}),
    "grid2": st.fixed_dictionaries(
        {"width": _INT, "height": _INT, "start": _PAIR, "goal": _PAIR}),
    "delivery": st.fixed_dictionaries({
        "width": _INT, "height": _INT, "target": _INT, "start": _INT,
        "packages": st.lists(st.integers(-1, 4), max_size=2).map(
            lambda xs: ",".join(map(str, xs))),
    }),
    "marbles": st.fixed_dictionaries({
        "counts": st.lists(st.integers(-1, 2), max_size=2).map(
            lambda xs: ",".join(map(str, xs))),
    }),
    "hanoi": st.fixed_dictionaries({"n": st.integers(-1, 3).map(str)},
                                   optional={"from": _INT, "to": _INT}),
}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), family=st.sampled_from(sorted(_GEN_PARAMS)))
def test_gen_small_integer_params_write_groundable_bundles(tmp_path, data, family):
    params = data.draw(_GEN_PARAMS[family])
    # sometimes a key the family does not take, which must be rejected
    unknown = data.draw(st.none() | st.sampled_from(["form", "size", "k"]))
    if unknown is not None:
        params[unknown] = "1"
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    argv = ["gen", "--family", family, "--params",
            *(f"{k}={v}" for k, v in params.items()), "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 2), (argv, code)
    assert "Traceback" not in err
    if unknown is not None:
        assert code == 2 and err == f"error: unknown parameter '{unknown}' for family '{family}'\n"
        return
    if code == 2:
        assert err.startswith("error:"), (argv, err)
        return
    assert_same_grounding((out / "domain.pddl").read_text(), (out / "problem.pddl").read_text())


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    family=st.sampled_from(["blocks-clear", "delivery", "hanoi", "grid"]),
    alg=st.sampled_from(["bfs", "iw", "iwk", "iwt", "iwphi", "siwr", "policy"]),
)
def test_solve_random_argv_keeps_exit_contract(gen_dir, data, family, alg):
    d = gen_dir[family]
    files = sorted(p.name for p in d.iterdir()) + ["absent.txt"]
    argv = ["solve", "--alg", alg, "--domain", str(d / "domain.pddl"),
            "--problem", str(d / "problem.pddl")]
    for flag in ("--k", "--max-nodes"):
        if data.draw(st.booleans()):
            argv += [flag, str(data.draw(st.integers(-1, 3) if flag == "--k" else st.integers(-1, 60)))]
    for flag in ("--tuples", "--features", "--sketch"):
        if data.draw(st.booleans()):
            argv += [flag, str(d / data.draw(st.sampled_from(files)))]
    if data.draw(st.booleans()):
        argv.append("--json")
    _run_cli(argv)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    family=st.sampled_from(["blocks-clear", "delivery", "hanoi", "grid"]),
    check=st.sampled_from([
        "admissible", "envelope", "lower-bound", "width", "sketch-width", "feature-acyclic",
    ]),
)
def test_oracle_random_argv_keeps_exit_contract(gen_dir, data, family, check):
    d = gen_dir[family]
    files = sorted(p.name for p in d.iterdir()) + ["absent.txt"]
    argv = ["oracle", check, "--domain", str(d / "domain.pddl"),
            "--problem", str(d / "problem.pddl")]
    for flag in ("--k", "--k-cap"):
        if data.draw(st.booleans()):
            argv += [flag, str(data.draw(st.integers(-1, 3)))]
    for flag in ("--tuples", "--features", "--sketch"):
        if data.draw(st.booleans()):
            argv += [flag, str(d / data.draw(st.sampled_from(files)))]
    _run_cli(argv)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    fault=st.sampled_from(["alg", "no-domain", "k"]),
    alg=st.sampled_from(["bfs", "iw", "iwk", "siwr", "policy"]),
)
def test_solve_rejected_argv_exits_two(gen_dir, data, fault, alg):
    d = gen_dir[data.draw(st.sampled_from(sorted(gen_dir)))]
    if fault == "alg":
        alg = data.draw(st.text(alphabet="abiwxz-", min_size=1, max_size=6).filter(
            lambda a: a not in ("bfs", "iw", "iwk", "iwt", "iwphi", "siwr", "policy")
            and not a.startswith("-")))
    argv = ["solve", "--alg", alg, "--problem", str(d / "problem.pddl")]
    if fault != "no-domain":
        argv += ["--domain", str(d / "domain.pddl")]
    if fault == "k":
        argv += ["--k", data.draw(st.sampled_from(["x", "1.5", "", "two", "0x1"]))]
    elif data.draw(st.booleans()):
        argv += ["--k", str(data.draw(st.integers(0, 2)))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code == 2, (argv, code)
    assert "Traceback" not in err
    assert err.startswith("usage:") and "widthplan solve: error:" in err, (argv, err)


def test_gen_names_a_malformed_integer_parameter(tmp_path, capsys):
    params = ["width=3", "height=3", "start=1", "goal=2,2"]
    assert main(["gen", "--family", "grid2", "--params", *params, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: parameter 'start' needs two comma-separated integers, got '1'\n")


def test_gen_rejects_an_empty_list_item(tmp_path, capsys):
    assert main(["gen", "--family", "marbles", "--params", "counts=2,,1,", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: parameter 'counts' needs comma-separated integers, got '2,,1,'\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("family", ["blocks", "grid2", "delivery", "marbles"])
def test_gen_missing_parameter_exit_two(tmp_path, capsys, family):
    assert main(["gen", "--family", family, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: missing parameter '")
