"""Command-line surface: exit codes, stats schema, determinism."""

import contextlib
import io
import json
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from widthplan.cli import main


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
        "segments", "wall_ms", "verdict",
    }


def test_solve_iwt_with_tuples(gen_dir, capsys):
    d = gen_dir["blocks-clear"]
    code = _solve(gen_dir, "blocks-clear", "--alg", "iwt", "--tuples", str(d / "walk.tuples"), "--json")
    assert code == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["plan_length"] == 5


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
    from widthplan import ground, parse_domain, parse_problem, replay
    from widthplan.strips import successors

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
    assert stats["generated"] == sum(len(successors(g, s)) for s in states[:-1])


def test_solve_failure_exit_one(gen_dir, capsys):
    assert _solve(gen_dir, "delivery", "--alg", "iwk", "--k", "1") == 1


def test_solve_iw_k_bounds_the_iterations(gen_dir, capsys):
    # the delivery instance needs k = 3: a lower --k fails, one above the
    # atom count is an input error
    assert _solve(gen_dir, "delivery", "--alg", "iw", "--k", "2", "--json") == 1
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["k"] == 2 and stats["verdict"] == "no plan up to k=2"
    assert _solve(gen_dir, "delivery", "--alg", "iw", "--k", "3", "--json") == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["k"] == 3
    for k in ("-1", "100000"):
        assert _solve(gen_dir, "delivery", "--alg", "iw", "--k", k) == 2
        assert "max_k" in capsys.readouterr().err


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


def test_oracle_width_above_lower_bound_range_is_unchecked(tmp_path, capsys):
    # width 4 needs the lower bound at k = 3, beyond what it supports
    params = ["width=2", "height=2", "packages=2,3,4", "target=1", "start=1"]
    assert main(["gen", "--family", "delivery", "--params", *params, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    base = ["--domain", str(tmp_path / "domain.pddl"), "--problem", str(tmp_path / "problem.pddl")]
    assert main(["oracle", "width", *base, "--k-cap", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "width=4 certified=unchecked\n" and captured.err == ""


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
            argv += [flag, str(data.draw(st.integers(-1, 3) if flag == "--k" else st.integers(0, 60)))]
    for flag in ("--tuples", "--features", "--sketch"):
        if data.draw(st.booleans()):
            argv += [flag, str(d / data.draw(st.sampled_from(files)))]
    if data.draw(st.booleans()):
        argv.append("--json")
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


@pytest.mark.parametrize("family", ["blocks", "grid2", "delivery", "marbles"])
def test_gen_missing_parameter_exit_two(tmp_path, capsys, family):
    assert main(["gen", "--family", family, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: missing parameter '")
