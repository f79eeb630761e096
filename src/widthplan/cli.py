"""Command-line surface for batch use.

Exit status: 0 solved / accepted / verdict true, 1 failure / rejected /
verdict false, 2 usage or input error.  Diagnostics go to stderr; plans and
stats go to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import domains, oracle
from .features import FeatureSet, parse_features
from .grounding import ground
from .novelty import parse_tuple_set
from .pddl import parse_domain, parse_problem
from .search import SearchResult, bfs_optimal, iw, iw_k, iw_phi, iw_t
from .siw import SerializedResult, run_policy, siw_r
from .sketches import build_policy_graph, parse_sketch, sieve


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (2, usage text on stderr) or --help (0)
        return exc.code
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:  # every module's input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widthplan",
        description="Width-based planning, sketches, and verification oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a search algorithm on an instance")
    solve.add_argument("--alg", required=True,
                       choices=["bfs", "iw", "iwk", "iwt", "iwphi", "siwr", "policy"])
    solve.add_argument("--domain", required=True)
    solve.add_argument("--problem", required=True)
    solve.add_argument("--k", type=int, default=None)
    solve.add_argument("--tuples", default=None)
    solve.add_argument("--features", default=None)
    solve.add_argument("--sketch", default=None)
    solve.add_argument("--max-nodes", type=int, default=None)
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(handler=_cmd_solve)

    sv = sub.add_parser("sieve", help="termination check for a sketch")
    sv.add_argument("--sketch", required=True)
    sv.add_argument("--features", default=None)
    sv.add_argument("--trace", action="store_true")
    sv.set_defaults(handler=_cmd_sieve)

    orc = sub.add_parser("oracle", help="brute-force verification on small instances")
    orc.add_argument("check", choices=[
        "admissible", "envelope", "lower-bound", "width", "sketch-width", "feature-acyclic",
    ])
    orc.add_argument("--domain", required=True)
    orc.add_argument("--problem", required=True)
    orc.add_argument("--tuples", default=None)
    orc.add_argument("--k", type=int, default=None)
    orc.add_argument("--k-cap", type=int, default=2)
    orc.add_argument("--features", default=None)
    orc.add_argument("--sketch", default=None)
    orc.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP)
    orc.set_defaults(handler=_cmd_oracle)

    gen = sub.add_parser("gen", help="emit a built-in instance bundle")
    gen.add_argument("--family", required=True, choices=list(domains.FAMILY_PARAMS))
    gen.add_argument("--params", nargs="*", default=[], metavar="KEY=VALUE")
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_gen)

    return parser


def _load_problem(args):
    domain = parse_domain(Path(args.domain).read_text())
    problem_ast = parse_problem(Path(args.problem).read_text())
    return ground(domain, problem_ast)


def _load_features(args) -> FeatureSet:
    if args.features is None:
        raise ValueError("--features is required for this invocation")
    return parse_features(Path(args.features).read_text())


def _load_sketch(args):
    if args.sketch is None:
        raise ValueError("--sketch is required for this invocation")
    return parse_sketch(Path(args.sketch).read_text())


def _cmd_solve(args) -> int:
    problem = _load_problem(args)
    alg = args.alg
    segments = None
    if alg == "bfs":
        result = bfs_optimal(problem, max_nodes=args.max_nodes)
    elif alg == "iw":
        result = iw(problem, max_k=args.k, max_nodes=args.max_nodes)
    elif alg == "iwk":
        if args.k is None:
            raise ValueError("--k is required for --alg iwk")
        result = iw_k(problem, args.k, max_nodes=args.max_nodes)
    elif alg == "iwt":
        if args.tuples is None:
            raise ValueError("--tuples is required for --alg iwt")
        tuples = parse_tuple_set(Path(args.tuples).read_text(), problem)
        result = iw_t(problem, tuples, max_nodes=args.max_nodes)
    elif alg == "iwphi":
        phi = _load_features(args)
        result = iw_phi(problem, phi, max_nodes=args.max_nodes)
    elif alg == "siwr":
        sketch = _load_sketch(args)
        phi = _load_features(args)
        k_max = args.k if args.k is not None else 2
        result = siw_r(problem, sketch, phi, k_max=k_max, max_nodes=args.max_nodes)
        segments = result.segments
    else:  # policy
        sketch = _load_sketch(args)
        phi = _load_features(args)
        t0 = time.perf_counter()
        run = run_policy(problem, sketch, phi)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        for aid in run.actions:
            print(problem.actions[aid])
        verdict = "goal" if run.reached_goal else run.status
        stats = {
            "algorithm": "policy", "k": None, "expanded": run.expanded,
            "generated": run.generated, "plan_length": len(run.actions),
            "segments": None, "wall_ms": round(wall_ms, 3), "verdict": verdict,
        }
        _emit_stats(stats, args.json, problem)
        return 0 if run.reached_goal else 1

    if result.plan is not None:
        for aid in result.plan:
            print(problem.actions[aid])
    if segments is not None:
        for i, seg in enumerate(segments):
            print(
                f"segment {i}: k={seg.k} len={len(seg.plan)} "
                f"f(start)={seg.start_values} f(end)={seg.end_values}"
            )
    stats = _result_stats(alg, args, result, segments)
    _emit_stats(stats, args.json, problem)
    return 0 if result.solved else 1


def _result_stats(alg, args, result: SearchResult | SerializedResult, segments):
    if isinstance(result, SerializedResult):
        k = max((seg.k for seg in segments), default=0) if result.solved else None
    else:
        k = result.k if result.k is not None else args.k
    return {
        "algorithm": alg,
        "k": k,
        "expanded": result.stats.expanded,
        "generated": result.stats.generated,
        "plan_length": len(result.plan) if result.plan is not None else None,
        "segments": len(segments) if segments is not None else None,
        "wall_ms": round(result.stats.wall_ms, 3),
        "verdict": "solved" if result.solved else (result.reason or "failure"),
    }


def _emit_stats(stats: dict, as_json: bool, problem):
    if as_json:
        # the size of the ground model searched: numbered atoms, kept actions,
        # and the bindings the grounding join yielded
        stats = dict(stats, atoms=problem.n_atoms, actions=len(problem.actions),
                     bindings=problem.bindings)
        print(json.dumps(stats, sort_keys=True))
    else:
        for key in ("algorithm", "k", "expanded", "generated",
                    "plan_length", "segments", "wall_ms", "verdict"):
            print(f"{key}={stats[key]}")


def _cmd_sieve(args) -> int:
    sketch = _load_sketch(args)
    if args.features is not None:
        phi = parse_features(Path(args.features).read_text())
        phi.select(sketch.names_kinds)  # validates names and kinds
    graph = build_policy_graph(sketch)
    result = sieve(graph)
    if args.trace:
        for step in result.steps:
            feat = sketch.features[step.feature].name
            print(
                f"scc={list(step.component)} feature={feat} "
                f"removed={len(step.removed_edges)} edges",
                file=sys.stderr,
            )
    print("ACCEPT" if result.accepted else "REJECT")
    return 0 if result.accepted else 1


def _cmd_oracle(args) -> int:
    problem = _load_problem(args)
    check = args.check

    if check == "width":
        space = oracle.enumerate_space(problem, args.cap)  # the cap refuses before any search
        width = oracle.effective_width(problem, args.k_cap)
        if width is None:
            print(f"verdict=unbounded k_cap={args.k_cap}")
            return 1
        exceeds = width == 0 or oracle.lower_bound_witness(space, width - 1)
        print(f"width={width} certified={'yes' if exceeds else 'no'}")
        return 0

    if check == "lower-bound":
        if args.k is None:
            raise ValueError("--k is required for lower-bound")
        space = oracle.enumerate_space(problem, args.cap)
        verdict = oracle.lower_bound_witness(space, args.k)
        print(f"width_exceeds_{args.k}={'yes' if verdict else 'no'}")
        return 0 if verdict else 1

    if check in ("admissible", "envelope"):
        if args.tuples is None:
            raise ValueError("--tuples is required for this check")
        tuples = parse_tuple_set(Path(args.tuples).read_text(), problem)
        space = oracle.enumerate_space(problem, args.cap)
        if check == "admissible":
            report = oracle.is_admissible(space, tuples)
        else:
            report = oracle.is_cost_envelope(space, oracle.opt_states(space, tuples))
        if report.ok:
            print("verdict=true")
            return 0
        witness = tuples.state_str(problem, report.witness) if report.witness is not None else ""
        print(f"verdict=false reason={report.reason!r} witness={witness}")
        return 1

    sketch = _load_sketch(args)
    phi = _load_features(args)
    space = oracle.enumerate_space(problem, args.cap)
    if check == "feature-acyclic":
        verdict = oracle.is_feature_acyclic_on(space, sketch, phi)
        print(f"verdict={'true' if verdict else 'false'}")
        return 0 if verdict else 1

    report = oracle.sketch_width_on(space, sketch, phi, args.k_cap)
    if report.value is not None:
        print(f"sketch_width={report.value} subproblems={report.family_size}")
        return 0
    print(f"sketch_width=unbounded k_cap={args.k_cap} reason={report.reason!r}")
    return 1


def _cmd_gen(args) -> int:
    params = {}
    for item in args.params:
        if "=" not in item:
            raise ValueError(f"bad parameter '{item}', expected KEY=VALUE")
        key, value = item.split("=", 1)
        params[key] = value
    bundle = domains.generate(args.family, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "domain.pddl").write_text(bundle.domain_text)
    (out / "problem.pddl").write_text(bundle.problem_text)
    written = ["domain.pddl", "problem.pddl"]
    if bundle.features_text is not None:
        (out / "features.feat").write_text(bundle.features_text)
        written.append("features.feat")
    for name, text in bundle.sketches.items():
        (out / f"{name}.sketch").write_text(text)
        written.append(f"{name}.sketch")
    for name, text in bundle.tuple_sets.items():
        (out / f"{name}.tuples").write_text(text)
        written.append(f"{name}.tuples")
    print(" ".join(written))
    return 0


if __name__ == "__main__":
    sys.exit(main())
