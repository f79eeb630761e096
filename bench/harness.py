"""Rounds, timing and the traced run behind `run.py`.

A round runs every operation of a workload once.  Each operation gets a
problem set up afresh (generate, parse, ground, parse features) outside its
timer, and `gc.collect()` runs before each timed call, so no repetition
profits from an earlier one.  Timings are medians over a run's rounds.

Before each operation the round also times `reference_loop`, a fixed piece
of pure-Python work that calls nothing of widthplan.  The shared machine runs
the same code at speeds up to 2x apart, for seconds to minutes at a time; each
set-up and solve sample is rescaled by the reference-loop time measured just
before it, and the end-to-end times are medians of the rescaled samples, so
they read as seconds on a machine where the loop takes `REF_LOOP_S`.  A
change to widthplan moves them in proportion to wall time; a change of machine
speed moves the loop as much as the program and cancels.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

from widthplan import cli

import spans
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_PAIRS = 3  # traced/untraced round pairs behind each per-layer median
# After this many seconds a traced run adds no further pair once it has one,
# so that it ends within three minutes even on a machine slower than the
# one it was tuned on (iw-ladder: about 65 s allocation round, 15 s a pair).
TRACE_BUDGET_S = 120.0
# The reference loop's median time on the 2-vCPU machine the README's
# figures come from; it only fixes the scale of the rescaled seconds.
REF_LOOP_S = 0.025

_REF_TEXT = " ".join(f"(at p{i % 7} c{i % 31}) (road c{i % 31} c{i * 7 % 31})" for i in range(200))


def reference_loop() -> int:
    """Fixed pure-Python work of the kind widthplan does (splitting text into
    interned tuples, a breadth-first walk over frozenset states with a table
    of the atom pairs seen), in a few megabytes and about 25 ms."""
    index: dict[tuple, int] = {}
    atoms = [index.setdefault(tuple(chunk.strip("() ").split()), len(index))
             for chunk in _REF_TEXT.split(") (")]
    start = frozenset(atoms[:6])
    frontier, seen, pairs = [start], {start}, set()
    expanded = 0
    while frontier and expanded < 60:
        state = frontier.pop(0)
        expanded += 1
        for atom in range(0, len(index), 3):
            succ = state - {atom} if atom in state else state | {atom}
            if succ in seen:
                continue
            seen.add(succ)
            ordered = sorted(succ)
            novel = False
            for i, x in enumerate(ordered):
                for y in ordered[i + 1:]:
                    if (x, y) not in pairs:
                        pairs.add((x, y))
                        novel = True
            if novel or len(seen) % 5 == 0:
                frontier.append(succ)
    return expanded + len(pairs)


class Samples:
    """Per-instance set-up times and per-operation solve times of one run,
    each with the reference-loop time measured just before it."""

    def __init__(self):
        self.setup: dict[str, list[tuple[float, float]]] = {}  # instance -> [(wall, ref)]
        self.solve: dict[str, list[tuple[float, float]]] = {}  # operation -> [(wall, ref)]
        self.ref: list[float] = []

    def add(self, instance: str, op: str, ref_s: float, setup_s: float, solve_s: float):
        self.ref.append(ref_s)
        self.setup.setdefault(instance, []).append((setup_s, ref_s))
        self.solve.setdefault(op, []).append((solve_s, ref_s))

    @staticmethod
    def _medians(table, rescale: bool) -> dict[str, float]:
        """Per key, the median sample: wall seconds, or each sample rescaled
        by its own reference-loop time to seconds at the reference speed."""
        return {k: statistics.median(w * REF_LOOP_S / r if rescale else w for w, r in v)
                for k, v in table.items()}

    def ref_median_s(self) -> float:
        return statistics.median(self.ref) if self.ref else 0.0  # 0: every operation failed

    def setup_wall_s(self) -> float:
        return sum(self._medians(self.setup, False).values())

    def solve_wall_s(self) -> float:
        return sum(self._medians(self.solve, False).values())

    def setup_s(self) -> float:
        return sum(self._medians(self.setup, True).values())

    def solve_s(self) -> float:
        return sum(self._medians(self.solve, True).values())

    def record(self) -> dict:
        return {
            "ref_loop_median_s": self.ref_median_s(),
            "setup_wall_s": self.setup_wall_s(),
            "solve_wall_s": self.solve_wall_s(),
            "setup_median_s": self._medians(self.setup, False),
            "solve_median_s": self._medians(self.solve, False),
            "solve_rescaled_median_s": self._medians(self.solve, True),
            "ref_loop_samples_s": self.ref,
            "setup_samples_s": self.setup,  # [wall, ref] pairs
            "solve_samples_s": self.solve,
        }


class Runner:
    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.summaries: dict[str, tuple] = {}  # op -> (expanded, generated, plan_length)

    def fail(self, op_name: str, problems: list[str]):
        self.failed += 1
        print(f"FAILED {op_name}: {'; '.join(problems)}", file=sys.stderr)

    def round(self, samples: Samples, tracer=None):
        """Every operation once, each on a problem set up afresh outside its timer."""
        for op in self.ops:
            self.attempted += 1
            violations = len(tracer.bound_violations) if tracer is not None else 0
            try:
                gc.collect()
                r0 = time.perf_counter()
                reference_loop()
                t0 = time.perf_counter()
                prepared = workloads.prepare(op.instance)
                t1 = time.perf_counter()
                gc.collect()
                t2 = time.perf_counter()
                result = op.run(prepared)
                t3 = time.perf_counter()
                problems = op.check(prepared, result)
            except Exception:  # one broken operation must not stop the run
                problems = [traceback.format_exc()]
            else:
                samples.add(op.instance.name, op.name, t0 - r0, t1 - t0, t3 - t2)
                if op.cli is not None:
                    self.summaries[op.name] = (
                        result.stats.expanded, result.stats.generated, len(result.plan)
                    )
            if tracer is not None:
                problems += tracer.bound_violations[violations:]
            if problems:
                self.fail(op.name, problems)
            prepared = result = None

    def cli_pass(self, tracer, workdir: Path):
        """`widthplan solve --json` on each operation that has a CLI form; its
        counts must equal the library call's."""
        for op in self.ops:
            if op.cli is None or op.name not in self.summaries:
                continue
            self.attempted += 1
            files = workdir / op.instance.name
            if not files.exists():
                bundle = op.instance.make()
                files.mkdir()
                (files / "domain.pddl").write_text(bundle.domain_text)
                (files / "problem.pddl").write_text(bundle.problem_text)
                if op.instance.tuples is not None:
                    (files / "set.tuples").write_text(bundle.tuple_sets[op.instance.tuples])
            argv = ["solve", *op.cli, "--domain", str(files / "domain.pddl"),
                    "--problem", str(files / "problem.pddl"), "--json"]
            if op.instance.tuples is not None:
                argv += ["--tuples", str(files / "set.tuples")]
            out = io.StringIO()
            gc.collect()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            tracer.record("cli.main", "cli", t0, time.perf_counter())
            try:
                stats = json.loads(out.getvalue().splitlines()[-1])
                got = (stats["expanded"], stats["generated"], stats["plan_length"])
            except (IndexError, KeyError, ValueError):
                got = None
            if code != 0 or got != self.summaries[op.name]:
                self.fail(f"cli {op.name}", [
                    f"exit {code}, (expanded, generated, plan_length) {got} "
                    f"vs library {self.summaries[op.name]}"
                ])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, runner):
    samples = Samples()
    start = time.perf_counter()
    while True:
        runner.round(samples)
        if time.perf_counter() - start >= args.seconds:
            break
    metrics = {
        "setup_s": metric(samples.setup_s(), "s"),
        "solve_s": metric(samples.solve_s(), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    record = {"rounds": runner.attempted // len(runner.ops), **samples.record()}
    return runner.failed == 0, metrics, record


# Per-layer metrics of the untraced rounds of a traced run: the wall times
# behind the rescaled end-to-end ones, and the machine speed between them.
WALL = {
    "wall.setup_s": Samples.setup_wall_s,
    "wall.solve_s": Samples.solve_wall_s,
    "wall.ref_loop_s": Samples.ref_median_s,
}


def run_traced(args, runner):
    """Per-layer metrics: one first round traces the allocations of every
    search (tracemalloc slows each allocation, so that round gives allocation
    peaks and counts, never times); then traced rounds alternate with
    untraced ones until `args.seconds` have passed and at least `MIN_PAIRS`
    pairs are done, so every per-layer time is a median, or until
    `TRACE_BUDGET_S` have passed since the run began and one pair is done."""
    begun = time.perf_counter()
    tracer = spans.Tracer()
    plain, traced = Samples(), Samples()

    def traced_round(samples):
        tracer.reset()
        tracer.install()
        try:
            runner.round(samples, tracer)
        finally:
            tracer.uninstall()
        return tracer.round_metrics()

    tracer.alloc = True
    alloc_round = traced_round(Samples())
    tracer.alloc = False
    rounds: list[dict[str, float]] = []
    start = time.perf_counter()
    while (len(rounds) < MIN_PAIRS or time.perf_counter() - start < args.seconds) and not (
        rounds and time.perf_counter() - begun > TRACE_BUDGET_S
    ):
        # alternate which side of each pair runs first
        if len(rounds) % 2 == 0:
            runner.round(plain)
            rounds.append(traced_round(traced))
        else:
            rounds.append(traced_round(traced))
            runner.round(plain)
    tracer.reset()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        runner.cli_pass(tracer, Path(tmp))
    cli_s = tracer.incl_s.get("cli.main", 0.0)

    correct = runner.failed == 0
    values, status = {}, {}
    for name, (unit, _) in spans.PER_LAYER.items():
        if name == "trace.overhead":
            values[name] = traced.solve_wall_s() / plain.solve_wall_s() - 1.0
        elif name in WALL:
            values[name] = WALL[name](plain)
        elif name == "cli.solve_s":
            values[name] = cli_s
        elif name == "search.alloc_peak_mb":
            values[name] = alloc_round[name]
        elif unit in ("count", "ratio"):
            # Counts are the behaviour contract: every traced round repeats them.
            seen = {r[name] for r in rounds + [alloc_round]}
            if len(seen) > 1:
                correct = False
                print(f"{name} differs between rounds: {sorted(seen)}", file=sys.stderr)
            values[name] = alloc_round[name]
        else:
            values[name] = statistics.median(r[name] for r in rounds)
        layer = name.split(".", 1)[0]
        if layer in tracer.missing:
            status[name] = f"not measured: {', '.join(sorted(tracer.missing[layer]))} not found"
        elif layer not in ("trace", "wall") and layer not in tracer.layers_used:
            status[name] = "not applicable"
        else:
            status[name] = "measured"
        if status[name] != "measured":
            print(f"{name}: {status[name]}")

    metrics = {name: metric(values[name], unit) for name, (unit, _) in spans.PER_LAYER.items()}
    record = {
        "traced_rounds": len(rounds),
        "metrics": {name: {**metrics[name], "status": status[name]} for name in metrics},
        "untraced": plain.record(),
        "traced": traced.record(),
        "spans": [asdict(s) for s in tracer.spans],
    }
    return correct, metrics, record


def run(args) -> tuple[dict, dict]:
    """The result line and the run record of one workload run."""
    runner = Runner(workloads.WORKLOADS[args.workload](args.seed))
    if args.trace:
        correct, metrics, record = run_traced(args, runner)
    else:
        correct, metrics, record = run_untraced(args, runner)
        for op, value in record["solve_median_s"].items():
            print(f"{op:40s} solve median {value:9.4f} s")
        print(f"wall setup_s {record['setup_wall_s']:.4f}  wall solve_s {record['solve_wall_s']:.4f}"
              f"  reference loop {record['ref_loop_median_s']:.4f} s (reference {REF_LOOP_S} s)")
    record = {"workload": args.workload, "seed": args.seed, **record}
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    return result, record
