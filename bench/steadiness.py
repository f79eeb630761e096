"""Run every workload several times with different seeds and report how far
each end-to-end metric spreads.

    python3 bench/steadiness.py --runs 10

Run i uses seed i (1 to `--runs`), for `run_seconds` of BENCHMARK.json
unless `--seconds` is given; the workloads of BENCHMARK.json take turns, in
an order rotated by one each time, so slow drift of the machine touches them
alike.
For each metric it prints the quartiles of the runs and the spread
(Q3 - Q1) / median, the figure each bound in BENCHMARK.json is set against,
and the share of failed operations.  Records go to
`bench/out/steadiness-<runs>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        order = names[i % len(names):] + names[:i % len(names)]
        for workload in order:
            seed = i + 1
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            result.update(seed=seed, wall_s=wall)
            results[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{workload:14s} seed {seed:3d} wall {wall:5.1f} s  {values}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    print(f"\n{'workload':14s} {'metric':12s} {'Q1':>9s} {'median':>9s} {'Q3':>9s} "
          f"{'spread':>7s} {'bound':>6s}")
    for workload, runs in results.items():
        fails = {(r["failed"], r["attempted"]) for r in runs}
        summary[workload] = {"failed/attempted": sorted(fails)}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"values": values, "q1": q1, "median": med, "q3": q3,
                                       "spread": spread}
            print(f"{workload:14s} {name:12s} {q1:9.4f} {med:9.4f} {q3:9.4f} "
                  f"{spread:7.3f} {bounds[name]:6.2f}")
        correct = all(r["correct"] for r in runs)
        print(f"{workload:14s} correct={correct} failed/attempted={sorted(fails)}")
    out = BENCH_DIR / "out" / f"steadiness-{args.runs}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": results, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
