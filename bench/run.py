"""Run one benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload iw-ladder --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones (`setup_s`, `solve_s`, `peak_rss_mb`; the two
times rescaled to a reference machine speed, see `harness.py`); with
`--trace 1` they are the per-layer ones, from rounds run with the layer
wrappers of `spans.py` installed, alternating with untraced rounds that give
the tracing overhead.  `--seconds` defaults to `run_seconds` of
BENCHMARK.json.  The exit code is 1 when a check failed (`correct` is
false).  Run records and traces go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HASH_SEED = "0"
DEFAULT_SEED = 1
ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import widthplan from this checkout's `src/`, and nowhere else."""
    sys.path.insert(0, str(SRC_DIR))
    try:
        import widthplan
    except ImportError as exc:
        sys.exit(f"error: cannot import widthplan from {SRC_DIR}: {exc}")
    if Path(widthplan.__file__).resolve().parent.parent != SRC_DIR:
        sys.exit(f"error: widthplan was imported from {widthplan.__file__}, not {SRC_DIR}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Re-enter as a fresh interpreter with a fixed hash seed, so that
        # string-keyed set and dict order, and with it every count, repeats.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], env)
    import_program()
    import harness

    result, record = harness.run(args)
    harness.OUT_DIR.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    out_file = harness.OUT_DIR / f"{args.workload}-seed{args.seed}-{kind}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
