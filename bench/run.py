"""Run one lamc workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Each workload runs in child processes, one at a time, single-threaded and
closed-loop (one caller, the next operation starts when the last one ended).
With ``--trace 0``, a warm-up child only imports lamc and the measuring
child then runs whole rounds for S seconds; the end-to-end metrics of
BENCHMARK.json are printed. With ``--trace 1`` one child measures
untraced and then traced rounds, and the per-layer metrics are printed. The
last line of standard output is the result as one JSON object; ``--out``
also writes it to FILE with the arguments it came from.

lamc is imported from ``src`` next to this directory and nowhere else; the
run exits with code 2 and no result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TIME_LIMIT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child(args: list[str], deadline: float) -> dict:
    """Run the worker to its end and return its report."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker {' '.join(args)} ran past the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the result here, as JSON")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "lamc", "__init__.py")):
        print(f"no lamc sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    base = [args.workload, str(args.seed), repr(args.seconds)]

    if args.trace:
        report = child(base + ["trace"], deadline)
        wanted = spec["per_layer"]
    else:
        child(base + ["import"], deadline)      # warm-up: byte-code caches
        report = child(base + ["measure"], deadline)
        wanted = spec["end_to_end"]

    for name, error in report["errors"].items():
        print(f"failed: {name}: {error}", file=sys.stderr)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": report["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "rounds": report["rounds"], "ops": report["ops"],
                       "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
