"""Sweep seeds into a results directory, and compare two sets of runs.

    python3 bench/compare.py sweep OUT_DIR [--seeds 1-10] [--trace 0|1]
    python3 bench/compare.py report BASE_DIR [NEW_DIR]

``sweep`` runs bench/run.py once per workload and seed, one run at a time,
for the ``run_seconds`` of BENCHMARK.json, and writes each result to
OUT_DIR/<workload>-<seed>-t<trace>.json.
``report`` prints, per workload and metric, the median, the quartiles and
the spread (quartile distance over median) of each set, every run's
operations attempted and failed, and, given NEW_DIR, a verdict on the
change from BASE_DIR to NEW_DIR:

- ``better``: the new set wins at least nine tenths of the runs paired by
  seed and its median gains more than the base set's spread;
- ``no worse``: the median moved the wrong way by at most the metric's
  bound from BENCHMARK.json;
- ``worse``: it moved further;
- ``unresolved``: the base set's spread is wider than the bound and not
  every new run beats every base run.

Per-layer metrics have no bound; they get medians and spreads only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def sweep(args, spec) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    for name in (w["name"] for w in spec["workloads"]):
        for seed in parse_seeds(args.seeds):
            path = os.path.join(args.out_dir, f"{name}-{seed}-t{args.trace}.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace), "--out", path]
            code = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).returncode
            print(f"{name} seed {seed}: exit {code}", flush=True)
            if code != 0:
                return code
    return 0


def load_runs(directory: str) -> dict:
    """{(workload, trace): [run, ...]} sorted by seed."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
        runs.setdefault((run["workload"], run["trace"]), []).append(run)
    for group in runs.values():
        group.sort(key=lambda r: r["seed"])
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """median, first quartile, third quartile, spread."""
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    sign = 1 if better == "higher" else -1
    bmed, _, _, bspread = summary(base)
    nmed = statistics.median(new)
    gain = sign * (nmed - bmed) / bmed if bmed else 0.0
    wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    pairs = min(len(base), len(new))
    all_beat = all(sign * (n - b) > 0 for b in base for n in new)
    if all_beat or (bspread <= bound and gain > bspread
                    and wins >= 0.9 * pairs):
        return "better"
    if bspread > bound:
        return "unresolved"
    return "no worse" if -gain <= bound else "worse"


def report(args, spec) -> int:
    base = load_runs(args.base_dir)
    new = load_runs(args.new_dir) if args.new_dir else {}
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for (workload, trace), runs in sorted(base.items()):
        print(f"== {workload} ({'traced' if trace else 'untraced'}, "
              f"{len(runs)} runs)")
        for label, group in (("base", runs), ("new", new.get((workload, trace)))):
            if group:
                counts = " ".join(f"{r['seed']}:{r['result']['failed']}/"
                                  f"{r['result']['attempted']}" for r in group)
                print(f"  {label} failed/attempted by seed: {counts}")
        for m in metrics[trace]:
            name = m["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summary(values)
            line = (f"  {name:<32} {med:>12.5g} [{q1:.5g}, {q3:.5g}] "
                    f"spread {spread:6.3f}")
            other = new.get((workload, trace))
            if other:
                nvalues = [r["result"]["metrics"][name]["value"] for r in other]
                nmed, nq1, nq3, nspread = summary(nvalues)
                line += (f" | new {nmed:.5g} [{nq1:.5g}, {nq3:.5g}] "
                         f"spread {nspread:6.3f}")
                if "bound" in m:
                    line += f" -> {verdict(values, nvalues, m['better'], m['bound'])}"
            elif "bound" in m:
                flag = "ok" if spread < m["bound"] / 3 else "WIDE"
                line += f" (bound {m['bound']}, {flag})"
            print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("out_dir")
    p_sweep.add_argument("--seeds", default="1-10")
    p_sweep.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_report = sub.add_parser("report")
    p_report.add_argument("base_dir")
    p_report.add_argument("new_dir", nargs="?", default=None)
    args = parser.parse_args(argv)
    spec = load_spec()
    return sweep(args, spec) if args.cmd == "sweep" else report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
