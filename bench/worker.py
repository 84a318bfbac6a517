"""One workload in one process: set up, run whole rounds, report.

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE

MODE is ``import`` (import lamc and the benchmark, nothing more), ``setup``
(set up once and report the set-up time), ``measure`` (untraced rounds for
SECONDS, with a ``setup`` worker timed after each of the first rounds),
``trace`` (untraced rounds, then the wrappers go in, set-up runs again and
traced rounds follow) or ``fingerprints`` (the fingerprint of every
operation's output). The report is one JSON line on standard output.
run.py starts this with ``src`` and ``bench`` on the path and the checkout
root as working directory.
"""

from time import perf_counter

STARTED = perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

MIN_OPS = 100        # so the 90th percentile has ten samples beyond it
WARMUP_ROUNDS = 1    # untimed: the first round fills lamc's caches
TIMED_ROUNDS = 5     # at least this many follow, whatever the run length
# Set-ups timed in one measuring run: its own and one fresh worker's after
# each of the first rounds. The host's speed changes for seconds at a time,
# so samples spread over the run vary less than samples taken back to back.
SETUP_SAMPLES = WARMUP_ROUNDS + TIMED_ROUNDS


def run_rounds(ops, seconds: float, fingerprints: dict, tally: dict,
               latencies=None, on_result=None, min_rounds: int = 1,
               between_rounds=None) -> tuple[int, float]:
    """Whole rounds until `seconds` of wall time, MIN_OPS operations and
    `min_rounds` rounds have passed, calling `between_rounds` after each.
    Appends each successful operation's time to latencies[i] and its steps
    to tally["op_steps"][i]. Returns (rounds, summed operation time)."""
    rounds, op_time = 0, 0.0
    start = perf_counter()
    while True:
        gc.collect()
        for i, op in enumerate(ops):
            tally["attempted"] += 1
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising operation is a failed one
                tally["failed"] += 1
                tally["errors"].setdefault(op.name, repr(exc))
                continue
            elapsed = perf_counter() - t0
            if on_result is not None:
                on_result(out)
            try:
                steps, fp = op.check(out)
                if fingerprints.setdefault(i, fp) != fp:
                    raise workloads.CheckFailed("output changed between rounds")
            except Exception as exc:  # a check that fails or breaks
                tally["failed"] += 1
                tally["errors"].setdefault(op.name, repr(exc))
                continue
            op_time += elapsed
            tally["op_steps"][i] = steps
            if latencies is not None:
                latencies.setdefault(i, []).append(elapsed)
        rounds += 1
        if between_rounds is not None:
            between_rounds()
        if (perf_counter() - start >= seconds and rounds >= min_rounds
                and rounds * len(ops) >= MIN_OPS):
            return rounds, op_time


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def timed_setup(workload: str, seed: int) -> float:
    """The set-up time of a fresh worker process."""
    out = subprocess.run(
        [sys.executable, __file__, workload, str(seed), "0", "setup"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv) -> dict:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    setup = workloads.WORKLOADS[workload]
    if mode == "import":
        return {}
    ops = setup(seed)
    setup_s = perf_counter() - STARTED
    if mode == "setup":
        return {"setup_s": setup_s}
    tally = {"attempted": 0, "failed": 0, "op_steps": {}, "errors": {}}
    fingerprints: dict = {}
    if mode == "fingerprints":
        run_rounds(ops, seconds, fingerprints, tally)
        del tally["op_steps"]
        return {**tally, "fingerprints": [fingerprints[i]
                                          for i in sorted(fingerprints)]}
    if mode == "measure":
        per_op: dict[int, list[float]] = {}
        setups = [setup_s]

        def sample_setup():
            if len(setups) < SETUP_SAMPLES:
                setups.append(timed_setup(workload, seed))

        rounds, _ = run_rounds(ops, seconds, fingerprints, tally, per_op,
                               min_rounds=WARMUP_ROUNDS + TIMED_ROUNDS,
                               between_rounds=sample_setup)
        # Each operation's latency is the slowest of the TIMED_ROUNDS rounds
        # after the warm-up. The host changes speed by up to a factor of two
        # for seconds at a time; the slowest round varies less from run to
        # run than medians or means, which track the mix of speeds a run
        # happened to get. A fixed number of rounds keeps the number of
        # samples in each maximum the same however fast lamc runs; rounds
        # after them are run and checked but not timed.
        timed = slice(WARMUP_ROUNDS, WARMUP_ROUNDS + TIMED_ROUNDS)
        typical = sorted(max(v[timed]) for v in per_op.values() if v[timed])
        round_time = sum(typical)
        steps = sum(tally["op_steps"][i] for i in per_op)
        del tally["op_steps"]
        return {
            **tally, "rounds": rounds, "ops": len(ops),
            "metrics": {
                "setup_s": statistics.median(setups),
                "ops_per_s": len(typical) / round_time if typical else 0.0,
                "latency_p50_ms": 1e3 * percentile(typical, 0.5) if typical else 0.0,
                "latency_p90_ms": 1e3 * percentile(typical, 0.9) if typical else 0.0,
                "steps_per_s": steps / round_time if typical else 0.0,
                "peak_rss_mb": peak_rss_mb(),
            },
        }

    import tracing

    plain_rounds, plain_time = run_rounds(ops, seconds / 3, fingerprints, tally)
    tracer = tracing.Tracer()
    tracer.install(caller_modules=(workloads,))

    def count_output(out):
        if isinstance(out, workloads.CliRun):
            tracer.counts["cli.output_bytes"] += len(out.out.encode("utf-8"))

    try:
        ops = setup(seed)
        after_setup = tracer.snapshot()
        traced_rounds, traced_time = run_rounds(
            ops, 2 * seconds / 3, fingerprints, tally, on_result=count_output)
        after_rounds = tracer.snapshot()
    finally:
        tracer.uninstall()
    layers = tracing.combine(after_setup, after_rounds, traced_rounds)
    layers["trace.overhead_ratio"] = ((traced_time / traced_rounds)
                                      / (plain_time / plain_rounds))
    del tally["op_steps"]
    return {**tally, "rounds": traced_rounds, "ops": len(ops),
            "metrics": layers}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
