"""The benchmark's own tests: every check rejects a corrupted output, the
outputs do not depend on the hash seed, and the files agree with each other.

    PYTHONPATH=src python3 -m unittest discover -s bench
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

import reference as ref
import tracing
import worker
import workloads as wl
from lamc.formula import eval_fn, load_formula_registry
from lamc.game import HistoryEntry, fresh_handle
from lamc.syntax import Const, Process

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TABLE = load_formula_registry(wl.FORMULA_FILE)


def first_ok(ops, **filters):
    """Run the first operation whose name contains every filter value and
    return it with its output, after checking that the output passes."""
    op = next(o for o in ops if all(v in o.name for v in filters.values()))
    out = op.run()
    op.check(out)
    return op, out


def with_entry(out, index, entry):
    """A copy of a match outcome with one history entry replaced."""
    history = copy.copy(out.history)
    history.entries = list(history.entries)
    history.entries[index] = entry
    return dataclasses.replace(out, history=history)


class CheckTestCase(unittest.TestCase):
    def assertRejects(self, op, out):
        with self.assertRaises(wl.CheckFailed):
            op.check(out)


class MatchChecks(CheckTestCase):
    @classmethod
    def setUpClass(cls):
        cls.g1 = wl.universal_matches(random.Random(1), "g1",
                                      [(("phi4", "phi4_dsl"), 2)])
        cls.g2 = wl.universal_matches(random.Random(1), "g2", [(("phi4",), 2)])

    def test_new_entry_must_extend_its_parent(self):
        op, (out, replies) = first_ok(self.g1, name="g1/phi4/")
        e = out.history.entries[1]
        bad = with_entry(out, 1, HistoryEntry(e.ms, (e.ns[0] + 1,), e.u, e.pi))
        self.assertRejects(op, (bad, replies))

    def test_reply_must_be_the_logged_one(self):
        op, (out, replies) = first_ok(self.g1, name="g1/phi4/")
        n, u, pi = replies[0]
        self.assertRejects(op, (out, [(n + 1, u, pi), *replies[1:]]))

    def test_witness_payoff_must_be_zero(self):
        op, (out, replies) = first_ok(self.g1, name="g1/phi4/")
        w = out.history.entries[out.witness_entry]
        x1, x2 = w.ms
        losing = (max(x1, x2) + 1, 0)         # y1 differs from x1 and outbids
        self.assertEqual(ref.phi4(x1, x2, *losing), 1)
        with self.assertRaises(wl.CheckFailed):
            wl.check_win(with_entry(out, out.witness_entry,
                                    HistoryEntry(w.ms, losing, w.u, w.pi)),
                         "phi4", (), "g1")

    def test_fired_configuration_must_have_the_move_shape(self):
        op, (out, replies) = first_ok(self.g1, name="g1/phi4/")
        segs = [list(seg) for seg in out.segments]
        p, rule = segs[0][-1]
        segs[0][-1] = (Process(Const("c_a"), p.stack), rule)
        self.assertRejects(op, (dataclasses.replace(out, segments=segs), replies))

    def test_steps_must_match_the_segments(self):
        op, (out, replies) = first_ok(self.g1, name="g1/phi4/")
        out = dataclasses.replace(out, total_steps=out.total_steps + 1)
        self.assertRejects(op, (out, replies))

    def test_native_and_dsl_transcripts_must_agree(self):
        native, dsl, other_native, other_dsl = self.g1[:4]
        self.assertIn("phi4_dsl", dsl.name)
        native.check(native.run())
        dsl.check(dsl.run())
        other_native.check(other_native.run())
        other = other_dsl.run()
        other_dsl.check(other)
        self.assertNotEqual(other_dsl.check(other)[1], dsl.check(dsl.run())[1])
        self.assertRejects(dsl, other)

    def test_g2_move_must_name_a_retained_configuration(self):
        op, (out, replies) = first_ok(self.g2, name="g2/phi4/")
        moves = list(out.moves)
        moves[0] = dataclasses.replace(moves[0], config=10**6)
        self.assertRejects(op, (dataclasses.replace(out, moves=moves), replies))

    def test_g2_witness_reference_must_hold_the_handle(self):
        _, (out, _) = first_ok(self.g2, name="g2/phi4/")
        t, c = out.witness_ref
        with self.assertRaises(wl.CheckFailed):
            wl.check_win(dataclasses.replace(out, witness_ref=(t, c - 1 if c else 1)),
                         "phi4", (), "g2")

    def test_verdict_must_be_the_expected_one(self):
        ops = []
        wl._fixture_match("g2", "wild.json", TABLE, ops, realizer="t_leq",
                          formula="leq")
        wl._fixture_match("g1", "wild.json", TABLE, ops, realizer="t_leq",
                          formula="leq", expect_win=False)
        for op in ops:
            out, replies = op.run()
            op.check((out, replies))
            flipped = ("AbelardWin" if out.verdict == "EloiseWin"
                       else "EloiseWin")
            self.assertRejects(op, (dataclasses.replace(out, verdict=flipped),
                                    replies))

    def test_halting_payoff_comes_from_the_simulator(self):
        ops = []
        wl._fixture_match("g1", "halt_halt3.json", TABLE, ops)
        op = ops[0]
        out, replies = op.run()
        op.check((out, replies))
        z = 20986
        self.assertEqual(ref.halting_time(z, 100), 3)
        w = out.history.entries[out.witness_entry]
        self.assertEqual(ref.f_halt(z, *w.ms, *w.ns), 0)
        self.assertEqual(ref.f_halt(z, 2, 0), 1)   # "halts before 2 steps"
        with self.assertRaises(wl.CheckFailed):
            wl.check_win(with_entry(out, out.witness_entry,
                                    HistoryEntry((2,), (0,), w.u, w.pi)),
                         "halt", (z,), "g1")

    def test_diverging_term_must_stop_on_its_budget(self):
        op = wl.diverging_op("g1/diverging", "g1", 500)
        out = op.run()
        op.check(out)
        self.assertRejects(op, dataclasses.replace(out, total_steps=499))
        self.assertRejects(op, dataclasses.replace(out, reason="stuck"))


class SchemeChecks(CheckTestCase):
    def setUp(self):
        phi = load_formula_registry({})["phi4"]
        rng = random.Random(5)
        pool = wl.random_replacements(rng, wl.MachineConfig().build(), 7)
        self.op = wl.scheme_op(rng, 6, pool, phi)
        self.scheme, replayed = self.op.run()
        self.assertTrue(replayed)
        self.op.check((self.scheme, replayed))

    def test_replay_must_succeed(self):
        self.assertRejects(self.op, (self.scheme, False))

    def test_tree_must_equal_the_generated_one(self):
        for field, delta in (("parent", 1), ("m", 1), ("n", 1)):
            nodes = list(self.scheme.nodes)
            last = nodes[-1]
            nodes[-1] = dataclasses.replace(last, **{field: getattr(last, field) + delta})
            bad = dataclasses.replace(self.scheme, nodes=nodes)
            self.assertRejects(self.op, (bad, True))
        bad = dataclasses.replace(self.scheme,
                                  success_index=self.scheme.success_index - 1)
        self.assertRejects(self.op, (bad, True))

    def test_random_trees_end_on_a_winning_depth_two_node(self):
        rng = random.Random(0)
        for k in range(2, 30):
            parents, ms, answers, success = wl.random_tree(rng, k)
            first = parents[success - 1]
            self.assertEqual(parents[first - 1], 0)
            self.assertNotEqual(first, 0)
            self.assertEqual(ref.phi4(ms[first - 1], ms[success - 1],
                                      answers[first - 1], answers[success - 1]), 0)


class CliChecks(CheckTestCase):
    @classmethod
    def setUpClass(cls):
        cls.ops = wl.setup_cli_json(3)

    def run_and_corrupt(self, pick, edit):
        op = next(o for o in self.ops if pick(o))
        r = op.run()
        op.check(r)
        self.assertRejects(op, edit(r))
        return op

    def test_match_json(self):
        def edit(r):
            data = json.loads(r.out)
            data["entries"][1]["ns"][0] += 1
            return wl.CliRun(r.code, json.dumps(data), r.err)
        self.run_and_corrupt(lambda o: o.name.startswith("cli/match --game g2")
                             and "--json" in o.name, edit)
        self.run_and_corrupt(lambda o: "t_halt" in o.name,
                             lambda r: wl.CliRun(1, r.out, r.err))

    def test_match_text(self):
        def edit(r):
            return wl.CliRun(r.code, re.sub(r"n=(\d+)\)",
                                            lambda m: f"n={int(m[1]) + 1})",
                                            r.out, count=1), r.err)
        for game in ("g1", "g2"):
            op = self.run_and_corrupt(
                lambda o: f"--game {game}" in o.name and "t_phi_phi4" in o.name,
                edit)
            witness = wl.CliRun(0, op.run().out.replace("  <- witness", ""), "")
            self.assertRejects(op, witness)

    def test_eval_final_state(self):
        self.run_and_corrupt(lambda o: o.name.startswith("cli/eval"),
                             lambda r: wl.CliRun(r.code, r.out.replace(" . a0", " . a1"), r.err))

    def test_bounded_verdicts(self):
        oracle = next(o for o in self.ops if o.name.startswith("cli/oracle"))
        r = oracle.run()
        oracle.check(r)
        flipped = r.out.replace("win", "lose", 1) if r.out.startswith("win") \
            else r.out.replace("lose", "win", 1)
        self.assertRejects(oracle, wl.CliRun(r.code, flipped, r.err))
        self.run_and_corrupt(lambda o: "--game g0" in " ".join(o.name.split()),
                             lambda r: wl.CliRun(1 - r.code, r.out, r.err))

    def test_scheme_demo(self):
        def edit(r):
            data = json.loads(r.out)
            data["final"]["s"] += 1
            return wl.CliRun(r.code, json.dumps(data), r.err)
        self.run_and_corrupt(lambda o: o.name.startswith("cli/scheme"), edit)

    def test_configuration_errors(self):
        self.run_and_corrupt(lambda o: o.check is wl._error_check,
                             lambda r: wl.CliRun(1, r.out, r.err))

    def test_bounded_game_reference(self):
        self.assertTrue(ref.bounded_game_win(ref.leq, 1, 3))
        self.assertTrue(ref.bounded_game_win(ref.phi4, 2, 3))
        self.assertFalse(ref.bounded_game_win(ref.equal, 1, 3))
        self.assertFalse(ref.bounded_game_win(ref.never, 1, 3))


class RoundChecks(unittest.TestCase):
    def test_output_changing_between_rounds_fails(self):
        state = {"calls": 0}

        def run():
            state["calls"] += 1
            return state["calls"]

        op = wl.Op("flaky", run, lambda out: (0, out))
        tally = {"attempted": 0, "failed": 0, "op_steps": {}, "errors": {}}
        worker.run_rounds([op] * 1, 0.0, {}, tally)
        self.assertEqual(tally["attempted"], worker.MIN_OPS)
        self.assertEqual(tally["failed"], worker.MIN_OPS - 1)

    def test_raising_operation_fails(self):
        def run():
            raise ValueError("boom")

        tally = {"attempted": 0, "failed": 0, "op_steps": {}, "errors": {}}
        worker.run_rounds([wl.Op("boom", run, None)], 0.0, {}, tally)
        self.assertEqual(tally["failed"], tally["attempted"])


    def test_timed_rounds_follow_the_warm_up(self):
        ops = [wl.Op("same", lambda: 1, lambda out: (0, out))] * worker.MIN_OPS
        tally = {"attempted": 0, "failed": 0, "op_steps": {}, "errors": {}}
        wanted = worker.WARMUP_ROUNDS + worker.TIMED_ROUNDS
        rounds, _ = worker.run_rounds(ops, 0.0, {}, tally, {},
                                      min_rounds=wanted)
        self.assertEqual(rounds, wanted)
        self.assertEqual(tally["attempted"], wanted * worker.MIN_OPS)


class Screening(unittest.TestCase):
    def test_a_reply_repeating_the_root_handle_is_skipped(self):
        registry = wl.match_registry()
        handle = fresh_handle(registry)
        # its first reply is the root handle kappa0 * alpha0
        self.assertFalse(wl.distinct_replies(registry, 736660294, handle))
        s = wl.screened_seed(random.Random(1), registry, handle)
        self.assertTrue(wl.distinct_replies(registry, s, handle))


class Consistency(unittest.TestCase):
    def test_dsl_formulae_agree_with_the_reference(self):
        grid = range(6)
        for x1 in grid:
            for x2 in grid:
                for y1 in grid:
                    for y2 in grid:
                        args = (x1, x2, y1, y2)
                        self.assertEqual(eval_fn(TABLE["phi4_dsl"].fn, args),
                                         ref.phi4(*args))
                self.assertEqual(eval_fn(TABLE["leq_dsl"].fn, (x1, x2)),
                                 ref.leq(x1, x2))
                self.assertEqual(eval_fn(TABLE["equal_dsl"].fn, (x1, x2)),
                                 ref.equal(x1, x2))

    def test_machine_decoder_reads_the_fixture_machines(self):
        self.assertEqual(ref.halting_time(20986, 1000), 3)
        self.assertIsNone(ref.halting_time(3343, 1000))

    def test_rule_families(self):
        for label, fam in (("Push", "push"), ("EqNat", "eq_nat"),
                           ("T2_phi4", "turn"), ("N_leq", "advance"),
                           ("L_phi4_dsl", "lookup"), ("Theta_halt01", "theta"),
                           ("t_phi_phi4", "head"), ("next", "next"),
                           ("Fork", "other")):
            self.assertEqual(tracing.rule_family(label), fam)

    def test_benchmark_json_lists_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         tracing.per_layer_names())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(wl.WORKLOADS))
        self.assertIn("setup_s", {m["name"] for m in spec["end_to_end"]})


def _fingerprints(workload: str, hash_seed: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload, "4",
         "0", "fingerprints"], cwd=ROOT, env=env, capture_output=True,
        text=True, check=True, timeout=300).stdout
    return json.loads(out.strip().splitlines()[-1])["fingerprints"]


class HashSeed(unittest.TestCase):
    def test_outputs_do_not_depend_on_the_hash_seed(self):
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(_fingerprints(workload, "1"),
                                 _fingerprints(workload, "12345"))


class Standalone(unittest.TestCase):
    def test_fails_without_the_sources(self):
        scratch = os.path.join(BENCH_DIR, "results")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "cli_json",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
