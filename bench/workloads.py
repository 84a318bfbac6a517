"""The four workloads: seeded inputs, the timed operations, their checks.

``WORKLOADS[name](seed)`` is the set-up: it builds registries, resolves the
realizers, loads formula files and fixtures, and generates every input from
the seed. It returns the round, a list of operations. An operation's ``run``
is the timed call into lamc; its ``check`` then compares the output with
values from ``reference`` and returns the machine steps the output reports
and a fingerprint, which must be the same in every round. ``check`` raises
``CheckFailed`` on a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

from lamc.cli import DEMO_MS, DEMO_PARENTS, DEMO_SUCCESS, main as cli_main
from lamc.formula import load_formula_registry
from lamc.game import RandomAbelard, ScriptedAbelard, fresh_handle, play_g1, play_g2
from lamc.machine import MachineConfig
from lamc.realizers import SELF_APP_GROW, resolve_realizer
from lamc.scheme import build_scripted_realizer, extract_scheme, verify_replay
from lamc.syntax import App, parse_stack, parse_term

import reference as ref

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
FORMULA_FILE = os.path.join(BENCH_DIR, "formulae.json")
FIXTURES = os.path.join(ROOT, "fixtures")

# A reply cap no match comes near, so RandomAbelard never resigns.
REPLY_CAP = 1_000_000
# Replies each adversary seed is screened for repeated handles: above the
# 63 moves of the longest of 11 000 seeded phi4 matches in G² (29 in G¹).
SCREENED_REPLIES = 64
DIVERGING = App(SELF_APP_GROW, SELF_APP_GROW)

# payoff and rounds of every formula the checks meet
PAYOFFS = {
    "leq": (ref.leq, 1), "leq_dsl": (ref.leq, 1),
    "phi4": (ref.phi4, 2), "phi4_dsl": (ref.phi4, 2),
    "equal_dsl": (ref.equal, 1), "never": (ref.never, 1),
    "halt": (ref.f_halt, 1),
}


class CheckFailed(Exception):
    """An output disagrees with the value the benchmark expects."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, object]]


def match_registry():
    return MachineConfig(quote=True, eq=True, eq_nat=True,
                         inert_consts=("c_a", "c_b", "c_u", "c_v")).build()


def read_script(name: str, registry):
    """(leading, handle, replies) of a fixture script, parsed."""
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        data = json.load(fh)
    handle = (parse_term(data["handle"]["u"], registry),
              parse_stack(data["handle"]["pi"], registry))
    replies = [(int(r["n"]), parse_term(r["u"], registry),
                parse_stack(r["pi"], registry)) for r in data["replies"]]
    return tuple(data.get("leading", ())), handle, replies


class Logged:
    """An adversary that records every reply it gives."""

    def __init__(self, inner):
        self.inner = inner
        self.replies = []

    def __call__(self, ctx):
        reply = self.inner(ctx)
        self.replies.append(reply)
        return reply


### match checks

def _fired_shape_ok(p, entry, m: int) -> bool:
    """p is u * #m . t . pi for the entry's handle (u, pi)."""
    s = p.stack
    return (p.term == entry.u and hasattr(s, "rest") and hasattr(s.rest, "rest")
            and ref.numeral_value(s.top) == m and s.rest.rest == entry.pi)


def _resumed_ok(p, handler, n: int, u, pi) -> bool:
    """p is handler * #n . u . pi."""
    s = p.stack
    return (p.term == handler and hasattr(s, "rest") and hasattr(s.rest, "rest")
            and ref.numeral_value(s.top) == n and s.rest.top == u
            and s.rest.rest == pi)


def check_transcript(out, replies, game: str) -> tuple:
    """Each new entry is its parent plus (m, n) with n the logged reply, each
    move fired from a retained configuration of the documented shape, and
    each answered move resumes its handler on the reply."""
    entries, segs = out.history.entries, out.segments
    given = [r for r in replies if r is not None]
    expect(len(out.moves) == len(given), "moves differ from replies given")
    expect(len(entries) == len(out.moves) + 1, "entries differ from moves")
    fired = set()
    for k, mv in enumerate(out.moves):
        n, u, pi = given[k]
        parent, new = entries[mv.entry_index], entries[mv.new_entry_index]
        expect(mv.move_number == k and mv.new_entry_index == k + 1,
               f"move {k} numbered out of order")
        expect(mv.entry_index < mv.new_entry_index, f"move {k} extends a later entry")
        expect(new.ms == (*parent.ms, mv.m) and new.ns == (*parent.ns, n)
               and mv.n == n, f"entry {k + 1} is not its parent plus (m, n)")
        expect(new.u is u and new.pi is pi, f"entry {k + 1} lost the reply's handle")
        if game == "g1":
            p = segs[k][-1][0]
        else:
            ref_ = (mv.thread, mv.config)
            expect(ref_ not in fired, f"configuration {ref_} fired twice")
            fired.add(ref_)
            expect(0 <= mv.thread < len(segs)
                   and 0 <= mv.config < len(segs[mv.thread]),
                   f"move {k} names no retained configuration")
            p = segs[mv.thread][mv.config][0]
        expect(_fired_shape_ok(p, parent, mv.m), f"move {k} fired off-shape")
        expect(_resumed_ok(segs[k + 1][0][0], p.stack.rest.top, n, u, pi),
               f"move {k} did not resume its handler on the reply")
    made = sum(len(seg) - 1 for seg in segs)
    if game == "g1":
        expect(made == out.total_steps, "g1 steps differ from its segments")
    else:
        expect(made <= out.total_steps, "g2 retains more steps than it made")
    return tuple((mv.entry_index, mv.m, mv.n) for mv in out.moves)


def check_win(out, formula: str, zs: tuple, game: str) -> None:
    payoff, rounds = PAYOFFS[formula]
    expect(out.verdict == "EloiseWin", f"expected a win, got {out.detail}")
    w = out.history.entries[out.witness_entry]
    expect(len(w.ms) == rounds, "witness entry is not complete")
    expect(payoff(*zs, *w.ms, *w.ns) == 0, "witness payoff is not 0")
    if game == "g1":
        p = out.segments[-1][-1][0]
    else:
        t, c = out.witness_ref
        p = out.segments[t][c][0]
    expect(p.term == w.u and p.stack == w.pi,
           "the winning configuration is not the witness handle")


def match_op(name, game, registry, realizer, formula, phi, handle, adversary,
             leading=(), expect_win=True, pair=None) -> Op:
    """A match; `adversary` makes a fresh adversary per call. `pair`, a
    (dict, key, role) triple, requires two matches to play one transcript."""
    play = play_g1 if game == "g1" else play_g2

    def run():
        logged = Logged(adversary())
        out = play(registry, realizer, phi, handle, logged, leading=leading)
        return out, logged.replies

    def check(result):
        out, replies = result
        transcript = check_transcript(out, replies, game)
        if expect_win:
            check_win(out, formula, tuple(leading), game)
        else:
            expect(out.verdict == "AbelardWin", "expected Abelard to win")
        if pair is not None:
            seen, key, role = pair
            if role == "first":
                seen[key] = transcript
            else:
                expect(seen.get(key) == transcript,
                       "native and DSL payoffs played different transcripts")
        return out.total_steps, (out.verdict, out.total_steps, transcript)

    return Op(name, run, check)


def diverging_op(name, game, budget: int) -> Op:
    """A proof-like term that never reaches a move, run to its budget."""
    registry = match_registry()
    phi = load_formula_registry({})["phi4"]
    handle = fresh_handle(registry)
    budgets = ({"phase_budget": budget, "total_budget": budget} if game == "g1"
               else {"total_budget": budget})
    play = play_g1 if game == "g1" else play_g2

    def run():
        return play(registry, DIVERGING, phi, handle,
                    RandomAbelard(registry, seed=0), **budgets)

    def check(out):
        expect(out.verdict == "AbelardWin" and out.reason == "budget",
               f"diverging term ended as {out.verdict}/{out.reason}")
        expect(out.total_steps == budget, "diverging term stopped off budget")
        expect(not out.moves, "diverging term made a move")
        return out.total_steps, (out.verdict, out.total_steps)

    return Op(name, run, check)


def distinct_replies(registry, seed: int, handle) -> bool:
    """Whether RandomAbelard(seed)'s first SCREENED_REPLIES replies are
    handles that differ from each other and from the root handle. Its draws
    do not depend on the position, so they can be read off before a match.

    A reply that repeats a handle already in play makes the referee credit
    t_phi's next move to the earliest entry with that handle, and t_phi
    loses (see the FOUND line on repeated handles in CHANGES.md). Such
    matches fail on some seeds and not others, so their seeds are left
    out."""
    adversary = RandomAbelard(registry, seed=seed,
                              max_replies=SCREENED_REPLIES)
    seen = {handle}
    for _ in range(SCREENED_REPLIES):
        _, u, pi = adversary(None)
        if (u, pi) in seen:
            return False
        seen.add((u, pi))
    return True


def screened_seed(rng, registry, handle) -> int:
    """The next adversary seed from `rng` that passes distinct_replies."""
    while True:
        s = rng.randrange(2**31)
        if distinct_replies(registry, s, handle):
            return s


def universal_matches(rng, game: str, groups) -> list[Op]:
    """For each (formulae, count) group, `count` screened adversary seeds,
    each played by the universal realizer of every formula in the group; a
    group of two must play one transcript per seed. All matches share one
    registry and one handle, which no match changes."""
    table = load_formula_registry(FORMULA_FILE)
    registry = match_registry()
    realizers = {f: resolve_realizer(registry, f"t_phi_{f}", table)
                 for formulae, _ in groups for f in formulae}
    handle = fresh_handle(registry)
    ops = []
    for formulae, count in groups:
        for _ in range(count):
            s = screened_seed(rng, registry, handle)
            seen: dict = {}
            for role, f in zip(("first", "second"), formulae):
                ops.append(match_op(
                    f"{game}/{f}/{s}", game, registry, realizers[f], f,
                    table[f], handle,
                    lambda s=s: RandomAbelard(registry, seed=s,
                                              max_replies=REPLY_CAP),
                    pair=(seen, s, role) if len(formulae) > 1 else None))
    return ops


def _fixture_match(game, script, table, ops, realizer="t_halt",
                   formula="halt", expect_win=True):
    reg = match_registry()
    leading, handle, replies = read_script(script, reg)
    ops.append(match_op(
        f"{game}/{realizer}/{script}", game, reg,
        resolve_realizer(reg, realizer, table), formula, table[formula],
        handle, lambda: ScriptedAbelard(replies), leading=leading,
        expect_win=expect_win))


### g1_universal

G1_PHI4_PAIRS = 300
G1_LEQ = 60
G1_LONG_PHASE = 100_000


def setup_g1_universal(seed: int) -> list[Op]:
    ops = universal_matches(random.Random(seed), "g1", [
        (("phi4", "phi4_dsl"), G1_PHI4_PAIRS), (("leq",), G1_LEQ)])
    table = load_formula_registry({})
    for script in ("halt_loop.json", "halt_halt3.json"):
        _fixture_match("g1", script, table, ops)
    ops.append(diverging_op("g1/diverging", "g1", G1_LONG_PHASE))
    return ops


### g2_pool

G2_PHI4 = 400
G2_LEQ = 60
G2_DIVERGING = 20_000


def setup_g2_pool(seed: int) -> list[Op]:
    ops = universal_matches(random.Random(seed), "g2", [
        (("phi4",), G2_PHI4), (("leq",), G2_LEQ)])
    table = load_formula_registry({})
    _fixture_match("g1", "wild.json", table, ops, realizer="t_leq",
                   formula="leq", expect_win=False)
    _fixture_match("g2", "wild.json", table, ops, realizer="t_leq",
                   formula="leq")
    ops.append(diverging_op("g2/diverging", "g2", G2_DIVERGING))
    return ops


### scheme_replay

SCHEME_SIZES = range(4, 21)    # interactions; deeper trees overflow the parser
SCHEME_COPIES = 8              # trees of each size
TERM_SIZE = 5                  # nodes of each replacement term
STACK_ITEM_SIZE = 3            # nodes of each of its stack's two items


def random_tree(rng, k: int):
    """parents, played values, answers and success node of a k-interaction
    tree that ends on a depth-2 node with phi4 payoff 0."""
    parents = [0] + [rng.randrange(i + 1) for i in range(1, k)]
    depth = [0]
    for p in parents:
        depth.append(depth[p] + 1)
    if 2 not in depth:
        parents[-1] = rng.choice([i for i, d in enumerate(depth[:-1]) if d == 1])
        depth[-1] = 2
    ms = [rng.randrange(5) for _ in range(k)]
    answers = [rng.randrange(5) for _ in range(k)]
    success = rng.choice([i for i, d in enumerate(depth) if d == 2])
    first = parents[success - 1]
    if ref.phi4(ms[first - 1], ms[success - 1],
                answers[first - 1], answers[success - 1]) != 0:
        answers[first - 1] = ms[first - 1]
    return parents, ms, answers, success


def random_term_text(rng, size: int, scope: int = 0) -> str:
    """A closed term of exactly `size` nodes: numerals, cc and bound
    variables at the leaves, abstractions and applications inside."""
    if size == 1:
        leaf = rng.randrange(3 if scope else 2)
        if leaf == 0:
            return f"#{rng.randrange(4)}"
        if leaf == 1:
            return "cc"
        return f"x{rng.randrange(scope)}"
    if size == 2 or rng.randrange(2):
        return f"(\\x{scope}. {random_term_text(rng, size - 1, scope + 1)})"
    left = rng.randrange(1, size - 1)
    return (f"({random_term_text(rng, left, scope)} "
            f"{random_term_text(rng, size - 1 - left, scope)})")


def random_stack_text(rng) -> str:
    items = [random_term_text(rng, STACK_ITEM_SIZE) for _ in range(2)]
    return " . ".join([*items, f"a{rng.randrange(4)}"])


def random_replacements(rng, template, count: int) -> list:
    """`count` pairs of a closed term and a stack, parsed."""
    return [(parse_term(random_term_text(rng, TERM_SIZE), template),
             parse_stack(random_stack_text(rng), template))
            for _ in range(count)]


def scheme_op(rng, k: int, pool: list, phi) -> Op:
    """One tree of k interactions; constant j is replaced by pool[j]."""
    parents, ms, answers, success = random_tree(rng, k)
    replacements = dict(enumerate(pool[:k + 1]))

    def run():
        registry = MachineConfig().build()
        term = build_scripted_realizer(parents, ms, success, registry)
        scheme = extract_scheme(term, answers, phi, registry=registry)
        return scheme, verify_replay(registry, scheme, replacements)

    def check(result):
        scheme, replayed = result
        expect(scheme.ok, f"extraction failed: {getattr(scheme, 'detail', '')}")
        nodes = scheme.nodes
        expect(len(nodes) == k + 1, "extracted tree has the wrong size")
        expect([n.parent for n in nodes[1:]] == parents, "parents differ")
        expect([n.m for n in nodes[1:]] == ms, "played values differ")
        expect([n.n for n in nodes[1:]] == answers, "answers differ")
        expect(all(len(n.path) == len(nodes[n.parent].path) + 1
                   for n in nodes[1:]), "node paths disagree with parents")
        expect(scheme.success_index == success, "success node differs")
        expect(len(scheme.lines) == k + 1, "one line per interaction expected")
        expect(replayed is True, "substitution replay failed")
        steps = sum(len(line.steps) - 1 for line in scheme.lines)
        return 2 * steps, (steps, tuple(n.path for n in nodes))

    return Op(f"scheme/{k}", run, check)


def setup_scheme_replay(seed: int) -> list[Op]:
    rng = random.Random(seed)
    phi = load_formula_registry({})["phi4"]
    template = MachineConfig().build()
    ops = []
    for _ in range(SCHEME_COPIES):
        for k in SCHEME_SIZES:
            pool = random_replacements(rng, template, k + 1)
            ops.append(scheme_op(rng, k, pool, phi))
    return ops


### cli_json

STORAGE = r"\f v. v (\c. c #0) (\t c. t (\m. c ((\n x f. f (n x f)) m))) f"


@dataclass
class CliRun:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


def cli_op(argv, check) -> Op:
    return Op("cli/" + " ".join(argv), lambda: run_cli(list(argv)), check)


def _match_check(formula: str, zs: tuple, game: str, as_json: bool):
    """A won match: each entry extends its parent by the move's (m, n) and
    the witness entry is complete with payoff 0, read from the JSON or from
    the text the CLI prints."""
    payoff, rounds = PAYOFFS[formula]

    def check(r: CliRun):
        expect(r.code == 0 and not r.err, f"exit {r.code}: {r.err.strip()}")
        data = json.loads(r.out) if as_json else _parse_match_text(r.out)
        expect(data["verdict"] == "EloiseWin", "expected a win")
        entries, moves = data["entries"], data["moves"]
        expect(len(entries) == len(moves) + 1, "entries differ from moves")
        for k, mv in enumerate(moves):
            parent, new = entries[mv["entry"]], entries[mv["newEntry"]]
            expect(mv["move"] == k and mv["newEntry"] == k + 1,
                   f"move {k} out of order")
            expect(new["ms"] == parent["ms"] + [mv["m"]]
                   and new["ns"] == parent["ns"] + [mv["n"]],
                   f"entry {k + 1} is not its parent plus (m, n)")
            expect((mv["thread"] is None) == (game == "g1"),
                   "thread reference where none belongs")
        expect(data["witnessEntry"] is not None, "no witness entry")
        w = entries[data["witnessEntry"]]
        expect(len(w["ms"]) == rounds, "witness entry is not complete")
        expect(payoff(*zs, *w["ms"], *w["ns"]) == 0, "witness payoff is not 0")
        if as_json:
            made = sum(len(seg) - 1 for seg in data["segments"])
            expect(made == data["totalSteps"] if game == "g1"
                   else made <= data["totalSteps"], "steps differ from segments")
        return data["totalSteps"], (len(moves), data["totalSteps"])

    return check


_MOVE_LINE = re.compile(r"move (\d+): entry (\d+) \+ \(m=(\d+), n=(\d+)\) "
                        r"-> entry (\d+)( \[thread \d+ config \d+\])?$")
_ENTRY_LINE = re.compile(r"entry (\d+): ms=\[([\d, ]*)\] ns=\[([\d, ]*)\] .*?"
                         r"(  <- witness)?$")


def _parse_match_text(text: str) -> dict:
    """The fields of a match's text output, in its JSON names."""
    lines = text.splitlines()
    data = {"verdict": lines[0].removeprefix("verdict: "), "moves": [],
            "entries": [], "witnessEntry": None}
    numbers = lambda s: [int(x) for x in s.split(",") if x.strip()]
    for line in lines[1:]:
        if (m := _MOVE_LINE.match(line)):
            data["moves"].append({
                "move": int(m[1]), "entry": int(m[2]), "m": int(m[3]),
                "n": int(m[4]), "newEntry": int(m[5]),
                "thread": 0 if m[6] else None})
        elif (m := _ENTRY_LINE.match(line)):
            data["entries"].append({"ms": numbers(m[2]), "ns": numbers(m[3])})
            if m[4]:
                data["witnessEntry"] = int(m[1])
        elif line.startswith("total steps: "):
            data["totalSteps"] = int(line.removeprefix("total steps: "))
    return data


def _eval_check(product: int, as_json: bool):
    final = f"c_a * #{product} . a0"

    def check(r: CliRun):
        expect(r.code == 0 and not r.err, f"exit {r.code}: {r.err.strip()}")
        if as_json:
            data = json.loads(r.out)
            expect(data["steps"][-1] == final, "eval ended elsewhere")
            expect(data["terminal"]["kind"] == "stuck", "eval did not get stuck")
            expect(len(data["rules"]) == len(data["steps"]), "rules differ from steps")
            steps = len(data["steps"]) - 1
        else:
            head, _, rest = r.out.partition(" steps: ")
            expect(rest.splitlines() == [final, "terminal: stuck"],
                   "eval ended elsewhere")
            steps = int(head.removeprefix("after "))
        return steps, steps

    return check


def _scheme_demo_check(answers):
    def check(r: CliRun):
        expect(r.code == 0 and not r.err, f"exit {r.code}: {r.err.strip()}")
        data = json.loads(r.out)
        nodes = data["nodes"][1:]
        expect([n["parent"] for n in nodes] == list(DEMO_PARENTS), "parents differ")
        expect([n["m"] for n in nodes] == list(DEMO_MS), "played values differ")
        expect([n["n"] for n in nodes] == answers, "answers differ")
        expect(data["final"]["s"] == DEMO_SUCCESS, "success node differs")
        path = []
        node = DEMO_SUCCESS
        while node:
            path.append(node)
            node = DEMO_PARENTS[node - 1]
        expect(len(path) == 2, "success node is not at depth 2")
        (x2, y2), (x1, y1) = ((DEMO_MS[i - 1], answers[i - 1]) for i in path)
        expect(ref.phi4(x1, x2, y1, y2) == 0, "success payoff is not 0")
        return 0, len(r.out)

    return check


def _bounded_check(formula: str, bound: int, game: str):
    payoff, rounds = PAYOFFS[formula]
    win = ref.bounded_game_win(payoff, rounds, bound)

    def check(r: CliRun):
        expect(not r.err, r.err.strip())
        if game == "oracle":
            expect(r.code == 0, f"oracle exited {r.code}")
            verdict = r.out.split()[0]
            expect(verdict == ("win" if win else "lose"), "oracle verdict differs")
        else:
            verdict = json.loads(r.out)["verdict"]
            expect(verdict == ("EloiseWin" if win else "AbelardWin"),
                   "g0 verdict differs")
            expect(r.code == (0 if win else 1), "g0 exit code differs")
        return 0, verdict

    return check


def _error_check(r: CliRun):
    expect(r.code == 2 and not r.out and r.err.startswith("error:"),
           f"expected a configuration error, got exit {r.code}")
    return 0, r.code


# The round is built so that each latency percentile falls inside a group
# of operations whose cost does not depend on the seed: the cheap commands
# (oracle, g0, scheme, errors) are over half of it and hold the median, the
# long evaluations hold the 90th percentile, and the seeded matches lie in
# between. Seeded phi4 matches print text: printing their JSON costs from
# milliseconds to seconds by seed (the FOUND line on _names_in_tree), so a
# few seeds would set the round's time. JSON printing is measured on the
# seeded leq matches, the t_halt fixtures and the short evaluations.
CLI_MATCH_SEEDS = 6            # per game and realizer
CLI_EVAL_LONG = 10             # storage-operator products near EVAL_PRODUCT
EVAL_PRODUCT = 2000
CLI_EVAL_JSON = 2
CLI_SCHEME = 8
CLI_BOUNDS = (1, 2, 3, 4)
CLI_ERRORS = 3                 # copies of each configuration error


def demo_answers(rng) -> list[int]:
    """Seeded answers to the demo tree that make its success node win."""
    answers = [rng.randrange(5) for _ in DEMO_PARENTS]
    first = DEMO_PARENTS[DEMO_SUCCESS - 1]
    if ref.phi4(DEMO_MS[first - 1], DEMO_MS[DEMO_SUCCESS - 1],
                answers[first - 1], answers[DEMO_SUCCESS - 1]) != 0:
        answers[first - 1] = DEMO_MS[first - 1]
    return answers


def setup_cli_json(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    table = load_formula_registry({})
    registry = match_registry()
    resolve_realizer(registry, "t_phi_phi4", table)
    handle = fresh_handle(registry)      # the registry the CLI builds, too
    for game in ("g1", "g2"):
        for realizer, formula, as_json in (("t_phi_leq", "leq", True),
                                           ("t_phi_phi4", "phi4", False)):
            for _ in range(CLI_MATCH_SEEDS):
                s = screened_seed(rng, registry, handle)
                argv = ["match", "--game", game, "--realizer", realizer,
                        "--formula", formula, "--abelard", "random",
                        "--seed", str(s)] + (["--json"] if as_json else [])
                ops.append(cli_op(argv, _match_check(formula, (), game, as_json)))
    for script in ("halt_loop.json", "halt_halt3.json"):
        with open(os.path.join(FIXTURES, script), encoding="utf-8") as fh:
            leading = tuple(json.load(fh)["leading"])
        argv = ["match", "--game", "g1", "--realizer", "t_halt", "--formula",
                "halt", "--abelard", os.path.join("fixtures", script), "--json"]
        ops.append(cli_op(argv, _match_check("halt", leading, "g1", True)))
    evals = [(rng.randint(35, 55), None, False) for _ in range(CLI_EVAL_LONG)]
    evals += [(rng.randint(2, 3), rng.randint(2, 3), True)
              for _ in range(CLI_EVAL_JSON)]
    for a, b, as_json in evals:
        b = b or round(EVAL_PRODUCT / a)
        argv = ["eval", f"({STORAGE}) * c_a . (\\x g. #{a} x (\\y. #{b} y g)) . a0",
                "--steps", "1000000"] + (["--json"] if as_json else [])
        ops.append(cli_op(argv, _eval_check(a * b, as_json)))
    for _ in range(CLI_SCHEME):
        answers = demo_answers(rng)
        argv = ["scheme", "--realizer", "scheme_demo", "--formula", "phi4",
                "--answers", ",".join(map(str, answers)), "--json"]
        ops.append(cli_op(argv, _scheme_demo_check(answers)))
    fixture_formulae = os.path.join("fixtures", "extra_formulae.json")
    own_formulae = os.path.relpath(FORMULA_FILE, ROOT)
    sources = [("leq", None), ("phi4", None), ("never", fixture_formulae),
               ("leq_dsl", own_formulae), ("phi4_dsl", own_formulae),
               ("equal_dsl", own_formulae)]
    bounded = []
    for formula, path in sources:
        for bound in CLI_BOUNDS:
            extra = ["--formula", formula, "--bound", str(bound)]
            extra += ["--formula-file", path] if path else []
            bounded.append((["oracle", *extra], formula, bound, "oracle"))
            bounded.append((["match", "--game", "g0", *extra, "--json"],
                            formula, bound, "g0"))
    rng.shuffle(bounded)
    for argv, formula, bound, game in bounded:
        ops.append(cli_op(argv, _bounded_check(formula, bound, game)))
    for _ in range(CLI_ERRORS):
        ops.append(cli_op(["match", "--game", "g1", "--formula", "phi4",
                           "--realizer", "no_such_realizer", "--abelard",
                           "random"], _error_check))
        ops.append(cli_op(["eval", "(\\x. x * a0"], _error_check))
    return ops


WORKLOADS = {
    "g1_universal": setup_g1_universal,
    "g2_pool": setup_g2_pool,
    "scheme_replay": setup_scheme_replay,
    "cli_json": setup_cli_json,
}
