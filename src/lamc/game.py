"""Referees for the three arithmetic games.

The abstract game moves numbers only. The single-thread game runs one machine
process and watches every configuration for move shapes against the recorded
history. The multi-thread game keeps every position's full trace alive, so a
configuration visited long ago may still fire when the history grows, which is
what lets a realizer win there by having already visited the right
configuration. Its referee matches incrementally: each configuration is
matched against the history once, when it is reached, and each history entry
against the traces once, when it is recorded.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional, Sequence

from .formula import ArithFormula, truth_oracle_g0
from .machine import Machine, walk
from .realizers import box_max_index, is_proof_like, next_tuple
from .syntax import (
    Bottom,
    Const,
    LamcError,
    Process,
    Push,
    Registry,
    Stack,
    Term,
    check_literal,
    decode_numeral,
    fresh_constants,
    is_closed,
    numeral,
    parse_stack,
    parse_term,
    process_to_text,
    random_closed_term,
    random_stack,
    stack_to_text,
    term_to_text,
)

### history

@dataclass(frozen=True)
class HistoryEntry:
    """A recorded position: numbers played so far plus the handle to answer."""

    ms: tuple[int, ...]
    ns: tuple[int, ...]
    u: Term
    pi: Stack

    def __post_init__(self):
        if len(self.ms) != len(self.ns):
            raise LamcError("history entry wants as many answers as moves")

    def depth(self) -> int:
        return len(self.ms)


class History:
    """Append-only entry list with hash lookups for move-shape detection."""

    def __init__(self, h: int):
        self.h = h
        self.entries: list[HistoryEntry] = []
        self._final_by_shape: dict[tuple[Term, Stack], list[int]] = {}
        self._open_by_shape: dict[tuple[Term, Stack], int] = {}

    def append(self, entry: HistoryEntry) -> int:
        if entry.depth() > self.h:
            raise LamcError("history entry deeper than the formula")
        idx = len(self.entries)
        self.entries.append(entry)
        key = (entry.u, entry.pi)
        if entry.depth() == self.h:
            self._final_by_shape.setdefault(key, []).append(idx)
        else:
            self._open_by_shape.setdefault(key, idx)
        return idx

    def final_matches(self, p: Process) -> list[int]:
        """Indices of complete entries whose u * pi is exactly p, earliest first."""
        return self._final_by_shape.get((p.term, p.stack), [])

    def open_match(self, p: Process) -> Optional[tuple[int, int, Term]]:
        """(entry index, move, handler) when p is u * m.t.pi for a recorded
        incomplete entry (u, pi); earliest entry on ties."""
        shape = play_shape(p)
        if shape is None:
            return None
        key, m, t = shape
        idx = self._open_by_shape.get(key)
        if idx is None:
            return None
        return idx, m, t

    def __len__(self) -> int:
        return len(self.entries)


def play_shape(p: Process) -> Optional[tuple[tuple[Term, Stack], int, Term]]:
    """((u, pi), m, t) when p is u * m.t.pi with m a literal numeral: the
    shape of a play on an incomplete entry (u, pi), whether or not one is
    recorded."""
    s = p.stack
    if not (isinstance(s, Push) and isinstance(s.rest, Push)):
        return None
    m = decode_numeral(s.top)
    if m is None:
        return None
    return (p.term, s.rest.rest), m, s.rest.top


### adversaries for the machine games

@dataclass(frozen=True)
class MoveContext:
    """What Abelard sees when asked to answer a move."""

    phi: ArithFormula
    entry: HistoryEntry
    entry_index: int
    m: int
    t: Term
    move_number: int


Reply = tuple[int, Term, Stack]
AbelardStrategy = Callable[[MoveContext], Optional[Reply]]


class ScriptedAbelard:
    """Plays a fixed reply list in order; silent once exhausted."""

    def __init__(self, replies: Sequence[Reply]):
        self._replies = list(replies)
        self._next = 0

    def __call__(self, ctx: MoveContext) -> Optional[Reply]:
        if self._next >= len(self._replies):
            return None
        reply = self._replies[self._next]
        self._next += 1
        return reply


def fresh_handle(registry: Registry) -> tuple[Const, Bottom]:
    """A fresh inert constant facing a fresh stack bottom."""
    (kname,) = fresh_constants(registry, 1, kind="term", prefix="kappa")
    (aname,) = fresh_constants(registry, 1, kind="stack", prefix="alpha")
    return Const(kname), Bottom(aname)


class FreshConstantAbelard:
    """Answers the scripted numbers with fresh handles, so every reply is
    maximally uninformative."""

    def __init__(self, registry: Registry, nseq: Sequence[int]):
        self._registry = registry
        self._nseq = list(nseq)
        self._next = 0

    def __call__(self, ctx: MoveContext) -> Optional[Reply]:
        if self._next >= len(self._nseq):
            return None
        n = self._nseq[self._next]
        self._next += 1
        return (n, *fresh_handle(self._registry))


class RandomAbelard:
    """Seeded random numbers, closed terms and stacks."""

    def __init__(self, registry: Registry, seed: int, max_move: int = 6,
                 max_replies: int = 64):
        self._registry = registry
        self._rng = random.Random(seed)
        self._max_move = max_move
        self._remaining = max_replies

    def __call__(self, ctx: MoveContext) -> Optional[Reply]:
        if self._remaining <= 0:
            return None
        self._remaining -= 1
        n = self._rng.randint(0, self._max_move)
        u = random_closed_term(self._rng, self._registry)
        pi = random_stack(self._rng, self._registry)
        return n, u, pi


class InteractiveAbelard:
    """Prompts a human for each reply; empty input resigns the reply."""

    def __init__(self, registry: Registry, out=None):
        self._registry = registry
        import sys

        self._out = out if out is not None else sys.stdout

    def __call__(self, ctx: MoveContext) -> Optional[Reply]:
        print(f"move {ctx.move_number}: position {ctx.entry.ms}/{ctx.entry.ns} "
              f"extended by {ctx.m}", file=self._out)
        while True:
            line = input("answer n, term, stack (comma separated, empty to stop): ")
            if not line.strip():
                return None
            try:
                n_text, u_text, pi_text = (part.strip() for part in line.split(",", 2))
                return (check_literal(int(n_text), "reply number"),
                        parse_term(u_text, self._registry),
                        parse_stack(pi_text, self._registry))
            except (ValueError, LamcError) as exc:
                print(f"could not read that reply: {exc}", file=self._out)


def load_abelard_script(source, registry: Registry):
    """Read {leading?, handle?, replies} from a JSON path or parsed dict.

    Returns (leading numbers, optional (u0, pi0), ScriptedAbelard).
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    if not isinstance(data, dict):
        raise LamcError("an Abelard script is a JSON object")
    leading = data.get("leading", ())
    replies = data.get("replies", ())
    if not all(isinstance(x, (list, tuple)) for x in (leading, replies)):
        raise LamcError('script "leading" and "replies" want lists')
    leading = tuple(_script_number(z, "leading number") for z in leading)
    handle = _script_handle(data["handle"], "handle", registry) \
        if "handle" in data else None
    scripted = []
    for r in replies:
        if not (isinstance(r, dict) and "n" in r):
            raise LamcError('each script reply wants "n", "u" and "pi"')
        n = _script_number(r["n"], "reply number")
        scripted.append((n, *_script_handle(r, "reply", registry)))
    return leading, handle, ScriptedAbelard(scripted)


def _script_number(z, what: str) -> int:
    try:
        n = int(z)
    except (TypeError, ValueError, OverflowError):
        raise LamcError(f"{what} wants an integer, got {z!r}") from None
    return check_literal(n, what)


def _script_handle(obj, what: str, registry: Registry) -> tuple[Term, Stack]:
    if not (isinstance(obj, dict) and isinstance(obj.get("u"), str)
            and isinstance(obj.get("pi"), str)):
        raise LamcError(f'script {what} wants "u" and "pi" as text')
    return parse_term(obj["u"], registry), parse_stack(obj["pi"], registry)


### outcomes

@dataclass(frozen=True)
class MoveRecord:
    move_number: int
    entry_index: int
    m: int
    n: int
    new_entry_index: int
    thread: Optional[int] = None
    config: Optional[int] = None


@dataclass
class MatchOutcome:
    verdict: str                     # "EloiseWin" | "AbelardWin"
    reason: Optional[str]            # None | "stuck" | "budget"
    detail: str
    history: History
    moves: list[MoveRecord]
    segments: list[list[tuple[Process, Optional[str]]]]
    witness_entry: Optional[int] = None
    witness_ref: Optional[tuple[int, int]] = None
    total_steps: int = 0

    @property
    def eloise_won(self) -> bool:
        return self.verdict == "EloiseWin"

    def rules_flat(self) -> list[Optional[str]]:
        return [rule for seg in self.segments for (_, rule) in seg]

    def configs_flat(self) -> list[Process]:
        return [p for seg in self.segments for (p, _) in seg]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "detail": self.detail,
            "witnessEntry": self.witness_entry,
            "totalSteps": self.total_steps,
            "entries": [
                {"ms": list(e.ms), "ns": list(e.ns),
                 "u": term_to_text(e.u), "pi": stack_to_text(e.pi)}
                for e in self.history.entries
            ],
            "moves": [
                {"move": mr.move_number, "entry": mr.entry_index,
                 "m": mr.m, "n": mr.n, "newEntry": mr.new_entry_index,
                 "thread": mr.thread, "config": mr.config}
                for mr in self.moves
            ],
            "segments": [
                [{"process": process_to_text(p), "rule": rule}
                 for (p, rule) in seg]
                for seg in self.segments
            ],
        }


def _check_match_inputs(registry: Registry, realizer: Term, phi: ArithFormula,
                        handle: tuple[Term, Stack],
                        leading: Sequence[int]) -> None:
    if not is_closed(realizer):
        raise LamcError("realizer must be closed")
    if not is_proof_like(realizer):
        raise LamcError("realizer must be proof-like")
    u0, pi0 = handle
    if not is_closed(u0):
        raise LamcError("handle term must be closed")
    if len(leading) != phi.leading_foralls:
        raise LamcError(
            f"formula {phi.name} wants {phi.leading_foralls} leading "
            f"numbers, got {len(leading)}")


def _initial_process(realizer: Term, handle: tuple[Term, Stack],
                     leading: Sequence[int]) -> Process:
    u0, pi0 = handle
    stack: Stack = Push(u0, pi0)
    for z in reversed(leading):
        stack = Push(numeral(z), stack)
    return Process(realizer, stack)


### the single-thread game

def play_g1(registry: Registry, realizer: Term, phi: ArithFormula,
            handle: tuple[Term, Stack], abelard: AbelardStrategy,
            leading: Sequence[int] = (), phase_budget: int = 10_000,
            total_budget: int = 1_000_000) -> MatchOutcome:
    """One live process; a detected play abandons its continuation."""
    _check_match_inputs(registry, realizer, phi, handle, leading)
    machine = Machine(registry)
    history = History(phi.rounds)
    history.append(HistoryEntry((), (), handle[0], handle[1]))
    zs = tuple(leading)

    p = _initial_process(realizer, handle, leading)
    moves: list[MoveRecord] = []
    segments: list[list[tuple[Process, Optional[str]]]] = [[]]
    total_steps = 0
    move_number = 0

    def outcome(verdict, reason, detail, witness=None):
        return MatchOutcome(verdict, reason, detail, history, moves, segments,
                            witness_entry=witness, total_steps=total_steps)

    while True:
        # one phase: the run from p until a play abandons it
        phase_start = total_steps
        seen: set[Process] = set()
        for phase_steps, (p, rule) in enumerate(walk(machine, p)):
            total_steps = phase_start + phase_steps
            segments[-1].append((p, rule))
            for idx in history.final_matches(p):
                e = history.entries[idx]
                if phi.f_value(zs, e.ms, e.ns) == 0:
                    return outcome("EloiseWin", None,
                                   f"complete entry {idx} reached with payoff 0",
                                   witness=idx)
            hit = history.open_match(p)
            if hit is not None:
                entry_idx, m, t = hit
                entry = history.entries[entry_idx]
                reply = abelard(MoveContext(phi, entry, entry_idx, m, t,
                                            move_number))
                if reply is None:
                    return outcome("AbelardWin", "budget",
                                   "opponent had no further reply")
                n, u_new, pi_new = reply
                new_idx = history.append(HistoryEntry(
                    (*entry.ms, m), (*entry.ns, n), u_new, pi_new))
                moves.append(MoveRecord(move_number, entry_idx, m, n, new_idx))
                move_number += 1
                p = Process(t, Push(numeral(n), Push(u_new, pi_new)))
                segments.append([])
                break
            if p in seen:
                return outcome("AbelardWin", "stuck",
                               "the process entered a loop with no move in sight")
            seen.add(p)
            if phase_steps >= phase_budget:
                return outcome("AbelardWin", "budget", "phase step budget exhausted")
            if total_steps >= total_budget:
                return outcome("AbelardWin", "budget", "total step budget exhausted")
        else:
            return outcome("AbelardWin", "stuck", "the machine is stuck")


### the multi-thread game

class _Thread:
    """One keep-everything position: its walk and every configuration reached."""

    def __init__(self, idx: int, machine: Machine, p: Process):
        self.idx = idx
        self.trace: list[Process] = [p]
        self.rules: list[Optional[str]] = [None]
        self.alive = True
        self._seen: dict[Process, int] = {p: 0}
        self._walk = walk(machine, p)
        next(self._walk)  # (p, None), already recorded

    def advance(self, budget: int) -> int:
        """At most budget steps. The thread dies stuck, or on a step into a
        configuration it holds: that step counts, the configuration is not kept."""
        steps = 0
        for p, rule in islice(self._walk, budget):
            steps += 1
            if p in self._seen:
                self.alive = False
                return steps
            self._seen[p] = len(self.trace)
            self.trace.append(p)
            self.rules.append(rule)
        if steps < budget:
            self.alive = False
        return steps


def play_g2(registry: Registry, realizer: Term, phi: ArithFormula,
            handle: tuple[Term, Stack], abelard: AbelardStrategy,
            leading: Sequence[int] = (), quantum: int = 256,
            total_budget: int = 100_000) -> MatchOutcome:
    """Every position ever reached stays alive: all traces are kept whole, any
    configuration may win on an entry recorded after it was reached, and each
    configuration may fire one play in its lifetime.

    Matching is incremental. A configuration is matched against the history
    once, when its thread reaches it; a play shape whose incomplete entry is
    not recorded yet waits under that entry's handle. A new complete entry is
    looked up in every thread's configurations, and a new incomplete entry
    releases the plays waiting on its handle, unless an earlier entry has the
    same handle: the earliest one keeps every play on it. Wins and plays found
    wait in heaps ordered by (thread, config, entry) and are taken in the
    order a scan of every trace would find them, wins first; a payoff is
    evaluated only when its candidate comes first, once per entry."""
    _check_match_inputs(registry, realizer, phi, handle, leading)
    if quantum < 1:
        raise LamcError("the quantum must be at least one step")
    machine = Machine(registry)
    history = History(phi.rounds)
    history.append(HistoryEntry((), (), handle[0], handle[1]))
    zs = tuple(leading)

    threads: list[_Thread] = []
    wins: list[tuple[int, int, int]] = []               # thread, config, entry
    plays: list[tuple[int, int, int, int, Term]] = []   # ... , m, handler
    waiting: dict[tuple[Term, Stack], list[tuple[int, int, int, Term]]] = {}
    payoffs: dict[int, int] = {}
    moves: list[MoveRecord] = []
    total_steps = 0
    move_number = 0

    def outcome(verdict, reason, detail, witness=None, ref=None):
        segments = [list(zip(t.trace, t.rules)) for t in threads]
        return MatchOutcome(verdict, reason, detail, history, moves, segments,
                            witness_entry=witness, witness_ref=ref,
                            total_steps=total_steps)

    def watch(t: _Thread, i: int) -> None:
        p = t.trace[i]
        for idx in history.final_matches(p):
            heapq.heappush(wins, (t.idx, i, idx))
        shape = play_shape(p)
        if shape is None:
            return
        hit = history.open_match(p)
        if hit is not None:
            heapq.heappush(plays, (t.idx, i, *hit))
        else:
            key, m, handler = shape
            waiting.setdefault(key, []).append((t.idx, i, m, handler))

    def spawn(p: Process) -> None:
        t = _Thread(len(threads), machine, p)
        threads.append(t)
        watch(t, 0)

    def record(entry: HistoryEntry) -> int:
        idx = history.append(entry)
        if entry.depth() == phi.rounds:
            p = Process(entry.u, entry.pi)
            for t in threads:
                i = t._seen.get(p)
                if i is not None:
                    heapq.heappush(wins, (t.idx, i, idx))
        else:
            # a handle waits only while no entry has it, so idx is the first
            for t_idx, i, m, handler in waiting.pop((entry.u, entry.pi), ()):
                heapq.heappush(plays, (t_idx, i, idx, m, handler))
        return idx

    spawn(_initial_process(realizer, handle, leading))
    while True:
        while wins:
            t_idx, c_idx, entry_idx = wins[0]
            if entry_idx not in payoffs:
                e = history.entries[entry_idx]
                payoffs[entry_idx] = phi.f_value(zs, e.ms, e.ns)
            if payoffs[entry_idx] == 0:
                return outcome("EloiseWin", None,
                               f"complete entry {entry_idx} reached with payoff 0 "
                               f"by position {t_idx} at step {c_idx}",
                               witness=entry_idx, ref=(t_idx, c_idx))
            heapq.heappop(wins)
        if plays:
            t_idx, c_idx, entry_idx, m, handler = heapq.heappop(plays)
            entry = history.entries[entry_idx]
            ctx = MoveContext(phi, entry, entry_idx, m, handler, move_number)
            reply = abelard(ctx)
            if reply is None:
                return outcome("AbelardWin", "budget",
                               "opponent had no further reply")
            n, u_new, pi_new = reply
            new_idx = record(HistoryEntry(
                (*entry.ms, m), (*entry.ns, n), u_new, pi_new))
            moves.append(MoveRecord(move_number, entry_idx, m, n, new_idx,
                                    thread=t_idx, config=c_idx))
            move_number += 1
            spawn(Process(handler, Push(numeral(n), Push(u_new, pi_new))))
            continue
        if total_steps >= total_budget:
            return outcome("AbelardWin", "budget", "total step budget exhausted")
        alive = [t for t in threads if t.alive]
        if not alive:
            return outcome("AbelardWin", "stuck",
                           "every position is stuck or looping and no move "
                           "shape remains")
        for t in alive:
            start = len(t.trace)
            total_steps += t.advance(min(quantum, total_budget - total_steps))
            for i in range(start, len(t.trace)):
                watch(t, i)


### the abstract game

@dataclass(frozen=True)
class G0Move:
    entry_index: int
    m: int
    n: int


@dataclass
class G0Outcome:
    verdict: str
    reason: Optional[str]
    detail: str
    history: list[tuple[tuple[int, ...], tuple[int, ...]]]
    moves: list[G0Move]

    @property
    def eloise_won(self) -> bool:
        return self.verdict == "EloiseWin"


G0Eloise = Callable[[list[tuple[tuple[int, ...], tuple[int, ...]]]],
                    Optional[tuple[int, int]]]
G0Abelard = Callable[[list[tuple[tuple[int, ...], tuple[int, ...]]], int, int],
                     int]


def play_g0(phi: ArithFormula, eloise: G0Eloise, abelard: G0Abelard,
            zs: Sequence[int] = (), max_moves: int = 10_000) -> G0Outcome:
    """Numbers-only game: Eloise extends a recorded position, Abelard answers,
    and a completed position with payoff zero ends it."""
    if len(zs) != phi.leading_foralls:
        raise LamcError(
            f"formula {phi.name} wants {phi.leading_foralls} leading numbers")
    h = phi.rounds
    history: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    moves: list[G0Move] = []
    for move_number in range(max_moves):
        choice = eloise(history)
        if choice is None:
            return G0Outcome("AbelardWin", "stuck", "no move proposed",
                             history, moves)
        entry_index, m = choice
        if not 0 <= entry_index < len(history):
            raise LamcError(f"no recorded position {entry_index}")
        ms, ns = history[entry_index]
        if len(ms) >= h:
            raise LamcError("cannot extend a completed position")
        n = abelard(history, entry_index, m)
        new_pos = ((*ms, m), (*ns, n))
        history.append(new_pos)
        moves.append(G0Move(entry_index, m, n))
        if len(new_pos[0]) == h and phi.f_value(zs, *new_pos) == 0:
            return G0Outcome("EloiseWin", None,
                             f"position {new_pos[0]}/{new_pos[1]} has payoff 0",
                             history, moves)
    return G0Outcome("AbelardWin", "budget", "move budget exhausted",
                     history, moves)


def scripted_g0_eloise(moves: Sequence[tuple[tuple[int, ...], tuple[int, ...], int]]
                       ) -> G0Eloise:
    """Moves given as (position ms, position ns, m): each names the recorded
    position to extend by value, then the number to play."""
    pending = list(moves)

    def strategy(history):
        if not pending:
            return None
        ms, ns, m = pending.pop(0)
        for idx, (hms, hns) in enumerate(history):
            if hms == tuple(ms) and hns == tuple(ns):
                return idx, m
        raise LamcError(f"scripted position {(ms, ns)} not in the history")

    return strategy


def scripted_g0_abelard(answers: Sequence[int], fallback: int = 0) -> G0Abelard:
    pending = list(answers)

    def strategy(history, entry_index, m):
        if pending:
            return pending.pop(0)
        return fallback

    return strategy


def blind_box_eloise(phi: ArithFormula, bound: int) -> G0Eloise:
    """Enumerates every tuple in the box [0..bound+1]^h in enumeration order,
    walking each one down from the deepest already-recorded prefix. The box is
    one wider than the opponent's range, matching truth_oracle_g0's rule that
    the existential player may always answer a challenge with its successor."""
    if bound < 0:
        raise LamcError(f"the search bound must be at least 0, got {bound}")
    h = phi.rounds
    state = {"index": 0}
    cap = bound + 1
    limit = box_max_index(cap, h)

    def strategy(history):
        while True:
            if state["index"] > limit:
                return None
            target = next_tuple(state["index"], h)
            if any(c > cap for c in target):
                state["index"] += 1
                continue
            if any(ms == target for ms, _ in history):
                state["index"] += 1
                continue
            best = None
            for idx, (ms, ns) in enumerate(history):
                if len(ms) < h and ms == target[:len(ms)]:
                    if best is None or len(ms) >= len(history[best][0]):
                        best = idx
            if best is None:
                raise LamcError("the root position vanished from the history")
            depth = len(history[best][0])
            return best, target[depth]

    return strategy


def minimax_g0_abelard(phi: ArithFormula, bound: int,
                       zs: Sequence[int] = ()) -> G0Abelard:
    """Answers with a refuting number when the bounded evaluation offers one."""

    def strategy(history, entry_index, m):
        ms, ns = history[entry_index]
        for n in range(bound + 1):
            candidate = history + [((*ms, m), (*ns, n))]
            if truth_oracle_g0(phi, bound, history=candidate, zs=zs) == "lose":
                return n
        return 0

    return strategy


### harness

def check_strategy(registry_factory: Callable[[], Registry], realizer_name: str,
                   build_realizer: Callable[[Registry], Term],
                   phi: ArithFormula,
                   adversaries: Sequence[tuple[str, Callable[[Registry], AbelardStrategy]]],
                   handles: Sequence[tuple[str, Callable[[Registry], tuple[Term, Stack]]]],
                   leading: Sequence[int] = (), phase_budget: int = 10_000,
                   total_budget: int = 1_000_000,
                   games: Sequence[str] = ("g1", "g2")) -> list[dict]:
    """Falsification harness: play every (handle, adversary) pair in the asked
    games. A loss is a definitive counterexample; wins are evidence only."""
    report = []
    for handle_name, make_handle in handles:
        for adv_name, make_adv in adversaries:
            for game in games:
                registry = registry_factory()
                realizer = build_realizer(registry)
                handle = make_handle(registry)
                adversary = make_adv(registry)
                if game == "g1":
                    out = play_g1(registry, realizer, phi, handle, adversary,
                                  leading=leading, phase_budget=phase_budget,
                                  total_budget=total_budget)
                else:
                    out = play_g2(registry, realizer, phi, handle, adversary,
                                  leading=leading, total_budget=total_budget)
                report.append({
                    "realizer": realizer_name,
                    "formula": phi.name,
                    "game": game,
                    "handle": handle_name,
                    "adversary": adv_name,
                    "verdict": out.verdict,
                    "reason": out.reason,
                    "moves": len(out.moves),
                    "steps": out.total_steps,
                })
    return report


def transcript_to_script(outcome: MatchOutcome) -> list[Reply]:
    """The opponent replies recorded in a finished match, replayable in order."""
    replies = []
    for mr in outcome.moves:
        entry = outcome.history.entries[mr.new_entry_index]
        replies.append((mr.n, entry.u, entry.pi))
    return replies
