"""Referees for the three arithmetic games.

The abstract game moves numbers only. The two machine games share one
referee core: the history, the payoff of each complete entry, Abelard's
answer to a play and the outcome. A play u * m.t.pi is a move on every
incomplete entry recorded with the handle (u, pi), and Abelard's one reply
extends each of them. Both store a run alike, holding only its live
configuration and one hash per configuration reached; a run replays itself
to confirm a hash hit and when its segment is first read. The single-thread
game runs one process, abandoned at each play. The multi-thread game keeps
every position alive, so a configuration visited long ago may still fire
when the history grows, which is what lets a realizer win there by having
already visited the right configuration. Its referee matches incrementally:
each configuration is matched against the history once, when it is reached,
and each history entry against the runs once, when it is recorded.
"""

from __future__ import annotations

import heapq
import json
import random
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterator, Optional

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
    is_natural,
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
    """Append-only entry list with hash lookups for move-shape detection.
    heads holds the _hash of every entry's u: a configuration whose head
    term's hash is not in it matches no entry, complete or not."""

    def __init__(self, h: int):
        self.h = h
        self.entries: list[HistoryEntry] = []
        self.heads: set[int] = set()
        self._final_by_shape: dict[tuple[Term, Stack], list[int]] = {}
        self._open_by_shape: dict[tuple[Term, Stack], list[int]] = {}

    def append(self, entry: HistoryEntry) -> int:
        if entry.depth() > self.h:
            raise LamcError("history entry deeper than the formula")
        idx = len(self.entries)
        self.entries.append(entry)
        self.heads.add(entry.u._hash)
        by_shape = self._final_by_shape if entry.depth() == self.h \
            else self._open_by_shape
        by_shape.setdefault((entry.u, entry.pi), []).append(idx)
        return idx

    def final_matches(self, p: Process) -> list[int]:
        """Indices of complete entries whose u * pi is exactly p, earliest first."""
        return self._final_by_shape.get((p.term, p.stack), [])

    def open_match(self, p: Process) -> Optional[tuple[list[int], int, Term]]:
        """(entry indices, move, handler) when p is u * m.t.pi for recorded
        incomplete entries (u, pi): every such entry, earliest first. The list
        is the history's own, so it grows as entries with (u, pi) are
        recorded."""
        shape = play_shape(p)
        if shape is None:
            return None
        key, m, t = shape
        idxs = self._open_by_shape.get(key)
        return None if idxs is None else (idxs, m, t)

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
    """What Abelard sees when asked to answer a move. A play on a handle
    that several incomplete entries share is one move on all of them, and
    entry is the earliest."""

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
                return (_script_number(int(n_text), "reply number"),
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
    if not is_natural(z):
        raise LamcError(f"{what} wants a natural number, got {z!r}")
    return check_literal(z, what)


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
    segments: list[Sequence[tuple[Process, Optional[str]]]]
    witness_entry: Optional[int] = None
    witness_ref: Optional[tuple[int, int]] = None
    total_steps: int = 0

    @property
    def eloise_won(self) -> bool:
        return self.verdict == "EloiseWin"

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


### the referee core

class _Referee:
    """What the single-thread and the multi-thread referee share: the checked
    inputs, the machine, the history with its root entry, the start process,
    each complete entry's payoff, Abelard's answer to a play, and the outcome,
    whose segments and step count come from the scheduler's progress()."""

    def __init__(self, registry: Registry, realizer: Term, phi: ArithFormula,
                 handle: tuple[Term, Stack], abelard: AbelardStrategy,
                 leading: Sequence[int],
                 progress: Callable[[], tuple[list, int]]):
        u0, pi0 = handle
        if not is_closed(realizer):
            raise LamcError("realizer must be closed")
        if not is_proof_like(realizer):
            raise LamcError("realizer must be proof-like")
        if not is_closed(u0):
            raise LamcError("handle term must be closed")
        if len(leading) != phi.leading_foralls:
            raise LamcError(
                f"formula {phi.name} wants {phi.leading_foralls} leading "
                f"numbers, got {len(leading)}")
        self.phi, self.abelard, self.progress = phi, abelard, progress
        self.zs = tuple(leading)
        self.machine = Machine(registry)
        self.history = History(phi.rounds)
        self.history.append(HistoryEntry((), (), u0, pi0))
        stack: Stack = Push(u0, pi0)
        for z in reversed(self.zs):
            stack = Push(numeral(z), stack)
        self.start = Process(realizer, stack)
        self.moves: list[MoveRecord] = []
        self._payoffs: dict[int, int] = {}

    def pays(self, idx: int) -> bool:
        """Whether complete entry idx has payoff 0, evaluated once per entry."""
        if idx not in self._payoffs:
            e = self.history.entries[idx]
            self._payoffs[idx] = self.phi.f_value(self.zs, e.ms, e.ns)
        return self._payoffs[idx] == 0

    def answer(self, idxs: Sequence[int], m: int, t: Term,
               thread: Optional[int] = None,
               config: Optional[int] = None) -> Process | MatchOutcome:
        """Abelard's one reply (n, u', pi') to the play u * m.t.pi on the
        incomplete entries idxs, which share the handle (u, pi): one new entry
        and one record per entry, all under one move number, and the next
        process t * n.u'.pi'. Without a reply the match ends."""
        idxs = tuple(idxs)  # a reply on the handle (u, pi) joins the list
        entries = self.history.entries
        number = self.moves[-1].move_number + 1 if self.moves else 0
        reply = self.abelard(MoveContext(self.phi, entries[idxs[0]], idxs[0],
                                         m, t, number))
        if reply is None:
            return self.end("budget", "opponent had no further reply")
        n, u, pi = reply
        for idx in idxs:
            e = entries[idx]
            new_idx = self.history.append(
                HistoryEntry((*e.ms, m), (*e.ns, n), u, pi))
            self.moves.append(MoveRecord(number, idx, m, n, new_idx,
                                         thread, config))
        return Process(t, Push(numeral(n), Push(u, pi)))

    def won(self, idx: int,
            ref: Optional[tuple[int, int]] = None) -> MatchOutcome:
        """Complete entry idx is reached, at configuration ref in G²."""
        at = "" if ref is None else f" by position {ref[0]} at step {ref[1]}"
        return self.end(None, f"complete entry {idx} reached with payoff 0{at}",
                        idx, ref)

    def end(self, reason: Optional[str], detail: str,
            witness: Optional[int] = None,
            ref: Optional[tuple[int, int]] = None) -> MatchOutcome:
        """Abelard wins for reason; with no reason, Eloise wins on witness."""
        segments, total_steps = self.progress()
        return MatchOutcome("AbelardWin" if reason else "EloiseWin", reason,
                            detail, self.history, self.moves, segments,
                            witness_entry=witness, witness_ref=ref,
                            total_steps=total_steps)


### the run of a G¹ phase or a G² position

class _Run(Sequence):
    """A G¹ phase or a G² position: the walk from start, steps long, as
    (configuration, rule) pairs. Until the match ends it holds the live walk
    and the hash of each configuration kept. Its length needs no replay; the
    first read replays the walk on the match's machine, whose quote table
    already holds every code that the replay meets, and keeps it."""

    def __init__(self, machine: Machine, start: Process):
        self._machine, self._start, self.steps = machine, start, 0
        self.walk: Optional[Iterator] = walk(machine, start)
        self.hashes: Optional[set[int]] = set()

    def find(self, p: Process) -> Optional[int]:
        """The first index at most steps whose configuration is p, by a replay."""
        replay = islice(walk(self._machine, self._start), self.steps + 1)
        return next((i for i, (q, _) in enumerate(replay) if q == p), None)

    def close(self) -> None:
        """Drop the walk and the hashes: what is left is what a replay needs."""
        self.walk = self.hashes = None

    @cached_property
    def _configs(self) -> list[tuple[Process, Optional[str]]]:
        return list(islice(walk(self._machine, self._start), self.steps + 1))

    def __len__(self) -> int:
        return self.steps + 1

    def __getitem__(self, i):
        return self._configs[i]


### the single-thread game

def play_g1(registry: Registry, realizer: Term, phi: ArithFormula,
            handle: tuple[Term, Stack], abelard: AbelardStrategy,
            leading: Sequence[int] = (), phase_budget: int = 10_000,
            total_budget: int = 1_000_000) -> MatchOutcome:
    """One live process; a detected play abandons its continuation. A hash
    met again in a phase is confirmed by replaying the phase, so a loop ends
    it at its first repeat, which the phase keeps, and a hash collision costs
    one replay."""
    runs: list[_Run] = []
    phase_start = 0

    def progress():
        runs[-1].close()
        return runs, phase_start + runs[-1].steps

    ref = _Referee(registry, realizer, phi, handle, abelard, leading, progress)
    machine, history = ref.machine, ref.history
    heads = history.heads
    p = ref.start
    while True:
        # one phase: the run from p until a play abandons it
        run = _Run(machine, p)
        runs.append(run)
        seen = run.hashes
        limit = min(phase_budget, total_budget - phase_start)
        for run.steps, (p, _) in enumerate(run.walk):
            if p.term._hash in heads:
                for idx in history.final_matches(p):
                    if ref.pays(idx):
                        return ref.won(idx)
                hit = history.open_match(p)
                if hit is not None:
                    p = ref.answer(*hit)
                    if isinstance(p, MatchOutcome):
                        return p
                    run.close()
                    phase_start += run.steps
                    break
            key = hash(p)
            if key in seen and run.find(p) < run.steps:
                return ref.end(
                    "stuck", "the process entered a loop with no move in sight")
            seen.add(key)
            if run.steps >= limit:
                budget = "phase" if run.steps >= phase_budget else "total"
                return ref.end("budget", f"{budget} step budget exhausted")
        else:
            return ref.end("stuck", "the machine is stuck")


### the multi-thread game

def play_g2(registry: Registry, realizer: Term, phi: ArithFormula,
            handle: tuple[Term, Stack], abelard: AbelardStrategy,
            leading: Sequence[int] = (), quantum: int = 256,
            total_budget: int = 100_000) -> MatchOutcome:
    """Every position ever reached stays alive: any configuration may win on
    an entry recorded after it was reached, and each configuration may fire
    one play in its lifetime. A position is a run, as a G¹ phase is; it dies
    stuck or on a step into a configuration it holds, a hash met again
    confirmed by a replay. That step counts, the configuration is not kept.

    Matching is incremental. A configuration is matched against the history
    once, when its thread reaches it; a play shape whose handle no incomplete
    entry has yet waits under that handle, and the first entry recorded with
    it releases the play. A new complete entry is looked up by hash in every
    thread, a hit confirmed by a replay. A play that fires extends every
    incomplete entry that holds its handle by then. Wins and plays found wait
    in heaps ordered by thread, then configuration, and are taken in the order
    a scan of every run would find them, wins first; a payoff is evaluated
    only when its candidate comes first, once per entry."""
    threads: list[_Run] = []
    total_steps = 0

    def progress():
        for t in threads:
            t.close()
        return threads, total_steps

    ref = _Referee(registry, realizer, phi, handle, abelard, leading, progress)
    if quantum < 1:
        raise LamcError("the quantum must be at least one step")
    machine, history = ref.machine, ref.history
    heads = history.heads

    wins: list[tuple[int, int, int]] = []                    # thread, config, entry
    plays: list[tuple[int, int, list[int], int, Term]] = []  # ..., entries, m, handler
    waiting: dict[tuple[Term, Stack], list[tuple[int, int, int, Term]]] = {}

    def watch(t_idx: int, i: int, p: Process) -> None:
        known = p.term._hash in heads
        if known:
            for idx in history.final_matches(p):
                heapq.heappush(wins, (t_idx, i, idx))
        shape = play_shape(p)
        if shape is None:
            return
        hit = history.open_match(p) if known else None
        if hit is not None:
            heapq.heappush(plays, (t_idx, i, *hit))
        else:
            key, m, handler = shape
            waiting.setdefault(key, []).append((t_idx, i, m, handler))

    def spawn(p: Process) -> None:
        t = _Run(machine, p)
        next(t.walk)  # (p, None)
        t.hashes.add(hash(p))
        threads.append(t)
        watch(len(threads) - 1, 0, p)

    def advance(t_idx: int, budget: int) -> int:
        """At most budget steps of thread t_idx; a dead thread drops its walk."""
        t = threads[t_idx]
        made = 0
        for p, _ in islice(t.walk, budget):
            made += 1
            key = hash(p)
            if key in t.hashes and t.find(p) is not None:
                t.walk = None
                return made
            t.hashes.add(key)
            t.steps += 1
            watch(t_idx, t.steps, p)
        if made < budget:
            t.walk = None
        return made

    def record(idx: int) -> None:
        entry = history.entries[idx]
        key = (entry.u, entry.pi)
        if entry.depth() == phi.rounds:
            p = Process(entry.u, entry.pi)
            h = hash(p)
            for t_idx, t in enumerate(threads):
                if h in t.hashes:
                    i = t.find(p)
                    if i is not None:
                        heapq.heappush(wins, (t_idx, i, idx))
        else:
            # a handle waits only while no entry has it, so idx is the first
            for t_idx, i, m, handler in waiting.pop(key, ()):
                heapq.heappush(plays, (t_idx, i, history._open_by_shape[key],
                                       m, handler))

    spawn(ref.start)
    while True:
        while wins:
            t_idx, c_idx, entry_idx = wins[0]
            if ref.pays(entry_idx):
                return ref.won(entry_idx, (t_idx, c_idx))
            heapq.heappop(wins)
        if plays:
            t_idx, c_idx, idxs, m, handler = heapq.heappop(plays)
            first = len(history)
            p = ref.answer(idxs, m, handler, t_idx, c_idx)
            if isinstance(p, MatchOutcome):
                return p
            for idx in range(first, len(history)):
                record(idx)
            spawn(p)
            continue
        if total_steps >= total_budget:
            return ref.end("budget", "total step budget exhausted")
        alive = [i for i, t in enumerate(threads) if t.walk is not None]
        if not alive:
            return ref.end("stuck", "every position is stuck or looping "
                           "and no move shape remains")
        for t_idx in alive:
            total_steps += advance(t_idx, min(quantum, total_budget - total_steps))


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
    for _ in range(max_moves):
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


def transcript_to_script(outcome: MatchOutcome) -> list[Reply]:
    """The opponent replies recorded in a finished match, replayable in order:
    one per move number, however many entries the move extended."""
    replies = []
    for mr in outcome.moves:
        if mr.move_number == len(replies):
            entry = outcome.history.entries[mr.new_entry_index]
            replies.append((mr.n, entry.u, entry.pi))
    return replies
