"""The rescanning keep-everything referee, kept as a test-only reference.

After every quantum round and every move it walks every retained
configuration of every thread against the history again, so its cost grows
with the square of the steps made. ``lamc.game.play_g2`` matches the same
moves incrementally; the differential tests check that both referees give the
same outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from lamc.formula import ArithFormula
from lamc.game import (
    AbelardStrategy,
    History,
    HistoryEntry,
    MatchOutcome,
    MoveContext,
    MoveRecord,
    _check_match_inputs,
    _initial_process,
)
from lamc.machine import Machine
from lamc.syntax import Process, Push, Registry, Stack, Term, numeral


@dataclass(frozen=True)
class PlayShape:
    entry_index: int
    m: int
    t: Term


class _Thread:
    """One position's whole trace, stepped on its own so that the reference
    shares no stepping code with the referee it checks."""

    def __init__(self, idx: int, p: Process):
        self.idx = idx
        self.trace: list[Process] = [p]
        self.rules: list[Optional[str]] = [None]
        self.alive = True
        self._seen: dict[Process, int] = {p: 0}

    def advance(self, machine: Machine, quantum: int, remaining: int) -> int:
        steps = 0
        while self.alive and steps < quantum and steps < remaining:
            nxt, rule = machine.step_labeled(self.trace[-1])
            if nxt is None:
                self.alive = False
                break
            steps += 1
            if nxt in self._seen:
                self.alive = False
                break
            self.trace.append(nxt)
            self.rules.append(rule)
            self._seen[nxt] = len(self.trace) - 1
        return steps


def play_g2_rescan(registry: Registry, realizer: Term, phi: ArithFormula,
                   handle: tuple[Term, Stack], abelard: AbelardStrategy,
                   leading: Sequence[int] = (), quantum: int = 256,
                   total_budget: int = 100_000) -> MatchOutcome:
    """Every position ever reached stays alive: all traces are kept whole and
    re-examined against every new history entry, and each configuration may
    fire one play in its lifetime."""
    _check_match_inputs(registry, realizer, phi, handle, leading)
    machine = Machine(registry)
    history = History(phi.rounds)
    history.append(HistoryEntry((), (), handle[0], handle[1]))
    zs = tuple(leading)

    threads = [_Thread(0, _initial_process(realizer, handle, leading))]
    fired: set[tuple[int, int]] = set()
    moves: list[MoveRecord] = []
    total_steps = 0
    move_number = 0

    def outcome(verdict, reason, detail, witness=None, ref=None):
        segments = [list(zip(t.trace, t.rules)) for t in threads]
        return MatchOutcome(verdict, reason, detail, history, moves, segments,
                            witness_entry=witness, witness_ref=ref,
                            total_steps=total_steps)

    def find_win() -> Optional[tuple[int, int, int]]:
        for t in threads:
            for i, p in enumerate(t.trace):
                for idx in history.final_matches(p):
                    e = history.entries[idx]
                    if phi.f_value(zs, e.ms, e.ns) == 0:
                        return t.idx, i, idx
        return None

    def find_play() -> Optional[tuple[int, int, PlayShape]]:
        for t in threads:
            for i, p in enumerate(t.trace):
                if (t.idx, i) in fired:
                    continue
                hit = history.open_match(p)
                if hit is not None:
                    idx, m, handler = hit
                    return t.idx, i, PlayShape(idx, m, handler)
        return None

    while True:
        win = find_win()
        if win is not None:
            t_idx, c_idx, entry_idx = win
            return outcome("EloiseWin", None,
                           f"complete entry {entry_idx} reached with payoff 0 "
                           f"by position {t_idx} at step {c_idx}",
                           witness=entry_idx, ref=(t_idx, c_idx))
        play = find_play()
        if play is not None:
            t_idx, c_idx, shape = play
            fired.add((t_idx, c_idx))
            entry = history.entries[shape.entry_index]
            ctx = MoveContext(phi, entry, shape.entry_index, shape.m, shape.t,
                              move_number)
            reply = abelard(ctx)
            if reply is None:
                return outcome("AbelardWin", "budget",
                               "opponent had no further reply")
            n, u_new, pi_new = reply
            new_idx = history.append(HistoryEntry(
                (*entry.ms, shape.m), (*entry.ns, n), u_new, pi_new))
            moves.append(MoveRecord(move_number, shape.entry_index, shape.m,
                                    n, new_idx, thread=t_idx, config=c_idx))
            move_number += 1
            threads.append(_Thread(
                len(threads),
                Process(shape.t, Push(numeral(n), Push(u_new, pi_new)))))
            continue
        if total_steps >= total_budget:
            return outcome("AbelardWin", "budget", "total step budget exhausted")
        alive = [t for t in threads if t.alive]
        if not alive:
            return outcome("AbelardWin", "stuck",
                           "every position is stuck or looping and no move "
                           "shape remains")
        for t in alive:
            total_steps += t.advance(machine, quantum,
                                     total_budget - total_steps)
