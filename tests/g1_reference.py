"""The keep-everything single-thread referee, kept as a test-only reference.

It keeps every configuration of a phase twice: in the phase's loop set, and
in the outcome's segments, built as the run goes. ``lamc.game.play_g1``
keeps only hashes and replays a phase when its segment is read; the
differential tests check that both referees give the same outcome. It
takes only its set-up from ``lamc.game._Referee`` (the checked inputs, the
machine, the root entry and the start process) and plays every move, payoff
and ending itself.
"""

from __future__ import annotations

from typing import Optional, Sequence

from lamc.formula import ArithFormula
from lamc.game import (
    AbelardStrategy,
    HistoryEntry,
    MatchOutcome,
    MoveContext,
    MoveRecord,
    _Referee,
)
from lamc.machine import walk
from lamc.syntax import Process, Push, Registry, Stack, Term, numeral


def play_g1_eager(registry: Registry, realizer: Term, phi: ArithFormula,
                  handle: tuple[Term, Stack], abelard: AbelardStrategy,
                  leading: Sequence[int] = (), phase_budget: int = 10_000,
                  total_budget: int = 1_000_000) -> MatchOutcome:
    """One live process; a detected play abandons its continuation."""
    segments: list[list[tuple[Process, Optional[str]]]] = [[]]
    total_steps = 0
    core = _Referee(registry, realizer, phi, handle, abelard, leading,
                    lambda: (segments, total_steps))
    machine, history, p = core.machine, core.history, core.start
    zs = tuple(leading)
    moves: list[MoveRecord] = []
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
                # a play on a shared handle is one move on every entry with
                # it; a copy, since a reply on the same handle joins the list
                shared, m, t = hit
                shared = list(shared)
                reply = abelard(MoveContext(phi, history.entries[shared[0]],
                                            shared[0], m, t, move_number))
                if reply is None:
                    return outcome("AbelardWin", "budget",
                                   "opponent had no further reply")
                n, u_new, pi_new = reply
                for entry_idx in shared:
                    entry = history.entries[entry_idx]
                    new_idx = history.append(HistoryEntry(
                        (*entry.ms, m), (*entry.ns, n), u_new, pi_new))
                    moves.append(MoveRecord(move_number, entry_idx, m, n,
                                            new_idx))
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


def rules_flat(outcome: MatchOutcome) -> list[Optional[str]]:
    """Every rule of every segment, in order."""
    return [rule for seg in outcome.segments for (_, rule) in seg]


def configs_flat(outcome: MatchOutcome) -> list[Process]:
    """Every configuration of every segment, in order."""
    return [p for seg in outcome.segments for (p, _) in seg]
