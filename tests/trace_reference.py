"""Reference run that records its whole trace, kept for differential tests.

It keeps every configuration, the rule that reached each, and a dict of
every configuration it has visited, so its memory grows with the run.
`lamc.machine.run` finds the same end from O(1) configurations, and
`lamc eval --trace`/`--json` print the same trace by walking the run again;
the tests require them to agree with this one.
"""

from dataclasses import dataclass
from typing import Optional

from lamc.machine import Machine, Terminal, walk
from lamc.syntax import LamcError, Process, is_closed, process_to_text


@dataclass
class Trace:
    """Visited configurations, the rule that produced each, and the terminal."""

    steps: list[Process]
    rules: list[Optional[str]]
    terminal: Terminal

    def to_text(self) -> str:
        lines = [f"step {i}: {process_to_text(p)}" for i, p in enumerate(self.steps)]
        lines.append(f"terminal: {self.terminal.describe()}")
        return "\n".join(lines)


def run(machine: Machine, p: Process, budget: int = 10_000) -> Trace:
    """Drive p deterministically until stuck, cycling or out of budget.

    The budget is checked after the cycle test on each configuration, so a
    budget below 0 stops at index 0 like 0 does.
    """
    if not is_closed(p):
        raise LamcError("run wants a closed process")
    steps: list[Process] = []
    rules: list[Optional[str]] = []
    seen: dict[Process, int] = {}
    for idx, (current, rule) in enumerate(walk(machine, p)):
        steps.append(current)
        rules.append(rule)
        prev = seen.get(current)
        if prev is not None:
            return Trace(steps, rules, Terminal("cycle", entry=prev, period=idx - prev))
        seen[current] = idx
        if idx >= budget:
            return Trace(steps, rules, Terminal("budget"))
    return Trace(steps, rules, Terminal("stuck"))
