"""The stack machine: step rules and deterministic runs.

A configuration is a closed term facing a stack. The four structural rules
are Push (unfold an application), Grab (a binder takes the top item),
Save (cc packages the current stack as a continuation constant) and
Restore (a continuation constant reinstates its stack). Extra instructions
are installed in the registry: quote (codes the current stack as a numeral,
interned first-seen per machine), eq (branch on alpha equality of two stack
items) and eq_nat (branch on equality of two literal numerals). Every rule
has at most one successor, so a run is a sequence: walk() yields it lazily,
and run() and settle() decide where it ends.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence

from .syntax import (
    App,
    Const,
    Cont,
    Lam,
    LamcError,
    Process,
    Push,
    Registry,
    Stack,
    decode_numeral,
    is_closed,
    numeral,
    pop_items,
    process_to_text,
    stack_to_text,
    subst_bound0,
    term_to_text,
)

### step results

StepResult = Optional[Process]

RULE_PUSH = "Push"
RULE_GRAB = "Grab"
RULE_SAVE = "Save"
RULE_RESTORE = "Restore"
RULE_QUOTE = "Quote"
RULE_EQ = "Eq"
RULE_EQ_NAT = "EqNat"


class Machine:
    """Registry plus per-run instruction state (the quote intern table)."""

    def __init__(self, registry: Registry):
        self.registry = registry
        self._quote_codes: dict[Stack, int] = {}

    def quote_code(self, pi: Stack) -> int:
        """Code of a stack: position in first-seen order, injective per machine."""
        code = self._quote_codes.get(pi)
        if code is None:
            code = len(self._quote_codes)
            self._quote_codes[pi] = code
        return code

    def step_labeled(self, p: Process) -> tuple[StepResult, Optional[str]]:
        t, s = p.term, p.stack
        if isinstance(t, App):
            return Process(t.fn, Push(t.arg, s)), RULE_PUSH
        if isinstance(t, Lam):
            if isinstance(s, Push):
                return Process(subst_bound0(t.body, s.top), s.rest), RULE_GRAB
            return None, None
        if isinstance(t, Cont):
            if isinstance(s, Push):
                return Process(s.top, t.stack), RULE_RESTORE
            return None, None
        if isinstance(t, Const):
            rule = self.registry.rule_for(t.name)
            if rule is None:
                return None, None
            out = rule(self, s)
            if out is None:
                return None, None
            return out, self.registry.rule_labels.get(t.name, t.name)
        # Bound / FreeVar heads never fire (configurations are closed in practice)
        return None, None


### built-in instruction rules

def _rule_save(machine: Machine, s: Stack) -> StepResult:
    if isinstance(s, Push):
        return Process(s.top, Push(Cont(s.rest), s.rest))
    return None


def step_quote(machine: Machine, s: Stack) -> StepResult:
    """quote * t.pi  >  t * nbar.pi with nbar the machine's code of pi."""
    if isinstance(s, Push):
        code = machine.quote_code(s.rest)
        return Process(s.top, Push(numeral(code), s.rest))
    return None


def step_eq(machine: Machine, s: Stack) -> StepResult:
    """eq * t1.t2.u.v.pi  >  u * pi when t1 and t2 are alpha equal, else v * pi."""
    popped = pop_items(s, 4)
    if popped is None:
        return None
    (t1, t2, u, v), rest = popped
    return Process(u if t1 == t2 else v, rest)


def step_eq_nat(machine: Machine, s: Stack) -> StepResult:
    """eq_nat * m.n.u.v.pi  >  u * pi when the literal numerals agree, else v * pi."""
    popped = pop_items(s, 4)
    if popped is None:
        return None
    (m, n, u, v), rest = popped
    dm, dn = decode_numeral(m), decode_numeral(n)
    if dm is None or dn is None:
        return None
    return Process(u if dm == dn else v, rest)


### registry construction

@dataclass(frozen=True)
class MachineConfig:
    """Which extra instructions get installed next to cc."""

    quote: bool = False
    eq: bool = False
    eq_nat: bool = False
    stack_consts: tuple[str, ...] = ("a0", "a1", "a2", "a3")
    inert_consts: tuple[str, ...] = ()

    def build(self) -> Registry:
        reg = Registry()
        for name in self.stack_consts:
            reg.declare_stack(name)
        for name in self.inert_consts:
            reg.declare_inert(name)
        reg.install_instruction("cc", _rule_save, label=RULE_SAVE)
        if self.quote:
            reg.install_instruction("quote", step_quote, quote_like=True,
                                    label=RULE_QUOTE)
        if self.eq:
            reg.install_instruction("eq", step_eq, quote_like=True,
                                    label=RULE_EQ)
        if self.eq_nat:
            reg.install_instruction("eq_nat", step_eq_nat, label=RULE_EQ_NAT)
        return reg


### deterministic runs

@dataclass(frozen=True)
class Terminal:
    """Why a run stopped."""

    kind: str  # "stuck" | "budget" | "cycle" | "watcher"
    entry: int = 0      # cycle: index of the first repeated configuration
    period: int = 0     # cycle: distance back to it
    watcher: int = -1   # watcher: which watcher fired
    at: int = -1        # watcher: configuration index it fired on

    def describe(self) -> str:
        if self.kind == "cycle":
            return f"cycle(entry={self.entry}, period={self.period})"
        if self.kind == "watcher":
            return f"watcher({self.watcher} at step {self.at})"
        return self.kind


@dataclass
class Trace:
    """Visited configurations, the rule that produced each, and the terminal."""

    steps: list[Process]
    rules: list[Optional[str]]
    terminal: Terminal

    def __len__(self) -> int:
        return len(self.steps)

    def to_text(self) -> str:
        lines = [f"step {i}: {process_to_text(p)}" for i, p in enumerate(self.steps)]
        lines.append(f"terminal: {self.terminal.describe()}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "steps": [
                {
                    "step": i,
                    "head": term_to_text(p.term),
                    "stack": stack_to_text(p.stack),
                    "rule": self.rules[i],
                }
                for i, p in enumerate(self.steps)
            ],
            "terminal": {
                "kind": self.terminal.kind,
                **({"entry": self.terminal.entry, "period": self.terminal.period}
                   if self.terminal.kind == "cycle" else {}),
                **({"watcher": self.terminal.watcher, "at": self.terminal.at}
                   if self.terminal.kind == "watcher" else {}),
            },
        }


def walk(machine: Machine, p: Process) -> Iterator[tuple[Process, Optional[str]]]:
    """The deterministic run of p, lazily: each configuration with the rule
    that reached it, starting with (p, None) and ending when the machine is
    stuck. A step is made only when the next configuration is asked for.
    Budgets, cycles and move shapes are the caller's."""
    rule: Optional[str] = None
    while True:
        yield p, rule
        out, rule = machine.step_labeled(p)
        if out is None:
            return
        p = out


def run(machine: Machine, p: Process, budget: int = 10_000,
        watchers: Sequence[Callable[[Process], bool]] = ()) -> Trace:
    """Drive p deterministically until stuck, cycling, out of budget, or watched.

    Watchers see every configuration including the initial one; the first hit
    stops the run. The budget is checked after the cycle test on each
    configuration, so a budget below 0 stops at index 0 like 0 does.
    """
    if not is_closed(p):
        raise LamcError("run wants a closed process")
    steps: list[Process] = []
    rules: list[Optional[str]] = []
    seen: dict[Process, int] = {}
    for idx, (current, rule) in enumerate(walk(machine, p)):
        steps.append(current)
        rules.append(rule)
        for wi, watcher in enumerate(watchers):
            if watcher(current):
                return Trace(steps, rules, Terminal("watcher", watcher=wi, at=idx))
        prev = seen.get(current)
        if prev is not None:
            return Trace(steps, rules, Terminal("cycle", entry=prev, period=idx - prev))
        seen[current] = idx
        if idx >= budget:
            return Trace(steps, rules, Terminal("budget"))
    return Trace(steps, rules, Terminal("stuck"))


def settle(machine: Machine, p: Process,
           budget: int = 10_000) -> tuple[int, Process, Terminal]:
    """Where run(machine, p, budget) ends, without its trace or seen dict:
    (len(trace.steps) - 1, trace.steps[-1], trace.terminal).

    Up to index budget a Brent tortoise (R. P. Brent, BIT 20, 1980), moved
    to the current configuration whenever the distance to it reaches a power
    of two, catches a repeat early and gives the period exactly. Otherwise
    the configuration at index budget lies on every cycle whose entry is at
    most budget, so at most budget more steps against it decide whether the
    first repeat comes by the budget. So the search holds O(1) configurations
    and makes at most 2 x budget steps. When it finds a period, a replay from
    p recovers the entry with two walkers one period apart; they step
    entry + period and entry times on the same machine, whose quote table
    already holds every code they meet. An error that an installed rule
    raises past the budget ends the search, since run() never steps there;
    codes of stacks quoted past the budget stay in the machine's table. A
    budget below 0 acts as 0, where run() stops too; one above sys.maxsize
    acts as sys.maxsize, which no run reaches.
    """
    if not is_closed(p):
        raise LamcError("run wants a closed process")
    budget = min(max(budget, 0), sys.maxsize)
    steps = walk(machine, p)
    last, _ = next(steps)
    tortoise, gap, power, period = last, 0, 1, None
    idx = 0
    for idx, (last, _) in enumerate(islice(steps, budget), start=1):
        gap += 1
        if last == tortoise:
            period = gap
            break
        if gap == power:
            tortoise, gap, power = last, 0, 2 * power
    else:
        if idx < budget:
            return idx, last, Terminal("stuck")
        try:
            for gap, (q, _) in enumerate(islice(steps, budget), start=1):
                if q == last:
                    period = gap
                    break
        except LamcError:
            pass
    if period is not None:
        trail = walk(machine, p)
        lead = islice(walk(machine, p), period, None)
        for entry, ((q, _), (closing, _)) in enumerate(zip(trail, lead)):
            if q == closing:
                break
        if entry + period <= budget:
            return (entry + period, closing,
                    Terminal("cycle", entry=entry, period=period))
    return budget, last, Terminal("budget")
