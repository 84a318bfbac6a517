"""Arithmetic formulas and their payoff functions.

A formula denotes: for all z1..zg, exists x1 for all y1 ... exists xh for
all yh, f(z*, x*, y*) = 0, with f a total function on naturals taken in
block order (z block, then the x block, then the y block). f is either a
named native or a primitive recursion combinator expression; built-ins
include the one-round comparison formula "leq", the two-round comparison
formula "phi4", and the halting formula "halt" over an explicit enumeration
of small Turing machine tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

from .syntax import (
    LamcError,
    Process,
    Registry,
    Stack,
    Term,
    decode_numeral,
    is_natural,
    pop_items,
)

### primitive recursive function expressions

DslExpr = Union[str, list]


def _validate_dsl(expr: DslExpr, arity: int) -> None:
    if expr == "zero":
        return
    if expr == "succ":
        if arity != 1:
            raise LamcError(f"succ has arity 1, used at arity {arity}")
        return
    if isinstance(expr, (list, tuple)):
        head = expr[0] if expr else None
        if head == "proj":
            if len(expr) != 2 or not isinstance(expr[1], int):
                raise LamcError("proj wants one index")
            if not 1 <= expr[1] <= arity:
                raise LamcError(f"proj index {expr[1]} out of range for arity {arity}")
            return
        if head == "compose":
            if len(expr) != 3 or not isinstance(expr[2], (list, tuple)):
                raise LamcError("compose wants a function and a list of arguments")
            inner = list(expr[2])
            _validate_dsl(expr[1], len(inner))
            for g in inner:
                _validate_dsl(g, arity)
            return
        if head == "primrec":
            if len(expr) != 3:
                raise LamcError("primrec wants a base and a step")
            if arity < 1:
                raise LamcError("primrec needs at least the recursion argument")
            _validate_dsl(expr[1], arity - 1)
            _validate_dsl(expr[2], arity + 1)
            return
    raise LamcError(f"bad function expression: {expr!r}")


# primrec iterations that one payoff evaluation may make, a second or two of
# work: multiplication written as primrec of addition, each recursing on its
# first argument, makes about x * x * y / 2 of them on (x, y)
DSL_MAX_ITERATIONS = 1_000_000


def _eval_dsl(expr: DslExpr, args: tuple[int, ...],
              fuel: Optional[list[int]] = None) -> int:
    """expr on args. Each primrec charges its iterations, before it makes
    them, to fuel, which the whole evaluation shares: past
    DSL_MAX_ITERATIONS in all the evaluation raises LamcError."""
    if fuel is None:
        fuel = [DSL_MAX_ITERATIONS]
    if expr == "zero":
        return 0
    if expr == "succ":
        return args[0] + 1
    head = expr[0]
    if head == "proj":
        return args[expr[1] - 1]
    if head == "compose":
        inner = tuple(_eval_dsl(g, args, fuel) for g in expr[2])
        return _eval_dsl(expr[1], inner, fuel)
    if head == "primrec":
        n, rest = args[0], args[1:]
        fuel[0] -= n
        if fuel[0] < 0:
            raise LamcError(f"payoff evaluation passed {DSL_MAX_ITERATIONS} "
                            f"primrec iterations")
        acc = _eval_dsl(expr[1], rest, fuel)
        for i in range(n):
            acc = _eval_dsl(expr[2], (i, acc) + rest, fuel)
        return acc
    raise LamcError(f"bad function expression: {expr!r}")


@dataclass(frozen=True)
class PrimRecFn:
    """A named total function on naturals: native code or a DSL expression."""

    name: str
    arity: int
    native: Optional[Callable[..., int]] = None
    dsl: Optional[tuple] = None

    def __post_init__(self):
        if (self.native is None) == (self.dsl is None):
            raise LamcError(f"function {self.name} needs one body: native code "
                            f"or a DSL expression")
        if self.dsl is not None:
            _validate_dsl(self.dsl, self.arity)


def _freeze_dsl(expr) -> tuple:
    if isinstance(expr, str):
        return expr
    return tuple(_freeze_dsl(e) if isinstance(e, (list, tuple)) else e for e in expr)


def eval_fn(fn: PrimRecFn, args: Sequence[int]) -> int:
    """Apply fn to naturals; result is a natural."""
    if len(args) != fn.arity:
        raise LamcError(f"function {fn.name} has arity {fn.arity}, got {len(args)} arguments")
    for a in args:
        if not isinstance(a, int) or a < 0:
            raise LamcError(f"function arguments must be naturals, got {a!r}")
    if fn.native is not None:
        out = fn.native(*args)
    else:
        out = _eval_dsl(fn.dsl, tuple(args))
    if not isinstance(out, int) or out < 0:
        raise LamcError(f"function {fn.name} returned a non-natural: {out!r}")
    return out


def _pick_nonzero(x: int, y: int) -> int:
    return x if x > 0 else y


def _phi4_native(x1: int, x2: int, y1: int, y2: int) -> int:
    return 0 if (x1 == y1 or _pick_nonzero(x1, x2) > _pick_nonzero(y1, y2)) else 1


### Turing machine tables and their enumeration

BLANK, SYM0, SYM1 = 0, 1, 2
MOVE_LEFT, MOVE_RIGHT = 0, 1
MAX_STATES = 4


@dataclass(frozen=True)
class TuringMachineTable:
    """Finite table over tape alphabet {blank, 0, 1}; state 0 means halted.

    states is the number of working states (1..MAX_STATES); start may be 0,
    in which case the machine is halted before making any transition.
    rules[(s-1)*3 + sym] = (write, move, next) for working state s on sym.
    """

    states: int
    start: int
    rules: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if not 1 <= self.states <= MAX_STATES:
            raise LamcError(f"states must be 1..{MAX_STATES}, got {self.states}")
        if not 0 <= self.start <= self.states:
            raise LamcError(f"start must be 0..{self.states}")
        if len(self.rules) != 3 * self.states:
            raise LamcError("rules must cover every (state, symbol) pair")
        for write, move, nxt in self.rules:
            if not (0 <= write <= 2 and move in (0, 1) and 0 <= nxt <= self.states):
                raise LamcError("rule out of range")

    def rule(self, state: int, sym: int) -> tuple[int, int, int]:
        return self.rules[(state - 1) * 3 + sym]


def _digit_base(states: int) -> int:
    return 6 * (states + 1)


def _block_size(states: int) -> int:
    return (states + 1) * _digit_base(states) ** (3 * states)


@lru_cache(maxsize=None)
def enumeration_size() -> int:
    return sum(_block_size(s) for s in range(1, MAX_STATES + 1))


def encode_table(table: TuringMachineTable) -> int:
    """Index in the fixed enumeration: blocks by state count, then mixed radix
    with the start state least significant, followed by the rule digits in
    (state, symbol) order, each digit being (write*2 + move)*(states+1) + next.

    Least-significant-first keeps the indices of tables with few nontrivial
    rules small, so showcase machines fit in literal numerals on a stack.
    """
    offset = sum(_block_size(s) for s in range(1, table.states))
    base = _digit_base(table.states)
    value = 0
    for write, move, nxt in reversed(table.rules):
        digit = (write * 2 + move) * (table.states + 1) + nxt
        value = value * base + digit
    return offset + table.start + (table.states + 1) * value


def decode_table(index: int) -> TuringMachineTable:
    if index < 0 or index >= enumeration_size():
        raise LamcError(f"table index {index} out of enumeration range")
    states = 1
    while index >= _block_size(states):
        index -= _block_size(states)
        states += 1
    base = _digit_base(states)
    start = index % (states + 1)
    index //= states + 1
    rules = []
    for _ in range(3 * states):
        d = index % base
        index //= base
        nxt = d % (states + 1)
        wm = d // (states + 1)
        rules.append((wm // 2, wm % 2, nxt))
    return TuringMachineTable(states, start, tuple(rules))


def simulate(table: TuringMachineTable, max_steps: int) -> tuple[bool, int]:
    """Run on the empty tape; (halted within max_steps transitions, steps made)."""
    tape: dict[int, int] = {}
    pos = 0
    state = table.start
    steps = 0
    while state != 0 and steps < max_steps:
        sym = tape.get(pos, BLANK)
        write, move, nxt = table.rule(state, sym)
        tape[pos] = write
        pos += 1 if move == MOVE_RIGHT else -1
        state = nxt
        steps += 1
    return state == 0, steps


def halt_predicate(m: int, n: int) -> bool:
    """Machine number m stops strictly before n steps on the empty tape."""
    table = decode_table(m)
    if n <= 0:
        return False
    halted, _ = simulate(table, n - 1)
    return halted


def table_trivial() -> TuringMachineTable:
    """Halted before the first step: the start state is the halt state."""
    return TuringMachineTable(1, 0, ((0, 0, 0),) * 3)


def table_loop() -> TuringMachineTable:
    """Never halts: one state wired to itself on every symbol."""
    return TuringMachineTable(1, 1, tuple((sym, MOVE_RIGHT, 1) for sym in range(3)))


def table_halt3() -> TuringMachineTable:
    """Halts after exactly three transitions: mark a cell, bounce off a blank,
    come back, and stop on reading the mark."""
    rules = (
        (SYM0, MOVE_RIGHT, 2),   # state 1 on blank: leave a mark, go right
        (BLANK, MOVE_LEFT, 0),   # state 1 on the mark: stop
        (BLANK, MOVE_LEFT, 0),   # state 1 on sym1: unreachable
        (BLANK, MOVE_LEFT, 1),   # state 2 on blank: turn around
        (BLANK, MOVE_LEFT, 0),   # state 2 on sym0: unreachable
        (BLANK, MOVE_LEFT, 0),   # state 2 on sym1: unreachable
    )
    return TuringMachineTable(2, 1, rules)


def _f_halt(m: int, n: int, p: int) -> int:
    if n > 0:
        return 0 if halt_predicate(m, n) else 1
    return 0 if not halt_predicate(m, p) else 1


def _halt01(m: int, n: int) -> int:
    return 0 if halt_predicate(m, n) else 1


### named natives and built-in formulas

NATIVE_FNS: dict[str, PrimRecFn] = {}


def _register_native(name: str, arity: int, fn: Callable[..., int]) -> PrimRecFn:
    prf = NATIVE_FNS[name] = PrimRecFn(name, arity, native=fn)
    return prf


FN_LEQ01 = _register_native("leq01", 2, lambda x, y: 0 if x <= y else 1)
FN_ADD = _register_native("add", 2, lambda x, y: x + y)
FN_TRUNCSUB = _register_native("truncsub", 2, lambda x, y: max(x - y, 0))
FN_MULT = _register_native("mult", 2, lambda x, y: x * y)
FN_PICK = _register_native("pick_nonzero", 2, _pick_nonzero)
FN_PHI4 = _register_native("phi4f", 4, _phi4_native)
FN_F_HALT = _register_native("f_halt", 3, _f_halt)
FN_HALT01 = _register_native("halt01", 2, _halt01)


@dataclass(frozen=True)
class ArithFormula:
    """forall z1..zg exists x1 forall y1 ... exists xh forall yh f(...) = 0."""

    name: str
    leading_foralls: int
    rounds: int
    fn: PrimRecFn

    def __post_init__(self):
        expected = self.leading_foralls + 2 * self.rounds
        if self.fn.arity != expected:
            raise LamcError(
                f"formula {self.name}: f has arity {self.fn.arity}, needs {expected}")

    def f_value(self, zs: Sequence[int], ms: Sequence[int], ns: Sequence[int]) -> int:
        return eval_fn(self.fn, [*zs, *ms, *ns])


def builtin_formulae() -> dict[str, ArithFormula]:
    return {
        "leq": ArithFormula("leq", 0, 1, FN_LEQ01),
        "phi4": ArithFormula("phi4", 0, 2, FN_PHI4),
        "halt": ArithFormula("halt", 1, 1, FN_F_HALT),
    }


def load_formula_registry(source: Union[str, dict]) -> dict[str, ArithFormula]:
    """Built-ins plus user formulas from a JSON file path or parsed dict.

    Schema per entry: {"leadingForall": g, "rounds": h,
    "fn": {"native": name} or {"dsl": expr, "arity": k}}.
    """
    table = builtin_formulae()
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    if not isinstance(data, dict):
        raise LamcError("a formula file is a JSON object of named formulas")
    for name, entry in data.items():
        if not isinstance(entry, dict):
            raise LamcError(f"formula {name}: want a JSON object")
        g = entry.get("leadingForall", 0)
        h = entry.get("rounds")
        fn_spec = entry.get("fn")
        if not (is_natural(g) and is_natural(h) and isinstance(fn_spec, dict)):
            raise LamcError(f'formula {name}: want natural numbers "rounds" '
                            f'and "leadingForall" and an "fn" object')
        if "native" in fn_spec:
            native_name = fn_spec["native"]
            if not isinstance(native_name, str) or native_name not in NATIVE_FNS:
                raise LamcError(f"unknown native function: {native_name}")
            fn = NATIVE_FNS[native_name]
        else:
            dsl, arity = fn_spec.get("dsl"), fn_spec.get("arity")
            if not (isinstance(dsl, (str, list, tuple)) and is_natural(arity)):
                raise LamcError(f'formula {name}: "fn" wants "native", or '
                                f'"dsl" and a natural number "arity"')
            fn = PrimRecFn(f"{name}_fn", arity, dsl=_freeze_dsl(dsl))
        table[name] = ArithFormula(name, g, h, fn)
    return table


### theta instructions: branch on a payoff value

def make_theta(registry: Registry, fn: PrimRecFn, split: tuple[int, int],
               name: Optional[str] = None) -> str:
    """Install a branching instruction for fn with the given argument split.

    name * A . B . t0 . t1 . pi  >  t0 * pi when fn(a*, b*) = 0, else t1 * pi,
    where A decodes to the first `split[0]` arguments and B to the remaining
    `split[1]`: a block of arity 1 accepts a literal numeral or a 1-tuple, a
    wider block wants an encoded tuple of its arity. Undecodable arguments
    leave the machine stuck. Returns the installed instruction name.
    """
    a_arity, b_arity = split
    if a_arity + b_arity != fn.arity:
        raise LamcError(f"split {split} does not cover arity {fn.arity}")
    if name is None:
        name = f"Theta_{fn.name}"

    def decode_block(machine, item: Term,
                     arity: int) -> Optional[tuple[int, ...]]:
        if arity == 1:
            n = decode_numeral(item)
            if n is not None:
                return (n,)
        tup = machine.nat_tuple(item)
        if tup is not None and len(tup) == arity:
            return tup
        return None

    def rule(machine, s: Stack):
        popped = pop_items(s, 4)
        if popped is None:
            return None
        (a_item, b_item, t0, t1), rest = popped
        a_args = decode_block(machine, a_item, a_arity)
        b_args = decode_block(machine, b_item, b_arity)
        if a_args is None or b_args is None:
            return None
        value = eval_fn(fn, [*a_args, *b_args])
        return Process(t0 if value == 0 else t1, rest)

    registry.install_instruction(name, rule, label=name)
    return name


### the bounded backtracking-game oracle

def truth_oracle_g0(phi: ArithFormula, bound: int,
                    history: Optional[Iterable[tuple[tuple[int, ...], tuple[int, ...]]]] = None,
                    zs: Sequence[int] = (),
                    caveat_unknown: bool = False) -> str:
    """Does Eloise win the backtracking game from this history when Abelard's
    numbers range over [0, bound] and Eloise's over [0, bound + 1]? Returns
    "win", "lose" or (with caveat_unknown, since an unbounded Eloise might
    still win) "unknown".

    Eloise gets one extra value so that a successor-style reply to the
    opponent's largest challenge still fits in the search box; otherwise
    raising the bound could flip a win back to a loss, and this verdict should
    only ever improve for Eloise as the bound grows.

    For every history, winning the backtracking game with box-bounded moves
    equals plainly winning the alternating evaluation from some recorded
    position, so that is what gets evaluated. A bound below 0 is an error:
    the empty box would make every universal round vacuously won.
    """
    if bound < 0:
        raise LamcError(f"the search bound must be at least 0, got {bound}")
    if len(zs) != phi.leading_foralls:
        raise LamcError(
            f"formula {phi.name} wants {phi.leading_foralls} leading values, got {len(zs)}")
    h = phi.rounds
    if history is None:
        history = [((), ())]
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}

    def value(ms: tuple[int, ...], ns: tuple[int, ...]) -> bool:
        if len(ms) == h:
            return phi.f_value(zs, ms, ns) == 0
        key = (ms, ns)
        if key in memo:
            return memo[key]
        out = any(
            all(value(ms + (m,), ns + (n,)) for n in range(bound + 1))
            for m in range(bound + 2)
        )
        memo[key] = out
        return out

    for ms, ns in history:
        if len(ms) != len(ns) or len(ms) > h:
            raise LamcError(f"bad history position: {(ms, ns)!r}")
        if value(tuple(ms), tuple(ns)):
            return "win"
    if caveat_unknown and h > 0:
        return "unknown"
    return "lose"


### indices of the showcase tables

IDX_TRIVIAL = encode_table(table_trivial())
IDX_LOOP = encode_table(table_loop())
IDX_HALT3 = encode_table(table_halt3())
