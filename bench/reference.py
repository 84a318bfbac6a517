"""Expected values computed apart from lamc.

Every check the benchmark makes compares a lamc output with a value worked
out here from the documented semantics alone: the payoff functions, the
Turing-machine enumeration and simulator, literal numerals, and the bounded
backtracking game. Nothing in this module calls into lamc; the node classes
it builds numerals from are plain data.
"""

from __future__ import annotations

from functools import lru_cache


### payoffs (block order: z block, x block, y block)

def _pick(a: int, b: int) -> int:
    return a if a > 0 else b


def phi4(x1: int, x2: int, y1: int, y2: int) -> int:
    """0 iff x1 = y1 or pick(x1, x2) > pick(y1, y2)."""
    return 0 if x1 == y1 or _pick(x1, x2) > _pick(y1, y2) else 1


def leq(x: int, y: int) -> int:
    return 0 if x <= y else 1


def equal(x: int, y: int) -> int:
    return 0 if x == y else 1


def never(x: int, y: int) -> int:
    return 1


### the Turing-machine enumeration (blank, 0, 1; state 0 halts)

MAX_STATES = 4


def _block(states: int) -> int:
    return (states + 1) * (6 * (states + 1)) ** (3 * states)


def decode_machine(index: int) -> tuple[int, int, list[tuple[int, int, int]]]:
    """(states, start, rules) of the index-th table: blocks by state count,
    then start state least significant, then one digit
    (write*2 + move)*(states+1) + next per (state, symbol), first rule
    least significant."""
    states = 1
    while index >= _block(states):
        index -= _block(states)
        states += 1
        if states > MAX_STATES:
            raise ValueError("machine index out of range")
    base = 6 * (states + 1)
    start, index = index % (states + 1), index // (states + 1)
    rules = []
    for _ in range(3 * states):
        digit, index = index % base, index // base
        wm, nxt = divmod(digit, states + 1)
        rules.append((wm // 2, wm % 2, nxt))
    return states, start, rules


@lru_cache(maxsize=None)
def halting_time(index: int, limit: int) -> int | None:
    """Transitions until the machine halts on the empty tape, None if it is
    still running after `limit` transitions."""
    _, state, rules = decode_machine(index)
    tape: dict[int, int] = {}
    pos = steps = 0
    while state != 0:
        if steps >= limit:
            return None
        write, move, state_next = rules[(state - 1) * 3 + tape.get(pos, 0)]
        tape[pos] = write
        pos += 1 if move == 1 else -1
        state = state_next
        steps += 1
    return steps


def halts_before(index: int, n: int) -> bool:
    """The machine stops strictly before n transitions."""
    if n <= 0:
        return False
    t = halting_time(index, n - 1)
    return t is not None


def f_halt(z: int, x: int, y: int) -> int:
    """Claim x > 0: halts before x steps. Claim 0: challenge y shows no halt
    before y steps."""
    if x > 0:
        return 0 if halts_before(z, x) else 1
    return 0 if not halts_before(z, y) else 1


### the bounded backtracking game from the root position

def bounded_game_win(payoff, rounds: int, bound: int, zs: tuple = ()) -> bool:
    """Eloise plays in [0, bound + 1], Abelard in [0, bound]; Eloise wins a
    complete play whose payoff is 0."""

    @lru_cache(maxsize=None)
    def value(ms: tuple, ns: tuple) -> bool:
        if len(ms) == rounds:
            return payoff(*zs, *ms, *ns) == 0
        return any(all(value(ms + (m,), ns + (n,)) for n in range(bound + 1))
                   for m in range(bound + 2))

    return value((), ())


### literal numerals, read from the node classes

@lru_cache(maxsize=None)
def _numeral_shapes():
    from lamc.syntax import App, Bound, Lam

    zero = Lam(Lam(Bound(1), "f"), "x")                     # \x f. x
    succ = Lam(Lam(Lam(App(Bound(0), App(App(Bound(2), Bound(1)), Bound(0))),
                       "f"), "x"), "n")                     # \n x f. f (n x f)
    return App, zero, succ


def numeral_value(t) -> int | None:
    """n when t is the successor applied n times to zero, else None; the
    successor and zero are rebuilt here from their documented shapes."""
    App, zero, succ = _numeral_shapes()
    n = 0
    while isinstance(t, App) and t.fn == succ:
        n += 1
        t = t.arg
    return n if t == zero else None
