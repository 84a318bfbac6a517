"""Library of closed terms that play the arithmetic games.

Plain lambda terms are parsed from source text against a registry. The
universal strategy for a formula installs native instructions whose single
machine step performs the documented multi-step contract; the games observe
only machine configurations, so that backend is behaviorally faithful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterator, Optional

from .formula import ArithFormula, FN_HALT01, make_theta
from .machine import Machine, walk
from .syntax import (
    App,
    Bound,
    Cont,
    Const,
    HAS_STACKNAME,
    Lam,
    LamcError,
    NIL,
    Process,
    Push,
    Registry,
    Stack,
    SUCC,
    Term,
    app,
    cons_cell,
    decode_list,
    decode_nat_tuple,
    decode_numeral,
    encode_list,
    fv,
    is_closed,
    lam,
    numeral,
    parse_term,
    pop_items,
    random_closed_term,
    random_stack,
)

### basic combinators

IDENT: Term = Lam(Bound(0), "x")
SELF_APP: Term = Lam(App(Bound(0), Bound(0)), "x")
SELF_APP_GROW: Term = Lam(App(App(Bound(0), Bound(0)), IDENT), "x")


def is_proof_like(t: Term) -> bool:
    """No captured stacks anywhere in the term."""
    return not t.flags & HAS_STACKNAME


def check_identity_like(term: Term, registry: Registry, trials: int = 100,
                        seed: int = 0, budget: int = 50) -> bool:
    """Fuzz the contract t * u.pi > u * pi over random closed u and pi: the
    target must be among the first budget + 1 configurations of the run,
    which hold every configuration a repeat would revisit. A budget below 0
    acts as 0."""
    rng = random.Random(seed)
    machine = Machine(registry)
    for _ in range(trials):
        u = random_closed_term(rng, registry)
        pi = random_stack(rng, registry)
        target = Process(u, pi)
        p = Process(term, Push(u, pi))
        if not is_closed(p):
            raise LamcError("run wants a closed process")
        for idx, (q, _) in enumerate(walk(machine, p)):
            if q == target:
                break
            if idx >= budget:
                return False
        else:
            return False
    return True


### storage: force a numeral-valued argument down to its literal numeral

def storage_operator() -> Term:
    """A closed T with T * f.v.pi > f * n.pi whenever the weak head behavior
    of v computes the literal numeral n. Works by threading a counter
    continuation through v's own iteration."""
    base = lam("c", app(fv("c"), numeral(0)))
    step = lam("t c", app(fv("t"), lam("m", app(fv("c"), App(SUCC, fv("m"))))))
    return lam("f v", app(fv("v"), base, step, fv("f")))


def _require(registry: Registry, *names: str) -> None:
    missing = [n for n in names if not registry.is_instruction(n)]
    if missing:
        raise LamcError(f"registry lacks required instructions: {missing}")


### enumeration of number tuples (diagonal pairing, all-zeros first)

def cantor_pair(x: int, y: int) -> int:
    s = x + y
    return s * (s + 1) // 2 + y


def cantor_unpair(i: int) -> tuple[int, int]:
    s = (isqrt(8 * i + 1) - 1) // 2
    y = i - s * (s + 1) // 2
    return s - y, y


def tuple_index(tup: tuple[int, ...]) -> int:
    if not tup:
        raise LamcError("tuple enumeration starts at width 1")
    idx = tup[-1]
    for x in reversed(tup[:-1]):
        idx = cantor_pair(x, idx)
    return idx


def next_tuple(index: int, h: int) -> tuple[int, ...]:
    """The index-th tuple of the fixed enumeration of width-h tuples."""
    if h < 1:
        raise LamcError("tuple enumeration starts at width 1")
    if index < 0:
        raise LamcError("tuple index must be a natural number")
    out = []
    for _ in range(h - 1):
        x, index = cantor_unpair(index)
        out.append(x)
    out.append(index)
    return tuple(out)


def tuple_successor(tup: tuple[int, ...]) -> tuple[int, ...]:
    return next_tuple(tuple_index(tup) + 1, len(tup))


def box_max_index(bound: int, h: int) -> int:
    """Every tuple with entries <= bound occurs at or before this index.
    Cantor pairing grows with each argument, so the corner is the last."""
    return tuple_index((bound,) * h)


### recorded-position lists carried by the universal strategy

@dataclass(frozen=True)
class HistoryCell:
    """One recorded position: the numbers played, who to hand the next number
    to, and the captured stack to resume on."""

    ms: tuple[int, ...]
    ns: tuple[int, ...]
    u: Term
    k: Term


class _Spine:
    """The cells of a history list built by a rule of this run, newest first:
    the list's first cell and the spine of its tail, None for nil."""

    __slots__ = ("cell", "rest")

    def __init__(self, cell: HistoryCell, rest: Optional[_Spine]):
        self.cell = cell
        self.rest = rest

    def __iter__(self) -> Iterator[HistoryCell]:
        spine: Optional[_Spine] = self
        while spine is not None:
            yield spine.cell
            spine = spine.rest


def _item(t: Term, i: int) -> Term:
    """Item i of a list term known to be longer than i: for a decoded nat
    tuple, the numeral itself, so a move reuses it instead of a copy."""
    for _ in range(i):
        t = t.arg
    return t.fn.arg


def _history_cons(machine: Machine, cell: HistoryCell, tail: Term) -> Term:
    """The history list tail with cell in front. It is recorded when the tail
    is nil or recorded, so that the lookup never decodes it."""
    entry = encode_list([machine.nat_tuple_term(cell.ms),
                         machine.nat_tuple_term(cell.ns), cell.u, cell.k])
    node = cons_cell(entry, tail)
    rest = None if tail is NIL else machine.recorded(tail)
    if tail is NIL or isinstance(rest, _Spine):
        machine.record(node, _Spine(cell, rest))
    return node


def decode_history(t: Term) -> Optional[list[HistoryCell]]:
    cells = decode_list(t)
    if cells is None:
        return None
    out = []
    for cell in cells:
        fields = decode_list(cell)
        if fields is None or len(fields) != 4:
            return None
        ms = decode_nat_tuple(fields[0])
        ns = decode_nat_tuple(fields[1])
        if ms is None or ns is None:
            return None
        out.append(HistoryCell(ms, ns, fields[2], fields[3]))
    return out


### the code-comparing realizer for the leq formula

_LEQ_T2_TEXT = ("\\n w. quote (\\q. eq_nat q m (eq w (y y) (\\i. i) w) w)")
_LEQ_T1_TEXT = f"\\y. u #0 ({_LEQ_T2_TEXT})"
_LEQ_TEXT = f"\\u. quote (\\m. ({_LEQ_T1_TEXT}) ({_LEQ_T1_TEXT}))"


def build_t_leq(registry: Registry) -> Term:
    """Realizer for the one-round leq game that never plays a second numeral:
    it codes its start stack and later recognizes a replay of its own round
    opener by that code, answering with ident on the replayed stack."""
    _require(registry, "quote", "eq", "eq_nat")
    return parse_term(_LEQ_TEXT, registry)


### the halting-game realizer

def build_t_H(registry: Registry) -> Term:
    """Realizer for the halting game: opens with 0 (betting the machine runs
    forever); if the opponent produces a count p that the machine halts
    within, it rewinds to the opening stack and plays p instead."""
    _require(registry, "cc")
    if not registry.is_instruction("Theta_halt01"):
        make_theta(registry, FN_HALT01, (1, 1))
    return parse_term(
        "\\m u. cc (\\k. u #0 "
        "(\\p v. Theta_halt01 m p (k (u p (\\q w. w))) v))",
        registry)


### the universal strategy: enumerate tuples, resume from recorded positions

def _install_next(registry: Registry) -> None:
    if registry.is_instruction("next"):
        return

    def rule(machine: Machine, s: Stack):
        if not (isinstance(s, Push) and isinstance(s.rest, Push)):
            return None
        tup = machine.nat_tuple(s.top)
        if tup is None or not tup:
            return None
        cont = s.rest.top
        succ = machine.nat_tuple_term(tuple_successor(tup))
        return Process(cont, Push(succ, s.rest.rest))

    registry.install_instruction("next", rule, label="next")


def build_t_phi(registry: Registry, phi: ArithFormula) -> Term:
    """Universal realizer for a closed formula with h > 0 quantifier rounds
    and no leading universal block. Walks the tuple enumeration; on a failed
    complete position it computes the next tuple and resumes play from the
    deepest recorded position that matches a prefix of it."""
    h = phi.rounds
    if h == 0:
        raise LamcError("universal strategy wants at least one round")
    if phi.leading_foralls:
        raise LamcError(
            "universal strategy does not take leading universal values; "
            "use a specialized realizer")
    head_name = f"t_phi_{phi.name}"
    if registry.is_instruction(head_name):
        return Const(head_name)

    theta_name = f"Theta_{phi.name}"
    if not registry.is_instruction(theta_name):
        make_theta(registry, phi.fn, (h, h), name=theta_name)
    _install_next(registry)
    turn_names = [f"T{i}_{phi.name}" for i in range(1, h + 1)]
    lookup_name = f"L_{phi.name}"
    advance_name = f"N_{phi.name}"

    def turn_term(i: int, m_enc: Term, n_enc: Term, h_enc: Term) -> Term:
        return app(Const(turn_names[i - 1]), m_enc, n_enc, h_enc)

    def rule_head(machine: Machine, s: Stack):
        if not isinstance(s, Push):
            return None
        u0, pi0 = s.top, s.rest
        root = _history_cons(machine, HistoryCell((), (), u0, Cont(pi0)), NIL)
        m_enc = machine.nat_tuple_term((0,) * h)
        t1 = turn_term(1, m_enc, machine.nat_tuple_term(()), root)
        return Process(u0, Push(_item(m_enc, 0), Push(t1, pi0)))

    def make_turn_rule(i: int) -> Callable:
        def rule(machine: Machine, s: Stack):
            popped = pop_items(s, 5)
            if popped is None:
                return None
            (m_enc, n_enc, h_enc, n_term, u_term), rest = popped
            m_vec = machine.nat_tuple(m_enc)
            n_prefix = machine.nat_tuple(n_enc)
            n_val = decode_numeral(n_term)
            if (m_vec is None or len(m_vec) != h
                    or n_prefix is None or len(n_prefix) != i - 1
                    or n_val is None):
                return None
            n_vec = (*n_prefix, n_val)
            new_n_enc = machine.nat_tuple_term(n_vec)
            h2 = _history_cons(machine, HistoryCell(m_vec[:i], n_vec, u_term,
                                                    Cont(rest)), h_enc)
            if i < h:
                nxt = turn_term(i + 1, m_enc, new_n_enc, h2)
                return Process(u_term, Push(_item(m_enc, i), Push(nxt, rest)))
            fallback = app(Const(advance_name), m_enc, h2)
            stack = Push(m_enc, Push(new_n_enc, Push(u_term,
                         Push(fallback, rest))))
            return Process(Const(theta_name), stack)

        return rule

    def rule_advance(machine: Machine, s: Stack):
        popped = pop_items(s, 2)
        if popped is None:
            return None
        (m_enc, h_enc), rest = popped
        looker = App(Const(lookup_name), h_enc)
        return Process(Const("next"), Push(m_enc, Push(looker, rest)))

    def rule_lookup(machine: Machine, s: Stack):
        popped = pop_items(s, 2)
        if popped is None:
            return None
        (h_enc, m_enc), _rest = popped
        m_vec = machine.nat_tuple(m_enc)
        cells = machine.recorded(h_enc)
        if not isinstance(cells, _Spine):
            cells = decode_history(h_enc)
        if m_vec is None or len(m_vec) != h or cells is None:
            return None
        for depth in range(h - 1, -1, -1):
            prefix = m_vec[:depth]
            for cell in cells:
                if cell.ms == prefix:
                    if not isinstance(cell.k, Cont):
                        return None
                    nxt = turn_term(depth + 1, m_enc,
                                    machine.nat_tuple_term(cell.ns), h_enc)
                    return Process(cell.u, Push(_item(m_enc, depth),
                                                Push(nxt, cell.k.stack)))
        return None

    registry.install_instruction(head_name, rule_head, label=head_name)
    for i in range(1, h + 1):
        registry.install_instruction(turn_names[i - 1], make_turn_rule(i),
                                     label=turn_names[i - 1])
    registry.install_instruction(advance_name, rule_advance, label=advance_name)
    registry.install_instruction(lookup_name, rule_lookup, label=lookup_name)
    return Const(head_name)


### catalog for front ends

PLAY_ZERO_TEXT = "\\u. u #0 (\\n v. v)"


@dataclass(frozen=True)
class RealizerEntry:
    name: str
    summary: str
    build: Callable[[Registry], Term]


def realizer_catalog() -> dict[str, RealizerEntry]:
    from .formula import builtin_formulae

    table = builtin_formulae()
    entries = [
        RealizerEntry("ident", "the identity, wins nothing by itself",
                      lambda reg: IDENT),
        RealizerEntry("play_zero", "opens with 0 and then yields",
                      lambda reg: parse_term(PLAY_ZERO_TEXT, reg)),
        RealizerEntry("t_leq", "wins the leq game by replay detection",
                      build_t_leq),
        RealizerEntry("t_halt", "wins the halting game by rewinding",
                      build_t_H),
        RealizerEntry("storage", "forces a numeral argument to its literal",
                      lambda reg: storage_operator()),
    ]
    for name, phi in table.items():
        if phi.rounds > 0 and not phi.leading_foralls:
            entries.append(RealizerEntry(
                f"t_phi_{name}",
                f"universal strategy on the {name} formula",
                lambda reg, phi=phi: build_t_phi(reg, phi)))
    return {e.name: e for e in entries}


def resolve_realizer(registry: Registry, name: str,
                     formula_table: Optional[dict[str, ArithFormula]] = None
                     ) -> Term:
    """Build the named realizer against the registry; t_phi_<formula> names
    resolve through the given formula table. The result must be proof-like."""
    catalog = realizer_catalog()
    term: Optional[Term] = None
    if name in catalog:
        term = catalog[name].build(registry)
    elif name.startswith("t_phi_") and formula_table:
        formula_name = name[len("t_phi_"):]
        if formula_name in formula_table:
            term = build_t_phi(registry, formula_table[formula_name])
    if term is None:
        known = ", ".join(sorted(catalog))
        raise LamcError(f"unknown realizer {name!r} (known: {known})")
    if not is_proof_like(term):
        raise LamcError(f"realizer {name!r} is not proof-like")
    return term
