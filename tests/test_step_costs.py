"""The fixed cost of a machine step and of a referee check: each node keeps
one flag word, equality answers from identity or unequal hashes before it
walks, a walk expands each pair of shared nodes once, small numerals are
shared, and the referees look a configuration up only when its head term's
hash is that of some entry's handle."""

import random
import time

import pytest

import lamc.syntax
from lamc.formula import builtin_formulae
from lamc.game import (
    History,
    HistoryEntry,
    RandomAbelard,
    fresh_handle,
    play_g1,
    play_g2,
)
from lamc.machine import MachineConfig
from lamc.realizers import SELF_APP_GROW
from lamc.syntax import (
    HAS_CONST,
    HAS_FREE,
    HAS_STACKNAME,
    MAX_NUMERAL_LITERAL,
    SUCC,
    ZERO,
    App,
    Bottom,
    Bound,
    Cont,
    Const,
    FreeVar,
    Lam,
    Node,
    Process,
    Push,
    _NUMERALS,
    decode_numeral,
    numeral,
)
from test_syntax import saved_chain

PHI4 = builtin_formulae()["phi4"]
DIVERGING = App(SELF_APP_GROW, SELF_APP_GROW)


### seeded random nodes with every leaf kind, unbound indices included

def random_node(rng, kind, depth):
    """A random term, stack or process of the given depth. Names come from
    small pools, so two draws often share leaves."""
    if kind == "process":
        return Process(random_node(rng, "term", depth - 1),
                       random_node(rng, "stack", depth - 1))
    if kind == "stack":
        if depth <= 0 or rng.random() < 0.3:
            return Bottom(rng.choice(("a0", "a1")))
        return Push(random_node(rng, "term", depth - 1),
                    random_node(rng, "stack", depth - 1))
    pick = rng.randrange(9) if depth > 0 else rng.randrange(3)
    if pick == 0:
        return Bound(rng.randrange(4))
    if pick == 1:
        return FreeVar(rng.choice(("x", "y")))
    if pick == 2:
        return Const(rng.choice(("c_a", "c_b")))
    if pick < 5:
        return Lam(random_node(rng, "term", depth - 1), "x")
    if pick < 8:
        return App(random_node(rng, "term", depth - 1),
                   random_node(rng, "term", depth - 1))
    return Cont(random_node(rng, "stack", depth - 1))


def children(n):
    for field in ("body", "fn", "arg", "stack", "top", "rest", "term"):
        if hasattr(n, field):
            yield getattr(n, field)


def reference_flags(n):
    """The HAS_* bits of every leaf below n, read off the leaves."""
    if isinstance(n, FreeVar):
        return HAS_FREE
    if isinstance(n, Const):
        return HAS_CONST
    if isinstance(n, Bottom):
        return HAS_STACKNAME
    out = 0
    for c in children(n):
        out |= reference_flags(c)
    return out


def reference_free_width(n, binders=0):
    """One more than the largest index below n that no binder inside n binds."""
    if isinstance(n, Bound):
        return n.index - binders + 1 if n.index >= binders else 0
    inner = binders + 1 if isinstance(n, Lam) else binders
    return max((reference_free_width(c, inner) for c in children(n)), default=0)


def every_node(root):
    todo = [root]
    while todo:
        n = todo.pop()
        yield n
        todo += children(n)


@pytest.mark.parametrize("kind", ["term", "stack", "process"])
def test_flag_word_and_free_width_agree_with_the_leaves(kind):
    rng = random.Random(f"flags-{kind}")
    seen_bits = 0
    for _ in range(300):
        root = random_node(rng, kind, rng.randrange(1, 7))
        for n in every_node(root):
            assert n.flags == reference_flags(n), n
            assert n.free_width == reference_free_width(n), n
            seen_bits |= n.flags
    assert seen_bits == HAS_FREE | HAS_CONST | HAS_STACKNAME


def test_nodes_keep_three_slots():
    assert Node.__slots__ == ("_hash", "free_width", "flags")
    for n in (App(ZERO, ZERO), Push(ZERO, Bottom("a0")), Bound(0)):
        assert not hasattr(n, "__dict__")


### equality: identity and hashes first, then one expansion per pair

def reference_eq(a, b):
    """Structural equality as a tree walk, with no hash and no memo."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Bound):
        return a.index == b.index
    if isinstance(a, (FreeVar, Const, Bottom)):
        return a.name == b.name
    return all(reference_eq(x, y) for x, y in zip(children(a), children(b)))


def colliding(node):
    """A copy of node in which every node hashes to 0, so that equality can
    only decide by walking. Shared nodes stay shared in the copy."""
    copies = {}

    def copy(n):
        if id(n) not in copies:
            kids = [copy(c) for c in children(n)]
            if isinstance(n, Lam):
                out = Lam(*kids, n.hint)
            elif isinstance(n, (App, Push, Process)):
                out = type(n)(*kids)
            elif isinstance(n, Cont):
                out = Cont(*kids)
            else:
                out = type(n)(n.index if isinstance(n, Bound) else n.name)
            out._hash = 0
            copies[id(n)] = out
        return copies[id(n)]

    return copy(node)


def test_structural_eq_agrees_with_a_tree_walk_when_every_hash_collides():
    rng = random.Random("collide")
    outcomes = set()
    for _ in range(400):
        kind = rng.choice(("term", "stack", "process"))
        a = random_node(rng, kind, rng.randrange(1, 5))
        b = random_node(rng, kind, rng.randrange(1, 5)) if rng.random() < 0.7 else a
        if kind == "stack":
            # a stack saved on top of itself, as cc builds it
            a, b = Push(Cont(a), a), Push(Cont(b), b)
        ca, cb = colliding(a), colliding(b)
        expected = reference_eq(ca, cb)
        assert (ca == cb) == expected and (ca != cb) == (not expected)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_shared_subtrees_collide_and_still_differ_in_one_leaf():
    left = saved_chain(12)
    right = saved_chain(12)
    # the same chain over another constant: equal hashes only once collided
    other = Push(Const("c_b"), Bottom("a0"))
    for _ in range(12):
        other = Push(Cont(other), other)
    assert colliding(left) == colliding(right)
    assert colliding(left) != colliding(other)


@pytest.mark.parametrize("n", [18, 24, 500])
def test_separately_built_saved_chains_compare_equal_fast(n):
    a, b = saved_chain(n), saved_chain(n)
    assert a is not b
    start = time.perf_counter()
    assert a == b
    assert not a != b
    assert time.perf_counter() - start < 1


def test_unequal_hashes_answer_without_walking(monkeypatch):
    calls = []
    walk = lamc.syntax._structural_eq
    monkeypatch.setattr(lamc.syntax, "_structural_eq",
                        lambda a, b: calls.append(1) or walk(a, b))
    a, b = App(Const("c_a"), ZERO), App(Const("c_b"), ZERO)
    assert a != b and not a == b
    assert a == a and not a != a
    assert decode_numeral(App(Const("c_a"), ZERO)) is None
    assert decode_numeral(Lam(Bound(0), "x")) is None
    assert decode_numeral(numeral(7)) == 7
    assert calls == []
    # equal hashes on distinct nodes still walk
    assert App(Const("c_a"), ZERO) == App(Const("c_a"), ZERO)
    assert calls == [1]


### shared numerals

def test_numerals_inside_the_table_are_shared():
    for n in range(len(_NUMERALS)):
        assert numeral(n) is numeral(n) is _NUMERALS[n]
    assert numeral(0) is ZERO
    assert numeral(1).fn is SUCC and numeral(1).arg is ZERO
    edge = len(_NUMERALS)
    assert numeral(edge) is not numeral(edge)
    assert numeral(edge).arg is _NUMERALS[-1]


def test_numerals_decode_at_the_table_edge_and_the_literal_cap():
    edge = len(_NUMERALS)
    for n in (edge - 1, edge, edge + 1, MAX_NUMERAL_LITERAL):
        assert decode_numeral(numeral(n)) == n
    # a chain built by hand, sharing nothing with the table, is equal
    t = Lam(Lam(Bound(1), "f"), "x")
    for _ in range(edge + 1):
        t = App(Lam(Lam(Lam(App(Bound(0), App(App(Bound(2), Bound(1)), Bound(0))),
                            "f"), "x"), "n"), t)
    assert t == numeral(edge + 1) and decode_numeral(t) == edge + 1


### the referees' head-term gate

def count_lookups(monkeypatch):
    calls = {"final_matches": 0, "open_match": 0}
    for name in calls:
        plain = getattr(History, name)

        def counted(self, p, plain=plain, name=name):
            calls[name] += 1
            return plain(self, p)

        monkeypatch.setattr(History, name, counted)
    return calls


def test_a_diverging_g1_phase_looks_nothing_up(monkeypatch):
    calls = count_lookups(monkeypatch)
    reg = MachineConfig(quote=True, eq=True, eq_nat=True).build()
    out = play_g1(reg, DIVERGING, PHI4, fresh_handle(reg), RandomAbelard(reg, 0),
                  phase_budget=1000)
    assert (out.verdict, out.reason, out.total_steps) == ("AbelardWin", "budget", 1000)
    assert calls == {"final_matches": 0, "open_match": 0}


def test_a_diverging_g2_thread_looks_nothing_up(monkeypatch):
    calls = count_lookups(monkeypatch)
    reg = MachineConfig(quote=True, eq=True, eq_nat=True).build()
    out = play_g2(reg, DIVERGING, PHI4, fresh_handle(reg), RandomAbelard(reg, 0),
                  total_budget=1000)
    assert (out.verdict, out.reason, out.total_steps) == ("AbelardWin", "budget", 1000)
    assert calls == {"final_matches": 0, "open_match": 0}


def test_history_heads_hold_every_entrys_handle_hash():
    h = History(2)
    u0, u1 = Const("c_a"), App(Const("c_b"), ZERO)
    h.append(HistoryEntry((), (), u0, Bottom("a0")))
    h.append(HistoryEntry((1,), (2,), u1, Bottom("a1")))
    h.append(HistoryEntry((1, 0), (2, 3), u1, Bottom("a0")))
    assert h.heads == {u0._hash, u1._hash}
