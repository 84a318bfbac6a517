"""Machine steps, runs, extra instructions, substitutivity."""

import random

import pytest

from lamc.machine import (
    Machine,
    MachineConfig,
    RULE_GRAB,
    RULE_PUSH,
    RULE_QUOTE,
    RULE_RESTORE,
    RULE_SAVE,
    run,
    walk,
)
from lamc.syntax import (
    App,
    Bottom,
    Const,
    Cont,
    LamcError,
    Process,
    Push,
    numeral,
    parse_process,
    parse_stack,
    parse_term,
    process_to_text,
    random_closed_term,
    random_stack,
    subst_const,
    subst_stack_const,
)


def mk(reg=None):
    return Machine(reg if reg is not None else MachineConfig().build())


def step(m, p):
    """One transition: the next configuration, or None when stuck."""
    return m.step_labeled(p)[0]


### the four structural rules

def test_push_rule():
    m = mk()
    p = parse_process("(\\x. x) (\\y. y) * a0", m.registry)
    q = step(m, p)
    assert q == parse_process("(\\x. x) * (\\y. y) . a0", m.registry)


def test_grab_rule():
    m = mk()
    p = parse_process("(\\x. x x) * (\\y. y) . a0", m.registry)
    q = step(m, p)
    assert q == parse_process("(\\y. y) (\\y. y) * a0", m.registry)


def test_save_rule():
    m = mk()
    p = parse_process("cc * (\\x. x) . a0", m.registry)
    q = step(m, p)
    assert q == parse_process("(\\x. x) * k[a0] . a0", m.registry)


def test_restore_rule():
    m = mk()
    p = parse_process("k[(\\x. x) . a0] * (\\y. y y) . a1", m.registry)
    q = step(m, p)
    assert q == parse_process("(\\y. y y) * (\\x. x) . a0", m.registry)


def test_stuck_heads():
    m = mk()
    for text in ["\\x. x * a0", "cc * a0", "k[a0] * a1", "c * a0"]:
        reg = MachineConfig(inert_consts=("c",)).build()
        mm = Machine(reg)
        p = parse_process(text, reg)
        assert step(mm, p) is None


### frozen small traces

def test_loop_cycles_with_entry_and_period():
    m = mk()
    p = parse_process("(\\x. x) * ((\\x. x x) (\\x. x x)) . a0", m.registry)
    tr = run(m, p, budget=50)
    assert tr.terminal.kind == "cycle"
    assert tr.terminal.entry == 1
    assert tr.terminal.period == 2
    assert len(tr.steps) == 4
    assert tr.steps[3] == tr.steps[1]
    assert tr.rules == [None, RULE_GRAB, RULE_PUSH, RULE_GRAB]
    assert process_to_text(tr.steps[0]) == "(\\x. x) * ((\\x. x x) (\\x. x x)) . a0"
    assert tr.to_text().splitlines()[-1] == "terminal: cycle(entry=1, period=2)"


def test_identity_applied_to_identity_halts_in_two_steps():
    m = mk()
    p = parse_process("(\\x. x) (\\x. x) * a0", m.registry)
    tr = run(m, p, budget=50)
    assert tr.terminal.kind == "stuck"
    assert len(tr.steps) == 3
    assert tr.steps[2] == parse_process("(\\x. x) * a0", m.registry)


def test_growing_spine_adds_one_item_every_three_steps():
    m = mk()
    dp = "(\\x. x x (\\z. z))"
    p = parse_process(f"{dp} {dp} * a0", m.registry)
    tr = run(m, p, budget=60)
    assert tr.terminal.kind == "budget"
    ident = parse_term("\\z. z", m.registry)
    start = p
    for k in range(0, 20):
        expect_stack = parse_stack("a0", m.registry)
        for _ in range(k):
            expect_stack = Push(ident, expect_stack)
        assert tr.steps[3 * k] == Process(start.term, expect_stack)


def test_run_budget_counts_transitions():
    m = mk()
    dp = "(\\x. x x (\\z. z))"
    p = parse_process(f"{dp} {dp} * a0", m.registry)
    tr = run(m, p, budget=2)
    assert tr.terminal.kind == "budget"
    assert len(tr.steps) == 3


def test_run_watchers_see_initial_configuration():
    m = mk()
    p = parse_process("(\\x. x) (\\x. x) * a0", m.registry)
    tr = run(m, p, budget=10, watchers=[lambda q: True])
    assert tr.terminal.kind == "watcher"
    assert tr.terminal.watcher == 0
    assert tr.terminal.at == 0
    assert len(tr.steps) == 1


def test_run_watcher_mid_trace():
    m = mk()
    target = parse_process("(\\x. x) * a0", m.registry)
    p = parse_process("(\\x. x) (\\x. x) * a0", m.registry)
    tr = run(m, p, budget=10, watchers=[lambda q: q == target])
    assert tr.terminal.kind == "watcher"
    assert tr.terminal.at == 2


def test_run_requires_closed_process():
    m = mk()
    from lamc.syntax import Bound
    with pytest.raises(LamcError):
        run(m, Process(Bound(0), Bottom("a0")))


### walk: the one stepping loop

def test_walk_yields_the_start_then_each_step_until_stuck():
    reg = MachineConfig().build()
    p = parse_process("(\\x. x) (\\y. y) * a0", reg)
    assert list(walk(Machine(reg), p)) == [
        (p, None),
        (parse_process("(\\x. x) * (\\y. y) . a0", reg), RULE_PUSH),
        (parse_process("(\\y. y) * a0", reg), RULE_GRAB),
    ]


def test_walk_steps_only_when_asked():
    reg = MachineConfig(quote=True).build()
    m = Machine(reg)
    configs = walk(m, parse_process("quote * (\\x. x) . a0", reg))
    next(configs)
    assert m.quote_code(parse_stack("a1", reg)) == 0   # nothing quoted yet
    assert next(configs) == (parse_process("(\\x. x) * #1 . a0", reg), RULE_QUOTE)


### continuations save and restore

def test_cc_discards_and_restores():
    # cc (\k. k u v) * pi restores pi under u, dropping v
    reg = MachineConfig(inert_consts=("u_c", "v_c")).build()
    m = Machine(reg)
    p = parse_process("cc (\\k. k u_c v_c) * a0", reg)
    tr = run(m, p, budget=20)
    assert tr.terminal.kind == "stuck"
    assert tr.steps[-1] == parse_process("u_c * a0", reg)
    assert RULE_SAVE in tr.rules
    assert RULE_RESTORE in tr.rules


### quote

def test_quote_codes_are_interned_first_seen():
    reg = MachineConfig(quote=True).build()
    m = Machine(reg)
    p0 = parse_process("quote * (\\x. x) . a0", reg)
    q0 = step(m, p0)
    assert q0 == parse_process("(\\x. x) * #0 . a0", reg)
    p1 = parse_process("quote * (\\x. x) . (\\y. y) . a0", reg)
    q1 = step(m, p1)
    assert q1 == parse_process("(\\x. x) * #1 . (\\y. y) . a0", reg)
    # same stack again, same code
    assert step(m, p0) == q0
    # a fresh machine starts over
    assert step(Machine(reg), p1) == parse_process("(\\x. x) * #0 . (\\y. y) . a0", reg)


def test_quote_needs_an_argument():
    reg = MachineConfig(quote=True).build()
    m = Machine(reg)
    assert step(m, parse_process("quote * a0", reg)) is None


### eq and eq_nat

def test_eq_branches_on_alpha_equality():
    reg = MachineConfig(eq=True).build()
    m = Machine(reg)
    p = parse_process("eq * (\\x. x) . (\\y. y) . #1 . #2 . a0", reg)
    assert step(m, p) == parse_process("#1 * a0", reg)
    p = parse_process("eq * (\\x. x) . (\\y. y y) . #1 . #2 . a0", reg)
    assert step(m, p) == parse_process("#2 * a0", reg)


def test_eq_nat_branches_on_numeral_value():
    reg = MachineConfig(eq_nat=True).build()
    m = Machine(reg)
    p = parse_process("eq_nat * #3 . #3 . cc . eq_nat . a0", reg)
    assert step(m, p) == parse_process("cc * a0", reg)
    p = parse_process("eq_nat * #3 . #4 . cc . eq_nat . a0", reg)
    assert step(m, p) == parse_process("eq_nat * a0", reg)


def test_eq_nat_sticks_on_non_numerals():
    reg = MachineConfig(eq_nat=True).build()
    m = Machine(reg)
    p = parse_process("eq_nat * (\\x. x) . #3 . cc . cc . a0", reg)
    assert step(m, p) is None
    # beta-equivalent but not literal: still refused
    p = parse_process("eq_nat * (\\x f. f x) . #1 . cc . cc . a0", reg)
    assert step(m, p) is None


def test_eq_and_eq_nat_need_four_items():
    reg = MachineConfig(eq=True, eq_nat=True).build()
    m = Machine(reg)
    assert step(m, parse_process("eq * #1 . #1 . cc . a0", reg)) is None
    assert step(m, parse_process("eq_nat * #1 . #1 . cc . a0", reg)) is None


### substitutivity of interaction constants

def _random_steppable(rng, reg, m):
    for _ in range(200):
        p = Process(
            random_closed_term(rng, reg, max_depth=4, allow_cont=True),
            random_stack(rng, reg, max_depth=3),
        )
        if step(m, p) is not None:
            return p
    raise AssertionError("could not find a steppable random process")


def test_inert_constant_substitution_commutes_with_step():
    reg = MachineConfig(eq_nat=True, inert_consts=("c_a", "c_b")).build()
    m = Machine(reg)
    rng = random.Random(5)
    for _ in range(150):
        p = _random_steppable(rng, reg, m)
        u = random_closed_term(rng, reg, max_depth=3)
        q = step(m, p)
        assert step(m, subst_const(p, "c_a", u)) == subst_const(q, "c_a", u)


def test_stack_constant_substitution_commutes_with_step():
    reg = MachineConfig(inert_consts=("c_a",)).build()
    m = Machine(reg)
    rng = random.Random(6)
    pi0 = parse_stack("(\\x. x) . a1", reg)
    for _ in range(150):
        p = _random_steppable(rng, reg, m)
        q = step(m, p)
        assert step(m, subst_stack_const(p, "a0", pi0)) == subst_stack_const(q, "a0", pi0)


def test_quote_breaks_substitutivity_regression():
    # within one machine: delta.a0 is interned first, so the constant stack
    # c_a.a0 gets a fresh code, but its substitution instance reuses code 0
    reg = MachineConfig(quote=True, inert_consts=("c_a",)).build()
    m = Machine(reg)
    delta = parse_term("\\x. x x", reg)
    m.quote_code(parse_stack("(\\x. x x) . a0", reg))
    p = parse_process("quote * (\\x. x) . c_a . a0", reg)
    q = step(m, p)
    assert q == parse_process("(\\x. x) * #1 . c_a . a0", reg)
    p_sub = subst_const(p, "c_a", delta)
    q_sub_expected = subst_const(q, "c_a", delta)
    assert step(m, p_sub) == parse_process("(\\x. x) * #0 . (\\x. x x) . a0", reg)
    assert step(m, p_sub) != q_sub_expected


def test_eq_breaks_substitutivity_regression():
    reg = MachineConfig(eq=True, inert_consts=("c_a", "c_b")).build()
    m = Machine(reg)
    p = parse_process("eq * c_a . c_b . (\\x. x) . (\\y. y y) . a0", reg)
    q = step(m, p)
    assert q == parse_process("(\\y. y y) * a0", reg)
    p_sub = subst_const(p, "c_a", Const("c_b"))
    assert step(m, p_sub) == parse_process("(\\x. x) * a0", reg)
    assert step(m, p_sub) != subst_const(q, "c_a", Const("c_b"))


### non-generativity: steps never invent stack constants

def test_steps_do_not_generate_stack_constants():
    from lamc.syntax import collect_stack_constants
    reg = MachineConfig(quote=True, eq=True, eq_nat=True, inert_consts=("c_a",)).build()
    m = Machine(reg)
    rng = random.Random(9)
    checked = 0
    for _ in range(300):
        p = Process(
            random_closed_term(rng, reg, max_depth=4, allow_cont=True),
            random_stack(rng, reg, max_depth=3),
        )
        q = step(m, p)
        if q is None:
            continue
        checked += 1
        assert collect_stack_constants(q) <= collect_stack_constants(p)
    assert checked > 100


### trace serialization

def test_trace_json_shape():
    m = mk()
    p = parse_process("(\\x. x) (\\x. x) * a0", m.registry)
    tr = run(m, p, budget=10)
    js = tr.to_json()
    assert [e["step"] for e in js["steps"]] == [0, 1, 2]
    assert js["steps"][0]["rule"] is None
    assert js["steps"][1]["rule"] == RULE_PUSH
    assert js["steps"][2]["rule"] == RULE_GRAB
    assert js["terminal"] == {"kind": "stuck"}
    assert js["steps"][2]["head"] == "\\x. x"
    assert js["steps"][2]["stack"] == "a0"
