"""End-to-end acceptance: the nine behaviors this package promises.

Each test is one self-contained claim about the whole system, checked
against independently computed expectations (direct simulation, exhaustive
search, or frozen golden values recomputed by hand).
"""

import random
import time

import subst_reference as ref
from lamc.formula import (
    IDX_HALT3,
    IDX_LOOP,
    ArithFormula,
    PrimRecFn,
    builtin_formulae,
    decode_table,
    simulate,
    truth_oracle_g0,
)
from lamc.game import (
    FreshConstantAbelard,
    RandomAbelard,
    ScriptedAbelard,
    blind_box_eloise,
    fresh_handle,
    minimax_g0_abelard,
    play_g0,
    play_g1,
    play_g2,
    transcript_to_script,
)
from lamc.machine import Machine, MachineConfig, Terminal, run
from lamc.realizers import (
    IDENT,
    SELF_APP_GROW,
    build_t_H,
    build_t_leq,
    build_t_phi,
    check_identity_like,
    identity_like_family,
    leq_round_opener,
    random_closed_term,
    random_stack,
)
from lamc.scheme import build_scripted_realizer, extract_scheme, verify_replay
from lamc.syntax import (
    App,
    Bottom,
    Const,
    Process,
    Push,
    decode_numeral,
    parse_process,
    parse_stack,
    parse_term,
    subst_const,
    subst_stack_const,
)

FORMULAE = builtin_formulae()
LEQ = FORMULAE["leq"]
PHI4 = FORMULAE["phi4"]
HALT = FORMULAE["halt"]


def match_registry():
    return MachineConfig(quote=True, eq=True, eq_nat=True,
                         inert_consts=("c_a", "c_b", "c_u", "c_v")).build()


def step(m, p):
    """One transition: the next configuration, or None when stuck."""
    return m.step_labeled(p)[0]


### 1. the machine reproduces its golden traces exactly

def test_machine_golden_traces():
    started = time.monotonic()
    reg = MachineConfig().build()
    machine = Machine(reg)

    # identity facing a self-application loop: a two-step cycle from step 1
    trace = run(machine,
                parse_process(r"(\x. x) * ((\x. x x) (\x. x x)) . a0", reg),
                budget=50)
    assert trace.terminal == Terminal("cycle", entry=1, period=2)

    # identity applied to identity: stuck on the bare bottom in 2 steps
    trace = run(machine, parse_process(r"(\x. x) (\x. x) * a0", reg),
                budget=50)
    assert trace.terminal.kind == "stuck"
    assert len(trace.steps) == 3
    assert trace.steps[-1] == parse_process(r"(\x. x) * a0", reg)

    # the growing self-application stacks one identity every three steps
    grow = Process(App(SELF_APP_GROW, SELF_APP_GROW), Bottom("a0"))
    trace = run(machine, grow, budget=301)
    assert trace.terminal.kind == "budget"
    expected_stack = Bottom("a0")
    for k in range(0, 101):
        assert trace.steps[3 * k] == Process(
            App(SELF_APP_GROW, SELF_APP_GROW), expected_stack)
        expected_stack = Push(IDENT, expected_stack)
    assert time.monotonic() - started < 1.0


### 2. five identity-like terms surrender their argument to its stack

def test_identity_like_family_under_fuzz():
    reg = MachineConfig(inert_consts=("c_a", "c_b")).build()
    family = identity_like_family(reg)
    assert len(family) == 5
    for name, term in family.items():
        assert check_identity_like(term, reg, trials=100, seed=29,
                                   budget=50), name


### 3. steps commute with constant substitution, except under code inspection

def test_single_steps_commute_with_substitution():
    reg = MachineConfig(inert_consts=("c_a", "c_b")).build()
    machine = Machine(reg)
    rng = random.Random(4242)
    stepped = 0
    while stepped < 1000:
        p = Process(random_closed_term(rng, reg, max_depth=4, allow_cont=True),
                    random_stack(rng, reg, max_depth=3))
        q = step(machine, p)
        if q is None:
            continue
        term_image = random_closed_term(rng, reg, max_depth=3)
        stack_image = random_stack(rng, reg, max_depth=2)
        assert step(machine, subst_const(p, "c_a", term_image)) == \
            subst_const(q, "c_a", term_image)
        assert step(machine, subst_stack_const(p, "a1", stack_image)) == \
            subst_stack_const(q, "a1", stack_image)
        stepped += 1

    # with stack coding installed the discipline demonstrably fails: a code
    # names the machine's interning history, not the stack's structure
    reg_q = MachineConfig(quote=True, inert_consts=("c_a",)).build()
    mq = Machine(reg_q)
    delta = parse_term(r"\x. x x", reg_q)
    mq.quote_code(parse_stack(r"(\x. x x) . a0", reg_q))
    p = parse_process(r"quote * (\x. x) . c_a . a0", reg_q)
    q = step(mq, p)
    assert q is not None
    assert step(mq, subst_const(p, "c_a", delta)) != subst_const(q, "c_a", delta)


### 4. replaying a recorded combinator beats the single-thread referee only

def test_wild_replay_splits_the_two_referees():
    reg = match_registry()
    t_leq = build_t_leq(reg)
    opener = leq_round_opener(reg, IDENT, 0)
    script = [(0, opener, Bottom("a0"))]

    g1 = play_g1(reg, t_leq, LEQ, (IDENT, Bottom("a0")),
                 ScriptedAbelard(list(script)), total_budget=100_000)
    assert g1.verdict == "AbelardWin"
    u1, pi1 = g1.history.entries[1].u, g1.history.entries[1].pi
    replayed = Process(u1, pi1)
    # the reply is a configuration lifted from the pre-move segment, so it
    # does appear there; what decides the loss is that the live continuation
    # after the move reaches neither that winning process nor a fresh play
    # of a numeral on the root handle
    assert any(p == replayed for p, _ in g1.segments[0])
    for p, _ in g1.segments[-1]:
        is_play_shape = (
            p.term == IDENT and isinstance(p.stack, Push)
            and decode_numeral(p.stack.top) is not None
            and isinstance(p.stack.rest, Push)
            and p.stack.rest.rest == Bottom("a0"))
        assert not is_play_shape
        assert p != replayed

    g2 = play_g2(reg, t_leq, LEQ, (IDENT, Bottom("a0")),
                 ScriptedAbelard(list(script)))
    assert g2.verdict == "EloiseWin"


### 5. the halting strategy claims honestly and rewinds when challenged

def test_halting_strategy_with_simulation_cross_check():
    reg = match_registry()
    t_H = build_t_H(reg)

    loop_out = play_g1(reg, t_H, HALT, (Const("c_a"), Bottom("a0")),
                       ScriptedAbelard([(7, Const("c_b"), Bottom("a1"))]),
                       leading=(IDX_LOOP,))
    assert loop_out.verdict == "EloiseWin"
    assert [(mv.m, mv.n) for mv in loop_out.moves] == [(0, 7)]
    assert "Restore" not in loop_out.rules_flat()

    halt_out = play_g1(reg, t_H, HALT, (Const("c_a"), Bottom("a0")),
                       ScriptedAbelard([(5, Const("c_b"), Bottom("a1")),
                                        (9, Const("c_u"), Bottom("a2"))]),
                       leading=(IDX_HALT3,))
    assert halt_out.verdict == "EloiseWin"
    assert [(mv.m, mv.n) for mv in halt_out.moves] == [(0, 5), (5, 9)]
    assert "Restore" in halt_out.rules_flat()

    # every recorded payoff agrees with direct simulation of the machine
    for idx, outcome in ((IDX_LOOP, loop_out), (IDX_HALT3, halt_out)):
        table = decode_table(idx)
        for entry in outcome.history.entries:
            if len(entry.ms) != 1:
                continue
            (n,), (p,) = entry.ms, entry.ns
            if n > 0:
                expect = simulate(table, n - 1)[0]
            else:
                expect = not (p > 0 and simulate(table, p - 1)[0])
            assert (HALT.f_value((idx,), entry.ms, entry.ns) == 0) == expect


### 6. the universal strategy never loses and keeps a functional ledger

def _ledger_firings(outcome) -> int:
    from lamc.realizers import decode_history

    firings = 0
    for p in outcome.configs_flat():
        if not (isinstance(p.term, Const) and p.term.name.startswith("T")):
            continue
        items, s = [], p.stack
        while isinstance(s, Push) and len(items) < 3:
            items.append(s.top)
            s = s.rest
        if len(items) < 3:
            continue
        cells = decode_history(items[2])
        if cells is None:
            continue
        firings += 1
        prefixes = [c.ms for c in cells]
        assert len(prefixes) == len(set(prefixes)), "ledger repeats a position"
    return firings


def test_universal_strategy_never_loses():
    fresh_answers = (3, 1, 4, 1, 5, 9, 2, 6) * 8
    for name in ("leq", "phi4"):
        phi = FORMULAE[name]
        firings = 0
        for trial in range(51):
            reg = match_registry()
            t_phi = build_t_phi(reg, phi)
            handle = fresh_handle(reg)
            if trial < 50:
                adversary = RandomAbelard(reg, seed=trial)
            else:
                adversary = FreshConstantAbelard(reg, fresh_answers)
            out = play_g1(reg, t_phi, phi, handle, adversary,
                          total_budget=1_000_000)
            assert out.verdict == "EloiseWin", (name, trial)
            firings += _ledger_firings(out)
        assert firings > 0, name


### 7. scheme extraction reproduces the expected trees and replays truthfully

def test_scheme_extraction_and_replay():
    reg = MachineConfig().build()
    toy = extract_scheme(parse_term(r"\u. u #0 (\n v. v)", reg), [4], LEQ,
                         registry=reg)
    assert toy.ok
    assert toy.shape() == [((), None, None, None), ((0,), 0, 4, 0)]
    assert (toy.final_line, toy.success_index) == (1, 1)
    ref.check_play_tree(toy.nodes)

    reg2 = MachineConfig().build()
    mock = build_scripted_realizer((0, 0, 2, 2, 0, 1), (1, 2, 3, 4, 5, 6), 4,
                                   reg2)
    full = extract_scheme(mock, [0, 2, 0, 0, 0, 0], PHI4, registry=reg2)
    assert full.ok
    assert [n.path for n in full.nodes[1:]] == [
        (0,), (1,), (1, 0), (1, 1), (2,), (0, 0)]
    assert [n.m for n in full.nodes[1:]] == [1, 2, 3, 4, 5, 6]
    assert [n.n for n in full.nodes[1:]] == [0, 2, 0, 0, 0, 0]
    assert [n.parent for n in full.nodes[1:]] == [0, 0, 2, 2, 0, 1]
    assert (full.final_line, full.success_index) == (6, 4)
    ref.check_play_tree(full.nodes)
    ms, ns = full.values_along((1, 1))
    assert (ms, ns) == ((2, 4), (2, 0))
    assert PHI4.f_value((), ms, ns) == 0

    # twenty random replacement choices all replay step for step
    rng = random.Random(7)
    for _ in range(20):
        count = rng.randrange(0, len(full.nodes) + 1)
        chosen = rng.sample(range(len(full.nodes)), count)
        replacements = {
            j: (random_closed_term(rng, reg2, max_depth=3),
                random_stack(rng, reg2, max_depth=2))
            for j in chosen
        }
        assert verify_replay(reg2, full, replacements)


### 8. bounded truth agrees with blind enumeration against minimax play

def test_bounded_truth_matches_blind_enumeration():
    started = time.monotonic()
    bound = 4
    cases: list[tuple[ArithFormula, tuple[int, ...]]] = [
        (LEQ, ()),
        (PHI4, ()),
        (HALT, (IDX_LOOP,)),
        (HALT, (IDX_HALT3,)),
        (ArithFormula("never", 0, 1,
                      PrimRecFn("one", 2, native=lambda m, n: 1)), ()),
        (ArithFormula("equal", 0, 1,
                      PrimRecFn("eq01", 2,
                                native=lambda m, n: 0 if m == n else 1)), ()),
    ]
    rng = random.Random(2026)
    serial = 0
    while len(cases) < 20:
        h = 1 if len(cases) % 2 == 0 else 2
        table = {}
        for eloise in range(bound + 2):
            for abelard in range(bound + 1):
                if h == 1:
                    table[(eloise, abelard)] = int(rng.random() >= 0.3)
                else:
                    for e2 in range(bound + 2):
                        for a2 in range(bound + 1):
                            table[(eloise, e2, abelard, a2)] = int(
                                rng.random() >= 0.3)
        fn = PrimRecFn(f"probe{serial}", 2 * h,
                       native=lambda *args, t=table: t.get(args, 1))
        cases.append((ArithFormula(f"probe{serial}", 0, h, fn), ()))
        serial += 1

    verdicts = set()
    for phi, zs in cases:
        oracle = truth_oracle_g0(phi, bound, zs=zs)
        out = play_g0(phi, blind_box_eloise(phi, bound),
                      minimax_g0_abelard(phi, bound, zs=zs), zs=zs)
        assert (oracle == "win") == out.eloise_won, phi.name
        verdicts.add(oracle)
    assert verdicts == {"win", "lose"}
    assert time.monotonic() - started < 30.0


### 9. every single-thread win replays to a keep-everything win

def test_single_thread_wins_replay_in_the_keep_everything_game():
    corpus = []

    reg = match_registry()
    corpus.append((reg, build_t_H(reg), HALT, (Const("c_a"), Bottom("a0")),
                   (IDX_LOOP,),
                   ScriptedAbelard([(7, Const("c_b"), Bottom("a1"))])))
    reg = match_registry()
    corpus.append((reg, build_t_H(reg), HALT, (Const("c_a"), Bottom("a0")),
                   (IDX_HALT3,),
                   ScriptedAbelard([(5, Const("c_b"), Bottom("a1")),
                                    (9, Const("c_u"), Bottom("a2"))])))
    reg = match_registry()
    corpus.append((reg, build_t_leq(reg), LEQ, (IDENT, Bottom("a0")), (),
                   ScriptedAbelard([(3, Const("c_u"), Bottom("a7"))])))
    for name in ("leq", "phi4"):
        for seed in range(5):
            reg = match_registry()
            corpus.append((reg, build_t_phi(reg, FORMULAE[name]),
                           FORMULAE[name], fresh_handle(reg), (),
                           RandomAbelard(reg, seed=seed)))
    reg = match_registry()
    corpus.append((reg, build_t_phi(reg, PHI4), PHI4, fresh_handle(reg), (),
                   FreshConstantAbelard(reg, (0, 2, 0, 0, 0, 0))))

    replayed = 0
    for reg, realizer, phi, handle, leading, adversary in corpus:
        g1 = play_g1(reg, realizer, phi, handle, adversary, leading=leading)
        assert g1.verdict == "EloiseWin"
        script = transcript_to_script(g1)
        g2 = play_g2(reg, realizer, phi, handle, ScriptedAbelard(script),
                     leading=leading)
        assert g2.verdict == "EloiseWin"
        replayed += 1
    assert replayed == 14
