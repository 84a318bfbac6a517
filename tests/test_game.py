"""Referee tests: move detection, the three games, adversaries, replays."""

import json
from collections import Counter
from pathlib import Path

import pytest

from g2_reference import play_g2_rescan
from lamc.formula import (
    IDX_HALT3,
    IDX_LOOP,
    ArithFormula,
    PrimRecFn,
    builtin_formulae,
    truth_oracle_g0,
)
from lamc.game import (
    FreshConstantAbelard,
    History,
    HistoryEntry,
    InteractiveAbelard,
    MoveContext,
    RandomAbelard,
    ScriptedAbelard,
    blind_box_eloise,
    check_strategy,
    fresh_handle,
    load_abelard_script,
    minimax_g0_abelard,
    play_g0,
    play_g1,
    play_g2,
    scripted_g0_abelard,
    scripted_g0_eloise,
    transcript_to_script,
)
from lamc.machine import MachineConfig
from lamc.realizers import (
    IDENT,
    SELF_APP,
    SELF_APP_GROW,
    build_t_H,
    build_t_leq,
    build_t_phi,
    leq_round_opener,
    resolve_realizer,
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
    parse_term,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FORMULAE = builtin_formulae()
LEQ = FORMULAE["leq"]
PHI4 = FORMULAE["phi4"]
HALT = FORMULAE["halt"]
# exists x forall y (x = y): false once Abelard has two values to choose from
EQUAL = ArithFormula("equal", 0, 1,
                     PrimRecFn("eq01", 2, native=lambda m, n: 0 if m == n else 1))


def full_registry():
    return MachineConfig(quote=True, eq=True, eq_nat=True,
                         inert_consts=("c_a", "c_b", "c_u", "c_v")).build()


def cc_registry():
    return MachineConfig(inert_consts=("c_a", "c_b")).build()


def assert_win_sound(outcome, phi, leading=()):
    """Every Eloise win must point at a complete entry with payoff zero."""
    assert outcome.verdict == "EloiseWin"
    entry = outcome.history.entries[outcome.witness_entry]
    assert entry.depth() == phi.rounds
    assert phi.f_value(tuple(leading), entry.ms, entry.ns) == 0


### history and move-shape detection

def test_history_entry_validation():
    with pytest.raises(LamcError):
        HistoryEntry((1, 2), (1,), IDENT, Bottom("a0"))
    h = History(1)
    with pytest.raises(LamcError):
        h.append(HistoryEntry((1, 2), (3, 4), IDENT, Bottom("a0")))


def detect(p, h):
    """The referees' order of lookups: a win shape on any complete entry
    beats a play shape on an incomplete one."""
    final = h.final_matches(p)
    if final:
        return ("win", final[0])
    hit = h.open_match(p)
    return None if hit is None else ("play", *hit)


def test_detect_win_on_complete_entry():
    h = History(1)
    h.append(HistoryEntry((), (), Const("c_a"), Bottom("a0")))
    h.append(HistoryEntry((3,), (1,), Const("c_b"), Bottom("a1")))
    ev = detect(Process(Const("c_b"), Bottom("a1")), h)
    assert ev == ("win", 1)
    # the root entry is incomplete, so its bare shape is not a win
    assert detect(Process(Const("c_a"), Bottom("a0")), h) is None


def test_detect_play_on_open_entry():
    h = History(2)
    h.append(HistoryEntry((), (), Const("c_a"), Bottom("a0")))
    p = Process(Const("c_a"), Push(numeral(5), Push(IDENT, Bottom("a0"))))
    ev = detect(p, h)
    assert ev == ("play", 0, 5, IDENT)


def test_detect_needs_literal_numeral_and_depth():
    h = History(1)
    h.append(HistoryEntry((), (), Const("c_a"), Bottom("a0")))
    # computed-but-not-literal number on top: no move
    fake = App(IDENT, numeral(5))
    p = Process(Const("c_a"), Push(fake, Push(IDENT, Bottom("a0"))))
    assert detect(p, h) is None
    # only one pushed item: no move
    p = Process(Const("c_a"), Push(numeral(5), Bottom("a0")))
    assert detect(p, h) is None


def test_detect_win_beats_play():
    h = History(1)
    base = Bottom("a0")
    stack = Push(numeral(2), Push(IDENT, base))
    h.append(HistoryEntry((), (), Const("c_a"), base))
    h.append(HistoryEntry((0,), (0,), Const("c_a"), stack))
    p = Process(Const("c_a"), stack)
    # p is exactly entry 1 (complete) and also entry 0 extended by 2
    assert detect(p, h) == ("win", 1)


def test_detect_earliest_entry_wins_ties():
    h = History(2)
    h.append(HistoryEntry((), (), Const("c_a"), Bottom("a0")))
    h.append(HistoryEntry((1,), (1,), Const("c_a"), Bottom("a0")))
    p = Process(Const("c_a"), Push(numeral(0), Push(IDENT, Bottom("a0"))))
    assert detect(p, h) == ("play", 0, 0, IDENT)


### the abstract game

def test_g0_scripted_two_round_match():
    eloise = scripted_g0_eloise([
        ((), (), 0),
        ((), (), 1),
        ((1,), (0,), 1),
        ((1,), (0,), 2),
        ((), (), 2),
        ((0,), (1,), 2),
    ])
    abelard = scripted_g0_abelard([1, 0, 1, 2, 0, 1])
    out = play_g0(PHI4, eloise, abelard)
    assert out.eloise_won
    assert [(mv.entry_index, mv.m, mv.n) for mv in out.moves] == [
        (0, 0, 1), (0, 1, 0), (2, 1, 1), (2, 2, 2), (0, 2, 0), (1, 2, 1)]
    assert out.history[-1] == ((0, 2), (1, 1))
    assert PHI4.f_value((), (0, 2), (1, 1)) == 0


def test_g0_nonzero_payoff_does_not_end_the_match():
    # first completed position has payoff 1; the match continues
    eloise = scripted_g0_eloise([((), (), 1), ((), (), 0)])
    abelard = scripted_g0_abelard([0, 0])
    out = play_g0(LEQ, eloise, abelard)
    assert out.eloise_won
    assert len(out.moves) == 2
    assert out.history[1] == ((1,), (0,))


def test_g0_script_exhausted_resigns():
    out = play_g0(LEQ, scripted_g0_eloise([]), scripted_g0_abelard([]))
    assert out.verdict == "AbelardWin"
    assert out.reason == "stuck"


def test_g0_move_budget():
    eloise = scripted_g0_eloise([((), (), 1)] * 5)

    def stubborn(history, entry_index, m):
        return 0  # refutes every claim 1 <= n

    out = play_g0(LEQ, eloise, stubborn, max_moves=3)
    assert out.verdict == "AbelardWin"
    assert out.reason == "budget"
    assert len(out.moves) == 3


def test_g0_validations():
    with pytest.raises(LamcError):
        play_g0(HALT, scripted_g0_eloise([]), scripted_g0_abelard([]))
    eloise_bad = scripted_g0_eloise([((9,), (9,), 0)])
    with pytest.raises(LamcError):
        play_g0(LEQ, eloise_bad, scripted_g0_abelard([0]))

    def eloise_overextends(history):
        return len(history) - 1, 0

    play = play_g0(LEQ, eloise_overextends, scripted_g0_abelard([0]),
                   max_moves=1)
    assert play.eloise_won  # (0,)/(0,) has payoff 0
    # with answers of 1 the completed positions stay nonzero, so the third
    # pick lands on a completed position and is rejected
    with pytest.raises(LamcError):
        play_g0(PHI4, eloise_overextends, scripted_g0_abelard([1, 1]),
                max_moves=5)


@pytest.mark.parametrize("name,bound,zs", [
    ("leq", 0, ()),
    ("leq", 3, ()),
    ("phi4", 0, ()),
    ("phi4", 1, ()),
    ("phi4", 2, ()),
    ("halt", 4, "halt3"),
    ("halt", 2, "loop"),
    ("halt", 0, "halt3"),
])
def test_g0_blind_box_matches_oracle(name, bound, zs):
    phi = FORMULAE[name]
    if zs == "halt3":
        zs = (IDX_HALT3,)
    elif zs == "loop":
        zs = (IDX_LOOP,)
    oracle = truth_oracle_g0(phi, bound, zs=zs)
    out = play_g0(phi, blind_box_eloise(phi, bound),
                  minimax_g0_abelard(phi, bound, zs=zs), zs=zs)
    assert (oracle == "win") == out.eloise_won
    if out.eloise_won:
        ms, ns = out.history[-1]
        assert phi.f_value(zs, ms, ns) == 0


def test_g0_blind_box_exhausts_the_box_and_resigns():
    assert truth_oracle_g0(EQUAL, 1) == "lose"
    out = play_g0(EQUAL, blind_box_eloise(EQUAL, 1),
                  minimax_g0_abelard(EQUAL, 1))
    assert out.verdict == "AbelardWin"
    assert out.reason == "stuck"
    # every tuple in Eloise's box [0..2] was completed, none with payoff 0
    complete = {ms for ms, _ in out.history if len(ms) == 1}
    assert complete == {(0,), (1,), (2,)}
    assert all(EQUAL.f_value((), ms, ns) != 0
               for ms, ns in out.history if len(ms) == 1)


def test_g0_minimax_always_keeps_the_position_refuted():
    history = [((), ())]
    abelard = minimax_g0_abelard(EQUAL, 2)
    n = abelard(history, 0, 0)
    assert n == 1  # n = 0 would hand Eloise the equality
    history.append(((0,), (n,)))
    assert truth_oracle_g0(EQUAL, 2, history=history) == "lose"


### single-thread matches: validation

def test_g1_rejects_bad_inputs():
    reg = full_registry()
    handle = (Const("c_a"), Bottom("a0"))
    silent = ScriptedAbelard([])
    with pytest.raises(LamcError):  # open term
        play_g1(reg, parse_term("\\x. y", reg, free_vars=("y",)), LEQ,
                handle, silent)
    with pytest.raises(LamcError):  # not proof-like
        play_g1(reg, Cont(Bottom("a0")), LEQ, handle, silent)
    with pytest.raises(LamcError):  # leading block mismatch
        play_g1(reg, IDENT, HALT, handle, silent)
    with pytest.raises(LamcError):  # leading block mismatch, other direction
        play_g1(reg, IDENT, LEQ, handle, silent, leading=(1,))


### single-thread matches: the comparison realizer

def wild_script(reg):
    """The reply that replays the realizer's own recorded combinator."""
    opener = leq_round_opener(reg, IDENT, 0)
    return [(0, opener, Bottom("a0"))]


def test_g1_wild_replay_defeats_the_comparison_realizer():
    reg = full_registry()
    t_leq = build_t_leq(reg)
    out = play_g1(reg, t_leq, LEQ, (IDENT, Bottom("a0")),
                  ScriptedAbelard(wild_script(reg)), total_budget=100_000)
    assert out.verdict == "AbelardWin"
    assert [(mv.entry_index, mv.m, mv.n) for mv in out.moves] == [(0, 0, 0)]
    # the losing thread never reaches the recorded-combinator win shape,
    # nor any further play shape on the root
    u1, pi1 = out.history.entries[1].u, out.history.entries[1].pi
    final_phase = [p for p, _ in out.segments[-1]]
    assert Process(u1, pi1) not in final_phase
    assert all(out.history.open_match(p) is None for p in final_phase)


def test_g2_wild_replay_wins_retroactively():
    reg = full_registry()
    t_leq = build_t_leq(reg)
    out = play_g2(reg, t_leq, LEQ, (IDENT, Bottom("a0")),
                  ScriptedAbelard(wild_script(reg)))
    assert_win_sound(out, LEQ)
    # the winning configuration is in the original trace, before the move
    thread_idx, config_idx = out.witness_ref
    assert thread_idx == 0
    assert config_idx < out.moves[0].config
    won = out.segments[thread_idx][config_idx][0]
    entry = out.history.entries[out.witness_entry]
    assert won == Process(entry.u, entry.pi)


def test_g2_fresh_reply_wins_directly():
    reg = full_registry()
    t_leq = build_t_leq(reg)
    out = play_g2(reg, t_leq, LEQ, (IDENT, Bottom("a0")),
                  ScriptedAbelard([(3, Const("c_u"), Bottom("a7"))]))
    assert_win_sound(out, LEQ)
    # here the gate yields control, so the win comes from the reply thread
    assert out.witness_ref[0] == 1


def test_g1_comparison_realizer_beats_fresh_replies():
    reg = full_registry()
    t_leq = build_t_leq(reg)
    out = play_g1(reg, t_leq, LEQ, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([(9, Const("c_u"), Bottom("a3"))]))
    assert_win_sound(out, LEQ)
    assert [(mv.m, mv.n) for mv in out.moves] == [(0, 9)]


### single-thread matches: the halting-problem realizer

def test_g1_halting_realizer_never_halting_instance():
    reg = full_registry()
    t_H = build_t_H(reg)
    out = play_g1(reg, t_H, HALT, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([(7, Const("c_b"), Bottom("a1"))]),
                  leading=(IDX_LOOP,))
    assert_win_sound(out, HALT, leading=(IDX_LOOP,))
    assert [(mv.m, mv.n) for mv in out.moves] == [(0, 7)]
    assert "Restore" not in out.rules_flat()


def test_g1_halting_realizer_rewinds_on_a_halting_instance():
    reg = full_registry()
    t_H = build_t_H(reg)
    out = play_g1(reg, t_H, HALT, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([(5, Const("c_b"), Bottom("a1")),
                                   (9, Const("c_u"), Bottom("a2"))]),
                  leading=(IDX_HALT3,))
    assert_win_sound(out, HALT, leading=(IDX_HALT3,))
    assert [(mv.m, mv.n) for mv in out.moves] == [(0, 5), (5, 9)]
    assert "Restore" in out.rules_flat()
    # the first completed entry is a failed claim: its payoff is nonzero
    e1 = out.history.entries[1]
    assert HALT.f_value((IDX_HALT3,), e1.ms, e1.ns) != 0


@pytest.mark.parametrize("challenge,rewinds", [(3, False), (4, True)])
def test_g1_halting_realizer_challenge_boundary(challenge, rewinds):
    reg = full_registry()
    t_H = build_t_H(reg)
    out = play_g1(reg, t_H, HALT, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([(challenge, Const("c_b"), Bottom("a1")),
                                   (1, Const("c_u"), Bottom("a2"))]),
                  leading=(IDX_HALT3,))
    assert_win_sound(out, HALT, leading=(IDX_HALT3,))
    assert ("Restore" in out.rules_flat()) == rewinds
    assert len(out.moves) == (2 if rewinds else 1)


def test_g1_script_exhaustion_is_a_budget_loss():
    reg = full_registry()
    t_H = build_t_H(reg)
    out = play_g1(reg, t_H, HALT, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([(5, Const("c_b"), Bottom("a1"))]),
                  leading=(IDX_HALT3,))
    assert out.verdict == "AbelardWin"
    assert out.reason == "budget"
    assert len(out.moves) == 1


### single-thread matches: referee mechanics

def test_g1_nonzero_payoff_win_shape_is_passed_over():
    # plays 1, then steps straight into the reply handle: that complete
    # entry has payoff 1, so the match must not end there
    reg = full_registry()
    realizer = parse_term("\\u. u #1 (\\n v. v)", reg)
    out = play_g1(reg, realizer, LEQ, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([(0, Const("c_b"), Bottom("a1"))]))
    assert out.verdict == "AbelardWin"
    assert out.reason == "stuck"
    e1 = out.history.entries[1]
    assert LEQ.f_value((), e1.ms, e1.ns) != 0
    # the win shape was visited and passed over
    assert Process(e1.u, e1.pi) in [p for p, _ in out.segments[-1]]


def test_g1_gate_scans_all_matching_complete_entries():
    # two moves land on identical reply shapes; only the second has payoff 0,
    # and the referee finds it behind the failed first
    reg = full_registry()
    realizer = parse_term("\\u. u #1 (\\n v. c_a #0 (\\p w. w))", reg)
    script = [(0, Const("c_u"), Bottom("a0")), (1, Const("c_u"), Bottom("a0"))]
    out = play_g1(reg, realizer, LEQ, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard(script))
    assert_win_sound(out, LEQ)
    assert out.witness_entry == 2
    e1, e2 = out.history.entries[1], out.history.entries[2]
    assert (e1.u, e1.pi) == (e2.u, e2.pi)
    assert LEQ.f_value((), e1.ms, e1.ns) != 0


def test_g1_cycle_is_a_definitive_loss():
    reg = full_registry()
    realizer = parse_term("\\u. u #1 (\\n v. (\\x. x x) (\\x. x x))", reg)
    out = play_g1(reg, realizer, LEQ, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([(0, Const("c_b"), Bottom("a1"))]))
    assert out.verdict == "AbelardWin"
    assert out.reason == "stuck"
    assert "loop" in out.detail


def test_g1_budget_losses():
    reg = full_registry()
    grower = App(SELF_APP_GROW, SELF_APP_GROW)
    out = play_g1(reg, grower, LEQ, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([]), phase_budget=50)
    assert out.verdict == "AbelardWin"
    assert out.reason == "budget"
    out = play_g1(reg, grower, LEQ, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([]), phase_budget=10_000, total_budget=60)
    assert out.verdict == "AbelardWin"
    assert out.reason == "budget"


def test_g1_stuck_realizer_loses():
    reg = full_registry()
    out = play_g1(reg, App(SELF_APP, SELF_APP), LEQ,
                  (Const("c_a"), Bottom("a0")), ScriptedAbelard([]))
    assert out.verdict == "AbelardWin"
    assert out.reason == "stuck"


### single-thread matches: the universal realizer

def test_g1_universal_realizer_one_round():
    reg = full_registry()
    t_phi = build_t_phi(reg, LEQ)
    out = play_g1(reg, t_phi, LEQ, fresh_handle(reg),
                  FreshConstantAbelard(reg, [4]))
    assert_win_sound(out, LEQ)
    assert [(mv.m, mv.n) for mv in out.moves] == [(0, 4)]


def test_g1_universal_realizer_two_round_walk():
    reg = full_registry()
    t_phi = build_t_phi(reg, PHI4)
    out = play_g1(reg, t_phi, PHI4, fresh_handle(reg),
                  FreshConstantAbelard(reg, [2] * 7))
    assert_win_sound(out, PHI4)
    assert [(mv.m, mv.n) for mv in out.moves] == [
        (0, 2), (0, 2), (1, 2), (0, 2), (1, 2), (2, 2), (0, 2)]
    # the walk tried (0,0), (1,0), (0,1) before completing (2,0)
    complete = [e.ms for e in out.history.entries if e.depth() == 2]
    assert complete == [(0, 0), (1, 0), (0, 1), (2, 0)]


@pytest.mark.parametrize("seed", range(5))
def test_g1_universal_realizer_vs_random_abelard(seed):
    reg = full_registry()
    t_phi = build_t_phi(reg, LEQ)
    out = play_g1(reg, t_phi, LEQ, fresh_handle(reg),
                  RandomAbelard(reg, seed), total_budget=1_000_000)
    assert_win_sound(out, LEQ)


### multi-thread matches

def test_g2_empty_script_loses_on_replies():
    reg = full_registry()
    t_leq = build_t_leq(reg)
    out = play_g2(reg, t_leq, LEQ, (IDENT, Bottom("a0")), ScriptedAbelard([]))
    assert out.verdict == "AbelardWin"
    assert out.reason == "budget"


def test_g2_all_threads_dead_is_stuck():
    reg = full_registry()
    out = play_g2(reg, IDENT, LEQ, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([]))
    assert out.verdict == "AbelardWin"
    assert out.reason == "stuck"


def test_g2_cycling_thread_dies_and_growing_thread_hits_budget():
    reg = full_registry()
    out = play_g2(reg, App(SELF_APP, SELF_APP), LEQ,
                  (Const("c_a"), Bottom("a0")), ScriptedAbelard([]))
    assert out.verdict == "AbelardWin"
    assert out.reason == "stuck"
    out = play_g2(reg, App(SELF_APP_GROW, SELF_APP_GROW), LEQ,
                  (Const("c_a"), Bottom("a0")), ScriptedAbelard([]),
                  total_budget=2_000)
    assert out.verdict == "AbelardWin"
    assert out.reason == "budget"


def test_g2_nonzero_payoff_shape_is_not_a_win():
    reg = full_registry()
    realizer = parse_term("\\u. u #1 (\\n v. v)", reg)
    out = play_g2(reg, realizer, LEQ, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([(0, Const("c_b"), Bottom("a1"))]))
    assert out.verdict == "AbelardWin"
    assert out.reason == "stuck"


def test_g2_small_quantum_same_verdict():
    reg = full_registry()
    t_H = build_t_H(reg)
    out = play_g2(reg, t_H, HALT, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([(5, Const("c_b"), Bottom("a1")),
                                   (9, Const("c_u"), Bottom("a2"))]),
                  leading=(IDX_HALT3,), quantum=4)
    assert_win_sound(out, HALT, leading=(IDX_HALT3,))
    assert [(mv.m, mv.n) for mv in out.moves] == [(0, 5), (5, 9)]


def test_g2_move_records_carry_thread_references():
    reg = full_registry()
    t_leq = build_t_leq(reg)
    out = play_g2(reg, t_leq, LEQ, (IDENT, Bottom("a0")),
                  ScriptedAbelard(wild_script(reg)))
    assert out.moves[0].thread == 0
    fired_config = out.segments[0][out.moves[0].config][0]
    assert detect(fired_config, out.history) is not None


def test_g1_wins_replay_to_g2_wins():
    cases = []
    reg = full_registry()
    t_phi4 = build_t_phi(reg, PHI4)
    handle = fresh_handle(reg)
    cases.append((reg, t_phi4, PHI4, handle, FreshConstantAbelard(reg, [2] * 7), ()))
    reg = full_registry()
    t_H = build_t_H(reg)
    cases.append((reg, t_H, HALT, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([(5, Const("c_b"), Bottom("a1")),
                                   (9, Const("c_u"), Bottom("a2"))]),
                  (IDX_HALT3,)))
    reg = full_registry()
    t_leq = build_t_leq(reg)
    cases.append((reg, t_leq, LEQ , (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([(9, Const("c_u"), Bottom("a3"))]), ()))
    for reg, realizer, phi, handle, abelard, leading in cases:
        g1 = play_g1(reg, realizer, phi, handle, abelard, leading=leading)
        assert g1.eloise_won
        g2 = play_g2(reg, realizer, phi, handle,
                     ScriptedAbelard(transcript_to_script(g1)),
                     leading=leading)
        assert g2.eloise_won
        assert [(m.m, m.n) for m in g2.moves] == [(m.m, m.n) for m in g1.moves]


### the incremental multi-thread referee against the rescanning reference

def outcome_fingerprint(out):
    """What to_json() reports, with each configuration as its structural
    hash instead of its text: printing every configuration of a long match
    costs far more than playing it."""
    return (out.verdict, out.reason, out.detail, out.witness_entry,
            out.witness_ref, out.total_steps, out.history.entries, out.moves,
            [[(hash(p), rule) for p, rule in seg] for seg in out.segments])


def play_both(make_match, text=True):
    """Play one match with each referee, each on its own fresh registry."""
    new, old = (make_match(play) for play in (play_g2, play_g2_rescan))
    assert new.witness_ref == old.witness_ref
    if text:
        assert new.to_json() == old.to_json()
    else:
        assert outcome_fingerprint(new) == outcome_fingerprint(old)
    return new


@pytest.mark.parametrize("fixture,realizer,formula", [
    ("wild.json", "t_leq", "leq"),
    ("halt_halt3.json", "t_halt", "halt"),
    ("halt_loop.json", "t_halt", "halt"),
])
def test_g2_incremental_referee_agrees_on_the_fixtures(fixture, realizer,
                                                       formula):
    def match(play):
        reg = full_registry()
        leading, handle, abelard = load_abelard_script(
            str(FIXTURES / fixture), reg)
        return play(reg, resolve_realizer(reg, realizer, FORMULAE),
                    FORMULAE[formula], handle, abelard, leading=leading)

    assert play_both(match).eloise_won


# 736660294 replies with the root handle, so two open entries share it
SEEDS = [*range(100), 736660294]
# matches whose every configuration is printed and compared as text
TEXT_SEEDS = {"t_leq": SEEDS, "t_phi_leq": SEEDS,
              "t_phi_phi4": [*range(5), 736660294]}


@pytest.mark.parametrize("realizer,formula", [
    ("t_leq", "leq"), ("t_phi_leq", "leq"), ("t_phi_phi4", "phi4")])
def test_g2_incremental_referee_agrees_on_random_adversaries(realizer,
                                                             formula):
    for seed in SEEDS:
        def match(play):
            reg = full_registry()
            return play(reg, resolve_realizer(reg, realizer, FORMULAE),
                        FORMULAE[formula], fresh_handle(reg),
                        RandomAbelard(reg, seed))

        play_both(match, text=seed in TEXT_SEEDS[realizer])


def test_g2_play_reached_before_its_entry_fires_on_the_earliest_entry():
    # thread 0 plays #0 twice on the root, then reaches c_u * #1 . K . a0
    # before any entry has the handle (c_u, a0); both replies hand out that
    # handle, and the waiting play must go to the first of the two entries
    def match(play):
        reg = full_registry()
        realizer = parse_term(r"\u. u #0 (u #0 (c_u #1 (\p w. w)) c_v)", reg)
        handle = (IDENT, Push(Const("c_v"), Bottom("a0")))
        script = [(0, Const("c_u"), Bottom("a0")),
                  (1, Const("c_u"), Bottom("a0")),
                  (0, Const("c_v"), Bottom("a1"))]
        return play(reg, realizer, PHI4, handle, ScriptedAbelard(script))

    out = play_both(match)
    assert_win_sound(out, PHI4)
    assert [(mv.thread, mv.config, mv.entry_index) for mv in out.moves] == [
        (0, 3, 0), (0, 9, 0), (0, 14, 1)]
    e1, e2 = out.history.entries[1:3]
    assert (e1.u, e1.pi) == (e2.u, e2.pi) == (Const("c_u"), Bottom("a0"))
    assert out.history.open_match(out.segments[0][14][0])[:2] == (1, 1)


@pytest.mark.parametrize("budget", [5_000, 20_000])
def test_g2_incremental_referee_agrees_on_a_diverging_term(budget):
    def match(play):
        reg = full_registry()
        return play(reg, App(SELF_APP_GROW, SELF_APP_GROW), PHI4,
                    fresh_handle(reg), RandomAbelard(reg, 0),
                    total_budget=budget)

    out = play_both(match, text=False)
    assert (out.reason, out.total_steps) == ("budget", budget)


def test_g2_quantum_small_and_large_agree_with_the_reference():
    def match(play, quantum):
        reg = full_registry()
        return play(reg, resolve_realizer(reg, "t_phi_phi4", FORMULAE), PHI4,
                    fresh_handle(reg), RandomAbelard(reg, 3), quantum=quantum)

    for quantum in (1, 7, 10_000):
        play_both(lambda play: match(play, quantum), text=False)


@pytest.mark.parametrize("realizer,adversary,budget", [
    (App(SELF_APP_GROW, SELF_APP_GROW), lambda reg: ScriptedAbelard([]),
     20_000),
    ("t_phi_phi4", lambda reg: RandomAbelard(reg, 27), 100_000),
])
def test_g2_matches_each_configuration_once(monkeypatch, realizer, adversary,
                                            budget):
    calls = Counter()
    for name in ("final_matches", "open_match"):
        def counted(self, p, _original=getattr(History, name)):
            calls["lookup"] += 1
            return _original(self, p)
        monkeypatch.setattr(History, name, counted)

    def lookups(play, total_budget):
        calls.clear()
        reg = full_registry()
        subject = (resolve_realizer(reg, realizer, FORMULAE)
                   if isinstance(realizer, str) else realizer)
        out = play(reg, subject, PHI4, fresh_handle(reg), adversary(reg),
                   total_budget=total_budget)
        return calls["lookup"], sum(map(len, out.segments)) + len(out.history)

    made, size = lookups(play_g2, budget)
    assert made <= 2 * size
    # the guard catches rescans, already on a short run
    made, size = lookups(play_g2_rescan, 2_000)
    assert made > 2 * size


### adversaries and scripts

def test_fresh_constant_abelard_mints_new_handles():
    reg = full_registry()
    abelard = FreshConstantAbelard(reg, [3, 1])
    ctx = MoveContext(LEQ, HistoryEntry((), (), IDENT, Bottom("a0")), 0, 0,
                      IDENT, 0)
    r1 = abelard(ctx)
    r2 = abelard(ctx)
    assert abelard(ctx) is None
    assert r1[0] == 3 and r2[0] == 1
    assert r1[1] != r2[1] and r1[2] != r2[2]
    assert reg.is_term_name(r1[1].name) and reg.is_stack_name(r1[2].name)


def test_load_abelard_script_roundtrip(tmp_path):
    reg = full_registry()
    data = {
        "leading": [7],
        "handle": {"u": "c_a", "pi": "a0"},
        "replies": [{"n": 2, "u": "\\x. x", "pi": "c_b . a1"}],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    leading, handle, abelard = load_abelard_script(str(path), reg)
    assert leading == (7,)
    assert handle == (Const("c_a"), Bottom("a0"))
    reply = abelard(MoveContext(LEQ, HistoryEntry((), (), IDENT, Bottom("a0")),
                                0, 0, IDENT, 0))
    assert reply[0] == 2
    assert reply[1] == IDENT
    assert reply[2] == Push(Const("c_b"), Bottom("a1"))
    # dict form, no handle
    leading2, handle2, _ = load_abelard_script({"replies": []}, reg)
    assert leading2 == () and handle2 is None


def test_interactive_abelard_parses_console_lines(monkeypatch, capsys):
    reg = full_registry()
    answers = iter(["3, \\x. x, c_a . a1", ""])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    abelard = InteractiveAbelard(reg)
    ctx = MoveContext(LEQ, HistoryEntry((), (), IDENT, Bottom("a0")), 0, 2,
                      IDENT, 0)
    reply = abelard(ctx)
    assert reply == (3, IDENT, Push(Const("c_a"), Bottom("a1")))
    assert abelard(ctx) is None


def test_transcript_to_script_replays_the_same_replies():
    reg = full_registry()
    t_leq = build_t_leq(reg)
    out = play_g1(reg, t_leq, LEQ, (IDENT, Bottom("a0")),
                  ScriptedAbelard(wild_script(reg)), total_budget=100_000)
    script = transcript_to_script(out)
    assert script == wild_script(reg)


### the falsification harness

def test_check_strategy_reports_every_pairing():
    def registry_factory():
        return full_registry()

    report = check_strategy(
        registry_factory, "universal", lambda reg: build_t_phi(reg, LEQ), LEQ,
        adversaries=[
            ("fresh", lambda reg: FreshConstantAbelard(reg, [3])),
            ("scripted", lambda reg: ScriptedAbelard(
                [(2, Const("c_a"), Bottom("a1"))])),
            ("random", lambda reg: RandomAbelard(reg, 1)),
        ],
        handles=[
            ("fresh", fresh_handle),
            ("inert", lambda reg: (Const("c_b"), Bottom("a0"))),
        ],
    )
    assert len(report) == 12  # 2 handles x 3 adversaries x 2 games
    assert all(row["verdict"] == "EloiseWin" for row in report)
    games = {row["game"] for row in report}
    assert games == {"g1", "g2"}


### serialization

def test_match_outcome_to_json_is_serializable():
    reg = full_registry()
    t_leq = build_t_leq(reg)
    out = play_g1(reg, t_leq, LEQ, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([(9, Const("c_u"), Bottom("a3"))]))
    blob = json.dumps(out.to_json())
    data = json.loads(blob)
    assert data["verdict"] == "EloiseWin"
    assert data["entries"][0]["u"] == "c_a"
    assert data["moves"][0]["m"] == 0
    assert len(data["segments"]) == len(out.segments)
