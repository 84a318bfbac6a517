"""Referee tests: move detection, the three games, adversaries, replays."""

import io
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from builders import leq_round_opener
from g1_reference import rules_flat
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
    fresh_handle,
    load_abelard_script,
    minimax_g0_abelard,
    play_g0,
    play_g1,
    play_g2,
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
    resolve_realizer,
)
from lamc.syntax import (
    App,
    Bottom,
    Bound,
    Const,
    Cont,
    Lam,
    LamcError,
    Process,
    Push,
    numeral,
    parse_term,
    random_closed_term,
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
    beats a play shape on the incomplete ones."""
    final = h.final_matches(p)
    if final:
        return ("win", final[0])
    hit = h.open_match(p)
    return None if hit is None else ("play", tuple(hit[0]), *hit[1:])


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
    assert ev == ("play", (0,), 5, IDENT)


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


def test_detect_play_on_a_shared_handle_matches_every_entry():
    h = History(2)
    h.append(HistoryEntry((), (), Const("c_a"), Bottom("a0")))
    h.append(HistoryEntry((1,), (1,), Const("c_a"), Bottom("a0")))
    h.append(HistoryEntry((2,), (0,), Const("c_b"), Bottom("a0")))
    p = Process(Const("c_a"), Push(numeral(0), Push(IDENT, Bottom("a0"))))
    assert detect(p, h) == ("play", (0, 1), 0, IDENT)
    # the list is the history's own: an entry recorded later joins it
    idxs = h.open_match(p)[0]
    h.append(HistoryEntry((0,), (3,), Const("c_a"), Bottom("a0")))
    assert idxs == [0, 1, 3]
    # a complete entry with the handle is a win shape, not a play target
    h.append(HistoryEntry((0, 0), (3, 3), Const("c_a"), Bottom("a0")))
    assert detect(p, h) == ("play", (0, 1, 3), 0, IDENT)


### the abstract game

def scripted_g0_eloise(moves):
    """Moves given as (position ms, position ns, m): each names the recorded
    position to extend by value, then the number to play."""
    pending = list(moves)

    def strategy(history):
        if not pending:
            return None
        ms, ns, m = pending.pop(0)
        for idx, (hms, hns) in enumerate(history):
            if hms == tuple(ms) and hns == tuple(ns):
                return idx, m
        raise LamcError(f"scripted position {(ms, ns)} not in the history")

    return strategy


def scripted_g0_abelard(answers, fallback=0):
    pending = list(answers)

    def strategy(history, entry_index, m):
        return pending.pop(0) if pending else fallback

    return strategy


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
    assert "Restore" not in rules_flat(out)


def test_g1_halting_realizer_rewinds_on_a_halting_instance():
    reg = full_registry()
    t_H = build_t_H(reg)
    out = play_g1(reg, t_H, HALT, (Const("c_a"), Bottom("a0")),
                  ScriptedAbelard([(5, Const("c_b"), Bottom("a1")),
                                   (9, Const("c_u"), Bottom("a2"))]),
                  leading=(IDX_HALT3,))
    assert_win_sound(out, HALT, leading=(IDX_HALT3,))
    assert [(mv.m, mv.n) for mv in out.moves] == [(0, 5), (5, 9)]
    assert "Restore" in rules_flat(out)
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
    assert ("Restore" in rules_flat(out)) == rewinds
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


# exists x1 forall y1 exists x2 forall y2 exists x3 forall y3 (x3 >= y1)
THREE = ArithFormula("three", 0, 3, PrimRecFn(
    "three_fn", 6, native=lambda x1, x2, x3, y1, y2, y3: 0 if x3 >= y1 else 1))


@pytest.mark.parametrize("play", [play_g1, play_g2])
def test_universal_realizer_three_round_walk(play):
    """Resumes at every depth of a three-round formula: moves on entries 0,
    1, 2 and 4 come back to positions of depth 0, 1, 2 and 1."""
    reg = full_registry()
    out = play(reg, build_t_phi(reg, THREE), THREE, fresh_handle(reg),
               FreshConstantAbelard(reg, [1, 2, 0, 2, 1, 0, 2, 2, 1, 0, 1,
                                          2, 0, 0, 1, 2]))
    assert_win_sound(out, THREE)
    assert [(mv.entry_index, mv.m, mv.n) for mv in out.moves] == [
        (0, 0, 1), (1, 0, 2), (2, 0, 0), (0, 1, 2), (4, 0, 1), (5, 0, 0),
        (1, 1, 2), (7, 0, 2), (0, 2, 1), (9, 0, 0), (10, 0, 1), (4, 1, 2),
        (12, 0, 0), (2, 1, 0)]


@pytest.mark.parametrize("seed", range(5))
def test_g1_universal_realizer_vs_random_abelard(seed):
    reg = full_registry()
    t_phi = build_t_phi(reg, LEQ)
    out = play_g1(reg, t_phi, LEQ, fresh_handle(reg),
                  RandomAbelard(reg, seed), total_budget=1_000_000)
    assert_win_sound(out, LEQ)


# Both seeds reply with a handle already in play: t_phi_phi4's next play on
# it is a move on every incomplete entry that has the handle.
REPEATED_HANDLE_SEEDS = [1226, 736660294]


@pytest.mark.parametrize("play", [play_g1, play_g2])
@pytest.mark.parametrize("seed", REPEATED_HANDLE_SEEDS)
def test_universal_realizer_wins_against_repeated_handles(play, seed):
    reg = full_registry()
    out = play(reg, build_t_phi(reg, PHI4), PHI4, fresh_handle(reg),
               RandomAbelard(reg, seed))
    assert_win_sound(out, PHI4)


@pytest.mark.parametrize("play", [play_g1, play_g2])
@pytest.mark.parametrize("seed", REPEATED_HANDLE_SEEDS)
def test_universal_leq_realizer_wins_against_repeated_handles(play, seed):
    reg = full_registry()
    out = play(reg, build_t_phi(reg, LEQ), LEQ, fresh_handle(reg),
               RandomAbelard(reg, seed))
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


def test_g2_play_reached_before_its_entry_fires_on_every_entry_with_its_handle():
    # thread 0 plays #0 twice on the root, then reaches c_u * #1 . K . a0
    # before any entry has the handle (c_u, a0); both replies hand out that
    # handle, so the waiting play, released by the first of the two entries,
    # extends both when it fires: one reply, two records under one number.
    # Only the second entry's extension has payoff 0.
    def match(play):
        reg = full_registry()
        realizer = parse_term(r"\u. u #0 (u #0 (c_u #1 (\p w. w)) c_v)", reg)
        handle = (IDENT, Push(Const("c_v"), Bottom("a0")))
        script = [(1, Const("c_u"), Bottom("a0")),
                  (0, Const("c_u"), Bottom("a0")),
                  (0, Const("c_v"), Bottom("a1"))]
        return play(reg, realizer, PHI4, handle, ScriptedAbelard(script))

    out = play_both(match)
    assert_win_sound(out, PHI4)
    assert [(mv.move_number, mv.thread, mv.config, mv.entry_index,
             mv.new_entry_index) for mv in out.moves] == [
        (0, 0, 3, 0, 1), (1, 0, 9, 0, 2), (2, 0, 14, 1, 3), (2, 0, 14, 2, 4)]
    e1, e2 = out.history.entries[1:3]
    assert (e1.u, e1.pi) == (e2.u, e2.pi) == (Const("c_u"), Bottom("a0"))
    assert out.history.open_match(out.segments[0][14][0])[:2] == ([1, 2], 1)
    assert out.witness_entry == 4
    assert [(e.ms, e.ns) for e in out.history.entries[3:]] == [
        ((0, 1), (1, 0)), ((0, 1), (0, 0))]


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


def random_closed_term_by_scan(rng, registry, max_depth=4, allow_cont=False):
    """random_closed_term as it was when it rescanned the declarations on
    every call: the reference for the registry's kept name lists."""
    inert = [n for n, kind in registry.kinds.items()
             if kind == "term" and not registry.is_instruction(n)]

    def leaf(scope):
        choices = ["id", "numeral"]
        if scope > 0:
            choices.extend(["bound", "bound"])
        if inert:
            choices.append("const")
        pick = rng.choice(choices)
        if pick == "bound":
            return Bound(rng.randrange(scope))
        if pick == "const":
            return Const(rng.choice(inert))
        if pick == "numeral":
            return numeral(rng.randrange(4))
        return Lam(Bound(0), "x")

    def go(depth, scope):
        if depth <= 0:
            return leaf(scope)
        pick = rng.randrange(10)
        if pick < 4:
            return Lam(go(depth - 1, scope + 1), "x")
        if pick < 8:
            return App(go(depth - 1, scope), go(depth - 1, scope))
        if pick == 8 and allow_cont and stack_names_by_scan(registry):
            return Cont(random_stack_by_scan(rng, registry, max_depth=depth - 1))
        return leaf(scope)

    return go(max_depth, 0)


def stack_names_by_scan(registry):
    return sorted(n for n, kind in registry.kinds.items() if kind == "stack")


def random_stack_by_scan(rng, registry, max_depth=3, max_items=3):
    s = Bottom(rng.choice(stack_names_by_scan(registry)))
    for _ in range(rng.randrange(max_items + 1)):
        s = Push(random_closed_term_by_scan(rng, registry, max_depth=max_depth), s)
    return s


def test_random_abelard_draws_as_the_declaration_scan_did():
    # 300 minted handles, each one more inert constant and stack bottom, put
    # alpha10 before alpha2 in sorted order and the kappas after the
    # machine's own constants in declaration order
    reg = full_registry()
    handles = [fresh_handle(reg) for _ in range(300)]
    assert reg.inert_names == [n for n, kind in reg.kinds.items()
                               if kind == "term" and not reg.is_instruction(n)]
    assert reg.stack_names == stack_names_by_scan(reg)
    ctx = MoveContext(LEQ, HistoryEntry((), (), IDENT, handles[0][1]), 0, 0,
                      IDENT, 0)
    for seed in range(20):
        abelard = RandomAbelard(reg, seed)
        rng = random.Random(seed)
        for _ in range(10):
            want = (rng.randint(0, 6), random_closed_term_by_scan(rng, reg),
                    random_stack_by_scan(rng, reg))
            assert abelard(ctx) == want
        # terms that hold saved stacks draw from both lists in one call
        got, want = random.Random(seed), random.Random(seed)
        for _ in range(10):
            assert random_closed_term(got, reg, allow_cont=True) == \
                random_closed_term_by_scan(want, reg, allow_cont=True)


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


def test_interactive_abelard_asks_again_for_a_negative_number(monkeypatch):
    reg = full_registry()
    answers = iter(["-3, \\x. x, a0", "1000001, \\x. x, a0", "2, \\x. x, a0"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    out = io.StringIO()
    abelard = InteractiveAbelard(reg, out=out)
    ctx = MoveContext(LEQ, HistoryEntry((), (), IDENT, Bottom("a0")), 0, 2,
                      IDENT, 0)
    assert abelard(ctx) == (2, IDENT, Bottom("a0"))
    complaints = [line for line in out.getvalue().splitlines()
                  if line.startswith("could not read that reply")]
    assert len(complaints) == 2
    assert "-3" in complaints[0]


def test_transcript_to_script_gives_one_reply_per_move_number():
    # RandomAbelard(1226) replies on a handle already in play, so one of the
    # G2 moves extends two entries; its reply goes into the script once
    reg = full_registry()
    t_phi = build_t_phi(reg, PHI4)
    handle = fresh_handle(reg)
    g2 = play_g2(reg, t_phi, PHI4, handle, RandomAbelard(reg, 1226))
    assert g2.eloise_won
    script = transcript_to_script(g2)
    assert (len(g2.moves), len(script)) == (5, 4)
    g1 = play_g1(reg, t_phi, PHI4, handle, ScriptedAbelard(script))
    assert_win_sound(g1, PHI4)
    assert [(mv.move_number, mv.entry_index, mv.m, mv.n) for mv in g1.moves] \
        == [(mv.move_number, mv.entry_index, mv.m, mv.n) for mv in g2.moves]


def test_transcript_to_script_replays_the_same_replies():
    reg = full_registry()
    t_leq = build_t_leq(reg)
    out = play_g1(reg, t_leq, LEQ, (IDENT, Bottom("a0")),
                  ScriptedAbelard(wild_script(reg)), total_budget=100_000)
    script = transcript_to_script(out)
    assert script == wild_script(reg)


### universal realizer against fixed handles and adversaries

@pytest.mark.parametrize("play", [play_g1, play_g2])
@pytest.mark.parametrize("make_handle", [
    fresh_handle,
    lambda reg: (Const("c_b"), Bottom("a0")),
], ids=["fresh", "inert"])
@pytest.mark.parametrize("make_abelard", [
    lambda reg: FreshConstantAbelard(reg, [3]),
    lambda reg: ScriptedAbelard([(2, Const("c_a"), Bottom("a1"))]),
    lambda reg: RandomAbelard(reg, 1),
], ids=["fresh", "scripted", "random"])
def test_universal_leq_realizer_wins_every_pairing(play, make_handle,
                                                   make_abelard):
    reg = full_registry()
    realizer = build_t_phi(reg, LEQ)
    out = play(reg, realizer, LEQ, make_handle(reg), make_abelard(reg))
    assert out.verdict == "EloiseWin"


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
