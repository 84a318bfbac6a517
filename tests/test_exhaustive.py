"""The bounded exhaustive Abelard against the universal realizers: no reply
list in the box beats them, reused handles included."""

import copy

import pytest

from exhaustive import search
from g1_reference import play_g1_eager
from g2_reference import play_g2_rescan
from lamc.formula import builtin_formulae
from lamc.game import ScriptedAbelard, fresh_handle, play_g1, play_g2
from lamc.machine import MachineConfig
from lamc.realizers import resolve_realizer
from lamc.syntax import parse_term

FORMULAE = builtin_formulae()
PHI4 = FORMULAE["phi4"]


def full_registry():
    return MachineConfig(quote=True, eq=True, eq_nat=True,
                         inert_consts=("c_a", "c_b", "c_u", "c_v")).build()


@pytest.mark.parametrize("play", [play_g1, play_g2])
@pytest.mark.parametrize("realizer,formula", [
    ("t_phi_phi4", "phi4"), ("t_phi_leq", "leq")])
def test_universal_realizer_loses_no_match_in_the_box(play, realizer,
                                                      formula):
    reg = full_registry()
    found = search(play, reg, resolve_realizer(reg, realizer, FORMULAE),
                   FORMULAE[formula], bound=2, depth=4)
    assert found.losses == []
    assert found.wins > 0


def summary(out):
    return (out.verdict, out.reason, out.detail, out.witness_entry,
            out.witness_ref, out.total_steps, out.history.entries, out.moves,
            [len(seg) for seg in out.segments])


def checked_against(play, reference):
    """play, with every match also played by reference on a copy of the
    same adversary and compared with it."""
    def both(registry, realizer, phi, handle, abelard, leading=()):
        twin = copy.copy(abelard)
        out = play(registry, realizer, phi, handle, abelard, leading=leading)
        ref = reference(registry, realizer, phi, handle, twin, leading=leading)
        assert summary(out) == summary(ref)
        return out

    return both


@pytest.mark.parametrize("play,reference", [
    (play_g1, play_g1_eager), (play_g2, play_g2_rescan)])
def test_references_agree_on_every_match_in_the_box(play, reference):
    # most reply lists in the box reuse a handle, so most moves after the
    # first extend several entries
    reg = full_registry()
    found = search(checked_against(play, reference), reg,
                   resolve_realizer(reg, "t_phi_phi4", FORMULAE), PHI4,
                   bound=2, depth=4)
    assert found.losses == [] and found.wins > 0


@pytest.mark.parametrize("play", [play_g1, play_g2])
def test_search_reports_a_loss_as_a_replayable_script(play):
    # plays x1 = x2 = 0 and then the last handle: a loss whenever y1 > 0;
    # 45 reply lists, 15 with y1 = 0
    reg = full_registry()
    realizer = parse_term(r"\u. u #0 (\n v. v #0 (\n w. w))", reg)
    found = search(play, reg, realizer, PHI4, bound=2, depth=2)
    assert (found.wins, found.open, len(found.losses)) == (15, 0, 30)
    assert all(replies[0][0] > 0 for replies in found.losses)
    for replies in found.losses:
        out = play(reg, realizer, PHI4, found.root, ScriptedAbelard(replies))
        assert (out.verdict, out.reason) == ("AbelardWin", "stuck")


@pytest.mark.parametrize("play", [play_g1, play_g2])
def test_two_replies_on_the_root_handle_extend_both_entries(play):
    # the search's first loss at depth 2 when a play on a shared handle was
    # credited to the earliest entry only: t_phi_phi4 played #0 on its
    # position (0)/(0), and the root, which has the same handle, took it
    reg = full_registry()
    root = fresh_handle(reg)
    out = play(reg, resolve_realizer(reg, "t_phi_phi4", FORMULAE), PHI4, root,
               ScriptedAbelard([(0, *root), (0, *root)]))
    assert out.eloise_won
    assert [(mv.move_number, mv.entry_index, mv.new_entry_index)
            for mv in out.moves] == [(0, 0, 1), (1, 0, 2), (1, 1, 3)]
    assert out.witness_entry == 3
