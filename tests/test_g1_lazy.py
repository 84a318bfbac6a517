"""The single-thread referee holds only its live configuration: its loop test
keeps hashes and its segments replay their phases when read. It plays every
match as the eager reference does, also when hashes collide on purpose, and
a long phase costs it a few hundred bytes a step at most."""

import gc
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from g1_reference import play_g1_eager
from lamc.formula import builtin_formulae
from lamc.game import (
    RandomAbelard,
    ScriptedAbelard,
    fresh_handle,
    load_abelard_script,
    play_g1,
)
from lamc.machine import Machine, MachineConfig
from lamc.realizers import SELF_APP_GROW, resolve_realizer
from lamc.syntax import App, Node, parse_term

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FORMULAE = builtin_formulae()
PHI4 = FORMULAE["phi4"]
LEQ = FORMULAE["leq"]
DIVERGING = App(SELF_APP_GROW, SELF_APP_GROW)
# the realizer grabs the handle, then loops: configurations 0, 1, 2, then 1 again
LOOPING_REALIZER = r"\u. (\x. x x) (\x. x x)"
# 736660294 replies with the root handle, so two open entries share it
SEEDS = [*range(100), 736660294]


def full_registry():
    return MachineConfig(quote=True, eq=True, eq_nat=True,
                         inert_consts=("c_a", "c_b", "c_u", "c_v")).build()


def random_match(realizer, formula, seed):
    def match(play):
        reg = full_registry()
        return play(reg, resolve_realizer(reg, realizer, FORMULAE),
                    FORMULAE[formula], fresh_handle(reg),
                    RandomAbelard(reg, seed))
    return match


def fixture_match(fixture, realizer, formula):
    def match(play):
        reg = full_registry()
        leading, handle, abelard = load_abelard_script(
            str(FIXTURES / fixture), reg)
        return play(reg, resolve_realizer(reg, realizer, FORMULAE),
                    FORMULAE[formula], handle, abelard, leading=leading)
    return match


def looping_match(kind, budget):
    other = "total_budget" if kind == "phase_budget" else "phase_budget"

    def match(play):
        reg = MachineConfig().build()
        return play(reg, parse_term(LOOPING_REALIZER, reg), LEQ,
                    fresh_handle(reg), ScriptedAbelard([]),
                    **{kind: budget, other: 100})
    return match


def diverging_match(budget):
    def match(play):
        reg = full_registry()
        return play(reg, DIVERGING, PHI4, fresh_handle(reg),
                    RandomAbelard(reg, 0), phase_budget=budget,
                    total_budget=budget)
    return match


CASES = [
    *(pytest.param(random_match(realizer, formula, seed),
                   id=f"{realizer}-{seed}")
      for realizer, formula in (("t_phi_phi4", "phi4"), ("t_phi_leq", "leq"),
                                ("t_leq", "leq"))
      for seed in SEEDS),
    *(pytest.param(fixture_match(fixture, realizer, formula), id=fixture)
      for fixture, realizer, formula in (("halt_halt3.json", "t_halt", "halt"),
                                         ("halt_loop.json", "t_halt", "halt"),
                                         ("wild.json", "t_leq", "leq"))),
    *(pytest.param(looping_match(kind, budget), id=f"loop-{kind}-{budget}")
      for kind in ("phase_budget", "total_budget") for budget in range(8)),
    *(pytest.param(diverging_match(budget), id=f"diverging-{budget}")
      for budget in (0, 1, 2, 50, 500)),
]


def outcome_fields(out):
    """Every field of an outcome, the segments' lengths read before the
    segments themselves."""
    lengths = [len(seg) for seg in out.segments]
    segments = [list(seg) for seg in out.segments]
    assert lengths == [len(seg) for seg in segments]
    return (out.verdict, out.reason, out.detail, out.witness_entry,
            out.witness_ref, out.total_steps, out.history.entries, out.moves,
            lengths, segments)


@pytest.mark.parametrize("match", CASES)
def test_g1_agrees_with_the_eager_reference(match):
    assert outcome_fields(match(play_g1)) == \
        outcome_fields(match(play_g1_eager))


@pytest.mark.parametrize("match", CASES)
def test_g1_agrees_with_the_eager_reference_when_hashes_collide(monkeypatch,
                                                                 match):
    # eight hash values in all: most configurations of a phase longer than
    # eight hit the loop set, and only the replay tells them from a repeat
    expected = outcome_fields(match(play_g1_eager))
    monkeypatch.setattr(Node, "__hash__", lambda self: self._hash & 7)
    assert outcome_fields(match(play_g1)) == expected


def count_steps(monkeypatch) -> Counter:
    steps = Counter()

    def counted(self, p, _original=Machine.step_labeled):
        steps["made"] += 1
        return _original(self, p)

    monkeypatch.setattr(Machine, "step_labeled", counted)
    return steps


def test_g1_confirms_a_hash_hit_by_replaying_the_phase(monkeypatch):
    steps = count_steps(monkeypatch)
    diverging_match(50)(play_g1)
    assert steps["made"] == 50
    monkeypatch.setattr(Node, "__hash__", lambda self: self._hash & 7)
    steps.clear()
    out = diverging_match(50)(play_g1)
    assert (out.reason, out.total_steps) == ("budget", 50)
    assert steps["made"] > 10 * 50


def test_g1_segment_length_needs_no_replay(monkeypatch):
    out = diverging_match(500)(play_g1)
    steps = count_steps(monkeypatch)
    (segment,) = out.segments
    assert len(segment) == 501 and steps["made"] == 0
    assert segment[0][1] is None and len(list(segment)) == 501
    assert segment[-1] == list(segment)[-1]
    assert steps["made"] == 500


def test_g1_long_phase_holds_only_the_live_configuration():
    steps = 20_000
    reg = full_registry()
    handle = fresh_handle(reg)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = play_g1(reg, DIVERGING, PHI4, handle, RandomAbelard(reg, 0),
                      phase_budget=steps, total_budget=steps)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out.reason, out.total_steps) == ("budget", steps)
    assert (peak - before) / steps < 300
    assert retained - before < 1 << 20
