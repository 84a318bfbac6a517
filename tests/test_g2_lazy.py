"""The multi-thread referee keeps no past configuration: each position holds
its live walk and one hash per configuration reached, its loop test and the
lookup of a new complete entry confirm a hash hit by a replay, and its
segments replay their positions when read. It plays every match as the
rescanning reference does, also when hashes collide on purpose, and a long
position costs it a few hundred bytes a step at most."""

import gc
import tracemalloc
from pathlib import Path

import pytest

from g2_reference import play_g2_rescan
from lamc.game import (
    RandomAbelard,
    ScriptedAbelard,
    fresh_handle,
    load_abelard_script,
    play_g2,
)
from lamc.machine import MachineConfig
from lamc.realizers import resolve_realizer
from lamc.syntax import Node, parse_term
from test_g1_lazy import (
    DIVERGING,
    FORMULAE,
    LOOPING_REALIZER,
    SEEDS,
    count_steps,
    full_registry,
    outcome_fields,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PHI4, LEQ = FORMULAE["phi4"], FORMULAE["leq"]


def random_match(realizer, formula, seed):
    def match(play, **budgets):
        reg = full_registry()
        return play(reg, resolve_realizer(reg, realizer, FORMULAE),
                    FORMULAE[formula], fresh_handle(reg),
                    RandomAbelard(reg, seed), **budgets)
    return match


def wild_match(play, **budgets):
    reg = full_registry()
    leading, handle, abelard = load_abelard_script(str(FIXTURES / "wild.json"),
                                                   reg)
    return play(reg, resolve_realizer(reg, "t_leq", FORMULAE), LEQ, handle,
                abelard, leading=leading, **budgets)


def looping_match(budget):
    def match(play, **budgets):
        reg = MachineConfig().build()
        return play(reg, parse_term(LOOPING_REALIZER, reg), LEQ,
                    fresh_handle(reg), ScriptedAbelard([]),
                    total_budget=budget, **budgets)
    return match


def diverging_match(budget):
    def match(play, **budgets):
        reg = full_registry()
        return play(reg, DIVERGING, PHI4, fresh_handle(reg),
                    RandomAbelard(reg, 0), total_budget=budget, **budgets)
    return match


CASES = [
    *(pytest.param(random_match(realizer, formula, seed),
                   id=f"{realizer}-{seed}")
      for realizer, formula in (("t_phi_phi4", "phi4"), ("t_phi_leq", "leq"),
                                ("t_leq", "leq"))
      for seed in SEEDS),
    pytest.param(wild_match, id="wild.json"),
    *(pytest.param(looping_match(budget), id=f"loop-{budget}")
      for budget in range(8)),
    *(pytest.param(diverging_match(budget), id=f"diverging-{budget}")
      for budget in (0, 1, 2, 50, 500)),
]
QUANTA = pytest.mark.parametrize("quantum", [1, 256])


@QUANTA
@pytest.mark.parametrize("match", CASES)
def test_g2_agrees_with_the_rescanning_reference(match, quantum):
    assert outcome_fields(match(play_g2, quantum=quantum)) == \
        outcome_fields(match(play_g2_rescan, quantum=quantum))


@QUANTA
@pytest.mark.parametrize("match", CASES)
def test_g2_agrees_with_the_rescanning_reference_when_hashes_collide(
        monkeypatch, match, quantum):
    # eight hash values in all: most configurations of a position longer
    # than eight hit its hash set, and only the replay tells them from a
    # repeat, or from the configuration that a new complete entry names
    expected = outcome_fields(match(play_g2_rescan, quantum=quantum))
    monkeypatch.setattr(Node, "__hash__", lambda self: self._hash & 7)
    assert outcome_fields(match(play_g2, quantum=quantum)) == expected


def test_g2_confirms_a_hash_hit_by_replaying_the_position(monkeypatch):
    steps = count_steps(monkeypatch)
    diverging_match(50)(play_g2)
    assert steps["made"] == 50
    monkeypatch.setattr(Node, "__hash__", lambda self: self._hash & 7)
    steps.clear()
    out = diverging_match(50)(play_g2)
    assert (out.reason, out.total_steps) == ("budget", 50)
    assert steps["made"] > 10 * 50


def test_g2_segment_length_needs_no_replay(monkeypatch):
    out = diverging_match(500)(play_g2)
    steps = count_steps(monkeypatch)
    (segment,) = out.segments
    assert len(segment) == 501 and steps["made"] == 0
    assert segment[0][1] is None and len(list(segment)) == 501
    assert segment[-1] == list(segment)[-1]
    assert steps["made"] == 500


def test_g2_long_position_holds_only_the_live_configuration():
    steps = 20_000
    reg = full_registry()
    handle = fresh_handle(reg)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = play_g2(reg, DIVERGING, PHI4, handle, RandomAbelard(reg, 0),
                      total_budget=steps)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out.reason, out.total_steps) == ("budget", steps)
    assert (peak - before) / steps < 300
    assert retained - before < 1 << 20
