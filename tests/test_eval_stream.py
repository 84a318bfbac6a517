"""`lamc eval --trace` and `--json` print the run as they walk it.

Each configuration is printed as it comes from a second walk on the
machine that found the end, so nothing holds the trace. The recording run()
of tests/trace_reference.py is the reference: the printed text must equal
its to_text(), and the JSON must equal _dumps of its rules, steps and
terminal, byte for byte.
"""

import argparse
import contextlib
import io
import random
import tracemalloc

import pytest

import trace_reference
from lamc.cli import _dumps, _terminal_json, cmd_eval, main
from lamc.machine import Machine
from lamc.syntax import parse_process, process_to_text
from test_settle import (
    BUDGETS,
    HUGE_BUDGET,
    LOOPS,
    REGISTRIES,
    looping,
    random_process,
)

DIVERGING = r"(\x. x x (\y. y)) (\x. x x (\y. y)) * a0"


def eval_out(text: str, registry: str, budget: int, json: bool) -> str:
    """lamc eval TEXT --registry REGISTRY --steps BUDGET, with --json or
    --trace, past the argument parser, which would take half the time."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cmd_eval(argparse.Namespace(
            process=text, registry=registry, steps=budget,
            trace=not json, json=json)) == 0
    return out.getvalue()


def reference_trace(text: str, registry: str, budget: int):
    reg = REGISTRIES[registry]()
    return trace_reference.run(Machine(reg), parse_process(text, reg),
                               budget=budget)


def assert_streams_match(text: str, registry: str, budget: int) -> None:
    trace = reference_trace(text, registry, budget)
    assert eval_out(text, registry, budget, json=False) == \
        trace.to_text() + "\n", (text, budget)
    assert eval_out(text, registry, budget, json=True) == _dumps({
        "rules": trace.rules,
        "steps": [process_to_text(p) for p in trace.steps],
        "terminal": _terminal_json(trace.terminal),
    }) + "\n", (text, budget)


@pytest.mark.parametrize("name", sorted(REGISTRIES))
def test_streamed_eval_matches_the_recorded_trace(name):
    rng = random.Random(7)
    for _ in range(300):
        text = process_to_text(random_process(rng, REGISTRIES[name](),
                                              name == "full"))
        for budget in BUDGETS:
            assert_streams_match(text, name, budget)
        # a run that ends within 64 steps prints the same at any budget
        if reference_trace(text, name, 64).terminal.kind != "budget":
            assert_streams_match(text, name, HUGE_BUDGET)


@pytest.mark.parametrize("budget", (10, 11, 16, 64))
@pytest.mark.parametrize("wrap, full, entry0, period", LOOPS)
def test_streamed_eval_on_cycles_closing_next_to_the_budget(budget, wrap, full,
                                                            entry0, period):
    for closes in (budget - 1, budget, budget + 1):
        text = looping(closes - period - entry0, wrap, full)
        assert_streams_match(text, "full" if full else "plain", budget)


class Sink:
    """A stdout that discards what is written."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def traced_eval_peak(flag: str, budget: int) -> int:
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Sink()):
            assert main(["eval", DIVERGING, "--steps", str(budget), flag]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("flag", ("--trace", "--json"))
def test_streamed_eval_memory_stays_flat_in_steps(flag):
    """The diverging term's stack grows by one item every three steps, so
    the last configuration and its printed line grow with the run, and the
    peak at 4x the steps may grow with them; holding the trace or its text
    would grow it with the square of the steps, 11x from 300 to 1200."""
    traced_eval_peak(flag, 30)
    small, large = (traced_eval_peak(flag, n) for n in (300, 1200))
    assert large < 3 * small, (small, large)
