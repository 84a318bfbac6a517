"""run() (named settle() while a recording run() lived beside it): where a
run ends, from O(1) configurations.

The recording run() of tests/trace_reference.py is the reference:
lamc.machine.run(m, p, budget) must give
(len(trace.steps) - 1, trace.steps[-1], trace.terminal) for every process
and budget, compared through the printer so that binder hints count.
"""

import random
import tracemalloc

import pytest

import trace_reference
from lamc.cli import _full_registry, _plain_registry
from lamc.machine import Machine, MachineConfig, run
from lamc.syntax import (
    App,
    Bound,
    Const,
    Lam,
    LamcError,
    Process,
    parse_process,
    process_to_text,
    random_closed_term,
    random_stack,
    subst_consts,
)

BUDGETS = (-3, -1, *range(8), 64)
# past sys.maxsize, where islice refuses a bound
HUGE_BUDGET = 10**20
REGISTRIES = {"full": _full_registry, "plain": _plain_registry}
# in the full registry the inert constants of a random term become instructions
INSTRUCTIONS = {"c_a": Const("quote"), "c_b": Const("eq"),
                "c_u": Const("eq_nat"), "c_v": Const("cc")}
SELF_APP = App(Bound(0), Bound(0))


def reference_end(reg, p, budget):
    trace = trace_reference.run(Machine(reg), p, budget=budget)
    return (len(trace.steps) - 1, process_to_text(trace.steps[-1]),
            trace.terminal)


def run_end(reg, p, budget):
    steps, last, terminal = run(Machine(reg), p, budget=budget)
    return steps, process_to_text(last), terminal


def random_process(rng, reg, full: bool) -> Process:
    """A random closed process, often built to loop or to grow: t, t t,
    D D with D = \\x. t (x x), or D D with D = \\x. x x t, under up to two
    binders that grab stack items first."""
    t = random_closed_term(rng, reg, max_depth=3, allow_cont=True)
    shape = rng.randrange(4)
    if shape == 1:
        t = App(t, t)
    elif shape == 2:
        d = Lam(App(t, SELF_APP))
        t = App(d, d)
    elif shape == 3:
        d = Lam(App(SELF_APP, t))
        t = App(d, d)
    for _ in range(rng.randrange(3)):
        t = Lam(t)
    p = Process(t, random_stack(rng, reg, max_depth=2))
    if full:
        p = Process(subst_consts(p.term, INSTRUCTIONS, {}),
                    subst_consts(p.stack, INSTRUCTIONS, {}))
    return p


@pytest.mark.parametrize("name", sorted(REGISTRIES))
def test_settle_agrees_with_run_on_random_processes(name):
    rng = random.Random(7)
    kinds = set()
    for _ in range(300):
        reg = REGISTRIES[name]()
        p = random_process(rng, reg, name == "full")
        for budget in BUDGETS:
            want = reference_end(reg, p, budget)
            assert run_end(reg, p, budget) == want, \
                (process_to_text(p), budget)
            kinds.add(want[2].kind)
        # a run that ends within 64 steps ends there at any larger budget;
        # one that does not would never end at HUGE_BUDGET
        if want[2].kind != "budget":
            assert run_end(reg, p, HUGE_BUDGET) == \
                reference_end(reg, p, HUGE_BUDGET), process_to_text(p)
    assert kinds == {"stuck", "cycle", "budget"}


def looping(prefix: int, wrap: str, full: bool = False) -> str:
    """A process whose first repeat comes after `prefix` grabs, on a loop of
    D D with D = \\x. wrap(x x). The quote loop is entered through its own
    wrapper, after a first quote has coded another stack, so it closes only
    if the replay meets the same codes."""
    grabs = "".join(f" y{i}" for i in range(prefix))
    items = "c_a . " * prefix
    if full:
        d = r"(\x. quote (\n. x x))"
        head = rf"(\{grabs}. quote)" if prefix else "quote"
        return rf"{head} * {items}(\m z. (\n. {d} {d}) #1) . c_a . a0"
    d = rf"(\x. {wrap})"
    return rf"(\{grabs} w. {d} {d}) * {items}c_a . a0"


# (wrapper of x x, full registry, entry without prefix, period)
LOOPS = [
    ("x x", False, 1, 2),
    (r"(\y. y) (x x)", False, 1, 4),
    (r"cc (\k. x x)", False, 1, 5),
    ("", True, 4, 5),
]


@pytest.mark.parametrize("budget", (10, 11, 16, 64))
@pytest.mark.parametrize("wrap, full, entry0, period", LOOPS)
def test_settle_on_cycles_closing_next_to_the_budget(budget, wrap, full,
                                                     entry0, period):
    """First repeat at budget - 1, budget and budget + 1: a cycle, a cycle,
    then a budget stop on the configuration at the budget."""
    for closes in (budget - 1, budget, budget + 1):
        prefix = closes - period - entry0
        reg = _full_registry() if full else _plain_registry()
        p = parse_process(looping(prefix, wrap, full), reg)
        want = reference_end(reg, p, budget)
        if closes <= budget:
            assert (want[0], want[2].entry, want[2].period) == \
                (closes, closes - period, period)
        else:
            assert (want[0], want[2].kind) == (budget, "budget")
        assert run_end(reg, p, budget) == want


def test_settle_reports_the_closing_configuration_with_its_own_hints():
    reg = _full_registry()
    p = parse_process(r"(\x. x x) (\y. y y) * a0", reg)
    for budget in (2, 10_000):
        steps, last, terminal = run(Machine(reg), p, budget=budget)
        assert (steps, process_to_text(last), terminal.describe()) == \
            (2, r"((\y. y y) (\y. y y)) * a0", "cycle(entry=0, period=2)")
    steps, last, terminal = run(Machine(reg), p, budget=1)
    assert (steps, terminal.kind) == (1, "budget")


def test_settle_ignores_a_fork_past_the_budget():
    """An installed rule that raises, met one step past the budget, is never
    reached by the reference; run's search past the budget stops there too."""
    def fail(machine, s):
        raise LamcError("fail fired")

    reg = MachineConfig().build()
    reg.install_instruction("fail", fail)
    p = parse_process(r"(\y. fail) * (\z. z) . (\z. z) . (\z. z) . a0", reg)
    assert run_end(reg, p, 1) == reference_end(reg, p, 1)
    for fn in (trace_reference.run, run):
        with pytest.raises(LamcError, match="fail fired"):
            fn(Machine(reg), p, budget=2)


def test_settle_requires_a_closed_process():
    reg = _plain_registry()
    with pytest.raises(LamcError, match="closed"):
        run(Machine(reg), Process(Bound(0), parse_process("c_a * a0", reg).stack))


class CountingMachine(Machine):
    def __init__(self, registry):
        super().__init__(registry)
        self.calls = 0

    def step_labeled(self, p):
        self.calls += 1
        return super().step_labeled(p)


@pytest.mark.parametrize("budget", (5, 64, 300))
def test_settle_steps_at_most_twice_the_budget_plus_the_replay(budget):
    """At most 2 x budget steps, and a growing run that hits the budget
    takes all of them; a cycle found with entry and period at most the
    budget adds a replay of entry + period steps on one walker and entry on
    the other, whether or not it closes by the budget."""
    reg = _plain_registry()
    grow = parse_process(r"(\x. x x (\y. y)) (\x. x x (\y. y)) * a0", reg)
    machine = CountingMachine(reg)
    assert run(machine, grow, budget=budget)[0] == budget
    assert machine.calls == 2 * budget
    for prefix in (0, budget // 2, budget - 3, budget - 1, budget + 1):
        p = parse_process(looping(prefix, r"(\y. y) (x x)"), reg)
        machine = CountingMachine(reg)
        run(machine, p, budget=budget)
        entry, period = prefix + 1, 4
        replay = 2 * entry + period if max(entry, period) <= budget else 0
        assert machine.calls <= 2 * budget + replay


STORAGE = r"\f v. v (\c. c #0) (\t c. t (\m. c ((\n x f. f (n x f)) m))) f"
PEAK_BOUND = 300_000  # bytes traced at the peak


def storage_eval(a: int, b: int):
    """The storage operator on the product a x b: stuck on c_a * #(a*b) . a0."""
    reg = _full_registry()
    p = parse_process(
        rf"({STORAGE}) * c_a . (\x g. #{a} x (\y. #{b} y g)) . a0", reg)
    return reg, p


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_settle_memory_does_not_grow_with_the_run():
    """run's traced peak stays under one bound at product N and 4N; the
    recording reference passes that bound already at N."""
    for a, b in ((10, 10), (20, 20)):
        reg, p = storage_eval(a, b)
        (steps, last, terminal), peak = traced_peak(run, Machine(reg), p,
                                                   10**6)
        assert (process_to_text(last), terminal.kind) == \
            (f"c_a * #{a * b} . a0", "stuck")
        assert steps > 1000
        assert peak < PEAK_BOUND, (a * b, peak)
    reg, p = storage_eval(10, 10)
    _, peak = traced_peak(trace_reference.run, Machine(reg), p, 10**6)
    assert peak > PEAK_BOUND
