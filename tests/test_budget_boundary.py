"""How the four consumers of a deterministic run stop on a repeated
configuration at a budget boundary."""

from lamc.formula import builtin_formulae
from lamc.game import ScriptedAbelard, fresh_handle, play_g1, play_g2
from lamc.machine import Machine, MachineConfig
from lamc.scheme import extract_scheme
from lamc.syntax import parse_process, parse_term
from trace_reference import run

LEQ = builtin_formulae()["leq"]

# the realizer grabs the handle, then loops: configurations 0, 1, 2, then 1 again
LOOPING_REALIZER = r"\u. (\x. x x) (\x. x x)"
# the process loops from its start: configurations 0, 1, then 0 again
LOOPING_PROCESS = r"(\x. x x) (\x. x x) * a0"

LOOP = "the process entered a loop with no move in sight"
ALL_DEAD = "every position is stuck or looping and no move shape remains"


def test_consumers_disagree_on_a_repeat_at_the_budget_boundary():
    """Where run(), G1, G2 and extraction stop on a repeated configuration
    with budgets 0-7: run() keeps the repeat and reports the cycle even on
    the budget's last step; G1 keeps it and calls it a loop; G2 drops it but
    counts its step; extraction reports the loop before the budget."""
    run_expected = [("budget", 1), ("budget", 2)] + [("cycle", 3)] * 6
    g1_expected = [("budget", 1, 0), ("budget", 2, 1), ("budget", 3, 2)] + \
        [("stuck", 4, 3)] * 5
    g2_expected = [("total step budget exhausted", 0, [1]),
                   ("total step budget exhausted", 1, [2]),
                   ("total step budget exhausted", 2, [3]),
                   ("total step budget exhausted", 3, [3])] + \
        [(ALL_DEAD, 3, [3])] * 4
    scheme_expected = [("budget", "step budget exhausted")] * 3 + \
        [("stuck", "the run entered a loop")] * 5

    for budget in range(8):
        reg = MachineConfig().build()
        trace = run(Machine(reg), parse_process(LOOPING_PROCESS, reg),
                    budget=budget)
        assert (trace.terminal.kind, len(trace.steps)) == run_expected[budget]
        if trace.terminal.kind == "cycle":
            assert (trace.terminal.entry, trace.terminal.period) == (0, 2)

        for kind, other in (("phase_budget", "total_budget"),
                            ("total_budget", "phase_budget")):
            reg = MachineConfig().build()
            out = play_g1(reg, parse_term(LOOPING_REALIZER, reg), LEQ,
                          fresh_handle(reg), ScriptedAbelard([]),
                          **{kind: budget, other: 100})
            reason, length, total = g1_expected[budget]
            detail = LOOP if reason == "stuck" else \
                f"{kind.split('_')[0]} step budget exhausted"
            assert (out.reason, out.detail, len(out.segments[-1]),
                    out.total_steps) == (reason, detail, length, total)

        for quantum in (1, 2, 3):
            reg = MachineConfig().build()
            out = play_g2(reg, parse_term(LOOPING_REALIZER, reg), LEQ,
                          fresh_handle(reg), ScriptedAbelard([]),
                          quantum=quantum, total_budget=budget)
            assert (out.detail, out.total_steps,
                    [len(seg) for seg in out.segments]) == g2_expected[budget]

        reg = MachineConfig().build()
        failure = extract_scheme(parse_term(LOOPING_REALIZER, reg), [], LEQ,
                                 budget=budget, registry=reg)
        assert (failure.kind, failure.detail) == scheme_expected[budget]
