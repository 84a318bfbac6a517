"""Command-line front end: evaluate processes with traces, run matches,
extract interaction schemes, query the bounded-truth oracle, and list what
ships in the box.

Exit codes are a stable contract: 0 for a completed evaluation, an Eloise win,
a successful extraction, or a computed oracle verdict; 1 for an Abelard win or
a failed extraction; 2 for configuration errors (unknown names, unparsable
input, malformed scripts). The LAMC_STEPS environment variable replaces the
default step budget wherever --steps is not given explicitly.
"""

import argparse
import functools
import json
import os
import sys
from itertools import islice
from typing import Optional, Sequence

from .formula import ArithFormula, load_formula_registry, truth_oracle_g0
from .game import (
    FreshConstantAbelard,
    InteractiveAbelard,
    MatchOutcome,
    RandomAbelard,
    blind_box_eloise,
    fresh_handle,
    load_abelard_script,
    minimax_g0_abelard,
    play_g0,
    play_g1,
    play_g2,
)
from .machine import Machine, MachineConfig, Terminal, run, walk
from .realizers import realizer_catalog, resolve_realizer
from .scheme import build_scripted_realizer, extract_scheme
from .syntax import (
    LamcError,
    Registry,
    check_literal,
    parse_process,
    parse_term,
    process_to_text,
    stack_to_text,
    term_to_text,
)

STEPS_ENV = "LAMC_STEPS"

# the fixed six-interaction demonstration tree for the scheme extractor
DEMO_PARENTS = (0, 0, 2, 2, 0, 1)
DEMO_MS = (1, 2, 3, 4, 5, 6)
DEMO_SUCCESS = 4
DEMO_NAME = "scheme_demo"


### registries

def _plain_registry() -> Registry:
    """Control only: every instruction commutes with constant substitution."""
    return MachineConfig(inert_consts=("c_a", "c_b", "c_u", "c_v")).build()


def _full_registry() -> Registry:
    """Control plus the code-inspecting instructions the realizers use."""
    return MachineConfig(quote=True, eq=True, eq_nat=True,
                         inert_consts=("c_a", "c_b", "c_u", "c_v")).build()


### small helpers

def _steps_default(fallback: int) -> int:
    raw = os.environ.get(STEPS_ENV)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError as exc:
        raise LamcError(f"{STEPS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise LamcError(f"{STEPS_ENV} must be positive, got {value}")
    return value


def _csv_ints(text: str, what: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise LamcError(f"{what} wants comma-separated integers, got {text!r}") from exc


def _csv_literals(text: str, what: str) -> tuple[int, ...]:
    """Numbers that become numerals on the machine, each capped like #n."""
    return tuple(check_literal(n, what) for n in _csv_ints(text, what))


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _formula_table(path: Optional[str]) -> dict[str, ArithFormula]:
    if path is None:
        from .formula import builtin_formulae

        return builtin_formulae()
    return load_formula_registry(path)


def _pick_formula(table: dict[str, ArithFormula], name: str) -> ArithFormula:
    if name not in table:
        known = ", ".join(sorted(table))
        raise LamcError(f"unknown formula {name!r} (known: {known})")
    return table[name]


def _terminal_json(t: Terminal) -> dict:
    return {"kind": t.kind, "entry": t.entry, "period": t.period}


### eval

def cmd_eval(args) -> int:
    registry = _full_registry() if args.registry == "full" else _plain_registry()
    process = parse_process(args.process, registry)
    budget = args.steps if args.steps is not None else _steps_default(10_000)
    machine = Machine(registry)
    steps, last, terminal = run(machine, process, budget=budget)
    if not (args.json or args.trace):
        print(f"after {steps} steps: {process_to_text(last)}")
        print(f"terminal: {terminal.describe()}")
        return 0
    # Walk the run again on the same machine, which already holds every
    # quote code it meets, and print each configuration as it comes.
    if args.trace:
        for i, (p, _) in enumerate(islice(walk(machine, process), steps + 1)):
            print(f"step {i}: {process_to_text(p)}")
        print(f"terminal: {terminal.describe()}")
        return 0
    # _dumps of {"rules", "steps", "terminal"}, one list item at a time
    print('{\n  "rules": [', end="")
    for i, (_, rule) in enumerate(islice(walk(machine, process), steps + 1)):
        print(f'{"," if i else ""}\n    {json.dumps(rule)}', end="")
    print('\n  ],\n  "steps": [', end="")
    for i, (p, _) in enumerate(islice(walk(machine, process), steps + 1)):
        print(f'{"," if i else ""}\n    {json.dumps(process_to_text(p))}', end="")
    terminal_json = _dumps(_terminal_json(terminal)).replace("\n", "\n  ")
    print(f'\n  ],\n  "terminal": {terminal_json}\n}}')
    return 0


### match

def _match_text(outcome: MatchOutcome) -> str:
    lines = [f"verdict: {outcome.verdict}"]
    if outcome.reason is not None:
        lines.append(f"reason: {outcome.reason} ({outcome.detail})")
    for mr in outcome.moves:
        where = f" [thread {mr.thread} config {mr.config}]" if mr.thread is not None else ""
        lines.append(f"move {mr.move_number}: entry {mr.entry_index} "
                     f"+ (m={mr.m}, n={mr.n}) -> entry {mr.new_entry_index}{where}")
    for idx, e in enumerate(outcome.history.entries):
        mark = "  <- witness" if idx == outcome.witness_entry else ""
        lines.append(f"entry {idx}: ms={list(e.ms)} ns={list(e.ns)} "
                     f"u={term_to_text(e.u)} pi={stack_to_text(e.pi)}{mark}")
    lines.append(f"total steps: {outcome.total_steps}")
    return "\n".join(lines)


def _g0_text(outcome) -> str:
    lines = [f"verdict: {outcome.verdict}"]
    if outcome.reason is not None:
        lines.append(f"reason: {outcome.reason} ({outcome.detail})")
    for number, mv in enumerate(outcome.moves, start=1):
        lines.append(f"move {number}: entry {mv.entry_index} + (m={mv.m}, n={mv.n})")
    for idx, (ms, ns) in enumerate(outcome.history):
        lines.append(f"entry {idx}: ms={list(ms)} ns={list(ns)}")
    return "\n".join(lines)


def cmd_match(args) -> int:
    table = _formula_table(args.formula_file)
    phi = _pick_formula(table, args.formula)
    leading_flag = _csv_ints(args.leading, "--leading") if args.leading else None

    if args.game == "g0":
        if args.realizer or args.abelard:
            raise LamcError("the numbers-only game is played between the "
                            "built-in enumerating strategies; it takes "
                            "--bound, not --realizer/--abelard")
        zs = leading_flag if leading_flag is not None else ()
        outcome = play_g0(phi, blind_box_eloise(phi, args.bound),
                          minimax_g0_abelard(phi, args.bound, zs=zs), zs=zs)
        if args.json:
            print(_dumps({
                "verdict": outcome.verdict,
                "reason": outcome.reason,
                "detail": outcome.detail,
                "history": [{"ms": list(ms), "ns": list(ns)}
                            for ms, ns in outcome.history],
                "moves": [{"entry": mv.entry_index, "m": mv.m, "n": mv.n}
                          for mv in outcome.moves],
            }))
        else:
            print(_g0_text(outcome))
        return 0 if outcome.eloise_won else 1

    if not args.realizer or not args.abelard:
        raise LamcError("machine games want --realizer and --abelard")
    registry = _full_registry()
    realizer = resolve_realizer(registry, args.realizer, table)

    script_leading: tuple[int, ...] = ()
    script_handle = None
    if args.abelard == "interactive":
        abelard = InteractiveAbelard(registry)
    elif args.abelard == "fresh":
        if args.answers is None:
            raise LamcError("--abelard fresh wants --answers n1,n2,...")
        abelard = FreshConstantAbelard(registry,
                                       _csv_literals(args.answers, "--answers"))
    elif args.abelard == "random":
        abelard = RandomAbelard(registry, seed=args.seed)
    else:
        script_leading, script_handle, abelard = load_abelard_script(
            args.abelard, registry)

    if args.handle is not None:
        handle_p = parse_process(args.handle, registry)
        handle = (handle_p.term, handle_p.stack)
    elif script_handle is not None:
        handle = script_handle
    else:
        handle = fresh_handle(registry)
    leading = (_csv_literals(args.leading, "--leading") if args.leading
               else script_leading)

    if args.game == "g1":
        total = args.steps if args.steps is not None else _steps_default(1_000_000)
        outcome = play_g1(registry, realizer, phi, handle, abelard,
                          leading=leading, phase_budget=args.phase_steps,
                          total_budget=total)
    else:
        total = args.steps if args.steps is not None else _steps_default(100_000)
        outcome = play_g2(registry, realizer, phi, handle, abelard,
                          leading=leading, quantum=args.quantum,
                          total_budget=total)
    if args.json:
        print(_dumps(outcome.to_json()))
    else:
        print(_match_text(outcome))
    return 0 if outcome.eloise_won else 1


### scheme

def cmd_scheme(args) -> int:
    registry = _plain_registry()
    table = _formula_table(args.formula_file)
    phi = _pick_formula(table, args.formula)
    if args.term is not None:
        subject = parse_term(args.term, registry)
    elif args.realizer == DEMO_NAME:
        subject = build_scripted_realizer(DEMO_PARENTS, DEMO_MS, DEMO_SUCCESS,
                                          registry)
    elif args.realizer:
        subject = resolve_realizer(registry, args.realizer, table)
    else:
        raise LamcError("scheme wants --realizer NAME or --term TEXT")
    answers = _csv_literals(args.answers, "--answers")
    budget = args.steps if args.steps is not None else _steps_default(100_000)
    out = extract_scheme(subject, answers, phi, budget=budget,
                         registry=registry)
    if out.ok:
        if args.json:
            print(_dumps(out.to_json()))
        elif args.dot:
            print(out.render_dot())
        else:
            print(out.render_text())
        return 0
    partial = [{"idx": n.idx, "path": list(n.path), "m": n.m, "n": n.n,
                "parent": n.parent} for n in out.nodes]
    if args.json:
        print(_dumps({"ok": False, "kind": out.kind, "detail": out.detail,
                      "nodes": partial}))
    else:
        print(f"extraction failed ({out.kind}): {out.detail}")
        for row in partial:
            print(f"node {row['idx']}: path={row['path']} m={row['m']} "
                  f"n={row['n']} parent={row['parent']}")
    return 1


### oracle

def cmd_oracle(args) -> int:
    table = _formula_table(args.formula_file)
    phi = _pick_formula(table, args.formula)
    zs = _csv_ints(args.leading, "--leading") if args.leading else ()
    verdict = truth_oracle_g0(phi, args.bound, zs=zs,
                              caveat_unknown=args.caveat_unknown)
    caveat = (f"searched with the opponent's integers in [0, {args.bound}] and "
              f"the prover's in [0, {args.bound + 1}]; a win is exact, a loss "
              f"only means no win inside that box")
    if args.json:
        print(_dumps({"formula": phi.name, "bound": args.bound,
                      "leading": list(zs), "verdict": verdict,
                      "caveat": caveat}))
    else:
        print(verdict)
        print(f"caveat: {caveat}")
    return 0


### list

def cmd_list(args) -> int:
    table = _formula_table(args.formula_file)
    catalog = realizer_catalog()
    realizers = {name: entry.summary for name, entry in catalog.items()}
    realizers[DEMO_NAME] = "walks a fixed six-interaction tree"
    if args.json:
        print(_dumps({
            "formulae": {name: {"leadingForalls": phi.leading_foralls,
                                "rounds": phi.rounds}
                         for name, phi in table.items()},
            "realizers": realizers,
        }))
        return 0
    print("formulae:")
    for name in sorted(table):
        phi = table[name]
        print(f"  {name}: {phi.leading_foralls} leading foralls, "
              f"{phi.rounds} rounds")
    print("realizers:")
    for name in sorted(realizers):
        print(f"  {name}: {realizers[name]}")
    return 0


### wiring

# Built on the first call and shared by every later one: parse_args returns
# a fresh Namespace, no default depends on the environment (LAMC_STEPS is
# read by the commands), and help text is wrapped to COLUMNS when printed.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamc",
        description="stack machine with control operators, and "
                    "history-keeping games over arithmetic formulae")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="run one process to its terminal")
    p_eval.add_argument("process", help='process text, e.g. "(\\x. x) * a0"')
    p_eval.add_argument("--steps", type=int, default=None,
                        help="step budget (default 10000 or LAMC_STEPS)")
    p_eval.add_argument("--trace", action="store_true",
                        help="print every configuration, not just the last")
    p_eval.add_argument("--registry", choices=("full", "plain"),
                        default="full",
                        help="instruction set to parse and run against")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(fn=cmd_eval)

    p_match = sub.add_parser("match", help="play a refereed match")
    p_match.add_argument("--game", choices=("g0", "g1", "g2"), required=True)
    p_match.add_argument("--realizer", default=None,
                         help="player term by catalog name (machine games)")
    p_match.add_argument("--formula", required=True)
    p_match.add_argument("--formula-file", default=None,
                         help="JSON file with extra formulae")
    p_match.add_argument("--abelard", default=None,
                         help="script path, or interactive | fresh | random")
    p_match.add_argument("--answers", default=None,
                         help="numbers for --abelard fresh, e.g. 0,2,0")
    p_match.add_argument("--seed", type=int, default=0,
                         help="seed for --abelard random")
    p_match.add_argument("--leading", default=None,
                         help="values for the leading universal block")
    p_match.add_argument("--handle", default=None,
                         help='starting handle as process text "u * pi"')
    p_match.add_argument("--steps", type=int, default=None,
                         help="total step budget (default per game or "
                              "LAMC_STEPS)")
    p_match.add_argument("--phase-steps", type=int, default=10_000,
                         help="per-phase budget in the single-thread game")
    p_match.add_argument("--quantum", type=int, default=256,
                         help="steps per thread per round in the "
                              "keep-everything game")
    p_match.add_argument("--bound", type=int, default=4,
                         help="search bound for the numbers-only game")
    p_match.add_argument("--json", action="store_true")
    p_match.set_defaults(fn=cmd_match)

    p_scheme = sub.add_parser("scheme",
                              help="extract an interaction scheme")
    p_scheme.add_argument("--realizer", default=None,
                          help=f"catalog name or {DEMO_NAME}")
    p_scheme.add_argument("--term", default=None,
                          help="subject as raw term text instead")
    p_scheme.add_argument("--formula", required=True)
    p_scheme.add_argument("--formula-file", default=None)
    p_scheme.add_argument("--answers", required=True,
                          help="opponent numbers, e.g. 4 or 0,2,0,0,0,0")
    p_scheme.add_argument("--steps", type=int, default=None,
                          help="step budget (default 100000 or LAMC_STEPS)")
    p_scheme.add_argument("--json", action="store_true")
    p_scheme.add_argument("--dot", action="store_true",
                          help="print the tree in DOT instead of text")
    p_scheme.set_defaults(fn=cmd_scheme)

    p_oracle = sub.add_parser("oracle",
                              help="bounded truth search for a formula")
    p_oracle.add_argument("--formula", required=True)
    p_oracle.add_argument("--formula-file", default=None)
    p_oracle.add_argument("--bound", type=int, required=True)
    p_oracle.add_argument("--leading", default=None,
                          help="values for the leading universal block")
    p_oracle.add_argument("--caveat-unknown", action="store_true",
                          help='report "unknown" instead of "lose"')
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.set_defaults(fn=cmd_oracle)

    p_list = sub.add_parser("list", help="formulae and realizers in the box")
    p_list.add_argument("--formula-file", default=None)
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(fn=cmd_list)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one lamc command and return its exit code. The argument parser
    is built on the first call and reused by later calls in the same
    process, so an in-process caller pays for building it once."""
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LamcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply for the recursion limit",
              file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EOFError:
        print("error: input ended", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
