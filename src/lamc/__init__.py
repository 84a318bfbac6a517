"""Stack machine for a lambda calculus with control, plus realizability games.

The package splits into six layers, re-exported here:

- ``syntax``    -- terms, stacks, processes, parsing, and printing;
- ``machine``   -- the stack machine: registries, single steps, bounded runs;
- ``formula``   -- primitive-recursive payoffs, quantified formulae, the
  bounded truth search, and a tiny Turing-machine enumeration;
- ``game``      -- the three referees (numbers-only, single-thread,
  keep-everything) and a cast of adversaries;
- ``scheme``    -- interaction-tree extraction from a terminating strategy and
  substitution-based replay checks;
- ``realizers`` -- the catalog of concrete strategy terms.
"""

from .syntax import (
    App,
    Bound,
    Bottom,
    Const,
    Cont,
    FreeVar,
    Lam,
    LamcError,
    LamcParseError,
    Process,
    Push,
    Registry,
    Stack,
    Term,
    alpha_eq,
    decode_numeral,
    fresh_constants,
    numeral,
    parse_process,
    parse_stack,
    parse_term,
    process_to_text,
    stack_to_text,
    subst_const,
    subst_stack_const,
    subst_var,
    term_to_text,
)
from .machine import (
    Machine,
    MachineConfig,
    Terminal,
    Trace,
    run,
    settle,
)
from .formula import (
    ArithFormula,
    PrimRecFn,
    TuringMachineTable,
    builtin_formulae,
    decode_table,
    encode_table,
    eval_fn,
    halt_predicate,
    load_formula_registry,
    make_theta,
    simulate,
    truth_oracle_g0,
)
from .game import (
    FreshConstantAbelard,
    G0Outcome,
    History,
    HistoryEntry,
    InteractiveAbelard,
    MatchOutcome,
    MoveRecord,
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
from .scheme import (
    SchemeFailure,
    ThreadScheme,
    build_scripted_realizer,
    extract_scheme,
    replay_with_substitution,
    verify_replay,
)
from .realizers import (
    check_identity_like,
    identity_like_family,
    realizer_catalog,
    resolve_realizer,
    storage_operator,
)

__all__ = [
    # syntax
    "App", "Bound", "Bottom", "Const", "Cont", "FreeVar", "Lam",
    "LamcError", "LamcParseError", "Process", "Push", "Registry",
    "Stack", "Term", "alpha_eq", "decode_numeral", "fresh_constants",
    "numeral", "parse_process", "parse_stack", "parse_term",
    "process_to_text", "stack_to_text", "subst_const",
    "subst_stack_const", "subst_var", "term_to_text",
    # machine
    "Machine", "MachineConfig", "Terminal", "Trace", "run", "settle",
    # formula
    "ArithFormula", "PrimRecFn", "TuringMachineTable", "builtin_formulae",
    "decode_table", "encode_table", "eval_fn", "halt_predicate",
    "load_formula_registry", "make_theta", "simulate",
    "truth_oracle_g0",
    # game
    "FreshConstantAbelard", "G0Outcome", "History", "HistoryEntry",
    "InteractiveAbelard", "MatchOutcome", "MoveRecord", "RandomAbelard",
    "ScriptedAbelard", "blind_box_eloise", "check_strategy",
    "fresh_handle", "load_abelard_script", "minimax_g0_abelard",
    "play_g0", "play_g1", "play_g2", "scripted_g0_abelard",
    "scripted_g0_eloise", "transcript_to_script",
    # scheme
    "SchemeFailure", "ThreadScheme", "build_scripted_realizer",
    "extract_scheme", "replay_with_substitution", "verify_replay",
    # realizers
    "check_identity_like", "identity_like_family", "realizer_catalog",
    "resolve_realizer", "storage_operator",
]

__version__ = "0.1.0"
