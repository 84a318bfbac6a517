"""Per-layer spans for the traced run.

Spans are recorded from the benchmark's side: the public functions of each
lamc module are wrapped under the name each caller module imported them by
(``lamc.game.decode_numeral``, ``lamc.cli.play_g1``, the benchmark's own
``workloads.extract_scheme``, ...), so a span is a call that crosses from one
layer into another. Calls a module makes to its own functions stay unwrapped,
except for the few listed in ``_INTRA`` where the inner call is the layer's
work (payoffs reached from the Theta instructions, the simulator behind the
halting payoff, the substitution pass of ``verify_replay``). Methods that are
the layer boundary (machine steps, history lookups, adversary replies) are
wrapped on their class.

Spans are folded into per-kind totals as they close, so the trace costs no
memory per call: inclusive time, self time (inclusive time minus the time of
the spans it caused) and a call count per kind.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from time import perf_counter

import lamc.cli
import lamc.formula
import lamc.game
import lamc.machine
import lamc.realizers
import lamc.scheme
import lamc.syntax

LAMC_MODULES = (lamc.syntax, lamc.machine, lamc.formula, lamc.game,
                lamc.realizers, lamc.scheme, lamc.cli)

# (defining module, function name) -> span kind
FUNCTIONS = {
    **{(lamc.syntax, n): "syntax.parse"
       for n in ("parse_term", "parse_stack", "parse_process")},
    **{(lamc.syntax, n): "syntax.print"
       for n in ("term_to_text", "stack_to_text", "process_to_text")},
    **{(lamc.syntax, n): "syntax.subst"
       for n in ("subst_bound0", "subst_var", "subst_const",
                 "subst_stack_const")},
    **{(lamc.syntax, n): "syntax.decode"
       for n in ("decode_numeral", "decode_nat_tuple", "decode_list")},
    (lamc.syntax, "numeral"): "syntax.numeral",
    (lamc.machine, "run"): "machine.run",
    (lamc.formula, "eval_fn"): "formula.payoff",
    (lamc.formula, "simulate"): "formula.simulate",
    (lamc.formula, "truth_oracle_g0"): "formula.oracle",
    (lamc.game, "play_g1"): "game.g1",
    (lamc.game, "play_g2"): "game.g2",
    (lamc.realizers, "resolve_realizer"): "realizers.build",
    (lamc.scheme, "build_scripted_realizer"): "scheme.build",
    (lamc.scheme, "extract_scheme"): "scheme.extract",
    (lamc.scheme, "replay_with_substitution"): "scheme.predict",
    (lamc.scheme, "verify_replay"): "scheme.replay",
    (lamc.cli, "main"): "cli.main",
}

_INTRA = {(lamc.formula, "eval_fn"), (lamc.formula, "simulate"),
          (lamc.scheme, "replay_with_substitution")}

# (class, method name) -> span kind; "machine.step" is split by rule family
METHODS = {
    (lamc.machine.Machine, "step_labeled"): "machine.step",
    (lamc.game.History, "final_matches"): "game.lookup",
    (lamc.game.History, "open_match"): "game.lookup",
    **{(cls, "__call__"): "game.adversary"
       for cls in (lamc.game.RandomAbelard, lamc.game.ScriptedAbelard,
                   lamc.game.FreshConstantAbelard)},
}

FAMILIES = ("push", "grab", "save", "restore", "quote", "eq", "eq_nat",
            "turn", "advance", "lookup", "next", "theta", "head", "other")

_FIXED_FAMILY = {"Push": "push", "Grab": "grab", "Save": "save",
                 "Restore": "restore", "Quote": "quote", "Eq": "eq",
                 "EqNat": "eq_nat", "next": "next"}
_PREFIX_FAMILY = ((re.compile(r"T\d+_"), "turn"), (re.compile(r"N_"), "advance"),
                  (re.compile(r"L_"), "lookup"), (re.compile(r"Theta_"), "theta"),
                  (re.compile(r"t_phi_"), "head"))


def rule_family(label: str) -> str:
    fam = _FIXED_FAMILY.get(label)
    if fam is not None:
        return fam
    for pattern, fam in _PREFIX_FAMILY:
        if pattern.match(label):
            return fam
    return "other"


class Tracer:
    """Installs the wrappers, folds spans into totals, and removes them."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[float] = []        # child time of each open span
        self._family_of: dict[str, str] = {}
        self._undo: list[tuple[object, str, object]] = []

    ### span bookkeeping

    def _close(self, kind: str, elapsed: float) -> None:
        child = self._open.pop()
        self.total[kind] += elapsed
        self.self_time[kind] += elapsed - child
        self.calls[kind] += 1
        if self._open:
            self._open[-1] += elapsed

    def _wrap(self, kind: str, fn):
        opened, close, observe = self._open, self._close, self._observe

        def wrapper(*args, **kwargs):
            opened.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(kind, perf_counter() - start)
            observe(kind, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_step(self, fn):
        opened, close, counts = self._open, self._close, self.counts
        family_of = self._family_of

        def step_labeled(machine, p):
            opened.append(0.0)
            start = perf_counter()
            try:
                result = fn(machine, p)
            except BaseException:
                close("machine.step.none", perf_counter() - start)
                raise
            elapsed = perf_counter() - start
            label = result[1]
            if label is None:
                close("machine.step.none", elapsed)
            else:
                fam = family_of.get(label)
                if fam is None:
                    fam = family_of[label] = rule_family(label)
                close("machine.step." + fam, elapsed)
                counts["machine.steps"] += 1
            return result

        step_labeled.__wrapped__ = fn
        return step_labeled

    def _observe(self, kind: str, result) -> None:
        counts = self.counts
        if kind == "syntax.print":
            counts["syntax.print_bytes"] += len(result.encode("utf-8"))
        elif kind == "game.lookup":
            if result:
                counts["game.lookup_hits"] += 1
        elif kind in ("game.g1", "game.g2"):
            counts["game.moves"] += len(result.moves)
            counts["game.retained_configs"] += sum(map(len, result.segments))
            if kind == "game.g2":
                counts["game.g2_threads"] += len(result.segments)
        elif kind == "scheme.extract" and result.ok:
            counts["scheme.nodes"] += len(result.nodes)
            counts["scheme.line_steps"] += sum(len(line.steps) - 1
                                               for line in result.lines)

    ### installation

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, caller_modules=()) -> None:
        """Wrap every tracked function in every lamc module and in the given
        benchmark modules that imported it, and every tracked method."""
        for (home, name), kind in FUNCTIONS.items():
            original = getattr(home, name)
            if kind == "formula.payoff":
                wrapper = self._wrap_payoff(original)
            else:
                wrapper = self._wrap(kind, original)
            for module in (*LAMC_MODULES, *caller_modules):
                if module is home and (home, name) not in _INTRA:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for (cls, name), kind in METHODS.items():
            original = cls.__dict__[name]
            if kind == "machine.step":
                self._patch(cls, name, self._wrap_step(original))
            else:
                self._patch(cls, name, self._wrap(kind, original))

    def _wrap_payoff(self, fn):
        """eval_fn, split into native and DSL calls by the function it gets."""
        inner = self._wrap("formula.payoff", fn)
        counts = self.counts

        def eval_fn(prf, args):
            counts["formula.payoff_native_calls" if prf.native is not None
                   else "formula.payoff_dsl_calls"] += 1
            return inner(prf, args)

        eval_fn.__wrapped__ = fn
        return eval_fn

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    ### read-out

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics accumulated so far, by metric name."""
        t, s, c, n = self.total, self.self_time, self.calls, self.counts
        step_kinds = [k for k in t if k.startswith("machine.step.")]
        out = {
            "syntax.parse_s": t["syntax.parse"],
            "syntax.parse_calls": c["syntax.parse"],
            "syntax.print_s": t["syntax.print"],
            "syntax.print_calls": c["syntax.print"],
            "syntax.print_bytes": n["syntax.print_bytes"],
            "syntax.subst_s": t["syntax.subst"],
            "syntax.subst_calls": c["syntax.subst"],
            "syntax.decode_s": t["syntax.decode"],
            "syntax.decode_calls": c["syntax.decode"],
            "syntax.numeral_s": t["syntax.numeral"],
            "syntax.numeral_calls": c["syntax.numeral"],
            "machine.steps": n["machine.steps"],
            "machine.step_s": sum(t[k] for k in step_kinds),
        }
        for fam in FAMILIES:
            out[f"machine.steps.{fam}"] = c["machine.step." + fam]
            out[f"machine.step_s.{fam}"] = t["machine.step." + fam]
        out.update({
            "machine.run_s": t["machine.run"],
            "machine.run_self_s": s["machine.run"],
            "formula.payoff_s": t["formula.payoff"],
            "formula.payoff_native_calls": n["formula.payoff_native_calls"],
            "formula.payoff_dsl_calls": n["formula.payoff_dsl_calls"],
            "formula.oracle_s": t["formula.oracle"],
            "formula.oracle_calls": c["formula.oracle"],
            "formula.simulate_s": t["formula.simulate"],
            "formula.simulate_calls": c["formula.simulate"],
            "game.g1_s": t["game.g1"],
            "game.g2_s": t["game.g2"],
            "game.referee_self_s": s["game.g1"] + s["game.g2"],
            "game.lookup_s": t["game.lookup"],
            "game.lookup_calls": c["game.lookup"],
            "game.lookup_hits": n["game.lookup_hits"],
            "game.adversary_s": t["game.adversary"],
            "game.moves": n["game.moves"],
            "game.retained_configs": n["game.retained_configs"],
            "game.g2_threads": n["game.g2_threads"],
            "realizers.build_s": t["realizers.build"],
            "realizers.build_calls": c["realizers.build"],
            "scheme.build_s": t["scheme.build"],
            "scheme.extract_s": t["scheme.extract"],
            "scheme.predict_s": t["scheme.predict"],
            "scheme.replay_s": t["scheme.replay"],
            "scheme.nodes": n["scheme.nodes"],
            "scheme.line_steps": n["scheme.line_steps"],
            "cli.main_s": t["cli.main"],
            "cli.main_self_s": s["cli.main"],
            "cli.output_bytes": n["cli.output_bytes"],
        })
        return out


def combine(setup: dict, rounds: dict, nrounds: int) -> dict:
    """One set-up plus one average round: setup + (rounds - setup) / nrounds,
    where `rounds` is the snapshot taken after the rounds."""
    out = {}
    for name, value in rounds.items():
        base = setup.get(name, 0)
        out[name] = base + (value - base) / nrounds
    calls = out["game.lookup_calls"]
    out["game.lookup_hit_ratio"] = out["game.lookup_hits"] / calls if calls else 0.0
    return out


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = list(Tracer().snapshot())
    names.insert(names.index("game.lookup_hits") + 1, "game.lookup_hit_ratio")
    return names + ["trace.overhead_ratio"]

