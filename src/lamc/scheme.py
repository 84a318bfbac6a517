"""Play-tree extraction by interaction with fresh constants.

Running a realizer against a brand-new inert constant and a brand-new stack
bottom forces every exchange into one of two recognizable shapes: the constant
applied to a number and a handler over its own bottom (a play), or the
constant alone on its own bottom (a finish). Recording those shapes yields a
tree of plays, the numbers exchanged at each node, and the line-by-line run
segments, all replayable under substitution because the regime without
code-inspecting instructions cannot tell a fresh constant from anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence, Union

from .formula import ArithFormula
from .game import fresh_handle, play_shape
from .machine import Machine, MachineConfig, walk
from .syntax import (
    Bottom,
    Const,
    LamcError,
    Process,
    Push,
    Registry,
    Stack,
    Term,
    is_closed,
    numeral,
    parse_term,
    process_to_text,
    subst_consts,
    subst_var,
    term_to_text,
)

Path = tuple[int, ...]


### extraction results

@dataclass(frozen=True)
class SchemeNode:
    idx: int
    path: Path
    m: Optional[int]
    n: Optional[int]
    parent: Optional[int]
    term: Term


@dataclass(frozen=True)
class SchemeLine:
    """One run segment: from a resumed handler to the next recognized shape."""

    steps: tuple[Process, ...]

    @property
    def start(self) -> Process:
        return self.steps[0]

    @property
    def end(self) -> Process:
        return self.steps[-1]


@dataclass
class ThreadScheme:
    nodes: list[SchemeNode]
    lines: list[SchemeLine]
    final_line: int                  # which line reached the finishing shape
    success_index: int               # which constant's bottom it finished on
    handles: list[tuple[Const, Bottom]]  # the pair minted for each line
    ok: bool = True

    def shape(self) -> list[tuple[Path, Optional[int], Optional[int], Optional[int]]]:
        """Registry-independent fingerprint: (path, m, n, parent) per node."""
        return [(n.path, n.m, n.n, n.parent) for n in self.nodes]

    def values_along(self, path: Path) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The numbers exchanged at each prefix of the path, shallow first."""
        path = tuple(path)
        node = next((n for n in self.nodes if n.path == path), None)
        if node is None:
            raise LamcError(f"no node at path {path}")
        ms, ns = [], []
        while node.parent is not None:
            ms.append(node.m)
            ns.append(node.n)
            node = self.nodes[node.parent]
        return tuple(reversed(ms)), tuple(reversed(ns))

    def to_json(self) -> dict:
        return {
            "nodes": [
                {"idx": n.idx, "path": list(n.path), "m": n.m, "n": n.n,
                 "parent": n.parent, "term": term_to_text(n.term)}
                for n in self.nodes
            ],
            "final": {"f": self.final_line, "s": self.success_index},
        }

    def render_text(self) -> str:
        out = []
        for i, line in enumerate(self.lines):
            left = f"{process_to_text(line.start)}  >...>  " \
                   f"{process_to_text(line.end)}"
            if i + 1 < len(self.nodes):
                node = self.nodes[i + 1]
                right = f"node {node.idx} at {'.'.join(map(str, node.path)) or '()'}" \
                        f"  m={node.m} n={node.n} parent={node.parent}"
            else:
                right = f"finish on {self.success_index}"
            out.append(f"{left:<100}  | {right}")
        return "\n".join(out)

    def constant_names(self, j: int) -> tuple[str, str]:
        """The minted constant and bottom names of interaction j."""
        if not 0 <= j < len(self.handles):
            raise LamcError(f"no interaction {j} in the scheme")
        kappa, alpha = self.handles[j]
        return kappa.name, alpha.name

    def render_dot(self) -> str:
        out = ["digraph scheme {", '  node [shape=box];',
               '  n0 [label="root"];']
        for node in self.nodes[1:]:
            label = f"{node.idx}: m={node.m} n={node.n}"
            shape = ' color=red' if node.idx == self.success_index else ""
            out.append(f'  n{node.idx} [label="{label}"{shape}];')
            out.append(f"  n{node.parent} -> n{node.idx};")
        out.append("}")
        return "\n".join(out)


@dataclass
class SchemeFailure:
    kind: str                        # "budget" | "stuck"
    detail: str
    nodes: list[SchemeNode]
    lines: list[SchemeLine]
    ok: bool = False


ExtractResult = Union[ThreadScheme, SchemeFailure]


### extraction

def _interaction_shape(p: Process, kappa_index: dict[str, int],
                       handles: list[tuple[Const, Bottom]]):
    """Classify p as ('finish', j), ('play', j, m, t) or None."""
    t = p.term
    if not isinstance(t, Const) or t.name not in kappa_index:
        return None
    j = kappa_index[t.name]
    alpha = handles[j][1]
    if p.stack == alpha:
        return ("finish", j)
    shape = play_shape(p)
    if shape is not None and shape[0][1] == alpha:
        return ("play", j, shape[1], shape[2])
    return None


def extract_scheme(t0: Term, nseq: Sequence[int], phi: ArithFormula,
                   budget: int = 100_000,
                   registry: Optional[Registry] = None) -> ExtractResult:
    """Run t0 against fresh constants, recording every exchange as a tree node.

    Each time the machine reaches constant j applied to a literal number and a
    handler over j's own bottom, a child node is attached under j's path, in
    j's first unused child slot, and the handler is resumed with the next
    scripted answer and a freshly minted pair. Extraction succeeds when some
    constant s is reached bare on its own bottom at full depth with payoff
    zero.
    """
    if registry is None:
        registry = MachineConfig().build()
    if registry.has_quote_like:
        raise LamcError("extraction wants a registry without code-inspecting "
                        "instructions: they break substitution replay")
    if not is_closed(t0):
        raise LamcError("the subject term must be closed")
    if phi.leading_foralls:
        raise LamcError(
            f"formula {phi.name} has a leading block of "
            f"{phi.leading_foralls}; extraction starts from the bare handle "
            f"and has nowhere to put those numbers")

    machine = Machine(registry)
    handles: list[tuple[Const, Bottom]] = []
    kappa_index: dict[str, int] = {}
    nodes: list[SchemeNode] = [SchemeNode(0, (), None, None, None, t0)]
    children = [0]                   # child slots used under each node
    lines: list[SchemeLine] = []
    answers = list(nseq)
    steps_left = budget

    while True:
        # each line resumes the newest node's term on a freshly minted pair,
        # after the answer it was given (the root has none)
        kappa, alpha = fresh_handle(registry)
        kappa_index[kappa.name] = len(handles)
        handles.append((kappa, alpha))
        node = nodes[-1]
        stack = Push(kappa, alpha)
        if node.n is not None:
            stack = Push(numeral(node.n), stack)
        p = Process(node.term, stack)

        # one line: the run from p to the next recognized shape
        trace: list[Process] = []
        seen: set[Process] = set()
        for p, _ in walk(machine, p):
            if p in seen:
                return SchemeFailure("stuck", "the run entered a loop",
                                     nodes, lines)
            seen.add(p)
            trace.append(p)
            shape = _interaction_shape(p, kappa_index, handles)
            if shape is not None:
                break
            if steps_left <= 0:
                return SchemeFailure("budget", "step budget exhausted",
                                     nodes, lines)
            steps_left -= 1
        else:
            return SchemeFailure(
                "stuck", f"no continuation at {process_to_text(p)}",
                nodes, lines)

        lines.append(SchemeLine(tuple(trace)))
        if shape[0] == "finish":
            s = shape[1]
            path = nodes[s].path
            if len(path) != phi.rounds:
                return SchemeFailure(
                    "stuck",
                    f"finished on constant {s} at depth {len(path)}, "
                    f"but the formula has {phi.rounds} rounds",
                    nodes, lines)
            scheme = ThreadScheme(nodes, lines, len(lines) - 1, s, handles)
            ms, ns = scheme.values_along(path)
            payoff = phi.f_value((), ms, ns)
            if payoff != 0:
                return SchemeFailure(
                    "stuck",
                    f"finished at full depth but the payoff is {payoff}, "
                    f"not 0, at {path}",
                    nodes, lines)
            return scheme

        _, j, m, handler = shape
        if not answers:
            return SchemeFailure("budget", "answer sequence exhausted",
                                 nodes, lines)
        path = nodes[j].path + (children[j],)
        children[j] += 1
        children.append(0)
        nodes.append(SchemeNode(len(nodes), path, m, answers.pop(0), j, handler))


### substitution along a path

def path_substitution(scheme: ThreadScheme, path: Path) -> dict[str, int]:
    """{x_i/y_i: numbers exchanged at the i-th prefix}, 2|path| entries."""
    ms, ns = scheme.values_along(path)
    subst: dict[str, int] = {}
    for i, (m, n) in enumerate(zip(ms, ns), start=1):
        subst[f"x{i}"] = m
        subst[f"y{i}"] = n
    return subst


def substitute_along(scheme: ThreadScheme, path: Path, subject: Term) -> Term:
    """Replace the placeholder variables x1, y1, ... in the subject with the
    numbers exchanged along the path."""
    out = subject
    for var, value in path_substitution(scheme, path).items():
        out = subst_var(out, var, numeral(value))
    return out


### substitution replay

def replay_with_substitution(scheme: ThreadScheme,
                             replacements: dict[int, tuple[Term, Stack]]
                             ) -> list[tuple[Process, Process]]:
    """Predicted (start, end) for every line once constants are replaced.

    Replacing constant j by a closed term and its bottom by a stack rewrites
    every recorded line; in the substitutive regime the machine must still
    walk each rewritten start to its rewritten end in the same number of
    steps.
    """
    for j, (u, _) in replacements.items():
        if not is_closed(u):
            raise LamcError(f"replacement term for constant {j} must be closed")
    if not all(is_closed(pi) for _, pi in replacements.values()):
        raise LamcError("substituting an open stack for a stack constant")
    # Constant j, then its bottom, are replaced in the order of the
    # replacements, so an image is rewritten by every later replacement and
    # by no earlier one: compose the images once, from the last replacement
    # back, and rewrite each line in one pass.
    terms: dict[str, Term] = {}
    stacks: dict[str, Stack] = {}
    for j, (u, pi) in reversed(replacements.items()):
        kname, aname = scheme.constant_names(j)
        stacks[aname] = subst_consts(pi, terms, stacks)
        terms[kname] = subst_consts(u, terms, stacks)
    return [(subst_consts(line.start, terms, stacks),
             subst_consts(line.end, terms, stacks)) for line in scheme.lines]


def verify_replay(registry: Registry, scheme: ThreadScheme,
                  replacements: dict[int, tuple[Term, Stack]]) -> bool:
    """Run every rewritten line and confirm it reaches its rewritten end at
    the recorded step count."""
    machine = Machine(registry)
    for (start, end), line in zip(replay_with_substitution(scheme, replacements),
                                  scheme.lines):
        reached = next(islice(walk(machine, start), len(line.steps) - 1, None),
                       None)
        if reached is None or reached[0] != end:
            return False
    return True


### a scripted scheme builder

def build_scripted_realizer(parents: Sequence[int], m_values: Sequence[int],
                            success: int, registry: Registry) -> Term:
    """A closed term that interacts along a prescribed tree.

    parents[i] names the node (0 = root) whose constant is resumed to emit
    node i+1's play of m_values[i]; after the last play the term finishes on
    the constant numbered `success`. The term captures each bottom with the
    control instruction, so any earlier interaction point can be revisited.
    """
    if len(parents) != len(m_values):
        raise LamcError("one parent per played value")
    if parents and parents[0] != 0:
        raise LamcError("the first play always answers the first constant")
    k = len(parents)
    if not 0 <= success <= k:
        raise LamcError(f"no interaction {success} to finish on")
    text = f"cc (\\c{k}. c{success} k{success})"
    for i in range(k - 1, 0, -1):
        j = parents[i]
        text = f"cc (\\c{i}. c{j} (k{j} #{m_values[i]} (\\n{i + 1} k{i + 1}. {text})))"
    text = f"\\k0. cc (\\c0. k0 #{m_values[0]} (\\n1 k1. {text}))" if k else \
        f"\\k0. cc (\\c0. c0 k0)"
    return parse_term(text, registry)
