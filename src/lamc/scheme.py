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
    decode_numeral,
    fresh_constants,
    is_closed,
    numeral,
    parse_term,
    process_to_text,
    subst_consts,
    subst_var,
    term_to_text,
)

Path = tuple[int, ...]


### the play tree

class PathTree:
    """Paths in addition order; index 0 is the empty root path.

    Every insertion preserves two closure properties: a path's parent is
    already present, and so are all of its smaller-numbered siblings.
    """

    def __init__(self):
        self._paths: list[Path] = [()]
        self._index: dict[Path, int] = {(): 0}

    def add(self, path: Path) -> int:
        path = tuple(path)
        if path in self._index:
            raise LamcError(f"path {path} already in the tree")
        if not path:
            raise LamcError("the root path is always present")
        parent, c = path[:-1], path[-1]
        if parent not in self._index:
            raise LamcError(f"path {path} lacks its parent in the tree")
        if c > 0 and parent + (c - 1,) not in self._index:
            raise LamcError(f"path {path} skips a smaller sibling")
        self._paths.append(path)
        self._index[path] = len(self._paths) - 1
        return self._index[path]

    def add_child(self, parent: Path) -> Path:
        """Attach the first unused child slot under the parent."""
        parent = tuple(parent)
        if parent not in self._index:
            raise LamcError(f"no node at path {parent}")
        c = 0
        while parent + (c,) in self._index:
            c += 1
        path = parent + (c,)
        self.add(path)
        return path

    def path(self, index: int) -> Path:
        return self._paths[index]

    def index_of(self, path: Path) -> int:
        try:
            return self._index[tuple(path)]
        except KeyError:
            raise LamcError(f"no node at path {tuple(path)}") from None

    def __contains__(self, path) -> bool:
        return tuple(path) in self._index

    def __len__(self) -> int:
        return len(self._paths)

    def paths(self) -> list[Path]:
        return list(self._paths)

    def validate(self) -> None:
        seen: set[Path] = set()
        for path in self._paths:
            if path:
                if path[:-1] not in seen:
                    raise LamcError(f"path {path} precedes its parent")
                if path[-1] > 0 and path[:-1] + (path[-1] - 1,) not in seen:
                    raise LamcError(f"path {path} precedes a smaller sibling")
            seen.add(path)


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

    start: Process
    end: Process
    steps: tuple[Process, ...]


@dataclass
class ThreadScheme:
    nodes: list[SchemeNode]
    lines: list[SchemeLine]
    final_line: int                  # which line reached the finishing shape
    success_index: int               # which constant's bottom it finished on
    depth: int
    ok: bool = True

    def tree(self) -> PathTree:
        t = PathTree()
        for node in self.nodes[1:]:
            t.add(node.path)
        return t

    def shape(self) -> list[tuple[Path, Optional[int], Optional[int], Optional[int]]]:
        """Registry-independent fingerprint: (path, m, n, parent) per node."""
        return [(n.path, n.m, n.n, n.parent) for n in self.nodes]

    def values_along(self, path: Path) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The numbers exchanged at each prefix of the path, shallow first."""
        tree = {node.path: node for node in self.nodes}
        path = tuple(path)
        if path not in tree:
            raise LamcError(f"no node at path {path}")
        ms, ns = [], []
        for i in range(1, len(path) + 1):
            node = tree[path[:i]]
            ms.append(node.m)
            ns.append(node.n)
        return tuple(ms), tuple(ns)

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
        """The minted constant and bottom names of interaction j, read back
        from the recorded line starts."""
        if not 0 <= j < len(self.lines):
            raise LamcError(f"no interaction {j} in the scheme")
        stack = self.lines[j].start.stack
        if j > 0:
            stack = stack.rest
        if not (isinstance(stack, Push) and isinstance(stack.top, Const)
                and isinstance(stack.rest, Bottom)):
            raise LamcError(f"line {j} does not start on a minted pair")
        return stack.top.name, stack.rest.name

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
                       alpha_of: dict[int, str]):
    """Classify p as ('finish', j), ('play', j, m, t) or None."""
    t = p.term
    if not isinstance(t, Const) or t.name not in kappa_index:
        return None
    j = kappa_index[t.name]
    s = p.stack
    if isinstance(s, Bottom):
        if s.name == alpha_of[j]:
            return ("finish", j)
        return None
    if isinstance(s, Push) and isinstance(s.rest, Push) \
            and isinstance(s.rest.rest, Bottom) \
            and s.rest.rest.name == alpha_of[j]:
        m = decode_numeral(s.top)
        if m is not None:
            return ("play", j, m, s.rest.top)
    return None


def extract_scheme(t0: Term, nseq: Sequence[int], phi: ArithFormula,
                   budget: int = 100_000,
                   registry: Optional[Registry] = None) -> ExtractResult:
    """Run t0 against fresh constants, recording every exchange as a tree node.

    Each time the machine reaches constant j applied to a literal number and a
    handler over j's own bottom, a child node is attached under j's path and
    the handler is resumed with the next scripted answer and brand-new
    constants. Extraction succeeds when some constant s is reached bare on its
    own bottom at full depth with payoff zero.
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
    tree = PathTree()
    kappa_index: dict[str, int] = {}
    alpha_of: dict[int, str] = {}

    def mint() -> tuple[Term, Stack]:
        j = len(alpha_of)
        (kname,) = fresh_constants(registry, 1, kind="term", prefix="kappa")
        (aname,) = fresh_constants(registry, 1, kind="stack", prefix="alpha")
        kappa_index[kname] = j
        alpha_of[j] = aname
        return Const(kname), Bottom(aname)

    k0, a0 = mint()
    nodes: list[SchemeNode] = [SchemeNode(0, (), None, None, None, t0)]
    lines: list[SchemeLine] = []
    answers = list(nseq)
    p = Process(t0, Push(k0, a0))
    steps_left = budget

    while True:
        # one line: the run from p to the next recognized shape
        trace: list[Process] = []
        seen: set[Process] = set()
        for p, _ in walk(machine, p):
            if p in seen:
                return SchemeFailure("stuck", "the run entered a loop",
                                     nodes, lines)
            seen.add(p)
            trace.append(p)
            shape = _interaction_shape(p, kappa_index, alpha_of)
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

        lines.append(SchemeLine(trace[0], trace[-1], tuple(trace)))
        if shape[0] == "finish":
            s = shape[1]
            path = tree.path(s)
            if len(path) != phi.rounds:
                return SchemeFailure(
                    "stuck",
                    f"finished on constant {s} at depth {len(path)}, "
                    f"but the formula has {phi.rounds} rounds",
                    nodes, lines)
            scheme = ThreadScheme(nodes, lines, len(lines) - 1, s, phi.rounds)
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
        n = answers.pop(0)
        path = tree.add_child(tree.path(j))
        idx = len(nodes)
        assert tree.index_of(path) == idx
        nodes.append(SchemeNode(idx, path, m, n, j, handler))
        k_new, a_new = mint()
        p = Process(handler, Push(numeral(n), Push(k_new, a_new)))


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
