"""Terms, stacks and processes of a lambda calculus with control.

Terms are closed under three binders-free constant kinds: declared inert
constants, declared machine instructions, and continuation constants k[pi]
that package a whole stack. Binding is de Bruijn internally, so alpha
equivalence is plain structural equality; printed binder names are
regenerated from hints. Numerals use the modified encoding where the
successor is applied literally (#n is s applied n times to #0, kept as an
application chain, not the beta normal form).
"""

from __future__ import annotations

import bisect
import re
from typing import Callable, Iterable, Optional, Union

### tags used in hashes so different node kinds never collide

_TAG_BOUND = 0
_TAG_FREE = 1
_TAG_LAM = 2
_TAG_APP = 3
_TAG_CONST = 4
_TAG_CONT = 5
_TAG_BOTTOM = 6
_TAG_PUSH = 7
_TAG_PROCESS = 8


class LamcError(Exception):
    """Base error for this package."""


class LamcParseError(LamcError):
    """Source text rejected, with the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.pos = pos
        self.line = line
        self.col = col


### term and stack nodes (immutable, hash precomputed at construction)

# bits of Node.flags: what kinds of leaves occur anywhere below a node
HAS_FREE = 1            # a named free variable
HAS_CONST = 2           # a declared term constant
HAS_STACKNAME = 4       # a stack constant


class Node:
    """free_width is one more than the largest de Bruijn index left unbound
    (0 when none is); flags ORs the HAS_* bits of every leaf below."""

    __slots__ = ("_hash", "free_width", "flags")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Node):
            return NotImplemented
        return self._hash == other._hash and _structural_eq(self, other)


class Term(Node):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"<term {term_to_text(self)}>"


class Stack(Node):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"<stack {stack_to_text(self)}>"


class Bound(Term):
    """de Bruijn variable; 0 is the innermost binder."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index
        self.free_width = index + 1
        self.flags = 0
        self._hash = hash((_TAG_BOUND, index))


class FreeVar(Term):
    """Named free variable; only template terms contain these."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.free_width = 0
        self.flags = HAS_FREE
        self._hash = hash((_TAG_FREE, name))


class Lam(Term):
    """Abstraction; hint is a printing hint only, never compared."""

    __slots__ = ("body", "hint")

    def __init__(self, body: Term, hint: str = "x"):
        self.body = body
        self.hint = hint
        w = body.free_width
        self.free_width = w - 1 if w else 0
        self.flags = body.flags
        self._hash = hash((_TAG_LAM, body._hash))


class App(Term):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term):
        self.fn = fn
        self.arg = arg
        w, v = fn.free_width, arg.free_width
        self.free_width = w if w >= v else v
        self.flags = fn.flags | arg.flags
        self._hash = hash((_TAG_APP, fn._hash, arg._hash))


class Const(Term):
    """Declared constant: an inert one or a machine instruction."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.free_width = 0
        self.flags = HAS_CONST
        self._hash = hash((_TAG_CONST, name))


class Cont(Term):
    """Continuation constant k[pi] packaging a saved stack."""

    __slots__ = ("stack",)

    def __init__(self, stack: Stack):
        self.stack = stack
        self.free_width = stack.free_width
        self.flags = stack.flags
        self._hash = hash((_TAG_CONT, stack._hash))


class Bottom(Stack):
    """Stack constant, the bottom of every stack."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.free_width = 0
        self.flags = HAS_STACKNAME
        self._hash = hash((_TAG_BOTTOM, name))


class Push(Stack):
    __slots__ = ("top", "rest")

    def __init__(self, top: Term, rest: Stack):
        self.top = top
        self.rest = rest
        w, v = top.free_width, rest.free_width
        self.free_width = w if w >= v else v
        self.flags = top.flags | rest.flags
        self._hash = hash((_TAG_PUSH, top._hash, rest._hash))


class Process(Node):
    """A closed term facing a stack."""

    __slots__ = ("term", "stack")

    def __init__(self, term: Term, stack: Stack):
        self.term = term
        self.stack = stack
        w, v = term.free_width, stack.free_width
        self.free_width = w if w >= v else v
        self.flags = term.flags | stack.flags
        self._hash = hash((_TAG_PROCESS, term._hash, stack._hash))

    def __repr__(self) -> str:
        return f"<process {process_to_text(self)}>"


def _structural_eq(a: Node, b: Node) -> bool:
    """Structural equality. Each pair of nodes is expanded once, so
    stacks saved inside themselves are compared as the DAGs they are; the
    ids stay unique because both roots keep every node alive."""
    if a is b:
        return True
    todo = [(a, b)]
    expanded: set[tuple[int, int]] = set()
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y) or x._hash != y._hash:
            return False
        pair = (id(x), id(y))
        if pair in expanded:
            continue
        expanded.add(pair)
        if isinstance(x, Bound):
            if x.index != y.index:
                return False
        elif isinstance(x, (FreeVar, Const, Bottom)):
            if x.name != y.name:
                return False
        elif isinstance(x, Lam):
            todo.append((x.body, y.body))
        elif isinstance(x, App):
            todo.append((x.fn, y.fn))
            todo.append((x.arg, y.arg))
        elif isinstance(x, Cont):
            todo.append((x.stack, y.stack))
        elif isinstance(x, Push):
            todo.append((x.top, y.top))
            todo.append((x.rest, y.rest))
        elif isinstance(x, Process):
            todo.append((x.term, y.term))
            todo.append((x.stack, y.stack))
        else:
            return False
    return True


def is_closed(t: Node) -> bool:
    """No unbound variable, de Bruijn or named."""
    return t.free_width == 0 and not t.flags & HAS_FREE


### constant registry

class Registry:
    """Declared constant names, instruction rules, and fresh-name minting.

    Parsing consults the registry: an identifier that is neither bound nor
    declared (nor whitelisted as a free variable) is a parse error. Each
    declared name has one kind, "term" or "stack"; a term name that is a
    machine instruction also has a rule callable, installed by the machine
    layer, and the label a step by it reports. has_quote_like is set once an
    instruction that inspects stacks or terms intensionally is installed.
    """

    def __init__(self) -> None:
        self.kinds: dict[str, str] = {}             # name -> "term" | "stack"
        self.rules: dict[str, tuple[Callable, str]] = {}    # -> (rule, label)
        self.has_quote_like = False
        self._fresh_counters: dict[str, int] = {}
        # kept as declared, for the random generators to draw from
        self.inert_names: list[str] = []            # in declaration order
        self.stack_names: list[str] = []            # sorted

    # declaration
    def declare_inert(self, name: str) -> str:
        self._declare(name, "term")
        self.inert_names.append(name)
        return name

    def declare_stack(self, name: str) -> str:
        self._declare(name, "stack")
        bisect.insort(self.stack_names, name)
        return name

    def install_instruction(self, name: str, rule: Callable, quote_like: bool = False,
                            label: Optional[str] = None) -> str:
        self._declare(name, "term")
        self.rules[name] = (rule, label if label is not None else name)
        self.has_quote_like |= quote_like
        return name

    def _declare(self, name: str, kind: str) -> None:
        if name in self.kinds:
            raise LamcError(f"constant name already declared: {name}")
        self.kinds[name] = kind

    # queries
    def is_term_name(self, name: str) -> bool:
        return self.kinds.get(name) == "term"

    def is_stack_name(self, name: str) -> bool:
        return self.kinds.get(name) == "stack"

    def is_instruction(self, name: str) -> bool:
        return name in self.rules


def fresh_constants(registry: Registry, count: int, kind: str = "term",
                    prefix: Optional[str] = None) -> list[str]:
    """Mint and declare `count` fresh constants, returning their names."""
    if kind not in ("term", "stack"):
        raise LamcError(f"unknown constant kind: {kind}")
    if prefix is None:
        prefix = "c" if kind == "term" else "a"
    out = []
    i = registry._fresh_counters.get(prefix, 0)
    while len(out) < count:
        name = f"{prefix}{i}"
        i += 1
        if name in registry.kinds:
            continue
        if kind == "term":
            registry.declare_inert(name)
        else:
            registry.declare_stack(name)
        out.append(name)
    registry._fresh_counters[prefix] = i
    return out


### numerals (modified encoding: literal successor chains)

ZERO: Term = Lam(Lam(Bound(1), "f"), "x")
SUCC: Term = Lam(
    Lam(
        Lam(App(Bound(0), App(App(Bound(2), Bound(1)), Bound(0))), "f"),
        "x",
    ),
    "n",
)


_SUCC_HASH, _ZERO_HASH = SUCC._hash, ZERO._hash


def _numeral_chain(size: int) -> tuple[Term, ...]:
    chain = [ZERO]
    while len(chain) < size:
        chain.append(App(SUCC, chain[-1]))
    return tuple(chain)


# numeral(n) for n below the table's size is one node of a chain built at
# import and shared by every caller; moves, tuple entries and quote codes are
# mostly small
_NUMERALS = _numeral_chain(256)


def numeral(n: int) -> Term:
    """The literal numeral: SUCC applied n times to ZERO. Below the shared
    table's size every call returns the same node; above it the chain is
    built on the table's last entry."""
    if n < 0:
        raise LamcError(f"numeral wants a natural, got {n}")
    if n < len(_NUMERALS):
        return _NUMERALS[n]
    t = _NUMERALS[-1]
    for _ in range(n - len(_NUMERALS) + 1):
        t = App(SUCC, t)
    return t


def decode_numeral(t: Term) -> Optional[int]:
    """Strictly read back a literal numeral, None on anything else."""
    n = 0
    while isinstance(t, App):
        fn = t.fn
        if not (fn is SUCC or (fn._hash == _SUCC_HASH and _structural_eq(fn, SUCC))):
            return None
        n += 1
        t = t.arg
    if t is ZERO or (t._hash == _ZERO_HASH and _structural_eq(t, ZERO)):
        return n
    return None


### cons-cell coding of tuples and lists of terms

# cell(a, d) is kept as the literal application chain ((\x y f. f x y) a d);
# nil is \x f. x, the same term as numeral zero (readers pick by context).
PAIR_CONS: Term = Lam(Lam(Lam(App(App(Bound(0), Bound(2)), Bound(1)), "f"), "y"), "x")
NIL: Term = ZERO


def cons_cell(a: Term, d: Term) -> Term:
    return App(App(PAIR_CONS, a), d)


def uncons(t: Term) -> Optional[tuple[Term, Term]]:
    if (isinstance(t, App) and isinstance(t.fn, App)
            and (t.fn.fn is PAIR_CONS or t.fn.fn == PAIR_CONS)):
        return t.fn.arg, t.arg
    return None


def encode_list(items: Iterable[Term]) -> Term:
    out = NIL
    for item in reversed(list(items)):
        out = cons_cell(item, out)
    return out


def decode_list(t: Term) -> Optional[list[Term]]:
    items: list[Term] = []
    while True:
        if t is NIL or t == NIL:
            return items
        cell = uncons(t)
        if cell is None:
            return None
        items.append(cell[0])
        t = cell[1]


def encode_nat_tuple(ns: Iterable[int]) -> Term:
    return encode_list(numeral(n) for n in ns)


def decode_nat_tuple(t: Term) -> Optional[tuple[int, ...]]:
    items = decode_list(t)
    if items is None:
        return None
    out = []
    for item in items:
        n = decode_numeral(item)
        if n is None:
            return None
        out.append(n)
    return tuple(out)


### one rebuilding walk and one name fold, both with an explicit stack

def _rewrite(root: Node, visit: Callable[[Node, int], Optional[Node]],
             memo: Optional[dict[int, tuple[Node, Node]]] = None) -> Node:
    """Rebuild a tree bottom-up without recursion.

    visit(node, depth) gives the node's image, or None to rebuild the node
    from the images of its children; depth counts the Lam binders above the
    node. A node whose children all come back unchanged is returned as is,
    so untouched subtrees stay shared.

    With a memo, each node that visit leaves to be rebuilt is rebuilt once:
    memo maps id(node) to (node, image), holding the node so that its id is
    not reused while the memo lives, and a node met again, in this walk or a
    later one through the same memo, takes its recorded image. A memo is
    only sound for a visit that ignores depth. Without one, the walk does no
    extra work per node.
    """
    done: list[Node] = []
    todo: list[tuple[object, int]] = [(root, 0)]
    if memo is not None:
        plain = visit

        def visit(node: Node, depth: int) -> Optional[Node]:
            image = plain(node, depth)
            if image is None:
                hit = memo.get(id(node))
                if hit is not None:
                    return hit[1]
                # popped right after the node's own rebuild
                todo.append(((node,), -1))
            return image

    while todo:
        node, depth = todo.pop()
        kind = type(node)
        if depth < 0:
            # every child image of node is on top of done, last child on top
            if kind is App:
                a, f = done.pop(), done.pop()
                done.append(node if (f is node.fn and a is node.arg) else App(f, a))
            elif kind is Lam:
                b = done.pop()
                done.append(node if b is node.body else Lam(b, node.hint))
            elif kind is Push:
                rest, top = done.pop(), done.pop()
                done.append(node if (top is node.top and rest is node.rest)
                            else Push(top, rest))
            elif kind is Cont:
                s = done.pop()
                done.append(node if s is node.stack else Cont(s))
            elif kind is Process:
                st, tm = done.pop(), done.pop()
                done.append(node if (tm is node.term and st is node.stack)
                            else Process(tm, st))
            else:
                # (source,), pushed by the memo: source's image is on top
                source = node[0]
                memo[id(source)] = (source, done[-1])
            continue
        image = visit(node, depth)
        if image is not None:
            done.append(image)
        elif kind is App:
            todo += ((node, -1), (node.arg, depth), (node.fn, depth))
        elif kind is Lam:
            todo += ((node, -1), (node.body, depth + 1))
        elif kind is Push:
            todo += ((node, -1), (node.rest, depth), (node.top, depth))
        elif kind is Cont:
            todo += ((node, -1), (node.stack, depth))
        elif kind is Process:
            todo += ((node, -1), (node.stack, depth), (node.term, depth))
        else:
            done.append(node)
    return done[0]


def _names(root: Node, kinds: tuple[type, ...],
           wanted: Callable[[Node], bool]) -> set[str]:
    """Names of the leaves of the given kinds anywhere in the tree, inside
    k[pi] too; a subtree for which wanted() is false is skipped."""
    out: set[str] = set()
    todo: list[Node] = [root]
    while todo:
        n = todo.pop()
        if not wanted(n):
            continue
        if isinstance(n, kinds):
            out.add(n.name)
        elif isinstance(n, Lam):
            todo.append(n.body)
        elif isinstance(n, App):
            todo += (n.fn, n.arg)
        elif isinstance(n, Cont):
            todo.append(n.stack)
        elif isinstance(n, Push):
            todo += (n.top, n.rest)
        elif isinstance(n, Process):
            todo += (n.term, n.stack)
    return out


### substitution

def subst_bound0(body: Term, u: Term) -> Term:
    """Replace the innermost bound variable of a binder body with closed u."""
    if u.free_width != 0:
        raise LamcError("substituting an open term for a bound variable")

    def visit(t: Node, depth: int) -> Optional[Node]:
        if t.free_width <= depth:
            return t
        if isinstance(t, Bound):
            return u if t.index == depth else Bound(t.index - 1)
        return None

    return _rewrite(body, visit)


def subst_var(t: Term, x: str, u: Term) -> Term:
    """Replace the named free variable x with u (u must have no unbound indices)."""
    if u.free_width != 0:
        raise LamcError("substituting a term with unbound indices for a variable")

    def visit(node: Node, depth: int) -> Optional[Node]:
        if not node.flags & HAS_FREE:
            return node
        if isinstance(node, FreeVar):
            return u if node.name == x else node
        return None

    return _rewrite(t, visit)


def _const_rewriter(terms: dict[str, Term], stacks: dict[str, Stack]
                    ) -> Callable[[Node], Node]:
    """The rewrite that subst_consts does, for any number of roots: all share
    one memo, so a node shared within or across roots is rewritten once and
    has one image. The dicts must not change while the rewrite is in use."""
    if not all(map(is_closed, terms.values())):
        raise LamcError("substituting an open term for a constant")
    if not all(map(is_closed, stacks.values())):
        raise LamcError("substituting an open stack for a stack constant")

    wanted = (HAS_CONST if terms else 0) | (HAS_STACKNAME if stacks else 0)

    def visit(node: Node, depth: int) -> Optional[Node]:
        if not node.flags & wanted:
            return node
        if isinstance(node, Const):
            return terms.get(node.name, node)
        if isinstance(node, Bottom):
            return stacks.get(node.name, node)
        return None

    memo: dict[int, tuple[Node, Node]] = {}
    return lambda t: _rewrite(t, visit, memo)


def subst_consts(t: Union[Term, Stack, Process], terms: dict[str, Term],
                 stacks: dict[str, Stack]):
    """Replace every term constant named in terms and every stack constant
    named in stacks with its closed image, all at once, inside k[pi] too.
    The images are not rewritten again, and a shared node is rewritten once."""
    return _const_rewriter(terms, stacks)(t)


def subst_const(t: Union[Term, Stack, Process], c: str, u: Term):
    """Replace the constant c with closed u everywhere, inside k[pi] too."""
    return subst_consts(t, {c: u}, {})


def subst_stack_const(t: Union[Term, Stack, Process], alpha: str, pi: Stack):
    """Replace the stack constant alpha with pi everywhere, inside k[pi'] too."""
    return subst_consts(t, {}, {alpha: pi})


### convenience builders for named construction in code

def fv(name: str) -> FreeVar:
    return FreeVar(name)


def bind(name: str, body: Term, hint: Optional[str] = None) -> Lam:
    """Abstract the named free variable into a binder."""

    def visit(t: Node, depth: int) -> Optional[Node]:
        if not t.flags & HAS_FREE:
            return t
        if isinstance(t, FreeVar):
            return Bound(depth) if t.name == name else t
        return None

    return Lam(_rewrite(body, visit), hint if hint is not None else name)


def lam(names: str, body: Term) -> Term:
    """bind() over several space-separated names, rightmost innermost."""
    t = body
    for name in reversed(names.split()):
        t = bind(name, t)
    return t


def app(*terms: Term) -> Term:
    """Left-associated application chain."""
    if not terms:
        raise LamcError("app wants at least one term")
    t = terms[0]
    for u in terms[1:]:
        t = App(t, u)
    return t


def pop_items(s: Stack, n: int) -> Optional[tuple[list[Term], Stack]]:
    """The top n items of a stack (top first) and the stack under them, or
    None when fewer than n items are pushed."""
    items = []
    for _ in range(n):
        if not isinstance(s, Push):
            return None
        items.append(s.top)
        s = s.rest
    return items, s


### seeded random generation (fuzz adversaries, property checks)

def random_closed_term(rng, registry: Registry, max_depth: int = 4,
                       allow_cont: bool = False) -> Term:
    """A random closed term; deterministic for a given rng state."""
    inert = registry.inert_names

    def leaf(scope: int) -> Term:
        choices = ["id", "numeral"]
        if scope > 0:
            choices.extend(["bound", "bound"])
        if inert:
            choices.append("const")
        pick = rng.choice(choices)
        if pick == "bound":
            return Bound(rng.randrange(scope))
        if pick == "const":
            return Const(rng.choice(inert))
        if pick == "numeral":
            return numeral(rng.randrange(4))
        return Lam(Bound(0), "x")

    def go(depth: int, scope: int) -> Term:
        if depth <= 0:
            return leaf(scope)
        pick = rng.randrange(10)
        if pick < 4:
            return Lam(go(depth - 1, scope + 1), "x")
        if pick < 8:
            return App(go(depth - 1, scope), go(depth - 1, scope))
        if pick == 8 and allow_cont and registry.stack_names:
            return Cont(random_stack(rng, registry, max_depth=depth - 1))
        return leaf(scope)

    return go(max_depth, 0)


def random_stack(rng, registry: Registry, max_depth: int = 3,
                 max_items: int = 3) -> Stack:
    """A random stack of closed terms over a declared stack constant."""
    if not registry.stack_names:
        raise LamcError("random_stack wants at least one declared stack constant")
    bottom = Bottom(rng.choice(registry.stack_names))
    s: Stack = bottom
    for _ in range(rng.randrange(max_items + 1)):
        s = Push(random_closed_term(rng, registry, max_depth=max_depth), s)
    return s


### parser

# #n builds n applications of SUCC and a run walks each of them, so a literal
# is capped far above any written by hand; numeral() itself takes any n.
MAX_NUMERAL_LITERAL = 100_000


def check_literal(n: int, what: str) -> int:
    """n itself, refused above MAX_NUMERAL_LITERAL: a number read from the
    user that a match or an extraction turns into #n is capped like #n."""
    if n > MAX_NUMERAL_LITERAL:
        raise LamcError(f"{what} {n} is above #{MAX_NUMERAL_LITERAL}")
    return n


def is_natural(x: object) -> bool:
    """A JSON natural number: an int, not a bool, at least 0."""
    return type(x) is int and x >= 0


# a token after any whitespace: \s, \d and \w are str.isspace, str.isdecimal
# and (str.isalnum or "_"), and a character that starts no token is matched
# alone, to be refused
_TOKEN = re.compile(r"\s*(k\[|[\\λ.()\]*#]|\d+|\w[\w']*|\S)")
_PUNCTUATION = {"k[": "KLB", "\\": "LAM", "λ": "LAM", ".": "DOT", "(": "LP", ")": "RP",
                "]": "RB", "*": "STAR", "#": "HASH"}


def _scan(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, then ("EOF", "", len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):
        val = m[1]
        kind = _PUNCTUATION.get(val)
        if kind is None:
            if val[0].isdecimal():
                kind = "NAT"
            # an identifier starts with a letter or "_", not with a digit like "²"
            elif val[0].isalpha() or val[0] == "_":
                kind = "IDENT"
            else:
                raise LamcParseError(f"unexpected character {val[0]!r}", text, m.start(1))
        tokens.append((kind, val, m.start(1)))
    tokens.append(("EOF", "", len(text)))
    return tokens


def _expected(kind: str, tok: tuple[str, str, int], text: str) -> LamcParseError:
    return LamcParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", text, tok[2])


def _parse(text: str, registry: Registry, free_vars: Iterable[str], what: str):
    """One loop over the tokens of a term, stack or process.

    term := ('\\' ident+ '.')* atom+, and a lambda's body runs to the end of
    its term; stack := (term '.')* stack-constant; process := term '*' stack.
    Only brackets nest, so the loop keeps one level per open bracket:
    [closer, scope, binder groups, application so far, stack items or None].
    A closed level hands its term, or k[its stack], to its parent as an atom.
    """
    tokens = _scan(text)
    free = set(free_vars)
    kinds = registry.kinds
    levels = [["STAR" if what == "process" else "EOF", (), [], None,
               [] if what == "stack" else None]]
    head = None                 # a process's term, once its '*' is read
    i = 0
    while True:
        level = levels[-1]
        closer, scope, groups, t, items = level
        kind, val, pos = tok = tokens[i]
        i += 1
        # a stack ends at a stack constant that no '.' follows
        at_bottom = (kind == "IDENT" and items is not None and t is None and not groups
                     and kinds.get(val) == "stack" and tokens[i][0] != "DOT")
        if kind == "IDENT" and not at_bottom:
            if val in scope:
                atom = Bound(scope.index(val))
            elif kinds.get(val) == "term":
                atom = Const(val)
            elif val in free:
                atom = FreeVar(val)
            else:
                raise LamcParseError(f"unknown identifier {val!r}", text, pos)
        elif kind == "HASH":
            tok = tokens[i]
            i += 1
            if tok[0] != "NAT":
                raise _expected("NAT", tok, text)
            # lengths first: int() refuses a string of more than 4300 digits
            digits = tok[1].lstrip("0") or "0"
            if (len(digits) > len(str(MAX_NUMERAL_LITERAL))
                    or int(digits) > MAX_NUMERAL_LITERAL):
                raise LamcParseError(f"numeral literal above #{MAX_NUMERAL_LITERAL}",
                                     text, pos)
            atom = numeral(int(digits))
        elif kind == "LP" or kind == "KLB":
            levels.append(["RP", scope, [], None, None] if kind == "LP"
                          else ["RB", scope, [], None, []])
            continue
        elif kind == "LAM" and t is None:
            names = []
            while tokens[i][0] == "IDENT":
                names.append(tokens[i][1])
                i += 1
            if not names:
                raise LamcParseError("lambda wants at least one binder", text, tokens[i][2])
            if tokens[i][0] != "DOT":
                raise _expected("DOT", tokens[i], text)
            i += 1
            level[1] = tuple(reversed(names)) + scope
            groups.append(names)
            continue
        elif t is None and not at_bottom:
            raise LamcParseError(f"expected a term, found {val or 'end of input'!r}",
                                 text, pos)
        else:
            # the level's stack ends at its bottom, and its term at any other token
            if at_bottom:
                node = Bottom(val)
                for item in reversed(items):
                    node = Push(item, node)
                tok = tokens[i]
                i += 1
            else:
                node = t
                for names in reversed(groups):
                    for name in reversed(names):
                        node = Lam(node, name)
                if items is not None:
                    if kind != "DOT":
                        raise LamcParseError("stack must continue with '.' or end in a "
                                             "stack constant", text, pos)
                    items.append(node)
                    level[1:4] = (levels[-2][1] if len(levels) > 1 else ()), [], None
                    continue
            if tok[0] != closer:
                if closer == "EOF":
                    raise LamcParseError(f"unexpected trailing input {tok[1]!r}", text, tok[2])
                raise _expected(closer, tok, text)
            if closer == "EOF":
                return node if head is None else Process(head, node)
            if closer == "STAR":
                head = node
                levels[0] = ["EOF", (), [], None, []]
                continue
            levels.pop()
            atom = node if closer == "RP" else Cont(node)
        level = levels[-1]
        level[3] = atom if level[3] is None else App(level[3], atom)


def parse_term(text: str, registry: Registry, free_vars: Iterable[str] = ()) -> Term:
    """Parse a term; identifiers must be bound, declared, or whitelisted free."""
    return _parse(text, registry, free_vars, "term")


def parse_stack(text: str, registry: Registry, free_vars: Iterable[str] = ()) -> Stack:
    return _parse(text, registry, free_vars, "stack")


def parse_process(text: str, registry: Registry, free_vars: Iterable[str] = ()) -> Process:
    return _parse(text, registry, free_vars, "process")


### printer

def _reserved_names(root: Node) -> set[str]:
    """The names a printed binder must not take: every constant and free
    variable in the tree."""
    return _names(root, (Const, FreeVar, Bottom), lambda n: n.flags)


def _fresh_name(hint: str, reserved: set[str], taken: set[str]) -> str:
    """hint, unless reserved or taken holds it; then hint (x if empty) with
    the smallest numeric suffix that neither holds."""
    if hint and hint not in reserved and hint not in taken:
        return hint
    base = hint or "x"
    i = 1
    while (name := f"{base}{i}") in reserved or name in taken:
        i += 1
    return name


def _print(root: Node, pieces: list) -> str:
    """Print by popping pieces: a string is output as it is, and a
    (node, scope, context) item pushes the pieces it prints as. The context
    of a term is "top" bare, "fn" in function position or "arg" in argument
    position; a lambda takes parentheses in "fn" and "arg", an application
    in "arg". A stack item is printed as an argument."""
    reserved = _reserved_names(root)
    out = []
    while pieces:
        piece = pieces.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        t, scope, ctx = piece
        kind = type(t)
        if kind is Bound:
            out.append(scope[t.index] if t.index < len(scope) else f"_{t.index - len(scope)}")
        elif kind is Const or kind is FreeVar or kind is Bottom:
            out.append(t.name)
        elif kind is Cont:
            out.append("k[")
            pieces += ("]", (t.stack, scope, None))
        elif kind is Push:
            pieces += ((t.rest, scope, None), " . ", (t.top, scope, "arg"))
        elif kind is Lam or kind is App:
            n = decode_numeral(t)
            if n is not None:
                out.append(f"#{n}")
            elif kind is Lam:
                names = []
                taken = set(scope)
                while type(t) is Lam:
                    name = _fresh_name(t.hint, reserved, taken)
                    names.append(name)
                    taken.add(name)
                    t = t.body
                if ctx != "top":
                    out.append("(")
                    pieces.append(")")
                out.append(f"\\{' '.join(names)}. ")
                pieces.append((t, (*reversed(names), *scope), "top"))
            else:
                if ctx == "arg":
                    out.append("(")
                    pieces.append(")")
                # the spine's arguments, last first, so that the first pops first
                while True:
                    pieces += ((t.arg, scope, "arg"), " ")
                    t = t.fn
                    if type(t) is not App or (n := decode_numeral(t)) is not None:
                        break
                # the head prints next: a numeral at once, anything else as a piece
                if type(t) is App:
                    out.append(f"#{n}")
                else:
                    pieces.append((t, scope, "fn"))
        else:
            raise LamcError(f"cannot print a {kind.__name__}")
    return "".join(out)


def term_to_text(t: Term) -> str:
    return _print(t, [(t, (), "top")])


def stack_to_text(s: Stack) -> str:
    return _print(s, [(s, (), None)])


def process_to_text(p: Process) -> str:
    return _print(p, [(p.stack, (), None), " * ", (p.term, (), "arg")])
