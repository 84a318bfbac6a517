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


class Node:
    __slots__ = ("_hash", "free_width", "has_free", "has_const", "has_stackname")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return _structural_eq(self, other)

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return not _structural_eq(self, other)


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
        self.has_free = False
        self.has_const = False
        self.has_stackname = False
        self._hash = hash((_TAG_BOUND, index))


class FreeVar(Term):
    """Named free variable; only template terms contain these."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.free_width = 0
        self.has_free = True
        self.has_const = False
        self.has_stackname = False
        self._hash = hash((_TAG_FREE, name))


class Lam(Term):
    """Abstraction; hint is a printing hint only, never compared."""

    __slots__ = ("body", "hint")

    def __init__(self, body: Term, hint: str = "x"):
        self.body = body
        self.hint = hint
        self.free_width = max(body.free_width - 1, 0)
        self.has_free = body.has_free
        self.has_const = body.has_const
        self.has_stackname = body.has_stackname
        self._hash = hash((_TAG_LAM, body._hash))


class App(Term):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term):
        self.fn = fn
        self.arg = arg
        self.free_width = max(fn.free_width, arg.free_width)
        self.has_free = fn.has_free or arg.has_free
        self.has_const = fn.has_const or arg.has_const
        self.has_stackname = fn.has_stackname or arg.has_stackname
        self._hash = hash((_TAG_APP, fn._hash, arg._hash))


class Const(Term):
    """Declared constant: an inert one or a machine instruction."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.free_width = 0
        self.has_free = False
        self.has_const = True
        self.has_stackname = False
        self._hash = hash((_TAG_CONST, name))


class Cont(Term):
    """Continuation constant k[pi] packaging a saved stack."""

    __slots__ = ("stack",)

    def __init__(self, stack: Stack):
        self.stack = stack
        self.free_width = stack.free_width
        self.has_free = stack.has_free
        self.has_const = stack.has_const
        self.has_stackname = stack.has_stackname
        self._hash = hash((_TAG_CONT, stack._hash))


class Bottom(Stack):
    """Stack constant, the bottom of every stack."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.free_width = 0
        self.has_free = False
        self.has_const = False
        self.has_stackname = True
        self._hash = hash((_TAG_BOTTOM, name))


class Push(Stack):
    __slots__ = ("top", "rest")

    def __init__(self, top: Term, rest: Stack):
        self.top = top
        self.rest = rest
        self.free_width = max(top.free_width, rest.free_width)
        self.has_free = top.has_free or rest.has_free
        self.has_const = top.has_const or rest.has_const
        self.has_stackname = top.has_stackname or rest.has_stackname
        self._hash = hash((_TAG_PUSH, top._hash, rest._hash))


class Process(Node):
    """A closed term facing a stack."""

    __slots__ = ("term", "stack")

    def __init__(self, term: Term, stack: Stack):
        self.term = term
        self.stack = stack
        self.free_width = max(term.free_width, stack.free_width)
        self.has_free = term.has_free or stack.has_free
        self.has_const = term.has_const or stack.has_const
        self.has_stackname = term.has_stackname or stack.has_stackname
        self._hash = hash((_TAG_PROCESS, term._hash, stack._hash))

    def __repr__(self) -> str:
        return f"<process {process_to_text(self)}>"


def _structural_eq(a: Node, b: Node) -> bool:
    if a is b:
        return True
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y) or x._hash != y._hash:
            return False
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


def alpha_eq(a: Node, b: Node) -> bool:
    """Alpha equivalence; structural on the nameless representation."""
    if not isinstance(a, Node) or not isinstance(b, Node):
        raise LamcError("alpha_eq compares terms, stacks or processes")
    return _structural_eq(a, b)


def is_closed(t: Node) -> bool:
    """No unbound variable, de Bruijn or named."""
    return t.free_width == 0 and not t.has_free


### constant registry

_INERT = "inert"
_INSTRUCTION = "instruction"


class ConstantDecl:
    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind

    def __repr__(self) -> str:
        return f"ConstantDecl({self.name!r}, {self.kind!r})"


class Registry:
    """Declared constant names, instruction rules, and fresh-name minting.

    Parsing consults the registry: an identifier that is neither bound nor
    declared (nor whitelisted as a free variable) is a parse error. Machine
    instructions carry a rule callable installed by the machine layer. The
    quote_like flag marks instructions that inspect stacks or terms
    intensionally; once one is installed no constant counts as substitutive.
    """

    def __init__(self) -> None:
        self.terms: dict[str, ConstantDecl] = {}
        self.stacks: dict[str, ConstantDecl] = {}
        self.rules: dict[str, Callable] = {}
        self.rule_labels: dict[str, str] = {}
        self._quote_like: set[str] = set()
        self._fresh_counters: dict[str, int] = {}

    # declaration
    def declare_inert(self, name: str) -> str:
        self._check_new(name)
        self.terms[name] = ConstantDecl(name, _INERT)
        return name

    def declare_stack(self, name: str) -> str:
        self._check_new(name)
        self.stacks[name] = ConstantDecl(name, _INERT)
        return name

    def install_instruction(self, name: str, rule: Callable, quote_like: bool = False,
                            label: Optional[str] = None) -> str:
        self._check_new(name)
        self.terms[name] = ConstantDecl(name, _INSTRUCTION)
        self.rules[name] = rule
        self.rule_labels[name] = label if label is not None else name
        if quote_like:
            self._quote_like.add(name)
        return name

    def _check_new(self, name: str) -> None:
        if name in self.terms or name in self.stacks:
            raise LamcError(f"constant name already declared: {name}")

    # queries
    def is_term_name(self, name: str) -> bool:
        return name in self.terms

    def is_stack_name(self, name: str) -> bool:
        return name in self.stacks

    def is_instruction(self, name: str) -> bool:
        d = self.terms.get(name)
        return d is not None and d.kind == _INSTRUCTION

    def rule_for(self, name: str) -> Optional[Callable]:
        return self.rules.get(name)

    @property
    def has_quote_like(self) -> bool:
        return bool(self._quote_like)

    def is_substitutive(self, name: str) -> bool:
        """Whether steps commute with substituting for this constant.

        Inert term constants and stack constants are substitutive in the
        plain instruction set; once a quote-like instruction is installed,
        no constant is.
        """
        if self.has_quote_like:
            return False
        d = self.terms.get(name)
        if d is not None:
            return d.kind == _INERT
        return name in self.stacks

    def all_names(self) -> set[str]:
        return set(self.terms) | set(self.stacks)


def fresh_constants(registry: Registry, count: int, kind: str = "term",
                    prefix: Optional[str] = None) -> list[str]:
    """Mint and declare `count` fresh constants, returning their names."""
    if kind not in ("term", "stack"):
        raise LamcError(f"unknown constant kind: {kind}")
    if prefix is None:
        prefix = "c" if kind == "term" else "a"
    out = []
    taken = registry.all_names()
    i = registry._fresh_counters.get(prefix, 0)
    while len(out) < count:
        name = f"{prefix}{i}"
        i += 1
        if name in taken:
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


def numeral(n: int) -> Term:
    """The literal numeral: SUCC applied n times to ZERO."""
    if n < 0:
        raise LamcError(f"numeral wants a natural, got {n}")
    t = ZERO
    for _ in range(n):
        t = App(SUCC, t)
    return t


def decode_numeral(t: Term) -> Optional[int]:
    """Strictly read back a literal numeral, None on anything else."""
    n = 0
    while isinstance(t, App):
        if not (t.fn is SUCC or t.fn == SUCC):
            return None
        n += 1
        t = t.arg
    if t is ZERO or t == ZERO:
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

def _rewrite(root: Node, visit: Callable[[Node, int], Optional[Node]]) -> Node:
    """Rebuild a tree bottom-up without recursion.

    visit(node, depth) gives the node's image, or None to rebuild the node
    from the images of its children; depth counts the Lam binders above the
    node. A node whose children all come back unchanged is returned as is,
    so untouched subtrees stay shared.
    """
    done: list[Node] = []
    todo: list[tuple[Node, int]] = [(root, 0)]
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
            else:
                st, tm = done.pop(), done.pop()
                done.append(node if (tm is node.term and st is node.stack)
                            else Process(tm, st))
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
        if not node.has_free:
            return node
        if isinstance(node, FreeVar):
            return u if node.name == x else node
        return None

    return _rewrite(t, visit)


def subst_consts(t: Union[Term, Stack, Process], terms: dict[str, Term],
                 stacks: dict[str, Stack]):
    """Replace every term constant named in terms and every stack constant
    named in stacks with its closed image, all at once, inside k[pi] too.
    The images are not rewritten again."""
    if not all(map(is_closed, terms.values())):
        raise LamcError("substituting an open term for a constant")
    if not all(map(is_closed, stacks.values())):
        raise LamcError("substituting an open stack for a stack constant")

    def visit(node: Node, depth: int) -> Optional[Node]:
        if not ((terms and node.has_const) or (stacks and node.has_stackname)):
            return node
        if isinstance(node, Const):
            return terms.get(node.name, node)
        if isinstance(node, Bottom):
            return stacks.get(node.name, node)
        return None

    return _rewrite(t, visit)


def subst_const(t: Union[Term, Stack, Process], c: str, u: Term):
    """Replace the constant c with closed u everywhere, inside k[pi] too."""
    return subst_consts(t, {c: u}, {})


def subst_stack_const(t: Union[Term, Stack, Process], alpha: str, pi: Stack):
    """Replace the stack constant alpha with pi everywhere, inside k[pi'] too."""
    return subst_consts(t, {}, {alpha: pi})


### collectors used by hygiene checks

def collect_constants(node: Node) -> set[str]:
    """Names of all term constants occurring anywhere in the node."""
    return _names(node, (Const,), lambda n: n.has_const)


def collect_stack_constants(node: Node) -> set[str]:
    """Names of all stack constants occurring anywhere in the node."""
    return _names(node, (Bottom,), lambda n: n.has_stackname)


### convenience builders for named construction in code

def fv(name: str) -> FreeVar:
    return FreeVar(name)


def bind(name: str, body: Term, hint: Optional[str] = None) -> Lam:
    """Abstract the named free variable into a binder."""

    def visit(t: Node, depth: int) -> Optional[Node]:
        if not t.has_free:
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


def stack_of(items: Iterable[Term], bottom: str) -> Stack:
    """Build a stack from items (top first) over a named stack constant."""
    s: Stack = Bottom(bottom)
    for item in reversed(list(items)):
        s = Push(item, s)
    return s


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
                       include_consts: bool = True, allow_cont: bool = False) -> Term:
    """A random closed term; deterministic for a given rng state."""
    inert = [n for n, d in registry.terms.items() if d.kind == "inert"]

    def leaf(scope: int) -> Term:
        choices = ["id", "numeral"]
        if scope > 0:
            choices.extend(["bound", "bound"])
        if include_consts and inert:
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
        if pick == 8 and allow_cont and registry.stacks:
            return Cont(random_stack(rng, registry, max_depth=depth - 1))
        return leaf(scope)

    return go(max_depth, 0)


def random_stack(rng, registry: Registry, max_depth: int = 3,
                 max_items: int = 3) -> Stack:
    """A random stack of closed terms over a declared stack constant."""
    if not registry.stacks:
        raise LamcError("random_stack wants at least one declared stack constant")
    bottom = Bottom(rng.choice(sorted(registry.stacks)))
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

_TOKEN_SPEC = [
    ("KLB", "k["),
    ("LAM", "\\"),
    ("LAM", "λ"),
    ("DOT", "."),
    ("LP", "("),
    ("RP", ")"),
    ("RB", "]"),
    ("STAR", "*"),
    ("HASH", "#"),
]


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.idx = 0

    def _scan(self) -> None:
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            matched = False
            for kind, lit in _TOKEN_SPEC:
                if text.startswith(lit, i):
                    self.tokens.append((kind, lit, i))
                    i += len(lit)
                    matched = True
                    break
            if matched:
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("NAT", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                self.tokens.append(("IDENT", text[i:j], i))
                i = j
                continue
            raise LamcParseError(f"unexpected character {ch!r}", text, i)
        self.tokens.append(("EOF", "", n))

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.tokens[min(self.idx + ahead, len(self.tokens) - 1)]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.idx]
        if tok[0] != "EOF":
            self.idx += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise LamcParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}",
                                 self.text, tok[2])
        return tok


class _Parser:
    def __init__(self, text: str, registry: Registry, free_vars: Iterable[str]):
        self.lex = _Lexer(text)
        self.registry = registry
        self.free_vars = set(free_vars)

    # term := lambda | app ; app := atom+ ; lambda := '\' ident+ '.' term
    def term(self, scope: tuple[str, ...]) -> Term:
        kind, _, pos = self.lex.peek()
        if kind == "LAM":
            return self.lambda_(scope)
        return self.app(scope)

    def lambda_(self, scope: tuple[str, ...]) -> Term:
        self.lex.expect("LAM")
        names = []
        while self.lex.peek()[0] == "IDENT":
            names.append(self.lex.next()[1])
        if not names:
            tok = self.lex.peek()
            raise LamcParseError("lambda wants at least one binder", self.lex.text, tok[2])
        self.lex.expect("DOT")
        body = self.term(tuple(reversed(names)) + scope)
        for name in reversed(names):
            body = Lam(body, name)
        return body

    def app(self, scope: tuple[str, ...]) -> Term:
        t = self.atom(scope)
        if t is None:
            tok = self.lex.peek()
            raise LamcParseError("expected a term", self.lex.text, tok[2])
        while True:
            u = self.atom(scope, optional=True)
            if u is None:
                return t
            t = App(t, u)

    def atom(self, scope: tuple[str, ...], optional: bool = False) -> Optional[Term]:
        kind, val, pos = self.lex.peek()
        if kind == "IDENT":
            self.lex.next()
            if val in scope:
                return Bound(scope.index(val))
            if self.registry.is_term_name(val):
                return Const(val)
            if val in self.free_vars:
                return FreeVar(val)
            raise LamcParseError(f"unknown identifier {val!r}", self.lex.text, pos)
        if kind == "LP":
            self.lex.next()
            t = self.term(scope)
            self.lex.expect("RP")
            return t
        if kind == "KLB":
            self.lex.next()
            s = self.stack(scope)
            self.lex.expect("RB")
            return Cont(s)
        if kind == "HASH":
            self.lex.next()
            tok = self.lex.expect("NAT")
            # lengths first: int() refuses a string of more than 4300 digits
            digits = tok[1].lstrip("0") or "0"
            if (len(digits) > len(str(MAX_NUMERAL_LITERAL))
                    or int(digits) > MAX_NUMERAL_LITERAL):
                raise LamcParseError(f"numeral literal above #{MAX_NUMERAL_LITERAL}",
                                     self.lex.text, pos)
            return numeral(int(digits))
        if kind == "LAM":
            # a lambda as an atom only via parentheses; bare lambda handled in term()
            if optional:
                return None
            return self.lambda_(scope)
        if optional:
            return None
        raise LamcParseError(f"expected a term, found {val or 'end of input'!r}",
                             self.lex.text, pos)

    # stack := term '.' stack | stack-constant
    def stack(self, scope: tuple[str, ...]) -> Stack:
        kind, val, pos = self.lex.peek()
        if kind == "IDENT" and self.registry.is_stack_name(val) and self.lex.peek(1)[0] != "DOT":
            self.lex.next()
            return Bottom(val)
        t = self.term(scope)
        tok = self.lex.next()
        if tok[0] != "DOT":
            raise LamcParseError("stack must continue with '.' or end in a stack constant",
                                 self.lex.text, tok[2])
        return Push(t, self.stack(scope))

    def process(self, scope: tuple[str, ...]) -> Process:
        t = self.term(scope)
        self.lex.expect("STAR")
        s = self.stack(scope)
        return Process(t, s)

    def finish(self) -> None:
        tok = self.lex.peek()
        if tok[0] != "EOF":
            raise LamcParseError(f"unexpected trailing input {tok[1]!r}", self.lex.text, tok[2])


def parse_term(text: str, registry: Registry, free_vars: Iterable[str] = ()) -> Term:
    """Parse a term; identifiers must be bound, declared, or whitelisted free."""
    p = _Parser(text, registry, free_vars)
    t = p.term(())
    p.finish()
    return t


def parse_stack(text: str, registry: Registry, free_vars: Iterable[str] = ()) -> Stack:
    p = _Parser(text, registry, free_vars)
    s = p.stack(())
    p.finish()
    return s


def parse_process(text: str, registry: Registry, free_vars: Iterable[str] = ()) -> Process:
    p = _Parser(text, registry, free_vars)
    pr = p.process(())
    p.finish()
    return pr


### printer

class _Printer:
    def __init__(self, root: Node):
        self.reserved = _names(root, (Const, FreeVar, Bottom),
                               lambda n: n.has_const or n.has_free or n.has_stackname)

    def fresh_name(self, hint: str, scope: tuple[str, ...]) -> str:
        if hint and hint not in self.reserved and hint not in scope:
            return hint
        base = hint or "x"
        i = 1
        while True:
            cand = f"{base}{i}"
            if cand not in self.reserved and cand not in scope:
                return cand
            i += 1

    def term(self, t: Term, scope: tuple[str, ...], ctx: str) -> str:
        # ctx: "top" bare, "fn" function position, "arg" argument position
        n = decode_numeral(t)
        if n is not None:
            return f"#{n}"
        if isinstance(t, Bound):
            if t.index < len(scope):
                return scope[t.index]
            return f"_{t.index - len(scope)}"
        if isinstance(t, FreeVar):
            return t.name
        if isinstance(t, Const):
            return t.name
        if isinstance(t, Cont):
            return f"k[{self.stack(t.stack, scope)}]"
        if isinstance(t, Lam):
            names = []
            body = t
            inner_scope = scope
            while isinstance(body, Lam):
                name = self.fresh_name(body.hint, inner_scope)
                names.append(name)
                inner_scope = (name,) + inner_scope
                body = body.body
            text = f"\\{' '.join(names)}. {self.term(body, inner_scope, 'top')}"
            return f"({text})" if ctx in ("fn", "arg") else text
        if isinstance(t, App):
            fn = self.term(t.fn, scope, "fn")
            arg = self.term(t.arg, scope, "arg")
            text = f"{fn} {arg}"
            return f"({text})" if ctx == "arg" else text
        raise LamcError(f"cannot print {t!r}")

    def stack(self, s: Stack, scope: tuple[str, ...]) -> str:
        parts = []
        while isinstance(s, Push):
            item = self.term(s.top, scope, "top")
            if isinstance(s.top, (Lam, App)) and decode_numeral(s.top) is None:
                item = f"({item})"
            parts.append(item)
            s = s.rest
        if isinstance(s, Bottom):
            parts.append(s.name)
        else:
            raise LamcError(f"cannot print stack tail {s!r}")
        return " . ".join(parts)


def term_to_text(t: Term) -> str:
    return _Printer(t).term(t, (), "top")


def stack_to_text(s: Stack) -> str:
    return _Printer(s).stack(s, ())


def process_to_text(p: Process) -> str:
    pr = _Printer(p)
    return f"{pr.term(p.term, (), 'arg')} * {pr.stack(p.stack, ())}"
