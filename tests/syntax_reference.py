"""Reference implementations of the parser and the printer, kept for
differential tests.

The lexer and the parser are recursive descent, one method per grammar
rule, and the printer is a recursive method per node kind, so all three
recurse once per level of nesting. `lamc.syntax` does the same work with
one scanner, one parse loop and one print loop; the tests require the two
to give equal nodes, the same error messages at the same positions, and
the same text.
"""

from typing import Iterable, Optional

from lamc.syntax import (
    MAX_NUMERAL_LITERAL,
    App,
    Bottom,
    Bound,
    Cont,
    Const,
    FreeVar,
    Lam,
    LamcError,
    LamcParseError,
    Node,
    Process,
    Push,
    Registry,
    Stack,
    Term,
    _names,
    decode_numeral,
    numeral,
)

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
        self.reserved = _names(root, (Const, FreeVar, Bottom), lambda n: n.flags)

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
