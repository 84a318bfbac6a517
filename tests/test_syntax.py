"""Terms, parsing, printing, substitution, numerals."""

import ast
import inspect
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subst_reference as ref
import syntax_reference
from builders import collect_constants, collect_stack_constants
from lamc import syntax
from lamc.machine import MachineConfig
from lamc.syntax import (
    MAX_NUMERAL_LITERAL,
    App,
    Bottom,
    Bound,
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
    SUCC,
    Term,
    ZERO,
    app,
    bind,
    decode_numeral,
    fresh_constants,
    fv,
    is_closed,
    lam,
    numeral,
    parse_process,
    parse_stack,
    parse_term,
    pop_items,
    process_to_text,
    random_closed_term,
    random_stack,
    stack_to_text,
    subst_bound0,
    subst_const,
    subst_stack_const,
    subst_var,
    term_to_text,
    _reserved_names,
)

### alpha equivalence

def test_alpha_eq_ignores_binder_names(base_reg):
    assert parse_term("\\x. x", base_reg) == parse_term("\\y. y", base_reg)
    assert parse_term("\\x y. x", base_reg) == parse_term("\\a b. a", base_reg)
    assert parse_term("\\x y. x", base_reg) != parse_term("\\x y. y", base_reg)


def test_alpha_eq_through_continuations(base_reg):
    a = parse_term("k[(\\x. x) . a0]", base_reg)
    b = parse_term("k[(\\y. y) . a0]", base_reg)
    c = parse_term("k[(\\y. y) . a1]", base_reg)
    assert a == b
    assert a != c


def test_hints_do_not_leak_into_hash(base_reg):
    a = Lam(Bound(0), "x")
    b = Lam(Bound(0), "completely_different")
    assert a == b
    assert hash(a) == hash(b)


### numerals

def test_numeral_zero_is_two_binders(base_reg):
    assert numeral(0) == parse_term("\\x f. x", base_reg)


def test_numeral_is_literal_successor_chain(base_reg):
    succ = parse_term("\\n x f. f (n x f)", base_reg)
    zero = parse_term("\\x f. x", base_reg)
    assert SUCC == succ
    assert ZERO == zero
    assert numeral(2) == App(succ, App(succ, zero))
    assert numeral(2) != parse_term("\\x f. f (f x)", base_reg)


def test_decode_numeral_strict(base_reg):
    assert decode_numeral(parse_term("\\x f. f x", base_reg)) is None
    assert decode_numeral(parse_term("\\x. x", base_reg)) is None
    assert decode_numeral(parse_term("\\x f. f (f x)", base_reg)) is None
    assert decode_numeral(App(parse_term("\\x. x", base_reg), numeral(1))) is None


def test_decode_numeral_roundtrip_small():
    for n in (0, 1, 2, 3, 7, 40):
        assert decode_numeral(numeral(n)) == n


def test_decode_numeral_roundtrip_deep():
    assert decode_numeral(numeral(10_000)) == 10_000


@given(st.integers(min_value=0, max_value=500))
def test_decode_numeral_roundtrip_property(n):
    assert decode_numeral(numeral(n)) == n


def test_numeral_rejects_negative():
    with pytest.raises(LamcError):
        numeral(-1)


def test_hash_numeral_sugar_parses(base_reg):
    assert parse_term("#3", base_reg) == numeral(3)
    assert parse_term("#0", base_reg) == numeral(0)


### parsing

def test_parse_application_left_associative(base_reg):
    t = parse_term("cc cc cc", base_reg)
    assert t == App(App(Const("cc"), Const("cc")), Const("cc"))


def test_parse_lambda_body_extends_right(base_reg):
    t = parse_term("\\x. x x", base_reg)
    assert t == Lam(App(Bound(0), Bound(0)), "x")


def test_parse_multi_binder(base_reg):
    assert parse_term("\\x y. x", base_reg) == parse_term("\\x. \\y. x", base_reg)


def test_parse_shadowing(base_reg):
    t = parse_term("\\x. \\x. x", base_reg)
    assert t == Lam(Lam(Bound(0), "x"), "x")


def test_parse_continuation_and_stack(base_reg):
    t = parse_term("k[(\\x. x) . a0]", base_reg)
    assert t == Cont(Push(Lam(Bound(0), "x"), Bottom("a0")))
    s = parse_stack("cc . (\\x. x) . a1", base_reg)
    assert s == Push(Const("cc"), Push(Lam(Bound(0), "x"), Bottom("a1")))


def test_parse_process(base_reg):
    p = parse_process("(\\x. x) * cc . a0", base_reg)
    assert p == Process(Lam(Bound(0), "x"), Push(Const("cc"), Bottom("a0")))


def test_parse_undeclared_identifier_fails(base_reg):
    with pytest.raises(LamcParseError):
        parse_term("mystery", base_reg)


def test_parse_fork_absent_by_default(base_reg):
    with pytest.raises(LamcParseError):
        parse_term("fork", base_reg)


def test_parse_free_vars_opt_in(base_reg):
    t = parse_term("\\y. x y", base_reg, free_vars=("x",))
    assert t == Lam(App(FreeVar("x"), Bound(0)), "y")
    with pytest.raises(LamcParseError):
        parse_term("\\y. x y", base_reg)


def test_parse_stack_requires_declared_bottom(base_reg):
    with pytest.raises(LamcParseError):
        parse_stack("cc . zz", base_reg)
    with pytest.raises(LamcParseError):
        parse_stack("cc . cc", base_reg)


def test_parse_error_carries_position(base_reg):
    with pytest.raises(LamcParseError) as exc:
        parse_term("\\x. (x oops)", base_reg)
    assert exc.value.line == 1
    assert exc.value.col == 8


def test_parse_trailing_input_fails(base_reg):
    with pytest.raises(LamcParseError):
        parse_term("(\\x. x) )", base_reg)


def test_parse_lambda_argument_needs_parens(base_reg):
    with pytest.raises(LamcParseError):
        parse_term("cc \\x. x", base_reg)
    t = parse_term("cc (\\x. x)", base_reg)
    assert t == App(Const("cc"), Lam(Bound(0), "x"))


def test_ident_with_digits_and_primes(base_reg):
    fresh_constants(base_reg, 1, "term", prefix="u'")
    assert parse_term("u'0", base_reg) == Const("u'0")


def test_parse_caps_numeral_literals(base_reg):
    # far above every literal written in the tests, fixtures and benchmark
    assert MAX_NUMERAL_LITERAL == 100_000
    assert decode_numeral(parse_term(f"#{MAX_NUMERAL_LITERAL}", base_reg)) == 100_000
    assert decode_numeral(parse_term("#000000000000000000000000000012", base_reg)) == 12
    for digits in (str(MAX_NUMERAL_LITERAL + 1), "9" * 5000):
        with pytest.raises(LamcParseError) as err:
            parse_term(f"c_a #{digits}", base_reg)
        assert "numeral literal above #100000" in str(err.value)
        assert err.value.col == 5


### printing

def test_print_roundtrip_basics(base_reg):
    for text in [
        "\\x. x",
        "\\x y. x y",
        "cc (\\k. k)",
        "k[(\\x. x x) . a0]",
        "#5",
        "(\\x. x) #2 cc",
    ]:
        t = parse_term(text, base_reg)
        assert parse_term(term_to_text(t), base_reg) == t


def test_print_avoids_capturing_constant_names(base_reg):
    t = Lam(App(Const("cc"), Bound(0)), "cc")
    text = term_to_text(t)
    assert parse_term(text, base_reg) == t


def test_print_numeral_sugar():
    assert term_to_text(numeral(7)) == "#7"
    assert term_to_text(numeral(0)) == "#0"


def test_print_process_and_stack(base_reg):
    p = parse_process("(\\x. x) * ((\\x. x x) (\\x. x x)) . a0", base_reg)
    assert process_to_text(p) == "(\\x. x) * ((\\x. x x) (\\x. x x)) . a0"
    assert parse_process(process_to_text(p), base_reg) == p


def test_print_stack_roundtrip(base_reg):
    s = parse_stack("(\\x y. y) . #2 . k[a1] . a0", base_reg)
    assert parse_stack(stack_to_text(s), base_reg) == s


def test_pop_items_splits_off_the_top(base_reg):
    s = parse_stack("(\\x. x) . #1 . a0", base_reg)
    assert pop_items(s, 0) == ([], s)
    assert pop_items(s, 2) == ([s.top, s.rest.top], Bottom("a0"))
    assert pop_items(s, 3) is None


### substitution

def test_subst_var_example(base_reg):
    t = parse_term("\\y. x y", base_reg, free_vars=("x",))
    i = parse_term("\\z. z", base_reg)
    assert subst_var(t, "x", i) == parse_term("\\y. (\\z. z) y", base_reg)


def test_subst_var_leaves_other_names(base_reg):
    t = parse_term("x y", base_reg, free_vars=("x", "y"))
    out = subst_var(t, "x", numeral(1))
    assert out == App(numeral(1), FreeVar("y"))


def test_subst_const_enters_continuations(base_reg):
    t = parse_term("k[c_a . a0]", base_reg)
    i = parse_term("\\x. x", base_reg)
    assert subst_const(t, "c_a", i) == parse_term("k[(\\x. x) . a0]", base_reg)


def test_subst_const_under_binders(base_reg):
    t = parse_term("\\x. c_a x", base_reg)
    out = subst_const(t, "c_a", parse_term("\\y. y y", base_reg))
    assert out == parse_term("\\x. (\\y. y y) x", base_reg)


def test_subst_const_on_process(base_reg):
    p = parse_process("c_a * c_a . a0", base_reg)
    out = subst_const(p, "c_a", numeral(2))
    assert out == Process(numeral(2), Push(numeral(2), Bottom("a0")))


def test_subst_stack_const_everywhere(base_reg):
    p = parse_process("k[c_a . a0] * a0", base_reg)
    pi0 = parse_stack("(\\x. x) . a1", base_reg)
    out = subst_stack_const(p, "a0", pi0)
    assert out == parse_process("k[c_a . (\\x. x) . a1] * (\\x. x) . a1", base_reg)


def test_subst_other_stack_consts_untouched(base_reg):
    s = parse_stack("cc . a1", base_reg)
    assert subst_stack_const(s, "a0", Bottom("a2")) == s


def test_subst_const_requires_closed(base_reg):
    with pytest.raises(LamcError):
        subst_const(Const("c_a"), "c_a", FreeVar("x"))


### substitution against the recursive reference

def random_inputs(seed):
    """A seeded random term with varied binder hints, inert constant c_a,
    free variable c_b and stack constants inside k[pi]; a closed term; a
    stack."""
    rng = random.Random(seed)
    reg = MachineConfig(inert_consts=("c_a", "c_b")).build()
    text = term_to_text(random_closed_term(rng, reg, max_depth=6, allow_cont=True))
    t = parse_term(text, MachineConfig(inert_consts=("c_a",)).build(),
                   free_vars=("c_b",))
    u = random_closed_term(rng, reg, allow_cont=True)
    return t, u, random_stack(rng, reg)


def subterms(node):
    """Every term in the tree, the ones under binders and in k[pi] too."""
    out, todo = [], [node]
    while todo:
        n = todo.pop()
        if isinstance(n, Term):
            out.append(n)
        if isinstance(n, Lam):
            todo.append(n.body)
        elif isinstance(n, App):
            todo += (n.fn, n.arg)
        elif isinstance(n, Cont):
            todo.append(n.stack)
        elif isinstance(n, Push):
            todo += (n.top, n.rest)
    return out


def text(node):
    if isinstance(node, Term):
        return term_to_text(node)
    if isinstance(node, Stack):
        return stack_to_text(node)
    return process_to_text(node)


def assert_agrees(got, want, source):
    assert got == want
    assert text(got) == text(want)              # binder hints survive too
    assert (got is source) == (want is source)  # untouched trees stay shared


@pytest.mark.parametrize("block", range(5))
def test_substitution_agrees_with_the_recursive_reference(block):
    for seed in range(100 * block, 100 * block + 100):
        t, u, pi = random_inputs(seed)
        for s in subterms(t):
            assert_agrees(subst_bound0(s, u), ref.subst_bound0(s, u), s)
        for x in ("c_b", "y"):
            assert_agrees(subst_var(t, x, u), ref.subst_var(t, x, u), t)
            assert_agrees(bind(x, t, "h"), ref.bind(x, t, "h"), t)
        for node in (t, u, pi, Process(u, pi), Push(t, pi)):
            for c in ("c_a", "c_b"):
                assert_agrees(subst_const(node, c, u), ref.subst_const(node, c, u), node)
            for alpha in ("a0", "a1", "a3"):
                assert_agrees(subst_stack_const(node, alpha, pi),
                              ref.subst_stack_const(node, alpha, pi), node)


@pytest.mark.parametrize("block", range(5))
def test_name_fold_agrees_with_the_unpruned_collector(block):
    for seed in range(100 * block, 100 * block + 100):
        t, u, pi = random_inputs(seed)
        for node in (t, Process(t, pi), Push(u, pi)):
            assert _reserved_names(node) == ref.names_in_tree(node)
            assert collect_constants(node) == ref.names_in_tree(node, Const)
            assert collect_stack_constants(node) == ref.names_in_tree(node, Bottom)


### parsing and printing against the recursive reference

# binders that shadow each other, a constant and a stack constant
BINDERS = ("x", "y", "x", "cc", "a0")


def random_tokens(rng, depth, what="term", scope=()):
    """The tokens of a random term, stack or process over cc, c_a, the free
    variable c_b and a0..a1, with k[pi], numerals across the shared table's
    end and binders in BINDERS."""
    if what == "process":
        return [*random_tokens(rng, depth), "*", *random_tokens(rng, depth, "stack")]
    if what == "stack":
        out = []
        for _ in range(rng.randrange(3)):
            item = random_tokens(rng, depth - 1, "term", scope)
            # an item that starts with a stack constant would end the stack
            out += ["(", *item, ")", "."] if item[0] == "a0" else [*item, "."]
        return out + [rng.choice(("a0", "a1"))]
    out = []
    while rng.random() < 0.3:
        names = [rng.choice(BINDERS) for _ in range(rng.randint(1, 2))]
        out += [rng.choice("\\λ"), *names, "."]
        scope = (*reversed(names), *scope)
    for _ in range(rng.randint(1, 3)):
        pick = rng.randrange(5 if depth > 0 else 2)
        if pick == 0:
            out.append(rng.choice(scope + ("cc", "c_a", "c_b")))
        elif pick == 1:
            out += ["#", str(rng.randrange(300))]
        elif pick < 4:
            out += ["(", *random_tokens(rng, depth - 1, "term", scope), ")"]
        else:
            out += ["k[", *random_tokens(rng, depth - 1, "stack", scope), "]"]
    return out


def join(rng, tokens):
    return "".join(tok + rng.choice((" ", " ", " ", "\n", "  ")) for tok in tokens)


# an unknown name, a character that starts no token, and bad numerals: above
# the cap, without digits, or with a name for digits. "²" is left out: the
# reference reads it as a number.
INSERTS = ("zz", "@", "# 100001", "#", "# x", "#0000000000000000000000099")


def mutate(rng, tokens):
    """tokens with one token dropped, doubled or swapped with another, or
    with something from INSERTS put in."""
    tokens = list(tokens)
    i = rng.randrange(len(tokens))
    pick = rng.randrange(4)
    if pick == 0:
        del tokens[i]
    elif pick == 1:
        tokens.insert(i, tokens[i])
    elif pick == 2:
        j = rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    else:
        tokens.insert(i, rng.choice(INSERTS))
    return tokens


def parse_both(what, text, reg):
    """What the loop and the reference make of text: a node, or the parse
    error's message and position."""
    out = []
    for module in (syntax, syntax_reference):
        try:
            out.append(getattr(module, f"parse_{what}")(text, reg, free_vars=("c_b",)))
        except LamcParseError as exc:
            out.append((str(exc), exc.pos, exc.line, exc.col))
    return out


TO_TEXT = {"term": (term_to_text, syntax_reference.term_to_text),
           "stack": (stack_to_text, syntax_reference.stack_to_text),
           "process": (process_to_text, syntax_reference.process_to_text)}


@pytest.mark.parametrize("block", range(10))
def test_parsing_and_printing_agree_with_the_recursive_reference(block):
    reg = MachineConfig(inert_consts=("c_a",)).build()
    for seed in range(200 * block, 200 * block + 200):
        rng = random.Random(seed)
        for what, (to_text, ref_to_text) in TO_TEXT.items():
            tokens = random_tokens(rng, 4, what)
            node, want = parse_both(what, join(rng, tokens), reg)
            assert node == want and not isinstance(node, tuple)
            printed = to_text(node)
            assert printed == ref_to_text(node)
            assert parse_both(what, printed, reg) == [node, node]
            got, want = parse_both(what, join(rng, mutate(rng, tokens)), reg)
            assert got == want
            if not isinstance(got, tuple):
                assert to_text(got) == ref_to_text(got)
        # random nodes, with unbound indices in their subterms
        t, u, pi = random_inputs(seed)
        for what, nodes in (("term", subterms(t)), ("stack", [pi]),
                            ("process", [Process(u, pi)])):
            for node in nodes:
                assert TO_TEXT[what][0](node) == TO_TEXT[what][1](node)


def test_binders_with_one_hint_print_as_the_reference_prints_them():
    t = app(Bound(0), Bound(199), Bound(100))
    for _ in range(200):
        t = Lam(t, "x")
    assert term_to_text(t) == syntax_reference.term_to_text(t)
    assert term_to_text(t).endswith(". x199 x x99")


def test_no_function_of_the_text_layer_calls_itself():
    tree = ast.parse(inspect.getsource(syntax))
    layer = [f for f in tree.body if isinstance(f, ast.FunctionDef)
             and f.lineno > inspect.getsourcelines(syntax.check_literal)[1]]
    assert {"_scan", "_parse", "_print", "_fresh_name"} <= {f.name for f in layer}
    for f in layer:
        called = {n.func.id for n in ast.walk(f)
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        assert f.name not in called


### substitution on shared saved stacks

def saved_chain(n):
    """n levels of a stack saved on top of itself, s' = k[s] . s: 2^n paths
    through n + 3 distinct nodes."""
    s = Push(Const("c_a"), Bottom("a0"))
    for _ in range(n):
        s = Push(Cont(s), s)
    return s


def distinct_nodes(node):
    seen, todo = {}, [node]
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            todo += [getattr(n, f) for f in ("body", "fn", "arg", "stack", "top",
                                             "rest", "term") if hasattr(n, f)]
    return len(seen)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 60])
def test_substitution_rewrites_each_shared_saved_stack_once(n):
    s = saved_chain(n)
    for fn, reference, name, image in (
            (subst_const, ref.subst_const, "c_a", numeral(2)),
            (subst_stack_const, ref.subst_stack_const, "a0",
             Push(Const("c_a"), Bottom("a1")))):
        for source in (s, Cont(s)):
            start = time.perf_counter()
            out = fn(source, name, image)
            assert time.perf_counter() - start < 1
            assert distinct_nodes(out) <= distinct_nodes(source) + distinct_nodes(image)
            level = out.stack if isinstance(out, Cont) else out
            for _ in range(n):
                assert level.top.stack is level.rest
                level = level.rest
            if n <= 10:     # the reference and the printer walk all 2^n paths
                assert_agrees(out, reference(source, name, image), source)


### depth 10^4, at Python's default recursion limit

DEEP = 10_000


@pytest.fixture
def flat():
    """Call a function at Python's default recursion limit, which the CLI
    runs at (the suite raises it). A RecursionError fails the test with a
    one-line report: pytest's own report of a deep recursion compares the
    locals of every frame, deep terms included, and takes minutes."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)

    def call(fn, *args):
        try:
            return fn(*args)
        except RecursionError:
            pass
        pytest.fail(f"{fn.__name__} recursed at depth {DEEP}", pytrace=False)

    yield call
    sys.setrecursionlimit(old)


def left_spine(head, arg):
    t = head
    for _ in range(DEEP):
        t = App(t, arg)
    return t


def binders(body):
    for _ in range(DEEP):
        body = Lam(body, "x")
    return body


def nested_conts(bottom):
    """k[k[...k[bottom] . bottom ...] . bottom], DEEP continuations."""
    s = bottom
    for _ in range(DEEP):
        s = Push(Cont(s), bottom)
    return Cont(s)


def test_substitution_on_a_deep_left_spine(flat):
    u = numeral(2)
    assert flat(subst_bound0, left_spine(Bound(0), Bound(1)), u) == left_spine(u, Bound(0))
    assert flat(subst_var, left_spine(FreeVar("x"), ZERO), "x", u) == left_spine(u, ZERO)
    assert flat(subst_const, left_spine(Const("c_a"), ZERO), "c_a", u) == left_spine(u, ZERO)
    assert flat(bind, "x", left_spine(FreeVar("x"), ZERO)) == Lam(left_spine(Bound(0), ZERO))
    assert flat(collect_constants, left_spine(Const("c_a"), Const("c_b"))) == {"c_a", "c_b"}


def test_substitution_under_deep_binders(flat):
    u = numeral(2)
    assert flat(subst_bound0, binders(Bound(DEEP)), u) == binders(u)
    assert flat(subst_var, binders(FreeVar("x")), "x", u) == binders(u)
    assert flat(subst_const, binders(Const("c_a")), "c_a", u) == binders(u)
    assert flat(bind, "x", binders(FreeVar("x"))) == Lam(binders(Bound(DEEP)))


def test_substitution_in_deeply_nested_continuations(flat):
    t = nested_conts(Bottom("a0"))
    pi = Push(Const("c_a"), Bottom("a1"))
    assert flat(subst_stack_const, t, "a0", pi) == nested_conts(pi)
    assert flat(subst_const, nested_conts(pi), "c_a", ZERO) == \
        nested_conts(Push(ZERO, Bottom("a1")))
    assert flat(subst_bound0, t, ZERO) is t
    assert flat(collect_stack_constants, nested_conts(pi)) == {"a1"}
    assert flat(collect_constants, nested_conts(pi)) == {"c_a"}


def test_parsing_deep_text(flat, base_reg):
    assert flat(parse_term, "(" * DEEP + "c_a" + ")" * DEEP, base_reg) == Const("c_a")
    assert flat(parse_stack, "c_a . " * DEEP + "a0", base_reg) == \
        stack_of([Const("c_a")] * DEEP, "a0")
    assert flat(parse_term, "k[" * (DEEP + 1) + "a0" + "] . a0" * DEEP + "]", base_reg) == \
        nested_conts(Bottom("a0"))


def test_printing_deep_trees(flat, base_reg):
    nested_args = Const("c_b")
    for _ in range(DEEP):
        nested_args = App(Const("c_a"), nested_args)
    distinct_hints = app(Bound(0), Bound(DEEP - 1))
    for i in range(DEEP):
        distinct_hints = Lam(distinct_hints, f"h{i}")
    for t, want in (
            (left_spine(Const("c_a"), Const("c_b")), "c_a" + " c_b" * DEEP),
            (nested_args, "c_a (" * (DEEP - 1) + "c_a c_b" + ")" * (DEEP - 1)),
            (nested_conts(Bottom("a0")), "k[" * (DEEP + 1) + "a0" + "] . a0" * DEEP + "]"),
            (distinct_hints, "\\" + " ".join(f"h{i}" for i in reversed(range(DEEP)))
             + f". h0 h{DEEP - 1}")):
        printed = flat(term_to_text, t)
        assert printed == want
        assert flat(parse_term, printed, base_reg) == t
    pi = Push(nested_args, nested_conts(Bottom("a0")).stack)
    assert flat(parse_stack, flat(stack_to_text, pi), base_reg) == pi
    p = Process(left_spine(Const("c_a"), Const("c_b")), pi)
    assert flat(parse_process, flat(process_to_text, p), base_reg) == p


### registry

def test_registry_rejects_duplicate_declarations():
    reg = Registry()
    reg.declare_inert("c")
    with pytest.raises(LamcError):
        reg.declare_inert("c")
    with pytest.raises(LamcError):
        reg.declare_stack("c")


def test_fresh_constants_mint_unique(base_reg):
    names = fresh_constants(base_reg, 3, "term", prefix="kappa")
    assert names == ["kappa0", "kappa1", "kappa2"]
    more = fresh_constants(base_reg, 1, "term", prefix="kappa")
    assert more == ["kappa3"]
    stacks = fresh_constants(base_reg, 2, "stack", prefix="alpha")
    assert stacks == ["alpha0", "alpha1"]
    assert base_reg.is_stack_name("alpha0")


def test_fresh_constants_skip_names_taken_in_the_other_namespace(base_reg):
    base_reg.declare_stack("c0")
    assert fresh_constants(base_reg, 1, "term", prefix="c") == ["c1"]
    # the default stack constants are a0-a3
    assert fresh_constants(base_reg, 1, "stack") == ["a4"]


def test_quote_like_flag_depends_on_quote_and_eq(base_reg, full_reg):
    assert not base_reg.has_quote_like
    assert full_reg.has_quote_like
    assert MachineConfig(quote=True).build().has_quote_like
    assert MachineConfig(eq=True).build().has_quote_like


def test_eq_nat_alone_is_not_quote_like():
    reg = MachineConfig(eq_nat=True, inert_consts=("c_a",)).build()
    assert not reg.has_quote_like


### collectors and helpers

def stack_of(items, bottom):
    """Build a stack from items (top first) over a named stack constant."""
    s = Bottom(bottom)
    for item in reversed(list(items)):
        s = Push(item, s)
    return s


def test_collectors(base_reg):
    p = parse_process("k[c_a . a1] * cc . a0", base_reg)
    assert collect_constants(p) == {"c_a", "cc"}
    assert collect_stack_constants(p) == {"a0", "a1"}


def test_named_builders(base_reg):
    t = lam("x y", app(fv("x"), fv("y")))
    assert t == parse_term("\\x y. x y", base_reg)
    s = stack_of([numeral(1), numeral(2)], "a0")
    assert s == parse_stack("#1 . #2 . a0", base_reg)
    b = bind("x", app(fv("x"), Const("cc")))
    assert b == parse_term("\\x. x cc", base_reg)


def test_is_closed(base_reg):
    assert is_closed(parse_term("\\x. x cc", base_reg))
    assert not is_closed(FreeVar("x"))
    assert not is_closed(Bound(0))


### property tests

@st.composite
def closed_terms(draw, depth=4):
    """Structured random closed terms over the default constants."""
    reg = MachineConfig(inert_consts=("c_a", "c_b")).build()

    def go(d, scope):
        options = ["leaf"]
        if d > 0:
            options += ["lam", "app", "cont"]
        kind = draw(st.sampled_from(options))
        if kind == "lam":
            return Lam(go(d - 1, scope + 1), "x")
        if kind == "app":
            return App(go(d - 1, scope), go(d - 1, scope))
        if kind == "cont":
            items = [go(d - 1, scope) for _ in range(draw(st.integers(0, 2)))]
            bottom = Bottom(draw(st.sampled_from(["a0", "a1"])))
            s = bottom
            for item in reversed(items):
                s = Push(item, s)
            return Cont(s)
        if scope > 0 and draw(st.booleans()):
            return Bound(draw(st.integers(0, scope - 1)))
        return draw(st.sampled_from([
            Const("cc"), Const("c_a"), Const("c_b"),
            numeral(draw(st.integers(0, 3))), Lam(Bound(0), "x"),
        ]))

    return go(depth, 0)


@settings(max_examples=200, deadline=None)
@given(closed_terms())
def test_print_parse_roundtrip_property(t):
    reg = MachineConfig(inert_consts=("c_a", "c_b")).build()
    assert parse_term(term_to_text(t), reg) == t


@settings(max_examples=100, deadline=None)
@given(closed_terms(), closed_terms())
def test_eq_consistent_with_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_random_generators_deterministic(base_reg):
    r1, r2 = random.Random(7), random.Random(7)
    t1 = random_closed_term(r1, base_reg, allow_cont=True)
    t2 = random_closed_term(r2, base_reg, allow_cont=True)
    assert t1 == t2
    assert is_closed(t1)
    s1 = random_stack(r1, base_reg)
    s2 = random_stack(r2, base_reg)
    assert s1 == s2
    assert is_closed(s1)


def test_random_terms_are_closed_sample(base_reg):
    rng = random.Random(11)
    for _ in range(200):
        assert is_closed(random_closed_term(rng, base_reg, allow_cont=True))
