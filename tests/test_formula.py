"""Payoff functions, Turing tables, theta instructions, the bounded oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamc.formula import (
    ArithFormula,
    FN_ADD,
    FN_F_HALT,
    FN_HALT01,
    FN_LEQ01,
    FN_MULT,
    FN_PHI4,
    FN_PICK,
    FN_TRUNCSUB,
    IDX_HALT3,
    IDX_LOOP,
    IDX_TRIVIAL,
    NATIVE_FNS,
    PrimRecFn,
    TuringMachineTable,
    builtin_formulae,
    decode_table,
    encode_table,
    enumeration_size,
    eval_fn,
    halt_predicate,
    load_formula_registry,
    make_theta,
    simulate,
    table_halt3,
    table_loop,
    table_trivial,
    truth_oracle_g0,
)
from lamc.machine import Machine, MachineConfig
from lamc.syntax import (
    LamcError,
    encode_nat_tuple,
    numeral,
    parse_process,
    parse_stack,
    parse_term,
    Process,
    Push,
)


def step(m, p):
    """One transition: the next configuration, or None when stuck."""
    return m.step_labeled(p)[0]


### function evaluation

def test_eval_fn_examples():
    assert eval_fn(FN_LEQ01, [0, 5]) == 0
    assert eval_fn(FN_LEQ01, [5, 0]) == 1
    assert eval_fn(FN_ADD, [3, 4]) == 7
    assert eval_fn(FN_TRUNCSUB, [3, 5]) == 0
    assert eval_fn(FN_TRUNCSUB, [5, 3]) == 2
    assert eval_fn(FN_PICK, [0, 7]) == 7
    assert eval_fn(FN_PICK, [2, 7]) == 2


def test_eval_fn_rejects_bad_args():
    with pytest.raises(LamcError):
        eval_fn(FN_ADD, [1])
    with pytest.raises(LamcError):
        eval_fn(FN_ADD, [1, -2])


def test_dsl_add_from_scratch():
    add = PrimRecFn("add2", 2, dsl=("primrec", ("proj", 1),
                                    ("compose", "succ", (("proj", 2),))))
    assert eval_fn(add, [3, 4]) == 7
    assert eval_fn(add, [0, 9]) == 9


def test_dsl_validation_catches_arity():
    with pytest.raises(LamcError):
        PrimRecFn("bad", 2, dsl=("proj", 3))
    with pytest.raises(LamcError):
        PrimRecFn("bad", 1, dsl=("compose", "succ", (("proj", 1), ("proj", 1))))
    with pytest.raises(LamcError):
        PrimRecFn("empty", 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=2, max_size=2))
def test_dsl_twins_agree_binary(args):
    for fn in (FN_ADD, FN_TRUNCSUB, FN_MULT, FN_PICK, FN_LEQ01):
        assert fn.eval_dsl(args) == fn.native(*args)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=4, max_size=4))
def test_dsl_twin_agrees_phi4(args):
    assert FN_PHI4.eval_dsl(args) == FN_PHI4.native(*args)


def test_phi4_values_from_the_match_table():
    # pairs (x1, x2, y1, y2) seen in the worked two-round match
    assert eval_fn(FN_PHI4, [1, 1, 0, 1]) == 1
    assert eval_fn(FN_PHI4, [1, 2, 0, 2]) == 1
    assert eval_fn(FN_PHI4, [0, 2, 1, 1]) == 0
    assert eval_fn(FN_PHI4, [2, 4, 2, 0]) == 0
    assert eval_fn(FN_PHI4, [0, 0, 0, 5]) == 0


### Turing machine tables

def test_simulate_known_tables():
    assert simulate(table_trivial(), 100) == (True, 0)
    halted, steps = simulate(table_halt3(), 100)
    assert halted and steps == 3
    halted, steps = simulate(table_loop(), 500)
    assert not halted and steps == 500


def test_encode_decode_roundtrip_known():
    for table in (table_trivial(), table_loop(), table_halt3()):
        assert decode_table(encode_table(table)) == table


def test_trivial_table_is_index_zero():
    assert IDX_TRIVIAL == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_decode_encode_roundtrip_property(i):
    assert encode_table(decode_table(i)) == i


def test_decode_rejects_out_of_range():
    with pytest.raises(LamcError):
        decode_table(-1)
    with pytest.raises(LamcError):
        decode_table(enumeration_size())


def test_halt_predicate_examples():
    assert halt_predicate(IDX_TRIVIAL, 1) is True
    assert halt_predicate(IDX_TRIVIAL, 0) is False
    assert halt_predicate(IDX_HALT3, 3) is False
    assert halt_predicate(IDX_HALT3, 4) is True
    for n in (1, 2, 5, 50, 1000):
        assert halt_predicate(IDX_LOOP, n) is False


def test_f_halt_definition():
    # halting machine: n > 0 rounds
    assert eval_fn(FN_F_HALT, [IDX_HALT3, 4, 0]) == 0
    assert eval_fn(FN_F_HALT, [IDX_HALT3, 3, 0]) == 1
    # non-halting machine: the n = 0 escape hatch
    assert eval_fn(FN_F_HALT, [IDX_LOOP, 0, 7]) == 0
    assert eval_fn(FN_F_HALT, [IDX_HALT3, 0, 7]) == 1
    assert eval_fn(FN_F_HALT, [IDX_HALT3, 0, 3]) == 0


### formulas

def test_builtin_formulae_shapes():
    table = builtin_formulae()
    assert table["leq"].rounds == 1 and table["leq"].leading_foralls == 0
    assert table["phi4"].rounds == 2 and table["phi4"].leading_foralls == 0
    assert table["halt"].rounds == 1 and table["halt"].leading_foralls == 1
    assert table["halt"].f_value([IDX_HALT3], [4], [0]) == 0


def test_formula_arity_checked():
    with pytest.raises(LamcError):
        ArithFormula("bad", 0, 2, FN_LEQ01)


def test_load_formula_registry_dict():
    table = load_formula_registry({
        "always": {"rounds": 1, "fn": {"dsl": "zero", "arity": 2}},
        "twosub": {"rounds": 1, "fn": {"native": "truncsub"}},
    })
    assert table["always"].f_value([], [3], [9]) == 0
    assert table["twosub"].f_value([], [2], [5]) == 0
    assert "leq" in table
    with pytest.raises(LamcError):
        load_formula_registry({"nope": {"rounds": 1, "fn": {"native": "missing"}}})


### theta instructions

def test_theta_split_1_1_takes_bare_numerals():
    reg = MachineConfig().build()
    name = make_theta(reg, FN_HALT01, (1, 1), name="Theta_halt")
    assert name == "Theta_halt"
    m = Machine(reg)
    idx = numeral(IDX_HALT3)
    p = Process(parse_term("Theta_halt", reg),
                Push(idx, parse_stack("#4 . (\\x. x) . (\\y. y y) . a0", reg)))
    assert step(m, p) == parse_process("(\\x. x) * a0", reg)
    p = Process(parse_term("Theta_halt", reg),
                Push(idx, parse_stack("#3 . (\\x. x) . (\\y. y y) . a0", reg)))
    assert step(m, p) == parse_process("(\\y. y y) * a0", reg)


def test_theta_split_wide_takes_tuples():
    reg = MachineConfig().build()
    make_theta(reg, FN_PHI4, (2, 2), name="Theta_phi4")
    m = Machine(reg)
    ms = encode_nat_tuple([0, 2])
    ns = encode_nat_tuple([1, 1])
    stack = Push(ms, Push(ns, parse_stack("(\\x. x) . (\\y. y y) . a0", reg)))
    p = Process(parse_term("Theta_phi4", reg), stack)
    assert step(m, p) == parse_process("(\\x. x) * a0", reg)


def test_theta_one_arity_accepts_one_tuple_too():
    reg = MachineConfig().build()
    make_theta(reg, FN_LEQ01, (1, 1), name="Theta_leq")
    m = Machine(reg)
    stack = Push(encode_nat_tuple([0]), Push(encode_nat_tuple([5]),
                 parse_stack("(\\x. x) . (\\y. y) . a0", reg)))
    p = Process(parse_term("Theta_leq", reg), stack)
    assert step(m, p) == parse_process("(\\x. x) * a0", reg)


def test_theta_sticks_on_garbage():
    reg = MachineConfig().build()
    make_theta(reg, FN_LEQ01, (1, 1), name="Theta_leq")
    m = Machine(reg)
    p = parse_process("Theta_leq * (\\x. x) . #1 . cc . cc . a0", reg)
    assert step(m, p) is None
    p = parse_process("Theta_leq * #1 . #1 . cc . a0", reg)
    assert step(m, p) is None


def test_theta_split_must_cover_arity():
    reg = MachineConfig().build()
    with pytest.raises(LamcError):
        make_theta(reg, FN_PHI4, (1, 1))


### the bounded oracle, checked against a direct least fixpoint

def _reference_w0(f, h, bound):
    """All winning histories by least fixpoint over the full powerset.

    Positions are (ms, ns) pairs with Eloise's components in [0, bound + 1]
    and Abelard's in [0, bound]; a history is a frozenset of positions. Win:
    some depth-h position has f = 0. Play: some recorded position extends by
    (m, n escape) so that every extension of it by Abelard's n lands in the
    current winning set.
    """
    positions = [((), ())]
    for depth in range(1, h + 1):
        for ms in itertools.product(range(bound + 2), repeat=depth):
            for ns in itertools.product(range(bound + 1), repeat=depth):
                positions.append((ms, ns))
    histories = []
    for r in range(1, len(positions) + 1):
        histories.extend(frozenset(c) for c in itertools.combinations(positions, r))
    winning = set()
    changed = True
    while changed:
        changed = False
        for hset in histories:
            if hset in winning:
                continue
            won = any(len(ms) == h and f(*ms, *ns) == 0 for ms, ns in hset)
            if not won:
                for ms, ns in hset:
                    if len(ms) == h:
                        continue
                    for m in range(bound + 2):
                        if all(hset | {(ms + (m,), ns + (n,))} in winning
                               for n in range(bound + 1)):
                            won = True
                            break
                    if won:
                        break
            if won:
                winning.add(hset)
                changed = True
    return winning


def test_oracle_matches_reference_exhaustively_h1_bound0():
    # Bound 0: Eloise plays in {0, 1}, Abelard is pinned to 0. All 4 payoff
    # functions on that box, all histories over its 3 positions.
    bound = 0
    for bits in range(4):
        values = {(m, 0): (bits >> m) & 1 for m in (0, 1)}
        fn = PrimRecFn("probe", 2, native=lambda x, y, v=values: v[(x, y)])
        phi = ArithFormula("probe", 0, 1, fn)
        winning = _reference_w0(lambda m, n: values[(m, n)], 1, bound)
        positions = [((), ())] + [((m,), (0,)) for m in (0, 1)]
        for r in range(1, len(positions) + 1):
            for combo in itertools.combinations(positions, r):
                hset = frozenset(combo)
                expect = "win" if hset in winning else "lose"
                got = truth_oracle_g0(phi, bound, history=list(hset))
                assert got == expect, (values, sorted(hset), expect, got)


def test_oracle_matches_reference_exhaustively_h1_bound1():
    # Bound 1: Eloise plays in {0, 1, 2}, Abelard in {0, 1}; 64 payoff
    # functions on the 3x2 box, sampled histories over its 7 positions.
    bound = 1
    for bits in range(64):
        values = {(m, n): (bits >> (2 * m + n)) & 1 for m in (0, 1, 2) for n in (0, 1)}
        fn = PrimRecFn("probe", 2, native=lambda x, y, v=values: v[(x, y)])
        phi = ArithFormula("probe", 0, 1, fn)
        winning = _reference_w0(lambda m, n: values[(m, n)], 1, bound)
        positions = [((), ())] + [((m,), (n,)) for m in (0, 1, 2) for n in (0, 1)]
        for r in (1, 2, len(positions)):
            for combo in itertools.combinations(positions, r):
                hset = frozenset(combo)
                expect = "win" if hset in winning else "lose"
                got = truth_oracle_g0(phi, bound, history=list(hset))
                assert got == expect, (values, sorted(hset), expect, got)


def test_oracle_builtins():
    table = builtin_formulae()
    assert truth_oracle_g0(table["leq"], 5) == "win"
    assert truth_oracle_g0(table["halt"], 6, zs=[IDX_HALT3]) == "win"
    assert truth_oracle_g0(table["halt"], 6, zs=[IDX_LOOP]) == "win"
    # n=0 escape: even a halting machine "wins" while the bound keeps Abelard
    # from naming a step count past the halting time (here he needs p >= 4)
    assert truth_oracle_g0(table["halt"], 2, zs=[IDX_HALT3]) == "win"
    never = ArithFormula("never", 0, 1, PrimRecFn("one", 2, native=lambda m, n: 1))
    assert truth_oracle_g0(never, 4) == "lose"
    assert truth_oracle_g0(never, 4, caveat_unknown=True) == "unknown"


def test_oracle_phi4_needs_the_successor_margin():
    # The winning reply x2 = y1 + 1 exceeds Abelard's bound by one, which is
    # exactly the margin the oracle grants Eloise: phi4 wins at every bound.
    # A symmetric box would flip it back to a loss at every bound >= 1 (at
    # x1 = 0 Abelard answers y1 = B and no in-box x2 beats it; at x1 > 0 the
    # payoff pins the comparison to x1 itself and y1 = 0, y2 = B refutes it),
    # which the plain alternating evaluation below demonstrates.
    phi = builtin_formulae()["phi4"]
    for b in range(0, 5):
        assert truth_oracle_g0(phi, b) == "win"

    def plain(f, h, e_cap, a_cap, ms=(), ns=()):
        if len(ms) == h:
            return f(*ms, *ns) == 0
        return any(
            all(plain(f, h, e_cap, a_cap, ms + (m,), ns + (n,))
                for n in range(a_cap + 1))
            for m in range(e_cap + 1)
        )

    f4 = lambda x1, x2, y1, y2: phi.f_value((), (x1, x2), (y1, y2))
    assert plain(f4, 2, 0, 0)
    for b in range(1, 4):
        assert not plain(f4, 2, b, b)
        assert plain(f4, 2, b + 1, b)


def test_oracle_respects_history():
    table = builtin_formulae()
    # leq: history already containing a losing pair still wins from the root
    assert truth_oracle_g0(table["leq"], 3, history=[((), ()), ((3,), (0,))]) == "win"
    # a history with only a bad complete pair and no root loses
    assert truth_oracle_g0(table["leq"], 3, history=[((3,), (0,))]) == "lose"


def test_oracle_monotone_on_builtins():
    table = builtin_formulae()
    verdicts = [truth_oracle_g0(table["leq"], b) for b in range(0, 6)]
    assert verdicts == ["win"] * 6
    verdicts = [truth_oracle_g0(table["phi4"], b) for b in range(0, 6)]
    assert verdicts == ["win"] * 6
    for idx in (IDX_TRIVIAL, IDX_LOOP, IDX_HALT3):
        verdicts = [truth_oracle_g0(table["halt"], b, zs=[idx]) for b in range(0, 7)]
        for earlier, later in zip(verdicts, verdicts[1:]):
            if earlier == "win":
                assert later == "win"


def test_oracle_checks_leading_values():
    table = builtin_formulae()
    with pytest.raises(LamcError):
        truth_oracle_g0(table["halt"], 3)
