"""The realizer library: contracts for every shipped term."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lamc.game
import lamc.realizers
from lamc.formula import ArithFormula, IDX_HALT3, IDX_LOOP, PrimRecFn, builtin_formulae
from lamc.game import RandomAbelard, fresh_handle, play_g1, play_g2
from lamc.machine import Machine, MachineConfig
from lamc.realizers import (
    HistoryCell,
    IDENT,
    SELF_APP,
    SELF_APP_GROW,
    _require,
    box_max_index,
    build_t_H,
    build_t_leq,
    build_t_phi,
    cantor_pair,
    cantor_unpair,
    check_identity_like,
    decode_history,
    is_proof_like,
    next_tuple,
    realizer_catalog,
    resolve_realizer,
    storage_operator,
    tuple_index,
    tuple_successor,
)
from lamc.syntax import (
    App,
    Bottom,
    Bound,
    Cont,
    Const,
    HAS_FREE,
    HAS_STACKNAME,
    Lam,
    LamcError,
    PAIR_CONS,
    Process,
    Push,
    SUCC,
    decode_nat_tuple,
    decode_numeral,
    encode_list,
    encode_nat_tuple,
    numeral,
    parse_process,
    parse_term,
    process_to_text,
    random_closed_term,
    random_stack,
    term_to_text,
)
from builders import identity_like_family, leq_round_gate, leq_round_opener
from trace_reference import run

FORMULAE = builtin_formulae()
PHI4 = FORMULAE["phi4"]


def full_registry():
    return MachineConfig(quote=True, eq=True, eq_nat=True,
                         inert_consts=("c_a", "c_b", "c_u", "c_v")).build()


def cc_registry():
    return MachineConfig(inert_consts=("c_a", "c_b")).build()


### basic terms and the identity-like family

def test_basic_terms_are_proof_like_and_closed():
    for name, t in {"ident": IDENT, "self_app": SELF_APP,
                    "self_app_grow": SELF_APP_GROW, "zero": numeral(0),
                    "succ": SUCC, "pair": PAIR_CONS}.items():
        assert is_proof_like(t), name
        assert not t.flags & HAS_FREE, name


def test_self_app_cycles():
    reg = cc_registry()
    m = Machine(reg)
    p = parse_process("(\\x. x x) (\\x. x x) * a0", reg)
    trace = run(m, p, budget=10)
    assert trace.terminal.kind == "cycle"
    assert trace.terminal.period == 2


def test_identity_like_family_members():
    reg = cc_registry()
    family = identity_like_family(reg)
    assert set(family) == {"ident", "ident_of_ident", "self_app_of_ident",
                           "ident_via_control", "ident_via_restore"}
    for name, t in family.items():
        assert is_proof_like(t), name
        assert check_identity_like(t, reg, trials=25, seed=11), name


def test_check_identity_like_rejects_non_identity():
    reg = cc_registry()
    zero = numeral(0)
    assert not check_identity_like(zero, reg, trials=10, seed=3)


def check_identity_like_by_trace(term, registry, trials, seed, budget):
    """Reference: the same fuzz through run() and its whole trace."""
    rng = random.Random(seed)
    machine = Machine(registry)
    for _ in range(trials):
        u = random_closed_term(rng, registry)
        pi = random_stack(rng, registry)
        trace = run(machine, Process(term, Push(u, pi)), budget=budget)
        if Process(u, pi) not in trace.steps:
            return False
    return True


IDENTITY_REJECTS = {
    "zero": numeral(0),
    "self_app": SELF_APP,
    "loop": App(SELF_APP, SELF_APP),
    "second": Lam(Lam(Bound(0), "y"), "x"),
    "ident_after_a_detour": App(App(IDENT, IDENT), App(IDENT, IDENT)),
}


@pytest.mark.parametrize("budget", [-1, 0, 1, 2, 3, 4, 6, 50])
def test_check_identity_like_agrees_with_the_trace_reference(budget):
    reg = cc_registry()
    terms = {**identity_like_family(reg), **IDENTITY_REJECTS}
    verdicts = set()
    for name, term in terms.items():
        for seed in range(4):
            want = check_identity_like_by_trace(term, reg, 20, seed, budget)
            assert check_identity_like(term, reg, trials=20, seed=seed,
                                       budget=budget) == want, (name, seed)
            verdicts.add(want)
    assert verdicts == ({False} if budget < 1 else {True, False})


def test_check_identity_like_walks_at_most_budget_steps_per_trial(
        monkeypatch):
    steps = Counter()

    class Counting(Machine):
        def step_labeled(self, p):
            steps["made"] += 1
            return super().step_labeled(p)

    monkeypatch.setattr(lamc.realizers, "Machine", Counting)
    reg = cc_registry()
    # the loop fails its first trial after 7 steps; ident passes each in 1
    assert not check_identity_like(App(SELF_APP, SELF_APP), reg,
                                   trials=5, budget=7)
    assert steps["made"] == 7
    steps.clear()
    assert check_identity_like(IDENT, reg, trials=5, budget=7)
    assert steps["made"] == 5


def test_check_identity_like_wants_a_closed_term():
    with pytest.raises(LamcError, match="closed"):
        check_identity_like(Bound(0), cc_registry(), trials=1)


def test_ident_via_restore_goes_through_the_saved_stack():
    reg = cc_registry()
    t = identity_like_family(reg)["ident_via_restore"]
    m = Machine(reg)
    c_a = parse_term("c_a", reg)
    trace = run(m, Process(t, Push(c_a, Bottom("a0"))), budget=20)
    assert "Save" in trace.rules and "Restore" in trace.rules
    assert trace.steps[-1] == Process(c_a, Bottom("a0"))


### storage operator

@pytest.mark.parametrize("label,make", [
    ("literal", lambda n, reg: numeral(n)),
    ("under ident", lambda n, reg: App(IDENT, numeral(n))),
    ("grabbed apply", lambda n, reg: App(parse_term("\\x. x #%d" % n, reg), IDENT)),
])
def test_storage_operator_forces_numerals(label, make):
    reg = cc_registry()
    m = Machine(reg)
    T = storage_operator()
    c_a = parse_term("c_a", reg)
    for n in (0, 1, 3, 7):
        nu = make(n, reg)
        trace = run(m, Process(T, Push(c_a, Push(nu, Bottom("a0")))), budget=400)
        assert trace.steps[-1] == Process(c_a, Push(numeral(n), Bottom("a0")))


def test_storage_operator_on_successor_of_computed_numeral():
    reg = cc_registry()
    m = Machine(reg)
    T = storage_operator()
    c_a = parse_term("c_a", reg)
    nu = App(SUCC, App(IDENT, numeral(2)))
    trace = run(m, Process(T, Push(c_a, Push(nu, Bottom("a0")))), budget=400)
    assert trace.steps[-1] == Process(c_a, Push(numeral(3), Bottom("a0")))


### alpha-equality via stack codes

def build_eq_via_codes(registry):
    """A term behaving like the native alpha-test: t * a.b.u.v.pi ends at
    u * pi when a and b are alpha-equal and at v * pi otherwise. It codes the
    two stacks a.u.v.pi and b.u.v.pi and compares the codes, so it needs the
    coding and numeral-test instructions installed."""
    _require(registry, "quote", "eq_nat")
    return parse_term("\\a b. quote (\\n y. quote (\\p z. eq_nat n p) b) a",
                      registry)


def test_eq_via_codes_needs_instructions():
    with pytest.raises(LamcError):
        build_eq_via_codes(cc_registry())


def test_eq_via_codes_agrees_with_native_eq():
    reg = full_registry()
    m = Machine(reg)
    tester = build_eq_via_codes(reg)
    native = parse_term("eq", reg)
    c_u, c_v = parse_term("c_u", reg), parse_term("c_v", reg)
    rng = random.Random(7)
    for _ in range(60):
        t1 = random_closed_term(rng, reg)
        t2 = t1 if rng.random() < 0.4 else random_closed_term(rng, reg)
        results = []
        for probe in (tester, native):
            stack = Push(t1, Push(t2, Push(c_u, Push(c_v, Bottom("a0")))))
            trace = run(m, Process(probe, stack), budget=200)
            assert trace.steps[-1].stack == Bottom("a0")
            results.append(trace.steps[-1].term)
        assert results[0] == results[1]
        assert results[0] == (c_u if t1 == t2 else c_v)


### tuple enumeration

def test_next_tuple_starts_at_zeros():
    for h in (1, 2, 3):
        assert next_tuple(0, h) == (0,) * h


def test_next_tuple_width_one_is_identity():
    for i in (0, 1, 5, 99):
        assert next_tuple(i, 1) == (i,)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 4), st.integers(1, 3))
def test_enumeration_roundtrip(i, h):
    assert tuple_index(next_tuple(i, h)) == i


def test_successor_advances_the_index():
    tup = (3, 1, 4)
    assert tuple_index(tuple_successor(tup)) == tuple_index(tup) + 1


def test_enumeration_is_injective_early_on():
    seen = set()
    for i in range(500):
        seen.add(next_tuple(i, 2))
    assert len(seen) == 500


def test_box_is_covered_within_its_max_index():
    bound, h = 3, 2
    limit = box_max_index(bound, h)
    seen = {next_tuple(i, h) for i in range(limit + 1)}
    for tup in product(range(bound + 1), repeat=h):
        assert tup in seen


def box_max_index_by_enumeration(bound, h):
    """Reference: the largest index over the whole box."""
    return max(tuple_index(t) for t in product(range(bound + 1), repeat=h))


def test_box_max_index_is_the_corner_of_the_box():
    for bound in range(9):
        for h in range(1, 5):
            assert box_max_index(bound, h) == box_max_index_by_enumeration(bound, h)


def test_cantor_pair_unpair():
    assert cantor_pair(0, 0) == 0
    for i in range(200):
        x, y = cantor_unpair(i)
        assert cantor_pair(x, y) == i


def test_enumeration_rejects_bad_width():
    with pytest.raises(LamcError):
        next_tuple(0, 0)
    with pytest.raises(LamcError):
        tuple_index(())


### history codec

def encode_history_entry(ms, ns, u, k):
    return encode_list([encode_nat_tuple(ms), encode_nat_tuple(ns), u, k])


def test_history_roundtrip():
    reg = cc_registry()
    c_a = parse_term("c_a", reg)
    k = Cont(Bottom("a0"))
    entry1 = encode_history_entry((), (), c_a, k)
    entry2 = encode_history_entry((0, 2), (1, 1), IDENT, Cont(Push(c_a, Bottom("a1"))))
    from lamc.syntax import cons_cell
    hist = cons_cell(entry2, encode_list([entry1]))
    cells = decode_history(hist)
    assert cells == [
        HistoryCell((0, 2), (1, 1), IDENT, Cont(Push(c_a, Bottom("a1")))),
        HistoryCell((), (), c_a, k),
    ]


def test_history_decode_fails_on_garbage():
    assert decode_history(IDENT) is None
    assert decode_history(encode_list([numeral(2)])) is None


### the leq realizer

def test_t_leq_requires_instructions():
    with pytest.raises(LamcError):
        build_t_leq(cc_registry())


def test_t_leq_is_proof_like():
    reg = full_registry()
    assert is_proof_like(build_t_leq(reg))


def test_t_leq_round_one_shape():
    reg = full_registry()
    m = Machine(reg)
    c_a = parse_term("c_a", reg)
    trace = run(m, Process(build_t_leq(reg), Push(c_a, Bottom("a0"))), budget=30)
    gate = leq_round_gate(reg, c_a, 0)
    assert trace.steps[-1] == Process(c_a, Push(numeral(0), Push(gate, Bottom("a0"))))
    assert trace.terminal.kind == "stuck"


def test_t_leq_gate_yields_to_fresh_replies():
    reg = full_registry()
    m = Machine(reg)
    c_a, c_b = parse_term("c_a", reg), parse_term("c_b", reg)
    run(m, Process(build_t_leq(reg), Push(c_a, Bottom("a0"))), budget=30)
    gate = leq_round_gate(reg, c_a, 0)
    # different stack
    tr = run(m, Process(gate, Push(numeral(3), Push(c_b, Bottom("a1")))), budget=30)
    assert tr.steps[-1] == Process(c_b, Bottom("a1"))
    # recorded stack but a different term
    tr = run(m, Process(gate, Push(numeral(3), Push(c_b, Bottom("a0")))), budget=30)
    assert tr.steps[-1] == Process(c_b, Bottom("a0"))


def test_t_leq_gate_rewards_the_recorded_replay():
    reg = full_registry()
    m = Machine(reg)
    c_a = parse_term("c_a", reg)
    run(m, Process(build_t_leq(reg), Push(c_a, Bottom("a0"))), budget=30)
    gate = leq_round_gate(reg, c_a, 0)
    opener = leq_round_opener(reg, c_a, 0)
    tr = run(m, Process(gate, Push(numeral(3), Push(opener, Bottom("a0")))), budget=30)
    assert tr.steps[-1] == Process(IDENT, Bottom("a0"))
    assert "Eq" in tr.rules and "EqNat" in tr.rules


def test_t_leq_codes_are_per_machine():
    # a second machine quotes the same stack back to code 0 even after the
    # first machine has coded several stacks
    reg = full_registry()
    m1 = Machine(reg)
    c_a = parse_term("c_a", reg)
    run(m1, Process(build_t_leq(reg), Push(c_a, Bottom("a2"))), budget=30)
    m2 = Machine(reg)
    tr = run(m2, Process(build_t_leq(reg), Push(c_a, Bottom("a0"))), budget=30)
    gate = leq_round_gate(reg, c_a, 0)
    assert tr.steps[-1].stack.rest.top == gate


### the halting realizer

def test_t_H_opening_move():
    reg = full_registry()
    m = Machine(reg)
    c_a = parse_term("c_a", reg)
    t_H = build_t_H(reg)
    assert is_proof_like(t_H)
    trace = run(m, Process(t_H, Push(numeral(IDX_LOOP), Push(c_a, Bottom("a0")))),
                budget=50)
    last = trace.steps[-1]
    assert last.term == c_a
    assert last.stack.top == numeral(0)
    resumer = last.stack.rest.top
    assert last.stack.rest.rest == Bottom("a0")
    # the handed-out handler carries the opening stack inside a continuation
    assert resumer.flags & HAS_STACKNAME


def test_t_H_yields_when_the_machine_never_halts():
    reg = full_registry()
    m = Machine(reg)
    c_a, c_b = parse_term("c_a", reg), parse_term("c_b", reg)
    t_H = build_t_H(reg)
    tr = run(m, Process(t_H, Push(numeral(IDX_LOOP), Push(c_a, Bottom("a0")))),
             budget=50)
    resumer = tr.steps[-1].stack.rest.top
    tr2 = run(m, Process(resumer, Push(numeral(7), Push(c_b, Bottom("a1")))),
              budget=50)
    assert tr2.steps[-1] == Process(c_b, Bottom("a1"))
    assert "Restore" not in tr2.rules


def test_t_H_rewinds_when_the_machine_halts_within_p():
    reg = full_registry()
    m = Machine(reg)
    c_a, c_b = parse_term("c_a", reg), parse_term("c_b", reg)
    t_H = build_t_H(reg)
    tr = run(m, Process(t_H, Push(numeral(IDX_HALT3), Push(c_a, Bottom("a0")))),
             budget=50)
    resumer = tr.steps[-1].stack.rest.top
    tr2 = run(m, Process(resumer, Push(numeral(5), Push(c_b, Bottom("a1")))),
              budget=50)
    last = tr2.steps[-1]
    assert "Restore" in tr2.rules
    assert last.term == c_a
    assert last.stack.top == numeral(5)
    assert decode_numeral(last.stack.rest.top) is None  # the yielder, not a number
    assert last.stack.rest.rest == Bottom("a0")


def test_t_H_boundary_is_the_simulator_boundary():
    # p=3: not halted strictly before 3 steps, so no rewind; p=4: rewind
    reg = full_registry()
    m = Machine(reg)
    c_a, c_b = parse_term("c_a", reg), parse_term("c_b", reg)
    t_H = build_t_H(reg)
    tr = run(m, Process(t_H, Push(numeral(IDX_HALT3), Push(c_a, Bottom("a0")))),
             budget=50)
    resumer = tr.steps[-1].stack.rest.top
    for p, rewinds in ((3, False), (4, True)):
        tr2 = run(m, Process(resumer, Push(numeral(p), Push(c_b, Bottom("a1")))),
                  budget=50)
        assert ("Restore" in tr2.rules) is rewinds


### the universal strategy

def test_build_t_phi_refuses_degenerate_formulae():
    reg = cc_registry()
    flat = ArithFormula("flat", 0, 0, PrimRecFn("always", 0, dsl="zero"))
    with pytest.raises(LamcError):
        build_t_phi(reg, flat)
    with pytest.raises(LamcError):
        build_t_phi(reg, builtin_formulae()["halt"])


def test_build_t_phi_is_idempotent():
    reg = cc_registry()
    phi = builtin_formulae()["leq"]
    t1 = build_t_phi(reg, phi)
    t2 = build_t_phi(reg, phi)
    assert t1 == t2 == Const("t_phi_leq")


def test_t_phi_opening_matches_template():
    reg = cc_registry()
    m = Machine(reg)
    phi = builtin_formulae()["leq"]
    t_phi = build_t_phi(reg, phi)
    c_a = parse_term("c_a", reg)
    trace = run(m, Process(t_phi, Push(c_a, Bottom("a0"))), budget=10)
    root = encode_history_entry((), (), c_a, Cont(Bottom("a0")))
    expected_t1 = App(App(App(Const("T1_leq"), encode_nat_tuple((0,))),
                          encode_nat_tuple(())), encode_list([root]))
    assert trace.steps[-1] == Process(
        c_a, Push(numeral(0), Push(expected_t1, Bottom("a0"))))


def test_t_phi_leq_wins_against_any_answer():
    reg = cc_registry()
    m = Machine(reg)
    t_phi = build_t_phi(reg, builtin_formulae()["leq"])
    c_a, c_b = parse_term("c_a", reg), parse_term("c_b", reg)
    tr = run(m, Process(t_phi, Push(c_a, Bottom("a0"))), budget=10)
    handler = tr.steps[-1].stack.rest.top
    for n in (0, 4, 25):
        tr2 = run(m, Process(handler, Push(numeral(n), Push(c_b, Bottom("a1")))),
                  budget=60)
        assert tr2.steps[-1] == Process(c_b, Bottom("a1"))


def _drive(machine, process, answer, budget=2000):
    """Run to the next surrendered configuration u * m.t.pi, then feed the
    handler Abelard's numeral answer with a fresh handle."""
    trace = run(machine, process, budget=budget)
    last = trace.steps[-1]
    assert isinstance(last.stack, Push) and isinstance(last.stack.rest, Push)
    move = decode_numeral(last.stack.top)
    handler = last.stack.rest.top
    return trace, last.term, move, handler


def test_t_phi_phi4_enumerates_and_resumes():
    reg = MachineConfig(inert_consts=("c_a", "c_b")).build()
    m = Machine(reg)
    t_phi = build_t_phi(reg, builtin_formulae()["phi4"])
    c_a, c_b = parse_term("c_a", reg), parse_term("c_b", reg)

    expected = [
        (c_a, 0),   # tuple (0,0), round 1 from the root
        (c_b, 0),   # tuple (0,0), round 2
        (c_a, 1),   # tuple (1,0): resume from the root
        (c_b, 0),   # tuple (1,0), round 2
        (c_b, 1),   # tuple (0,1): resume from recorded depth-1 position
        (c_a, 2),   # tuple (2,0): resume from the root
        (c_b, 0),   # tuple (2,0), round 2
    ]
    p = Process(t_phi, Push(c_a, Bottom("a0")))
    for want_head, want_move in expected:
        trace, head, move, handler = _drive(m, p, 2)
        assert (head, move) == (want_head, want_move)
        p = Process(handler, Push(numeral(2), Push(c_b, Bottom("a1"))))
    # Abelard answered 2 everywhere, so tuple (2,0) has f(2,0,2,2) = 0:
    # the machine surrenders the round-2 handle's own stack, a win shape
    final = run(m, p, budget=2000)
    assert final.steps[-1] == Process(c_b, Bottom("a1"))


def test_t_phi_history_stays_functional_while_driven():
    reg = MachineConfig(inert_consts=("c_a", "c_b")).build()
    m = Machine(reg)
    t_phi = build_t_phi(reg, builtin_formulae()["phi4"])
    c_a, c_b = parse_term("c_a", reg), parse_term("c_b", reg)
    p = Process(t_phi, Push(c_a, Bottom("a0")))
    firings = 0
    for _ in range(7):
        trace = run(m, p, budget=2000)
        for step in trace.steps:
            if isinstance(step.term, Const) and step.term.name.startswith("T"):
                items = []
                s = step.stack
                while isinstance(s, Push) and len(items) < 3:
                    items.append(s.top)
                    s = s.rest
                if len(items) == 3:
                    cells = decode_history(items[2])
                    if cells is not None:
                        firings += 1
                        firsts = [c.ms for c in cells]
                        assert len(firsts) == len(set(firsts))
        last = trace.steps[-1]
        p = Process(last.stack.rest.top,
                    Push(numeral(2), Push(c_b, Bottom("a1"))))
    assert firings >= 6


def test_t_phi_sticks_on_malformed_answer():
    reg = cc_registry()
    m = Machine(reg)
    t_phi = build_t_phi(reg, builtin_formulae()["leq"])
    c_a = parse_term("c_a", reg)
    tr = run(m, Process(t_phi, Push(c_a, Bottom("a0"))), budget=10)
    handler = tr.steps[-1].stack.rest.top
    # answer that is not a literal numeral
    bad = App(IDENT, numeral(2))
    tr2 = run(m, Process(handler, Push(bad, Push(c_a, Bottom("a1")))), budget=60)
    assert tr2.terminal.kind == "stuck"
    assert isinstance(tr2.steps[-1].term, Const)


### the machine's tables of what t_phi's rules built

class NeverRecords(Machine):
    """A machine whose rules find nothing recorded: every tuple and history
    is encoded afresh and decoded in full."""

    def record(self, node, value):
        return node

    def nat_tuple_term(self, tup):
        return encode_nat_tuple(tup)


def table_size(machine):
    return len(machine._values)


T_PHI_FAMILIES = ("t_phi_", "T1_", "T2_", "N_", "L_", "next", "Theta_")


def _replies_repeat_a_handle(seed, replies=12):
    """Whether RandomAbelard(seed) hands out the root handle or one handle
    twice among its first replies; its draws do not depend on the play."""
    reg = full_registry()
    handle = fresh_handle(reg)
    adversary = RandomAbelard(reg, seed=seed, max_replies=replies)
    seen = {handle}
    for _ in range(replies):
        _, u, pi = adversary(None)
        if (u, pi) in seen:
            return True
        seen.add((u, pi))
    return False


# seeds 0-11 hold both kinds; 1226 and 736660294 reuse a handle and t_phi_phi4
# loses on them
TABLE_SEEDS = [*range(12), 1226, 736660294]


def test_table_seeds_hold_screened_and_unscreened_adversaries():
    repeats = [_replies_repeat_a_handle(seed) for seed in TABLE_SEEDS]
    assert any(repeats) and not all(repeats[:12])
    assert repeats[-2:] == [True, True]


# a third round, so that turns and lookups run at every depth up to 2
THREE = ArithFormula("three", 0, 3, PrimRecFn(
    "three_fn", 6, native=lambda x1, x2, x3, y1, y2, y3: 0 if x3 >= y1 else 1))


@pytest.mark.parametrize("play", [play_g1, play_g2])
@pytest.mark.parametrize("phi", [PHI4, FORMULAE["leq"], THREE],
                         ids=lambda phi: phi.name)
def test_tables_change_no_match(monkeypatch, play, phi):
    def match(machine_class, seed):
        monkeypatch.setattr(lamc.game, "Machine", machine_class)
        reg = full_registry()
        out = play(reg, build_t_phi(reg, phi), phi, fresh_handle(reg),
                   RandomAbelard(reg, seed, max_move=2, max_replies=30)
                   if phi is THREE else RandomAbelard(reg, seed))
        return out.to_json(), out.witness_ref

    for seed in TABLE_SEEDS:
        assert match(Machine, seed) == match(NeverRecords, seed), seed


@pytest.mark.parametrize("play", [play_g1, play_g2])
def test_tables_grow_only_with_t_phi_steps(monkeypatch, play):
    """A t_phi step records the few tuples and the history node it builds
    (the opening step three, a turn at most three: its prefix of the tuple,
    the numbers answered and the new history); no other step records."""
    machines = []

    class Counting(Machine):
        def __init__(self, registry):
            super().__init__(registry)
            self.t_phi_steps = 0
            machines.append(self)

        def step_labeled(self, p):
            before = (table_size(self), len(self._tuple_terms))
            out, label = super().step_labeled(p)
            grown = table_size(self) - before[0]
            assert len(self._tuple_terms) - before[1] <= grown
            if label is not None and label.startswith(T_PHI_FAMILIES):
                self.t_phi_steps += 1
                assert grown <= 3, label
            else:
                assert grown == 0, label
            return out, label

    monkeypatch.setattr(lamc.game, "Machine", Counting)
    for seed in TABLE_SEEDS:
        reg = full_registry()
        out = play(reg, resolve_realizer(reg, "t_phi_phi4", FORMULAE), PHI4,
                   fresh_handle(reg), RandomAbelard(reg, seed))
        machine = machines[-1]
        assert out.moves and machine.t_phi_steps > 0
        assert table_size(machine) <= 3 * machine.t_phi_steps
        # every tuple is built once per match
        assert len(machine._tuple_terms) == sum(
            type(value) is tuple for _, value in machine._values.values())


def test_foreign_tuples_decode_as_before_and_are_not_recorded():
    reg = full_registry()
    m = Machine(reg)
    recorded = m.nat_tuple_term((1, 2))
    assert m.nat_tuple(recorded) == (1, 2)
    size = table_size(m)
    foreign = [
        encode_nat_tuple((1, 2)),
        encode_nat_tuple(()),
        parse_term(r"(\x y f. f x y) #1 ((\x y f. f x y) #2 (\x f. x))", reg),
        parse_term(r"(\x y f. f x y) #1 (\x. x)", reg),
        numeral(3),
        IDENT,
    ]
    for t in foreign:
        assert m.nat_tuple(t) == decode_nat_tuple(t)
    assert foreign[0] == recorded and foreign[0] is not recorded
    assert table_size(m) == size and len(m._tuple_terms) == 1


def test_parsed_text_plays_as_the_recorded_terms_it_prints(monkeypatch):
    """Drive t_phi_phi4 as in the enumeration test on two machines: one
    runs the terms its rules built, the other each stage's process printed
    and parsed back, so every tuple and history it meets is foreign. The
    runs agree; only the second decodes a history."""
    decoded = Counter()

    def counted(t, _original=decode_history):
        decoded["history"] += 1
        return _original(t)

    monkeypatch.setattr(lamc.realizers, "decode_history", counted)
    reg = MachineConfig(inert_consts=("c_a", "c_b")).build()
    t_phi = build_t_phi(reg, PHI4)
    ours, theirs = Machine(reg), Machine(reg)
    c_a, c_b = parse_term("c_a", reg), parse_term("c_b", reg)
    p = Process(t_phi, Push(c_a, Bottom("a0")))
    lookups = 0
    for stage in range(7):
        q = parse_process(process_to_text(p), reg)
        assert q == p
        decoded.clear()
        mine = run(ours, p, budget=2000)
        assert decoded["history"] == 0
        other = run(theirs, q, budget=2000)
        assert (other.steps, other.rules, other.terminal) == (
            mine.steps, mine.rules, mine.terminal)
        if "L_phi4" in mine.rules:
            lookups += 1
            assert decoded["history"] > 0, stage
        handler = mine.steps[-1].stack.rest.top
        history = handler.arg
        assert ours.recorded(history) is not None
        assert ours.nat_tuple(history) is None is decode_nat_tuple(history)
        p = Process(handler, Push(numeral(2), Push(c_b, Bottom("a1"))))
    assert lookups >= 3


### catalog

def test_catalog_and_resolution():
    reg = full_registry()
    catalog = realizer_catalog()
    assert {"ident", "play_zero", "t_leq", "t_halt", "t_phi_leq",
            "t_phi_phi4", "storage"} <= set(catalog)
    assert "t_phi_halt" not in catalog  # leading universal block
    for name in ("ident", "play_zero", "t_leq", "t_halt", "t_phi_leq"):
        term = resolve_realizer(reg, name)
        assert is_proof_like(term)
    with pytest.raises(LamcError):
        resolve_realizer(reg, "nonsense")


def test_resolve_realizer_through_formula_table():
    reg = cc_registry()
    from lamc.formula import load_formula_registry
    table = load_formula_registry({
        "always": {"rounds": 1, "fn": {"dsl": "zero", "arity": 2}}})
    term = resolve_realizer(reg, "t_phi_always", formula_table=table)
    assert term == Const("t_phi_always")
