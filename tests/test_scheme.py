"""Play-tree extraction tests: tree invariants, goldens, replay, cross-checks."""

import dataclasses
import json
import random

import pytest

import subst_reference as ref
from lamc.formula import builtin_formulae
from lamc.game import FreshConstantAbelard, fresh_handle, play_g1
from lamc.machine import Machine, MachineConfig
from lamc.scheme import (
    SchemeFailure,
    ThreadScheme,
    build_scripted_realizer,
    extract_scheme,
    path_substitution,
    replay_with_substitution,
    substitute_along,
    verify_replay,
)
from lamc.syntax import (
    App,
    Bottom,
    Const,
    LamcError,
    Push,
    collect_constants,
    collect_stack_constants,
    decode_numeral,
    numeral,
    parse_term,
    process_to_text,
    random_closed_term,
    random_stack,
    subst_var,
)

FORMULAE = builtin_formulae()
LEQ = FORMULAE["leq"]
PHI4 = FORMULAE["phi4"]
HALT = FORMULAE["halt"]

FIG_PARENTS = [0, 0, 2, 2, 0, 1]
FIG_MS = [1, 2, 3, 4, 5, 6]
FIG_SUCCESS = 4
FIG_ANSWERS = [0, 2, 0, 0, 0, 0]


def figure_scheme():
    reg = MachineConfig().build()
    mock = build_scripted_realizer(FIG_PARENTS, FIG_MS, FIG_SUCCESS, reg)
    res = extract_scheme(mock, FIG_ANSWERS, PHI4, registry=reg)
    assert res.ok
    return reg, res


### extraction: the one-round toy

def test_extract_one_round_toy():
    reg = MachineConfig().build()
    t0 = parse_term("\\u. u #0 (\\n v. v)", reg)
    res = extract_scheme(t0, [4], LEQ, registry=reg)
    assert res.ok
    assert res.shape() == [((), None, None, None), ((0,), 0, 4, 0)]
    assert res.final_line == 1
    assert res.success_index == 1
    assert len(res.lines) == 2
    # the recorded handler is the continuation the toy pushed
    assert res.nodes[1].term == parse_term("\\n v. v", reg)


def test_extract_identity_finishes_at_the_wrong_depth():
    reg = MachineConfig().build()
    res = extract_scheme(parse_term("\\x. x", reg), [], LEQ, registry=reg)
    assert not res.ok
    assert res.kind == "stuck"
    assert "depth 0" in res.detail


def test_extract_failure_modes():
    reg = MachineConfig().build()
    t0 = parse_term("\\u. u #0 (\\n v. v)", reg)
    out = extract_scheme(t0, [4], LEQ, budget=2, registry=reg)
    assert not out.ok and out.kind == "budget"

    reg = MachineConfig().build()
    out = extract_scheme(parse_term("\\u. u #0 (\\n v. v)", reg), [], LEQ,
                         registry=reg)
    assert not out.ok and out.kind == "budget"
    assert "answer" in out.detail

    reg = MachineConfig().build()
    looper = parse_term("(\\x. x x) (\\x. x x)", reg)
    out = extract_scheme(looper, [], LEQ, registry=reg)
    assert not out.ok and out.kind == "stuck"
    assert "loop" in out.detail

    reg = MachineConfig().build()
    stuck = parse_term("\\x. x x", reg)  # reaches kappa0 * kappa0 . alpha0
    out = extract_scheme(stuck, [], LEQ, registry=reg)
    assert not out.ok and out.kind == "stuck"


def test_a_play_over_another_bottom_is_not_an_interaction():
    # the second play reuses kappa0 over alpha1, the bottom of the line it
    # runs in: no exchange shape, so the run is stuck on the inert kappa0
    reg = MachineConfig().build()
    t0 = parse_term("\\k0. k0 #0 (\\n1 k1. k0 #1 (\\n2 k2. k2))", reg)
    out = extract_scheme(t0, [4, 4], LEQ, registry=reg)
    assert not out.ok and out.kind == "stuck"
    assert out.detail.startswith("no continuation at kappa0 * #1 . ")
    assert out.detail.endswith(" . alpha1")


def test_extract_input_validation():
    quoted = MachineConfig(quote=True).build()
    toy = parse_term("\\u. u #0 (\\n v. v)", quoted)
    with pytest.raises(LamcError):
        extract_scheme(toy, [0], LEQ, registry=quoted)
    reg = MachineConfig().build()
    with pytest.raises(LamcError):  # open subject
        extract_scheme(parse_term("\\x. y", reg, free_vars=("y",)), [0], LEQ,
                       registry=reg)
    with pytest.raises(LamcError):  # leading block unsupported
        extract_scheme(parse_term("\\x. x", reg), [0], HALT, registry=reg)


### extraction: the seven-line figure

def test_figure_scheme_shape():
    _, res = figure_scheme()
    assert [n.path for n in res.nodes[1:]] == [
        (0,), (1,), (1, 0), (1, 1), (2,), (0, 0)]
    assert [n.m for n in res.nodes[1:]] == FIG_MS
    assert [n.n for n in res.nodes[1:]] == FIG_ANSWERS
    assert [n.parent for n in res.nodes[1:]] == FIG_PARENTS
    assert res.final_line == 6
    assert res.success_index == 4
    assert len(res.lines) == 7
    ref.check_play_tree(res.nodes)


def test_figure_scheme_success_values():
    _, res = figure_scheme()
    ms, ns = res.values_along((1, 1))
    assert (ms, ns) == ((2, 4), (2, 0))
    assert PHI4.f_value((), ms, ns) == 0
    with pytest.raises(LamcError):
        res.values_along((3,))


def test_figure_scheme_parent_links_hold():
    _, res = figure_scheme()
    for node in res.nodes[1:]:
        assert node.path[:-1] == res.nodes[node.parent].path
        assert len(node.path) == len(res.nodes[node.parent].path) + 1


def test_figure_scheme_constants_hygiene():
    # a handler recorded at node i was written before constants i, i+1, ...
    # existed, so it can only mention earlier ones
    _, res = figure_scheme()
    for i, node in enumerate(res.nodes):
        consts = collect_constants(node.term) | collect_stack_constants(node.term)
        for name in consts:
            if name.startswith(("kappa", "alpha")):
                assert int(name.removeprefix("kappa").removeprefix("alpha")) < i


def test_figure_scheme_line_starts_and_ends():
    _, res = figure_scheme()
    # line 0 starts on the subject; every later line resumes the recorded
    # handler with the scripted answer and newly minted constants
    for i in range(1, len(res.lines)):
        start = res.lines[i].start
        assert start.term == res.nodes[i].term
        assert decode_numeral(start.stack.top) == res.nodes[i].n
    # each line ends on the parent constant playing the next value
    for i in range(len(res.lines) - 1):
        end = res.lines[i].end
        kname, aname = res.constant_names(res.nodes[i + 1].parent)
        assert end.term == Const(kname)
        assert decode_numeral(end.stack.top) == res.nodes[i + 1].m
        assert end.stack.rest.rest == Bottom(aname)
    # the last line ends bare on the finishing constant's bottom
    kname, aname = res.constant_names(res.success_index)
    assert res.lines[-1].end.term == Const(kname)
    assert res.lines[-1].end.stack == Bottom(aname)


def test_nonzero_payoff_at_full_depth_is_terminal():
    reg = MachineConfig().build()
    mock = build_scripted_realizer(FIG_PARENTS, FIG_MS, FIG_SUCCESS, reg)
    res = extract_scheme(mock, [9] * 6, PHI4, registry=reg)
    assert not res.ok
    assert res.kind == "stuck"
    assert "payoff is 1" in res.detail


def test_wrong_depth_success_is_terminal():
    reg = MachineConfig().build()
    mock = build_scripted_realizer(FIG_PARENTS, FIG_MS, 1, reg)
    res = extract_scheme(mock, FIG_ANSWERS, PHI4, registry=reg)
    assert not res.ok
    assert "depth 1" in res.detail


def test_extraction_is_deterministic():
    _, first = figure_scheme()
    _, second = figure_scheme()
    assert first.shape() == second.shape()
    assert [n.term for n in first.nodes] == [n.term for n in second.nodes]
    assert first.final_line == second.final_line
    assert first.success_index == second.success_index
    # reusing one registry changes the minted names but not the shape
    reg = MachineConfig().build()
    mock = build_scripted_realizer(FIG_PARENTS, FIG_MS, FIG_SUCCESS, reg)
    a = extract_scheme(mock, FIG_ANSWERS, PHI4, registry=reg)
    b = extract_scheme(mock, FIG_ANSWERS, PHI4, registry=reg)
    assert a.ok and b.ok
    assert a.shape() == b.shape()


### the game cross-check

def test_fresh_constant_match_visits_the_scheme_sequence():
    reg = MachineConfig().build()
    mock = build_scripted_realizer(FIG_PARENTS, FIG_MS, FIG_SUCCESS, reg)
    res = extract_scheme(mock, FIG_ANSWERS, PHI4, registry=reg)
    assert res.ok

    reg2 = MachineConfig().build()
    mock2 = build_scripted_realizer(FIG_PARENTS, FIG_MS, FIG_SUCCESS, reg2)
    handle = fresh_handle(reg2)
    out = play_g1(reg2, mock2, PHI4, handle,
                  FreshConstantAbelard(reg2, FIG_ANSWERS))
    assert out.eloise_won
    assert [(mv.m, mv.n) for mv in out.moves] == \
        [(n.m, n.n) for n in res.nodes[1:]]
    won = out.history.entries[out.witness_entry]
    assert (won.ms, won.ns) == res.values_along((1, 1))


def test_one_round_toy_wins_the_game_too():
    reg = MachineConfig().build()
    t0 = parse_term("\\u. u #0 (\\n v. v)", reg)
    out = play_g1(reg, t0, LEQ, fresh_handle(reg),
                  FreshConstantAbelard(reg, [4]))
    assert out.eloise_won
    assert [(mv.m, mv.n) for mv in out.moves] == [(0, 4)]


### substitution along a path

def test_path_substitution_domain():
    _, res = figure_scheme()
    assert path_substitution(res, ()) == {}
    sub = path_substitution(res, (1, 1))
    assert sub == {"x1": 2, "y1": 2, "x2": 4, "y2": 0}
    assert len(sub) == 2 * 2
    assert path_substitution(res, (0, 0)) == {"x1": 1, "y1": 0,
                                              "x2": 6, "y2": 0}


def test_substitute_along_rewrites_placeholders():
    reg, res = figure_scheme()
    subject = parse_term("\\f. f x1 y1 x2 y2", reg,
                         free_vars=("x1", "y1", "x2", "y2"))
    got = substitute_along(res, (1, 1), subject)
    want = parse_term("\\f. f #2 #2 #4 #0", reg)
    assert got == want
    assert substitute_along(res, (), subject) == subject
    with pytest.raises(LamcError):
        substitute_along(res, (5, 5), subject)


### substitution replay

def test_replay_identity_reproduces_the_lines():
    _, res = figure_scheme()
    predicted = replay_with_substitution(res, {})
    assert [(s, e) for s, e in predicted] == \
        [(l.start, l.end) for l in res.lines]


def test_replay_rejects_open_replacements():
    reg, res = figure_scheme()
    open_term = parse_term("\\x. y", reg, free_vars=("y",))
    with pytest.raises(LamcError):
        replay_with_substitution(res, {0: (open_term, Bottom("alpha0"))})


def test_replay_rejects_an_open_replacement_stack():
    reg, res = figure_scheme()
    open_stack = Push(parse_term("\\x. y", reg, free_vars=("y",)), Bottom("a0"))
    with pytest.raises(LamcError, match="substituting an open stack for a stack constant"):
        replay_with_substitution(res, {0: (Const("c_a"), Bottom("a0")),
                                       1: (numeral(1), open_stack)})


def schemes():
    """The seven-line figure, the one-round toy and ten seeded scripted trees
    that extract, each with its registry."""
    out = [figure_scheme()]
    reg = MachineConfig().build()
    toy = parse_term("\\u. u #0 (\\n v. v)", reg)
    out.append((reg, extract_scheme(toy, [4], LEQ, registry=reg)))
    rng = random.Random(5)
    while len(out) < 12:
        k = rng.randint(1, 6)
        parents = [0] + [rng.randrange(i + 1) for i in range(1, k)]
        reg = MachineConfig().build()
        mock = build_scripted_realizer(parents, [rng.randrange(4) for _ in parents],
                                       rng.randint(0, k), reg)
        res = extract_scheme(mock, [rng.randrange(4) for _ in parents], LEQ,
                             registry=reg)
        if res.ok:
            out.append((reg, res))
    return out


def test_replay_agrees_with_the_sequential_reference():
    # replacements are drawn from the scheme's own registry, so their terms
    # and stacks mention other interaction constants and bottoms: constant j
    # is rewritten by every later replacement and by no earlier one
    for i, (reg, res) in enumerate(schemes()):
        rng = random.Random(i)
        count = len(res.lines)
        for _ in range(50):
            chosen = rng.sample(range(count), rng.randint(1, count))
            replacements = {j: (random_closed_term(rng, reg, allow_cont=True),
                                random_stack(rng, reg)) for j in chosen}
            got = replay_with_substitution(res, replacements)
            want = ref.replay_with_substitution(res, replacements)
            assert got == want
            assert [(process_to_text(a), process_to_text(b)) for a, b in got] == \
                [(process_to_text(a), process_to_text(b)) for a, b in want]


def test_schemes_keep_the_play_tree_invariant():
    for _, res in schemes():
        ref.check_play_tree(res.nodes)


def test_play_tree_check_rejects_bad_trees():
    _, res = figure_scheme()
    nodes = res.nodes
    skipped = list(nodes)               # (1,) recorded as (2,): skips slot 1
    skipped[2] = dataclasses.replace(nodes[2], path=(2,))
    repeated = list(nodes)              # (1,) recorded as (0,): reuses slot 0
    repeated[2] = dataclasses.replace(nodes[2], path=(0,))
    late = list(nodes)                  # node 1 hung under a later node
    late[1] = dataclasses.replace(nodes[1], parent=2, path=(1, 0))
    for bad in (skipped, repeated, late):
        with pytest.raises(AssertionError):
            ref.check_play_tree(bad)


def test_recorded_handles_are_the_pairs_each_line_starts_on():
    for _, res in schemes():
        assert len(res.handles) == len(res.lines)
        for j in range(len(res.lines)):
            assert res.constant_names(j) == ref.line_start_names(res, j)


def test_replay_rejects_an_interaction_past_the_scheme():
    _, res = figure_scheme()
    with pytest.raises(LamcError, match="no interaction 7 in the scheme"):
        replay_with_substitution(res, {7: (Const("c_a"), Bottom("a0"))})


@pytest.mark.parametrize("trial", range(8))
def test_replay_with_random_replacements(trial):
    base = MachineConfig(inert_consts=("c_a", "c_b")).build()
    _, res = figure_scheme()
    rng = random.Random(trial)
    indices = rng.sample(range(7), rng.randint(1, 4))
    replacements = {
        j: (random_closed_term(rng, base), random_stack(rng, base))
        for j in indices
    }
    assert verify_replay(base, res, replacements)


def test_replay_two_choices_agree_step_for_step():
    # replacing the same constant by two different closed terms yields runs of
    # identical length and rule sequence down each recorded line
    base = MachineConfig(inert_consts=("c_a", "c_b")).build()
    _, res = figure_scheme()
    machine = Machine(base)
    for repl in (Const("c_a"), parse_term("\\x. \\y. x", base)):
        predicted = replay_with_substitution(
            res, {0: (repl, Push(Const("c_b"), Bottom("b0")))})
        for (start, end), line in zip(predicted, res.lines):
            p = start
            rules = []
            for _ in range(len(line.steps) - 1):
                p, rule = machine.step_labeled(p)
                rules.append(rule)
            assert p == end
            # the rewritten run replays the recorded rules one for one
            original_rules = []
            q = line.start
            for _ in range(len(line.steps) - 1):
                q, rule = machine.step_labeled(q)
                original_rules.append(rule)
            assert rules == original_rules


### the scripted builder

def test_scripted_builder_validation():
    reg = MachineConfig().build()
    with pytest.raises(LamcError):
        build_scripted_realizer([1], [5], 0, reg)  # first play not at root
    with pytest.raises(LamcError):
        build_scripted_realizer([0, 0], [5], 0, reg)  # length mismatch
    with pytest.raises(LamcError):
        build_scripted_realizer([0], [5], 9, reg)  # no such interaction


def test_scripted_builder_empty_finishes_at_root():
    reg = MachineConfig().build()
    t0 = build_scripted_realizer([], [], 0, reg)
    res = extract_scheme(t0, [], LEQ, registry=reg)
    assert not res.ok
    assert "depth 0" in res.detail


### serialization

def test_scheme_json_and_renderings():
    _, res = figure_scheme()
    blob = json.dumps(res.to_json())
    data = json.loads(blob)
    assert data["final"] == {"f": 6, "s": 4}
    assert len(data["nodes"]) == 7
    assert data["nodes"][4]["path"] == [1, 1]
    assert data["nodes"][4]["parent"] == 2
    text = res.render_text()
    assert len(text.splitlines()) == 7
    assert "finish on 4" in text
    dot = res.render_dot()
    assert dot.startswith("digraph") and "n2 -> n4" in dot