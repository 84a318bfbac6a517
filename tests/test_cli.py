"""Front-end tests: exit codes, worked examples, JSON determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from lamc.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
WILD = str(FIXTURES / "wild.json")
HALT_LOOP = str(FIXTURES / "halt_loop.json")
HALT3 = str(FIXTURES / "halt_halt3.json")
EXTRA = str(FIXTURES / "extra_formulae.json")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


### eval

def test_eval_reports_a_cycle(capsys):
    rc, out, _ = run_cli(capsys, "eval",
                         r"(\x.x) * ((\x. x x) (\x. x x)) . a0",
                         "--steps", "10")
    assert rc == 0
    assert "cycle(entry=1, period=2)" in out


def test_eval_prints_the_configuration_that_closes_the_cycle(capsys):
    """The repeat at step 2 equals step 0 up to binder hints; the line shows
    step 2's own hints, at the default budget and at exactly 2 steps."""
    for budget in ((), ("--steps", "2")):
        rc, out, _ = run_cli(capsys, "eval", r"(\x. x x) (\y. y y) * a0",
                             *budget)
        assert rc == 0
        assert out == ("after 2 steps: ((\\y. y y) (\\y. y y)) * a0\n"
                       "terminal: cycle(entry=0, period=2)\n")
    rc, out, _ = run_cli(capsys, "eval", r"(\x. x x) (\y. y y) * a0",
                         "--steps", "1")
    assert rc == 0
    assert out.endswith("terminal: budget\n")


def test_eval_trace_of_a_two_step_stuck_run(capsys):
    rc, out, _ = run_cli(capsys, "eval", r"(\x.x) (\x.x) * a0", "--trace")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-2] == r"step 2: (\x. x) * a0"
    assert lines[-1] == "terminal: stuck"
    assert len(lines) == 4


def test_eval_control_grabs_the_stack_in_one_step(capsys):
    rc, out, _ = run_cli(capsys, "eval", r"cc * (\x.x) . a0", "--trace")
    assert rc == 0
    assert r"step 1: (\x. x) * k[a0] . a0" in out


def test_eval_parse_error_names_the_position(capsys):
    rc, _, err = run_cli(capsys, "eval", r"(\x. * a0")
    assert rc == 2
    assert "column" in err


def test_eval_budget_can_come_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("LAMC_STEPS", "1")
    rc, out, _ = run_cli(capsys, "eval",
                         r"(\x.x) * ((\x. x x) (\x. x x)) . a0")
    assert rc == 0
    assert "terminal: budget" in out
    monkeypatch.setenv("LAMC_STEPS", "zero")
    rc, _, err = run_cli(capsys, "eval", r"(\x.x) * a0")
    assert rc == 2
    assert "LAMC_STEPS" in err


def test_eval_json_is_deterministic(capsys):
    args = ("eval", r"(\x.x) * ((\x. x x) (\x. x x)) . a0",
            "--steps", "10", "--json")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["terminal"] == {"kind": "cycle", "entry": 1, "period": 2}
    assert payload["rules"][1:3] == ["Grab", "Push"]


### match

def test_match_wild_script_beats_the_single_thread_game(capsys):
    rc, out, _ = run_cli(capsys, "match", "--game", "g1",
                         "--realizer", "t_leq", "--formula", "leq",
                         "--abelard", WILD)
    assert rc == 1
    assert "verdict: AbelardWin" in out


def test_match_wild_script_loses_the_keep_everything_game(capsys):
    rc, out, _ = run_cli(capsys, "match", "--game", "g2",
                         "--realizer", "t_leq", "--formula", "leq",
                         "--abelard", WILD)
    assert rc == 0
    assert "verdict: EloiseWin" in out


def test_match_universal_strategy_beats_a_seeded_random_adversary(capsys):
    rc, out, _ = run_cli(capsys, "match", "--game", "g1",
                         "--realizer", "t_phi_leq", "--formula", "leq",
                         "--abelard", "random", "--seed", "7")
    assert rc == 0
    assert "verdict: EloiseWin" in out


def test_match_halting_fixtures(capsys):
    rc, out, _ = run_cli(capsys, "match", "--game", "g1",
                         "--realizer", "t_halt", "--formula", "halt",
                         "--abelard", HALT_LOOP)
    assert rc == 0
    assert "move 0: entry 0 + (m=0, n=7)" in out
    rc, out, _ = run_cli(capsys, "match", "--game", "g1",
                         "--realizer", "t_halt", "--formula", "halt",
                         "--abelard", HALT3)
    assert rc == 0
    assert "move 0: entry 0 + (m=0, n=5)" in out
    assert "move 1: entry 0 + (m=5, n=9)" in out


def test_match_fresh_adversary_with_answers(capsys):
    rc, out, _ = run_cli(capsys, "match", "--game", "g1",
                         "--realizer", "t_phi_phi4", "--formula", "phi4",
                         "--abelard", "fresh", "--answers", "0,2,0,0,0,0")
    assert rc == 0
    assert "verdict: EloiseWin" in out


def test_match_numbers_only_game(capsys):
    rc, out, _ = run_cli(capsys, "match", "--game", "g0",
                         "--formula", "phi4", "--bound", "2")
    assert rc == 0
    assert "verdict: EloiseWin" in out
    rc, out, _ = run_cli(capsys, "match", "--game", "g0",
                         "--formula", "never", "--formula-file", EXTRA,
                         "--bound", "1")
    assert rc == 1
    assert "verdict: AbelardWin" in out


def test_match_interactive_adversary_retries_bad_input(capsys, monkeypatch):
    feed = iter(["not a reply at all", "2, c_a, a1"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    rc, out, _ = run_cli(capsys, "match", "--game", "g1",
                         "--realizer", "t_phi_leq", "--formula", "leq",
                         "--abelard", "interactive")
    assert rc == 0
    assert "could not read that reply" in out
    assert "verdict: EloiseWin" in out


def test_match_config_errors(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "match", "--game", "g1",
                         "--realizer", "no_such", "--formula", "leq",
                         "--abelard", "random")
    assert rc == 2 and "unknown realizer" in err
    rc, _, err = run_cli(capsys, "match", "--game", "g1",
                         "--realizer", "t_leq", "--formula", "no_such",
                         "--abelard", "random")
    assert rc == 2 and "unknown formula" in err
    rc, _, err = run_cli(capsys, "match", "--game", "g0",
                         "--formula", "leq", "--realizer", "t_leq")
    assert rc == 2 and "numbers-only" in err
    rc, _, err = run_cli(capsys, "match", "--game", "g1",
                         "--realizer", "t_leq", "--formula", "leq",
                         "--abelard", "fresh")
    assert rc == 2 and "--answers" in err
    rc, _, err = run_cli(capsys, "match", "--game", "g1",
                         "--realizer", "t_leq", "--formula", "leq",
                         "--abelard", str(tmp_path / "missing.json"))
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run_cli(capsys, "match", "--game", "g1",
                         "--realizer", "t_leq", "--formula", "leq",
                         "--abelard", str(bad))
    assert rc == 2


REPLY = {"n": 1, "u": "c_a", "pi": "a0"}
DSL_ZERO = {"dsl": "zero", "arity": 2}


@pytest.mark.parametrize("option,data", [
    ("--abelard", []),
    ("--abelard", {"replies": [{"n": 1}]}),
    ("--abelard", {"replies": [{**REPLY, "n": "x"}]}),
    ("--abelard", {"leading": 5, "replies": [REPLY]}),
    ("--abelard", {"handle": {"u": "c_a"}, "replies": [REPLY]}),
    ("--formula-file", [1]),
    ("--formula-file", {"f": {"rounds": 1}}),
    ("--formula-file", {"f": {"rounds": 1, "fn": {"dsl": "zero"}}}),
    ("--formula-file", {"f": {"rounds": "a", "fn": DSL_ZERO}}),
])
def test_malformed_scripts_and_formula_files_exit_2(capsys, tmp_path,
                                                    option, data):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    # a later --abelard replaces "fresh", so one command line serves both
    argv = ["match", "--game", "g1", "--realizer", "t_leq",
            "--formula", "leq", "--abelard", "fresh", "--answers", "0",
            option, str(path)]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_match_quantum_below_one_is_an_error_not_a_hang(capsys):
    for quantum in ("0", "-1"):
        rc, _, err = run_cli(capsys, "match", "--game", "g2",
                             "--realizer", "ident", "--formula", "leq",
                             "--abelard", "fresh", "--answers", "0",
                             "--quantum", quantum)
        assert rc == 2 and "quantum" in err


def test_match_json_is_deterministic_and_structured(capsys):
    args = ("match", "--game", "g2", "--realizer", "t_leq",
            "--formula", "leq", "--abelard", WILD, "--json")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "EloiseWin"
    assert payload["entries"][1]["ms"] == [0]
    assert payload["moves"][0]["thread"] == 0


### scheme

def test_scheme_toy_two_line_extraction(capsys):
    rc, out, _ = run_cli(capsys, "scheme", "--realizer", "play_zero",
                         "--formula", "leq", "--answers", "4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "finish on 1" in lines[1]
    assert "m=0 n=4" in lines[0]


def test_scheme_demo_tree(capsys):
    rc, out, _ = run_cli(capsys, "scheme", "--realizer", "scheme_demo",
                         "--formula", "phi4", "--answers", "0,2,0,0,0,0")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert "finish on 4" in lines[-1]
    rc, out, _ = run_cli(capsys, "scheme", "--realizer", "scheme_demo",
                         "--formula", "phi4", "--answers", "0,2,0,0,0,0",
                         "--dot")
    assert rc == 0
    assert "n2 -> n4" in out


def test_scheme_exhausted_answers_fail_with_partial_tree(capsys):
    rc, out, _ = run_cli(capsys, "scheme", "--realizer", "scheme_demo",
                         "--formula", "phi4", "--answers", "0,2")
    assert rc == 1
    assert "extraction failed (budget)" in out
    assert "node 2: path=[1] m=2 n=2 parent=0" in out


def test_scheme_refuses_code_inspecting_realizers(capsys):
    rc, _, err = run_cli(capsys, "scheme", "--realizer", "t_leq",
                         "--formula", "leq", "--answers", "4")
    assert rc == 2
    assert "quote" in err


def test_scheme_accepts_raw_term_text(capsys):
    rc, out, _ = run_cli(capsys, "scheme", "--term", r"\u. u #3 (\n v. v)",
                         "--formula", "leq", "--answers", "9")
    assert rc == 0
    assert "m=3 n=9" in out


def test_scheme_json_is_deterministic(capsys):
    args = ("scheme", "--realizer", "scheme_demo", "--formula", "phi4",
            "--answers", "0,2,0,0,0,0", "--json")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["final"] == {"f": 6, "s": 4}
    assert payload["nodes"][4]["path"] == [1, 1]


### oracle

def test_oracle_worked_examples(capsys):
    rc, out, _ = run_cli(capsys, "oracle", "--formula", "leq", "--bound", "5")
    assert rc == 0
    assert out.splitlines()[0] == "win"
    rc, out, _ = run_cli(capsys, "oracle", "--formula", "phi4", "--bound", "3")
    assert rc == 0
    assert out.splitlines()[0] == "win"
    rc, out, _ = run_cli(capsys, "oracle", "--formula", "never",
                         "--formula-file", EXTRA, "--bound", "4")
    assert rc == 0
    assert out.splitlines()[0] == "lose"
    assert "caveat" in out


def test_oracle_caveat_unknown_and_leading(capsys):
    rc, out, _ = run_cli(capsys, "oracle", "--formula", "never",
                         "--formula-file", EXTRA, "--bound", "4",
                         "--caveat-unknown")
    assert rc == 0
    assert out.splitlines()[0] == "unknown"
    rc, out, _ = run_cli(capsys, "oracle", "--formula", "halt",
                         "--bound", "6", "--leading", "3343")
    assert rc == 0
    assert out.splitlines()[0] == "win"
    rc, _, err = run_cli(capsys, "oracle", "--formula", "halt", "--bound", "6")
    assert rc == 2
    assert "leading" in err


def test_oracle_json_is_deterministic(capsys):
    args = ("oracle", "--formula", "phi4", "--bound", "3", "--json")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "win"
    assert payload["bound"] == 3


### list

def test_list_names_everything(capsys):
    rc, out, _ = run_cli(capsys, "list")
    assert rc == 0
    for needle in ("phi4", "t_leq", "t_phi_phi4", "scheme_demo"):
        assert needle in out


def test_list_json_includes_file_formulae(capsys):
    rc, out, _ = run_cli(capsys, "list", "--formula-file", EXTRA, "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["formulae"]["never"] == {"leadingForalls": 0, "rounds": 1}
    assert "t_halt" in payload["realizers"]


### fixtures stay in sync with the builders they were generated from

def test_fixture_texts_match_their_builders():
    from lamc.formula import IDX_HALT3, IDX_LOOP
    from lamc.machine import MachineConfig
    from lamc.realizers import IDENT, leq_round_opener
    from lamc.syntax import term_to_text

    reg = MachineConfig(quote=True, eq=True, eq_nat=True,
                        inert_consts=("c_a", "c_b", "c_u", "c_v")).build()
    wild = json.loads(Path(WILD).read_text())
    assert wild["replies"][0]["u"] == term_to_text(leq_round_opener(reg, IDENT, 0))
    assert wild["replies"][0]["n"] == 0
    assert json.loads(Path(HALT_LOOP).read_text())["leading"] == [IDX_LOOP]
    assert json.loads(Path(HALT3).read_text())["leading"] == [IDX_HALT3]


### the installed entry point

def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lamc.cli", "eval", r"(\x.x) (\x.x) * a0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "terminal: stuck" in proc.stdout


def run_module(*argv, stdin=None, timeout=None):
    """The CLI in a fresh interpreter, at Python's default recursion limit."""
    return subprocess.run([sys.executable, "-m", "lamc.cli", *argv],
                          capture_output=True, text=True, input=stdin,
                          timeout=timeout)


def test_eval_of_deeply_nested_parentheses_is_an_error_not_a_traceback():
    deep = "(" * 2000 + "c_a" + ")" * 2000
    proc = run_module("eval", f"{deep} * a0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_scheme_of_a_deeply_nested_term_is_an_error_not_a_traceback():
    deep = "(" * 2000 + r"\u. u #3 (\n v. v)" + ")" * 2000
    proc = run_module("scheme", "--term", deep, "--formula", "leq",
                      "--answers", "9")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_eval_of_a_huge_numeral_literal_is_an_error_not_a_hang(capsys):
    rc, out, err = run_cli(capsys, "eval", "#1000000 * a0")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: numeral literal above #100000 at line 1, column 1")


### numbers that would become huge numerals

HUGE = 1_000_000_000
HALT_MATCH = ("match", "--game", "g1", "--realizer", "t_halt",
              "--formula", "halt")


def assert_refused(proc, what):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {what} {HUGE} is above #100000\n"


def halt_loop_copy(tmp_path, edit):
    data = json.loads(Path(HALT_LOOP).read_text())
    edit(data)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_match_refuses_a_huge_leading_flag_instead_of_hanging():
    proc = run_module(*HALT_MATCH, "--leading", str(HUGE),
                      "--abelard", HALT_LOOP, timeout=30)
    assert_refused(proc, "--leading")


def test_match_refuses_a_huge_leading_number_in_a_script(tmp_path):
    script = halt_loop_copy(tmp_path, lambda d: d.update(leading=[HUGE]))
    proc = run_module(*HALT_MATCH, "--abelard", script, timeout=30)
    assert_refused(proc, "leading number")


def test_match_refuses_a_huge_reply_number_in_a_script(tmp_path):
    script = halt_loop_copy(tmp_path,
                            lambda d: d["replies"][0].update(n=HUGE))
    proc = run_module(*HALT_MATCH, "--abelard", script, timeout=30)
    assert_refused(proc, "reply number")


def test_match_asks_again_after_a_huge_interactive_reply():
    proc = run_module("match", "--game", "g1", "--realizer", "t_phi_leq",
                      "--formula", "leq", "--abelard", "interactive",
                      stdin=f"{HUGE}, c_a, a1\n2, c_a, a1\n", timeout=30)
    assert proc.returncode == 0
    assert (f"could not read that reply: reply number {HUGE} is above "
            "#100000") in proc.stdout
    assert "verdict: EloiseWin" in proc.stdout


def test_huge_answers_are_refused(capsys):
    for argv in (("match", "--game", "g1", "--realizer", "t_leq",
                  "--formula", "leq", "--abelard", "fresh"),
                 ("scheme", "--realizer", "scheme_demo", "--formula", "phi4")):
        rc, out, err = run_cli(capsys, *argv, "--answers", f"0,{HUGE}")
        assert (rc, out) == (2, "")
        assert err == f"error: --answers {HUGE} is above #100000\n"


def test_negative_match_numbers_still_exit_2(capsys):
    rc, out, err = run_cli(capsys, *HALT_MATCH, "--leading", "-1",
                           "--abelard", HALT_LOOP)
    assert (rc, out) == (2, "")
    assert err == "error: numeral wants a natural, got -1\n"


def test_eval_text_and_json_agree_on_out_of_range_budgets(capsys):
    """Budgets below 0 stop at step 0 and one past sys.maxsize never binds,
    in text mode as in --json."""
    for process, budget, kind in ((r"(\x. x) * a0", "-1", "budget"),
                                  (r"(\x. x) * a0", "-3", "budget"),
                                  (r"(\x. x) * a0", str(10**20), "stuck"),
                                  (r"(\x. x x) (\y. y y) * a0", str(10**20),
                                   "cycle")):
        rc, out, err = run_cli(capsys, "eval", process, "--steps", budget)
        assert (rc, err) == (0, "")
        rc, js, err = run_cli(capsys, "eval", process, "--steps", budget,
                              "--json")
        assert (rc, err) == (0, "")
        payload = json.loads(js)
        assert payload["terminal"]["kind"] == kind
        steps = len(payload["steps"]) - 1
        assert out == (f"after {steps} steps: {payload['steps'][-1]}\n"
                       f"terminal: {payload['terminal']['kind']}"
                       + ("(entry=0, period=2)" if kind == "cycle" else "")
                       + "\n")


def test_negative_bound_is_an_error_not_a_win(capsys):
    """The empty box made every formula with a universal round a win."""
    for argv in (("oracle",), ("match", "--game", "g0")):
        rc, out, err = run_cli(capsys, *argv, "--formula", "never",
                               "--formula-file", EXTRA, "--bound", "-1")
        assert (rc, out) == (2, "")
        assert err == "error: the search bound must be at least 0, got -1\n"
    rc, out, _ = run_cli(capsys, "oracle", "--formula", "never",
                         "--formula-file", EXTRA, "--bound", "0")
    assert (rc, out.splitlines()[0]) == (0, "lose")
