"""Front-end tests: exit codes, worked examples, JSON determinism."""

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dsl_twins import DSL_MULT
from lamc.cli import _build_parser, main
from lamc.formula import DSL_MAX_ITERATIONS
from lamc.syntax import MAX_TEXT_BYTES

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


NOT_NATURALS = [2.7, True, "3", -1]


@pytest.mark.parametrize("value", NOT_NATURALS)
@pytest.mark.parametrize("option,make", [
    ("--formula-file",
     lambda v: {"f": {"rounds": v, "leadingForall": 0, "fn": DSL_ZERO}}),
    ("--formula-file",
     lambda v: {"f": {"rounds": 1, "leadingForall": v, "fn": DSL_ZERO}}),
    ("--formula-file",
     lambda v: {"f": {"rounds": 1, "fn": {"dsl": "zero", "arity": v}}}),
    ("--abelard", lambda v: {"replies": [{**REPLY, "n": v}]}),
    ("--abelard", lambda v: {"leading": [v], "replies": [REPLY]}),
])
def test_numbers_that_are_not_naturals_exit_2(capsys, tmp_path, option, make,
                                              value):
    path = tmp_path / "numbers.json"
    path.write_text(json.dumps(make(value)))
    argv = ["match", "--game", "g1", "--realizer", "t_leq",
            "--formula", "leq", "--abelard", "fresh", "--answers", "0",
            option, str(path)]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "natural number" in err


def test_files_with_natural_numbers_still_load(capsys, tmp_path):
    formulae = tmp_path / "formulae.json"
    formulae.write_text(json.dumps({"f": {"rounds": 0, "leadingForall": 0,
                                          "fn": {"dsl": "zero", "arity": 0}}}))
    rc, out, _ = run_cli(capsys, "list", "--formula-file", str(formulae))
    assert rc == 0 and "f: 0 leading foralls, 0 rounds" in out
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"leading": [], "replies": [
        {**REPLY, "n": 0}, {**REPLY, "n": 7}]}))
    rc, _, err = run_cli(capsys, "match", "--game", "g1", "--realizer",
                         "t_leq", "--formula", "leq", "--abelard", str(script))
    assert rc == 0 and err == ""


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



@pytest.mark.parametrize("game", ["g1", "g2"])
def test_match_prints_one_line_and_one_object_per_record(capsys, tmp_path,
                                                         game):
    # both replies hand out the root handle, so t_phi_phi4's second play is
    # one move on two entries: move 1 has two records
    handle = {"u": "c_a", "pi": "a0"}
    script = tmp_path / "shared.json"
    script.write_text(json.dumps({"handle": handle, "replies": [
        {"n": 0, **handle}, {"n": 0, **handle}]}), encoding="utf-8")
    args = ("match", "--game", game, "--realizer", "t_phi_phi4",
            "--formula", "phi4", "--abelard", str(script))
    rc, out, _ = run_cli(capsys, *args)
    assert rc == 0
    moves = [line.split(" [")[0] for line in out.splitlines()
             if line.startswith("move ")]
    assert moves == ["move 0: entry 0 + (m=0, n=0) -> entry 1",
                     "move 1: entry 0 + (m=0, n=0) -> entry 2",
                     "move 1: entry 1 + (m=0, n=0) -> entry 3"]
    rc, out, _ = run_cli(capsys, *args, "--json")
    assert [(mv["move"], mv["entry"], mv["newEntry"])
            for mv in json.loads(out)["moves"]] == [(0, 0, 1), (1, 0, 2),
                                                    (1, 1, 3)]

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
    from builders import leq_round_opener
    from lamc.realizers import IDENT
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


def run_module(*argv, stdin=None, timeout=None, preexec_fn=None):
    """The CLI in a fresh interpreter, at Python's default recursion limit."""
    return subprocess.run([sys.executable, "-m", "lamc.cli", *argv],
                          capture_output=True, text=True, input=stdin,
                          timeout=timeout, preexec_fn=preexec_fn)


### one parser for every call in a process

# every subcommand, with an unknown option and a help request between them
SEQUENCE = [
    ("eval", r"(\x.x) (\x.x) * a0", "--trace"),
    ("match", "--game", "g2", "--realizer", "t_phi_leq", "--formula", "leq",
     "--abelard", "random", "--seed", "3", "--json"),
    ("oracle", "--formula", "leq", "--bound", "3"),
    ("eval", "c_a * a0", "--bogus"),
    ("scheme", "--realizer", "scheme_demo", "--formula", "phi4",
     "--answers", "4"),
    ("eval", "--help"),
    ("list",),
    ("match", "--game", "g1", "--realizer", "t_halt", "--formula", "halt",
     "--abelard", HALT3),
    ("eval", "c_a * a0"),
]


def call_main(capsys, argv):
    """main(argv) in this process, with argparse's exits as exit codes."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_calls_in_one_process_print_what_fresh_processes_print(capsys,
                                                               monkeypatch):
    # help text is wrapped to COLUMNS, which the children inherit
    monkeypatch.setenv("COLUMNS", "80")
    _build_parser.cache_clear()
    for argv in SEQUENCE:
        proc = run_module(*argv, timeout=60)
        assert call_main(capsys, argv) == \
            (proc.returncode, proc.stdout, proc.stderr), argv


def test_main_builds_its_parser_once(capsys, monkeypatch):
    main(["list"])
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["list"], ["oracle", "--formula", "leq", "--bound", "2"],
                 ["eval", "c_a * a0"]):
        assert main(argv) == 0
    assert built == []


def test_importing_the_cli_builds_no_parser():
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counted(self, *args, **kwargs):\n"
             "    built.append(self)\n"
             "    init(self, *args, **kwargs)\n"
             "argparse.ArgumentParser.__init__ = counted\n"
             "import lamc.cli\n"
             "print(len(built))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_eval_of_deeply_nested_parentheses_succeeds():
    deep = "(" * 2000 + "c_a" + ")" * 2000
    proc = run_module("eval", f"{deep} * a0")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "after 0 steps: c_a * a0" in proc.stdout


def test_scheme_of_a_deeply_nested_term_succeeds(capsys):
    term = r"\u. u #3 (\n v. v)"
    proc = run_module("scheme", "--term", "(" * 2000 + term + ")" * 2000,
                      "--formula", "leq", "--answers", "9")
    rc, out, _ = run_cli(capsys, "scheme", "--term", term, "--formula", "leq",
                         "--answers", "9")
    assert (proc.returncode, proc.stderr) == (rc, "") == (0, "")
    assert proc.stdout == out and "finish on 1" in out


def test_a_script_nested_too_deeply_for_json_is_an_error(tmp_path):
    """json.load recurses once per level of nesting; the CLI reports the
    RecursionError as an error line, not a traceback."""
    script = tmp_path / "deep.json"
    script.write_text('{"replies": ' + "[" * 100_000 + "]" * 100_000 + "}")
    proc = run_module("match", "--game", "g1", "--realizer", "t_leq",
                      "--formula", "leq", "--abelard", str(script))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == \
        "error: input is nested too deeply for the recursion limit\n"


@pytest.mark.parametrize("text", ["c_a #² * a0", "#1² * a0"])
def test_eval_of_a_non_decimal_digit_is_a_parse_error(capsys, text):
    rc, out, err = run_cli(capsys, "eval", text)
    assert (rc, out) == (2, "")
    column = text.index("²") + 1
    assert err == f"error: unexpected character '²' at line 1, column {column}\n"


def test_identifiers_may_hold_non_decimal_digits(capsys):
    rc, out, _ = run_cli(capsys, "eval", r"(\x². x²) c_a * a0")
    assert rc == 0 and "after 2 steps: c_a * a0" in out


def test_eval_of_many_binders_with_one_hint_is_not_a_hang(capsys):
    """Each binder of a chain named x prints with the smallest suffix that no
    binder above it took: x, x1, x2, ..."""
    names = " ".join(["x"] * 3000)
    start = time.perf_counter()
    rc, out, _ = run_cli(capsys, "eval", rf"(\{names}. x) * a0")
    assert time.perf_counter() - start < 10
    printed = " ".join(["x"] + [f"x{i}" for i in range(1, 3000)])
    assert rc == 0 and rf"after 0 steps: (\{printed}. x2999) * a0" in out


def test_eval_of_a_huge_numeral_literal_is_an_error_not_a_hang(capsys):
    rc, out, err = run_cli(capsys, "eval", "#1000000 * a0")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: numeral literal above #100000 at line 1, column 1")


def limit_memory():
    """In the child: at most 512 MiB of address space, so that a print that
    grows without bound fails there, not on the host."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))


def test_eval_of_a_configuration_too_long_to_print_exits_2():
    """Each cc pushes k[pi] over the same pi: the run reaches its budget in
    a fraction of a second, on a stack of about 5000 nodes whose text would
    double with each cc. The printer stops past its cap instead."""
    proc = run_module("eval", r"(\x. cc (x x)) (\x. cc (x x)) * a0",
                      timeout=60, preexec_fn=limit_memory)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == \
        f"error: printed text passes {MAX_TEXT_BYTES} characters\n"


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


def test_a_dsl_payoff_past_its_iteration_cap_exits_2(tmp_path):
    # mult(1000, 1000) in the DSL makes about 5 * 10**8 primrec iterations,
    # minutes of work: the cap stops it after about a second
    path = tmp_path / "mult.json"
    path.write_text(json.dumps({"mult0": {
        "leadingForall": 2, "rounds": 0, "fn": {"arity": 2, "dsl": DSL_MULT}}}))
    proc = run_module("oracle", "--formula", "mult0", "--formula-file",
                      str(path), "--bound", "0", "--leading", "1000,1000",
                      timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: payoff evaluation passed "
                           f"{DSL_MAX_ITERATIONS} primrec iterations\n")


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
