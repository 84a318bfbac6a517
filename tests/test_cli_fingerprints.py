"""CLI output gate: stdout, stderr and exit code of a fixed set of commands.

Each command runs in-process through ``lamc.cli.main``; the committed file
``cli_fingerprints.json`` holds its argv, its exit code and the sha256 of its
stdout and stderr. A change that alters any of them on purpose regenerates
the file with

    PYTHONPATH=src python tests/test_cli_fingerprints.py

and says which commands changed and why. Paths under ``fixtures/`` are
written relative to the repository root and resolved against it here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from lamc.cli import STEPS_ENV, main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "cli_fingerprints.json"


def _eval_commands() -> list[list[str]]:
    processes = (
        r"(\x.x) * ((\x. x x) (\x. x x)) . a0",
        r"(\x.x) (\x.x) * a0",
        r"cc * (\x.x) . a0",
        r"(\x. x x) (\y. y y) * a0",
        r"quote * (\x. x) . a0",
        r"eq * c_a . c_a . c_u . c_v . a0",
        r"eq_nat * #2 . #3 . c_u . c_v . a0",
        r"#3 (\x. c_a x) c_b * a0",
    )
    out = []
    for p in processes:
        out += [["eval", p], ["eval", p, "--trace"], ["eval", p, "--json"]]
    out += [
        ["eval", r"(\x. x x) (\y. y y) * a0", "--steps", "1"],
        ["eval", r"(\x. x x) (\y. y y) * a0", "--steps", "0", "--json"],
        ["eval", r"(\x.x) (\x.x) * a0", "--registry", "plain"],
        ["eval", r"cc * (\x.x) . a0", "--registry", "plain", "--trace"],
        ["eval", r"(\x.x) * ((\x. x x) (\x. x x)) . a0", "--registry",
         "plain", "--json"],
        ["eval", r"quote * (\x. x) . a0", "--registry", "plain"],
        ["eval", r"(\x. * a0"],
        ["eval", r"(\x. x) * a9"],
        ["eval", r"#100001 * a0"],
    ]
    return out


def _match_commands() -> list[list[str]]:
    out = []
    fixtures = (("t_leq", "leq", "fixtures/wild.json"),
                ("t_halt", "halt", "fixtures/halt_loop.json"),
                ("t_halt", "halt", "fixtures/halt_halt3.json"))
    for realizer, formula, script in fixtures:
        for game in ("g1", "g2"):
            base = ["match", "--game", game, "--realizer", realizer,
                    "--formula", formula, "--abelard", script]
            out += [base, base + ["--json"]]
    for realizer, formula in (("t_phi_leq", "leq"), ("t_phi_phi4", "phi4"),
                              ("t_leq", "leq")):
        for seed in ("0", "3", "7"):
            for game in ("g1", "g2"):
                out.append(["match", "--game", game, "--realizer", realizer,
                            "--formula", formula, "--abelard", "random",
                            "--seed", seed])
            out.append(["match", "--game", "g1", "--realizer", realizer,
                        "--formula", formula, "--abelard", "random",
                        "--seed", seed, "--json"])
    fresh = ["--realizer", "t_phi_phi4", "--formula", "phi4",
             "--abelard", "fresh", "--answers", "0,2,0,0,0,0"]
    out += [
        ["match", "--game", "g1", *fresh],
        ["match", "--game", "g2", *fresh, "--json"],
        ["match", "--game", "g1", "--realizer", "ident", "--formula", "leq",
         "--abelard", "fresh", "--answers", "0", "--steps", "50"],
        ["match", "--game", "g2", "--realizer", "t_leq", "--formula", "leq",
         "--abelard", "fresh", "--answers", "4", "--quantum", "3"],
        ["match", "--game", "g0", "--formula", "phi4", "--bound", "2"],
        ["match", "--game", "g0", "--formula", "never", "--formula-file",
         "fixtures/extra_formulae.json", "--bound", "1", "--json"],
        ["match", "--game", "g0", "--formula", "halt", "--bound", "3",
         "--leading", "3343"],
        ["match", "--game", "g1", "--realizer", "no_such", "--formula", "leq",
         "--abelard", "random"],
        ["match", "--game", "g1", "--realizer", "t_leq", "--formula", "leq",
         "--abelard", "random", "--handle", r"(\x. * a0"],
    ]
    return out


def _other_commands() -> list[list[str]]:
    demo = ["scheme", "--realizer", "scheme_demo", "--formula", "phi4",
            "--answers", "0,2,0,0,0,0"]
    return [
        demo,
        demo + ["--json"],
        demo + ["--dot"],
        ["scheme", "--realizer", "scheme_demo", "--formula", "phi4",
         "--answers", "0,2"],
        ["scheme", "--realizer", "scheme_demo", "--formula", "phi4",
         "--answers", "0,2", "--json"],
        ["scheme", "--realizer", "play_zero", "--formula", "leq",
         "--answers", "4"],
        ["scheme", "--term", r"\u. u #3 (\n v. v)", "--formula", "leq",
         "--answers", "9", "--json"],
        ["scheme", "--realizer", "t_leq", "--formula", "leq", "--answers", "4"],
        ["oracle", "--formula", "leq", "--bound", "5"],
        ["oracle", "--formula", "phi4", "--bound", "3", "--json"],
        ["oracle", "--formula", "never", "--formula-file",
         "fixtures/extra_formulae.json", "--bound", "4", "--caveat-unknown"],
        ["oracle", "--formula", "halt", "--bound", "6", "--leading", "3343"],
        ["oracle", "--formula", "halt", "--bound", "0", "--leading", "3343"],
        ["list"],
        ["list", "--formula-file", "fixtures/extra_formulae.json", "--json"],
    ]


COMMANDS = _eval_commands() + _match_commands() + _other_commands()


def _resolve(arg: str) -> str:
    return str(ROOT / arg) if arg.startswith("fixtures/") else arg


def fingerprint(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([_resolve(a) for a in argv])
    return {
        "argv": argv,
        "exit": rc,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def _recorded() -> list[dict]:
    """The committed rows; none when the file is missing, which the first
    test reports."""
    return json.loads(DATA.read_text()) if DATA.exists() else []


def test_recorded_commands_are_the_listed_ones():
    assert [row["argv"] for row in _recorded()] == COMMANDS


@pytest.mark.parametrize("row", _recorded(),
                         ids=lambda row: " ".join(row["argv"]))
def test_cli_output_is_unchanged(row, monkeypatch):
    monkeypatch.delenv(STEPS_ENV, raising=False)
    assert fingerprint(row["argv"]) == row


if __name__ == "__main__":
    os.environ.pop(STEPS_ENV, None)
    rows = [fingerprint(argv) for argv in COMMANDS]
    DATA.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} fingerprints to {DATA.name}")
