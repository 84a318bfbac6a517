"""The docs stay true to the code: README's Python examples run, its
``lamc eval`` examples print exactly what it shows, and the package's export
list is exactly what ``lamc/__init__.py`` imports."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import lamc
from lamc.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
INIT = Path(lamc.__file__)

PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                           flags=re.DOTALL | re.MULTILINE)

# "$ lamc eval ..." followed by its output, up to a blank line or the fence
EVAL_EXAMPLES = re.findall(r"^\$ (lamc eval .*)\n((?:(?!\$ |```).+\n)*)",
                           README.read_text(), flags=re.MULTILINE)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("source", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_example_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_has_both_eval_examples():
    assert len(EVAL_EXAMPLES) == 2


@pytest.mark.parametrize("command,expected", EVAL_EXAMPLES,
                         ids=[f"eval{i}" for i in range(len(EVAL_EXAMPLES))])
def test_readme_eval_example_prints_what_it_shows(capsys, command, expected):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected


def test_all_is_exactly_what_the_package_imports():
    imported = [alias.asname or alias.name
                for node in ast.parse(INIT.read_text()).body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert len(lamc.__all__) == len(set(lamc.__all__))
    assert set(lamc.__all__) == set(imported)
    for name in lamc.__all__:
        assert getattr(lamc, name) is not None, name
