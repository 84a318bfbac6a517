"""The docs stay true to the code: README's Python examples run, and the
package's export list is exactly what ``lamc/__init__.py`` imports."""

import ast
import re
from pathlib import Path

import pytest

import lamc

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
INIT = Path(lamc.__file__)

PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                           flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("source", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_example_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_all_is_exactly_what_the_package_imports():
    imported = [alias.asname or alias.name
                for node in ast.parse(INIT.read_text()).body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert len(lamc.__all__) == len(set(lamc.__all__))
    assert set(lamc.__all__) == set(imported)
    for name in lamc.__all__:
        assert getattr(lamc, name) is not None, name
