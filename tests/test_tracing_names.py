"""The traced benchmark looks lamc names up by string: every function and
method it wraps must still exist, so that removing one fails here and not
only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("home,name", sorted(
    tracing.FUNCTIONS, key=lambda key: (key[0].__name__, key[1])),
    ids=lambda x: getattr(x, "__name__", x))
def test_traced_function_resolves(home, name):
    assert callable(getattr(home, name, None)), f"{home.__name__}.{name}"


@pytest.mark.parametrize("cls,name", sorted(
    tracing.METHODS, key=lambda key: (key[0].__name__, key[1])),
    ids=lambda x: getattr(x, "__name__", x))
def test_traced_method_resolves(cls, name):
    # the tracer patches the class's own attribute, not an inherited one
    assert callable(cls.__dict__.get(name)), f"{cls.__name__}.{name}"
