"""The kernel module: its enumerator, and the contract that callers look
its kernels up when they run."""

import pytest

from partition_evolve import (Level, _pure, backend, default_backend_name,
                              enumerate_oracle, evolve_m1, evolve_m2)


def test_python_backend_is_always_available():
    assert backend.get_backend() is _pure
    assert default_backend_name() == "python"


@pytest.mark.parametrize("name,run", [
    ("step_m1", lambda: evolve_m1(Level.seed("method1"), 4)),
    ("step_m2", lambda: evolve_m2(Level.seed("method2"), 4)),
    ("enumerate_level", lambda: enumerate_oracle(4)),
])
def test_callers_call_the_kernel_module_globals_they_are_traced_through(
        monkeypatch, name, run):
    # perfbench/tracer.py replaces these attributes of the module that
    # backend.get_backend() returns, so each caller must look them up when
    # it runs.
    calls = []
    real = getattr(_pure, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_pure, name, counted)
    assert len(run()) == 5
    assert calls


def test_pure_enumeration_is_canonical_and_complete():
    assert _pure.enumerate_level(0) == [""]
    assert _pure.enumerate_level(4) == [
        "\x04", "\x03\x01", "\x02\x02", "\x02\x01\x01",
        "\x01\x01\x01\x01"]
    with pytest.raises(ValueError):
        _pure.enumerate_level(-2)
