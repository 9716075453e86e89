"""Backend selection rules and pure/compiled behavioral equality."""

import pytest

from partition_evolve import _pure, backend
from partition_evolve.backend import (available_backends,
                                      default_backend_name, get_backend,
                                      has_compiled)

needs_compiled = pytest.mark.skipif(not has_compiled(),
                                    reason="compiled kernels not built")


def test_python_backend_is_always_available():
    assert "python" in available_backends()
    assert get_backend("python") is _pure
    assert _pure.BACKEND_NAME == "python"


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("fortran")


def test_module_objects_pass_through():
    assert get_backend(_pure) is _pure


def test_env_var_forces_the_default(monkeypatch):
    monkeypatch.setenv(backend.ENV_BACKEND, "python")
    assert default_backend_name() == "python"
    assert get_backend() is _pure
    monkeypatch.delenv(backend.ENV_BACKEND)
    assert default_backend_name() in available_backends()


def test_pure_enumeration_is_canonical_and_complete():
    assert _pure.enumerate_level(0) == [""]
    assert _pure.enumerate_level(4) == [
        "\x04", "\x03\x01", "\x02\x02", "\x02\x01\x01",
        "\x01\x01\x01\x01"]
    with pytest.raises(ValueError):
        _pure.enumerate_level(-2)


@needs_compiled
def test_compiled_default_when_built(monkeypatch):
    from partition_evolve import _speedups
    assert _speedups.BACKEND_NAME == "compiled"
    monkeypatch.delenv(backend.ENV_BACKEND, raising=False)
    assert default_backend_name() == "compiled"


@needs_compiled
def test_kernels_agree_on_every_level_up_to_18():
    from partition_evolve import _speedups
    for n in range(19):
        members = _pure.enumerate_level(n)
        assert _speedups.enumerate_level(n) == members
        assert _speedups.step_m1(members) == _pure.step_m1(members)
        assert _speedups.step_m2(members) == _pure.step_m2(members)


@needs_compiled
def test_compiled_enumeration_rejects_negatives():
    from partition_evolve import _speedups
    with pytest.raises(ValueError):
        _speedups.enumerate_level(-2)
