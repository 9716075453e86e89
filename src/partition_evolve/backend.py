"""The kernel module under its former backend name.

``_pure`` is the one kernel module.  These two calls remain because the
benchmark's tracer and harness (``perfbench/``) still ask for a backend.
"""

from types import ModuleType

from . import _pure


def get_backend() -> ModuleType:
    return _pure


def default_backend_name() -> str:
    return "python"
