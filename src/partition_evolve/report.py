"""Structured pass/fail results for the cross-check suites.

Both classes are plain immutable value objects: compared and hashed by
their fields, with a ``Name(field=value, ...)`` repr.  They are written
out rather than made with ``dataclasses``, whose import (``inspect``,
``ast``, ``dis``, ``tokenize``) would cost every CLI process more than
the rest of the package does.
"""

from __future__ import annotations


class _Record:
    """Fields named in ``__slots__``, set once by ``_init``."""

    __slots__ = ()

    def _init(self, **fields: object) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class CheckResult(_Record):
    """Outcome of one named check over a stated range."""

    __slots__ = ("name", "scope", "passed", "counterexample")

    name: str
    scope: str
    passed: bool
    counterexample: str | None

    def __init__(self, name: str, scope: str, passed: bool,
                 counterexample: str | None = None) -> None:
        if passed and counterexample is not None:
            raise ValueError("a passing check cannot carry a counterexample")
        if not passed and counterexample is None:
            raise ValueError("a failing check must carry a counterexample")
        self._init(name=name, scope=scope, passed=passed,
                   counterexample=counterexample)

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status}  {self.name} [{self.scope}]"
        if self.counterexample is not None:
            line += f"  counterexample: {self.counterexample}"
        return line


class VerificationReport(_Record):
    """A fixed-order collection of check results."""

    __slots__ = ("checks",)

    checks: tuple[CheckResult, ...]

    def __init__(self, checks: tuple[CheckResult, ...]) -> None:
        self._init(checks=checks)

    @property
    def overall(self) -> bool:
        return all(check.passed for check in self.checks)

    def format_text(self) -> str:
        lines = [check.format_line() for check in self.checks]
        verdict = "PASS" if self.overall else "FAIL"
        failed = sum(1 for check in self.checks if not check.passed)
        summary = f"OVERALL {verdict} ({len(self.checks)} checks"
        summary += f", {failed} failed)" if failed else ")"
        lines.append(summary)
        return "\n".join(lines)
