"""Structured pass/fail reports shared by the verifiers.

Every check is one record; a report passes iff every record does.  The JSON
shape is stable so reports can be diffed as golden files:

    {"pass": bool, "checks": [{"check", "expected", "observed", "pass"}, ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class CheckRecord:
    check: str
    expected: object
    observed: object
    passed: bool

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(rec.passed for rec in self.checks)

    def record(self, name: str) -> CheckRecord:
        """Look up a check by name (there is exactly one per name)."""
        for rec in self.checks:
            if rec.check == name:
                return rec
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {"pass": self.passed, "checks": [rec.as_dict() for rec in self.checks]}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)
