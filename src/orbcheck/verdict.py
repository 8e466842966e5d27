"""The one result shape of every check: did it pass, and why."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Verdict:
    passed: bool
    detail: str = ""  # rendered after PASS/FAIL in the report line
