"""The one result shape of every check: did it pass, and why."""

from typing import NamedTuple


class Verdict(NamedTuple):
    passed: bool
    detail: str = ""  # rendered after PASS/FAIL in the report line
