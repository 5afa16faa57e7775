"""Verification report containers shared by the model-checking operations."""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def first(name: str, passing: str, failures: Iterable[str]) -> CheckResult:
    """A failed check with the first detail that ``failures`` yields, drawing
    nothing after it; a passed check with ``passing`` if it yields none."""
    detail = next(iter(failures), None)
    return CheckResult(name, detail is None, passing if detail is None else detail)


@dataclass(frozen=True)
class VerificationSummary:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.ok:
                return c
        return None

    def lines(self) -> list[str]:
        return [f"[{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}" for c in self.checks]
