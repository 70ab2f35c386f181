"""A tiny shared report type: validators count checks and collect violations."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    checked: int = 0
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def tally(self) -> None:
        self.checked += 1

    def add(self, kind: str, **record) -> None:
        self.violations.append({"kind": kind, **record})

    def merge(self, other: "Report") -> None:
        self.checked += other.checked
        self.violations.extend(other.violations)
