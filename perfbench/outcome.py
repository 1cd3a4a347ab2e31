"""What one workload run hands back to the runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from .tracing import Tracer


@dataclass
class Outcome:
    #: end-to-end metrics by name (untraced run)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: per-layer metrics by name (traced run); layers a workload does
    #: not exercise are reported as 0
    layers: Dict[str, float] = field(default_factory=dict)
    #: operations attempted / failed: steps or jobs, plus correctness
    #: checks (a failed check counts as a failed operation)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    #: human-readable lines printed before the result line
    report: List[str] = field(default_factory=list)
    tracers: List[Tracer] = field(default_factory=list)
    trace_extra: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        """Every correctness check passed."""
        return all(ok for _, ok in self.checks)
