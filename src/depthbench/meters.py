"""Work/depth accounting shared by every solver, and the budget error some of them raise."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostMeter:
    """Counts elementary operations (work) and sequential rounds (depth).

    Meters are per-run local state: solvers accept one, charge it as they
    go, and never share it across runs.  A well-formed meter always
    satisfies ``work >= depth >= 0`` because every charge does.
    """

    work: int = 0
    depth: int = 0

    def charge(self, work: int, depth: int) -> None:
        if work < 0 or depth < 0 or depth > work:
            raise ValueError(f"bad charge: work={work} depth={depth}")
        self.work += work
        self.depth += depth


class CapacityError(ValueError):
    """A requested table or exhaustive input space exceeds its budget."""
