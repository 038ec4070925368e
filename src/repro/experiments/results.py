"""Experiment result containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .report import averages_by_strategy, records_table, relative_table
from .runner import RunRecord


@dataclass
class ExperimentResult:
    """Records of one experiment (one figure or table of the paper)."""

    name: str
    description: str
    records: List[RunRecord] = field(default_factory=list)
    baseline_strategy: Optional[str] = None

    def add(self, record: RunRecord) -> None:
        self.records.append(record)

    def extend(self, records: Sequence[RunRecord]) -> None:
        self.records.extend(records)

    def by_strategy(self, strategy: str) -> List[RunRecord]:
        strategy = strategy.upper()
        return [r for r in self.records if r.strategy.upper() == strategy]

    def by_query(self, query_id: str) -> List[RunRecord]:
        return [r for r in self.records if r.query_id == query_id]

    def record(self, query_id: str, strategy: str) -> RunRecord:
        strategy = strategy.upper()
        for candidate in self.records:
            if (
                candidate.query_id == query_id
                and candidate.strategy.upper() == strategy
            ):
                return candidate
        raise KeyError((query_id, strategy))

    def averages(self) -> Dict[str, Dict[str, float]]:
        if self.baseline_strategy is None:
            return {}
        return averages_by_strategy(self.records, self.baseline_strategy)

    def format(self) -> str:
        """Absolute table plus (when a baseline is set) the relative table."""
        parts = [records_table(self.records, title=f"{self.name}: {self.description}")]
        if self.baseline_strategy is not None:
            parts.append(
                relative_table(
                    self.records,
                    self.baseline_strategy,
                    title=f"{self.name}: values relative to {self.baseline_strategy.upper()}",
                )
            )
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.format()
