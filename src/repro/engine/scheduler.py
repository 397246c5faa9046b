"""Slot-scheduling primitives shared by the engine and the slot pool.

Elapsed time is settled by one model, :class:`repro.serving.pool.SlotPool`:
every statement's scan stages, stage-less tail and compute partitions run
as a job on a deterministic discrete-event slot pool (drained jobs share
one; nested and cross-cloud statements get a one-job run). This module
holds what both sides of that boundary need:

* :class:`SpeculationConfig` — the backup-task policy (Hadoop/Spark-style
  speculative execution) an engine hands the pool with each job.
* :class:`TaskRun` — one attempt on one slot; the pool's timeline feeds
  ``INFORMATION_SCHEMA.JOBS_TIMELINE``.
* :func:`duration_quantile` — the nearest-rank quantile behind the
  straggler threshold.
* :func:`normalize_costs` — scales a scan stage's per-task estimates to
  its measured scan time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SpeculationConfig:
    """Backup-task policy (mirrors Hadoop/Spark speculative execution)."""

    enabled: bool = True
    # A task is a straggler once it has run longer than this quantile of
    # completed-task durations, times the multiplier.
    quantile: float = 0.75
    threshold_multiplier: float = 1.5
    # Never speculate before this many tasks have completed (the quantile
    # would be noise).
    min_completed: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError(f"speculation quantile must be in [0, 1], got {self.quantile}")
        if self.threshold_multiplier < 1.0:
            raise ValueError("speculation threshold_multiplier must be >= 1")
        if self.min_completed < 1:
            raise ValueError("speculation min_completed must be >= 1")


@dataclass
class TaskRun:
    """One task attempt (primary or speculative backup) on one slot."""

    stage: str
    task: int
    slot: int
    start_ms: float
    end_ms: float
    cost_ms: float  # modeled runtime of this attempt (slow factor included)
    slow_factor: float = 1.0
    speculative: bool = False
    winner: bool = False
    cancelled: bool = False

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def to_dict(self) -> dict:
        """JSON-friendly view (CLI determinism gate, bench reports)."""
        return {
            "stage": self.stage,
            "task": self.task,
            "slot": self.slot,
            "start_ms": round(self.start_ms, 6),
            "end_ms": round(self.end_ms, 6),
            "cost_ms": round(self.cost_ms, 6),
            "slow_factor": self.slow_factor,
            "speculative": self.speculative,
            "winner": self.winner,
            "cancelled": self.cancelled,
        }


def duration_quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def normalize_costs(task_costs: list[float] | None, total_ms: float, tasks: int) -> list[float]:
    """Scale relative per-task estimates so they sum to the *measured*
    stage scan time — estimates set the shape, measurement sets the scale.
    Falls back to a uniform split when estimates are missing/degenerate."""
    n = max(1, tasks)
    if not task_costs or len(task_costs) != n or min(task_costs) < 0:
        return [total_ms / n] * n
    weight = sum(task_costs)
    if weight <= 0:
        return [total_ms / n] * n
    return [c * total_ms / weight for c in task_costs]
