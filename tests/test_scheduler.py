"""Skew-aware slot scheduling: LPT placement, stragglers, speculation.

Unit-level coverage for :mod:`repro.engine.scheduler`'s primitives and for
one-job :class:`~repro.serving.pool.SlotPool` runs of a query's stats,
plus the per-stage regression (the scan-accounting bugfix): stages are
scheduled independently, not pooled into one wave count — and for
perfectly uniform tasks the makespan still reduces exactly to the wave
formula, pinning the behavior where the old scalar model was right.
"""

from __future__ import annotations

import math

import pytest

from repro.engine.engine import QueryStats, StageScan
from repro.engine.scheduler import (
    SpeculationConfig,
    duration_quantile,
    normalize_costs,
)
from repro.faults import FaultPlan, FaultSpec
from repro.simtime import SimContext

from tests.helpers import settle_stats, stage_stats

NO_SPEC = SpeculationConfig(enabled=False)


def injector(*specs: FaultSpec, seed: int = 0):
    ctx = SimContext()
    ctx.faults.install(FaultPlan(seed=seed, specs=list(specs)))
    return ctx.faults


def run_stage(slots, costs, *, faults=None, speculation=None, start_ms=0.0):
    """One scan stage ``"t"`` as a one-job pool run starting at ``start_ms``."""
    return settle_stats(
        stage_stats(costs), slots, startup_ms=start_ms, faults=faults,
        speculation=speculation,
    )


class TestDurationQuantile:
    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert duration_quantile(values, 0.5) == 2.0
        assert duration_quantile(values, 0.75) == 3.0
        assert duration_quantile(values, 1.0) == 4.0

    def test_degenerate(self):
        assert duration_quantile([], 0.5) == 0.0
        assert duration_quantile([7.0], 0.0) == 7.0


class TestNormalizeCosts:
    def test_scales_estimates_to_measured_total(self):
        out = normalize_costs([1.0, 3.0], total_ms=8.0, tasks=2)
        assert out == [2.0, 6.0]
        assert sum(out) == pytest.approx(8.0)

    def test_uniform_fallback(self):
        # Missing, mismatched-length, negative, and zero-weight estimates
        # all degrade to an even split — never a crash, never a skew guess.
        for bad in (None, [], [1.0], [1.0, -2.0], [0.0, 0.0]):
            assert normalize_costs(bad, total_ms=6.0, tasks=2) == [3.0, 3.0]


class TestListScheduling:
    def test_uniform_tasks_reduce_to_wave_formula(self):
        # The pinned old-model behavior: n equal tasks on s slots take
        # ceil(n/s) waves. The simulation must agree exactly.
        for n, s, cost in ((3, 2, 5.0), (8, 3, 2.0), (5, 5, 1.5), (7, 1, 4.0)):
            stats = run_stage(s, [cost] * n, speculation=NO_SPEC)
            assert stats.elapsed_ms == pytest.approx(
                math.ceil(n / s) * cost
            ), f"n={n} s={s}"
            assert stats.task_skew == pytest.approx(1.0)

    def test_lpt_places_longest_first(self):
        stats = run_stage(2, [1.0, 5.0, 1.0, 1.0], speculation=NO_SPEC)
        by_task = {r.task: r for r in stats.task_timeline}
        # The fat task starts at t=0; the three small ones share the other
        # slot, so the stage ends with the fat task, not after it.
        assert by_task[1].start_ms == 0.0
        assert stats.elapsed_ms == pytest.approx(5.0)

    def test_freed_slot_steals_next_pending_task(self):
        stats = run_stage(2, [4.0, 3.0, 2.0, 1.0], speculation=NO_SPEC)
        by_task = {r.task: r for r in stats.task_timeline}
        # LPT: 4 and 3 start; the slot that frees at t=3 steals the 2,
        # the slot that frees at t=4 steals the 1.
        assert by_task[2].start_ms == pytest.approx(3.0)
        assert by_task[3].start_ms == pytest.approx(4.0)
        assert stats.elapsed_ms == pytest.approx(5.0)

    def test_stage_offset_shifts_all_runs(self):
        stats = run_stage(2, [2.0, 1.0], speculation=NO_SPEC, start_ms=100.0)
        assert all(r.start_ms >= 100.0 for r in stats.task_timeline)
        # The stage's makespan follows the serial prelude.
        assert stats.elapsed_ms - 100.0 == pytest.approx(2.0)

    def test_empty_stage(self):
        stats = settle_stats(
            QueryStats(scan_stages=[StageScan("t", 0.0, [])]), 4, speculation=NO_SPEC
        )
        assert stats.elapsed_ms == 0.0
        assert stats.task_timeline == []
        # An empty stage holds up no later stage.
        stats = stage_stats([2.0], stage="u")
        stats.scan_stages.insert(0, StageScan("t", 0.0, []))
        settle_stats(stats, 4, speculation=NO_SPEC)
        assert stats.elapsed_ms == pytest.approx(2.0)
        assert [r.stage for r in stats.task_timeline] == ["u"]


class TestStragglers:
    def test_slowdown_multiplies_task_cost(self):
        faults = injector(
            FaultSpec(op="task.slow", count=1, factor=6.0)
        )
        stats = run_stage(4, [1.0, 1.0, 1.0, 1.0], faults=faults, speculation=NO_SPEC)
        slowed = [r for r in stats.task_timeline if r.slow_factor > 1.0]
        assert len(slowed) == 1
        assert slowed[0].duration_ms == pytest.approx(6.0)
        assert stats.elapsed_ms == pytest.approx(6.0)
        assert stats.task_skew > 2.0

    def test_probe_order_is_task_index_order(self):
        # Only task 2 matches the spec's selector: the probe passes
        # stage/task detail, so plans can target one task deterministically.
        faults = injector(
            FaultSpec(op="task.slow", count=1, factor=3.0, match=(("task", "2"),))
        )
        stats = run_stage(2, [1.0, 1.0, 1.0, 1.0], faults=faults, speculation=NO_SPEC)
        assert [r.slow_factor for r in sorted(stats.task_timeline, key=lambda r: r.task)] == [
            1.0, 1.0, 3.0, 1.0,
        ]


class TestSpeculation:
    def straggler_faults(self):
        return injector(
            FaultSpec(op="task.slow", count=1, factor=10.0, match=(("task", "0"),))
        )

    def test_backup_launches_wins_and_cancels_primary(self):
        stats = run_stage(
            4, [1.0] * 4, faults=self.straggler_faults(),
            speculation=SpeculationConfig(quantile=0.5, threshold_multiplier=1.5),
        )
        assert stats.speculative_count == 1
        assert stats.speculative_wins == 1
        backups = [r for r in stats.task_timeline if r.speculative]
        assert len(backups) == 1 and backups[0].winner
        primary0 = next(
            r for r in stats.task_timeline if r.task == 0 and not r.speculative
        )
        assert primary0.cancelled and not primary0.winner
        # The cancelled loser ends when the backup wins, freeing its slot.
        assert primary0.end_ms == pytest.approx(backups[0].end_ms)
        # Backup launched at threshold (1.0 * 1.5), healthy cost 1.0.
        assert backups[0].start_ms == pytest.approx(1.5)
        assert stats.elapsed_ms == pytest.approx(2.5)

    def test_speculation_off_leaves_straggler_alone(self):
        stats = run_stage(
            4, [1.0] * 4, faults=self.straggler_faults(), speculation=NO_SPEC
        )
        assert stats.speculative_count == 0
        assert stats.elapsed_ms == pytest.approx(10.0)

    def test_no_speculation_before_min_completed(self):
        # A lone task can never be compared against completed peers.
        stats = run_stage(
            2, [1.0],
            faults=injector(FaultSpec(op="task.slow", count=1, factor=5.0)),
            speculation=SpeculationConfig(min_completed=2),
        )
        assert stats.speculative_count == 0

    def test_backups_only_use_idle_slots(self):
        # 2 slots, 4 tasks: when the straggler is detected the other slot
        # still has pending work, so no backup can launch until the queue
        # drains — and the backup must not preempt a running primary.
        stats = run_stage(
            2, [1.0] * 4, faults=self.straggler_faults(),
            speculation=SpeculationConfig(quantile=0.5, threshold_multiplier=1.5),
        )
        for backup in (r for r in stats.task_timeline if r.speculative):
            overlapping = [
                r
                for r in stats.task_timeline
                if r is not backup
                and r.slot == backup.slot
                and r.start_ms < backup.end_ms
                and backup.start_ms < r.end_ms
            ]
            assert not overlapping

    def test_fault_stream_identical_with_and_without_speculation(self):
        # Backups never probe the injector: the replay log must be
        # byte-identical either way (the determinism contract).
        logs = []
        for speculation in (SpeculationConfig(), NO_SPEC):
            faults = injector(
                FaultSpec(op="task.slow", rate=0.3, factor=8.0), seed=11
            )
            run_stage(4, [1.0] * 8, faults=faults, speculation=speculation)
            logs.append([(e.op, e.error) for e in faults.events])
        assert logs[0] == logs[1]


class TestPerStageFinalize:
    """The scan-accounting bugfix: waves are per-stage, never pooled
    (a query's stats settled as a one-job pool run)."""

    def stats_with_stages(self):
        stats = QueryStats()
        # 3 + 1 tasks across two stages; uniform within each stage.
        stats.scan_work_ms = 40.0
        stats.scan_tasks = 4
        stats.scan_stages = [
            StageScan("a", 30.0, [10.0, 10.0, 10.0]),
            StageScan("b", 10.0, [10.0]),
        ]
        return stats

    def test_stages_schedule_independently(self):
        stats = settle_stats(self.stats_with_stages(), 2)
        # Per-stage: ceil(3/2)*10 + ceil(1/2)*10 = 30. The old pooled
        # model said ceil(4/2) waves over 4 tasks = 40 * 2/4 = 20 — wrong
        # (it let stage b's slot "help" stage a retroactively).
        pooled = 40.0 * math.ceil(4 / 2) / 4
        assert stats.elapsed_ms == pytest.approx(30.0)
        assert stats.elapsed_ms != pytest.approx(pooled)

    def test_single_uniform_stage_matches_legacy_wave_model(self):
        # Where the scalar wave model was right, the pool must agree exactly.
        stats = QueryStats()
        stats.scan_work_ms = 30.0
        stats.scan_tasks = 3
        stats.scan_stages = [StageScan("a", 30.0, [10.0] * 3)]
        settle_stats(stats, 2)
        assert stats.elapsed_ms == pytest.approx(30.0 * math.ceil(3 / 2) / 3)

    def test_stage_less_work_uses_legacy_wave_model(self):
        # ML batch scoring bumps scan_work_ms without stages; it keeps the
        # wave formula (3 tasks, 2 slots -> 2 waves -> 2/3 of the work).
        stats = QueryStats()
        stats.scan_work_ms = 30.0
        stats.scan_tasks = 3
        settle_stats(stats, 2)
        assert stats.elapsed_ms == pytest.approx(20.0)
        assert stats.task_timeline == []

    def test_timeline_and_skew_surface_on_stats(self):
        stats = settle_stats(self.stats_with_stages(), 2, startup_ms=5.0)
        assert len(stats.task_timeline) == 4
        assert stats.task_skew == pytest.approx(1.0)
        # Stage b starts after stage a's makespan, offset by startup.
        stage_b = [r for r in stats.task_timeline if r.stage == "b"]
        assert stage_b[0].start_ms == pytest.approx(5.0 + 20.0)
