"""Unit tests for the shared slot pool (``repro.serving.pool``).

The pool is a pure model — a replayable function of its arrival batch —
so these tests drive it directly with synthetic job shapes: a solo job
against hand-computed LPT schedules, admission control and fair-share
ordering, weighted slot sharing, inter-stage overlap gating, and
cancellation of queued vs running jobs at the pool level.
"""

from __future__ import annotations

import pytest

from repro.engine.scheduler import SpeculationConfig
from repro.faults import FaultPlan
from repro.serving.pool import (
    PoolArrival,
    PoolExecution,
    PoolOpaque,
    PoolStage,
    SlotPool,
)
from repro.simtime import SimContext

SLOTS = 4
STAGE1 = [5.0, 3.0, 8.0, 2.0, 7.0, 1.0]
STAGE2 = [4.0, 4.0, 9.0]
STRAGGLERS = ["task.slow:rate=0.4:factor=6"]


def probe_factors(plan, seed, shapes):
    """Replay the straggler probes the jobs-API layer performs: one per
    task, stage order, index order, on a fresh same-seed injector."""
    ctx = SimContext()
    ctx.faults.install(FaultPlan.parse(plan, seed=seed))
    return [
        [
            ctx.faults.slowdown("task.slow", stage=name, task=i)
            for i in range(len(costs))
        ]
        for name, costs in shapes
    ]


def run_solo(pool: SlotPool, work, arrival_ms: float = 0.0):
    verdicts = pool.run(
        [PoolArrival(key=0, principal="user:a", arrival_ms=arrival_ms)],
        lambda key, admitted_ms: work,
    )
    return verdicts[0]


class TestSoloEquivalence:
    """A solo job on an empty pool runs the greedy LPT list schedule —
    checked against makespans and timelines worked out by hand."""

    def test_healthy_solo_job_matches_scheduler(self):
        verdict = run_solo(
            SlotPool(slots=SLOTS),
            PoolExecution(
                prelude_ms=10.0,
                stages=[
                    PoolStage("s1", STAGE1, [1.0] * len(STAGE1)),
                    PoolStage("s2", STAGE2, [1.0] * len(STAGE2)),
                ],
                compute_ms=12.0,
                compute_tasks=3,
            ),
        )
        assert verdict.state == "done"
        # s1 on 4 slots from t=10, longest first: tasks 2, 4, 0, 1 start at
        # once; task 3 takes task 1's slot at 13, task 5 takes task 0's at
        # 15, and the stage ends with task 2 at 18 (makespan 8). s2 places
        # 9, 4, 4 and ends at 27 (makespan 9); three compute partitions of
        # 12/3 follow.
        assert verdict.elapsed_ms == pytest.approx(10.0 + 8.0 + 9.0 + 12.0 / 3)
        primaries = {
            (r.stage, r.task): (r.slot, r.start_ms, r.end_ms)
            for r in verdict.runs
            if not r.speculative
        }
        assert primaries == {
            ("s1", 2): (0, 10.0, 18.0),
            ("s1", 4): (1, 10.0, 17.0),
            ("s1", 0): (2, 10.0, 15.0),
            ("s1", 1): (3, 10.0, 13.0),
            ("s1", 3): (3, 13.0, 15.0),
            ("s1", 5): (2, 15.0, 16.0),
            ("s2", 2): (0, 18.0, 27.0),
            ("s2", 0): (1, 18.0, 22.0),
            ("s2", 1): (2, 18.0, 22.0),
            ("compute", 0): (0, 27.0, 31.0),
            ("compute", 1): (1, 27.0, 31.0),
            ("compute", 2): (2, 27.0, 31.0),
        }
        # Backups launched on idle slots once the queue drains all lose to
        # their healthy primaries: they never move the makespan.
        backups = [r for r in verdict.runs if r.speculative]
        assert backups and all(r.cancelled and not r.winner for r in backups)

    def test_straggler_and_speculation_timeline_matches_scheduler(self):
        shapes = [("s1", STAGE1), ("s2", STAGE2)]
        slow = probe_factors(STRAGGLERS, 3, shapes)
        assert slow == [[6.0, 1.0, 6.0, 1.0, 1.0, 6.0], [6.0, 1.0, 6.0]]
        verdict = run_solo(
            SlotPool(slots=SLOTS),
            PoolExecution(
                prelude_ms=10.0,
                stages=[
                    PoolStage(name, costs, slow[i])
                    for i, (name, costs) in enumerate(shapes)
                ],
                speculation=SpeculationConfig(),
            ),
        )
        # Worked by hand (threshold = 1.5 x the 0.75 nearest-rank quantile
        # of completed durations). s1: at 17 the completed [3, 2, 7] give
        # 10.5, so task 0 (slowed to 30) gets a backup at 20.5 on the slot
        # task 4 freed; at 21 [2, 3, 6, 7] give 9, so task 2 (slowed to 48)
        # gets one at 21. Both backups win, cancelling their primaries; s1
        # ends at 29. s2: at 53 [4, 24] give 36, so task 2 (slowed to 54)
        # gets a backup at 65 that wins at 74.
        assert [
            (r.stage, r.task, r.slot, r.start_ms, r.end_ms, r.slow_factor,
             r.speculative, r.winner, r.cancelled)
            for r in verdict.runs
        ] == [
            ("s1", 2, 0, 10.0, 29.0, 6.0, False, False, True),
            ("s1", 4, 1, 10.0, 17.0, 1.0, False, True, False),
            ("s1", 0, 2, 10.0, 25.5, 6.0, False, False, True),
            ("s1", 1, 3, 10.0, 13.0, 1.0, False, True, False),
            ("s1", 3, 3, 13.0, 15.0, 1.0, False, True, False),
            ("s1", 5, 3, 15.0, 21.0, 6.0, False, True, False),
            ("s1", 0, 1, 20.5, 25.5, 1.0, True, True, False),
            ("s1", 2, 3, 21.0, 29.0, 1.0, True, True, False),
            ("s2", 2, 0, 29.0, 74.0, 6.0, False, False, True),
            ("s2", 0, 1, 29.0, 53.0, 6.0, False, True, False),
            ("s2", 1, 2, 29.0, 33.0, 1.0, False, True, False),
            ("s2", 2, 1, 65.0, 74.0, 1.0, True, True, False),
        ]
        assert verdict.elapsed_ms == pytest.approx(74.0)
        assert (verdict.speculative_launched, verdict.speculative_wins) == (3, 3)

    def test_tail_and_arrival_offset(self):
        verdict = run_solo(
            SlotPool(slots=SLOTS),
            PoolExecution(prelude_ms=5.0, tail_ms=20.0, compute_ms=8.0,
                          compute_tasks=2),
            arrival_ms=100.0,
        )
        assert verdict.admitted_ms == 100.0
        assert verdict.queue_wait_ms == 0.0
        assert verdict.elapsed_ms == pytest.approx(5.0 + 20.0 + 8.0 / 2)


class TestAdmission:
    def test_fifo_within_principal(self):
        pool = SlotPool(slots=2, max_concurrent_jobs=1)
        arrivals = [
            PoolArrival(key=i, principal="user:a", arrival_ms=float(i))
            for i in range(3)
        ]
        verdicts = pool.run(
            arrivals, lambda key, now: PoolOpaque(elapsed_ms=10.0)
        )
        admitted = [verdicts[i].admitted_ms for i in range(3)]
        assert admitted == sorted(admitted)
        assert admitted == [0.0, 10.0, 20.0]

    def test_fair_share_across_principals(self):
        # a queues three jobs before b's lands; with one seat the pool
        # still alternates: b has fewer admitted jobs than a after a's
        # first, so b goes second — not after a's whole backlog.
        pool = SlotPool(slots=2, max_concurrent_jobs=1)
        arrivals = [
            PoolArrival(key=0, principal="user:a", arrival_ms=0.0),
            PoolArrival(key=1, principal="user:a", arrival_ms=0.0),
            PoolArrival(key=2, principal="user:a", arrival_ms=0.0),
            PoolArrival(key=3, principal="user:b", arrival_ms=1.0),
        ]
        verdicts = pool.run(
            arrivals, lambda key, now: PoolOpaque(elapsed_ms=10.0)
        )
        order = sorted(range(4), key=lambda k: verdicts[k].admitted_ms)
        assert order == [0, 3, 1, 2]
        assert verdicts[3].queue_wait_ms == pytest.approx(9.0)

    def test_admission_gate_bounds_concurrency(self):
        pool = SlotPool(slots=8, max_concurrent_jobs=2)
        arrivals = [
            PoolArrival(key=i, principal=f"user:p{i}", arrival_ms=0.0)
            for i in range(4)
        ]
        verdicts = pool.run(
            arrivals, lambda key, now: PoolOpaque(elapsed_ms=10.0)
        )
        admitted = sorted(v.admitted_ms for v in verdicts.values())
        assert admitted == [0.0, 0.0, 10.0, 10.0]


class TestWeightedSharing:
    SHAPE = PoolExecution(
        prelude_ms=0.0,
        stages=[PoolStage("scan", [4.0] * 8, [1.0] * 8)],
        speculation=SpeculationConfig(enabled=False),
    )

    def run_pair(self, weights):
        pool = SlotPool(slots=2, max_concurrent_jobs=2, weights=weights)
        arrivals = [
            PoolArrival(key=0, principal="user:a", arrival_ms=0.0),
            PoolArrival(key=1, principal="user:b", arrival_ms=0.0),
        ]
        return pool.run(arrivals, lambda key, now: self.SHAPE)

    def test_reservation_weight_shifts_slot_share(self):
        fair = self.run_pair({})
        tilted = self.run_pair({"user:b": 4.0})
        # With 4x the reservation, b drains its stage strictly earlier
        # than under equal shares — at a's expense, not the pool's.
        assert tilted[1].end_ms < fair[1].end_ms
        assert tilted[0].end_ms >= fair[0].end_ms
        # Total work conserved: the batch ends at the same makespan.
        assert max(v.end_ms for v in tilted.values()) == pytest.approx(
            max(v.end_ms for v in fair.values())
        )


class TestInterStageOverlap:
    # Two scan stages: sequential gating runs s2 after s1's barrier;
    # overlap makes both stages' tasks runnable at prelude end.
    SHAPE = PoolExecution(
        prelude_ms=2.0,
        stages=[
            PoolStage("s1", [10.0, 10.0], [1.0, 1.0]),
            PoolStage("s2", [2.0, 2.0], [1.0, 1.0]),
        ],
        speculation=SpeculationConfig(enabled=False),
    )

    def test_stage_barrier_removed(self):
        verdict = run_solo(
            SlotPool(slots=8, inter_stage_overlap=True), self.SHAPE
        )
        s1_end = max(r.end_ms for r in verdict.runs if r.stage == "s1")
        s2_start = min(r.start_ms for r in verdict.runs if r.stage == "s2")
        assert s2_start < s1_end  # pipelined, not barriered
        # Idle slots absorb s2 entirely: elapsed = prelude + max makespan,
        # not prelude + sum of stage makespans.
        assert verdict.elapsed_ms == pytest.approx(2.0 + 10.0)

    def test_overlap_strictly_faster_than_sequential_here(self):
        sequential = run_solo(SlotPool(slots=8), self.SHAPE)
        overlapped = run_solo(
            SlotPool(slots=8, inter_stage_overlap=True), self.SHAPE
        )
        assert sequential.elapsed_ms == pytest.approx(2.0 + 10.0 + 2.0)
        assert overlapped.elapsed_ms < sequential.elapsed_ms

    def test_feederless_partitions_release_at_prelude(self):
        # 2 scan tasks feeding 4 compute partitions: partitions 2 and 3
        # have no feeders, release at prelude end, and must not deadlock.
        shape = PoolExecution(
            prelude_ms=1.0,
            stages=[PoolStage("scan", [3.0, 3.0], [1.0, 1.0])],
            compute_ms=16.0,
            compute_tasks=4,
            speculation=SpeculationConfig(enabled=False),
        )
        verdict = run_solo(SlotPool(slots=8, inter_stage_overlap=True), shape)
        assert verdict.state == "done"
        # p2/p3 run 1->5, scans 1->4, p0/p1 4->8: ends at 8, no deadlock.
        assert verdict.elapsed_ms == pytest.approx(8.0)


class TestCancellation:
    def test_cancel_queued_job_never_runs(self):
        pool = SlotPool(slots=2, max_concurrent_jobs=1)
        executed = []

        def execute(key, now):
            executed.append(key)
            if key == 0:
                pool.cancel(1)
            return PoolOpaque(elapsed_ms=10.0)

        verdicts = pool.run(
            [
                PoolArrival(key=0, principal="user:a", arrival_ms=0.0),
                PoolArrival(key=1, principal="user:b", arrival_ms=0.0),
            ],
            execute,
        )
        assert executed == [0]  # the cancelled job's work never ran
        assert verdicts[1].state == "cancelled"
        assert not verdicts[1].admitted

    def test_cancel_running_job_frees_slots(self):
        long_stage = PoolExecution(
            prelude_ms=0.0,
            stages=[PoolStage("scan", [100.0] * 4, [1.0] * 4)],
            speculation=SpeculationConfig(enabled=False),
        )
        short = PoolExecution(
            prelude_ms=0.0,
            stages=[PoolStage("scan", [5.0, 5.0], [1.0, 1.0])],
            speculation=SpeculationConfig(enabled=False),
        )
        pool = SlotPool(slots=2, max_concurrent_jobs=2)

        def execute(key, now):
            if key == 1:
                pool.cancel(0)  # job 0 is mid-flight by now
                return short
            return long_stage

        verdicts = pool.run(
            [
                PoolArrival(key=0, principal="user:a", arrival_ms=0.0),
                PoolArrival(key=1, principal="user:b", arrival_ms=1.0),
            ],
            execute,
        )
        assert verdicts[0].state == "cancelled"
        assert verdicts[0].admitted
        assert verdicts[0].end_ms == pytest.approx(1.0)  # torn down at cancel
        # Its in-flight attempts are truncated, not completed...
        attempts = verdicts[0].runs
        assert attempts and all(r.cancelled for r in attempts)
        assert all(r.end_ms <= 1.0 + 1e-9 for r in attempts)
        # ...and the freed slots let the second job run unimpeded.
        assert verdicts[1].state == "done"
        assert verdicts[1].elapsed_ms == pytest.approx(5.0)

    def test_cancel_after_verdict_is_refused(self):
        pool = SlotPool(slots=2)
        verdicts = pool.run(
            [PoolArrival(key=0, principal="user:a", arrival_ms=0.0)],
            lambda key, now: PoolOpaque(elapsed_ms=1.0),
        )
        assert verdicts[0].state == "done"
        assert pool.cancel(0) is False

    def test_failed_opaque_job_reports_failed(self):
        verdict = run_solo(
            SlotPool(slots=2), PoolOpaque(elapsed_ms=3.0, failed=True)
        )
        assert verdict.state == "failed"
        assert verdict.elapsed_ms == pytest.approx(3.0)
