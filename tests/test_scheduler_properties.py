"""Property tests for the elapsed-time model (seeded loops, no hypothesis).

Each run settles one scan stage as a one-job slot-pool run.

Three contracts from the scheduler redesign:

* **Slots monotonicity** — for the healthy model (no straggler injection),
  adding slots never increases a stage's makespan, and the makespan always
  sits between the theoretical lower bound ``max(total/slots, max_cost)``
  and the serial total. (With stragglers *and* speculation the coupling of
  backup timing to pool state makes more-slots-never-slower a non-theorem —
  the guarantee here is about the scheduling model itself.)
* **Skew never wins** — with the same total work and a task count the slot
  pool divides evenly, a skewed cost distribution never finishes before the
  uniform one (uniform achieves the ``total/slots`` lower bound exactly).
* **Speculation is result-invariant** — under the same seeded ``task.slow``
  chaos plan, speculation on/off returns byte-identical rows and fires the
  byte-identical fault event log; only the elapsed-time model moves.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.scheduler import SpeculationConfig
from repro.faults import FaultPlan

from tests.helpers import make_platform, settle_stats, setup_sales_lake, stage_stats

NO_SPEC = SpeculationConfig(enabled=False)

SALES_SQL = (
    "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
    "FROM ds.sales GROUP BY region ORDER BY region"
)


def random_costs(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(0.05, 25.0) for _ in range(n)]


def run_stage(slots, costs, *, faults=None, speculation=None):
    """One scan stage as a one-job pool run; stats carry the verdict."""
    return settle_stats(
        stage_stats(costs), slots, faults=faults, speculation=speculation
    )


class TestSlotsMonotonicity:
    def test_more_slots_never_slower_healthy(self):
        for trial in range(120):
            rng = random.Random(trial)
            costs = random_costs(rng, rng.randint(1, 24))
            prev = None
            for slots in range(1, 10):
                makespan = run_stage(slots, costs, speculation=NO_SPEC).elapsed_ms
                if prev is not None:
                    assert makespan <= prev + 1e-9, (trial, slots, costs)
                prev = makespan

    def test_makespan_bounds(self):
        for trial in range(120):
            rng = random.Random(1000 + trial)
            costs = random_costs(rng, rng.randint(1, 24))
            slots = rng.randint(1, 8)
            makespan = run_stage(slots, costs, speculation=NO_SPEC).elapsed_ms
            lower = max(sum(costs) / slots, max(costs))
            assert lower - 1e-9 <= makespan <= sum(costs) + 1e-9


class TestSkewNeverWins:
    def test_uniform_is_optimal_at_equal_total_work(self):
        # With n a multiple of slots, the uniform split hits the
        # total/slots lower bound exactly; any skewed distribution of the
        # same total work can only match it, never beat it.
        for trial in range(120):
            rng = random.Random(trial)
            slots = rng.randint(1, 6)
            n = slots * rng.randint(1, 5)
            skewed = random_costs(rng, n)
            total = sum(skewed)
            uniform_ms = run_stage(
                slots, [total / n] * n, speculation=NO_SPEC
            ).elapsed_ms
            skewed_ms = run_stage(slots, skewed, speculation=NO_SPEC).elapsed_ms
            assert uniform_ms == pytest.approx(total / slots)
            assert skewed_ms >= uniform_ms - 1e-9, (trial, slots, skewed)


class TestSpeculationResultInvariance:
    def run_sales(self, seed: int, speculation_enabled: bool):
        platform, admin = make_platform()
        setup_sales_lake(platform, admin)
        engine = platform.home_engine
        if not speculation_enabled:
            engine.speculation = NO_SPEC
        platform.ctx.faults.install(
            FaultPlan.parse(["task.slow:rate=0.4:factor=10"], seed=seed)
        )
        result = engine.execute(SALES_SQL, admin)
        events = [(e.op, e.error, e.at_ms) for e in platform.ctx.faults.events]
        return result, events

    @pytest.mark.parametrize("seed", [0, 3, 11, 29])
    def test_rows_and_fault_stream_identical(self, seed):
        on, on_events = self.run_sales(seed, speculation_enabled=True)
        off, off_events = self.run_sales(seed, speculation_enabled=False)
        assert on.rows() == off.rows()
        # Backups never probe the injector: same seed, same fault log.
        assert on_events == off_events
        # Scan-work accounting (slot_ms, bytes) is identical too — only
        # the elapsed-time verdict may differ.
        assert on.stats.bytes_scanned == off.stats.bytes_scanned
        assert on.stats.slot_ms == pytest.approx(off.stats.slot_ms)
        assert on.stats.elapsed_ms <= off.stats.elapsed_ms + 1e-9

    def test_speculation_recovers_makespan_when_stragglers_fire(self):
        recovered_any = False
        for seed in (0, 3, 11, 29):
            on, on_events = self.run_sales(seed, speculation_enabled=True)
            off, _ = self.run_sales(seed, speculation_enabled=False)
            if on_events and on.stats.speculative_count:
                recovered_any = recovered_any or (
                    on.stats.elapsed_ms < off.stats.elapsed_ms
                )
        assert recovered_any  # at least one seed shows a strict win


class TestChaosSlotBounds:
    """Pin the documented scheduler caveat: with stragglers *and*
    speculation, more slots can occasionally be SLOWER (backup timing
    couples to pool state), but never unboundedly — every slot count
    stays under the greedy list-scheduling bound computed from the
    *inflated* (post-straggler) costs.

    A fresh same-seed injector per run keeps the straggler factors
    identical across slot counts: ``task.slow`` probes once per task in
    index order, independent of slots/speculation.
    """

    PLAN = ["task.slow:rate=0.25:factor=6"]

    def injector(self, seed: int):
        from repro.simtime import SimContext

        ctx = SimContext()
        ctx.faults.install(FaultPlan.parse(self.PLAN, seed=seed))
        return ctx.faults

    def costs_for(self, trial: int) -> list[float]:
        rng = random.Random(trial)
        return random_costs(rng, rng.randint(2, 24))

    def test_inflated_list_scheduling_bound_holds_for_every_slot_count(self):
        for trial in range(60):
            costs = self.costs_for(trial)
            for slots in range(1, 9):
                off = run_stage(
                    slots, costs, faults=self.injector(trial), speculation=NO_SPEC
                )
                on = run_stage(slots, costs, faults=self.injector(trial))
                inflated = [r.duration_ms for r in off.task_timeline]
                bound = sum(inflated) / slots + max(inflated) + 1e-9
                assert off.elapsed_ms <= bound, (trial, slots)
                # Speculation never makes the stage slower, so the same
                # bound caps the speculative makespan too.
                assert on.elapsed_ms <= off.elapsed_ms + 1e-9, (trial, slots)
                assert on.elapsed_ms <= bound, (trial, slots)

    def test_straggler_factors_independent_of_slot_count(self):
        for trial in (0, 17, 32, 45):
            costs = self.costs_for(trial)
            reference = None
            for slots in (1, 3, 8):
                off = run_stage(
                    slots, costs, faults=self.injector(trial), speculation=NO_SPEC
                )
                factors = tuple(
                    r.slow_factor
                    for r in sorted(off.task_timeline, key=lambda r: r.task)
                )
                if reference is None:
                    reference = factors
                assert factors == reference, (trial, slots)

    def test_caveat_more_slots_occasionally_slower_with_speculation(self):
        """The documented non-theorem, pinned: trial 32 of the seeded
        sweep gets strictly slower going from 3 to 4 slots when
        stragglers and speculation interact — yet stays within the
        inflated bound (checked above for every trial)."""
        costs = self.costs_for(32)
        three = run_stage(3, costs, faults=self.injector(32))
        four = run_stage(4, costs, faults=self.injector(32))
        assert four.elapsed_ms > three.elapsed_ms + 1e-6
