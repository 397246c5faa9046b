"""Integration tests for the async jobs API (``repro.serving.jobs``).

Drives the BigQuery-shaped surface end to end over a real platform:
submit/wait lifecycle and the PENDING -> RUNNING -> terminal record
trail, FIFO-within-principal and fair-share-across-principals admission
(pinned through observable start times), cancellation of queued vs
running jobs (via the deterministic ``on_admit`` seam), the ``JobsApi``
REST facade, and the headline determinism claim: a seeded 20-job
multi-principal serve run — chaos plan included — replays
byte-identically.
"""

from __future__ import annotations

import json

import pytest

from repro.core.platform import LakehousePlatform, PlatformConfig
from repro.errors import AnalysisError, JobCancelledError, NotFoundError
from repro.faults import FaultPlan
from repro.security.iam import Role
from repro.serving.jobs import ServingConfig
from repro.serving.workload import run_serve

from tests.helpers import setup_sales_lake

SALES_SQL = (
    "SELECT region, SUM(amount) AS total FROM ds.sales "
    "WHERE year = 2023 GROUP BY region ORDER BY total DESC"
)
POINT_SQL = "SELECT COUNT(*) AS n FROM ds.sales WHERE region = 'eu'"


def serving_platform(**serving_kwargs):
    platform = LakehousePlatform(
        PlatformConfig(serving=ServingConfig(**serving_kwargs))
    )
    admin = platform.admin_user()
    setup_sales_lake(platform, admin)
    return platform, admin


def analyst(platform, name):
    user = platform.create_user(name, [Role.DATA_VIEWER, Role.JOB_USER])
    platform.iam.grant("connections/ds.lakeconn", Role.CONNECTION_USER, user)
    return user


class TestLifecycle:
    def test_submit_is_pending_until_waited(self):
        platform, admin = serving_platform()
        job = platform.submit(SALES_SQL, admin)
        assert job.state == "PENDING"
        assert not job.done
        record = platform.job(job.job_id)
        assert record.state == "PENDING"
        assert record.creation_ms == job.creation_ms
        result = job.wait()
        assert job.state == "SUCCEEDED"
        assert record.state == "SUCCEEDED"
        assert result.rows() == platform.home_engine.execute(
            SALES_SQL, admin
        ).rows()
        assert record.end_ms >= record.start_ms >= record.creation_ms
        assert record.queue_wait_ms == record.start_ms - record.creation_ms

    def test_execute_is_submit_plus_wait(self):
        # The blocking entry point is a special case of the async one:
        # both paths land identical rows and identical record shapes.
        platform, admin = serving_platform()
        via_execute = platform.home_engine.execute(SALES_SQL, admin)
        blocking = platform.history.last
        job = platform.submit(SALES_SQL, admin)
        via_jobs = job.wait()
        assert via_jobs.rows() == via_execute.rows()
        async_record = platform.history.last
        assert async_record is not blocking
        assert blocking.state == async_record.state == "SUCCEEDED"
        assert async_record.total_ms == pytest.approx(
            via_jobs.stats.elapsed_ms
        )

    def test_wait_is_idempotent(self):
        platform, admin = serving_platform()
        job = platform.submit(SALES_SQL, admin)
        assert job.wait() is job.wait() is job.result()

    def test_validation_failure_records_failed_and_raises(self):
        platform, admin = serving_platform()
        with pytest.raises(AnalysisError, match="snapshot_ms"):
            platform.submit(
                "CREATE TABLE ds.t AS SELECT * FROM ds.sales",
                admin,
                snapshot_ms=1.0,
            )
        record = platform.history.last
        assert record.state == "FAILED"
        assert "snapshot_ms" in record.error

    def test_failed_job_wait_reraises(self):
        platform, admin = serving_platform()
        job = platform.submit("SELECT * FROM ds.missing", admin)
        assert job.state == "PENDING"  # parse-valid: fails at execution
        with pytest.raises(NotFoundError):
            job.wait()
        assert job.state == "FAILED"
        with pytest.raises(NotFoundError):  # terminal: re-raised, not re-run
            job.wait()
        assert platform.job(job.job_id).state == "FAILED"


class TestInlineMatchesDrained:
    """The SELECT inside a CTAS runs inline and settles as a one-job pool
    run; submitted on its own, the same statement is drained over the
    shared pool. Same seed and platform state: the same verdict."""

    SKEW_SQL = (
        "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
        "FROM demo.events GROUP BY region"
    )

    def select_job(self, via_ctas: bool):
        from repro.__main__ import _build_skewed_platform

        platform, admin = _build_skewed_platform()
        platform.ctx.faults.install(
            FaultPlan.parse(["task.slow:rate=0.3:factor=8"], seed=7)
        )
        engine = platform.home_engine
        if via_ctas:
            engine.execute(f"CREATE TABLE demo.summary AS {self.SKEW_SQL}", admin)
        else:
            engine.execute(self.SKEW_SQL, admin)
        job_id, state, total_ms, queue_wait_ms = engine.execute(
            "SELECT job_id, state, total_ms, queue_wait_ms FROM INFORMATION_SCHEMA.JOBS "
            "WHERE kind = 'select' ORDER BY job_id LIMIT 1",
            admin,
        ).rows()[0]
        attempts = engine.execute(
            "SELECT start_ms, duration_ms, tags FROM INFORMATION_SCHEMA.JOBS_TIMELINE "
            f"WHERE job_id = '{job_id}' AND name = 'scheduler.task' "
            "ORDER BY span_id",
            admin,
        ).rows()
        return state, total_ms, queue_wait_ms, attempts

    def test_inline_and_drained_verdicts_agree(self):
        drained = self.select_job(via_ctas=False)
        inline = self.select_job(via_ctas=True)
        state, total_ms, queue_wait_ms, attempts = drained
        assert state == inline[0] == "SUCCEEDED"
        assert total_ms == inline[1]
        assert queue_wait_ms == inline[2] == 0.0
        assert attempts == inline[3]
        # Non-trivial: a straggler fired and the skewed stage has several
        # attempts beside the compute partitions.
        assert any("slow_factor=8" in tags for _, _, tags in attempts)
        assert sum("stage=compute" not in tags for _, _, tags in attempts) > 1


class TestAdmissionOrdering:
    def test_fifo_within_principal(self):
        platform, admin = serving_platform(max_concurrent_jobs=1)
        alice = analyst(platform, "alice")
        jobs = []
        for _ in range(3):
            jobs.append(platform.submit(POINT_SQL, alice))
            platform.ctx.clock.advance(1.0)
        jobs[-1].wait()
        starts = [job.start_ms for job in jobs]
        assert all(job.state == "SUCCEEDED" for job in jobs)
        assert starts == sorted(starts)
        # One seat: each later job waits for the previous one's makespan.
        assert jobs[1].queue_wait_ms > 0
        assert jobs[2].queue_wait_ms > jobs[1].queue_wait_ms

    def test_fair_share_across_principals(self):
        # alice queues three jobs before bob's lands; with one seat the
        # pool still alternates: bob runs second, not behind her backlog.
        platform, admin = serving_platform(max_concurrent_jobs=1)
        alice, bob = analyst(platform, "alice"), analyst(platform, "bob")
        a_jobs = [platform.submit(POINT_SQL, alice) for _ in range(3)]
        platform.ctx.clock.advance(1.0)
        b_job = platform.submit(POINT_SQL, bob)
        platform.drain()
        assert a_jobs[0].start_ms < b_job.start_ms < a_jobs[1].start_ms
        assert a_jobs[1].start_ms < a_jobs[2].start_ms

    def test_concurrent_batch_records_full_lifecycle(self):
        platform, admin = serving_platform(max_concurrent_jobs=4)
        users = [analyst(platform, f"u{i}") for i in range(3)]
        jobs = []
        for i in range(6):
            jobs.append(platform.submit(POINT_SQL, users[i % 3]))
            platform.ctx.clock.advance(2.0)
        platform.drain()
        for job in jobs:
            record = platform.job(job.job_id)
            assert record.state == "SUCCEEDED"
            assert record.end_ms >= record.start_ms >= record.creation_ms
            assert record.queue_wait_ms == pytest.approx(
                record.start_ms - record.creation_ms
            )
        # The batch genuinely overlapped: someone started before an
        # earlier submitter finished.
        assert any(
            later.start_ms < earlier.end_ms
            for i, earlier in enumerate(jobs)
            for later in jobs[i + 1 :]
        )


class TestCancellation:
    def test_cancel_queued_job_before_drain(self):
        platform, admin = serving_platform()
        keep = platform.submit(SALES_SQL, admin)
        drop = platform.submit(SALES_SQL, admin)
        before = platform.ctx.metrics.counter(
            "repro_jobs_cancelled_total", "jobs cancelled before completion"
        ).total()
        assert drop.cancel() is True
        assert drop.state == "CANCELLED"
        assert drop.cancel() is False  # already terminal
        with pytest.raises(JobCancelledError):
            drop.wait()
        assert keep.wait().num_rows > 0
        record = platform.job(drop.job_id)
        assert record.state == "CANCELLED"
        assert record.error == "job cancelled"
        assert record.start_ms == 0.0  # never admitted
        counter = platform.ctx.metrics.counter(
            "repro_jobs_cancelled_total", "jobs cancelled before completion"
        )
        assert counter.total() == before + 1

    def test_cancel_queued_job_mid_drain(self):
        # One seat: job2 is still in the pool's admission queue when job1
        # runs; cancelling it there must drop it without admission.
        platform, admin = serving_platform(max_concurrent_jobs=1)
        job1 = platform.submit(SALES_SQL, admin)
        job2 = platform.submit(SALES_SQL, admin)
        platform.job_queue.on_admit(
            lambda job: job2.cancel() if job is job1 else None
        )
        job1.wait()
        assert job1.state == "SUCCEEDED"
        assert job2.state == "CANCELLED"
        assert job2.start_ms == 0.0  # cancelled pre-admission: never ran
        assert platform.job(job2.job_id).state == "CANCELLED"

    def test_cancel_running_job_mid_drain(self):
        # Two seats: job1 is mid-flight when job2's admission hook fires;
        # cancellation deschedules its remaining model time.
        platform, admin = serving_platform(max_concurrent_jobs=2)
        alice, bob = analyst(platform, "alice"), analyst(platform, "bob")
        job1 = platform.submit(SALES_SQL, alice)
        platform.ctx.clock.advance(1.0)
        job2 = platform.submit(SALES_SQL, bob)
        platform.job_queue.on_admit(
            lambda job: job1.cancel() if job is job2 else None
        )
        platform.drain()
        assert job1.state == "CANCELLED"
        assert job1.start_ms > 0  # it was admitted and running
        with pytest.raises(JobCancelledError):
            job1.wait()
        assert job2.state == "SUCCEEDED"
        record = platform.job(job1.job_id)
        assert record.state == "CANCELLED"
        # Torn down at job2's admission instant, not at its own end.
        assert record.end_ms == pytest.approx(job2.start_ms)


class TestJobsApiFacade:
    def test_insert_get_query_results(self):
        platform, admin = serving_platform()
        resource = platform.jobs_api.insert(SALES_SQL, admin)
        job_id = resource["jobReference"]["jobId"]
        assert resource["status"]["state"] == "PENDING"
        assert resource["configuration"]["query"]["query"] == SALES_SQL
        results = platform.jobs_api.get_query_results(job_id)
        assert results["jobComplete"] is True
        assert results["totalRows"] == len(results["rows"]) > 0
        assert [f["name"] for f in results["schema"]["fields"]] == [
            "region", "total",
        ]
        done = platform.jobs_api.get(job_id)
        assert done["status"]["state"] == "SUCCEEDED"
        stats = done["statistics"]
        assert stats["endTime"] >= stats["startTime"] >= stats["creationTime"]

    def test_cancel_and_unknown_job(self):
        platform, admin = serving_platform()
        resource = platform.jobs_api.insert(SALES_SQL, admin)
        cancelled = platform.jobs_api.cancel(resource["jobReference"]["jobId"])
        assert cancelled["status"]["state"] == "CANCELLED"
        with pytest.raises(NotFoundError):
            platform.jobs_api.get("job_999999")

    def test_failed_job_resource_carries_error(self):
        platform, admin = serving_platform()
        resource = platform.jobs_api.insert("SELECT * FROM ds.missing", admin)
        job = platform.job_queue.get(resource["jobReference"]["jobId"])
        with pytest.raises(NotFoundError):
            job.wait()
        failed = platform.jobs_api.get(job.job_id)
        assert failed["status"]["state"] == "FAILED"
        assert "ds.missing" in failed["status"]["errorResult"]["message"]


class TestSeededReplay:
    """The tentpole determinism claim, pinned at 20-job scale."""

    def test_twenty_job_replay_is_byte_identical(self):
        first = run_serve(seed=11, jobs=20, scale=0.05, analysts=4)
        second = run_serve(seed=11, jobs=20, scale=0.05, analysts=4)
        assert first["states"] == {"SUCCEEDED": 20}
        assert first["tie_out_ok"]
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_chaos_replay_is_byte_identical(self):
        chaos = ["objectstore.get:rate=0.25:max=40", "task.slow:rate=0.15:factor=4"]
        first = run_serve(seed=11, jobs=20, scale=0.05, analysts=4, chaos=chaos)
        second = run_serve(seed=11, jobs=20, scale=0.05, analysts=4, chaos=chaos)
        assert first["tie_out_ok"]
        assert sum(first["states"].values()) == 20
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_different_seed_changes_arrivals(self):
        a = run_serve(seed=1, jobs=6, scale=0.05, analysts=2)
        b = run_serve(seed=2, jobs=6, scale=0.05, analysts=2)
        assert [j["creation_ms"] for j in a["jobs"]] != [
            j["creation_ms"] for j in b["jobs"]
        ]
