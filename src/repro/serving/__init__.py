"""Concurrent multi-query serving: shared slot pool + async jobs API.

:mod:`repro.serving.pool` is the platform-level resource and the one
elapsed-time model — a deterministic discrete-event :class:`SlotPool`
that N in-flight queries draw slots from, with admission control,
fair-share (or weighted reservation) allocation across principals,
optional inter-stage overlap, straggler injection and speculative
execution; a nested or cross-cloud statement settles as a one-job run on
its own pool. :mod:`repro.serving.jobs` is the BigQuery-shaped surface over
it: ``submit() -> QueryJob`` with ``state``/``wait()``/``cancel()``, a
``jobs.*`` REST facade, and the PENDING → RUNNING → terminal lifecycle
recorded into ``INFORMATION_SCHEMA.JOBS``. :mod:`repro.serving.workload`
drives the mixed multi-principal workload behind ``python -m repro serve``.
"""

from repro.serving.jobs import JobQueue, JobsApi, QueryJob, ServingConfig
from repro.serving.pool import (
    JobVerdict,
    PoolArrival,
    PoolExecution,
    PoolOpaque,
    PoolStage,
    SlotPool,
)

__all__ = [
    "JobQueue",
    "JobsApi",
    "JobVerdict",
    "PoolArrival",
    "PoolExecution",
    "PoolOpaque",
    "PoolStage",
    "QueryJob",
    "ServingConfig",
    "SlotPool",
]
