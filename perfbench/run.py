"""Run one benchmark workload, untraced (end-to-end metrics) or traced
(per-layer metrics), and print its report.

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable report (stated inputs, every metric by name and
unit, answer-check and self-check results).

``--trace 0`` measures for ``--seconds`` with no wrappers installed and
reports the end-to-end metrics, each time scaled by the calibration
kernel run beside it (``calibrate.py``); the report also prints the
unscaled wall figures. ``--trace 1`` repeats pairs of identical
episodes on freshly set-up platforms, one untraced and one under the
boundary tracer, and reports the per-layer metrics. It fails unless both
episodes of each pair give identical row CRCs and simulated ms, and every
boundary the workload is predicted to hit recorded calls.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Setups per untraced run; setup_s is their median.
SETUP_REPS = 5

# BENCHMARK.json's end-to-end metrics: (name, unit, better, bound). Every
# time is wall time scaled to the calibration kernel's reference speed
# (see calibrate.py): on a shared 2-vCPU machine whole runs land in periods
# 30-50% slower than their neighbours, which put the ten-seed spread of the
# raw wall figures at 0.2-0.45 of the median; scaled, it is 0.02-0.07,
# except analytics' op_p50_ms at ~0.12, where the seed's data decides which
# of two statements sits at the median (43-45 or 48-51 ms, the same for a
# seed on every run). setup_s moves with the seed too (analytics: 2.6-4.3 s,
# within 5% for one seed). op_tail_ms is the workload's ``tail_q``
# percentile. peak_rss_mb is read after the first episode, a fixed amount
# of work, and spreads under 0.01.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
# sim_ms is deterministic for a seed and moves with the seed's inputs, so
# it has no run-to-run spread to bound: the untraced report prints it, and
# the traced run reports it as the per-layer metric simtime.episode_ms
# after checking that tracing left it unchanged.

# What the generic op_* metrics are called on each workload in the report.
E2E_ALIASES = {
    "analytics": {"op_p50_ms": "query_p50_ms", "op_tail_ms": "query_p90_ms", "ops_per_s": "queries_per_s"},
    "readapi_scan": {"op_p50_ms": "session_p50_ms", "op_tail_ms": "session_p95_ms", "ops_per_s": "sessions_per_s"},
    "txn_rw": {"op_p50_ms": "commit_p50_ms", "op_tail_ms": "commit_p95_ms", "ops_per_s": "commits_per_s"},
}


def _import_program():
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit("perfbench: src/repro not found; run from the root of a checkout")
    # Import perfbench as a package from the checkout root, not this
    # script's directory (whose module names would shadow the stdlib's).
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (failed ops are ``inf`` and sort last)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _platform(state):
    return state[0]


def _total_s(latencies: dict[str, list[float]]) -> float:
    return sum(sum(v) for v in latencies.values()) / 1000.0


def run_untraced(wl, seconds: float) -> tuple[dict, dict, list[str]]:
    from perfbench.calibrate import REFERENCE_KERNEL_MS, Sampler
    from perfbench.workloads import OpLog

    errors: list[str] = []
    wl.reference()
    setups, setup_sims, episodes, spans = [], [], [], []
    with Sampler() as sampler:
        state = None
        for _ in range(SETUP_REPS):
            state = None
            gc.collect()
            setups.append(OpLog(sampler=sampler))
            state = wl.setup(setups[-1])
            setup_sims.append(_platform(state).ctx.clock.now_ms)

        log = OpLog(sampler=sampler)
        gc.collect()
        deadline = time.perf_counter() + seconds
        while not episodes or time.perf_counter() < deadline:
            ep = wl.prepare(state)
            first = len(log.ops)
            episodes.append(wl.episode(ep, len(episodes), log))
            spans.append((first, len(log.ops)))  # this episode's slice of log.ops
            if len(episodes) == 1:
                # Read the high-water mark after a fixed amount of work: later
                # episodes add garbage in proportion to the machine's speed.
                rss_mb = peak_rss_mb()
    if len(set(setup_sims)) != 1:
        errors.append(f"set-up sim clock differs between identical set-ups: {setup_sims}")
    if wl.name == "txn_rw" and len({e.sim_ms for e in episodes}) != 1:
        errors.append("identical transaction episodes gave different sim_ms")

    # A set-up's time is the sum of its steps' and warm-up operations' times.
    setup_times = [_total_s(s.scaled()) for s in setups]
    throughputs = []
    for first, last in spans:
        scaled = log.scaled(first, last)
        throughputs.append(len(scaled[wl.primary]) / _total_s(scaled))
    primary = log.scaled()[wl.primary]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": percentile(primary, 0.5),
        "op_tail_ms": percentile(primary, wl.tail_q),
        "ops_per_s": statistics.median(throughputs),
        "peak_rss_mb": rss_mb,
    }
    wall = log.wall()
    report = {
        "wall": {
            "setup_s": statistics.median(_total_s(s.wall()) for s in setups),
            "op_p50_ms": percentile(wall[wl.primary], 0.5),
            "op_tail_ms": percentile(wall[wl.primary], wl.tail_q),
            "ops_per_s": len(wall[wl.primary]) / _total_s(wall),
            "kernel_ms": statistics.median(sampler.kernel_ms),
            "reference_kernel_ms": REFERENCE_KERNEL_MS,
        },
        "setup_s_each": setup_times,
        "episodes": len(episodes),
        "ops": {kind: len(v) for kind, v in log.latencies.items()},
        "beyond_tail": sum(v > metrics["op_tail_ms"] for v in primary),
        "attempted": log.attempted,
        "failed": log.failed,
        "named": _named_metrics(wl, log, metrics, episodes[0].sim_ms),
        "inputs": wl.inputs(ep),
    }
    return metrics, report, errors


def _named_metrics(wl, log, metrics: dict, sim_ms: float) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric under the name the workload gives it."""
    units = {name: unit for name, unit, _, _ in END_TO_END}
    named = {
        E2E_ALIASES[wl.name].get(name, name): (value, units[name])
        for name, value in metrics.items()
    }
    named["sim_ms"] = (sim_ms, "sim-ms")
    named["failed_ratio"] = (log.failed / log.attempted, "ratio")
    scaled = log.scaled()
    if wl.name == "analytics":
        named["answer_drift"] = (len(wl.drift), "count")
    if wl.name == "readapi_scan":
        busy_s = sum(scaled[wl.primary]) / 1000.0
        named["scan_rows_per_s"] = (log.counts.get("rows", 0) / busy_s, "rows/s")
    if wl.name == "txn_rw":
        reads = scaled.get("query", [])
        named["query_p50_ms"] = (percentile(reads, 0.5), "ms")
        named["query_p95_ms"] = (percentile(reads, 0.95), "ms")
        background = scaled.get("background", [])
        named["background_p50_ms"] = (percentile(background, 0.5), "ms")
    return named


def _cache_counters(platform) -> dict[str, dict]:
    out = dict(platform.data_cache.snapshot())
    out["plan"] = platform.query_cache.snapshot()["plan"]
    return out


def _delta_ratio(before: dict, after: dict, tier: str) -> float:
    hits = after[tier]["hits"] - before[tier]["hits"]
    misses = after[tier]["misses"] - before[tier]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def _log_records(platform) -> int:
    total = 0
    for dataset in platform.catalog.dataset_names():
        for table in platform.catalog.list_tables(dataset):
            if platform.bigmeta.has_table(table.table_id):
                total += len(platform.bigmeta.history(table.table_id))
    return total


def traced_pair(wl, traced_first: bool) -> tuple[dict, object, object, list[str]]:
    """One untraced and one traced run of episode 0, each after a fresh
    set-up; returns the traced episode's per-layer values."""
    from perfbench.layers import BOUNDARIES, PREDICTED_HITS, per_layer_values
    from perfbench.tracer import Tracer
    from perfbench.workloads import OpLog

    runs = {}
    tracer = Tracer(BOUNDARIES)
    # Alternate which side runs first, so warm-up effects of the process
    # do not bias the overhead ratio.
    for traced in (traced_first, not traced_first):
        ep = wl.prepare(wl.setup(OpLog()))
        platform = _platform(ep)
        log = OpLog()
        caches, records = _cache_counters(platform), _log_records(platform)
        gc.collect()
        if traced:
            with tracer:
                episode = wl.episode(ep, 0, log)
        else:
            episode = wl.episode(ep, 0, log)
        runs[traced] = (log, episode, caches, _cache_counters(platform), records, _log_records(platform))

    (log_u, ep_u, *_), (log_t, ep_t, before, after, rec0, rec1) = runs[False], runs[True]
    errors = []
    if ep_u.crcs != ep_t.crcs:
        errors.append("traced episode's row CRCs differ from the untraced episode's")
    if ep_u.sim_ms != ep_t.sim_ms:
        errors.append(f"traced sim_ms {ep_t.sim_ms!r} != untraced {ep_u.sim_ms!r}")
    stats = tracer.stats
    for boundary in PREDICTED_HITS[wl.name]:
        if stats[boundary].calls == 0:
            errors.append(f"predicted boundary {boundary} recorded zero calls")

    sessions = stats["storageapi.create_read_session"].counters
    user_bytes = log_t.counts.get("user_bytes", 0)
    extra = {
        "cache.plan.hit_ratio": _delta_ratio(before, after, "plan"),
        "cache.chunk.hit_ratio": _delta_ratio(before, after, "chunk"),
        "cache.chunk.evictions": after["chunk"]["evictions"] - before["chunk"]["evictions"],
        "cache.footer.hit_ratio": _delta_ratio(before, after, "footer"),
        "storageapi.files_read_ratio": (
            sessions["files_read"] / sessions["files_total"] if sessions["files_total"] else 0.0
        ),
        "objectstore.cas_failed": stats["objectstore.put"].raised["PreconditionFailedError"],
        "objectstore.write_amp": (
            stats["objectstore.put"].counters["bytes"] / user_bytes if user_bytes else 0.0
        ),
        "metastore.log_records": rec1 - rec0,
        "trace.overhead_ratio": log_t.busy_s / log_u.busy_s,
        "simtime.episode_ms": ep_t.sim_ms,
        "bench.answer_drift": 0,
        "txn.conflicts": 0,
        "txn.aborts": 0,
        **wl.extra(log_t),
    }
    return per_layer_values(stats, extra), log_u, log_t, errors


def run_traced(wl, seconds: float) -> tuple[dict, dict, list[str]]:
    from perfbench.layers import PER_LAYER

    wl.reference()
    pairs, errors, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        values, log_u, log_t, pair_errors = traced_pair(wl, traced_first=len(pairs) % 2 == 1)
        pairs.append(values)
        errors.extend(pair_errors)
        attempted += log_u.attempted + log_t.attempted
        failed += log_u.failed + log_t.failed
    metrics = {
        name: statistics.median(p[name] for p in pairs) for name, _, _, _ in PER_LAYER
    }
    for name, _, _, _ in PER_LAYER:
        deterministic = name.endswith((".calls", ".rows", ".bytes", ".chars", "episode_ms"))
        if deterministic and len({p[name] for p in pairs}) != 1:
            errors.append(f"{name} differs between identical traced episodes")
    report = {"pairs": len(pairs), "attempted": attempted, "failed": failed}
    return metrics, report, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS, AnswerError

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        if args.trace:
            metrics, report, errors = run_traced(wl, args.seconds)
        else:
            metrics, report, errors = run_untraced(wl, args.seconds)
    except AnswerError as exc:
        print(f"ANSWER CHECK FAILED: {exc}", file=sys.stderr)
        metrics, report, errors = {}, {"attempted": 1, "failed": 0}, [str(exc)]

    if args.trace:
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        print(f"per-layer (median over {report.get('pairs', 0)} traced episodes):")
        for name, value in metrics.items():
            print(f"  {name:42s} {value:14.4f} {units[name]}")
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        if metrics:
            print("inputs: " + json.dumps(report["inputs"], sort_keys=True))
            print(f"setup_s each: {[round(t, 4) for t in report['setup_s_each']]}; "
                  f"episodes: {report['episodes']}; ops: {report['ops']}; "
                  f"{wl.primary} samples beyond p{round(wl.tail_q * 100)}: {report['beyond_tail']}")
            print("unscaled wall: " + json.dumps({k: round(v, 4) for k, v in report["wall"].items()}))
            for name, (value, unit) in report["named"].items():
                print(f"  {name:20s} {value:14.4f} {unit}")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print("answer checks: " + ("ok" if not errors else f"{len(errors)} failed"))

    result = {
        "correct": not errors,
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
