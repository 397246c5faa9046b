"""E12-DC — §3.3/§3.4: warm-over-cold speedup from the data cache.

The paper closes the lake/managed-storage gap by caching columnar *data*
(footers, column chunks, dictionaries) next to the slots, keyed by object
generation so mutations invalidate naturally. This bench repeats the
TPC-H-lite power run twice on a cache-enabled engine and twice on a
cache-disabled one (the always-cold baseline, i.e. the pre-cache
behavior). The metadata cache is primed up front in both configurations
so the deltas isolate the *data* cache.

Three observations matter:

* the cache-enabled repeat pass (every chunk warm) beats the always-cold
  baseline by >= 2x with a byte-level hit ratio > 0.8;
* even the enabled *first* pass beats the baseline — queries within one
  pass share tables (q01 warms ``lineitem`` for q03/q05/...), which is
  exactly the slot-local reuse the paper describes;
* the disabled control shows no repeat effect (both its passes are cold).

Recorded in the bench report (``BENCH_PR10.json``) under ``e12_dc``.
"""

from repro.bench import (
    build_tpch_platform,
    format_table,
    power_run,
    record_bench,
    record_power_run,
)
from repro.cache import CacheConfig

SCALE = 1.0
LINEITEM_FILES = 4


def _two_passes(data_cache: CacheConfig | None):
    """(platform, first_result, repeat_result) on one engine/platform."""
    platform, admin, engine, queries = build_tpch_platform(
        scale=SCALE, data_cache=data_cache, lineitem_files=LINEITEM_FILES
    )
    # Prime the metadata cache up front (background refresh, not query
    # time) so the pass-over-pass delta isolates the *data* cache.
    for table in platform.catalog.list_tables("tpch"):
        platform.read_api.refresh_metadata_cache(table)
    first = power_run(engine, queries, admin)
    repeat = power_run(engine, queries, admin)
    return platform, first, repeat


def _hit_ratio(result) -> float:
    hit = sum(s.cache_hit_bytes for s in result.query_stats.values())
    scanned = sum(s.bytes_scanned for s in result.query_stats.values())
    return hit / (hit + scanned) if hit + scanned else 0.0


def test_e12_dc_warm_over_cold_speedup(benchmark):
    platform, first, warm = benchmark.pedantic(
        lambda: _two_passes(None), rounds=1, iterations=1
    )
    _, cold, cold_repeat = _two_passes(CacheConfig(enabled=False))

    rows = []
    for name in cold.query_stats:
        speedup = cold.elapsed(name) / max(warm.elapsed(name), 1e-9)
        rows.append(
            (
                name,
                cold.elapsed(name),
                warm.elapsed(name),
                f"{speedup:.1f}x",
                f"{warm.query_stats[name].cache_hit_ratio:.2f}",
            )
        )
    print(
        format_table(
            "E12-DC — TPC-H scans, always-cold vs warm data cache (simulated ms)",
            ["query", "cold", "warm", "speedup", "hit ratio"],
            rows,
        )
    )

    speedup_warm = cold_repeat.total_elapsed_ms / warm.total_elapsed_ms
    speedup_first = cold.total_elapsed_ms / first.total_elapsed_ms
    control_ratio = cold.total_elapsed_ms / cold_repeat.total_elapsed_ms
    hit_ratio = _hit_ratio(warm)
    print(
        format_table(
            "E12-DC — overall wall clock",
            ["configuration", "total ms", "vs always-cold"],
            [
                ("cache off (always cold)", cold_repeat.total_elapsed_ms, "1.0x"),
                ("cache on, first pass", first.total_elapsed_ms, f"{speedup_first:.1f}x"),
                ("cache on, repeat pass", warm.total_elapsed_ms, f"{speedup_warm:.1f}x"),
            ],
        )
    )

    cache = platform.data_cache.snapshot()
    record_power_run("e12_dc", "always_cold", cold_repeat)
    record_power_run("e12_dc", "warm_first_pass", first)
    record_power_run("e12_dc", "warm_repeat_pass", warm)
    record_bench(
        "e12_dc",
        title="TPC-H repeat scans, data cache cold vs warm (§3.3/§3.4)",
        speedup_warm_over_cold=round(speedup_warm, 3),
        speedup_first_pass=round(speedup_first, 3),
        control_repeat_ratio_disabled=round(control_ratio, 3),
        cache_hit_ratio_warm=round(hit_ratio, 4),
        cache_hit_bytes_warm=sum(
            s.cache_hit_bytes for s in warm.query_stats.values()
        ),
        cache_tiers=cache,
    )

    # Acceptance: >= 2x warm-over-cold with hit ratio > 0.8; the disabled
    # control must not show a repeat effect (both its passes are cold);
    # row counts must match cold exactly (the cache never changes answers).
    assert speedup_warm >= 2.0, f"warm speedup {speedup_warm:.2f}x below 2x"
    assert hit_ratio > 0.8, f"warm hit ratio {hit_ratio:.3f} not > 0.8"
    assert abs(control_ratio - 1.0) < 0.05
    assert all(
        warm.query_stats[n].rows_scanned == cold.query_stats[n].rows_scanned
        for n in cold.query_stats
    )
