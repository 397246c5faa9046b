#!/usr/bin/env bash
# Repo gate: lint (when ruff is available) + the tier-1 test suite + the
# chaos determinism gate (same seed, two processes, identical outcomes) +
# the data-cache coherence gate (warm == cold rows, hit ratio > 0, and the
# report is byte-identical across processes) + the scheduler determinism
# gate (same seed, two processes, byte-identical task timelines) + the
# serve determinism gate (same seed, two processes, byte-identical
# multi-principal reports, plain and under chaos) + the monitor
# determinism gate (same seed, two processes, byte-identical telemetry
# reports — RESERVATION_TIMELINE tie-out, alert log, variance table —
# plain and under chaos) + the transaction determinism gate (same seed,
# two processes, byte-identical chaos-workload reports — commit timeline,
# recovery actions, torn-state oracle — plain and under chaos) + the
# readsession determinism gate (same seed, two processes, byte-identical
# session-handoff reports — scaling/rebalance legs, row CRCs, consumer
# timelines — plain and under chaos) + the query-cache coherence gate
# (warm result-cache hit is byte-identical to the cold run with zero scan
# and strictly fewer GETs, DML invalidates by keying without flushing,
# and the walkthrough is byte-identical across processes).
# Usage: scripts/check.sh  (from the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== pytest (tier 1) =="
PYTHONPATH=src python -m pytest -x -q

# One temp directory holds every gate's two reports.
gate_dir="$(mktemp -d)"
trap 'rm -rf "$gate_dir"' EXIT

# determinism_gate <label> <cli args...>
# Runs `python -m repro <cli args...>` twice and diffs the two reports
# byte-for-byte. When the args end in `--json`, the report path is
# appended and the CLI writes its JSON there (stdout is dropped);
# otherwise stdout is the report. A CLI that exits non-zero fails the
# script (set -e), so every CLI's own self-checks stay gates too.
determinism_gate() {
    local label=$1 run report
    shift
    for run in a b; do
        report="$gate_dir/$label.$run"
        if [[ ${!#} == --json ]]; then
            PYTHONPATH=src python -m repro "$@" "$report" >/dev/null
        else
            PYTHONPATH=src python -m repro "$@" > "$report"
        fi
    done
    if diff -u "$gate_dir/$label.a" "$gate_dir/$label.b"; then
        echo "$label run is deterministic"
    else
        echo "$label determinism gate FAILED: two runs produced different reports" >&2
        exit 1
    fi
}

echo "== data-cache coherence gate =="
# The CLI itself exits non-zero if the warm rows differ from the cold run
# or no bytes were served from cache; diffing two runs pins determinism.
determinism_gate cache-stats cache-stats

echo "== query-cache coherence gate =="
# The CLI itself exits non-zero if the warm hit's rows differ from the
# cold run, the hit scans any bytes or fails to save GETs, or DML serves
# a stale entry / flushes the tier; diffing two runs pins determinism.
determinism_gate querycache querycache

echo "== chaos determinism gate =="
determinism_gate chaos chaos --suite --seed 1234 --rate 0.05 --json

echo "== scheduler determinism gate =="
# The CLI itself exits non-zero if speculation changes any row or makes
# the query slower; diffing two same-seed reports pins the task timeline
# (slot placement, straggler draws, backup launches) byte-for-byte.
determinism_gate schedule schedule --seed 1234 --json

echo "== serve determinism gate =="
# The CLI itself exits non-zero if the in-memory job handles disagree
# with INFORMATION_SCHEMA.JOBS; diffing two same-seed reports pins the
# whole multi-principal run (arrivals, admission order, queue waits,
# result CRCs) byte-for-byte — with and without the chaos plan.
determinism_gate serve serve --smoke --seed 1234 --json
determinism_gate serve-chaos serve --smoke --chaos --seed 1234 --json

echo "== monitor determinism gate =="
# The CLI itself exits non-zero if the RESERVATION_TIMELINE tie-out
# breaks or a chaos run fires no burn-rate alert; diffing two same-seed
# reports pins the whole telemetry pipeline (scrape grid, reservation
# intervals, alert transitions, variance attribution) byte-for-byte —
# with and without the chaos plan.
determinism_gate monitor monitor --smoke --seed 1234 --json
determinism_gate monitor-chaos monitor --smoke --chaos --seed 1234 --json

echo "== transaction determinism gate =="
# The CLI itself exits non-zero if the chaos oracle sees a torn state, a
# dangling intent survives recovery, or any transaction fails to land;
# diffing two same-seed reports pins the whole run (writer interleaving,
# conflict losers, crash points, recovery actions, commit timeline)
# byte-for-byte — with and without the chaos plan.
determinism_gate txn txn --smoke --seed 1234 --json
determinism_gate txn-chaos txn --smoke --chaos --seed 1234 --json

echo "== readsession determinism gate =="
# The CLI itself exits non-zero if rebalancing changes any returned row
# (CRC mismatch) or fails to recover lag-induced makespan inflation;
# diffing two same-seed reports pins the whole handoff run (stream
# layout, consumer timelines, rebalance moves, row CRCs) byte-for-byte —
# with and without the chaos plan.
determinism_gate readsession readsession --smoke --seed 1234 --json
determinism_gate readsession-chaos readsession --smoke --chaos --seed 1234 --json
