"""Run every workload over several seeds and summarise the spread, or
write ``BENCHMARK.json``.

    python3 perfbench/suite.py --seeds 1-10            # untraced
    python3 perfbench/suite.py --seeds 1-3 --trace 1   # per-layer
    python3 perfbench/suite.py --write-spec                         # BENCHMARK.json

Each run is a fresh ``perfbench/run.py`` process, one after another (never
in parallel: the runs would contend for the cores they measure). For every
end-to-end metric the summary gives the median over seeds and the spread,
the distance between the first and third quartiles as a share of the
median, and flags a spread above a third of the metric's bound. With
``--json`` every run's result is also written to a file for comparison
against a second set of runs (``--compare``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# Longer raw-wall runs (30 s, 40 s) did not narrow the spread between runs
# on a shared 2-vCPU machine, whose slow periods last minutes; the
# calibration kernel (calibrate.py) does, so runs stay short and a full set
# of runs of every workload stays within its time budget.
RUN_SECONDS = 20


def write_spec(path: str) -> None:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": wl.why} for name, wl in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in PER_LAYER
        ],
    }
    with open(path, "w") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(f"{workload} seed {seed}: INCORRECT\n{proc.stderr}")
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR / median) with Python's default quartiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def summarise(results: dict[str, list[dict]], trace: int) -> bool:
    ok = True
    bounds = {name: bound for name, _u, _b, bound in END_TO_END}
    for workload, runs in results.items():
        print(f"== {workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}")
        ok &= all(r["correct"] for r in runs)
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, rel = spread(values)
            flag = ""
            if not trace and name != "setup_s" and rel > bounds[name] / 3:
                flag = f"  <-- spread above bound/3 ({bounds[name] / 3:.3f})"
                ok = False
            print(f"  {name:42s} median {med:14.4f}  iqr/median {rel:7.4f}{flag}")
    return ok


def compare(first: dict[str, list[dict]], second: dict[str, list[dict]]) -> bool:
    """Second set's median no worse than the first's by more than the bound."""
    ok = True
    for workload in first:
        for name, _unit, better, bound in END_TO_END:
            m1 = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            m2 = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
            verdict = "ok" if worse <= bound else "WORSE"
            ok &= verdict == "ok"
            print(f"  {workload:13s} {name:12s} {m1:12.4f} -> {m2:12.4f}  worse by {worse:+.4f} (bound {bound}) {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's result here")
    parser.add_argument("--compare", help="a --json file from an earlier set of runs")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args()

    if args.write_spec:
        write_spec(os.path.join(ROOT, "BENCHMARK.json"))
        return 0
    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            results.setdefault(workload, []).append(run_one(workload, seed, args.seconds, args.trace))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh)
    ok = summarise(results, args.trace)
    if args.compare:
        with open(args.compare) as fh:
            ok &= compare(json.load(fh), results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
