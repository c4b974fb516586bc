"""Measure run-to-run spread and record a baseline.

    python3 perfbench/baseline.py --seeds 1-10 [--workload NAME ...] [--traced] [--out FILE]

Runs ``perfbench/run.py`` once per seed and workload, untraced, and for each
end-to-end metric prints its median and the distance between its first and
third quartiles as a share of the median, next to the bound that
BENCHMARK.json fixes.  The same is printed for the times on the ordinary
clock (the ``perfbench-raw`` line), so the two clocks can be compared.  --traced adds one traced run per workload, on the
first seed.  With --out the runs are written as JSON together with the
machine they ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def machine() -> dict:
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "system": platform.platform(),
    }


def run(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = [json.loads(line.split(None, 1)[1]) for line in lines if line.startswith("perfbench-raw ")]
    result.update(seed=seed, exit_code=proc.returncode, run_s=round(time.monotonic() - t0, 1))
    if raw:
        result["raw"] = raw[0]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    doc = {"machine": machine(), "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in workloads:
        runs = []
        for seed in args.seeds:
            result = run(name, seed, bench["run_seconds"], 0)
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"run={result['run_s']}s {values}", flush=True)
        summary = {}
        for metric in bounds:
            summary[metric] = spread([r["metrics"][metric]["value"] for r in runs])
            print(f"{name:18s} {metric:14s} median {summary[metric]['median']:10.4f}  "
                  f"iqr/median {summary[metric]['iqr_share']:.4f}  bound {bounds[metric]}")
        for metric in runs[0]["raw"]:
            summary[metric] = spread([r["raw"][metric] for r in runs])
            print(f"{name:18s} {metric:14s} median {summary[metric]['median']:10.4f}  "
                  f"iqr/median {summary[metric]['iqr_share']:.4f}  (ordinary clock)")
        doc["workloads"][name] = {"runs": runs, "spread": summary}
        if args.traced:
            traced = run(name, args.seeds[0], bench["run_seconds"], 1)
            print(f"{name} traced seed {args.seeds[0]}: correct={traced['correct']} "
                  f"run={traced['run_s']}s", flush=True)
            doc["workloads"][name]["traced"] = traced
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
