"""Run every workload over several seeds and summarize, as BENCH_<commit>.json.

    python3 bench/baseline.py --seeds 1-10 [--out FILE]

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed with
tracing off, and once per workload with tracing on (first seed), each with
the run length of BENCHMARK.json. For every end-to-end metric, and for
``error_rate`` and ``host_probe_ms``, it records the values over the seeds,
their median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median; for the
traced run it records every per-layer metric. Without ``--out`` it only
prints.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["error_rate"] = record["error_rate"]
    result["host_probe_ms"] = record["host_probe_ms"]
    result["environment"] = record["environment"]
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", help="write the summary to this file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "error_rate": summarize([r["error_rate"] for r in runs]),
            "host_probe_ms": summarize([r["host_probe_ms"] for r in runs]),
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = {"unit": metric["unit"], "bound": metric["bound"], **stats}
            print(f"{workload:7s} {name:13s} median {stats['median']:.6g} {metric['unit']:4s} "
                  f"spread {stats['spread']:.3f} (bound {metric['bound']})", flush=True)
        if not args.no_trace:
            traced = run(workload, seeds[0], spec["run_seconds"], 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["environment"] = runs[0]["environment"]
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
