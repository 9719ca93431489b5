"""Run the benchmark over several seeds and summarize every metric.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload it runs ``run.py`` once per seed untraced, then once
traced (on the first seed), one process at a time, each for ``run_seconds``
from ``BENCHMARK.json``.  It writes, per workload
and metric, every run's value, the median, the quartiles from
``statistics.quantiles(n=4)`` and their distance as a share of the median
(the run-to-run spread), and prints that spread against the metric's bound
from ``BENCHMARK.json``.
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


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    result = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [_run(name, seed, seconds, 0) for seed in seeds]
        entry = {"failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "all_correct": all(r["correct"] for r in runs),
                 "end_to_end": {}}
        for metric in runs[0]["metrics"]:
            s = _summary([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            bound = bounds.get(metric)
            spread = s.get("spread", float("nan"))
            print(f"{name:<17} {metric:<12} median {s['median']:.6g} {s['unit']:<3} "
                  f"spread {spread:.4f} bound {bound} (n={s['n']})", flush=True)
        traced = _run(name, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_correct"] = traced["correct"]
        record = json.loads((ROOT / ".perfbench_run" / name / "record.json").read_text())
        entry["reason"] = record.get("reason")
        result["workloads"][name] = entry
        if args.out:
            Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
