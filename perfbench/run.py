"""toricurv benchmark: three workloads through the public CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a fresh process (``worker.py``), as a CLI user pays it:
cold import, empty per-immersion caches.  Samples run one at a time for
about S seconds, at least one; every sample of a run gets the same inputs,
made from the seed.  End-to-end metrics (``--trace 0``):

- ``wall_s``: median time from the workload's first call into toricurv
  to its return;
- ``setup_s``: median time from spawning a process to that first call
  (interpreter start plus ``import toricurv``), over the samples and a few
  import-only processes;
- ``peak_rss_mb``: median peak resident set of a sample process, from its
  own rusage (``os.wait4``).

With ``--trace 1`` the same untraced samples run first, then one traced
sample; the metrics are per-layer numbers from its spans, plus the tracing
overhead against the untraced median.

Each sample's output is checked (``checks.py``); all samples, the traced one
included, must also write byte-identical files.  The last
line of standard output is the JSON result; a run record with diagnostics
(``cpu_s``, thread environment, versions, input hashes) is printed before
it and written to ``.perfbench_run/<workload>/record.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0          # every child is killed before the run could pass 180 s
SETUP_ONLY_SPAWNS = 10
VERIFY_GRID = "12,12,12,12"   # re-checked on 24^4; several samples fit in one run
EXPLORE_ITERATIONS = 250
EXPLORE_RESTARTS = 8
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "GOTO_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES")

# inputs: generated files; expected_top: the function whose self time
# should be largest.
WORKLOADS = {
    "verify-d4": {"inputs": ("d4",), "expected_top": "pointwise.grid_fields"},
    "analyze-wavy3": {"inputs": ("wavy3",), "expected_top": "pointwise.grid_K_estimates"},
    "explore-n2": {"inputs": (), "expected_top": "pointwise.grid_fields"},
}


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _sha256(path: Path) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


class Run:
    """The samples of one benchmark run, in one work directory."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.inputs = _write_inputs(WORKLOADS[workload]["inputs"], seed, work / "inputs")
        self.out = work / "out"
        self.out.mkdir()

    def job(self) -> dict:
        seed = str(self.seed)
        if self.workload == "verify-d4":
            return {"kind": "cli", "argv": ["verify", _rel(self.inputs["d4"][0]), "--grid", VERIFY_GRID,
                                            "--seed", seed, "--out", _rel(self.out / "verify.json")],
                    "outputs": ["verify.json"]}
        if self.workload == "analyze-wavy3":
            return {"kind": "cli", "argv": ["analyze", _rel(self.inputs["wavy3"][0]), "--seed", seed,
                                            "--out", _rel(self.out / "analyze")],
                    "outputs": ["analyze.csv", "analyze.json"]}
        return {"kind": "cli", "argv": [
            "explore", "--n", "2", "--q", "6", "--grid", "16", "--seed", seed,
            "--iterations", str(EXPLORE_ITERATIONS), "--restarts", str(EXPLORE_RESTARTS),
            "--out", _rel(self.out / "explore.json")],
            "outputs": ["explore.json"]}

    def spawn(self, job: dict, tag: str) -> dict:
        """Run one worker process to completion; return its timings and result.

        A worker still running at the run's deadline is killed, and one that
        would start after it is not started; either way the sample fails."""
        job_path = self.work / f"{tag}.job.json"
        job = dict(job, result=_rel(self.work / f"{tag}.result.json"))
        job_path.write_text(json.dumps(job))
        for name in job.get("outputs", ()):
            (self.out / name).unlink(missing_ok=True)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"tag": tag, "status": None, "error": "no time left before the deadline"}
        with open(self.work / f"{tag}.stdout", "wb") as out, \
                open(self.work / f"{tag}.stderr", "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), _rel(job_path)],
                                    cwd=ROOT, env=self.env, stdout=out, stderr=err)
            try:
                status, usage = _wait4(proc.pid, timeout)
                proc.returncode = status      # reaped by os.wait4, not by Popen
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        # Linux carries the forked image's peak into the child's ru_maxrss, so
        # this reads the child's own peak only while this process stays
        # smaller than a worker (checks stream their input; the record keeps
        # this process's peak as parent_maxrss_mb).
        sample = {"tag": tag, "status": status,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0,
                  "cpu_s": usage.ru_utime + usage.ru_stime}
        result_path = ROOT / job["result"]
        if status != 0 or not result_path.exists():
            sample["error"] = (self.work / f"{tag}.stderr").read_text(errors="replace")[-2000:]
            return sample
        result = json.loads(result_path.read_text())
        sample["setup_s"] = result["t_ready"] - t_spawn
        if "t_start" in result:
            sample["wall_s"] = result["t_done"] - result["t_start"]
        sample["result"] = result
        return sample

    def check(self, job: dict, sample: dict) -> list[str]:
        """Correctness failures of one sample, plus its output hashes."""
        result = sample.get("result")
        if result is None:
            return [f"process failed (status {sample['status']}): {sample.get('error', '')}"]
        if result.get("error"):
            return [f"workload raised: {result['error']}"]
        code = result["exit_code"]
        paths = [self.out / name for name in job["outputs"]]
        missing = [p.name for p in paths if not p.exists()]
        if missing:
            return [f"missing outputs {missing} (exit code {code!r})"]
        sample["output_sha256"] = {p.name: _sha256(p) for p in paths}
        sample["output_bytes"] = sum(p.stat().st_size for p in paths)
        if self.workload == "verify-d4":
            return checks.verify_d4(code, json.loads(paths[0].read_text()))
        if self.workload == "analyze-wavy3":
            with open(paths[0], newline="") as table:
                return checks.analyze_wavy3(code, json.loads(paths[1].read_text()), table)
        return checks.explore_n2(code, json.loads(paths[0].read_text()),
                                 EXPLORE_ITERATIONS, EXPLORE_RESTARTS)


def _write_inputs(names, seed: int, directory: Path) -> dict:
    """Generated inputs as {name: (path, sha256)}.

    A separate process makes them, so that numpy's buffers never raise this
    process's peak RSS (see ``Run.spawn``)."""
    if not names:
        return {}
    out = subprocess.run([sys.executable, str(HERE / "inputs.py"), str(seed), str(directory), *names],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    return {name: (Path(path), digest) for name, (path, digest) in json.loads(out.stdout).items()}


def _wait4(pid: int, timeout: float):
    """os.wait4 on one child, killing it after ``timeout``; returns (exit status, rusage)."""
    end = time.monotonic() + timeout
    delay = 0.001
    while True:
        got, status, usage = os.wait4(pid, os.WNOHANG)
        if got == pid:
            return os.waitstatus_to_exitcode(status), usage
        if time.monotonic() >= end:
            os.kill(pid, 9)
            _, status, usage = os.wait4(pid, 0)
            return os.waitstatus_to_exitcode(status), usage
        time.sleep(delay)
        delay = min(delay * 2, 0.01)


def _median(values):
    return statistics.median(values) if values else None


def _sample_loop(run: Run, job: dict, seconds: float, t0: float, reserve: int):
    """Untraced samples for about ``seconds``, leaving time before the deadline
    for ``reserve`` more samples; returns (samples, failures by tag)."""
    samples, failures = [], {}
    while True:
        tag = f"sample{len(samples)}"
        sample = run.spawn(job, tag)
        failed = run.check(job, sample)
        if failed:
            failures[tag] = failed
        samples.append(sample)
        typical = _median([s["wall_s"] + s["setup_s"] for s in samples if "wall_s" in s] or [0.0])
        now = time.monotonic()
        if now - t0 + typical > seconds or now + (1 + reserve) * typical > run.deadline:
            return samples, failures


def _reason(spans, expected: str) -> dict:
    """Which function has the largest self time, against the expected one."""
    summary = tracer.summarize(spans)
    total = sum(v["self_s"] for v in summary.values()) or 1.0
    ranked = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
    out = {"expected": expected, "largest": ranked[0][0] if ranked else None,
           "self_share": {k: v["self_s"] / total for k, v in ranked[:6]}}
    out["holds"] = out["largest"] == expected
    if expected == "pointwise.grid_fields" and any(s[tracer.NAME] == "explore.objective" for s in spans):
        own = tracer.self_times(spans)
        inside = [i for i, s in enumerate(spans) if s[tracer.NAME] == expected]
        under = sum(own[i] for i in inside if tracer.ancestors_named(spans, i, "explore.objective"))
        out["grid_fields_share_under_objective"] = under / (sum(own[i] for i in inside) or 1.0)
    return out


def trace_metrics(run: Run, traced: dict, untraced_wall: float) -> dict:
    """Per-layer metrics of the traced sample, with its overhead over ``untraced_wall``."""
    spans = traced["result"]["spans"]
    m = tracer.layer_metrics(spans)
    history = []
    if run.workload == "explore-n2":
        history = json.loads((run.out / "explore.json").read_text())["objective_history"]
    improving = sum(1 for a, b in zip(history, history[1:]) if b < a)
    m["explore.objective.improving_ratio"] = (improving / len(history) if history else 0.0, "ratio")
    m["cli.output_bytes"] = (traced["output_bytes"], "B")
    m["trace.overhead_frac"] = (traced["wall_s"] / untraced_wall - 1.0 if untraced_wall else None,
                                "ratio")
    return m


def environment() -> dict:
    return {"nproc": os.cpu_count(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "toricurv" / "__init__.py").is_file():
        print(f"error: no toricurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    work = ROOT / ".perfbench_run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, work, deadline=t0 + HARD_LIMIT_S)

    # One uncounted import fills the bytecode cache, as an installed package has it.
    warm = run.spawn({"kind": "setup"}, "warmup")
    if "setup_s" not in warm:
        print(f"error: toricurv does not import: {warm.get('error', '')}", file=sys.stderr)
        return 2
    setup_only = [run.spawn({"kind": "setup"}, f"setup{i}") for i in range(SETUP_ONLY_SPAWNS)]
    job = run.job()
    samples, failures = _sample_loop(run, job, args.seconds, t0, reserve=2 * args.trace)

    hashes = {json.dumps(s["output_sha256"], sort_keys=True) for s in samples if "output_sha256" in s}
    nondeterministic = len(hashes) > 1
    attempted, failed = len(samples), len(failures)
    ok = [s for s in samples if s["tag"] not in failures]
    wall = _median([s["wall_s"] for s in ok])
    setups = [s["setup_s"] for s in setup_only + samples if "setup_s" in s]
    setup = _median(setups)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "inputs_sha256": {k: v[1] for k, v in run.inputs.items()},
              "setup_only": [{k: s.get(k) for k in ("setup_s", "peak_rss_mb", "cpu_s")}
                             for s in setup_only],
              "samples": [{k: s.get(k) for k in ("tag", "setup_s", "wall_s", "peak_rss_mb",
                                                  "cpu_s", "output_sha256", "output_bytes")}
                          for s in samples],
              "cpu_s": _median([s["cpu_s"] for s in ok]),
              "parent_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "failures": failures, "fail_frac": failed / attempted,
              "outputs_identical": not nondeterministic}

    metrics = {"wall_s": (wall, "s"), "setup_s": (setup, "s"),
               "peak_rss_mb": (_median([s["peak_rss_mb"] for s in ok]), "MB")}
    correct = failed == 0 and not nondeterministic
    if args.trace:
        traced = run.spawn(dict(job, trace=True), "traced")
        traced_failures = run.check(job, traced)
        if not traced_failures and json.dumps(traced["output_sha256"], sort_keys=True) not in hashes:
            traced_failures = ["traced outputs differ from untraced outputs"]
        attempted += 1
        if traced_failures:
            failed += 1
            failures["traced"] = traced_failures
        correct = correct and not traced_failures
        if "traced" not in failures:
            metrics = trace_metrics(run, traced, wall)
            record["reason"] = _reason(traced["result"]["spans"],
                                       WORKLOADS[args.workload]["expected_top"])
            (work / "spans.json").write_text(json.dumps(traced["result"]["spans"]))
        record["traced_wall_s"] = traced.get("wall_s")
        record["fail_frac"] = failed / attempted

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (work / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    counts = {"wall_s": len(ok), "setup_s": len(setups), "peak_rss_mb": len(ok)}
    for name, (value, unit) in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        # per-layer metrics come from the one traced sample
        print(f"{args.workload:<17} {name:<46} {shown:>14} {unit:<6} (n={counts.get(name, 1)})")
    print(f"{args.workload:<17} {'fail_frac':<46} {record['fail_frac']:>14.6g} ratio  "
          f"({failed}/{attempted} failed)")
    if "reason" in record:
        r = record["reason"]
        print(f"{args.workload:<17} largest self time: {r['largest']} "
              f"(expected {r['expected']}: {'holds' if r['holds'] else 'does not hold'})")
    for tag, msgs in failures.items():
        print(f"FAILED {tag}: {msgs[0][:500]}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
