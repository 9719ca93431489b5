"""One benchmark sample in a fresh process.

Usage: python3 perfbench/worker.py JOB.json

The job holds the CLI arguments of one workload and a result path.  The
worker imports toricurv (the set-up the parent times from spawn), runs
``toricurv.cli.main`` once, and writes a result file with its clock
readings.  ``CLOCK_MONOTONIC`` is shared by all processes on Linux, so the
parent can subtract its spawn time from the worker's readings.  A job of
kind ``setup`` only imports.

A job with ``"trace": true`` wraps toricurv's public functions for the
workload call only and adds the spans to the result.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

import toricurv
import toricurv.cli

T_READY = time.monotonic()


def _run_cli(job: dict) -> dict:
    try:
        code = toricurv.cli.main(job["argv"])
    except SystemExit as exc:      # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return {"exit_code": code}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    result: dict = {"t_ready": T_READY}
    if job["kind"] == "cli":
        tracer = None
        if job.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        result["t_start"] = time.monotonic()
        try:
            result.update(_run_cli(job))
        except Exception:
            result["exit_code"] = None
            result["error"] = traceback.format_exc()
        result["t_done"] = time.monotonic()
        if tracer is not None:
            tracer.remove()
            result["spans"] = tracer.spans
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
