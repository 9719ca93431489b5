"""Correctness checks on each workload's output, from facts the paper proves.

Each function takes the decoded output of one sample and returns a list of
failure messages; an empty list means the output is correct.  The checks
hold for every seed and for every correct optimisation of the program, so
a failure is a bug (or a crash), never noise.
"""

from __future__ import annotations

import csv
import math

# verify on d4 (n = 4): the 2d check is inapplicable, every other check is
# the paper's equality case and passes at roundoff.
VERIFY_D4_STATUSES = (("ball", "pass"), ("avg_h", "pass"), ("2d", "skipped"), ("flat", "pass"),
                      ("sphere", "pass"), ("main", "pass"), ("bow", "pass"),
                      ("constant_k", "pass"), ("conjecture", "pass"))

GAUSS_RESIDUAL_MAX = 1e-6
ANALYZE_ROWS = 32 ** 3
ANALYZE_COLUMNS = 10
ZH_BOUND_N2 = 1.5
ZH_SLACK = 1e-7


def _exit(code, expected: int = 0) -> list[str]:
    return [] if code == expected else [f"exit code {code!r}, expected {expected}"]


def verify_d4(exit_code, reports) -> list[str]:
    """Exit 0; statuses pass/pass/skipped/pass x6; every |margin| <= its tolerance."""
    failures = _exit(exit_code)
    got = [(r.get("name"), r.get("status")) for r in reports]
    if got != list(VERIFY_D4_STATUSES):
        failures.append(f"statuses {got} != {list(VERIFY_D4_STATUSES)}")
    for r in reports:
        if r.get("status") == "skipped":
            continue
        margin, tol = r.get("margin"), r.get("tolerance")
        if not (isinstance(margin, (int, float)) and isinstance(tol, (int, float))
                and abs(margin) <= tol):
            failures.append(f"{r.get('name')}: |margin| {margin!r} exceeds tolerance {tol!r}")
    return failures


def analyze_wavy3(exit_code, summary: dict, csv_lines) -> list[str]:
    """Exit 0; Gauss residual <= 1e-6; 32^3 finite rows of 10 columns; K_min <= K_max.

    ``csv_lines`` is read one row at a time (an open file will do), so the
    check's memory does not grow with the table."""
    failures = _exit(exit_code)
    residual = summary.get("max_gauss_residual")
    if not (isinstance(residual, (int, float)) and residual <= GAUSS_RESIDUAL_MAX):
        failures.append(f"max_gauss_residual {residual!r} > {GAUSS_RESIDUAL_MAX}")
    reader = csv.reader(csv_lines)
    widths_ok = len(next(reader, [])) == ANALYZE_COLUMNS
    rows, finite = 0, True
    for r in reader:
        rows += 1
        widths_ok = widths_ok and len(r) == ANALYZE_COLUMNS
        try:
            finite = finite and all(math.isfinite(float(v)) for v in r)
        except ValueError:
            finite = False
    if rows != ANALYZE_ROWS:
        failures.append(f"CSV has {rows} rows, expected {ANALYZE_ROWS}")
    if not widths_ok:
        failures.append(f"CSV rows without {ANALYZE_COLUMNS} columns")
    if not finite:
        failures.append("CSV holds a non-finite or non-numeric value")
    k_min, k_max = summary.get("K_min"), summary.get("K_max")
    if not (isinstance(k_min, (int, float)) and isinstance(k_max, (int, float)) and k_min <= k_max):
        failures.append(f"K_min {k_min!r} > K_max {k_max!r}")
    return failures


def explore_n2(exit_code, payload: dict, iterations: int, restarts: int) -> list[str]:
    """No n = 2 candidate (average zh >= 3/2 is proven); history complete and monotone."""
    failures = _exit(exit_code)
    if payload.get("counterexample_candidate") is not False:
        failures.append("counterexample_candidate is not false for n = 2")
    sup_zh, max_norm = payload.get("sup_zh"), payload.get("max_norm")
    if not (isinstance(sup_zh, (int, float)) and isinstance(max_norm, (int, float))):
        failures.append(f"sup_zh {sup_zh!r} or max_norm {max_norm!r} is not a number")
    elif max_norm <= 1.0 and sup_zh < ZH_BOUND_N2 - ZH_SLACK:
        failures.append(f"sup_zh {sup_zh!r} < 3/2 inside the ball (max_norm {max_norm!r})")
    history = payload.get("objective_history") or []
    if len(history) != iterations * restarts:
        failures.append(f"history has {len(history)} entries, expected {iterations * restarts}")
    if any(b > a for a, b in zip(history, history[1:])):
        failures.append("objective history increases")
    return failures

