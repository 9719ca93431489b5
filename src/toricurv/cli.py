"""Command-line surface: analyze immersions, verify the torus bounds,
validate/emit designs, run the search probe, and self-test.

Exit codes: 0 success / all applicable checks pass; 1 a proven bound fails;
2 input could not be parsed or is out of range, the map is degenerate, a
check margin is not a finite number, or a forked worker process (of an
explore restart, of a grid pass in verify, analyze or explore, or of
analyze's CSV writer) died; 3 only the open-conjecture probe flags a
finding.  All
randomness flows from --seed and all outputs are byte-reproducible for
identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, forked, intrinsic, pointwise, verify
from .designs import (
    FrameMatrix,
    builtin_design,
    clifford,
    parse_frame_matrix,
    subtorus_immersion,
    validate_design,
)
from .errors import (DegenerateMetric, NonFiniteValue, ParseError, RankDeficient, ToricurvError,
                     WorkerDied)
from .explore import SearchConfig, optimize
from .fixtures import ball_immersion
from .formats import immersion_to_obj, parse_immersion, read_input
from .quadrature import TorusGrid, monomial_selftest, _philox


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)      # "nan", "inf" or "-inf"
    return value


def _write(lines, path: str | None) -> None:
    """Write an iterable of strings to stdout, or to the --out file."""
    if path is None:
        sys.stdout.writelines(lines)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ParseError(f"--out: cannot write {path}: {exc}") from None


def _csv_rows(axes: list, table: np.ndarray, start: int, stop: int):
    """The CSV lines of table rows start..stop-1, one at a time: the row's
    theta prefix, joined from the per-axis strings axes at that row of their
    product in flat C order, then repr of each value.  Row by row: the whole
    table as Python floats and strings at once took analyze's peak RSS from
    49 to 70 MB on a 32^3 grid."""
    inner = len(table) // len(axes[0])      # rows per value of the first axis
    first = start // inner
    skip = first * inner
    prefixes = itertools.islice(itertools.product(axes[0][first:], *axes[1:]),
                                start - skip, stop - skip)
    return (prefix + ",".join(map(repr, row.tolist())) + "\r\n"
            for prefix, row in zip(map("".join, prefixes), table[start:stop]))


def _write_csv(path: str, header: str, rows, npoints: int) -> None:
    """Write header, then rows(start, stop) for start, stop in
    forked.runs(npoints), to the --out file path: each run's lines in a
    forked worker of its own.  The first run's worker writes through the
    output's inherited descriptor, right after the header; each later run
    goes to an unnamed temporary file beside the output, which this process
    then appends in run order, so no line of text comes back through a pipe.
    Where the temporary files cannot be made, one run covers the rows here."""
    spans = forked.runs(npoints)
    try:
        with contextlib.ExitStack() as files:
            try:
                temps = [files.enter_context(tempfile.TemporaryFile(
                    "w+", newline="", dir=os.path.dirname(path) or ".")) for _ in spans[1:]]
            except OSError:
                spans, temps = [(0, npoints)], []
            out = files.enter_context(open(path, "w", newline=""))
            out.write(header)
            out.flush()     # before the fork: the first worker shares this file offset

            def run(i):
                target = temps[i - 1] if i else out
                target.writelines(rows(*spans[i]))
                target.flush()

            forked.fork_map(run, range(len(spans)), "CSV rows")
            out.seek(0, os.SEEK_END)        # past the first worker's writes
            for temp in temps:
                temp.seek(0)
                shutil.copyfileobj(temp.buffer, out.buffer)
    except OSError as exc:
        raise ParseError(f"--out: cannot write {path}: {exc}") from None


def _check_out(*paths, source: str | None) -> None:
    """Refuse --out paths that cannot be written, before any grid work and
    without creating or truncating them: the path is not the input file
    source (the same file, however named), is not a directory, its directory
    exists, and the file (if present) or else the directory is writable.
    _write still reports a later failure."""
    for path in paths:
        if path is None:
            continue
        target = Path(path)
        if source is not None and _same_file(target, source):
            why = "it is the input file"
        elif target.is_dir():
            why = "it is a directory"
        elif not target.parent.is_dir():
            why = f"no directory {target.parent}"
        elif not os.access(target if target.exists() else target.parent, os.W_OK):
            why = "permission denied"
        else:
            continue
        raise ParseError(f"--out: cannot write {path}: {why}")


def _same_file(a, b) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:       # either one does not exist
        return False


def _require_finite(grid: TorusGrid, columns: dict, undefined: dict) -> None:
    """Refuse a report with a value that is not finite: NonFiniteValue names
    the first grid point (flat C order) holding one and its first such
    column.  A column may be NaN where undefined[name] is true."""
    first = None
    for name, values in columns.items():
        bad = ~np.isfinite(values)
        if name in undefined:
            bad &= ~undefined[name]
        hits = np.flatnonzero(bad)
        if hits.size and (first is None or hits[0] < first[0]):
            first = (int(hits[0]), name)
    if first is not None:
        i, name = first
        raise NonFiniteValue(f"{name} is {float(columns[name][i])!r} at "
                             f"theta={grid.theta_at(i).tolist()}, not a finite number")


def _dump_json(obj, path: str | None) -> None:
    _write([json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"], path)


def _parse_grid(spec: str | None, n: int) -> TorusGrid:
    if spec is None:
        grid = TorusGrid.default(n)
    else:
        try:
            sizes = tuple(int(tok) for tok in spec.split(","))
        except ValueError:
            raise ParseError(f"--grid: expected comma-separated integers, got {spec!r}") from None
        if len(sizes) == 1 and n > 1:
            sizes = sizes * n
        if len(sizes) != n:
            raise ParseError(f"--grid: expected {n} sizes, got {len(sizes)}")
        try:
            grid = TorusGrid(sizes)
        except ValueError as exc:
            raise ParseError(f"--grid: {exc}") from None
    try:
        np.empty(grid.doubled().npoints)     # one field on the grid the checks refine on
    except (MemoryError, ValueError) as exc:
        raise ParseError(f"--grid: {list(grid.sizes)} is too large to hold: {exc}") from None
    return grid


def _check_search_table(config: SearchConfig) -> None:
    """Refuse a search whose trial table (P grid points x 2F cos/sin columns)
    or coefficient array (F x 2 x q) cannot be held, before any of the
    F = ((2 fmax + 1)^n - 1)/2 canonical frequencies is enumerated."""
    F = ((2 * config.fmax + 1) ** config.n - 1) // 2
    try:
        np.empty((config.grid.npoints, 2 * F))
        np.empty((F, 2, config.q))
    except (MemoryError, ValueError) as exc:
        raise ParseError(f"--fmax {config.fmax} with --grid {list(config.grid.sizes)}: the search "
                         f"table over {F} frequencies is too large to hold: {exc}") from None


def _input_config(path: str, digest: str, grid: TorusGrid | None, seed: int,
                  extra: dict | None = None) -> dict:
    config = {"input": str(path), "input_sha256": digest, "seed": seed,
              "version": __version__}
    if grid is not None:
        config["grid"] = list(grid.sizes)
    config.update(extra or {})
    return config


def _expected_design_K(obj: dict):
    """Exact constant-curvature expectation for a parsed design-backed input, if any."""
    scale = obj.get("scale", 1.0)
    if obj["type"] == "gromov":
        report = validate_design(FrameMatrix(tuple(tuple(r) for r in obj["B"])))
        return report.K / scale if report.is_constant_curvature else None
    if obj["type"] == "clifford" and obj["m"] == 1:
        return 1.0 / scale
    return None


def cmd_analyze(args) -> int:
    if args.out and args.out.endswith(tuple(filter(None, (os.sep, os.altsep)))):
        # Path would drop the separator and write BASE.csv beside the directory
        raise ParseError(f"--out: {args.out} ends in a path separator; give a base name")
    out_base = Path(args.out if args.out else "analyze_report")
    if out_base.suffix in (".csv", ".json"):
        out_base = out_base.with_suffix("")
    csv_path = out_base.with_suffix(".csv")
    json_path = out_base.with_suffix(".json")
    _check_out(csv_path, json_path, source=args.input)
    obj, digest = read_input(args.input)
    imm = parse_immersion(obj)
    grid = _parse_grid(args.grid, imm.n)
    grid_pass = intrinsic.analysis_grid(imm, grid, args.seed)     # raises DegenerateMetric, naming theta
    fields, sc = grid_pass.fields, grid_pass.sc
    columns = {"norm_f": fields.r, "norm_H": fields.norm_H, "zh": fields.zh, "sc": sc,
               "k_min": grid_pass.k_min, "k_max": grid_pass.k_max,
               "beta": np.arcsin(np.clip(fields.sin_beta, 0.0, 1.0))}
    _require_finite(grid, {**columns, "sqrt_det": fields.sqrt_det},
                    undefined={"beta": fields.r < 1e-12})
    n = imm.n
    residual = sc - pointwise._sc_from_zh(fields.H2, fields.zh, n)

    header = ",".join([f"theta_{i + 1}" for i in range(n)] + list(columns)) + "\r\n"
    table = np.column_stack(list(columns.values()))
    # Each theta value is formatted once per axis (repr is the CSV's main cost)
    axes = [[repr(v) + "," for v in axis.tolist()] for axis in grid.axes()]
    _write_csv(str(csv_path), header, functools.partial(_csv_rows, axes, table), grid.npoints)

    summary = {
        "config": _input_config(args.input, digest, grid, args.seed),
        "n": n, "q": imm.q,
        "avg_zh": pointwise.weighted_average(fields, fields.zh),
        "avg_H": pointwise.weighted_average(fields, fields.norm_H),
        "avg_sc": pointwise.weighted_average(fields, sc),
        "max_norm_f": float(np.max(fields.r)),
        "min_norm_f": float(np.min(fields.r)),
        "ball_margin": 1.0 - float(np.max(fields.r)),
        "zh_range": [float(np.min(fields.zh)), float(np.max(fields.zh))],
        "K_min": pointwise._best_found_K(imm, grid, grid_pass.k_min, args.seed, highest=False),
        "K_max": pointwise._best_found_K(imm, grid, grid_pass.k_max, args.seed, highest=True),
        "max_gauss_residual": float(np.max(np.abs(residual))),
        "min_singular_value": grid_pass.min_singular_value,
    }
    _dump_json(summary, str(json_path))
    print(f"analyze: wrote {csv_path} and {json_path}")
    return 0


def cmd_verify(args) -> int:
    _check_out(args.out, source=args.input)
    obj, digest = read_input(args.input)
    imm = parse_immersion(obj)
    grid = _parse_grid(args.grid, imm.n)
    reports = verify.run_checks(imm, grid=grid, seed=args.seed,
                                checks=args.checks, expected_K=_expected_design_K(obj))
    config = _input_config(args.input, digest, grid, args.seed,
                           {"checks": args.checks, "format": args.format})
    for rep in reports:
        rep["config"] = config
    code = verify.exit_code(reports)
    if args.format == "csv":
        lines = [["name", "status", "pass", "margin", "tolerance"]]
        for rep in reports:
            lines.append([rep["name"], rep["status"], rep["pass"],
                          rep["margin"], rep["tolerance"]])
        _write([",".join("" if v is None else str(v) for v in row) + "\n" for row in lines],
               args.out)
    else:
        _dump_json(reports, args.out)
    for rep in reports:
        margin = rep["margin"]
        shown = "-" if margin is None else f"{margin:+.3e}"
        print(f"{rep['name']:<12} {rep['status']:<10} margin {shown}", file=sys.stderr)
    return code


def cmd_design(args) -> int:
    _check_out(args.out, source=None)
    name_or_path = args.matrix
    try:
        B = builtin_design(name_or_path)
    except ToricurvError:
        try:
            text = Path(name_or_path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"matrix: cannot read {name_or_path}: {exc}") from None
        B = parse_frame_matrix(text)
    if args.action == "validate":
        report = validate_design(B)
        payload = asdict(report)
        payload["optimal_K2"] = report.optimal_K2
        _dump_json(payload, args.out)
        return 0
    _dump_json(immersion_to_obj(subtorus_immersion(B)), args.out)
    if args.out:
        print(f"design: wrote {args.out}")
    return 0


def cmd_explore(args) -> int:
    if args.n < 1:
        raise ParseError(f"--n: expected a positive torus dimension, got {args.n}")
    _check_out(args.out, source=None)
    grid = _parse_grid(args.grid, args.n)
    try:
        config = SearchConfig(
            n=args.n, q=args.q, fmax=args.fmax, grid=grid, seed=args.seed,
            iterations=args.iterations, restarts=args.restarts,
            penalty_weight=args.penalty_weight, smoothing=args.smoothing,
        )
    except ValueError as exc:
        raise ParseError(f"explore: {exc}") from None
    _check_search_table(config)
    result = optimize(config)
    payload = {
        "config": {**asdict(config), "grid": list(config.grid.sizes), "version": __version__},
        "best_immersion": immersion_to_obj(result.best),
        "sup_zh": result.sup_zh,
        "bound": 3.0 * config.n / (config.n + 2),
        "max_norm": result.max_norm,
        "counterexample_candidate": result.counterexample_candidate,
        "best_restart": result.best_restart,
        "objective_history": list(result.objective_history),
    }
    _dump_json(payload, args.out)
    print(f"explore: sup_zh = {result.sup_zh:.6f}, "
          f"candidate = {result.counterexample_candidate}", file=sys.stderr)
    return 3 if result.counterexample_candidate else 0


def _selftest_checks(seed: int):
    """Yield (name, ok, detail) health checks."""
    for n in (1, 2, 3, 4):
        rep = monomial_selftest(n, count=1_000_000, seed=seed + n)
        ok = rep.max_deviation < 0.01 and rep.worst_sigmas < 5.0
        yield (f"monomial averages n={n}", ok,
               f"max deviation {rep.max_deviation:.2e}, worst {rep.worst_sigmas:.2f} sigma")
    rng = _philox(seed + 101)
    for i in range(3):
        imm = ball_immersion(2, 5, seed=seed + 11 * i + 1, terms=6, fmax=2)
        pts = rng.uniform(0.0, 2.0 * math.pi, size=(200, 2))
        worst = float(np.max(np.abs(intrinsic.gauss_residuals(imm, pts))))
        yield (f"curvature identity, random immersion {i}", worst < 1e-6,
               f"max residual {worst:.2e}")
    for name in ("hex2", "d4"):
        rep = validate_design(builtin_design(name))
        yield (f"design certificate {name}", rep.is_constant_curvature and rep.is_optimal,
               f"constant={rep.is_constant_curvature}, optimal={rep.is_optimal}")
    # Every fixture below lies on the unit sphere with |H| = n and zh = 3n/(n+2).
    fixtures = [(name, subtorus_immersion(builtin_design(name))) for name in ("hex2", "d4")]
    for name, imm in fixtures + [(f"clifford({m})", clifford(m)) for m in (2, 3)]:
        n = imm.n
        fields = pointwise.grid_fields(imm, TorusGrid((8,) * n))
        bound = 3.0 * n / (n + 2)
        zh_dev = float(np.max(np.abs(fields.zh - bound)))
        ok = (zh_dev < 1e-10 and float(np.max(np.abs(fields.norm_H - n))) < 1e-9
              and float(np.max(np.abs(fields.r - 1.0))) < 1e-12)
        yield (f"equality fixture {name}", ok, f"zh within {zh_dev:.2e} of {bound}; |H| = n, |f| = 1")


def cmd_selftest(args) -> int:
    failed = 0
    for name, ok, detail in _selftest_checks(args.seed):
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"selftest: {'all healthy' if failed == 0 else f'{failed} check(s) failed'}")
    return 0 if failed == 0 else 1


def _seed(text: str) -> int:
    """--seed: a non-negative integer, refused at parse time otherwise."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _checks(text: str) -> str:
    """--checks: refused at parse time unless run_checks accepts the selection."""
    try:
        verify.select_checks(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricurv",
        description="Curvature invariants and bound verification for immersed tori in a ball.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-point invariants table plus a summary")
    p.add_argument("input", help="immersion description file (JSON)")
    p.add_argument("--grid", help="comma-separated grid sizes, e.g. 64,64")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="output base path (writes .csv and .json)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the bound checks and report margins")
    p.add_argument("input")
    p.add_argument("--checks", type=_checks, default="all",
                   help="'all' or comma-separated subset of: " + ",".join(verify.ALL_CHECKS))
    p.add_argument("--grid")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("design", help="validate or emit integer frame-matrix designs")
    p.add_argument("action", choices=("validate", "emit"))
    p.add_argument("matrix", help="built-in name (circle1,hex2,d4,axdiag3) or matrix file path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("explore", help="search for low-sup-zh immersions in the ball")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--fmax", type=int, default=1)
    p.add_argument("--grid")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--penalty-weight", type=float, default=1e3)
    p.add_argument("--smoothing", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("selftest", help="built-in health suite")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, RankDeficient, DegenerateMetric, NonFiniteValue, WorkerDied) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
