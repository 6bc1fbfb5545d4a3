"""Command-line surface: steady points, sweeps, cuts, dynamics, regression.

Exit codes: 0 on success, 1 for bad arguments or config or an output file
that cannot be written, 2 when the steady solver refuses a single-point
run (an undefined first-order oracle alone exits 0).  Sweep runs always
exit 0 and record per-point failures in the CSV status column.

On success, sweep, scan-balanced and dynamics each write a one-line JSON
summary of the run to stderr.  All JSON output is strict: a non-finite
float is written as null.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from .liouvillian import PARAM_KEYS, SystemParams
from .phasespace import QuadratureSpec
from .sweep import (
    SweepRecord,
    _arnold_table,
    _balanced_cut_table,
    _dynamics_table,
    evaluate_point,
    linear_regression,
)

# A dynamics sample whose oracle peak is at most this is quiet: no relative
# deviation is taken on it.
_QUIET_ORACLE = 1e-12

QUAD_KEYS = tuple(f.name for f in fields(QuadratureSpec))


class ConfigError(ValueError):
    """Config file missing, unparsable, or semantically invalid."""


def load_config(path: str) -> tuple[SystemParams, QuadratureSpec]:
    """Read the flat JSON config; all keys optional, unknown keys rejected."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, and an integer literal beyond Python's digit limit.
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deeply to parse") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    unknown = sorted(set(raw) - set(PARAM_KEYS) - set(QUAD_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key} must be a number, got {value!r}")
        if key in QUAD_KEYS and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"config key {key} must be an integer, got {value!r}")
        if key in PARAM_KEYS:
            try:
                float(value)
            except OverflowError:
                # A JSON integer literal is exact and may exceed the float range.
                raise ConfigError(f"config key {key} is too large for a float") from None
    try:
        params = SystemParams(
            **{k: float(raw[k]) for k in PARAM_KEYS if k in raw}
        )
        quad = QuadratureSpec(**{k: int(raw[k]) for k in QUAD_KEYS if k in raw})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return params, quad


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsync",
        description="Coupled spin-1 limit cycles: synchronization and "
                    "entanglement measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    steady = sub.add_parser("steady", help="solve one steady state")
    steady.add_argument("--config", required=True)
    steady.add_argument("--out", help="write record and state as JSON here")

    sweep = sub.add_parser("sweep", help="coupling-detuning grid sweep")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--eps-min", type=float, default=0.0)
    sweep.add_argument("--eps-max", type=float, default=0.1)
    sweep.add_argument("--eps-steps", type=int, default=101)
    sweep.add_argument("--delta-min", type=float, default=-1.0)
    sweep.add_argument("--delta-max", type=float, default=1.0)
    sweep.add_argument("--delta-steps", type=int, default=101)
    sweep.add_argument("--out", required=True)

    scan = sub.add_parser("scan-balanced", help="scan spin-B damping on a cut")
    scan.add_argument("--config", required=True)
    scan.add_argument("--gdb-min", type=float, default=1.0)
    scan.add_argument("--gdb-max", type=float, default=199.0)
    scan.add_argument("--steps", type=int, default=101)
    scan.add_argument("--out", required=True)

    dynamics = sub.add_parser("dynamics", help="integrate from the resting state")
    dynamics.add_argument("--config", required=True)
    dynamics.add_argument("--t-max", type=float, required=True)
    dynamics.add_argument("--samples", type=int, default=11)
    dynamics.add_argument("--out", required=True)

    regress = sub.add_parser("regress", help="least-squares fit of CSV columns")
    regress.add_argument("--in", dest="infile", required=True)
    regress.add_argument("--x", required=True)
    regress.add_argument("--y", required=True)
    return parser


def _finite(value):
    """value with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _strict_json(value, indent: int | None = None) -> str:
    """value as strict JSON (RFC 8259): a non-finite float is written as null."""
    return json.dumps(_finite(value), indent=indent, allow_nan=False)


def _summary(**fields) -> None:
    """Write a run's summary to stderr as one line of strict JSON."""
    print(_strict_json(fields), file=sys.stderr)


def _fit(x: np.ndarray, y: np.ndarray) -> dict:
    """The regression of y on x as a dict, or the reason it is refused."""
    try:
        return asdict(linear_regression(x, y))
    except ValueError as exc:
        return {"error": str(exc)}


def _table_counts(table, start: float) -> tuple[np.ndarray, dict]:
    """The mask of a table's ok rows, and its point and failure counts and time."""
    ok = table.column("status") == "ok"
    return ok, {"points": len(ok), "failed": int(np.count_nonzero(~ok)),
                "seconds": time.perf_counter() - start}


# The "state" member of the steady JSON as json.dumps(..., indent=2) lays it
# out: 81 [re, im] pairs, each number on its own line.
_STATE_TEMPLATE = (
    "[\n"
    + ",\n".join(["    [\n      {!r},\n      {!r}\n    ]"] * 81)
    + "\n  ]\n}}"
)


def _steady_json(record: SweepRecord, rho: np.ndarray) -> str:
    """{"record": ..., "state": [[re, im], ...]} exactly as _strict_json(indent=2).

    json.dumps with indent runs the pure-Python encoder, which is slow on
    the 162 state numbers; they are written from a fixed template instead.
    json writes a finite float as its repr, and a solved state is finite.
    """
    head = _strict_json(asdict(record), indent=2).replace("\n", "\n  ")
    values = np.stack([rho.real, rho.imag], axis=-1).ravel().tolist()
    return '{\n  "record": ' + head + ',\n  "state": ' + _STATE_TEMPLATE.format(*values)


def _cmd_steady(args) -> int:
    params, quad = load_config(args.config)
    record, rho = evaluate_point(params, quad)
    if rho is None:
        print(f"steady solve failed: {record.status}", file=sys.stderr)
        return 2
    text = _steady_json(record, rho)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_sweep(args) -> int:
    start = time.perf_counter()
    params, quad = load_config(args.config)
    table = _arnold_table(
        params,
        eps_range=(args.eps_min, args.eps_max),
        delta_range=(args.delta_min, args.delta_max),
        steps=(args.eps_steps, args.delta_steps),
        quad=quad,
    )
    table.write(args.out)
    ok, counts = _table_counts(table, start)
    peaks = table.column("max_s_rel")[ok]
    _summary(**counts, fits={name: _fit(table.column(name)[ok], peaks)
                             for name in ("negativity", "mutual_info")})
    return 0


def _cmd_scan_balanced(args) -> int:
    start = time.perf_counter()
    params, quad = load_config(args.config)
    table = _balanced_cut_table(
        params, ratio_range=(args.gdb_min, args.gdb_max), steps=args.steps,
        quad=quad,
    )
    table.write(args.out)
    ok, counts = _table_counts(table, start)
    # The scan's own grid, walked over its ok rows.
    gamma_d_b = np.geomspace(args.gdb_min, args.gdb_max, args.steps)[ok].tolist()
    ranks = table.column("schmidt_rank")[ok].tolist()
    _summary(**counts, rank_drops=[
        {"after_gamma_d_b": gamma_d_b[i - 1], "to_rank": ranks[i]}
        for i in range(1, len(ranks)) if ranks[i] < ranks[i - 1]])
    return 0


def _cmd_dynamics(args) -> int:
    start = time.perf_counter()
    params, quad = load_config(args.config)
    table = _dynamics_table(params, args.t_max, args.samples, quad)
    table.write(args.out)
    peak, oracle = table.column("s_rel_peak"), table.column("s_rel_peak_oracle")
    # An undefined oracle is nan, which fails the comparison and is skipped.
    loud = np.abs(oracle) > _QUIET_ORACLE
    deviations = np.abs(peak[loud] - oracle[loud]) / np.abs(oracle[loud])
    _summary(samples=len(peak), seconds=time.perf_counter() - start,
             max_oracle_rel_dev=max(deviations.tolist(), default=None))
    return 0


def _cmd_regress(args) -> int:
    try:
        with open(args.infile) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or args.x not in header or args.y not in header:
                print(f"columns {args.x!r}/{args.y!r} not found in "
                      f"{args.infile}", file=sys.stderr)
                return 1
            # A repeated column name reads its last column.
            column = {name: j for j, name in enumerate(header)}
            ix, iy = column[args.x], column[args.y]
            xs, ys = [], []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    print(f"line {reader.line_num} of {args.infile} has {len(row)} "
                          f"fields, the header {len(header)}", file=sys.stderr)
                    return 1
                xs.append(float(row[ix]))
                ys.append(float(row[iy]))
    except OSError as exc:
        print(f"cannot read {args.infile}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"non-numeric data in requested columns: {exc}", file=sys.stderr)
        return 1
    result = linear_regression(np.array(xs), np.array(ys))
    print(_strict_json(asdict(result), indent=2))
    return 0


COMMANDS = {
    "steady": _cmd_steady,
    "sweep": _cmd_sweep,
    "scan-balanced": _cmd_scan_balanced,
    "dynamics": _cmd_dynamics,
    "regress": _cmd_regress,
}


# Built on the first call to main and reused: building the parser costs
# far more than parsing with it.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into the documented bad-arguments code.
        return 0 if exc.code == 0 else 1
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
