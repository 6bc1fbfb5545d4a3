"""Batch evaluation of parameter points: sweeps, cuts, dynamics, CSV output.

Grid points are independent.  A grid is built as one (N, 7) array of
weights (see liouvillian.as_weights) and validated once, then solved and
measured in chunks of CHUNK_SIZE points: one stacked solve, one stacked
first-order oracle and one stacked call per measure for each chunk.  Each
solved state is carried as its 19 k = 0 entries, and the measures run on
its blocks (see correlations); a 9x9 matrix is built only for the state
evaluate_point returns.  Point and dynamics sample results alike are kept
as the columns of a _Table, from which the CLI writes CSV rows CHUNK_SIZE
at a time and takes its summaries.  The commands run evaluate_point and
the tables; arnold_sweep, balanced_cut_scan and dynamics_trace are library
views that return the same tables as record objects, and write_sweep_csv
and write_dynamics_csv format records with the same row template.  Every
point gets the same bits whatever chunk it lands in, and results are
always emitted in deterministic grid order (epsilon-major for the tongue
sweep), so CSV bodies are byte-identical regardless of chunk size.  A
failing point is recorded in its row's status field and never aborts a
sweep or affects the other points.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from itertools import islice
from operator import attrgetter

import numpy as np

from .correlations import (
    sector_mutual_information,
    sector_negativity,
    sector_purity,
    sector_schmidt,
)
from .first_order import NO_STEADY_STATE, first_order_stack
from .liouvillian import (
    PARAM_KEYS,
    SteadyStates,
    SystemParams,
    as_weights,
    check_weights,
    evolve,
    steady_states,
)
from .operators import joint_index
from .phasespace import QuadratureSpec, max_s_rel_stack, sector_s_rel


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated parameter point: numerics plus the first-order oracle."""

    epsilon: float
    delta: float
    max_s_rel: float
    phi_at_max: float
    negativity: float
    mutual_info: float
    purity: float
    schmidt_rank: int
    s_rel_fo: float
    negativity_fo: float
    residual: float
    status: str = "ok"


@dataclass(frozen=True)
class RegressionResult:
    """Ordinary least-squares fit y = slope*x + intercept."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int
    degenerate_variance: bool = False


@dataclass(frozen=True)
class DynamicsRow:
    """One sampled time of a dynamics trace."""

    t: float
    s_rel_peak: float
    s_rel_peak_oracle: float
    negativity: float
    trace_error: float


# Each CSV file's columns are the fields of its record type, in order, each
# written in the format of its type: 12 significant digits for a float.
_FORMATS = {"float": "%.12g", "int": "%d", "str": "%s"}


def _csv_schema(record_type) -> tuple[str, str]:
    """The header and the row template of a record type's CSV file."""
    columns = fields(record_type)
    return ",".join(f.name for f in columns), ",".join(_FORMATS[f.type] for f in columns)


SWEEP_CSV_HEADER = _csv_schema(SweepRecord)[0]
DYNAMICS_CSV_HEADER = _csv_schema(DynamicsRow)[0]

# Points solved and measured together: a 121-point tongue is one stack.
# On the default 101x101 sweep and the 101-point balanced scan, 128 was
# faster than 64 and 256; larger chunks hold more memory at once.
CHUNK_SIZE = 128

# The largest sweep or scan grid.  Every point's results are held until the
# CSV is written, CHUNK_SIZE rows at a time: spinsync sweep peaks at 37 MB
# on 101x101 points and at 56 MB on 301x301, about 0.25 KB a point, some
# 280 MB at this cap.
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class _Table:
    """Rows of a record type as columns: a sweep, a scan or a dynamics trace.

    columns holds one array per field of record_type, in field order, the
    status texts as an object array of str; records() builds the records.
    """

    record_type: type
    columns: tuple[np.ndarray, ...]

    def column(self, name: str) -> np.ndarray:
        return self.columns[[f.name for f in fields(self.record_type)].index(name)]

    def rows(self) -> Iterator[tuple]:
        """Each row's field values, in field order.

        The columns are converted to Python values CHUNK_SIZE rows at a time.
        """
        for start in range(0, len(self.columns[0]), CHUNK_SIZE):
            block = slice(start, start + CHUNK_SIZE)
            yield from zip(*[c[block].tolist() for c in self.columns])

    def records(self) -> list:
        return [self.record_type(*row) for row in self.rows()]

    def write(self, path) -> None:
        """Write the table as write_sweep_csv or write_dynamics_csv writes its records."""
        _write_csv(self.record_type, self.rows(), path)


def _evaluate_chunk(
    points: Sequence[SystemParams] | np.ndarray, quad: QuadratureSpec
) -> tuple[_Table, SteadyStates]:
    weights = as_weights(points)
    oracle = first_order_stack(weights)
    batch = steady_states(weights)
    solved = np.array([e is None for e in batch.errors], dtype=bool)
    # Measures are taken on the solved states only, which passed the
    # density-matrix checks.
    x = batch.sectors[solved]
    eigenvalues = batch.eigenvalues[solved]
    phi_at_max, peak = max_s_rel_stack(sector_s_rel(x, quad))
    ranks = sector_schmidt(eigenvalues, batch.pair_ratios[solved],
                           batch.center_vectors[solved])[1]
    # The measures of a refused point are nan and its Schmidt rank is 0;
    # its residual is nan already.
    columns = {"epsilon": weights[:, PARAM_KEYS.index("epsilon")],
               "delta": weights[:, PARAM_KEYS.index("delta")],
               "s_rel_fo": oracle.s_rel_peak, "negativity_fo": oracle.negativity,
               "residual": batch.residuals}
    for name, values in {"max_s_rel": peak, "phi_at_max": phi_at_max,
                         "negativity": sector_negativity(x),
                         "mutual_info": sector_mutual_information(x, eigenvalues),
                         "purity": sector_purity(x), "schmidt_rank": ranks}.items():
        columns[name] = np.full(len(weights), 0 if name == "schmidt_rank" else math.nan,
                                dtype=values.dtype)
        columns[name][solved] = values
    columns["status"] = np.full(len(weights), "ok", dtype=object)
    for i in np.flatnonzero(~(oracle.defined & solved)):
        messages = [] if oracle.defined[i] else [f"oracle: {NO_STEADY_STATE}"]
        if batch.errors[i] is not None:
            messages.append(f"solve: {batch.errors[i]}")
        columns["status"][i] = "; ".join(messages)
    return _Table(SweepRecord, tuple(columns[name] for name in SWEEP_CSV_HEADER.split(","))), batch


def evaluate_point(
    params: SystemParams, quad: QuadratureSpec = QuadratureSpec()
) -> tuple[SweepRecord, np.ndarray | None]:
    """Solve one point and fill a record; also return the state if solvable."""
    table, batch = _evaluate_chunk([params], quad)
    record = table.records()[0]
    if batch.errors[0] is not None:
        return record, None
    return record, batch.states[0]


def _validate_range(name: str, lo: float, hi: float) -> None:
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ValueError(f"invalid {name} range [{lo}, {hi}]")


def _check_steps(*steps: int) -> None:
    """Refuse an axis of fewer than 2 steps, or more than MAX_GRID_POINTS points."""
    if min(steps) < 2:
        raise ValueError("need at least 2 steps" + " per axis" * (len(steps) > 1))
    if math.prod(steps) > MAX_GRID_POINTS:
        raise ValueError(f"a grid of {math.prod(steps)} points is larger than "
                         f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")


def _grid(base: SystemParams, **axes: np.ndarray) -> np.ndarray:
    """(N, 7) weights of base with the named fields over the product of axes.

    The first axis varies slowest.  An invalid point refuses the grid as
    SystemParams refuses the first of them.
    """
    values = np.meshgrid(*axes.values(), indexing="ij")
    weights = np.tile(as_weights([base]), (values[0].size, 1))
    for name, axis in zip(axes, values):
        weights[:, PARAM_KEYS.index(name)] = axis.reshape(-1)
    check_weights(weights)
    return weights


def _arnold_table(
    base: SystemParams,
    eps_range: tuple[float, float] = (0.0, 0.1),
    delta_range: tuple[float, float] = (-1.0, 1.0),
    steps: tuple[int, int] = (101, 101),
    quad: QuadratureSpec = QuadratureSpec(),
) -> _Table:
    _validate_range("epsilon", *eps_range)
    _validate_range("delta", *delta_range)
    _check_steps(*steps)
    weights = _grid(base, epsilon=np.linspace(eps_range[0], eps_range[1], steps[0]),
                    delta=np.linspace(delta_range[0], delta_range[1], steps[1]))
    return _run_points(weights, quad)


def arnold_sweep(
    base: SystemParams,
    eps_range: tuple[float, float] = (0.0, 0.1),
    delta_range: tuple[float, float] = (-1.0, 1.0),
    steps: tuple[int, int] = (101, 101),
    quad: QuadratureSpec = QuadratureSpec(),
) -> list[SweepRecord]:
    """The coupling-detuning grid in epsilon-major order; a view of the sector engine."""
    return _arnold_table(base, eps_range, delta_range, steps, quad).records()


def _balanced_cut_table(
    base: SystemParams,
    ratio_range: tuple[float, float] = (1.0, 199.0),
    steps: int = 101,
    quad: QuadratureSpec = QuadratureSpec(),
) -> _Table:
    if not (base.gamma_g_a == base.gamma_d_a == base.gamma_g_b):
        raise ValueError("cut requires gamma_g_a = gamma_d_a = gamma_g_b")
    if base.delta != 0.0:
        raise ValueError("cut is defined on resonance (delta = 0)")
    if not (0.0 < ratio_range[0] <= ratio_range[1] and np.isfinite(ratio_range[1])):
        raise ValueError(f"invalid ratio range {ratio_range}")
    _check_steps(steps)
    weights = _grid(base, gamma_d_b=np.geomspace(ratio_range[0], ratio_range[1], steps))
    return _run_points(weights, quad)


def balanced_cut_scan(
    base: SystemParams,
    ratio_range: tuple[float, float] = (1.0, 199.0),
    steps: int = 101,
    quad: QuadratureSpec = QuadratureSpec(),
) -> list[SweepRecord]:
    """Scan the damping of spin B on a balanced cut; a view of the sector engine.

    All other rates are pinned and balanced: the base's A rates and B gain
    must be equal (the balanced-A configuration), with no detuning;
    gamma_d_b runs log-spaced over the ratio range.
    """
    return _balanced_cut_table(base, ratio_range, steps, quad).records()


def _run_points(
    points: Sequence[SystemParams] | np.ndarray, quad: QuadratureSpec
) -> _Table:
    # One table per chunk, joined; no points make one empty chunk.
    chunks = [_evaluate_chunk(points[start:start + CHUNK_SIZE], quad)[0]
              for start in range(0, max(len(points), 1), CHUNK_SIZE)]
    return _Table(SweepRecord, tuple(map(np.concatenate, zip(*[c.columns for c in chunks]))))


def _dynamics_table(params: SystemParams, t_max: float, samples: int,
                    quad: QuadratureSpec) -> _Table:
    rho0 = np.zeros((9, 9), dtype=complex)
    rho0[joint_index(0, 0), joint_index(0, 0)] = 1.0
    traj = evolve(params, rho0, t_max, samples=samples)
    x = traj.sectors[0]
    chunks = [x[start:start + CHUNK_SIZE] for start in range(0, len(x), CHUNK_SIZE)]
    peaks = np.concatenate([max_s_rel_stack(sector_s_rel(c, quad))[1] for c in chunks])
    negativities = np.concatenate([sector_negativity(c) for c in chunks])
    oracle_peaks = first_order_stack([params], traj.times).s_rel_peak
    return _Table(DynamicsRow, (traj.times, peaks, oracle_peaks, negativities, traj.trace_errors))


def dynamics_trace(
    params: SystemParams,
    t_max: float,
    samples: int = 11,
    quad: QuadratureSpec = QuadratureSpec(),
) -> list[DynamicsRow]:
    """Measures of the evolution from the resting state; a view of the sector engine.

    The initial state is the product of the two stabilized m=0 states; each
    sampled state is scored by its relative-phase peak (with the transient
    oracle peak alongside, nan where a decay rate of the oracle vanishes)
    and negativity.  The initial state lies in the k = 0 sector, the only
    sector that evolve steps, and the samples are measured on their 19
    entries there, Trajectory.sectors[0], CHUNK_SIZE samples at a time;
    each gets the same bits as alone.
    """
    return _dynamics_table(params, t_max, samples, quad).records()


def linear_regression(xs, ys) -> RegressionResult:
    """Least-squares line through (xs, ys) with explained-variance ratio."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("xs and ys must be equal-length 1-d sequences")
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("regression inputs must be finite")
    x_var = float(np.sum((x - x.mean()) ** 2))
    if x_var == 0.0:
        raise ValueError("degenerate regression: xs are all equal")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / x_var)
    intercept = float(y.mean() - slope * x.mean())
    ss_res = float(np.sum((y - slope * x - intercept) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return RegressionResult(slope=slope, intercept=intercept, r_squared=0.0,
                                n_points=len(x), degenerate_variance=True)
    return RegressionResult(
        slope=slope,
        intercept=intercept,
        r_squared=1.0 - ss_res / ss_tot,
        n_points=len(x),
    )


def _write_csv(record_type, rows: Iterable[Sequence], path) -> None:
    """Write rows of a record type's field values, in field order, as CSV.

    Commas and newlines in text fields become semicolons and spaces.  The
    rows are formatted and written CHUNK_SIZE at a time.
    """
    header, template = _csv_schema(record_type)
    kinds = [f.type for f in fields(record_type)]
    texts = [j for j, kind in enumerate(kinds) if kind == "str"]
    rows = iter(rows)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        while block := list(islice(rows, CHUNK_SIZE)):
            items = [value for row in block for value in row]
            for j in texts:
                items[j::len(kinds)] = [text.replace(",", ";").replace("\n", " ")
                                        for text in items[j::len(kinds)]]
            fh.write("".join([template + "\n"] * len(block)) % tuple(items))


def write_sweep_csv(records: list[SweepRecord], path) -> None:
    """Write sweep records as a table's CSV; a view of the sector engine's CSV writer."""
    _write_csv(SweepRecord, map(attrgetter(*SWEEP_CSV_HEADER.split(",")), records), path)


def write_dynamics_csv(rows: list[DynamicsRow], path) -> None:
    """Write dynamics rows as a table's CSV; a view of the sector engine's CSV writer."""
    _write_csv(DynamicsRow, map(attrgetter(*DYNAMICS_CSV_HEADER.split(",")), rows), path)
