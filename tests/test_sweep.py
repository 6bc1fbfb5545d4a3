import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import BALANCED, FIG2
from spinsync import (
    QuadratureSpec,
    RegressionResult,
    SweepRecord,
    SystemParams,
    arnold_sweep,
    balanced_cut_scan,
    evolve,
    linear_regression,
    max_s_rel,
    negativity,
    run_steady_point,
    s_rel,
    s_rel_first_order,
    s_rel_peak_first_order,
    schmidt_analysis,
    write_dynamics_csv,
    write_sweep_csv,
)
from spinsync import liouvillian, sweep
from spinsync.cli import main
from spinsync.first_order import NO_STEADY_STATE, coherences
from spinsync.operators import SECTOR_ENTRIES
from spinsync.sweep import DYNAMICS_CSV_HEADER, SWEEP_CSV_HEADER, evaluate_point

SMALL_GRID = dict(eps_range=(0.0, 0.1), delta_range=(-1.0, 1.0), steps=(2, 3))


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestRunSteadyPoint:
    def test_reference_point_record(self, fig2_params):
        record = run_steady_point(fig2_params)
        assert record.status == "ok"
        assert record.epsilon == 0.1 and record.delta == 0.0
        assert record.phi_at_max == 0.0
        assert record.s_rel_fo == pytest.approx(s_rel_first_order(fig2_params, 0.0), abs=1e-15)
        assert record.max_s_rel == pytest.approx(record.s_rel_fo, rel=0.05)
        assert record.negativity_fo == pytest.approx(0.101, abs=1e-15)
        assert record.schmidt_rank == 2
        assert record.residual <= 1e-8
        assert 0.9 < record.purity <= 1.0

    def test_returned_state_matches_record(self, fig2_params):
        record, rho = evaluate_point(fig2_params)
        assert rho is not None
        assert negativity(rho) == pytest.approx(record.negativity, abs=1e-13)

    def test_solver_failure_is_captured(self):
        # both gains off leaves degenerate dark levels even when coupled
        record, rho = evaluate_point(
            SystemParams(gamma_g_a=0.0, gamma_g_b=0.0, epsilon=0.05)
        )
        assert rho is None
        assert record.status.startswith("solve:")
        assert math.isnan(record.max_s_rel) and math.isnan(record.purity)
        assert record.schmidt_rank == 0
        assert math.isfinite(record.s_rel_fo)

    def test_oracle_and_solver_failures_combine(self):
        bad = SystemParams(gamma_g_a=0.0, gamma_g_b=0.0, gamma_d_b=0.0, epsilon=0.05)
        record, _ = evaluate_point(bad)
        assert "oracle:" in record.status and "solve:" in record.status
        assert math.isnan(record.s_rel_fo) and math.isnan(record.negativity_fo)

    def test_oracle_status_text(self):
        # Both decay rates of lam_minus vanish on resonance: the status is
        # the single-point oracle's exception text.
        params = SystemParams(gamma_g_a=0.0, gamma_d_b=0.0, epsilon=0.05)
        with pytest.raises(ValueError) as raised:
            coherences(params)
        assert str(raised.value) == NO_STEADY_STATE
        record = run_steady_point(params)
        assert record.status.split("; ")[0] == f"oracle: {raised.value}"

    def test_rank_threshold_straddling_draw(self):
        # A wide-range draw whose second and third Schmidt coefficients lie
        # 1.45e-4 above and 0.94e-4 below the 1e-3 threshold, relative to
        # the largest: rank 2 on the block path and in schmidt_analysis.
        params = SystemParams(
            gamma_d_a=1.0, gamma_g_a=1.6847394787959757, gamma_g_b=0.09978129297809225,
            gamma_d_b=0.16747786390832153, epsilon=0.0340956541057965,
            delta=-34.086280422150814, omega_ref=67.76634802982358,
        )
        record, rho = evaluate_point(params)
        analysis = schmidt_analysis(rho)
        assert record.status == "ok"
        assert record.schmidt_rank == analysis.rank == 2
        assert_allclose(analysis.coefficients[1:] / analysis.coefficients[0],
                        [1.000145e-3, 0.999906e-3], rtol=1e-6)


def same_record(a: SweepRecord, b: SweepRecord) -> bool:
    # repr round-trips every float exactly and, unlike ==, treats the nan
    # measures of a failed point as equal.
    return repr(a) == repr(b)


class TestChunkIsolation:
    """A refused or failing point leaves the rest of its chunk untouched."""

    POINTS = [
        SystemParams(gamma_g_b=0.0),  # kernel not unique
        SystemParams(gamma_g_a=0.0, gamma_d_b=0.0, epsilon=0.05),  # oracle fails
        FIG2,
    ]

    def test_refused_points_match_their_solo_records(self):
        records = sweep._run_points(self.POINTS, QuadratureSpec()).records()
        solo = [run_steady_point(p) for p in self.POINTS]
        assert all(same_record(a, b) for a, b in zip(records, solo))
        assert records[0].status.startswith("solve: steady state is not unique")
        assert records[1].status.startswith("oracle:")
        assert records[2].status == "ok"

    def test_overflowing_generator_is_refused(self, capfd, tmp_path):
        # delta = 1e308 is finite, but the generator built from it is not;
        # LAPACK used to print a DLASCL error and the point came back "ok".
        huge = SystemParams(delta=1e308)
        records = sweep._run_points([huge, FIG2], QuadratureSpec()).records()
        assert records[0].status.startswith("solve: generator has non-finite entries")
        assert records[0].schmidt_rank == 0 and math.isnan(records[0].residual)
        assert same_record(records[1], run_steady_point(FIG2))
        config = tmp_path / "huge.json"
        config.write_text('{"delta": 1e308}')
        assert main(["steady", "--config", str(config)]) == 2
        out, err = capfd.readouterr()
        assert "non-finite" in err
        assert "DLASCL" not in out + err

    def test_singular_inverse_is_pinned_on_its_point(self, monkeypatch):
        # LAPACK fails the whole stack for one singular member; make the
        # square recurrent system of the point with delta = 0.777 singular,
        # in a stack and alone.  It is recognized by the rows below the
        # trace row, those of its recurrent block.  The point fails the
        # verification, and the others keep their records.
        inv = np.linalg.inv
        points = [*self.POINTS, dataclasses.replace(FIG2, delta=0.777),
                  dataclasses.replace(FIG2, delta=0.5)]
        entries = liouvillian._real_entries(liouvillian.as_weights(points[3:4]))[0]
        singular = np.zeros(17 * 17)
        singular[liouvillian._RECURRENT_AT] = entries[0, liouvillian._RECURRENT_FROM]
        singular = singular.reshape(17, 17)[1:]

        def failing_inv(a):
            if np.any(np.all(a[..., 1:, :] == singular, axis=(-2, -1))):
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(a)

        clean = sweep._run_points(points, QuadratureSpec()).records()
        monkeypatch.setattr(np.linalg, "inv", failing_inv)
        records = sweep._run_points(points, QuadratureSpec()).records()
        assert records[3].status == (
            "solve: steady state is not unique to double precision: the inverse of its "
            "recurrent block fails verification, ||I - X S|| <= nan is not below 1")
        assert records[3].schmidt_rank == 0 and math.isnan(records[3].max_s_rel)
        for i in (0, 1, 2, 4):
            assert same_record(records[i], clean[i])


class TestArnoldSweep:
    def test_grid_order_is_epsilon_major(self):
        records = arnold_sweep(FIG2, **SMALL_GRID)
        assert len(records) == 6
        assert [r.epsilon for r in records] == [0.0] * 3 + [0.1] * 3
        assert [r.delta for r in records] == [-1.0, 0.0, 1.0] * 2

    def test_uncoupled_rows_are_quiet(self):
        records = arnold_sweep(FIG2, **SMALL_GRID)
        for r in records[:3]:
            assert r.status == "ok"
            assert abs(r.max_s_rel) <= 1e-10
            assert r.negativity <= 1e-10
            assert r.mutual_info <= 1e-9
            assert r.s_rel_fo == 0.0 and r.negativity_fo == 0.0
            assert r.schmidt_rank == 1

    def test_chunk_size_does_not_change_results(self, monkeypatch, tmp_path):
        # 297 points: many chunks of 7, one short chunk, and three chunks of
        # the default size, the last of them short.
        grid = dict(eps_range=(0.0, 0.1), delta_range=(-1.0, 1.0), steps=(9, 33))
        assert 2 * sweep.CHUNK_SIZE < 9 * 33 < 3 * sweep.CHUNK_SIZE
        outputs = []
        for size in (1, 7, sweep.CHUNK_SIZE):
            monkeypatch.setattr(sweep, "CHUNK_SIZE", size)
            records = arnold_sweep(FIG2, **grid)
            path = tmp_path / f"chunk-{size}.csv"
            write_sweep_csv(records, path)
            outputs.append((records, path.read_bytes()))
        for records, data in outputs[1:]:
            assert records == outputs[0][0]
            assert data == outputs[0][1]

    def test_jobs_keyword_is_removed(self):
        with pytest.raises(TypeError, match="jobs"):
            arnold_sweep(FIG2, jobs=2, **SMALL_GRID)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps": (1, 3)},
            {"steps": (3, 1)},
            {"eps_range": (0.1, 0.0)},
            {"delta_range": (0.0, float("inf"))},
        ],
    )
    def test_rejects_bad_grids(self, kwargs):
        merged = {**SMALL_GRID, **kwargs}
        with pytest.raises(ValueError):
            arnold_sweep(FIG2, **merged)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"eps_range": (-0.1, 0.1)}, "epsilon must be finite and >= 0, got -0.1"),
            ({"eps_range": (-0.2, -0.1)}, "epsilon must be finite and >= 0, got -0.2"),
            # The range is finite but its width overflows, and linspace
            # yields nan.
            ({"eps_range": (-1e308, 1e308)}, "epsilon must be finite and >= 0, got nan"),
            ({"delta_range": (-1e308, 1e308)}, "delta must be finite"),
            ({"eps_range": (0.0, 1e308), "delta_range": (-1e308, 1e308)},
             "delta must be finite"),
            ({"eps_range": (-1e308, 1e308), "delta_range": (-1e308, 1e308)},
             "epsilon must be finite and >= 0, got nan"),
            ({"eps_range": (0.1, 0.0)}, "invalid epsilon range [0.1, 0.0]"),
            ({"eps_range": (math.nan, 0.1)}, "invalid epsilon range [nan, 0.1]"),
            ({"delta_range": (0.0, math.inf)}, "invalid delta range [0.0, inf]"),
            ({"delta_range": (1.0, -1.0)}, "invalid delta range [1.0, -1.0]"),
            ({"steps": (1, 3)}, "need at least 2 steps per axis"),
            ({"steps": (1001, 1000)},
             "a grid of 1001000 points is larger than MAX_GRID_POINTS = 1000000"),
        ],
    )
    def test_refusal_messages(self, kwargs, message):
        # The text SystemParams gives the first invalid point in grid order.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as raised:
                arnold_sweep(FIG2, **{**SMALL_GRID, **kwargs})
        assert str(raised.value) == message


class TestArnoldSweepInvariants:
    """Checks on the full default-resolution sweep (session fixture)."""

    def test_every_point_solved(self, arnold):
        records, _ = arnold
        assert len(records) == 101 * 101
        assert all(r.status == "ok" for r in records)

    def test_peaks_track_the_oracle(self, arnold):
        records, _ = arnold
        for r in records:
            bound = max(0.05 * r.s_rel_fo, 1e-4)
            assert abs(r.max_s_rel - r.s_rel_fo) <= bound

    def test_resonant_peak_grows_linearly_in_coupling(self, arnold):
        records, _ = arnold
        eps = np.array([records[i * 101 + 50].epsilon for i in range(101)])
        peak = np.array([records[i * 101 + 50].max_s_rel for i in range(101)])
        fit = linear_regression(eps, peak)
        residual = np.max(np.abs(peak - (fit.slope * eps + fit.intercept)))
        assert fit.r_squared >= 0.999
        assert residual <= 0.02 * peak.max()

    def test_bandwidth_falloff(self, arnold):
        # at detuning equal to the coherence decay rate the locking peak
        # drops by sqrt(2) relative to resonance
        records, _ = arnold
        block = records[100 * 101:]
        ratio = block[50].max_s_rel / block[100].max_s_rel
        assert ratio == pytest.approx(np.sqrt(2.0), rel=0.05)

    def test_detuning_symmetry(self, arnold):
        records, _ = arnold
        block = records[100 * 101:]
        for k in range(101):
            assert block[k].max_s_rel == pytest.approx(
                block[100 - k].max_s_rel, rel=1e-6, abs=1e-12
            )


class TestBalancedCutScan:
    def test_endpoints_and_base(self, balanced_cut):
        assert len(balanced_cut) == 101
        assert balanced_cut[0].epsilon == 0.1
        assert all(r.status == "ok" for r in balanced_cut)

    def test_grid_is_geometric(self):
        records = balanced_cut_scan(BALANCED, ratio_range=(1.0, 199.0), steps=5)
        assert len(records) == 5
        # records carry no gamma column; the scan is validated through the
        # monotone response instead
        assert records[0].negativity == pytest.approx(0.2, rel=0.2)
        assert records[-1].negativity < records[0].negativity

    @pytest.mark.parametrize(
        "base,kwargs",
        [
            (dataclasses.replace(BALANCED, gamma_g_a=2.0), {}),
            (dataclasses.replace(BALANCED, delta=0.1), {}),
            (BALANCED, {"ratio_range": (0.0, 10.0)}),
            (BALANCED, {"ratio_range": (10.0, 1.0)}),
            (BALANCED, {"steps": 1}),
        ],
    )
    def test_rejects_invalid_setups(self, base, kwargs):
        with pytest.raises(ValueError):
            balanced_cut_scan(base, **kwargs)

    @pytest.mark.parametrize(
        "base, kwargs, message",
        [
            (dataclasses.replace(BALANCED, gamma_g_a=2.0), {},
             "cut requires gamma_g_a = gamma_d_a = gamma_g_b"),
            (dataclasses.replace(BALANCED, delta=0.1), {},
             "cut is defined on resonance (delta = 0)"),
            (BALANCED, {"ratio_range": (0.0, 10.0)}, "invalid ratio range (0.0, 10.0)"),
            (BALANCED, {"ratio_range": (10.0, 1.0)}, "invalid ratio range (10.0, 1.0)"),
            (BALANCED, {"ratio_range": (1.0, math.inf)}, "invalid ratio range (1.0, inf)"),
            (BALANCED, {"steps": 1}, "need at least 2 steps"),
            (BALANCED, {"steps": 10**6 + 1},
             "a grid of 1000001 points is larger than MAX_GRID_POINTS = 1000000"),
        ],
    )
    def test_refusal_messages(self, base, kwargs, message):
        with pytest.raises(ValueError) as raised:
            balanced_cut_scan(base, **kwargs)
        assert str(raised.value) == message

    def test_jobs_keyword_is_removed(self):
        with pytest.raises(TypeError, match="jobs"):
            balanced_cut_scan(BALANCED, steps=3, jobs=2)

    def test_grid_size_is_bounded(self, monkeypatch):
        # Grids of MAX_GRID_POINTS points are evaluated, larger ones refused.
        monkeypatch.setattr(sweep, "MAX_GRID_POINTS", 6)
        assert len(arnold_sweep(FIG2, steps=(2, 3))) == 6
        assert len(balanced_cut_scan(BALANCED, steps=6)) == 6
        with pytest.raises(ValueError, match="a grid of 8 points is larger than "
                                             "MAX_GRID_POINTS = 6"):
            arnold_sweep(FIG2, steps=(2, 4))
        with pytest.raises(ValueError, match="a grid of 7 points is larger than "
                                             "MAX_GRID_POINTS = 6"):
            balanced_cut_scan(BALANCED, steps=7)


class TestDynamicsTrace:
    def test_starts_quiet(self, fig2_dynamics):
        first = fig2_dynamics[0]
        assert first.t == 0.0
        assert abs(first.s_rel_peak) <= 1e-12
        assert first.s_rel_peak_oracle == 0.0
        assert first.negativity <= 1e-12
        assert first.trace_error <= 1e-14

    def test_locking_signal_builds_up(self, fig2_dynamics):
        peaks = [row.s_rel_peak for row in fig2_dynamics]
        assert peaks[-1] > 10.0 * max(abs(peaks[0]), 1e-6)
        assert fig2_dynamics[-1].negativity > 0.05

    def test_tracks_transient_oracle(self, fig2_dynamics):
        for row in fig2_dynamics:
            if row.s_rel_peak_oracle > 1e-3:
                assert row.s_rel_peak == pytest.approx(row.s_rel_peak_oracle, rel=0.05)

    def test_trace_is_conserved(self, fig2_dynamics):
        assert all(row.trace_error <= 1e-8 for row in fig2_dynamics)

    def test_samples_outside_the_sector_are_exactly_zero(self, monkeypatch):
        # The samples are measured on their k = 0 entries, sectors[0].
        # evolve steps only the sectors where |0,0> is nonzero, so the
        # others have no columns, and the 9x9 states hold sectors[0] bit for
        # bit, are exactly Hermitian and are +0 everywhere else, at any
        # omega_ref.  Inside the sector only the populations of |+1,+1> and
        # |-1,-1>, which nothing feeds, stay zero.
        evolve = sweep.evolve
        trajectories = []

        def recording(*args, **kwargs):
            trajectories.append(evolve(*args, **kwargs))
            return trajectories[-1]

        monkeypatch.setattr(sweep, "evolve", recording)
        sweep.dynamics_trace(dataclasses.replace(FIG2, omega_ref=3.0), t_max=0.05, samples=3)
        traj = trajectories[0]
        assert [part.shape for part in traj.sectors] == [(3, 19)] + [(3, 0)] * 4
        states = traj.states
        flat = states.reshape(3, -1)
        assert flat[:, SECTOR_ENTRIES].tobytes() == traj.sectors[0].tobytes()
        assert np.count_nonzero(flat[-1, SECTOR_ENTRIES]) == 17
        assert np.array_equal(states, states.conj().transpose(0, 2, 1))
        outside = np.delete(flat, SECTOR_ENTRIES, axis=-1)
        assert not np.any(outside)
        assert not np.any(np.signbit(outside.real) | np.signbit(outside.imag))

    def test_sample_count_and_spacing(self, fig2_dynamics):
        times = [row.t for row in fig2_dynamics]
        assert len(times) == 11
        assert_allclose(times, np.linspace(0.0, 5.0, 11), atol=1e-12)

    def test_oracle_is_the_single_point_peak_bitwise(self, fig2_dynamics):
        # The samples' oracles come from one stacked call over all times.
        detuned = SystemParams(gamma_g_a=2.0, gamma_g_b=0.8, gamma_d_b=1.4,
                               epsilon=0.08, delta=0.6)
        for params, rows in ((FIG2, fig2_dynamics),
                             (detuned, sweep.dynamics_trace(detuned, t_max=2.0, samples=5))):
            for row in rows:
                want = s_rel_peak_first_order(params, row.t)
                assert np.float64(row.s_rel_peak_oracle).tobytes() == np.float64(want).tobytes()
            assert rows[-1].s_rel_peak_oracle > 0.0

    def test_chunk_size_does_not_change_rows(self, monkeypatch):
        # 11 samples measured in chunks of 1, 4 and the default size get
        # the same bits.
        rows = []
        for size in (1, 4, sweep.CHUNK_SIZE):
            monkeypatch.setattr(sweep, "CHUNK_SIZE", size)
            trace = sweep.dynamics_trace(FIG2, t_max=0.5, samples=11)
            rows.append(np.array([dataclasses.astuple(row) for row in trace]).tobytes())
        assert rows[0] == rows[1] == rows[2]

    def test_undefined_oracle_is_nan(self):
        # gamma_g_a = gamma_d_b = delta = 0 make lam_minus vanish; the
        # state evolves and is measured as usual, and the oracle column is nan.
        params = SystemParams(gamma_g_a=0.0, gamma_d_b=0.0, epsilon=0.1)
        rows = sweep.dynamics_trace(params, t_max=0.05, samples=3)
        assert all(math.isnan(row.s_rel_peak_oracle) for row in rows)
        rho0 = np.zeros((9, 9), dtype=complex)
        rho0[4, 4] = 1.0
        traj = evolve(params, rho0, 0.05, samples=3)
        assert [row.t for row in rows] == traj.times.tolist()
        assert [row.trace_error for row in rows] == traj.trace_errors.tolist()
        for row, rho in zip(rows, traj.states):
            assert row.s_rel_peak == pytest.approx(
                max_s_rel(s_rel(rho, QuadratureSpec()))[1], abs=1e-14)
            assert row.negativity == pytest.approx(negativity(rho), abs=1e-14)
        assert rows[-1].negativity > 0.005


def record_lapack_calls(monkeypatch) -> dict[str, list[tuple[int, ...]]]:
    """Record the input shape of every numpy eigensolver and SVD call."""
    calls = {}
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        calls[name] = []

        def recording(a, *args, _fn=getattr(np.linalg, name), _seen=calls[name], **kwargs):
            _seen.append(a.shape)
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


class TestBlockMeasures:
    """The measures run on blocks, with no 9x9 eigensolver.

    Of the blocks of sizes 1, 2, 3, 2, 1 only the 3x3 one goes to LAPACK;
    the others have closed forms.
    """

    def test_lapack_calls_per_chunk(self, monkeypatch):
        # One tongue chunk: the engine's stacked eigh of the M = 0 blocks
        # serves the density-matrix checks, S(AB) and the Schmidt vector;
        # one eigvalsh of the m_A - m_B = 0 blocks gives the negativity.
        weights = sweep._grid(FIG2, epsilon=np.linspace(0.0, 0.1, 4),
                              delta=np.linspace(-1.0, 1.0, 8))
        calls = record_lapack_calls(monkeypatch)
        table, _ = sweep._evaluate_chunk(weights, QuadratureSpec())
        assert table.column("status").tolist() == ["ok"] * 32
        assert calls == {"eig": [], "eigh": [(32, 3, 3)], "eigvals": [],
                         "eigvalsh": [(32, 3, 3)], "svd": []}

    def test_lapack_calls_per_point_and_trace(self, monkeypatch):
        calls = record_lapack_calls(monkeypatch)
        evaluate_point(FIG2)
        assert calls == {"eig": [], "eigh": [(1, 3, 3)], "eigvals": [],
                         "eigvalsh": [(1, 3, 3)], "svd": []}
        # evolve validates the 9x9 initial state it is given; the samples
        # are measured on blocks.
        calls = record_lapack_calls(monkeypatch)
        sweep.dynamics_trace(FIG2, t_max=0.01, samples=3)
        assert calls == {"eig": [], "eigh": [], "eigvals": [],
                         "eigvalsh": [(9, 9), (3, 3, 3)], "svd": []}


class TestLinearRegression:
    def test_exact_line(self):
        xs = np.arange(5.0)
        fit = linear_regression(xs, 2.0 * xs + 1.0)
        assert fit == RegressionResult(
            slope=pytest.approx(2.0),
            intercept=pytest.approx(1.0),
            r_squared=pytest.approx(1.0),
            n_points=5,
        )

    def test_constant_ys_flag_degenerate_variance(self):
        fit = linear_regression([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == 0.0
        assert fit.degenerate_variance

    def test_noisy_line_keeps_high_r_squared(self):
        rng = np.random.default_rng(67)
        xs = np.linspace(0.0, 1.0, 40)
        ys = 0.23 * xs + 0.001 * rng.normal(size=40)
        fit = linear_regression(xs, ys)
        assert fit.slope == pytest.approx(0.23, abs=0.005)
        assert fit.r_squared > 0.95

    @pytest.mark.parametrize(
        "xs,ys",
        [
            ([1.0], [2.0]),
            ([1.0, 2.0], [1.0, 2.0, 3.0]),
            ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
            ([0.0, float("nan")], [0.0, 1.0]),
        ],
    )
    def test_rejects_unusable_inputs(self, xs, ys):
        with pytest.raises(ValueError):
            linear_regression(xs, ys)


class TestCsvOutput:
    def test_sweep_header_and_roundtrip(self, tmp_path):
        records = arnold_sweep(FIG2, **SMALL_GRID)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(records, path)
        header, rows = read_rows(path)
        assert header == SWEEP_CSV_HEADER
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            assert len(row) == 12
            assert float(row[0]) == record.epsilon
            assert float(row[2]) == pytest.approx(record.max_s_rel, rel=1e-11, abs=1e-300)
            assert int(row[7]) == record.schmidt_rank
            assert row[11] == "ok"

    def test_sweep_output_is_deterministic(self, tmp_path):
        records = arnold_sweep(FIG2, **SMALL_GRID)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(records, a)
        write_sweep_csv(records, b)
        assert a.read_bytes() == b.read_bytes()

    def test_status_text_cannot_break_the_layout(self, tmp_path):
        record = dataclasses.replace(
            run_steady_point(FIG2), status="solve: a, b\nand more"
        )
        path = tmp_path / "bad.csv"
        write_sweep_csv([record], path)
        _, rows = read_rows(path)
        assert len(rows) == 1 and len(rows[0]) == 12
        assert rows[0][11] == "solve: a; b and more"

    def test_failed_points_round_trip_as_nan(self, tmp_path):
        record, _ = evaluate_point(
            SystemParams(gamma_g_a=0.0, gamma_g_b=0.0, epsilon=0.05)
        )
        path = tmp_path / "failed.csv"
        write_sweep_csv([record], path)
        _, rows = read_rows(path)
        assert math.isnan(float(rows[0][2]))
        assert rows[0][11].startswith("solve:")

    @staticmethod
    def cli_and_api_files(tmp_path, command, base, argv, records):
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(dataclasses.asdict(base)))
        paths = tmp_path / f"{command}-cli.csv", tmp_path / f"{command}-api.csv"
        assert main([command, "--config", str(config), "--out", str(paths[0]), *argv]) == 0
        write_sweep_csv(records, paths[1])
        return [path.read_bytes() for path in paths]

    def test_cli_writes_what_write_sweep_csv_writes(self, tmp_path):
        # The CLI formats rows from the evaluated columns; its file must be
        # the one the public functions write, refused points included: at
        # epsilon = 0 the kernel is not unique, with nan measures, rank 0
        # and a status naming two zero rates, and at delta = 0 the oracle
        # fails as well.
        base = SystemParams(gamma_g_a=0.0, gamma_d_b=0.0)
        cli, api = self.cli_and_api_files(
            tmp_path, "sweep", base, ["--eps-steps", "3", "--delta-steps", "5"],
            arnold_sweep(base, steps=(3, 5)))
        assert cli == api
        _, rows = read_rows(tmp_path / "sweep-cli.csv")
        assert len(rows) == 15 and all(len(row) == 12 for row in rows)
        assert rows[2][11] == (f"oracle: {NO_STEADY_STATE}; solve: steady state is not "
                               "unique: gamma_g_a; gamma_d_b and epsilon are zero")
        assert rows[2][2:8] == ["nan"] * 5 + ["0"] and rows[2][10] == "nan"
        assert rows[0][11].startswith("solve: ") and rows[14][11] == "ok"
        cli, api = self.cli_and_api_files(
            tmp_path, "scan-balanced", BALANCED, ["--gdb-min", "2.0", "--steps", "4"],
            balanced_cut_scan(BALANCED, ratio_range=(2.0, 199.0), steps=4))
        assert cli == api

    def test_dynamics_header_and_roundtrip(self, tmp_path, fig2_dynamics):
        path = tmp_path / "dyn.csv"
        write_dynamics_csv(fig2_dynamics, path)
        header, rows = read_rows(path)
        assert header == DYNAMICS_CSV_HEADER
        assert len(rows) == len(fig2_dynamics)
        for row, src in zip(rows, fig2_dynamics):
            assert len(row) == 5
            assert float(row[0]) == pytest.approx(src.t, abs=1e-12)
            assert float(row[1]) == pytest.approx(src.s_rel_peak, rel=1e-11, abs=1e-300)


def test_sweep_record_defaults_to_ok():
    record = SweepRecord(
        epsilon=0.0, delta=0.0, max_s_rel=0.0, phi_at_max=0.0, negativity=0.0,
        mutual_info=0.0, purity=1.0, schmidt_rank=1, s_rel_fo=0.0,
        negativity_fo=0.0, residual=0.0,
    )
    assert record.status == "ok"
