import warnings
from dataclasses import replace
from math import cos, sin

import numpy as np
import pytest

from stochwave import (
    CubicGraph,
    DiffusionMap,
    LinearGraph,
    MartingaleDriver,
    NuclearCovariance,
    SignGraph,
    SolverConfig,
    SpectralGrid,
    StudySpec,
    energy_study,
    isometry_study,
    lambda_convergence_study,
    pairing_study,
    write_csv,
    write_field_csv,
)
from stochwave.studies import _sweep_job


@pytest.fixture(scope="module")
def small_stochastic_spec():
    grid = SpectralGrid(1, 16)
    cov = NuclearCovariance.from_grid(grid, 1.0, 2.0)
    base = SolverConfig(
        grid=grid, graph=CubicGraph(), lam=1e-2, dt=2e-3, t_final=0.25,
        driver=MartingaleDriver("wiener", cov),
        diffusion=DiffusionMap.from_name("clip"),
        u0="smooth:4", seed=9, record=frozenset(),
    )
    return StudySpec(base=base, lambdas=(1e-1, 1e-2, 1e-3), n_paths=8, seed=9, workers=1)


def scalar_recursion(lam, dt, n_steps, omega=1.0, u0=1.0):
    """Independent per-mode float recursion for the Linear(1) graph."""
    rate = 1.0 / (1.0 + lam)
    u, v = u0, 0.0
    trace = [u]
    for _ in range(n_steps):
        w = v - dt * rate * u
        u, v = (
            cos(dt * omega) * u + sin(dt * omega) / omega * w,
            -omega * sin(dt * omega) * u + cos(dt * omega) * w,
        )
        trace.append(u)
    return np.array(trace)


class TestStudySpecValidation:
    def test_grid_rules(self, small_stochastic_spec):
        base = small_stochastic_spec.base
        with pytest.raises(ValueError):
            StudySpec(base=base, lambdas=())
        with pytest.raises(ValueError):
            StudySpec(base=base, lambdas=(1e-3, 1e-2))  # ascending
        with pytest.raises(ValueError):
            StudySpec(base=base, lambdas=(1e-2,), n_paths=0)
        # equal neighbours are allowed (gap is exactly zero downstream)
        StudySpec(base=base, lambdas=(1e-2, 1e-2, 1e-3))


class TestLambdaSweep:
    @pytest.mark.parametrize(
        "study", [energy_study, pairing_study, lambda_convergence_study], ids=lambda f: f.__name__
    )
    def test_worker_count_does_not_change_rows(self, small_stochastic_spec, study):
        serial = study(replace(small_stochastic_spec, workers=1))
        pooled = study(replace(small_stochastic_spec, workers=2))
        assert serial.rows == pooled.rows

    def test_sweep_rejects_lambdas_on_different_noise(self, small_stochastic_spec):
        base = small_stochastic_spec.base
        configs = (base, replace(base, lam=1e-3, seed=base.seed + 1))
        with pytest.raises(RuntimeError, match="different noise streams"):
            _sweep_job(configs, lambda config, prev, result: None, 0)


class TestEnergyStudy:
    def test_deterministic_flow_pins_estimate(self):
        grid = SpectralGrid(1, 16)
        base = SolverConfig(
            grid=grid, graph=LinearGraph(0.0), lam=1.0, dt=2e-3, t_final=0.25,
            driver=None, u0="smooth:4", record=frozenset(),
        )
        spec = StudySpec(base=base, lambdas=(1e-1, 1e-2), n_paths=5, seed=0)
        report = energy_study(spec)
        e0 = sum(k**-2.0 for k in range(1, 5))  # sum mu_k * (1/mu_k)^2
        for lam, est, se, n in report.rows:
            assert est == pytest.approx(e0, rel=1e-12)
            assert se == 0.0
            assert n == 5

    def test_single_path_reports_identical_across_runs(self, small_stochastic_spec):
        spec = replace(small_stochastic_spec, n_paths=1)
        assert energy_study(spec).rows == energy_study(spec).rows

    def test_every_diffusion_map_survives_the_worker_pool(self, small_stochastic_spec):
        # maps hold callables; a pool run requires them to pickle
        import pickle

        for name in ("one", "clip", "sin", "zero"):
            sigma = DiffusionMap.from_name(name)
            assert pickle.loads(pickle.dumps(sigma)).name == name
        base = replace(small_stochastic_spec.base, diffusion=DiffusionMap.from_name("one"))
        spec = replace(small_stochastic_spec, base=base, lambdas=(1e-2,), n_paths=4, workers=2)
        report = energy_study(spec)
        assert report.rows[0][3] == 4

    def test_blow_up_rows_are_flagged_and_study_continues(self):
        grid = SpectralGrid(1, 16)
        base = SolverConfig(
            grid=grid, graph=LinearGraph(1e9), lam=1e-1, dt=1e-3, t_final=0.1,
            driver=None, u0="smooth:4", record=frozenset(),
        )
        spec = StudySpec(base=base, lambdas=(1e-1, 1e-9), n_paths=3, seed=1)
        report = energy_study(spec)
        assert report.meta["blowups"] == {1e-9: 3}
        good, bad = report.rows
        assert np.isfinite(good[1]) and good[3] == 3
        assert np.isnan(bad[1]) and bad[3] == 0


class TestPairingStudy:
    def test_zero_graph_gives_zero(self, small_stochastic_spec):
        base = replace(small_stochastic_spec.base, graph=LinearGraph(0.0))
        spec = replace(small_stochastic_spec, base=base, n_paths=2)
        report = pairing_study(spec, eps_grid=(1e-2, 0.0))
        for _, _, est, se, _ in report.rows:
            assert est == 0.0 and se == 0.0

    def test_linear_single_mode_matches_scalar_and_continuum(self):
        lam, dt = 0.5, 1e-3
        grid = SpectralGrid(1, 16)
        base = SolverConfig(
            grid=grid, graph=LinearGraph(1.0), lam=lam, dt=dt, t_final=1.0,
            driver=None, u0="smooth:1", record=frozenset(),
        )
        spec = StudySpec(base=base, lambdas=(lam,), n_paths=1, seed=0)
        est = pairing_study(spec, eps_grid=(0.0,)).rows[0][2]
        # independent scalar accumulation of the same quadrature
        rate = 1.0 / (1.0 + lam)
        u, v = 1.0, 0.0
        acc = 0.0
        for _ in range(1000):
            acc += dt * (rate * u) ** 2
            w = v - dt * rate * u
            u, v = cos(dt) * u + sin(dt) * w, -sin(dt) * u + cos(dt) * w
        assert est == pytest.approx(acc, abs=1e-12)
        # continuum closed form, matched to quadrature order O(dt)
        omega = np.sqrt(1.0 + rate)
        closed = rate**2 * (0.5 + np.sin(2.0 * omega) / (4.0 * omega))
        assert est == pytest.approx(closed, abs=2.0 * dt)

    def test_smoothing_sweep_has_zero_limit_column(self, small_stochastic_spec):
        spec = replace(small_stochastic_spec, n_paths=2, lambdas=(1e-2,))
        report = pairing_study(spec, eps_grid=(1e-2, 1e-3))
        eps_seen = [row[1] for row in report.rows]
        assert eps_seen == [1e-2, 1e-3, 0.0]
        # smoothing is a contraction mode-wise, so estimates stay comparable
        assert all(np.isfinite(row[2]) for row in report.rows)

    def test_sign_graph_estimates_nonnegative(self, small_stochastic_spec):
        base = replace(small_stochastic_spec.base, graph=SignGraph())
        spec = replace(small_stochastic_spec, base=base, n_paths=3)
        report = pairing_study(spec, eps_grid=(0.0,))
        for row in report.rows:
            assert row[2] >= 0.0


class TestLambdaConvergenceStudy:
    def test_needs_three_lambdas(self, small_stochastic_spec):
        spec = replace(small_stochastic_spec, lambdas=(1e-1, 1e-2))
        with pytest.raises(ValueError):
            lambda_convergence_study(spec)

    def test_linear_gaps_match_scalar_oracle(self):
        lams = (0.1, 0.05, 0.025, 0.0125)
        dt = 1e-3
        grid = SpectralGrid(1, 16)
        base = SolverConfig(
            grid=grid, graph=LinearGraph(1.0), lam=0.1, dt=dt, t_final=1.0,
            driver=None, u0="smooth:1", record=frozenset(),
        )
        spec = StudySpec(base=base, lambdas=lams, n_paths=1, seed=0)
        report = lambda_convergence_study(spec)
        traces = {lam: scalar_recursion(lam, dt, 1000) for lam in lams}
        for row, (hi, lo) in zip(report.rows, zip(lams, lams[1:])):
            oracle = float(np.max(np.abs(traces[hi] - traces[lo])))
            assert row[2] == pytest.approx(oracle, abs=1e-12)
        # gap sizes scale like the Yosida slope differences 1/(1+lam)
        coefs = [abs(1.0 / (1.0 + a) - 1.0 / (1.0 + b)) for a, b in zip(lams, lams[1:])]
        for j in range(len(coefs) - 1):
            gap_ratio = report.rows[j][2] / report.rows[j + 1][2]
            assert gap_ratio == pytest.approx(coefs[j] / coefs[j + 1], rel=0.15)

    def test_equal_lambdas_give_zero_gap(self, small_stochastic_spec):
        spec = replace(small_stochastic_spec, lambdas=(1e-2, 1e-2, 1e-3), n_paths=2)
        report = lambda_convergence_study(spec)
        first = report.rows[0]
        assert first[2] == 0.0 and first[4] == 0.0

    def test_blow_up_pairs_are_flagged_and_study_continues(self):
        grid = SpectralGrid(1, 16)
        base = SolverConfig(
            grid=grid, graph=LinearGraph(1e9), lam=1e-1, dt=1e-3, t_final=0.1,
            driver=None, u0="smooth:4", record=frozenset(),
        )
        spec = StudySpec(base=base, lambdas=(1e-1, 5e-2, 1e-9), n_paths=3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = lambda_convergence_study(spec)
        assert report.meta["blowups"] == {1e-9: 3}
        good, bad = report.rows
        assert all(np.isfinite(good[2:8])) and good[8] == 3
        assert all(np.isnan(bad[2:8])) and bad[8] == 0

    def test_coupled_gaps_decrease_for_cubic(self, small_stochastic_spec):
        spec = replace(
            small_stochastic_spec, lambdas=(1e-1, 5e-2, 2.5e-2), n_paths=6, workers=2
        )
        report = lambda_convergence_study(spec)
        u_gaps = [row[2] for row in report.rows]
        beta_gaps = [row[4] for row in report.rows]
        assert u_gaps[0] > u_gaps[1]
        assert beta_gaps[0] > beta_gaps[1]
        # negative-order gaps are dominated by the L2-equivalent ones
        for row in report.rows:
            assert row[6] >= row[7] >= 0.0


class TestIsometryStudy:
    def test_rows_and_statistics(self, small_stochastic_spec):
        spec = replace(small_stochastic_spec, n_paths=400)
        report = isometry_study(spec)
        checks = {row[0]: row for row in report.rows}
        iso = checks["ito_isometry_wiener"]
        assert abs(iso[1] - iso[2]) <= 3.0 * iso[3]
        qv = checks["quadratic_variation"]
        assert abs(qv[1] - qv[2]) <= 3.0 * qv[3]
        ibp = checks["integration_by_parts"]
        assert ibp[1] <= 1e-12

    def test_requires_driver(self, small_stochastic_spec):
        base = replace(small_stochastic_spec.base, driver=None)
        spec = replace(small_stochastic_spec, base=base)
        with pytest.raises(ValueError):
            isometry_study(spec)


class TestCsvOutput:
    def test_energy_schema_and_determinism(self, small_stochastic_spec, tmp_path):
        report = energy_study(replace(small_stochastic_spec, n_paths=2))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(report, p1)
        write_csv(energy_study(replace(small_stochastic_spec, n_paths=2)), p2)
        text = p1.read_text()
        assert text.splitlines()[0] == "lambda,estimate,std_error,n_paths"
        assert len(text.splitlines()) == 4  # header + one row per lambda
        assert p1.read_bytes() == p2.read_bytes()

    def test_other_schemas(self, small_stochastic_spec, tmp_path):
        spec = replace(small_stochastic_spec, n_paths=2)
        headers = {
            "pairing": "lambda,eps,estimate,std_error,n_paths",
            "lambda-conv": (
                "lambda_hi,lambda_lo,u_gap,u_gap_se,beta_l1_gap,beta_l1_gap_se,"
                "beta_hm2_gap,beta_hm3_gap,n_paths"
            ),
            "isometry": "check,estimate,target,std_error,n_paths",
        }
        reports = [
            pairing_study(spec, eps_grid=(1e-2, 0.0)),
            lambda_convergence_study(spec),
            isometry_study(spec),
        ]
        for report in reports:
            out = tmp_path / f"{report.name}.csv"
            write_csv(report, out)
            assert out.read_text().splitlines()[0] == headers[report.name]


    def test_field_dump_schemas(self, tmp_path):
        grid1 = SpectralGrid(1, 3)
        out = tmp_path / "field1.csv"
        write_field_csv(grid1, np.array([0.5, 0.0, -1.25]), out)
        assert out.read_text() == "k1,coeff\n1,0.5\n2,0.0\n3,-1.25\n"
        grid2 = SpectralGrid(2, 2)
        out2 = tmp_path / "field2.csv"
        write_field_csv(grid2, np.arange(4.0).reshape(2, 2), out2)
        lines = out2.read_text().splitlines()
        assert lines[0] == "k1,k2,coeff"
        assert lines[1] == "1,1,0.0" and lines[4] == "2,2,3.0"
        with pytest.raises(ValueError):
            write_field_csv(grid1, np.zeros(4), tmp_path / "bad.csv")
