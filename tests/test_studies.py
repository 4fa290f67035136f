import os
import signal
import time
import tracemalloc
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
    NumericError,
    SignGraph,
    SolverConfig,
    SpectralGrid,
    StudyReport,
    StudySpec,
    energy_study,
    isometry_study,
    lambda_convergence_study,
    pairing_study,
    parse_graph,
    path_rng,
    simulate_path,
    write_csv,
    write_field_csv,
)
from stochwave import noise, studies
from stochwave.solver import SERIES_COLUMNS, _run
from stochwave.studies import _energy_job, _gaps_job, _mean_se, _pairing_job


@pytest.fixture(scope="module")
def small_stochastic_spec():
    grid = SpectralGrid(1, 16)
    cov = NuclearCovariance.from_grid(grid, 1.0, 2.0)
    base = SolverConfig(
        grid=grid, graph=CubicGraph(), lam=1e-2, dt=2e-3, t_final=0.25,
        driver=MartingaleDriver("wiener", cov),
        diffusion=DiffusionMap.from_name("clip"),
        u0="smooth:4", seed=9,
    )
    return StudySpec(base=base, lambdas=(1e-1, 1e-2, 1e-3), n_paths=8, workers=1)


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


def whole_history_gaps(config, prev, result):
    """Gap arithmetic over two recorded (u, beta, beta_nodes) histories, one array op per quantity."""
    if prev is None:
        return ()
    grid, dt = config.grid, config.dt
    du = result.u - prev.u
    u_gap = float(np.max(np.sqrt([np.vdot(row, row) for row in du])))
    dbeta = result.beta - prev.beta
    l1 = 0.0
    for row in result.beta_nodes - prev.beta_nodes:
        l1 += grid.weight * float(np.sum(np.abs(row)))
    l1 *= dt
    hm2 = dt * float(np.sum(np.sqrt([np.vdot((1.0 + grid.mu) ** -2.0, row**2) for row in dbeta])))
    hm3 = dt * float(np.sum(np.sqrt([np.vdot((1.0 + grid.mu) ** -3.0, row**2) for row in dbeta])))
    return u_gap, l1, hm2, hm3


def serial_children(monkeypatch, cpus):
    """Make the fork map step its children's shares in this process, on ``cpus`` CPUs; returns the shares."""
    shares = []

    class SerialChild:
        def __init__(self, fn, share):
            shares.append(share)
            self.results = [fn(block) for block in share]

        def join(self):
            return self.results

        def kill(self):
            pass

    monkeypatch.setattr(studies, "_Child", SerialChild)
    monkeypatch.setattr(studies, "_usable_cpus", lambda: cpus)
    return shares


class TestForkMap:
    """The fork map on at most 2 processes: one child, whose failures reach the caller whole."""

    BLOCKS = (range(0, 2), range(2, 4))  # this process steps the first block, one child the second

    def test_a_child_steps_its_share_and_results_come_back_in_order(self):
        results = studies._map_ordered(lambda block: (list(block), os.getpid()), self.BLOCKS, 2)
        assert [paths for paths, _ in results] == [[0, 1], [2, 3]]
        assert results[0][1] == os.getpid() != results[1][1]

    def test_a_childs_error_is_raised_with_its_type_message_and_step(self):
        def fn(block):
            if block.start:
                raise NumericError(f"energy blow-up at step 7 of {block}", step=7)
            return 0

        with pytest.raises(NumericError, match=r"step 7 of range\(2, 4\)") as info:
            studies._map_ordered(fn, self.BLOCKS, 2)
        assert info.value.step == 7

    def test_numeric_error_keeps_its_step_through_pickle(self):
        import pickle

        for step in (None, 0, 12):
            err = pickle.loads(pickle.dumps(NumericError("energy blow-up", step=step)))
            assert type(err) is NumericError and err.args == ("energy blow-up",) and err.step == step

    @pytest.mark.parametrize(
        "leave, how",
        [
            (lambda: os._exit(3), "exited with status 3"),
            (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {int(signal.SIGKILL)}"),
        ],
        ids=["exit", "signal"],
    )
    def test_a_child_that_leaves_no_result_is_named(self, leave, how):
        def fn(block):
            if block.start:
                leave()
            return 0

        with pytest.raises(ChildProcessError, match=f"paths 2..3 {how} without a result"):
            studies._map_ordered(fn, self.BLOCKS, 2)

    def test_a_failing_share_of_this_process_kills_and_reaps_the_child(self, monkeypatch):
        pids = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        def fn(block):
            if block.start:
                time.sleep(60)
            raise ValueError("this process's share failed")

        monkeypatch.setattr(studies.os, "fork", recording_fork)
        start = time.monotonic()
        with pytest.raises(ValueError, match="share failed"):
            studies._map_ordered(fn, self.BLOCKS, 2)
        assert time.monotonic() - start < 30
        [pid] = pids
        with pytest.raises(ChildProcessError):  # reaped: no such child any more
            os.waitpid(pid, os.WNOHANG)

    def test_without_fork_the_map_is_serial(self, monkeypatch):
        monkeypatch.delattr(studies.os, "fork")
        assert studies._map_ordered(lambda block: os.getpid(), self.BLOCKS, 2) == [os.getpid()] * 2

    def test_usable_cpus_are_the_affinity_set_else_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(studies.os, "sched_getaffinity", lambda pid: {7, 2, 4}, raising=False)
        assert studies._usable_cpus() == 3
        monkeypatch.delattr(studies.os, "sched_getaffinity")
        for count, cpus in ((5, 5), (None, 1)):
            monkeypatch.setattr(studies.os, "cpu_count", lambda: count)
            assert studies._usable_cpus() == cpus


class TestStudySpecValidation:
    def test_grid_rules(self, small_stochastic_spec):
        base = small_stochastic_spec.base
        with pytest.raises(ValueError, match="study.lambda_grid"):
            StudySpec(base=base, lambdas=())
        with pytest.raises(ValueError):
            StudySpec(base=base, lambdas=(1e-3, 1e-2))  # ascending
        with pytest.raises(ValueError, match="study.lambda_grid"):
            StudySpec(base=base, lambdas=(1e-1, -1e-2))
        with pytest.raises(ValueError, match="study.n_paths"):
            StudySpec(base=base, lambdas=(1e-2,), n_paths=0)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                StudySpec(base=base, lambdas=(1e-2,), workers=workers)
        for lambdas in ((float("nan"),), (1e-1, float("nan")), (float("inf"), 1e-1)):
            with pytest.raises(ValueError, match="StudySpec.lambdas"):
                StudySpec(base=base, lambdas=lambdas)
        for eps_grid in ((-1e-2, 0.0), (float("nan"),), (float("inf"), 0.0)):
            with pytest.raises(ValueError, match="study.eps_grid"):
                StudySpec(base=base, lambdas=(1e-2,), eps_grid=eps_grid)

    def test_repeated_lambda_is_rejected(self, small_stochastic_spec):
        for lambdas in ((1e-2, 1e-2, 1e-3), (1e-1, 1e-2, 1e-2)):
            with pytest.raises(ValueError, match="study.lambda_grid"):
                StudySpec(base=small_stochastic_spec.base, lambdas=lambdas)


class TestLambdaSweep:
    @pytest.mark.parametrize(
        "study", [energy_study, pairing_study, lambda_convergence_study, isometry_study], ids=lambda f: f.__name__
    )
    def test_worker_count_does_not_change_rows(self, small_stochastic_spec, study):
        serial = study(replace(small_stochastic_spec, workers=1))
        pooled = study(replace(small_stochastic_spec, workers=2))
        assert serial.rows == pooled.rows

    def test_energy_blocks_give_the_same_rows_through_a_pool(self, small_stochastic_spec):
        # 3 blocks of at most 8 paths, stepped one after another or on 2 workers
        spec = replace(small_stochastic_spec, n_paths=2 * studies._BLOCK_PATHS + 3)
        assert energy_study(replace(spec, workers=2)).rows == energy_study(spec).rows

    def test_pool_is_capped_at_the_block_count(self, small_stochastic_spec, monkeypatch):
        shares = serial_children(monkeypatch, cpus=128)
        # 17 paths on 64 workers make 17 one-path blocks: min(_BLOCK_PATHS, ceil(17 / 64)) paths each;
        # this process steps the first, and 16 children one each
        spec = replace(small_stochastic_spec, n_paths=2 * studies._BLOCK_PATHS + 1)
        pooled = energy_study(replace(spec, workers=64))
        assert shares == [[range(p, p + 1)] for p in range(1, 17)]
        assert pooled.rows == energy_study(replace(spec, workers=1)).rows

    def test_processes_are_capped_at_the_cpu_count(self, small_stochastic_spec, monkeypatch):
        shares = serial_children(monkeypatch, cpus=4)
        # 17 paths on 64 workers but 4 CPUs make blocks of min(_BLOCK_PATHS, ceil(17 / 4)) paths, one per process
        spec = replace(small_stochastic_spec, n_paths=2 * studies._BLOCK_PATHS + 1)
        pooled = energy_study(replace(spec, workers=64))
        assert shares == [[range(5, 10)], [range(10, 15)], [range(15, 17)]]
        assert pooled.rows == energy_study(replace(spec, workers=1)).rows
        shares.clear()
        # 100 000 workers on 100 000 one-path blocks start 3 children, not 99 999
        blocks = [range(p, p + 1) for p in range(100_000)]
        assert studies._map_ordered(lambda block: block.start, blocks, 100_000) == list(range(100_000))
        assert [len(share) for share in shares] == [25_000] * 3

    def test_workers_above_the_cpu_count_do_not_shrink_blocks(self, small_stochastic_spec, monkeypatch):
        shares = serial_children(monkeypatch, cpus=2)
        # 8 workers on 2 CPUs: blocks of _BLOCK_PATHS paths, as with 2 workers, not 17 / 8 -> 3
        spec = replace(small_stochastic_spec, n_paths=2 * studies._BLOCK_PATHS + 1)
        pooled = energy_study(replace(spec, workers=8))
        assert shares == [[range(8, 16), range(16, 17)]]
        assert pooled.rows == energy_study(replace(spec, workers=1)).rows

    @pytest.mark.parametrize("dim", [1, 2])
    def test_lambda_conv_csv_bytes_do_not_depend_on_workers_or_block_size(
        self, small_stochastic_spec, dim, tmp_path, monkeypatch
    ):
        spec = replace(small_stochastic_spec, n_paths=5)
        if dim == 2:
            grid = SpectralGrid(2, 8)
            driver = MartingaleDriver("poisson", NuclearCovariance.from_grid(grid, 1.0, 3.0), rate=5.0)
            sigma = DiffusionMap.from_name("sin")
            base = replace(spec.base, grid=grid, graph=SignGraph(), driver=driver, diffusion=sigma)
            spec = replace(spec, base=base)
        texts = set()
        # blocks of 1, 2, 3 and 4 paths: min(_BLOCK_PATHS, ceil(5 / processes))
        for block_paths in (1, 2, 4):
            monkeypatch.setattr(studies, "_BLOCK_PATHS", block_paths)
            for workers in (1, 2):
                path = tmp_path / f"{block_paths}-{workers}.csv"
                write_csv(lambda_convergence_study(replace(spec, workers=workers)), path)
                texts.add(path.read_bytes())
        assert len(texts) == 1

    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    def test_isometry_csv_bytes_do_not_depend_on_workers_or_block_size(
        self, small_stochastic_spec, kind, tmp_path, monkeypatch
    ):
        driver = replace(small_stochastic_spec.base.driver, kind=kind, rate=5.0 if kind == "poisson" else 0.0)
        spec = replace(small_stochastic_spec, base=replace(small_stochastic_spec.base, driver=driver), n_paths=5)
        texts = set()
        # blocks of 1, 2, 3 and 4 paths: min(_BLOCK_PATHS, ceil(5 / processes))
        for block_paths in (1, 2, 4):
            monkeypatch.setattr(studies, "_BLOCK_PATHS", block_paths)
            for workers in (1, 2):
                path = tmp_path / f"{block_paths}-{workers}.csv"
                write_csv(isometry_study(replace(spec, workers=workers)), path)
                texts.add(path.read_bytes())
        assert len(texts) == 1

    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    def test_every_lambda_of_a_job_draws_the_same_increments(self, small_stochastic_spec, kind, record_path):
        spec = small_stochastic_spec
        driver = MartingaleDriver(kind, spec.base.driver.covariance, rate=50.0)
        base = replace(spec.base, driver=driver)
        draws = []
        result, _ = _run(base, (2,), spec.lambdas, lambda k, dm, **_: draws.append(dm))
        # a (1, L) block sees one increment row, shared by all its lambda rows
        assert {dm.shape for dm in draws} == {(1, 1, *base.grid.shape)}
        first, [[u_first, *rest]] = np.array(draws)[:, 0, 0], result.u_final
        assert np.count_nonzero(first) > 0
        for lam in spec.lambdas:
            np.testing.assert_array_equal(record_path(replace(base, lam=lam), 2).increments, first)
        for u_final in rest:
            assert not np.array_equal(u_final, u_first)


class TestEnergyStudy:
    def test_deterministic_flow_pins_estimate(self):
        grid = SpectralGrid(1, 16)
        base = SolverConfig(
            grid=grid, graph=LinearGraph(0.0), lam=1.0, dt=2e-3, t_final=0.25,
            driver=None, u0="smooth:4",
        )
        spec = StudySpec(base=base, lambdas=(1e-1, 1e-2), n_paths=5)
        report = energy_study(spec)
        e0 = sum(k**-2.0 for k in range(1, 5))  # sum mu_k * (1/mu_k)^2
        for lam, est, se, n in report.rows:
            assert est == pytest.approx(e0, rel=1e-12)
            assert se == 0.0
            assert n == 5

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    @pytest.mark.parametrize("sigma", ["clip", "sin"])
    @pytest.mark.parametrize("graph", ["cubic", "sign"])
    def test_rows_are_their_simulate_path_paths(self, graph, sigma, kind, dim, monkeypatch):
        # neither reads the drift modes, so both sum the kick at the nodes, bit for bit
        grid = SpectralGrid(dim, 16 if dim == 1 else 8)
        base = SolverConfig(
            grid=grid, graph=parse_graph(graph), lam=1e-2, dt=1e-3, t_final=0.2,
            driver=MartingaleDriver(kind, NuclearCovariance.from_grid(grid, 1.0, dim + 1.0), rate=50.0),
            diffusion=DiffusionMap.from_name(sigma), u0="smooth:4", seed=11,
        )
        runs = []

        def spy(*args, **kwargs):
            runs.append(_run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(studies, "_run", spy)
        paths, lambdas = range(4), (1e-1, 1e-2, 1e-3)
        values, blown = _energy_job(base, lambdas, paths)
        [(result, _)] = runs
        assert (blown < 0).all()
        assert values.shape == (len(paths), len(lambdas), 1)
        for i, p in enumerate(paths):
            for j, lam in enumerate(lambdas):
                single = simulate_path(replace(base, lam=lam), p)
                assert values[i, j, 0].tobytes() == np.float64(single.sup_energy).tobytes()
                assert result.u_final[i, j].tobytes() == single.u_final.tobytes()
                assert result.v_final[i, j].tobytes() == single.v_final.tobytes()

    def test_single_path_reports_identical_across_runs(self, small_stochastic_spec):
        spec = replace(small_stochastic_spec, n_paths=1)
        assert energy_study(spec).rows == energy_study(spec).rows

    def test_every_diffusion_map_survives_the_worker_pool(self, small_stochastic_spec):
        # maps hold callables; forked workers inherit them, and a config holding one still pickles
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
            driver=None, u0="smooth:4", seed=1,
        )
        spec = StudySpec(base=base, lambdas=(1e-1, 1e-9), n_paths=3)
        report = energy_study(spec)
        assert {lam: len(steps) for lam, steps in report.meta["blowup_steps"].items()} == {1e-9: 3}
        good, bad = report.rows
        assert np.isfinite(good[1]) and good[3] == 3
        assert np.isnan(bad[1]) and bad[3] == 0


class TestPairingStudy:
    def test_zero_graph_gives_zero(self, small_stochastic_spec):
        base = replace(small_stochastic_spec.base, graph=LinearGraph(0.0))
        spec = replace(small_stochastic_spec, base=base, n_paths=2)
        report = pairing_study(replace(spec, eps_grid=(1e-2, 0.0)))
        for _, _, est, se, _ in report.rows:
            assert est == 0.0 and se == 0.0

    def test_linear_single_mode_matches_scalar_and_continuum(self):
        lam, dt = 0.5, 1e-3
        grid = SpectralGrid(1, 16)
        base = SolverConfig(
            grid=grid, graph=LinearGraph(1.0), lam=lam, dt=dt, t_final=1.0,
            driver=None, u0="smooth:1",
        )
        spec = StudySpec(base=base, lambdas=(lam,), n_paths=1)
        est = pairing_study(replace(spec, eps_grid=(0.0,))).rows[0][2]
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
        report = pairing_study(replace(spec, eps_grid=(1e-2, 1e-3)))
        eps_seen = [row[1] for row in report.rows]
        assert eps_seen == [1e-2, 1e-3, 0.0]
        # smoothing is a contraction mode-wise, so estimates stay comparable
        assert all(np.isfinite(row[2]) for row in report.rows)

    def test_the_sign_resolvent_is_computed_only_where_read(self, small_stochastic_spec, monkeypatch):
        # the sign graph's drift takes no resolvent: energy and lambda-conv
        # never call its resolver, and the pairing observer calls it once per
        # step for the unsmoothed pairing, plus once per step for the smoothed ones
        calls = []
        resolvent_at = SignGraph._resolvent_at

        def spy(self, lam, batch_ndim=0):
            resolve = resolvent_at(self, lam, batch_ndim)

            def counted(x, y0):
                calls.append(x.shape)
                return resolve(x, y0)

            return counted

        monkeypatch.setattr(SignGraph, "_resolvent_at", spy)
        base = replace(small_stochastic_spec.base, graph=SignGraph())
        paths, lambdas, n = range(2, 5), small_stochastic_spec.lambdas, base.n_steps
        block = (len(paths), len(lambdas)) + base.grid.shape
        for job in (_energy_job, _gaps_job):
            assert (job(base, lambdas, paths)[1] < 0).all()
            assert calls == []
        _pairing_job(base, lambdas, paths, eps_values=(1e-2, 1e-3, 0.0))
        smoothed = (2,) + block  # one field per eps > 0
        assert set(calls) == {block, smoothed}
        assert calls.count(block) == calls.count(smoothed) == n

    # power:3 has a closed form; the others do not, so every graph class's resolver is pinned
    @pytest.mark.parametrize("spec", ["power:3", "power:2.5", "jump:0.5", "linear:2"])
    @pytest.mark.parametrize("seed", [42, 7])
    def test_rows_match_a_per_step_reference(self, seed, spec, record_path, path_pairing):
        grid = SpectralGrid(1, 16)
        cov = NuclearCovariance.from_grid(grid, 1.0, 2.0)
        graph = parse_graph(spec)
        base = SolverConfig(
            grid=grid, graph=graph, lam=1e-2, dt=2e-3, t_final=0.25,
            driver=MartingaleDriver("poisson", cov, rate=5.0),
            u0="smooth:4", seed=seed,
        )
        spec = StudySpec(base=base, lambdas=(1e-1, 1e-3), eps_grid=(1e-2, 1e-3, 0.0), n_paths=2)
        expected = []
        for lam in spec.lambdas:
            config = replace(spec.base, lam=lam)
            per_path = []
            for p in range(spec.n_paths):
                result = record_path(config, p)
                sums = {0.0: path_pairing(config, p)}
                for eps in (1e-2, 1e-3):
                    filt, acc = grid.smoother(eps), 0.0
                    for k in range(config.n_steps):
                        res_f = graph.resolvent(lam, grid.to_nodes(filt * result.u[k]))
                        beta_f = grid.to_nodes(filt * result.beta[k])
                        acc += config.dt * grid.weight * float(np.vdot(res_f, beta_f))
                    sums[eps] = acc
                per_path.append(sums)
            for eps in spec.eps_grid:
                expected.append((lam, eps, *_mean_se([d[eps] for d in per_path]), spec.n_paths))
        assert pairing_study(spec).rows == expected

    def test_the_unsmoothed_rows_do_not_depend_on_the_other_eps(self, small_stochastic_spec):
        # cubic, clip, Wiener, d = 1: an observer always reads the pairing, so every
        # eps grid steps the same observed paths, which take the modal kick
        spec = replace(small_stochastic_spec, n_paths=3)
        alone = pairing_study(replace(spec, eps_grid=(0.0,))).rows
        swept = [row for row in pairing_study(replace(spec, eps_grid=(1e-2, 0.0))).rows if row[1] == 0.0]
        assert np.array(alone).tobytes() == np.array(swept).tobytes()

    def test_sign_graph_estimates_nonnegative(self, small_stochastic_spec):
        base = replace(small_stochastic_spec.base, graph=SignGraph())
        spec = replace(small_stochastic_spec, base=base, n_paths=3)
        report = pairing_study(replace(spec, eps_grid=(0.0,)))
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
            driver=None, u0="smooth:1",
        )
        spec = StudySpec(base=base, lambdas=lams, n_paths=1)
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
        # a study grid rejects a repeated lambda, so the block job is run directly
        base = replace(small_stochastic_spec.base, lam=1e-2)
        values, _ = _gaps_job(base, (1e-2, 1e-2, 1e-3), range(2))
        for first, _ in values:  # pair 0 is (1e-2, 1e-2)
            assert first[0] == 0.0 and first[1] == 0.0

    def test_blow_up_pairs_are_flagged_and_study_continues(self):
        grid = SpectralGrid(1, 16)
        base = SolverConfig(
            grid=grid, graph=LinearGraph(1e9), lam=1e-1, dt=1e-3, t_final=0.1,
            driver=None, u0="smooth:4", seed=1,
        )
        spec = StudySpec(base=base, lambdas=(1e-1, 5e-2, 1e-9), n_paths=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = lambda_convergence_study(spec)
        assert {lam: len(steps) for lam, steps in report.meta["blowup_steps"].items()} == {1e-9: 3}
        steps = []
        for p in range(3):
            with pytest.raises(NumericError) as err:
                simulate_path(replace(base, lam=1e-9), p)
            steps.append(err.value.step)
        assert report.meta["blowup_steps"] == {1e-9: steps}
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


class TestGapObserver:
    """The in-loop gap reducer against the whole-history arithmetic."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rows_match_whole_history_gaps(self, dim, record_path):
        if dim == 1:
            grid = SpectralGrid(1, 16)
            cov = NuclearCovariance.from_grid(grid, 1.0, 2.0)
            graph, driver, sigma = CubicGraph(), MartingaleDriver("wiener", cov), "clip"
        else:
            grid = SpectralGrid(2, 8)
            cov = NuclearCovariance.from_grid(grid, 1.0, 3.0)
            graph, driver, sigma = SignGraph(), MartingaleDriver("poisson", cov, rate=5.0), "sin"
        base = SolverConfig(
            grid=grid, graph=graph, lam=1e-2, dt=2e-3, t_final=0.25, driver=driver,
            diffusion=DiffusionMap.from_name(sigma), u0="smooth:4", seed=42,
        )
        spec = StudySpec(base=base, lambdas=(1e-1, 1e-2, 1e-3, 1e-4), n_paths=3)
        columns = [[] for _ in spec.lambdas]
        for p in range(spec.n_paths):
            prev = None
            for column, lam in zip(columns, spec.lambdas):
                config = replace(spec.base, lam=lam)
                result = record_path(config, p)
                column.append(whole_history_gaps(config, prev, result))
                prev = result
        expected = []
        for hi, lo, column in zip(spec.lambdas, spec.lambdas[1:], columns[1:]):
            stats = [_mean_se([g[k] for g in column]) for k in range(4)]
            expected.append((hi, lo, *stats[0], *stats[1], stats[2][0], stats[3][0], len(column)))
        assert lambda_convergence_study(spec).rows == expected

    @pytest.mark.parametrize("lam_blowup", [1e-9, 2.4e-7])
    def test_blow_up_restarts_the_reused_history(self, lam_blowup, record_path):
        grid = SpectralGrid(1, 16)
        cov = NuclearCovariance.from_grid(grid, 1.0, 2.0)
        base = SolverConfig(
            grid=grid, graph=LinearGraph(1e9), lam=1e-1, dt=1e-3, t_final=0.1,
            driver=MartingaleDriver("wiener", cov), diffusion=DiffusionMap.from_name("clip"),
            u0="smooth:4", seed=3,
        )
        a, b, c, d = (replace(base, lam=lam) for lam in (1e-1, lam_blowup, 5e-2, 2.5e-2))
        # b blows up part way, so the (a, b) and (b, c) pairs do not count but (c, d) does
        with pytest.raises(NumericError) as err:
            simulate_path(b, 0)
        assert 1 < err.value.step < base.n_steps
        values, blown = _gaps_job(base, (a.lam, b.lam, c.lam, d.lam), (0,))
        assert blown.tolist() == [[-1, err.value.step, -1, -1]]
        ok = blown < 0  # the mask _sweep returns, and the pairs lambda_convergence_study keeps
        assert (ok[:, 1:] & ok[:, :-1]).tolist() == [[False, False, True]]
        assert tuple(values[0, 2].tolist()) == whole_history_gaps(d, record_path(c), record_path(d))

    def test_traced_peak_stays_below_half_a_history(self):
        grid = SpectralGrid(2, 16)
        cov = NuclearCovariance.from_grid(grid, 1.0, 3.0)
        base = SolverConfig(
            grid=grid, graph=SignGraph(), lam=1e-2, dt=1e-3, t_final=0.25,
            driver=MartingaleDriver("poisson", cov, rate=5.0),
            diffusion=DiffusionMap.from_name("sin"), u0="smooth:4", seed=42,
        )
        spec = StudySpec(base=base, lambdas=(1e-1, 1e-2, 1e-3), n_paths=1)
        n, entries = base.n_steps, grid.mu.size
        history_bytes = ((n + 1) + n) * entries * 8  # one path's (u, beta) history, which no job keeps
        np.random.default_rng  # numpy imports numpy.random on first use; keep that out of the trace
        tracemalloc.start()
        try:
            lambda_convergence_study(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * history_bytes


class TestPartialBlowUp:
    """A lambda at which some paths blow up and the others finish: each row reduces the finished paths alone.

    Under a noise-driven linear flow at lambda = 2.5e-7 the energy of 3 of
    the 12 paths would reach 1.15e12 or more and trips the 1e12 guard, and
    that of the other 9 stays below 7.6e11; every path finishes at the two
    larger lambdas and blows up at the two smaller ones.
    """

    LAMBDAS = (1e-1, 2.6e-7, 2.5e-7, 2.4e-7, 1e-7)
    FINISHED = [12, 12, 9, 0, 0]

    @pytest.fixture(scope="class")
    def spec(self):
        grid = SpectralGrid(1, 16)
        base = SolverConfig(
            grid=grid, graph=LinearGraph(1e12), lam=1e-1, dt=1e-3, t_final=0.1,
            driver=MartingaleDriver("poisson", NuclearCovariance.from_grid(grid, 5e8, 2.0), rate=50.0),
            diffusion=DiffusionMap.from_name("one"), u0="zero", seed=5,
        )
        return StudySpec(base=base, lambdas=self.LAMBDAS, eps_grid=(1e-2, 0.0), n_paths=12)

    @pytest.fixture(scope="class")
    def recorded(self, spec, record_path, path_pairing):
        """{(path, lambda): the recorded single path with its pairing, or None where it blew up}."""
        paths = {}
        for p in range(spec.n_paths):
            for lam in spec.lambdas:
                config = replace(spec.base, lam=lam)
                try:
                    paths[p, lam] = record_path(config, p)
                except NumericError:
                    paths[p, lam] = None
                else:
                    paths[p, lam].pairing = path_pairing(config, p)
        return paths

    @staticmethod
    def assert_rows(report, expected, counts):
        assert [row[-1] for row in report.rows] == counts
        assert np.array(report.rows, dtype=float).tobytes() == np.array(expected, dtype=float).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_energy_rows_reduce_the_finished_paths(self, spec, workers):
        singles = {lam: [] for lam in spec.lambdas}
        for lam in spec.lambdas:
            for p in range(spec.n_paths):
                try:
                    singles[lam].append(simulate_path(replace(spec.base, lam=lam), p).sup_energy)
                except NumericError:
                    pass
        report = energy_study(replace(spec, workers=workers))
        assert {lam: len(steps) for lam, steps in report.meta["blowup_steps"].items()} == {2.5e-7: 3, 2.4e-7: 12, 1e-7: 12}
        expected = [(lam, *_mean_se(singles[lam]), len(singles[lam])) for lam in spec.lambdas]
        self.assert_rows(report, expected, self.FINISHED)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pairing_rows_reduce_the_finished_paths(self, spec, recorded, workers):
        grid, graph, filt = spec.base.grid, spec.base.graph, spec.base.grid.smoother(1e-2)
        expected = []
        for lam in spec.lambdas:
            finished = [path for p in range(spec.n_paths) if (path := recorded[p, lam]) is not None]
            smoothed = []
            for path in finished:
                acc = 0.0
                for k in range(spec.base.n_steps):
                    res_f = graph.resolvent(lam, grid.to_nodes(filt * path.u[k]))
                    acc += spec.base.dt * grid.weight * float(np.vdot(res_f, grid.to_nodes(filt * path.beta[k])))
                smoothed.append(acc)
            expected.append((lam, 1e-2, *_mean_se(smoothed), len(finished)))
            expected.append((lam, 0.0, *_mean_se([path.pairing for path in finished]), len(finished)))
        report = pairing_study(replace(spec, workers=workers))
        self.assert_rows(report, expected, [n for n in self.FINISHED for _ in range(2)])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lambda_conv_rows_reduce_the_pairs_whose_paths_both_finished(self, spec, recorded, workers):
        expected = []
        for hi, lo in zip(spec.lambdas, spec.lambdas[1:]):
            pairs = [(recorded[p, hi], recorded[p, lo]) for p in range(spec.n_paths)]
            config = replace(spec.base, lam=lo)
            gaps = [whole_history_gaps(config, a, b) for a, b in pairs if a is not None and b is not None]
            stats = [_mean_se([g[k] for g in gaps]) for k in range(4)]
            expected.append((hi, lo, *stats[0], *stats[1], stats[2][0], stats[3][0], len(gaps)))
        report = lambda_convergence_study(replace(spec, workers=workers))
        self.assert_rows(report, expected, [12, 9, 0, 0])


class TestTransformCounts:
    """Sine transforms per job block: two per step where nothing reads the drift modes."""

    @staticmethod
    def count_transforms(monkeypatch, job, *args):
        calls = []
        transform = SpectralGrid._transform

        def counting_transform(self, matrix, x):
            calls.append(1)
            return transform(self, matrix, x)

        monkeypatch.setattr(SpectralGrid, "_transform", counting_transform)
        job(*args)
        return len(calls)

    def test_an_energy_block_sums_its_kick_at_the_nodes(self, monkeypatch):
        # the default profile, 3 per step: u and the step's 4 increments to the
        # nodes, the kick to the modes.  Observed, the kick is modal, 4 per step:
        # u and the increments to the nodes, the drift and the noise product to
        # the modes.  Summing the kick at the nodes saves one transform per step.
        grid = SpectralGrid(1, 64)
        base = SolverConfig(
            grid=grid, graph=CubicGraph(), lam=1e-2, dt=1e-3, t_final=1.0,
            driver=MartingaleDriver("wiener", NuclearCovariance.from_grid(grid, 1.0, 2.0)),
            diffusion=DiffusionMap.from_name("clip"), u0="smooth:8", seed=42,
        )
        lambdas = (1e-1, 1e-2, 1e-3, 1e-4)
        assert self.count_transforms(monkeypatch, _energy_job, base, lambdas, range(4)) == 3000
        observed = self.count_transforms(monkeypatch, _run, base, range(4), lambdas, lambda k, **_: None)
        assert observed == 4000

    def test_a_gaps_block_keeps_its_drift_modes(self, monkeypatch):
        # 2 per step (the observer reads the drift modes) and, on each of the 14
        # steps on which a path jumps, one for its increments and one for the
        # noise product
        grid = SpectralGrid(2, 32)
        base = SolverConfig(
            grid=grid, graph=SignGraph(), lam=1e-2, dt=1e-3, t_final=1.0,
            driver=MartingaleDriver("poisson", NuclearCovariance.from_grid(grid, 1.0, 3.0), rate=5.0),
            diffusion=DiffusionMap.from_name("sin"), u0="smooth:8", seed=42,
        )
        assert self.count_transforms(monkeypatch, _gaps_job, base, (1e-1, 1e-2, 1e-3, 1e-4), range(2)) == 2028


class TestIsometryStudy:
    @staticmethod
    def _spec(spec, kind):
        driver = replace(spec.base.driver, kind=kind, rate=5.0 if kind == "poisson" else 0.0)
        return replace(spec, base=replace(spec.base, driver=driver))

    def test_rows_and_statistics(self, small_stochastic_spec):
        for kind in ("wiener", "poisson"):
            spec = replace(self._spec(small_stochastic_spec, kind), n_paths=400)
            report = isometry_study(spec)
            checks = {row[0]: row for row in report.rows}
            iso = checks[f"ito_isometry_{kind}"]
            assert abs(iso[1] - iso[2]) <= 3.0 * iso[3]
            qv = checks["quadratic_variation"]
            assert abs(qv[1] - qv[2]) <= 3.0 * qv[3]
            ibp = checks["integration_by_parts"]
            assert ibp[1] <= 1e-12

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    def test_rows_match_a_per_step_reference(self, small_stochastic_spec, kind, workers, monkeypatch):
        # 3 steps per block, so each path's 125 steps span 42 blocks; 2 workers fork a child for paths 3..4
        monkeypatch.setattr(noise, "_BLOCK_ENTRIES", 3 * 16 + 5)
        spec = replace(self._spec(small_stochastic_spec, kind), n_paths=5, workers=workers)
        base, driver = spec.base, spec.base.driver
        sq, qv = [], []
        for p in range(spec.n_paths):
            rng = path_rng(base.seed, p)
            sq.append(float(np.sum(driver.increment_sampler(base.t_final)(rng, 1)[0] ** 2)))
            draw, rng, total = driver.increment_sampler(base.dt), path_rng(base.seed, p), 0.0
            for _ in range(base.n_steps):
                total += float(np.sum(draw(rng, 1)[0] ** 2))
            qv.append(total)
        rows = isometry_study(spec).rows
        assert rows[0] == (
            f"ito_isometry_{kind}", np.mean(sq), driver.covariance.trace * base.t_final,
            np.std(sq, ddof=1) / np.sqrt(spec.n_paths), spec.n_paths,
        )
        assert rows[1][1:3] == (np.mean(qv), base.t_final * driver.covariance.trace)
        assert rows[1][3] == np.std(qv, ddof=1) / np.sqrt(spec.n_paths)

    def test_driver_paths_are_shared_among_the_workers(self, small_stochastic_spec, monkeypatch):
        shares = serial_children(monkeypatch, cpus=4)
        # 17 paths on 4 workers make blocks of min(_BLOCK_PATHS, ceil(17 / 4)) paths, one per process
        spec = replace(small_stochastic_spec, n_paths=17)
        pooled = isometry_study(replace(spec, workers=4))
        assert shares == [[range(5, 10)], [range(10, 15)], [range(15, 17)]]
        assert pooled.rows == isometry_study(spec).rows

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
            pairing_study(replace(spec, eps_grid=(1e-2, 0.0))),
            lambda_convergence_study(spec),
            isometry_study(spec),
        ]
        for report in reports:
            out = tmp_path / f"{report.name}.csv"
            write_csv(report, out)
            assert out.read_text().splitlines()[0] == headers[report.name]


    def test_path_csv_bytes(self, tmp_path):
        # the simulate command writes a functional_series array so
        series = np.array([[0.0, 1.0, 2.5e20, 1 / 3, -0.0, 1e-300, 0.1], [0.125, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]])
        out = tmp_path / "path.csv"
        write_csv(StudyReport("simulate", SERIES_COLUMNS, series.tolist()), out)
        assert out.read_bytes() == (
            b"t,energy,lyapunov,l2_u,h1_u,l2_v,pairing_running\n"
            b"0.0,1.0,2.5e+20,0.3333333333333333,-0.0,1e-300,0.1\n"
            b"0.125,4.0,5.0,6.0,7.0,8.0,9.0\n"
        )

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
