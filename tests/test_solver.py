from dataclasses import replace
from functools import partial
from math import cos, sin
from types import SimpleNamespace

import numpy as np
import pytest

from stochwave import (
    CubicGraph,
    DiffusionMap,
    GroupCache,
    JumpGraph,
    LinearGraph,
    MartingaleDriver,
    NuclearCovariance,
    NumericError,
    PowerLawGraph,
    SignGraph,
    SolverConfig,
    SpectralGrid,
    build_initial_state,
    chain_rule_check,
    duhamel_residual,
    energy,
    functional_series,
    ibp_residual,
    lyapunov,
    parse_graph,
    simulate_path,
)
from stochwave import solver, studies
from stochwave.config import DEFAULTS, build_solver_config
from stochwave.errors import ConfigError
from stochwave.noise import path_rng
from stochwave.selftest import GRAPHS
from stochwave.solver import MAX_STEP_ENTRIES, _increments, _row_dots, _run
from stochwave.studies import _pairing_job


@pytest.fixture(scope="module")
def grid64():
    return SpectralGrid(1, 64)


@pytest.fixture(scope="module")
def stochastic_config(grid64):
    cov = NuclearCovariance.from_grid(grid64, 1.0, 2.0)
    return SolverConfig(
        grid=grid64,
        graph=CubicGraph(),
        lam=1e-2,
        dt=1e-3,
        t_final=1.0,
        driver=MartingaleDriver("wiener", cov),
        diffusion=DiffusionMap.from_name("clip"),
        u0="smooth:8",
        seed=7,
    )


def scalar_two_stage(u, v, dt, omega, drift_rate):
    """Independent scalar re-implementation of one kick-then-rotate step."""
    w = v - dt * drift_rate * u
    return (
        cos(dt * omega) * u + sin(dt * omega) / omega * w,
        -omega * sin(dt * omega) * u + cos(dt * omega) * w,
    )


class TestGroupCache:
    def test_rotation_identity_per_mode(self, grid64):
        cache = GroupCache(grid64, 0.731)
        np.testing.assert_allclose(
            cache.cos_t**2 + grid64.mu * cache.sinc**2, 1.0, atol=1e-14
        )

    def test_dt_validation(self, grid64):
        with pytest.raises(ValueError):
            GroupCache(grid64, 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", ["GroupCache", "increment_sampler", "resolvent", "yosida", "moreau", "smoother"])
def test_non_finite_arguments_are_rejected(grid64, entry, value):
    wiener = MartingaleDriver("wiener", NuclearCovariance.from_grid(grid64, 1.0, 2.0))
    calls = {
        "GroupCache": lambda: GroupCache(grid64, value),
        "increment_sampler": lambda: wiener.increment_sampler(value),
        "resolvent": lambda: CubicGraph().resolvent(value, 1.0),
        "yosida": lambda: CubicGraph().yosida(value, 1.0),
        "moreau": lambda: CubicGraph().moreau(value, 1.0),
        "smoother": lambda: grid64.smoother(value),
    }
    with pytest.raises(ValueError, match="finite"):
        calls[entry]()


def mode_one_path(grid, graph, dt, n_steps):
    """(u_final, v_final) of a noise-free path from u0 = smooth:1, which is mode 1 in 1-D, at lam = 1."""
    config = SolverConfig(
        grid=grid, graph=graph, lam=1.0, dt=dt, t_final=n_steps * dt, driver=None, u0="smooth:1",
    )
    result = simulate_path(config, 0)
    return result.u_final, result.v_final


class TestStep:
    def test_smooth_one_is_mode_one(self, grid64):
        u, v = build_initial_state(grid64, "smooth:1")
        np.testing.assert_array_equal(u, grid64.basis_field(1))
        np.testing.assert_array_equal(v, grid64.zero_field())

    def test_quarter_period_rotation(self, grid64):
        # no drift, no noise, mode 1: (1, 0) -> (0, -1) after dt = pi/2
        u, v = mode_one_path(grid64, LinearGraph(0.0), np.pi / 2.0, 1)
        assert u[0] == pytest.approx(0.0, abs=1e-12)
        assert v[0] == pytest.approx(-1.0, abs=1e-12)

    def test_full_period_returns(self, grid64):
        u, v = mode_one_path(grid64, LinearGraph(0.0), 2.0 * np.pi / 64.0, 64)
        assert u[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(v)) < 1e-12

    def test_linear_drift_one_step_frozen_oracle(self, grid64):
        # frozen from an independent scalar script: Linear(1), lam=1 gives
        # yosida(u) = u/2; one step from (1, 0) with dt=0.1 on mode 1
        u, v = mode_one_path(grid64, LinearGraph(1.0), 0.1, 1)
        assert u[0] == pytest.approx(0.9900124944456844, abs=1e-12)
        assert v[0] == pytest.approx(-0.14958362491072946, abs=1e-12)
        assert scalar_two_stage(1.0, 0.0, 0.1, 1.0, 0.5) == pytest.approx(
            (0.9900124944456844, -0.14958362491072946), abs=1e-15
        )
        assert np.max(np.abs(u[1:])) < 1e-15  # transform round-off only

    @pytest.mark.parametrize("sigma", ["sin", "clip", "one"])
    def test_zero_increment_equals_no_increment(self, stochastic_config, sigma, kernel_step):
        grid = stochastic_config.grid
        cache = GroupCache(grid, 1e-3)
        u, v = build_initial_state(grid, "smooth:8")
        diffusion = DiffusionMap.from_name(sigma)
        skipped = kernel_step(cache, u, v, CubicGraph(), 1e-2, diffusion, grid.zero_field())
        plain = kernel_step(cache, u, v, CubicGraph(), 1e-2, None, None)
        np.testing.assert_array_equal(skipped[0], plain[0])
        np.testing.assert_array_equal(skipped[1], plain[1])

    @pytest.mark.parametrize("graph", [JumpGraph(2.0), SignGraph(), LinearGraph(1.0)])
    def test_step_replays_simulate_path(self, stochastic_config, graph, record_path, kernel_step):
        # both share the kernel's step pieces: feeding them the recorded
        # increments must reproduce the path bit for bit
        config = replace(stochastic_config, graph=graph, t_final=0.2)
        result = record_path(config, 3)
        grid = config.grid
        cache = GroupCache(grid, config.dt)
        u, v = build_initial_state(grid, config.u0)
        for dm in result.increments:
            u, v = kernel_step(cache, u, v, graph, config.lam, config.diffusion, dm)
        np.testing.assert_array_equal(u, result.u_final)
        np.testing.assert_array_equal(v, result.v_final)


class TestEnergyFunctionals:
    def test_single_mode_energy(self, grid64):
        assert energy(grid64, grid64.basis_field(1), grid64.zero_field()) == pytest.approx(1.0)

    def test_zero_state(self, grid64):
        zero = grid64.zero_field()
        assert energy(grid64, zero, zero) == 0.0
        assert lyapunov(grid64, zero, zero, CubicGraph(), 0.1) == 0.0

    def test_lyapunov_adds_twice_envelope_mass(self, grid64):
        u, v = grid64.basis_field(1), grid64.zero_field()
        graph = LinearGraph(1.0)
        lam = 0.5
        u_nodes = grid64.to_nodes(u)
        expected = 1.0 + 2.0 * grid64.weight * np.sum(graph.moreau(lam, u_nodes))
        assert lyapunov(grid64, u, v, graph, lam) == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def _series_config(grid, spec, seed):
        return SolverConfig(
            grid=grid, graph=parse_graph(spec), lam=1e-2, dt=1e-3, t_final=0.1,
            driver=MartingaleDriver("wiener", NuclearCovariance.from_grid(grid, 1.0, 2.0)),
            diffusion=DiffusionMap.from_name("clip"), u0="smooth:8", seed=seed,
        )

    def _lyapunov_and_series(self, grid, spec, seed, record_path):
        config = self._series_config(grid, spec, seed)
        r = record_path(config, 0)
        values = [lyapunov(grid, u, v, config.graph, config.lam) for u, v in zip(r.u, r.v)]
        return np.array(values), functional_series(config, 0)[:, 2]

    @pytest.mark.parametrize("spec", ["cubic", "sign", "power:3", "jump:2", "linear:1"])
    @pytest.mark.parametrize("seed", range(3))
    def test_lyapunov_is_the_recorded_series(self, grid64, spec, seed, record_path):
        # closed-form resolvents: the cold solve is the kernel's warm one, bit for bit
        values, series = self._lyapunov_and_series(grid64, spec, seed, record_path)
        assert values.tolist() == series.tolist()

    @pytest.mark.parametrize("seed", range(3))
    def test_lyapunov_matches_the_warm_newton_series(self, grid64, seed, record_path):
        # no closed form: cold safeguarded Newton against warm plain Newton
        values, series = self._lyapunov_and_series(grid64, "power:2.5", seed, record_path)
        np.testing.assert_allclose(values, series, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("spec", ["cubic", "sign", "power:3", "power:2.5", "jump:2", "linear:1"])
    def test_the_series_pairing_is_the_kernel_pairing(self, grid64, spec):
        # the series and the pairing job both read the kernel's own resolvent, so warm Newton keeps its
        # bits too; both paths are observed, so both take the modal kick.  At lambda = 10 and dt = 1e-2
        # a cold resolve of the series' own would move the power:2.5 pairing.
        newton = replace(block_config(1, "wiener", spec, dt=1e-2, u0="random:4"), lam=10.0)
        for config in (self._series_config(grid64, spec, 0), newton):
            values, _ = _pairing_job(config, (config.lam,), (0,), eps_values=(0.0,))
            assert functional_series(config, 0)[-1, 6].tobytes() == values[0, 0, 0].tobytes()


class TestInitialData:
    def test_smooth_band(self, grid64):
        u, v = build_initial_state(grid64, "smooth:4")
        np.testing.assert_allclose(u[:4], [1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0])
        assert np.all(u[4:] == 0.0)
        assert np.all(v == 0.0)

    def test_random_band_is_seeded(self, grid64):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        ua, _ = build_initial_state(grid64, "random:4", rng_a)
        ub, _ = build_initial_state(grid64, "random:4", rng_b)
        np.testing.assert_array_equal(ua, ub)
        assert np.all(ua[4:] == 0.0)

    def test_2d_band_uses_eigenvalue_decay(self):
        grid = SpectralGrid(2, 6)
        u, _ = build_initial_state(grid, "smooth:2")
        assert u[0, 0] == pytest.approx(0.5)  # 1/mu with mu=2
        assert u[1, 1] == pytest.approx(0.125)
        assert np.all(u[2:, :] == 0.0) and np.all(u[:, 2:] == 0.0)

    def test_validation(self, grid64):
        with pytest.raises(ValueError):
            build_initial_state(grid64, "smooth:100")
        with pytest.raises(ValueError):
            build_initial_state(grid64, "bumpy:3")
        with pytest.raises(ValueError):
            build_initial_state(grid64, "random:4")  # rng required


class TestSolverConfigValidation:
    def test_step_count_must_be_integral(self, grid64):
        with pytest.raises(ValueError, match="solver.t_final"):
            SolverConfig(grid=grid64, graph=CubicGraph(), lam=0.1, dt=3e-4, t_final=1.0)

    def test_positivity(self, grid64):
        with pytest.raises(ValueError, match="solver.lambda"):
            SolverConfig(grid=grid64, graph=CubicGraph(), lam=0.0, dt=1e-3, t_final=1.0)
        with pytest.raises(ValueError, match="solver.dt"):
            SolverConfig(grid=grid64, graph=CubicGraph(), lam=0.1, dt=-1e-3, t_final=1.0)
        for name in ("lam", "dt", "t_final"):
            for bad in (float("nan"), float("inf")):
                values = {"lam": 0.1, "dt": 1e-3, "t_final": 1.0, name: bad}
                with pytest.raises(ValueError, match=f"SolverConfig.{name} "):
                    SolverConfig(grid=grid64, graph=CubicGraph(), **values)

    def test_step_entries_are_capped(self, grid64):
        steps = MAX_STEP_ENTRIES // grid64.size
        SolverConfig(grid=grid64, graph=CubicGraph(), lam=0.1, dt=1.0, t_final=float(steps))
        for key, values in (("solver.t_final", (1.0, steps + 1.0)), ("solver.dt", (1.0 / steps / 2, 1.0)),
                            ("solver.dt", (5e-324, 1.0))):
            dt, t_final = values
            with pytest.raises(ValueError, match=f"{key}.*cap"):
                SolverConfig(grid=grid64, graph=CubicGraph(), lam=0.1, dt=dt, t_final=t_final)

    def test_poisson_mean_stays_within_numpy(self, grid64):
        cov = NuclearCovariance.from_grid(grid64, 1.0, 2.0)
        # numpy's Generator.poisson refuses a larger mean with "lam value too large"
        limit = np.iinfo("l").max - 10.0 * np.sqrt(np.iinfo("l").max)
        rng = np.random.default_rng(0)
        rng.poisson(limit)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(limit, np.inf))
        # the jump-entry cap bounds rate * t_final * N^d, and so rate * dt, far below that limit
        assert MAX_STEP_ENTRIES < limit
        at_cap = MAX_STEP_ENTRIES / grid64.size / 0.5  # exact in binary
        for rate, ok in ((at_cap, True), (2.0 * at_cap, False), (limit / 0.5, False), (1e300, False)):
            build = partial(SolverConfig, grid=grid64, graph=CubicGraph(), lam=0.1, dt=0.5, t_final=0.5,
                            driver=MartingaleDriver("poisson", cov, rate=rate))
            if ok:
                build()
            else:
                with pytest.raises(ValueError, match="noise.rate"):
                    build()

    def test_negative_seed_is_named(self, grid64):
        with pytest.raises(ValueError, match="SolverConfig.seed"):
            SolverConfig(grid=grid64, graph=CubicGraph(), lam=0.1, dt=1e-3, t_final=1.0, seed=-3)

    @pytest.mark.parametrize("u0", ["bogus", "smooth:abc", "smooth:100", "random:0"])
    def test_bad_initial_data_is_named(self, grid64, u0):
        with pytest.raises(ValueError, match="solver.u0"):
            SolverConfig(grid=grid64, graph=CubicGraph(), lam=0.1, dt=1e-3, t_final=1.0, u0=u0)

    def test_unknown_record_flag(self):
        # only the config parses solver.record; SolverConfig has no record
        with pytest.raises(ValueError):
            build_solver_config(dict(DEFAULTS, **{"solver.record": "everything"}))

    @pytest.mark.parametrize("flag", ["states", "increments"])
    def test_history_record_flags_are_rejected(self, flag):
        # whole histories are read through simulate_path's observer
        with pytest.raises(ConfigError, match="solver.record .*'functionals'"):
            build_solver_config(dict(DEFAULTS, **{"solver.record": f"{flag},functionals"}))


class TestSimulatePath:
    def test_linear_energy_conserved(self, grid64):
        config = SolverConfig(
            grid=grid64, graph=LinearGraph(0.0), lam=1.0, dt=1e-3, t_final=1.0,
            driver=None, u0="smooth:8",
        )
        e = functional_series(config, 0)[:, 1]
        assert np.max(np.abs(e - e[0])) <= 1e-12 * e[0]

    @pytest.mark.parametrize("graph", GRAPHS, ids=lambda graph: graph.name)
    def test_summing_the_pairing_changes_no_bit_of_the_path(self, stochastic_config, graph, monkeypatch):
        # the pairing job's observer writes nothing it is handed: its path is simulate_path's observed one
        config = replace(stochastic_config, graph=graph, t_final=0.1)
        runs = []

        def spy(*args, **kwargs):
            runs.append(_run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(studies, "_run", spy)
        values, _ = _pairing_job(config, (config.lam,), (2,), eps_values=(0.0,))
        [(paired, _)] = runs
        plain = simulate_path(config, 2, lambda k, **_: None)
        assert values[0, 0, 0] >= 0.0
        assert plain.sup_energy == paired.sup_energy[0, 0]
        assert plain.u_final.tobytes() == paired.u_final[0, 0].tobytes()
        assert plain.v_final.tobytes() == paired.v_final[0, 0].tobytes()

    def test_zero_initial_data_stays_zero(self, grid64, record_path):
        config = SolverConfig(
            grid=grid64, graph=CubicGraph(), lam=0.1, dt=1e-2, t_final=0.5,
            driver=None, u0="zero",
        )
        result = record_path(config, 0)
        assert result.sup_energy == 0.0
        assert np.all(result.u == 0.0) and np.all(result.v == 0.0)

    def test_deterministic_given_seed_and_path(self, stochastic_config, record_path):
        a = record_path(stochastic_config, 4)
        b = record_path(stochastic_config, 4)
        assert np.array_equal(a.increments, b.increments)
        np.testing.assert_array_equal(a.u_final, b.u_final)
        np.testing.assert_array_equal(functional_series(stochastic_config, 4), functional_series(stochastic_config, 4))

    def test_coupled_lambdas_share_noise(self, stochastic_config, record_path):
        a = record_path(replace(stochastic_config, lam=1e-1), 2)
        b = record_path(replace(stochastic_config, lam=1e-3), 2)
        assert np.array_equal(a.increments, b.increments)
        assert not np.allclose(a.u_final, b.u_final)

    def test_observer_sees_each_step_before_its_kick(self, stochastic_config, kernel_step):
        # kicking each observed state with its drift and increment gives the next one
        config = replace(stochastic_config, t_final=0.1)
        grid, graph, lam = config.grid, config.graph, config.lam
        seen = []
        result = simulate_path(config, 3, lambda k, u, v, beta_modes, dm, **_: seen.append((u, v, beta_modes, dm)))
        u0, v0 = build_initial_state(grid, config.u0, path_rng(config.seed, 3))
        np.testing.assert_array_equal(seen[0][0], u0)
        np.testing.assert_array_equal(seen[0][1], v0)
        cache = GroupCache(grid, config.dt)
        following = [(u, v) for u, v, _, _ in seen[1:]] + [(result.u_final, result.v_final)]
        for (u, v, beta, dm), (u_next, v_next) in zip(seen, following):
            u_nodes = grid.to_nodes(u)
            np.testing.assert_array_equal(beta, grid.to_modes((u_nodes - graph.resolvent(lam, u_nodes)) / lam))
            kicked = kernel_step(cache, u, v, graph, lam, config.diffusion, dm)
            np.testing.assert_array_equal(kicked[0], u_next)
            np.testing.assert_array_equal(kicked[1], v_next)
        # an observer that keeps nothing steps the same path: keeping the arrays changes no bit
        plain = simulate_path(config, 3, lambda k, **_: None)
        np.testing.assert_array_equal(plain.u_final, result.u_final)
        assert plain.sup_energy == result.sup_energy

    def test_noise_free_path_records_zero_increments(self, grid64, record_path):
        config = SolverConfig(
            grid=grid64, graph=CubicGraph(), lam=0.1, dt=1e-2, t_final=0.5,
            driver=None, u0="smooth:8",
        )
        result = record_path(config, 0)
        assert result.increments.shape == (config.n_steps, 64)
        assert np.all(result.increments == 0.0)

    def test_blow_up_guard_reports_step(self, grid64):
        config = SolverConfig(
            grid=grid64, graph=LinearGraph(1e9), lam=1e-9, dt=1e-3, t_final=1.0,
            driver=None, u0="smooth:8",
        )
        with pytest.raises(NumericError) as err:
            simulate_path(config, 0)
        # yosida(u) = 5e8*u: the deterministic growth first crosses the 1e12 guard at step 2
        assert err.value.step == 2

    def test_sup_energy_includes_initial_time(self, grid64):
        config = SolverConfig(
            grid=grid64, graph=LinearGraph(0.0), lam=1.0, dt=1e-2, t_final=0.1,
            driver=None, u0="smooth:8",
        )
        result = simulate_path(config, 0)
        u0, v0 = build_initial_state(grid64, "smooth:8")
        assert result.sup_energy >= energy(grid64, u0, v0) - 1e-14

    def test_pairing_positive_for_monotone_graphs(self, stochastic_config, record_path, path_pairing):
        for graph in (SignGraph(), JumpGraph(2.0)):
            config = replace(stochastic_config, graph=graph)
            result = record_path(config, 1)
            assert path_pairing(config, 1) >= 0.0
            # pointwise positivity of <yosida(u), u> at every recorded state
            for n in range(0, len(result.u), 100):
                u_nodes = config.grid.to_nodes(result.u[n])
                pair = config.grid.weight * np.sum(
                    graph.yosida(config.lam, u_nodes) * u_nodes
                )
                assert pair >= -1e-14

    def test_lyapunov_never_exceeds_initial_for_deterministic_flow(self, grid64):
        # discrete shadow of the a priori bound, uniformly over the scale
        for lam in (1e-1, 1e-2, 1e-3, 1e-4):
            for dt in (2e-3, 1e-3):
                config = SolverConfig(
                    grid=grid64, graph=CubicGraph(), lam=lam, dt=dt, t_final=1.0,
                    driver=None, u0="smooth:8",
                )
                lyap = functional_series(config, 0)[:, 2]
                assert np.max(lyap) <= lyap[0] * (1.0 + 1.0 * dt)

    def test_lyapunov_drift_small_and_first_order(self, grid64):
        # drift bound from the operation contract; the halving ratio is the
        # empirically observed first-order behaviour of this splitting
        drifts = {}
        for dt in (2e-4, 1e-4):
            config = SolverConfig(
                grid=grid64, graph=CubicGraph(), lam=1e-2, dt=dt, t_final=1.0,
                driver=None, u0="smooth:8",
            )
            lyap = functional_series(config, 0)[:, 2]
            drifts[dt] = np.max(np.abs(lyap - lyap[0]))
            if dt == 1e-4:
                assert drifts[dt] <= 1e-3 * lyap[0]
        assert 1.7 <= drifts[2e-4] / drifts[1e-4] <= 2.3


class TestObserverContract:
    """What simulate_path hands its per-step observer, its only per-step output."""

    @pytest.mark.parametrize("kind", ["wiener", "poisson", None])
    def test_called_once_per_step_in_order(self, stochastic_config, kind):
        driver = None if kind is None else MartingaleDriver(kind, stochastic_config.driver.covariance, rate=50.0)
        config = replace(stochastic_config, t_final=0.1, driver=driver)
        calls = []
        simulate_path(config, 3, lambda k, dm, **_: calls.append((k, dm is None)))
        assert calls == [(k, driver is None) for k in range(config.n_steps)]

    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    def test_every_lambda_sees_the_same_increments(self, stochastic_config, kind):
        driver = MartingaleDriver(kind, stochastic_config.driver.covariance, rate=50.0)
        draws = {1e-1: [], 1e-3: []}
        for lam, seen in draws.items():
            config = replace(stochastic_config, lam=lam, t_final=0.1, driver=driver)
            simulate_path(config, 2, lambda k, dm, **_: seen.append(dm.tobytes()))
        assert draws[1e-1] == draws[1e-3]

    @staticmethod
    def keeping_observer():
        """(observe, kept, copies): an observer that keeps every field it is handed and a copy of each array."""
        kept, copies = [], []

        def observe(k, **fields):
            kept.append(fields)
            copies.append({name: a.copy() for name, a in fields.items() if a is not None})

        return observe, kept, copies

    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    def test_handed_arrays_are_never_mutated(self, stochastic_config, kind):
        # observers keep references (duhamel_residual keeps the k = 0 state)
        driver = MartingaleDriver(kind, stochastic_config.driver.covariance, rate=50.0)
        config = replace(stochastic_config, t_final=0.1, driver=driver)
        observe, kept, copies = self.keeping_observer()
        simulate_path(config, 3, observe)
        for fields, snapshot in zip(kept, copies):
            assert {"u_nodes", "res"} <= snapshot.keys()
            for name, a in snapshot.items():
                np.testing.assert_array_equal(fields[name], a)

    def assert_block_arrays_are_never_mutated(self, config, lambdas):
        """Run a (3, L) block with a keeping observer, check that no handed array was written; the blow-up steps."""
        observe, kept, copies = self.keeping_observer()
        result, blown = _run(config, (0, 1, 2), lambdas, observe)
        assert len(kept) == config.n_steps
        for fields, snapshot in zip(kept, copies):
            assert fields["u"].shape == (3, len(lambdas)) + config.grid.shape
            assert {"u_nodes", "res"} <= snapshot.keys()
            for name, a in snapshot.items():
                assert fields[name].tobytes() == a.tobytes(), name
        for final in (result.u_final, result.v_final):
            assert not any(np.shares_memory(final, a) for fields in kept for a in fields.values() if a is not None)
        return blown

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    def test_handed_block_arrays_are_never_mutated(self, dim, kind):
        # the block kernel kicks and rotates through scratch arrays it reuses every step,
        # and keeps each handed resolvent as the next step's Newton hint
        blown = self.assert_block_arrays_are_never_mutated(block_config(dim, kind, "cubic", sigma="clip"), (1e-1, 1e-2))
        assert (blown < 0).all()

    def test_handed_block_arrays_survive_a_tripped_row(self, grid64):
        # the guard zeroes a tripped row's hint, the resolvent handed out at the step before
        config = SolverConfig(grid=grid64, graph=LinearGraph(1e12), lam=1e-2, dt=1e-3, t_final=0.1, u0="smooth:8")
        blown = self.assert_block_arrays_are_never_mutated(config, (2.6e-7, 2.4e-7))
        assert blown.tolist() == [[-1, 13]] * 3

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    def test_beta_nodes_are_the_nodal_drift_of_each_row(self, dim, kind, record_path):
        # beta_nodes transforms to beta_modes bit for bit, in a block and alone,
        # and each block row holds its single path's nodal drift
        config = block_config(dim, kind, "cubic", sigma="clip")
        grid, paths, lambdas = config.grid, (0, 1, 2), (1e-1, 1e-2)
        seen = []
        _run(config, paths, lambdas, lambda k, beta_modes, beta_nodes, **_: seen.append((beta_modes, beta_nodes)))
        assert len(seen) == config.n_steps
        for beta, beta_nodes in seen:
            assert beta_nodes.shape == beta.shape == (3, 2) + grid.shape
            assert grid._modes(beta_nodes).tobytes() == beta.tobytes()
        block = np.array([beta_nodes for _, beta_nodes in seen])
        for i, p in enumerate(paths):
            for j, lam in enumerate(lambdas):
                single = record_path(replace(config, lam=lam), p)
                for beta, beta_nodes in zip(single.beta, single.beta_nodes):
                    assert grid.to_modes(beta_nodes).tobytes() == beta.tobytes()
                assert block[:, i, j].tobytes() == single.beta_nodes.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("graph", GRAPHS, ids=lambda graph: graph.name)
    def test_beta_nodes_are_the_graphs_yosida_map(self, dim, graph, record_path):
        # alone and in a block, each field's beta_nodes is graph.yosida of its
        # nodal state, bit for bit, and res the resolvent that map took (None
        # where it takes none); without a closed form (power:2.5) the
        # kernel starts Newton from the previous step's resolvent, so there
        # the map is replayed with that hint and is graph.yosida to round-off
        config = replace(block_config(dim, "wiener", "cubic"), graph=graph)
        grid, paths, lambdas = config.grid, (0, 1), (1e-1, 1e-2)
        hinted = getattr(graph, "_closed_form", 0) is None
        single, block = record_path(config, 1), []
        single_res = [None] * config.n_steps if single.res is None else single.res
        _run(config, paths, lambdas, lambda k, u, beta_nodes, res, **_: block.append((u, beta_nodes, res)))
        fields = [(config.lam, list(zip(single.u, single.beta_nodes, single_res)))] + [
            (lam, [(u[i, j], beta_nodes[i, j], None if res is None else res[i, j]) for u, beta_nodes, res in block])
            for i in range(len(paths))
            for j, lam in enumerate(lambdas)
        ]
        for lam, steps in fields:
            assert len(steps) == config.n_steps
            yosida, warm = graph._yosida_at(lam), None
            for u, beta_nodes, res in steps:
                u_nodes = grid.to_nodes(u)
                expected, warm = yosida(u_nodes, warm)
                assert beta_nodes.tobytes() == expected.tobytes()
                if warm is None:
                    assert res is None
                else:
                    assert res.tobytes() == warm.tobytes()
                if hinted:
                    np.testing.assert_allclose(expected, graph.yosida(lam, u_nodes), rtol=0, atol=1e-12 / lam)
                else:
                    assert expected.tobytes() == graph.yosida(lam, u_nodes).tobytes()


def poisson_config(dim, sigma):
    grid = SpectralGrid(dim, 16 if dim == 1 else 8)
    cov = NuclearCovariance.from_grid(grid, 1.0, dim + 1.0)
    return SolverConfig(
        grid=grid, graph=CubicGraph(), lam=1e-2, dt=1e-3, t_final=0.2,
        driver=MartingaleDriver("poisson", cov, rate=50.0),
        diffusion=DiffusionMap.from_name(sigma), u0="smooth:3", seed=5,
    )


def always_kicked_path(config, increments):
    """(u_final, v_final, sup_energy) of a loop that adds sigma(u) dM at every step."""
    grid, graph, lam, dt = config.grid, config.graph, config.lam, config.dt
    cache = GroupCache(grid, dt)
    u, v = build_initial_state(grid, config.u0)
    resolve, sup_energy, warm = graph._resolvent_at(lam), -np.inf, None
    for dm in (*increments, None):
        sup_energy = max(sup_energy, float(np.vdot(grid.mu * u, u) + np.vdot(v, v)))
        if dm is None:
            break
        u_nodes = grid.to_nodes(u)
        warm = resolve(u_nodes, warm)
        beta_modes = grid.to_modes((u_nodes - warm) / lam)
        w = v - dt * beta_modes + config.diffusion.apply(grid, u_nodes, dm)
        u, v = cache.rotate(u, w)
    return u, v, sup_energy


class TestJumpFreeSteps:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("sigma", ["sin", "clip"])
    def test_matches_a_loop_that_always_adds_the_noise_product(self, dim, sigma, record_path):
        config = poisson_config(dim, sigma)
        result = record_path(config, 1)
        jumps = sum(bool(np.count_nonzero(dm)) for dm in result.increments)
        assert 0 < jumps < config.n_steps
        u, v, sup_energy = always_kicked_path(config, result.increments)
        np.testing.assert_array_equal(result.u_final, u)
        np.testing.assert_array_equal(result.v_final, v)
        assert result.sup_energy == sup_energy

    def test_noise_product_runs_once_per_jump_step(self, monkeypatch, record_path):
        config = poisson_config(1, "sin")
        calls = []
        apply = DiffusionMap.apply

        def counting_apply(self, grid, u_nodes, dm):
            calls.append(1)
            return apply(self, grid, u_nodes, dm)

        monkeypatch.setattr(DiffusionMap, "apply", counting_apply)
        result = record_path(config, 1)
        jumps = sum(bool(np.count_nonzero(dm)) for dm in result.increments)
        assert jumps > 0
        assert len(calls) == jumps


def summed_reductions(config, result):
    """(sup_energy, chain_lhs, pairing) of a recorded path, each product reduced with .sum()."""
    grid, graph, lam, dt = config.grid, config.graph, config.lam, config.dt
    sup_energy = max(float((grid.mu * u * u).sum() + (v * v).sum()) for u, v in zip(result.u, result.v))
    chain_lhs = pairing = 0.0
    for u, v, beta_modes in zip(result.u, result.v, result.beta):
        u_nodes = grid.to_nodes(u)
        res = graph.resolvent(lam, u_nodes)
        chain_lhs += dt * float((beta_modes * v).sum())
        pairing += dt * grid.weight * float(((u_nodes - res) / lam * res).sum())
    return sup_energy, chain_lhs, pairing


class TestDotReductions:
    """The kernel's BLAS-dot reductions against pairwise .sum() ones."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_path_functionals_match_summed_products(self, dim, record_path, path_pairing):
        if dim == 1:
            grid = SpectralGrid(1, 64)
            config = SolverConfig(
                grid=grid, graph=CubicGraph(), lam=1e-2, dt=1e-3, t_final=0.2,
                driver=MartingaleDriver("wiener", NuclearCovariance.from_grid(grid, 1.0, 2.0)),
                diffusion=DiffusionMap.from_name("clip"), u0="smooth:8", seed=3,
            )
        else:
            config = poisson_config(2, "sin")
        result = record_path(config, 1)
        expected = summed_reductions(config, result)
        actual = (result.sup_energy, chain_rule_check(config, 1)["lhs"], path_pairing(config, 1))
        np.testing.assert_allclose(actual, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("dim, n_modes", [(1, 64), (2, 32)])
    def test_prescaled_transforms_round_trip(self, dim, n_modes):
        grid = SpectralGrid(dim, n_modes)
        x = np.random.default_rng(11).random(grid.shape)  # entries in [0, 1)
        np.testing.assert_allclose(grid.to_nodes(grid.to_modes(x)), x, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(grid.to_modes(grid.to_nodes(x)), x, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_energy_and_norms_are_the_recorded_series(self, grid64, seed, record_path):
        config = SolverConfig(
            grid=grid64, graph=CubicGraph(), lam=1e-2, dt=1e-3, t_final=0.1,
            driver=MartingaleDriver("wiener", NuclearCovariance.from_grid(grid64, 1.0, 2.0)),
            diffusion=DiffusionMap.from_name("clip"), u0="smooth:8", seed=seed,
        )
        result = record_path(config, 0)
        series = functional_series(config, 0)
        energies = [energy(grid64, u, v) for u, v in zip(result.u, result.v)]
        assert energies == series[:, 1].tolist()
        assert result.sup_energy == max(energies)
        assert [grid64.norm(u) for u in result.u] == series[:, 3].tolist()
        assert [grid64.grad_seminorm(u) for u in result.u] == series[:, 4].tolist()
        assert [grid64.norm(v) for v in result.v] == series[:, 5].tolist()


class TestDuhamelResidual:
    def test_linear_flow_is_exact(self, grid64):
        config = SolverConfig(
            grid=grid64, graph=LinearGraph(0.0), lam=1.0, dt=1e-3, t_final=0.5,
            driver=None, u0="smooth:8",
        )
        assert duhamel_residual(config, 0) <= 1e-10

    def test_deterministic_cubic(self):
        grid = SpectralGrid(1, 32)
        config = SolverConfig(
            grid=grid, graph=CubicGraph(), lam=0.1, dt=1e-3, t_final=1.0,
            driver=None, u0="smooth:8",
        )
        assert duhamel_residual(config, 0) <= 1e-9

    def test_full_stochastic_run(self, stochastic_config):
        assert duhamel_residual(stochastic_config, 0) <= 1e-9

    def test_two_dimensional_stochastic_run(self):
        grid = SpectralGrid(2, 8)
        cov = NuclearCovariance.from_grid(grid, 1.0, 3.0)
        config = SolverConfig(
            grid=grid, graph=CubicGraph(), lam=1e-2, dt=2e-3, t_final=0.5,
            driver=MartingaleDriver("wiener", cov),
            diffusion=DiffusionMap.from_name("sin"),
            u0="smooth:3", seed=5,
        )
        assert duhamel_residual(config, 0) <= 1e-9
        lin = replace(config, graph=LinearGraph(0.0), driver=None)
        e = functional_series(lin, 0)[:, 1]
        assert np.max(np.abs(e - e[0])) <= 1e-12 * e[0]

    def test_poisson_driver_with_random_data(self, path_pairing):
        grid = SpectralGrid(1, 32)
        cov = NuclearCovariance.from_grid(grid, 1.0, 2.0)
        config = SolverConfig(
            grid=grid, graph=SignGraph(), lam=5e-2, dt=1e-3, t_final=0.5,
            driver=MartingaleDriver("poisson", cov, rate=8.0),
            diffusion=DiffusionMap.from_name("clip"),
            u0="random:6", seed=11,
        )
        assert duhamel_residual(config, 0) <= 1e-9
        assert path_pairing(config, 0) >= 0.0


class TestChainRule:
    def test_zero_path(self, grid64):
        config = SolverConfig(
            grid=grid64, graph=CubicGraph(), lam=0.1, dt=1e-2, t_final=0.5,
            driver=None, u0="zero",
        )
        out = chain_rule_check(config, 0)
        assert out == {"lhs": 0.0, "rhs": 0.0, "gap": 0.0}

    def test_linear_single_mode_matches_scalar_recursion(self, grid64):
        # closed-form scalar oracle: replicate the per-mode recursion in floats
        lam, dt, n = 0.5, 1e-3, 1000
        config = SolverConfig(
            grid=grid64, graph=LinearGraph(1.0), lam=lam, dt=dt, t_final=1.0,
            driver=None, u0="smooth:1",
        )
        out = chain_rule_check(config, 0)
        rate = 1.0 / (1.0 + lam)
        u, v = 1.0, 0.0
        lhs = 0.0
        for _ in range(n):
            lhs += dt * (rate * u) * v
            u, v = scalar_two_stage(u, v, dt, 1.0, rate)
        rhs = 0.5 * rate * (u * u - 1.0)
        assert out["lhs"] == pytest.approx(lhs, abs=1e-12)
        assert out["rhs"] == pytest.approx(rhs, abs=1e-12)
        # both sides converge: the gap is O(dt)
        assert out["gap"] <= 2.0 * dt

    def test_deterministic_gap_order_at_least_one(self, grid64):
        gaps = []
        for dt in (4e-3, 2e-3, 1e-3):
            config = SolverConfig(
                grid=grid64, graph=CubicGraph(), lam=1e-2, dt=dt, t_final=1.0,
                driver=None, u0="smooth:8",
            )
            gaps.append(chain_rule_check(config, 0)["gap"])
        assert gaps[0] / gaps[1] >= 1.4
        assert gaps[1] / gaps[2] >= 1.4

    def test_stochastic_gap_halves_within_band(self, stochastic_config):
        gaps = []
        for dt in (4e-3, 2e-3, 1e-3):
            config = replace(stochastic_config, dt=dt)
            gaps.append(chain_rule_check(config, 0)["gap"])
        for ratio in (gaps[0] / gaps[1], gaps[1] / gaps[2]):
            assert 1.4 <= ratio <= 3.0


class TestIntegrationByParts:
    def test_exact_on_stochastic_path(self, stochastic_config):
        grid = stochastic_config.grid
        rng = np.random.default_rng(0)
        probes = [
            (grid.basis_field(1), grid.basis_field(2)),
            (rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)),
        ]
        assert ibp_residual(stochastic_config, probes, 0) <= 1e-12

    def test_exact_on_deterministic_and_poisson_paths(self, grid64):
        cov = NuclearCovariance.from_grid(grid64, 1.0, 2.0)
        configs = [
            SolverConfig(
                grid=grid64, graph=SignGraph(), lam=0.05, dt=2e-3, t_final=0.5,
                driver=None, u0="smooth:4",
            ),
            SolverConfig(
                grid=grid64, graph=CubicGraph(), lam=1e-2, dt=2e-3, t_final=0.5,
                driver=MartingaleDriver("poisson", cov, rate=5.0),
                diffusion=DiffusionMap.from_name("sin"),
                u0="smooth:4", seed=3,
            ),
        ]
        rng = np.random.default_rng(1)
        for config in configs:
            phi = rng.standard_normal(grid64.shape)
            psi = rng.standard_normal(grid64.shape)
            assert ibp_residual(config, [(phi, psi)], 0) <= 1e-12


class TestSinglePathChecks:
    """duhamel_residual, chain_rule_check and ibp_residual read no resolvent, so they compute none."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_the_sign_resolvent_is_never_called(self, dim, stochastic_config, monkeypatch):
        # the sign graph's drift takes no resolvent; only a reader of the pairing calls its resolver
        calls = []
        resolvent_at = SignGraph._resolvent_at

        def spy(self, lam, batch_ndim=0):
            resolve = resolvent_at(self, lam, batch_ndim)

            def counted(x, y0):
                calls.append(x.shape)
                return resolve(x, y0)

            return counted

        monkeypatch.setattr(SignGraph, "_resolvent_at", spy)
        config = replace(stochastic_config, t_final=0.1) if dim == 1 else poisson_config(2, "sin")
        config = replace(config, graph=SignGraph())
        grid = config.grid
        rng = np.random.default_rng(0)
        probes = [(rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))]
        assert duhamel_residual(config, 1) <= 1e-9
        assert np.isfinite(chain_rule_check(config, 1)["gap"])
        assert ibp_residual(config, probes, 1) <= 1e-12
        assert calls == []
        # the functional series resolves the handed nodal state at every step and the last state at the end
        functional_series(config, 1)
        assert calls == [grid.shape] * (config.n_steps + 1)


def block_config(dim, kind, graph, dt=1e-3, sigma="clip", u0="smooth:4"):
    grid = SpectralGrid(dim, 16 if dim == 1 else 8)
    cov = NuclearCovariance.from_grid(grid, 1.0, dim + 1.0)
    return SolverConfig(
        grid=grid, graph=parse_graph(graph), lam=1e-2, dt=dt, t_final=100 * dt,
        driver=MartingaleDriver(kind, cov, rate=50.0), diffusion=DiffusionMap.from_name(sigma),
        u0=u0, seed=11,
    )


class TestBlockKernel:
    """Every (path, lambda) row of a block equals that path's own simulate_path call, bit for bit.

    simulate_path steps its 1 x 1 block with np.vdot dots, and the larger
    blocks with _row_dots: so a row depends on neither its block-mates nor
    which of the two dots took it.  The suite turns every RuntimeWarning
    into an error, so none of these runs raises one.
    """

    @staticmethod
    def assert_rows_are_single_paths(config, lambdas):
        """Rows of observed blocks against observed single paths, and their chain sums against chain_rule_check's.

        An observer reads the drift modes, so these rows take the modal
        kick; it sums each row's dt * <beta_modes, v> and its pairing
        dt * weight * <beta_nodes, res> with _row_dots, resolving the nodal
        state where the Yosida map takes no resolvent.  The single paths are
        observed 1 x 1 blocks, read at [0, 0] with their pairings, or their
        blow-up steps.
        """

        def summed(paths, lams):
            """(PathResult, blow-up steps, chain sums, pairings) of an observed block."""
            chain, pairing = np.zeros((2, len(paths), len(lams)))
            lam = np.reshape(np.array(lams), (len(lams),) + (1,) * config.grid.dim)
            resolve = config.graph._resolvent_at(lam, 2)

            def observe(k, v, u_nodes, beta_nodes, beta_modes, res, **_):
                chain[...] += config.dt * _row_dots(beta_modes, v)
                res = resolve(u_nodes, None) if res is None else res
                pairing[...] += config.dt * config.grid.weight * _row_dots(beta_nodes, res)

            result, blown = _run(config, paths, lams, observe)
            return result, blown, chain, pairing

        singles, chains = {}, {}
        for p in range(8):
            for lam in lambdas:
                result, blown, _, pairing = summed((p,), (lam,))
                if blown[0, 0] >= 0:
                    singles[p, lam] = int(blown[0, 0])
                    continue
                singles[p, lam] = SimpleNamespace(
                    **{name: getattr(result, name)[0, 0] for name in vars(result)}, pairing=pairing[0, 0]
                )
                chains[p, lam] = chain_rule_check(replace(config, lam=lam), p)["lhs"]
        for paths in ((4,), (1, 2, 3), tuple(range(8))):
            result, blown, chain, pairing = summed(paths, lambdas)
            assert blown.shape == result.sup_energy.shape == (len(paths), len(lambdas))
            for i, p in enumerate(paths):
                for j, lam in enumerate(lambdas):
                    single = singles[p, lam]
                    if isinstance(single, int):
                        assert blown[i, j] == single
                        continue
                    assert blown[i, j] == -1
                    assert chain[i, j].tobytes() == np.float64(chains[p, lam]).tobytes()
                    assert pairing[i, j].tobytes() == single.pairing.tobytes()
                    for name in ("sup_energy", "u_final", "v_final"):
                        row = np.asarray(getattr(result, name)[i, j])
                        assert row.tobytes() == np.asarray(getattr(single, name)).tobytes(), name
        return singles

    @pytest.mark.parametrize(
        "dim, kind, graph, sigma",
        [(1, "wiener", "cubic", "clip"), (1, "poisson", "sign", "sin"), (2, "poisson", "cubic", "sin"),
         (2, "wiener", "sign", "one"), (1, "wiener", "cubic", "zero"), (2, "poisson", "sign", "zero"),
         (1, "wiener", "power:3", "sin"), (2, "wiener", "cubic", "clip"), (2, "wiener", "power:3", "sin"),
         (1, "wiener", "power:2", "clip")],
    )
    def test_closed_form_rows(self, dim, kind, graph, sigma):
        # Wiener rows with clip or sin transform every path's increment at every step
        self.assert_rows_are_single_paths(block_config(dim, kind, graph, sigma=sigma), (1e-1, 1e-2, 1e-3))

    @pytest.mark.parametrize("dim, sigma", [(1, "clip"), (2, "sin")])
    def test_closed_form_rows_from_zero_data(self, dim, sigma):
        # u0 = zero: the first steps' nodal values are zeros, whose signs the soft threshold keeps
        self.assert_rows_are_single_paths(block_config(dim, "wiener", "sign", sigma=sigma, u0="zero"), (1e-1, 1e-3))

    @staticmethod
    def jump_flags(config, paths):
        draw = config.driver.increment_sampler(config.dt)
        rngs = [path_rng(config.seed, p) for p in paths]
        return [jumps for _, jumps in _increments(draw, rngs, config.n_steps, config.grid.size)]

    @pytest.mark.parametrize("dim, kind", [(1, "wiener"), (1, "poisson"), (2, "wiener"), (2, "poisson")])
    def test_increments_name_the_jumping_rows_by_one_index(self, dim, kind):
        # ... where every path jumps, a (P,) mask where some do, None where none does
        config = block_config(dim, kind, "cubic")
        grid = config.grid
        draw = config.driver.increment_sampler(config.dt)
        rngs = [path_rng(config.seed, p) for p in range(8)]
        forms = set()
        for dm, jumps in _increments(draw, rngs, config.n_steps, grid.size):
            moved = dm.reshape(len(dm), -1).any(axis=1)
            if jumps is None:
                assert not moved.any()
                forms.add("none")
                continue
            if jumps is ...:
                assert moved.all()
                forms.add("all")
            else:
                assert jumps.dtype == bool and 0 < jumps.sum() < len(jumps)
                np.testing.assert_array_equal(jumps, moved)
                forms.add("some")
        assert forms == ({"all"} if kind == "wiener" else {"none", "some"})

    @pytest.mark.parametrize("dim", [1, 2])
    def test_closed_form_rows_of_a_driver_without_noise(self, dim):
        # q0 = 0: every increment is +-0.0, so every step of every path skips the noise product
        config = block_config(dim, "wiener", "cubic", sigma="one")
        grid = config.grid
        config = replace(config, driver=MartingaleDriver("wiener", NuclearCovariance.from_grid(grid, 0.0, dim + 1.0)))
        assert all(jumps is None for jumps in self.jump_flags(config, range(8)))
        singles = self.assert_rows_are_single_paths(config, (1e-1, 1e-2, 1e-3))
        for (p, lam), single in singles.items():
            plain = simulate_path(replace(config, lam=lam, driver=None), p)
            assert single.u_final.tobytes() == plain.u_final.tobytes()
            assert single.v_final.tobytes() == plain.v_final.tobytes()

    @pytest.mark.parametrize("dim, sigma", [(1, "clip"), (2, "one")])
    def test_closed_form_rows_where_some_paths_jump(self, dim, sigma):
        config = block_config(dim, "poisson", "cubic", sigma=sigma)
        flags = self.jump_flags(config, range(8))
        masks = [jumps for jumps in flags if isinstance(jumps, np.ndarray)]
        assert masks and all(0 < mask.sum() < 8 for mask in masks)
        assert any(jumps is None for jumps in flags)
        self.assert_rows_are_single_paths(config, (1e-1, 1e-2, 1e-3))

    @staticmethod
    def assert_rows_are_single_nodal_kick_paths(config, lambdas, monkeypatch):
        """Rows of blocks that read no drift modes (no observer) against 1 x 1 blocks that read none."""
        nodal = []
        at_nodes = DiffusionMap.at_nodes

        def counting_at_nodes(self, u_nodes, dm_nodes):
            nodal.append(1)
            return at_nodes(self, u_nodes, dm_nodes)

        def modal_apply(*args):
            pytest.fail("the noise product went to the modes on its own")

        monkeypatch.setattr(DiffusionMap, "at_nodes", counting_at_nodes)
        monkeypatch.setattr(DiffusionMap, "apply", modal_apply)
        singles = {(p, lam): _run(config, (p,), (lam,)) for p in range(8) for lam in lambdas}
        for paths in ((4,), (1, 2, 3), tuple(range(8))):
            result, blown = _run(config, paths, lambdas)
            for i, p in enumerate(paths):
                for j, lam in enumerate(lambdas):
                    single, single_blown = singles[p, lam]
                    assert blown[i, j] == single_blown[0, 0]
                    if blown[i, j] >= 0:
                        continue
                    for name in ("sup_energy", "u_final", "v_final"):
                        row = getattr(result, name)[i, j]
                        assert row.tobytes() == getattr(single, name)[0, 0].tobytes(), name
        assert nodal  # the kick was summed at the nodes

    @pytest.mark.parametrize(
        "dim, kind, graph, sigma",
        [(1, "wiener", "cubic", "clip"), (1, "poisson", "sign", "sin"), (2, "wiener", "cubic", "clip"),
         (2, "poisson", "sign", "sin")],
    )
    def test_nodal_kick_rows(self, dim, kind, graph, sigma, monkeypatch):
        # Poisson blocks have steps where some paths jump and others do not
        config = block_config(dim, kind, graph, sigma=sigma)
        if kind == "poisson":
            flags = self.jump_flags(config, range(8))
            assert any(isinstance(jumps, np.ndarray) for jumps in flags)
        self.assert_rows_are_single_nodal_kick_paths(config, (1e-1, 1e-2, 1e-3), monkeypatch)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind, rate, sigma", [("wiener", 0.0, "clip"), ("poisson", 400.0, "sin"),
                                                   ("poisson", 5.0, "clip")])
    def test_rows_do_not_depend_on_the_draw_block_cut(self, dim, kind, rate, sigma, monkeypatch):
        # 3 steps per drawn block, so the 100 steps split unevenly over the blocks
        config = block_config(dim, kind, "cubic", sigma=sigma)
        config = replace(config, driver=replace(config.driver, rate=rate))
        paths, lambdas, observers = tuple(range(5)), (1e-1, 1e-2), (None, lambda k, **_: None)
        default = [_run(config, paths, lambdas, observe) for observe in observers]
        monkeypatch.setattr(solver, "_DRAW_ENTRIES", 3 * config.grid.size + 1)
        for (result, blown), observe in zip(default, observers):
            cut, cut_blown = _run(config, paths, lambdas, observe)
            assert cut_blown.tobytes() == blown.tobytes()
            for name in ("sup_energy", "u_final", "v_final"):
                assert getattr(cut, name).tobytes() == getattr(result, name).tobytes(), name

    def test_the_yosida_map_runs_once_per_step(self, monkeypatch):
        # the kernel records nothing, so it computes no drift after the last step
        config = block_config(1, "wiener", "cubic")
        yosida_at, calls = config.graph._yosida_at, []

        def spy(lam, batch_ndim=0):
            yosida = yosida_at(lam, batch_ndim)

            def counted(x, y0, out=None):
                calls.append(x.shape[:2])
                return yosida(x, y0, out)

            return counted

        monkeypatch.setattr(config.graph, "_yosida_at", spy)
        for paths, lambdas in (((0,), (1e-2,)), ((0, 1), (1e-1, 1e-2))):
            del calls[:]
            _run(config, paths, lambdas)
            assert calls == [(len(paths), len(lambdas))] * config.n_steps

    def test_the_series_resolves_once_per_step(self, monkeypatch):
        # the series reads the kernel's resolvent: Newton runs in the kernel's Yosida map
        # at each step, and once more for the last row
        config = block_config(1, "wiener", "power:2.5")
        resolvent_at, calls = config.graph._resolvent_at, []

        def spy(lam, batch_ndim=0):
            resolve = resolvent_at(lam, batch_ndim)

            def counted(x, y0):
                calls.append(x.shape)
                return resolve(x, y0)

            return counted

        monkeypatch.setattr(config.graph, "_resolvent_at", spy)
        functional_series(config, 0)
        grid = config.grid
        assert calls == [(1, 1) + grid.shape] * config.n_steps + [grid.shape]

    @pytest.mark.parametrize("dim, kind", [(1, "wiener"), (1, "poisson"), (2, "wiener")])
    def test_newton_rows_fall_back_one_by_one(self, dim, kind, monkeypatch):
        cold_rows = []
        cold = PowerLawGraph._resolvent_impl

        def spy(self, lam, x):
            cold_rows.append(x.shape[0] if x.ndim > dim else None)
            return cold(self, lam, x)

        monkeypatch.setattr(PowerLawGraph, "_resolvent_impl", spy)
        # large lambdas and dt make warm Newton miss on some rows of a step but not all
        config = block_config(dim, kind, "power:2.5", dt=1e-2, u0="random:4")
        self.assert_rows_are_single_paths(config, (10.0, 1.0, 0.1))
        assert any(rows is not None and 0 < rows < 8 * 3 for rows in cold_rows)

    def test_noise_product_runs_once_per_jumping_path_and_step(self, monkeypatch, record_path):
        config = block_config(1, "poisson", "sign", sigma="sin")
        jumps = sum(bool(np.count_nonzero(dm)) for p in range(8) for dm in record_path(config, p).increments)
        assert 0 < jumps < 8 * config.n_steps
        paths, nodal_paths = [], []
        apply, at_nodes = DiffusionMap.apply, DiffusionMap.at_nodes

        def counting_apply(self, grid, u_nodes, dm):
            paths.append(len(dm))  # one (1, *grid.shape) increment per path
            return apply(self, grid, u_nodes, dm)

        def counting_at_nodes(self, u_nodes, dm_nodes):
            nodal_paths.append(len(u_nodes))  # one (L, *grid.shape) row per path
            return at_nodes(self, u_nodes, dm_nodes)

        monkeypatch.setattr(DiffusionMap, "apply", counting_apply)
        _run(config, tuple(range(8)), (1e-1, 1e-2), lambda k, **_: None)  # an observed block's kick is modal
        assert sum(paths) == jumps
        monkeypatch.setattr(DiffusionMap, "at_nodes", counting_at_nodes)
        del paths[:]
        _run(config, tuple(range(8)), (1e-1, 1e-2))
        assert paths == [] and sum(nodal_paths) == jumps

    @pytest.mark.parametrize("dim, kind", [(1, "wiener"), (2, "poisson")])
    def test_smoothed_pairings_of_a_newton_block_are_single_path_pairings(self, dim, kind, monkeypatch, path_pairing):
        config = block_config(dim, kind, "power:2.5", dt=1e-2, u0="random:4")
        grid, graph, lambdas, eps_values = config.grid, config.graph, (10.0, 1.0, 0.1), (1e-2, 1e-3, 0.0)
        singles = {}
        for p in range(8):
            for lam in lambdas:
                sums = dict.fromkeys(eps_values[:2], 0.0)

                def observe(k, u, beta_modes, **_):
                    for eps in sums:
                        filt = grid.smoother(eps)
                        res = graph.resolvent(lam, grid.to_nodes(filt * u))
                        sums[eps] += config.dt * grid.weight * float(np.vdot(res, grid.to_nodes(filt * beta_modes)))

                simulate_path(replace(config, lam=lam), p, observe)
                singles[p, lam] = {**sums, 0.0: path_pairing(replace(config, lam=lam), p)}
        stacks = []
        cold = PowerLawGraph._resolvent_impl

        def spy(self, lam, x):
            stacks.append(x.shape[: x.ndim - dim])
            return cold(self, lam, x)

        monkeypatch.setattr(PowerLawGraph, "_resolvent_impl", spy)
        for paths in ((4,), (1, 2, 3), tuple(range(8))):
            values, blown = _pairing_job(config, lambdas, paths, eps_values)
            assert (blown < 0).all()
            expected = np.array([[[singles[p, lam][eps] for eps in eps_values] for lam in lambdas] for p in paths])
            assert values.shape == expected.shape and values.tobytes() == expected.tobytes()
        # one cold call per step serves the whole (eps, path, lambda) stack
        assert (2, 8, 3) in stacks

    def test_a_blown_up_row_leaves_and_its_neighbour_goes_on(self, grid64):
        config = SolverConfig(
            grid=grid64, graph=LinearGraph(1e12), lam=1e-2, dt=1e-3, t_final=0.1, u0="smooth:8",
        )
        singles = self.assert_rows_are_single_paths(config, (2.6e-7, 2.4e-7))
        assert all(singles[p, 2.4e-7] == 13 for p in range(8))
        assert not any(isinstance(singles[p, 2.6e-7], int) for p in range(8))


class TestNodalKick:
    """A kick summed at the nodes (no drift modes read) against the kick summed in the modes.

    The sine transform is linear, so the two forms differ only at round-off.
    """

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    @pytest.mark.parametrize("sigma", ["clip", "sin"])
    @pytest.mark.parametrize("graph", GRAPHS, ids=lambda graph: graph.name)
    def test_agrees_with_the_modal_kick(self, graph, sigma, kind, dim):
        config = replace(block_config(dim, kind, "cubic", sigma=sigma), graph=graph)
        paths, lambdas = tuple(range(4)), (1e-1, 1e-2, 1e-3)
        nodal, nodal_blown = _run(config, paths, lambdas)
        modal, modal_blown = _run(config, paths, lambdas, lambda k, **_: None)  # an observer reads the modes
        np.testing.assert_array_equal(nodal_blown, modal_blown)
        np.testing.assert_allclose(nodal.sup_energy, modal.sup_energy, rtol=1e-14, atol=0)
        for name in ("u_final", "v_final"):
            a, b = getattr(nodal, name), getattr(modal, name)
            axes = tuple(range(2, a.ndim))
            error = np.sqrt(((a - b) ** 2).sum(axis=axes)) / np.sqrt((b**2).sum(axis=axes))
            assert error.max() <= 1e-13, name
