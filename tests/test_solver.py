from dataclasses import replace
from functools import partial
from math import cos, sin

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
    ibp_residual,
    lyapunov,
    parse_graph,
    simulate_path,
)
from stochwave.noise import path_rng
from stochwave.selftest import GRAPHS
from stochwave.solver import MAX_STEP_ENTRIES, _increments, _run
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
        record=frozenset({"functionals"}),
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
        record=frozenset(),
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
        config = replace(stochastic_config, graph=graph, t_final=0.2, record=frozenset())
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
    def _lyapunov_and_series(grid, spec, seed, record_path):
        config = SolverConfig(
            grid=grid, graph=parse_graph(spec), lam=1e-2, dt=1e-3, t_final=0.1,
            driver=MartingaleDriver("wiener", NuclearCovariance.from_grid(grid, 1.0, 2.0)),
            diffusion=DiffusionMap.from_name("clip"), u0="smooth:8", seed=seed,
            record=frozenset({"functionals"}),
        )
        r = record_path(config, 0)
        values = [lyapunov(grid, u, v, config.graph, config.lam) for u, v in zip(r.u, r.v)]
        return np.array(values), r.series[:, 1]

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

    def test_unknown_record_flag(self, grid64):
        with pytest.raises(ValueError):
            SolverConfig(
                grid=grid64, graph=CubicGraph(), lam=0.1, dt=1e-3, t_final=1.0,
                record=frozenset({"everything"}),
            )

    @pytest.mark.parametrize("flag", ["states", "increments"])
    def test_history_record_flags_are_rejected(self, grid64, flag):
        # whole histories are read through simulate_path's observer
        with pytest.raises(ValueError, match="solver.record .*'functionals'"):
            SolverConfig(
                grid=grid64, graph=CubicGraph(), lam=0.1, dt=1e-3, t_final=1.0,
                record=frozenset({flag, "functionals"}),
            )


class TestSimulatePath:
    def test_linear_energy_conserved(self, grid64):
        config = SolverConfig(
            grid=grid64, graph=LinearGraph(0.0), lam=1.0, dt=1e-3, t_final=1.0,
            driver=None, u0="smooth:8", record=frozenset({"functionals"}),
        )
        result = simulate_path(config, 0)
        e = result.series[:, 0]
        assert np.max(np.abs(e - e[0])) <= 1e-12 * e[0]

    def test_zero_initial_data_stays_zero(self, grid64, record_path):
        config = SolverConfig(
            grid=grid64, graph=CubicGraph(), lam=0.1, dt=1e-2, t_final=0.5,
            driver=None, u0="zero", record=frozenset({"functionals"}),
        )
        result = record_path(config, 0)
        assert result.sup_energy == 0.0
        assert np.all(result.u == 0.0) and np.all(result.v == 0.0)

    def test_deterministic_given_seed_and_path(self, stochastic_config, record_path):
        a = record_path(stochastic_config, 4)
        b = record_path(stochastic_config, 4)
        assert np.array_equal(a.increments, b.increments)
        np.testing.assert_array_equal(a.u_final, b.u_final)
        np.testing.assert_array_equal(a.series, b.series)

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
        result = simulate_path(config, 3, lambda k, u, v, beta, dm, beta_nodes: seen.append((u, v, beta, dm)))
        np.testing.assert_array_equal(seen[0][0], result.u_first)
        np.testing.assert_array_equal(seen[0][1], result.v_first)
        cache = GroupCache(grid, config.dt)
        following = [(u, v) for u, v, _, _ in seen[1:]] + [(result.u_final, result.v_final)]
        for (u, v, beta, dm), (u_next, v_next) in zip(seen, following):
            u_nodes = grid.to_nodes(u)
            np.testing.assert_array_equal(beta, grid.to_modes((u_nodes - graph.resolvent(lam, u_nodes)) / lam))
            kicked = kernel_step(cache, u, v, graph, lam, config.diffusion, dm)
            np.testing.assert_array_equal(kicked[0], u_next)
            np.testing.assert_array_equal(kicked[1], v_next)
        plain = simulate_path(config, 3)
        np.testing.assert_array_equal(plain.u_final, result.u_final)
        assert plain.pairing == result.pairing

    def test_noise_free_path_records_zero_increments(self, grid64, record_path):
        config = SolverConfig(
            grid=grid64, graph=CubicGraph(), lam=0.1, dt=1e-2, t_final=0.5,
            driver=None, u0="smooth:8", record=frozenset(),
        )
        result = record_path(config, 0)
        assert result.increments.shape == (config.n_steps, 64)
        assert np.all(result.increments == 0.0)

    def test_blow_up_guard_reports_step(self, grid64):
        config = SolverConfig(
            grid=grid64, graph=LinearGraph(1e9), lam=1e-9, dt=1e-3, t_final=1.0,
            driver=None, u0="smooth:8", record=frozenset(),
        )
        with pytest.raises(NumericError) as err:
            simulate_path(config, 0)
        # yosida(u) = 5e8*u: the deterministic growth first crosses the 1e12 guard at step 2
        assert err.value.step == 2

    def test_sup_energy_includes_initial_time(self, grid64):
        config = SolverConfig(
            grid=grid64, graph=LinearGraph(0.0), lam=1.0, dt=1e-2, t_final=0.1,
            driver=None, u0="smooth:8", record=frozenset(),
        )
        result = simulate_path(config, 0)
        u0, v0 = build_initial_state(grid64, "smooth:8")
        assert result.sup_energy >= energy(grid64, u0, v0) - 1e-14

    def test_pairing_positive_for_monotone_graphs(self, stochastic_config, record_path):
        for graph in (SignGraph(), JumpGraph(2.0)):
            config = replace(stochastic_config, graph=graph)
            result = record_path(config, 1)
            assert result.pairing >= 0.0
            # pointwise positivity of <yosida(u), u> at every recorded state
            for n in range(0, len(result.times), 100):
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
                    driver=None, u0="smooth:8", record=frozenset({"functionals"}),
                )
                lyap = simulate_path(config, 0).series[:, 1]
                assert np.max(lyap) <= lyap[0] * (1.0 + 1.0 * dt)

    def test_lyapunov_drift_small_and_first_order(self, grid64):
        # drift bound from the operation contract; the halving ratio is the
        # empirically observed first-order behaviour of this splitting
        drifts = {}
        for dt in (2e-4, 1e-4):
            config = SolverConfig(
                grid=grid64, graph=CubicGraph(), lam=1e-2, dt=dt, t_final=1.0,
                driver=None, u0="smooth:8", record=frozenset({"functionals"}),
            )
            lyap = simulate_path(config, 0).series[:, 1]
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
        simulate_path(config, 3, lambda k, u, v, beta, dm, beta_nodes: calls.append((k, dm is None)))
        assert calls == [(k, driver is None) for k in range(config.n_steps)]

    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    def test_every_lambda_sees_the_same_increments(self, stochastic_config, kind):
        driver = MartingaleDriver(kind, stochastic_config.driver.covariance, rate=50.0)
        draws = {1e-1: [], 1e-3: []}
        for lam, seen in draws.items():
            config = replace(stochastic_config, lam=lam, t_final=0.1, driver=driver)
            simulate_path(config, 2, lambda k, u, v, beta, dm, beta_nodes: seen.append(dm.tobytes()))
        assert draws[1e-1] == draws[1e-3]

    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    def test_handed_arrays_are_never_mutated(self, stochastic_config, kind):
        # observers keep references (duhamel_residual keeps the k = 0 state)
        driver = MartingaleDriver(kind, stochastic_config.driver.covariance, rate=50.0)
        config = replace(stochastic_config, t_final=0.1, driver=driver)
        kept, copies = [], []

        def observe(k, *arrays):
            kept.append(arrays)
            copies.append([a.copy() for a in arrays])

        simulate_path(config, 3, observe)
        for arrays, snapshot in zip(kept, copies):
            for a, b in zip(arrays, snapshot):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    def test_handed_block_arrays_are_never_mutated(self, dim, kind):
        # the block kernel kicks and rotates through scratch arrays it reuses every step
        config = block_config(dim, kind, "cubic", sigma="clip")
        kept, copies = [], []

        def observe(k, *arrays):
            kept.append(arrays)
            copies.append([a.copy() for a in arrays])

        result, blown = _run(config, (0, 1, 2), (1e-1, 1e-2), observe)
        assert (blown < 0).all() and len(kept) == config.n_steps
        for arrays, snapshot in zip(kept, copies):
            assert arrays[0].shape == (3, 2) + config.grid.shape
            for a, b in zip(arrays, snapshot):
                assert a.tobytes() == b.tobytes()
        for final in (result.u_final, result.v_final):
            assert not any(np.shares_memory(final, a) for arrays in kept for a in arrays)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    def test_beta_nodes_are_the_nodal_drift_of_each_row(self, dim, kind, record_path):
        # beta_nodes transforms to beta_modes bit for bit, in a block and alone,
        # and each block row holds its single path's nodal drift
        config = block_config(dim, kind, "cubic", sigma="clip")
        grid, paths, lambdas = config.grid, (0, 1, 2), (1e-1, 1e-2)
        seen = []
        _run(config, paths, lambdas, lambda k, u, v, beta, dm, beta_nodes: seen.append((beta, beta_nodes)))
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
    def test_beta_nodes_are_the_graphs_yosida_map(self, dim, graph):
        # alone and in a block, each field's beta_nodes is graph.yosida of its
        # nodal state, bit for bit; without a closed form (power:2.5) the
        # kernel starts Newton from the previous step's resolvent, so there
        # the map is replayed with that hint and is graph.yosida to round-off
        config = replace(block_config(dim, "wiener", "cubic"), graph=graph)
        grid, paths, lambdas = config.grid, (0, 1), (1e-1, 1e-2)
        hinted = getattr(graph, "_closed_form", 0) is None
        single, block = [], []
        simulate_path(config, 1, lambda k, u, v, beta, dm, beta_nodes: single.append((u, beta_nodes)))
        _run(config, paths, lambdas, lambda k, u, v, beta, dm, beta_nodes: block.append((u, beta_nodes)))
        fields = [(config.lam, single)] + [
            (lam, [(u[i, j], beta_nodes[i, j]) for u, beta_nodes in block])
            for i in range(len(paths))
            for j, lam in enumerate(lambdas)
        ]
        for lam, steps in fields:
            assert len(steps) == config.n_steps
            yosida, warm = graph._yosida_at(lam), None
            for u, beta_nodes in steps:
                u_nodes = grid.to_nodes(u)
                expected, warm = yosida(u_nodes, warm)
                assert beta_nodes.tobytes() == expected.tobytes()
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
        record=frozenset(),
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

        def counting_apply(self, grid, u_nodes, dm, dm_nodes=None):
            calls.append(1)
            return apply(self, grid, u_nodes, dm, dm_nodes)

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
    def test_path_functionals_match_summed_products(self, dim, record_path):
        if dim == 1:
            grid = SpectralGrid(1, 64)
            config = SolverConfig(
                grid=grid, graph=CubicGraph(), lam=1e-2, dt=1e-3, t_final=0.2,
                driver=MartingaleDriver("wiener", NuclearCovariance.from_grid(grid, 1.0, 2.0)),
                diffusion=DiffusionMap.from_name("clip"), u0="smooth:8", seed=3,
                record=frozenset(),
            )
        else:
            config = poisson_config(2, "sin")
        result = record_path(config, 1)
        expected = summed_reductions(config, result)
        actual = (result.sup_energy, result.chain_lhs, result.pairing)
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
            record=frozenset({"functionals"}),
        )
        result = record_path(config, 0)
        energies = [energy(grid64, u, v) for u, v in zip(result.u, result.v)]
        assert energies == result.series[:, 0].tolist()
        assert result.sup_energy == max(energies)
        assert [grid64.norm(u) for u in result.u] == result.series[:, 2].tolist()
        assert [grid64.grad_seminorm(u) for u in result.u] == result.series[:, 3].tolist()
        assert [grid64.norm(v) for v in result.v] == result.series[:, 4].tolist()


class TestDuhamelResidual:
    def test_linear_flow_is_exact(self, grid64):
        config = SolverConfig(
            grid=grid64, graph=LinearGraph(0.0), lam=1.0, dt=1e-3, t_final=0.5,
            driver=None, u0="smooth:8", record=frozenset({"functionals"}),
        )
        assert duhamel_residual(config, 0) <= 1e-10

    def test_deterministic_cubic(self):
        grid = SpectralGrid(1, 32)
        config = SolverConfig(
            grid=grid, graph=CubicGraph(), lam=0.1, dt=1e-3, t_final=1.0,
            driver=None, u0="smooth:8", record=frozenset({"functionals"}),
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
            record=frozenset({"functionals"}),
        )
        assert duhamel_residual(config, 0) <= 1e-9
        lin = replace(config, graph=LinearGraph(0.0), driver=None)
        e = simulate_path(lin, 0).series[:, 0]
        assert np.max(np.abs(e - e[0])) <= 1e-12 * e[0]

    def test_poisson_driver_with_random_data(self):
        grid = SpectralGrid(1, 32)
        cov = NuclearCovariance.from_grid(grid, 1.0, 2.0)
        config = SolverConfig(
            grid=grid, graph=SignGraph(), lam=5e-2, dt=1e-3, t_final=0.5,
            driver=MartingaleDriver("poisson", cov, rate=8.0),
            diffusion=DiffusionMap.from_name("clip"),
            u0="random:6", seed=11,
            record=frozenset({"functionals"}),
        )
        assert duhamel_residual(config, 0) <= 1e-9
        assert simulate_path(config, 0).pairing >= 0.0


class TestChainRule:
    def test_zero_path(self, grid64):
        config = SolverConfig(
            grid=grid64, graph=CubicGraph(), lam=0.1, dt=1e-2, t_final=0.5,
            driver=None, u0="zero", record=frozenset(),
        )
        out = chain_rule_check(simulate_path(config, 0), config)
        assert out == {"lhs": 0.0, "rhs": 0.0, "gap": 0.0}

    def test_linear_single_mode_matches_scalar_recursion(self, grid64):
        # closed-form scalar oracle: replicate the per-mode recursion in floats
        lam, dt, n = 0.5, 1e-3, 1000
        config = SolverConfig(
            grid=grid64, graph=LinearGraph(1.0), lam=lam, dt=dt, t_final=1.0,
            driver=None, u0="smooth:1", record=frozenset(),
        )
        out = chain_rule_check(simulate_path(config, 0), config)
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
                driver=None, u0="smooth:8", record=frozenset(),
            )
            gaps.append(chain_rule_check(simulate_path(config, 0), config)["gap"])
        assert gaps[0] / gaps[1] >= 1.4
        assert gaps[1] / gaps[2] >= 1.4

    def test_stochastic_gap_halves_within_band(self, stochastic_config):
        gaps = []
        for dt in (4e-3, 2e-3, 1e-3):
            config = replace(stochastic_config, dt=dt, record=frozenset())
            gaps.append(chain_rule_check(simulate_path(config, 0), config)["gap"])
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
                driver=None, u0="smooth:4", record=frozenset(),
            ),
            SolverConfig(
                grid=grid64, graph=CubicGraph(), lam=1e-2, dt=2e-3, t_final=0.5,
                driver=MartingaleDriver("poisson", cov, rate=5.0),
                diffusion=DiffusionMap.from_name("sin"),
                u0="smooth:4", seed=3, record=frozenset(),
            ),
        ]
        rng = np.random.default_rng(1)
        for config in configs:
            phi = rng.standard_normal(grid64.shape)
            psi = rng.standard_normal(grid64.shape)
            assert ibp_residual(config, [(phi, psi)], 0) <= 1e-12


def block_config(dim, kind, graph, dt=1e-3, sigma="clip", u0="smooth:4"):
    grid = SpectralGrid(dim, 16 if dim == 1 else 8)
    cov = NuclearCovariance.from_grid(grid, 1.0, dim + 1.0)
    return SolverConfig(
        grid=grid, graph=parse_graph(graph), lam=1e-2, dt=dt, t_final=100 * dt,
        driver=MartingaleDriver(kind, cov, rate=50.0), diffusion=DiffusionMap.from_name(sigma),
        u0=u0, seed=11, record=frozenset(),
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
        singles = {}
        for p in range(8):
            for lam in lambdas:
                try:
                    singles[p, lam] = simulate_path(replace(config, lam=lam), p)
                except NumericError as err:
                    singles[p, lam] = err.step
        for paths in ((4,), (1, 2, 3), tuple(range(8))):
            result, blown = _run(config, paths, lambdas)
            assert blown.shape == result.sup_energy.shape == (len(paths), len(lambdas))
            for i, p in enumerate(paths):
                for j, lam in enumerate(lambdas):
                    single = singles[p, lam]
                    if isinstance(single, int):
                        assert blown[i, j] == single
                        continue
                    assert blown[i, j] == -1
                    for name in ("sup_energy", "chain_lhs", "pairing", "u_final", "v_final"):
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
        # Wiener rows with clip or sin transform every drawn block's increments in one call
        self.assert_rows_are_single_paths(block_config(dim, kind, graph, sigma=sigma), (1e-1, 1e-2, 1e-3))

    @pytest.mark.parametrize("dim, sigma", [(1, "clip"), (2, "sin")])
    def test_closed_form_rows_from_zero_data(self, dim, sigma):
        # u0 = zero: the first steps' nodal values are zeros, whose signs the soft threshold keeps
        self.assert_rows_are_single_paths(block_config(dim, "wiener", "sign", sigma=sigma, u0="zero"), (1e-1, 1e-3))

    @staticmethod
    def jump_flags(config, paths):
        draw = config.driver.increment_sampler(config.dt)
        rngs = [path_rng(config.seed, p) for p in paths]
        return [jumps for _, jumps, _ in _increments(draw, rngs, config.n_steps, config.grid.size)]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_closed_form_rows_of_a_driver_without_noise(self, dim):
        # q0 = 0: every increment is +-0.0, so every step of every path skips the noise product
        config = block_config(dim, "wiener", "cubic", sigma="one")
        grid = config.grid
        config = replace(config, driver=MartingaleDriver("wiener", NuclearCovariance.from_grid(grid, 0.0, dim + 1.0)))
        assert all(jumps is False for jumps in self.jump_flags(config, range(8)))
        singles = self.assert_rows_are_single_paths(config, (1e-1, 1e-2, 1e-3))
        for (p, lam), single in singles.items():
            plain = simulate_path(replace(config, lam=lam, driver=None), p)
            assert single.u_final.tobytes() == plain.u_final.tobytes()
            assert single.v_final.tobytes() == plain.v_final.tobytes()

    @pytest.mark.parametrize("dim, sigma", [(1, "clip"), (2, "one")])
    def test_closed_form_rows_where_some_paths_jump(self, dim, sigma):
        config = block_config(dim, "poisson", "cubic", sigma=sigma)
        flags = self.jump_flags(config, range(8))
        masks = [jumps for jumps in flags if jumps is not True and jumps is not False]
        assert masks and all(0 < mask.sum() < 8 for mask in masks)
        assert any(jumps is False for jumps in flags)
        self.assert_rows_are_single_paths(config, (1e-1, 1e-2, 1e-3))

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
        paths = []
        apply = DiffusionMap.apply

        def counting_apply(self, grid, u_nodes, dm, dm_nodes=None):
            paths.append(len(dm))  # one (1, *grid.shape) increment per path
            return apply(self, grid, u_nodes, dm, dm_nodes)

        monkeypatch.setattr(DiffusionMap, "apply", counting_apply)
        _run(config, tuple(range(8)), (1e-1, 1e-2))
        assert sum(paths) == jumps

    @pytest.mark.parametrize("dim, kind", [(1, "wiener"), (2, "poisson")])
    def test_smoothed_pairings_of_a_newton_block_are_single_path_pairings(self, dim, kind, monkeypatch):
        config = block_config(dim, kind, "power:2.5", dt=1e-2, u0="random:4")
        grid, graph, lambdas, eps_values = config.grid, config.graph, (10.0, 1.0, 0.1), (1e-2, 1e-3, 0.0)
        singles = {}
        for p in range(8):
            for lam in lambdas:
                sums = dict.fromkeys(eps_values[:2], 0.0)

                def observe(k, u, v, beta, dm, beta_nodes):
                    for eps in sums:
                        filt = grid.smoother(eps)
                        res = graph.resolvent(lam, grid.to_nodes(filt * u))
                        sums[eps] += config.dt * grid.weight * float(np.vdot(res, grid.to_nodes(filt * beta)))

                result = simulate_path(replace(config, lam=lam), p, observe)
                singles[p, lam] = {**sums, 0.0: result.pairing}
        stacks = []
        cold = PowerLawGraph._resolvent_impl

        def spy(self, lam, x):
            stacks.append(x.shape[: x.ndim - dim])
            return cold(self, lam, x)

        monkeypatch.setattr(PowerLawGraph, "_resolvent_impl", spy)
        for paths in ((4,), (1, 2, 3), tuple(range(8))):
            values, blown = _pairing_job(config, lambdas, paths, eps_values)
            assert (blown < 0).all()
            assert repr(values) == repr([[singles[p, lam] for lam in lambdas] for p in paths])
        # one cold call per step serves the whole (eps, path, lambda) stack
        assert (2, 8, 3) in stacks

    def test_a_blown_up_row_leaves_and_its_neighbour_goes_on(self, grid64):
        config = SolverConfig(
            grid=grid64, graph=LinearGraph(1e12), lam=1e-2, dt=1e-3, t_final=0.1, u0="smooth:8",
            record=frozenset(),
        )
        singles = self.assert_rows_are_single_paths(config, (2.6e-7, 2.4e-7))
        assert all(singles[p, 2.4e-7] == 13 for p in range(8))
        assert not any(isinstance(singles[p, 2.6e-7], int) for p in range(8))
