import numpy as np
import pytest

from stochwave import (
    DiffusionMap,
    MartingaleDriver,
    NuclearCovariance,
    SpectralGrid,
    ito_isometry_check,
    path_rng,
)
from stochwave import noise


@pytest.fixture(scope="module")
def grid8():
    return SpectralGrid(1, 8)


@pytest.fixture(scope="module")
def cov8(grid8):
    return NuclearCovariance.from_grid(grid8, 1.0, 2.0)


class TestCovariance:
    def test_mode_decay(self, grid8, cov8):
        np.testing.assert_allclose(cov8.q, np.arange(1, 9, dtype=float) ** -2.0)
        assert cov8.trace == pytest.approx(sum(k**-2.0 for k in range(1, 9)))

    def test_2d_uses_euclidean_mode_norm(self):
        grid = SpectralGrid(2, 4)
        cov = NuclearCovariance.from_grid(grid, 2.0, 3.0)
        assert cov.q[0, 0] == pytest.approx(2.0 * 2.0 ** (-1.5))
        assert cov.q[2, 1] == pytest.approx(2.0 * 13.0 ** (-1.5))

    def test_validation(self, grid8):
        with pytest.raises(ValueError):
            NuclearCovariance.from_grid(grid8, -1.0, 2.0)
        with pytest.raises(ValueError):
            NuclearCovariance.from_grid(grid8, 1.0, 1.0)  # r must exceed dim

    def test_non_finite_parameters_are_named(self, grid8, cov8):
        nan, inf = float("nan"), float("inf")
        for q0, r, key in ((nan, 2.0, "q0"), (inf, 2.0, "q0"), (1.0, nan, "r"), (1.0, inf, "r")):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                NuclearCovariance.from_grid(grid8, q0, r)
        for rate in (nan, inf):
            with pytest.raises(ValueError, match="rate must be finite"):
                MartingaleDriver("poisson", cov8, rate=rate)
        driver = MartingaleDriver("wiener", cov8)
        for t_final in (nan, inf):
            with pytest.raises(ValueError, match="t_final must be finite"):
                ito_isometry_check(driver, t_final, 10, 5, 0)


class TestIncrements:
    def test_zero_covariance_gives_zero_field(self, grid8):
        cov = NuclearCovariance.from_grid(grid8, 0.0, 2.0)
        driver = MartingaleDriver("wiener", cov)
        assert np.all(driver.increment_sampler(0.1)(path_rng(0, 0), 1)[0] == 0.0)

    def test_dt_must_be_positive(self, cov8):
        driver = MartingaleDriver("wiener", cov8)
        with pytest.raises(ValueError):
            driver.increment_sampler(0.0)(path_rng(0, 0), 1)

    def test_driver_validation(self, cov8):
        with pytest.raises(ValueError):
            MartingaleDriver("gamma", cov8)
        with pytest.raises(ValueError):
            MartingaleDriver("poisson", cov8, rate=0.0)

    def test_reproducible_streams(self, cov8):
        for kind, rate in (("wiener", 0.0), ("poisson", 5.0)):
            driver = MartingaleDriver(kind, cov8, rate=rate)
            a = driver.increment_sampler(1.0)(path_rng(7, 3), 1)[0]
            b = driver.increment_sampler(1.0)(path_rng(7, 3), 1)[0]
            assert np.array_equal(a, b)
            # different path index -> different draw
            c = driver.increment_sampler(1.0)(path_rng(7, 4), 1)[0]
            assert not np.array_equal(a, c)

    def test_mean_zero_per_mode(self, cov8):
        # martingale property proxy: increment sample mean within 3 SE of zero
        n, dt = 100_000, 0.01
        for kind, rate in (("wiener", 0.0), ("poisson", 4.0)):
            driver = MartingaleDriver(kind, cov8, rate=rate)
            rng = path_rng(100, 0)
            draw = driver.increment_sampler(dt)
            total = np.zeros(cov8.q.shape)
            total_sq = np.zeros(cov8.q.shape)
            for _ in range(n):
                inc = draw(rng, 1)[0]
                total += inc
                total_sq += inc**2
            mean = total / n
            se = np.sqrt(total_sq / n) / np.sqrt(n)
            assert np.all(np.abs(mean) <= 3.0 * se + 1e-12)

    def test_wiener_mode_variance(self, cov8):
        # MC oracle: mode-1 variance over 1e5 draws equals q_1*dt within 3 SE
        driver = MartingaleDriver("wiener", cov8)
        rng = path_rng(5, 0)
        n, dt = 100_000, 0.01
        draw = driver.increment_sampler(dt)
        samples = np.array([draw(rng, 1)[0, 0] for _ in range(n)])
        sq = samples**2
        se = np.std(sq, ddof=1) / np.sqrt(n)
        assert abs(np.mean(sq) - cov8.q[0] * dt) <= 3.0 * se

    def test_poisson_high_rate_matches_wiener_variance(self, cov8):
        # large jump intensity behaves Gaussian: per-mode variance q_k*dt
        driver = MartingaleDriver("poisson", cov8, rate=100.0)
        rng = path_rng(13, 0)
        n, dt = 20_000, 0.05
        draw = driver.increment_sampler(dt)
        samples = np.stack([draw(rng, 1)[0] for _ in range(n)])
        sq = samples**2
        se = np.std(sq, axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(sq.mean(axis=0) - cov8.q * dt) <= 3.0 * se)

    def test_variance_grows_linearly_in_time(self, cov8):
        # covariance equality: slope of Var(M_k(t)) against t is q_k
        driver = MartingaleDriver("wiener", cov8)
        n_paths, n_steps, dt = 4000, 8, 0.125
        finals = np.empty((n_paths,) + cov8.q.shape)
        for p in range(n_paths):
            rng = path_rng(42, p)
            m = np.zeros(cov8.q.shape)
            for _ in range(n_steps):
                m += driver.increment_sampler(dt)(rng, 1)[0]
            finals[p] = m
        t_final = n_steps * dt
        sq = finals**2
        slope = sq.mean(axis=0) / t_final
        se = np.std(sq, axis=0, ddof=1) / np.sqrt(n_paths) / t_final
        assert np.all(np.abs(slope - cov8.q) <= 3.0 * se)


def _per_step_draws(draw, rng, n_steps):
    return np.stack([draw(rng, 1)[0] for _ in range(n_steps)])


# rate 5 over dt 0.01 leaves about 95% of the Poisson steps without a jump
DRIVERS = [("wiener", 0.0), ("poisson", 5.0)]
GRIDS = [SpectralGrid(1, 8), SpectralGrid(2, 6)]


class TestBlockDraws:
    @pytest.mark.parametrize("kind, rate", DRIVERS)
    @pytest.mark.parametrize("grid", GRIDS, ids=["d1", "d2"])
    def test_block_is_the_stacked_single_draws(self, kind, rate, grid):
        driver = MartingaleDriver(kind, NuclearCovariance.from_grid(grid, 1.0, 3.0), rate=rate)
        draw = driver.increment_sampler(0.01)
        a, b = path_rng(3, 1), path_rng(3, 1)
        block = draw(a, 200)
        assert block.shape == (200, *grid.shape)
        assert np.array_equal(block, _per_step_draws(draw, b, 200))
        if kind == "poisson":
            jumped = np.any(block != 0.0, axis=tuple(range(1, block.ndim)))
            assert 0 < jumped.sum() < 200
        # both streams stand at the same place afterwards
        assert np.array_equal(draw(a, 1)[0], draw(b, 1)[0])

    @pytest.mark.parametrize("kind, rate", DRIVERS)
    @pytest.mark.parametrize("grid", GRIDS, ids=["d1", "d2"])
    def test_path_sums_span_several_blocks(self, kind, rate, grid, monkeypatch):
        driver = MartingaleDriver(kind, NuclearCovariance.from_grid(grid, 1.0, 3.0), rate=rate)
        monkeypatch.setattr(noise, "_BLOCK_ENTRIES", 4 * driver.covariance.q.size + 1)  # 4 steps per block
        draw = driver.increment_sampler(0.01)
        blocks = []

        def keep(block):
            blocks.append(block)
            return block

        sums = noise._path_sums(driver, 0.01, 10, 8, (2, 0, 1), keep)
        assert [len(b) for b in blocks] == [4, 4, 2] * 3
        for k, p in enumerate((2, 0, 1)):
            steps = _per_step_draws(draw, path_rng(8, p), 10)
            assert np.array_equal(np.concatenate(blocks[3 * k : 3 * k + 3]), steps)
            total = np.zeros(grid.shape)
            for step in steps:
                total += step
            assert np.array_equal(sums[k], total)


class TestDiffusion:
    def test_constant_map_is_identity_on_noise(self, grid8, cov8):
        driver = MartingaleDriver("wiener", cov8)
        dm = driver.increment_sampler(0.1)(path_rng(1, 1), 1)[0]
        sigma = DiffusionMap.from_name("one")
        np.testing.assert_allclose(sigma.apply(grid8, np.zeros(grid8.shape), dm), dm, atol=1e-12)

    def test_zero_map_annihilates(self, grid8, cov8):
        driver = MartingaleDriver("wiener", cov8)
        dm = driver.increment_sampler(0.1)(path_rng(1, 2), 1)[0]
        sigma = DiffusionMap.from_name("zero")
        assert np.all(sigma.apply(grid8, np.ones(grid8.shape), dm) == 0.0)

    def test_clip_is_nodally_bounded(self, grid8, cov8):
        driver = MartingaleDriver("wiener", cov8)
        dm = driver.increment_sampler(0.1)(path_rng(1, 3), 1)[0]
        sigma = DiffusionMap.from_name("clip")
        u_nodes = 50.0 * np.sin(np.arange(8.0))  # mostly saturated
        out_nodes = grid8.to_nodes(sigma.apply(grid8, u_nodes, dm))
        assert np.all(np.abs(out_nodes) <= np.abs(grid8.to_nodes(dm)) + 1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            DiffusionMap.from_name("tanh")

    def test_shape_mismatch(self, grid8, cov8):
        sigma = DiffusionMap.from_name("one")
        with pytest.raises(ValueError):
            sigma.apply(grid8, np.zeros(7), np.zeros(8))


def _hs_norm(sigma, grid, u_nodes, cov):
    """|sigma(u) Q^(1/2)|_HS = (sum_k q_k |apply(u, e_k)|^2)^(1/2), with ``apply`` run on the stack of basis fields."""
    basis = np.eye(grid.size).reshape((grid.size,) + grid.shape)
    out = sigma.apply(grid, u_nodes, basis).reshape(grid.size, -1)
    return float(np.sqrt(np.dot(cov.q.ravel(), np.sum(out**2, axis=1))))


class TestHsNorm:
    def test_constant_sigma_gives_trace_root(self, grid8, cov8):
        sigma = DiffusionMap.from_name("one")
        assert _hs_norm(sigma, grid8, np.zeros(grid8.shape), cov8) == pytest.approx(
            np.sqrt(cov8.trace), abs=1e-10
        )

    def test_zero_covariance(self, grid8):
        cov = NuclearCovariance.from_grid(grid8, 0.0, 2.0)
        sigma = DiffusionMap.from_name("one")
        assert _hs_norm(sigma, grid8, np.zeros(grid8.shape), cov) == 0.0

    def test_unit_modulus_maps_give_partial_sum_root(self):
        # whenever |sigma(u)| = 1 nodally the norm is the covariance trace root;
        # holds for sigma=one anywhere and for clip at a saturated state
        grid = SpectralGrid(1, 64)
        cov = NuclearCovariance.from_grid(grid, 1.0, 2.0)
        partial_sum = sum(k**-2.0 for k in range(1, 65))  # direct-summation oracle
        assert partial_sum == pytest.approx(1.629430501408887, abs=1e-12)
        one = DiffusionMap.from_name("one")
        assert _hs_norm(one, grid, np.zeros(grid.shape), cov) == pytest.approx(
            np.sqrt(partial_sum), abs=1e-10
        )
        clip = DiffusionMap.from_name("clip")
        saturated = 5.0 * np.ones(grid.shape)
        assert _hs_norm(clip, grid, saturated, cov) == pytest.approx(np.sqrt(partial_sum), abs=1e-10)
        # at u = 0 the clipped multiplier vanishes, so the operator does too
        assert _hs_norm(clip, grid, np.zeros(grid.shape), cov) == 0.0

    def test_2d_matches_direct_summation(self):
        grid = SpectralGrid(2, 6)
        cov = NuclearCovariance.from_grid(grid, 1.0, 3.0)
        sigma = DiffusionMap.from_name("sin")
        rng = np.random.default_rng(8)
        u_nodes = rng.standard_normal(grid.shape)
        # direct oracle: sum_k q_k |sigma(u) e_k|^2 by explicit quadrature per mode
        target = 0.0
        s_nodes = np.sin(u_nodes)
        for flat, (k1, k2) in enumerate(grid.mode_indices):
            e_k = grid.to_nodes(grid.basis_field(k1, k2))
            target += cov.q.ravel()[flat] * grid.weight * np.sum((s_nodes * e_k) ** 2)
        assert _hs_norm(sigma, grid, u_nodes, cov) == pytest.approx(np.sqrt(target), abs=1e-10)


class TestItoIsometry:
    def test_degenerate_horizon(self, cov8):
        driver = MartingaleDriver("wiener", cov8)
        rep = ito_isometry_check(driver, 0.0, 1, 100, 0)
        assert rep["lhs_estimate"] == 0.0 and rep["rhs"] == 0.0

    def test_n_steps_must_be_positive(self, cov8):
        driver = MartingaleDriver("wiener", cov8)
        for n_steps in (0, -1):
            with pytest.raises(ValueError, match="n_steps"):
                ito_isometry_check(driver, 1.0, n_steps, 10, 0)

    def test_n_paths_must_be_positive(self, cov8):
        driver = MartingaleDriver("wiener", cov8)
        for t_final in (1.0, 0.0):
            for n_paths in (0, -5):
                with pytest.raises(ValueError, match="n_paths"):
                    ito_isometry_check(driver, t_final, 1, n_paths, 0)

    @pytest.mark.parametrize("kind, rate", DRIVERS)
    def test_matches_a_per_step_sum(self, kind, rate, cov8, monkeypatch):
        monkeypatch.setattr(noise, "_BLOCK_ENTRIES", 3 * cov8.q.size)  # 3 steps per block
        driver = MartingaleDriver(kind, cov8, rate=rate)
        draw = driver.increment_sampler(0.1)
        sq = []
        for p in range(4):
            rng, total = path_rng(6, p), np.zeros(cov8.q.shape)
            for _ in range(10):
                total += draw(rng, 1)[0]
            sq.append(np.sum(total**2))
        rep = ito_isometry_check(driver, 1.0, 10, 4, 6)
        assert rep["lhs_estimate"] == np.mean(sq)
        assert rep["std_error"] == np.std(sq, ddof=1) / np.sqrt(4)

    def test_wiener_small(self, cov8):
        driver = MartingaleDriver("wiener", cov8)
        rep = ito_isometry_check(driver, 1.0, 4, 3000, 9)
        assert abs(rep["lhs_estimate"] - rep["rhs"]) <= 3.0 * rep["std_error"]

    def test_poisson_small(self, cov8):
        driver = MartingaleDriver("poisson", cov8, rate=5.0)
        rep = ito_isometry_check(driver, 1.0, 4, 3000, 10)
        assert abs(rep["lhs_estimate"] - rep["rhs"]) <= 3.0 * rep["std_error"]

    def test_discrete_quadratic_variation(self, cov8):
        # sum over the partition of |dM|^2 has mean T * trace(Q)
        driver = MartingaleDriver("poisson", cov8, rate=5.0)
        n_paths, n_steps, dt = 2000, 16, 1.0 / 16
        totals = np.empty(n_paths)
        for p in range(n_paths):
            rng = path_rng(77, p)
            totals[p] = sum(
                float(np.sum(driver.increment_sampler(dt)(rng, 1)[0] ** 2)) for _ in range(n_steps)
            )
        se = np.std(totals, ddof=1) / np.sqrt(n_paths)
        assert abs(np.mean(totals) - cov8.trace) <= 3.0 * se
