import numpy as np
import pytest

from stochwave import DiffusionMap, SpectralGrid
from stochwave.graphs import LinearGraph
from stochwave.solver import GroupCache, _drift, _row_dots


@pytest.fixture(scope="module")
def grid64():
    return SpectralGrid(1, 64)


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SpectralGrid(3, 8)
        with pytest.raises(ValueError):
            SpectralGrid(1, 0)

    def test_eigenvalues_strictly_positive(self):
        for grid in (SpectralGrid(1, 16), SpectralGrid(2, 8)):
            assert np.all(grid.mu >= 1.0)

    def test_eigenvalues_2d(self):
        grid = SpectralGrid(2, 4)
        assert grid.mu[0, 0] == 2.0  # 1^2 + 1^2
        assert grid.mu[2, 1] == 13.0  # 3^2 + 2^2


class TestTransforms:
    def test_first_mode_is_normalized_sine(self, grid64):
        nodal = grid64.to_nodes(grid64.basis_field(1))
        expected = np.sqrt(2.0 / np.pi) * np.sin(grid64.nodes_1d)
        np.testing.assert_allclose(nodal, expected, atol=1e-14)

    def test_round_trip_random(self, grid64):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(grid64.shape)
        np.testing.assert_allclose(grid64.to_nodes(grid64.to_modes(f)), f, atol=1e-12)

    def test_nodal_sine_recovers_unit_mode(self):
        grid = SpectralGrid(1, 3)
        nodal = np.sqrt(2.0 / np.pi) * np.sin(2.0 * grid.nodes_1d)
        np.testing.assert_allclose(grid.to_modes(nodal), [0.0, 1.0, 0.0], atol=1e-14)

    def test_round_trip_2d(self):
        grid = SpectralGrid(2, 12)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(grid.shape)
        np.testing.assert_allclose(grid.to_nodes(grid.to_modes(f)), f, atol=1e-12)

    def test_parseval(self, grid64):
        rng = np.random.default_rng(2)
        for _ in range(5):
            nodal = rng.standard_normal(grid64.shape)
            assert grid64.norm(grid64.to_modes(nodal)) == pytest.approx(
                np.sqrt(grid64.weight * np.sum(nodal**2)), abs=1e-12
            )

    def test_shape_mismatch(self, grid64):
        with pytest.raises(ValueError):
            grid64.to_modes(np.zeros(63))
        with pytest.raises(ValueError):
            grid64.to_nodes(np.zeros((64, 64)))


class TestStackedArithmetic:
    """The BLAS facts the block kernel rests on: a stack of fields gets each field's own bits."""

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("rows", [1, 2, 3, 19, 32, 64, 1000])
    @pytest.mark.parametrize("offset", [0, 1, 5])
    def test_stacked_gemm_rows_are_the_per_field_transform(self, n, rows, offset):
        # each row of rows @ matrix has the bits of a lone field padded to 2 rows;
        # rows @ matrix.T would not from 19 rows at N = 64
        grid = SpectralGrid(1, n)
        x = np.random.default_rng(rows).standard_normal((offset + rows, n))[offset:]
        pad = np.zeros((2, n))
        cases = ((grid._nodes(x), grid.to_nodes, grid._synthesis), (grid._modes(x), grid.to_modes, grid._analysis))
        for stacked, single, matrix in cases:
            assert stacked.shape == x.shape
            for row, field in zip(stacked, x):
                pad[0] = field
                assert row.tobytes() == single(field).tobytes() == (pad @ matrix)[0].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 255])
    def test_sine_matrices_are_bitwise_symmetric(self, n):
        # so rows @ matrix is the transform matrix @ field of every row
        grid = SpectralGrid(1, n)
        for matrix in (grid._synthesis, grid._analysis):
            assert matrix.tobytes() == matrix.T.copy().tobytes()

    def test_a_lone_field_gets_a_new_array_that_later_calls_leave_alone(self):
        grid = SpectralGrid(1, 8)
        f, g = np.random.default_rng(9).standard_normal((2, 8))
        first = grid.to_nodes(f)
        kept = first.copy()
        for later in (grid.to_nodes(g), grid.to_modes(g), grid._nodes(g[None, None])):
            assert not np.shares_memory(first, later)
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, grid._pad)
        one_row = grid._nodes(f[None, None])
        assert one_row.shape == (1, 1, 8) and one_row[0, 0].tobytes() == kept.tobytes()

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("rows", [1, 3, 32])
    def test_stacked_2d_products_are_the_per_slice_products(self, n, rows):
        grid = SpectralGrid(2, n)
        x = np.random.default_rng(rows).standard_normal((rows, n, n))
        s = grid._synthesis
        for row, field in zip(grid._nodes(x), x):
            assert row.tobytes() == (s @ field @ s).tobytes()
            assert row.tobytes() == grid.to_nodes(field).tobytes()

    @pytest.mark.parametrize("dim, n", [(1, 8), (1, 64), (2, 8), (2, 64)])
    @pytest.mark.parametrize("rows", [1, 3, 32])
    def test_batched_row_dots_are_vdot(self, dim, n, rows):
        rng = np.random.default_rng(rows)
        a, b = rng.standard_normal((2, rows, 1) + (n,) * dim)
        dots = _row_dots(a, b)
        assert dots.shape == (rows, 1)
        for dot, x, y in zip(dots[:, 0], a[:, 0], b[:, 0]):
            assert dot.tobytes() == np.vdot(x, y).tobytes()

    @pytest.mark.parametrize("dim, n", [(1, 8), (1, 64), (2, 8), (2, 32)])
    @pytest.mark.parametrize("lead", [(1, 1), (2, 3), (3, 2, 4)])
    def test_row_dots_with_a_broadcast_weight_are_vdot(self, dim, n, lead):
        rng = np.random.default_rng(len(lead))
        weight = rng.standard_normal((n,) * dim)
        x = rng.standard_normal(lead + (n,) * dim)
        stacked = weight[(None,) * len(lead)]
        assert stacked.shape[: len(lead)] == (1,) * len(lead)
        dots = _row_dots(stacked, x, len(lead))
        assert dots.shape == lead
        for dot, field in zip(dots.reshape(-1), x.reshape(-1, *weight.shape)):
            assert dot.tobytes() == np.vdot(weight, field).tobytes()
        for dot, field in zip(_row_dots(x, x, len(lead)).reshape(-1), x.reshape(-1, *weight.shape)):
            assert dot.tobytes() == np.vdot(field, field).tobytes()

    @pytest.mark.parametrize("dim, n", [(1, 8), (1, 64), (2, 8), (2, 32), (2, 64)])
    @pytest.mark.parametrize("rows", [(1, 1), (2, 3), (4, 1)])
    def test_stacked_abs_sums_over_the_grid_axes_are_the_per_field_sums(self, dim, n, rows):
        grid = SpectralGrid(dim, n)
        x = np.random.default_rng(n).standard_normal(rows + grid.shape)
        sums = np.abs(grid._nodes(x)).sum(axis=tuple(range(-dim, 0)))
        assert sums.shape == rows
        for total, field in zip(sums.reshape(-1), x.reshape(-1, *grid.shape)):
            assert total.tobytes() == np.abs(grid.to_nodes(field)).sum().tobytes()

    @pytest.mark.parametrize("steps", [1, 7, 125, 1000, 9000])
    @pytest.mark.parametrize("rows", [(1, 1), (2, 3), (4, 1)])
    def test_last_axis_max_and_sum_are_the_1d_calls(self, steps, rows):
        # per-step norms are written column by column into a contiguous array
        norms = np.zeros(rows + (steps,))
        values = np.random.default_rng(steps).standard_normal(rows + (steps,)) ** 2
        for k in range(steps):
            norms[..., k] = values[..., k]
        assert norms.flags.c_contiguous
        for reduced, reduce_1d in ((norms.max(axis=-1), np.max), (norms.sum(axis=-1), np.sum)):
            for total, row in zip(reduced.reshape(-1), norms.reshape(-1, steps)):
                assert total.tobytes() == reduce_1d(row.copy()).tobytes()


class TestSpectralMultipliers:
    def test_eigenvalue_multiplication(self, grid64):
        out = grid64.mu * grid64.basis_field(3)
        assert out[2] == pytest.approx(9.0)
        assert np.sum(np.abs(out)) == pytest.approx(9.0)

    def test_elliptic_smoother_scale(self, grid64):
        np.testing.assert_allclose(grid64.smoother(1.0), 1.0 / (1.0 + grid64.mu))
        with pytest.raises(ValueError):
            grid64.smoother(-1e-3)


    def test_full_period_cosine_is_identity(self, grid64):
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal((2,) + grid64.shape)
        # integer frequencies: the wave group over t = 2 pi is the identity on every mode
        cache = GroupCache(grid64, 2.0 * np.pi)
        np.testing.assert_allclose(cache.cos_t, 1.0, atol=1e-11)
        u_out, v_out = cache.rotate(u, v)
        np.testing.assert_allclose(u_out, u, atol=1e-11)
        np.testing.assert_allclose(v_out, v, atol=1e-9)

    def test_diagonal_composition_and_commutation(self, grid64):
        rng = np.random.default_rng(4)
        u, v = rng.standard_normal((2,) + grid64.shape)
        dt = 0.0173
        one_shot = GroupCache(grid64, 2.0 * dt).rotate(u, v)
        half = GroupCache(grid64, dt)
        two_step = half.rotate(*half.rotate(u, v))
        for a, b in zip(two_step, one_shot):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12 * np.max(np.abs(b)))
        # the smoother is diagonal in the same basis, so it commutes with the group
        s = grid64.smoother(0.5)
        smoothed_first = half.rotate(s * u, s * v)
        smoothed_last = half.rotate(u, v)
        for a, b in zip(smoothed_first, smoothed_last):
            np.testing.assert_allclose(a, s * b, rtol=0.0, atol=1e-14 * np.max(np.abs(b)))


class TestNorms:
    def test_single_mode_l2(self, grid64):
        assert grid64.norm(grid64.basis_field(1)) == 1.0

    def test_single_mode_sobolev(self, grid64):
        # |u|_{H^1}^2 = |u|_{L2}^2 + |grad u|_{L2}^2
        f = grid64.basis_field(1)
        assert np.hypot(grid64.norm(f), grid64.grad_seminorm(f)) == pytest.approx(np.sqrt(2.0))

    def test_gradient_seminorm(self, grid64):
        assert grid64.grad_seminorm(3.0 * grid64.basis_field(2)) == pytest.approx(6.0)

    def test_negative_order_norms_decay(self, grid64):
        # |u|_{H^-m} = |(I - Laplacian)^{-m/2} u|_{L2}, through the smoother table
        f = grid64.basis_field(8)
        s = grid64.smoother(1.0)
        assert grid64.norm(s * f) < grid64.norm(np.sqrt(s) * f) < grid64.norm(f)


class TestNemytskii:
    """Pointwise maps of a field, taken at the nodes and projected back onto the modes."""

    @staticmethod
    def _yosida_modes(grid, c, slope, lam=0.5):
        return _drift(grid, LinearGraph(slope)._yosida_at(lam), c, None, None)[3]

    def test_identity(self, grid64):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(grid64.shape)
        # the Yosida map of beta(x) = x is x / (1 + lam), a multiple of the identity
        np.testing.assert_allclose(self._yosida_modes(grid64, c, 1.0), c / 1.5, atol=1e-12)

    def test_zero_map(self, grid64):
        c = np.ones(grid64.shape)
        assert np.all(self._yosida_modes(grid64, c, 0.0) == 0.0)

    def test_square_of_first_mode_preserves_quadrature_norm(self, grid64):
        # e_1 stays below 1 at the nodes, so clip(e_1) * e_1 is e_1^2;
        # direct quadrature oracle for |e_1^2|_{L2}
        e1 = grid64.basis_field(1)
        nodal = grid64.to_nodes(e1)
        assert np.max(np.abs(nodal)) < 1.0
        oracle = np.sqrt(grid64.weight * np.sum(nodal**4))
        out = DiffusionMap.from_name("clip").apply(grid64, nodal, e1)
        assert grid64.norm(out) == pytest.approx(oracle, abs=1e-12)

    def test_2d_identity(self):
        grid = SpectralGrid(2, 8)
        rng = np.random.default_rng(6)
        c = rng.standard_normal(grid.shape)
        np.testing.assert_allclose(self._yosida_modes(grid, c, 1.0), c / 1.5, atol=1e-12)
