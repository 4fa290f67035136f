import numpy as np
import pytest

from stochwave import (
    CubicGraph,
    JumpGraph,
    LinearGraph,
    PowerLawGraph,
    SignGraph,
    parse_graph,
)
from stochwave.graphs import _solve_monotone

ALL_GRAPHS = [
    LinearGraph(1.0),
    PowerLawGraph(3.0),
    PowerLawGraph(1.5),
    CubicGraph(),
    SignGraph(),
    JumpGraph(2.0),
]


def bisection_resolvent(graph, lam, x, tol=1e-13):
    """Independent oracle: bisect x in y + lam*beta(y) on [min(0,x), max(0,x)].

    Uses only the graph's section; never touches the Newton path under test.
    """
    lo, hi = min(0.0, x), max(0.0, x)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        sec_lo, sec_hi = graph.section(mid)
        if mid + lam * sec_lo - x > 0.0:
            hi = mid
        elif mid + lam * sec_hi - x < 0.0:
            lo = mid
        else:
            return mid
    return 0.5 * (lo + hi)


class TestResolventExamples:
    def test_linear_unit(self):
        assert LinearGraph(1.0).resolvent(1.0, 2.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("graph", ALL_GRAPHS)
    def test_zero_fixed_point(self, graph):
        for lam in (1e-3, 0.1, 1.0, 10.0):
            assert graph.resolvent(lam, 0.0) == 0.0

    def test_cubic_unit(self):
        # 1 + 1^3 = 2
        assert CubicGraph().resolvent(1.0, 2.0) == pytest.approx(1.0, abs=1e-13)

    def test_sign_soft_threshold(self):
        assert SignGraph().resolvent(0.5, 2.0) == pytest.approx(1.5, abs=1e-14)
        assert SignGraph().resolvent(0.5, 0.3) == 0.0
        assert SignGraph().resolvent(0.5, -2.0) == pytest.approx(-1.5, abs=1e-14)

    def test_cubic_against_bisection_value(self):
        # frozen from the bisection oracle at tol 1e-13: y + 0.3 y^3 = 1.7
        assert CubicGraph().resolvent(0.3, 1.7) == pytest.approx(
            1.1919556918121117, abs=1e-12
        )
        assert bisection_resolvent(CubicGraph(), 0.3, 1.7) == pytest.approx(
            1.1919556918121117, abs=1e-12
        )

    def test_jump_piecewise(self):
        g = JumpGraph(2.0)
        lam = 0.5
        # below 0, inside the dead zone [0, lam*a], above it
        assert g.resolvent(lam, -3.0) == pytest.approx(-2.0)
        assert g.resolvent(lam, 0.7) == 0.0
        assert g.resolvent(lam, 4.0) == pytest.approx((4.0 - 1.0) / 1.5)

    @pytest.mark.parametrize("graph", ALL_GRAPHS)
    def test_matches_bisection_on_scattered_points(self, graph):
        rng = np.random.default_rng(123)
        for _ in range(25):
            x = rng.uniform(-8, 8)
            lam = 10.0 ** rng.uniform(-2, 1)
            assert graph.resolvent(lam, x) == pytest.approx(
                bisection_resolvent(graph, lam, x), abs=5e-12
            )

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            CubicGraph().resolvent(0.0, 1.0)
        with pytest.raises(ValueError):
            CubicGraph().resolvent(-1.0, 1.0)

    def test_array_in_array_out(self):
        x = np.linspace(-4, 4, 11)
        y = CubicGraph().resolvent(0.2, x)
        assert y.shape == x.shape
        assert isinstance(CubicGraph().resolvent(0.2, 1.0), float)

    def test_warm_start_agrees_with_cold(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-5, 5, 200)
        x[::17] = 0.0  # exact zeros, where the p = 1.5 slope is infinite
        for graph in (CubicGraph(), PowerLawGraph(3.0), PowerLawGraph(1.5), PowerLawGraph(2.5)):
            cold = graph.resolvent(0.05, x)
            warm = graph.resolvent_warm(0.05, x, cold + rng.uniform(-1e-3, 1e-3, 200))
            np.testing.assert_allclose(warm, cold, atol=1e-12)
            # garbage and all-zero warm starts fall back to the safeguarded solve
            for y0 in (np.full_like(x, 1e6), np.zeros_like(x)):
                bad = graph.resolvent_warm(0.05, x, y0)
                np.testing.assert_allclose(bad, cold, atol=1e-12)


class TestClosedFormResolvents:
    """p = 2, 3, 4 evaluate an exact root instead of running Newton."""

    LAMS = 10.0 ** np.arange(-4, 4)

    @staticmethod
    def _points():
        rng = np.random.default_rng(17)
        x = np.concatenate(
            [rng.uniform(-10, 10, 500), rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-8, 6, 500)]
        )
        x[::50] = 0.0
        return np.append(x, [1e6, -1e6])

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_agrees_with_newton_and_solves_the_equation(self, p):
        graph = PowerLawGraph(p)
        x = self._points()
        tol = 1e-14 * (1.0 + np.abs(x))
        for lam in self.LAMS:
            y = graph.resolvent(lam, x)
            newton = _solve_monotone(graph._beta, graph._beta_prime, lam, x)
            assert np.all(np.abs(y - newton) <= tol)
            assert np.all(np.abs(y + lam * graph._beta(y) - x) <= tol)
            assert np.array_equal(graph.resolvent(lam, -x), -y)
            assert np.all(y[x == 0.0] == 0.0)
            assert np.array_equal(graph.resolvent_warm(lam, x, np.full_like(x, 1e6)), y)

    @staticmethod
    def textbook(p, lam, x):
        """The closed forms as plain expressions, the lambda work done at every call."""
        if p == 1.0:
            return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
        if p == 2.0:
            return x / (1.0 + lam)
        if p == 3.0:
            return 2.0 * x / (1.0 + np.sqrt(1.0 + 4.0 * lam * np.abs(x)))
        c = np.sqrt(3.0 * lam)
        return (2.0 / c) * np.sinh(np.arcsinh(1.5 * c * x) / 3.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
    def test_lambda_constants_taken_out_keep_the_textbook_bytes(self, p):
        """Per call and per stepper, at a float lam, a lambda column or a full table; bytes, so signed zeros count.

        np.sign(-0.0) is +0.0, so the soft threshold of -0.0 is +0.0, while an
        entry of x inside the threshold keeps its sign: np.copysign would
        differ on the first.  The zero rows are the nodal values of u0 = zero.
        """
        graph = PowerLawGraph(p)
        x = self._points()
        x[1::50] = -0.0
        x[2::50] = -1e-300
        x[3::50] = -1e-5
        # (rows, lambdas, points): a random row, and zero rows of both signs
        x = np.stack([x, np.zeros_like(x), -np.zeros_like(x)])[:, None].repeat(len(self.LAMS), axis=1)
        column = self.LAMS[:, None]
        expected = self.textbook(p, column, x).tobytes()
        assert (x == 0.0).any() and np.signbit(x[x == 0.0]).any()
        for lam in (column, np.broadcast_to(column, x.shape).copy()):
            assert graph._resolvent_at(lam, 2)(x, x).tobytes() == expected
            assert graph.resolvent_warm(lam, x, x, 2).tobytes() == expected
            assert graph._resolvent_impl(lam, x).tobytes() == expected
        for j, lam in enumerate(self.LAMS):
            row = x[0, j]
            assert graph.resolvent(lam, row).tobytes() == self.textbook(p, lam, row).tobytes()
            assert graph._resolvent_at(lam)(row, None).tobytes() == self.textbook(p, lam, row).tobytes()

    def test_named_graphs_are_the_same_power_laws(self):
        x = self._points()
        for lam in self.LAMS:
            assert np.array_equal(PowerLawGraph(4.0).resolvent(lam, x), CubicGraph().resolvent(lam, x))
            assert np.array_equal(PowerLawGraph(2.0).resolvent(lam, x), LinearGraph(1.0).resolvent(lam, x))

    def test_cubic_is_power_four_bit_for_bit(self):
        """Also the sign graph against p = 1; bytes, so the sign of a zero counts too."""
        x = np.random.default_rng(4).uniform(-5.0, 5.0, 100_000)
        x[::1000] = 0.0
        x[500::1000] = -0.0
        hint = x / 2.0

        def same(a, b):
            return np.asarray(a).tobytes() == np.asarray(b).tobytes()

        for named, name, power in (
            (CubicGraph(), "cubic", PowerLawGraph(4.0)),
            (SignGraph(), "sign", PowerLawGraph(1.0)),
            (parse_graph("sign"), "sign", PowerLawGraph(1.0)),
        ):
            assert named.name == name
            assert same(named.potential(x), power.potential(x))
            for a, b in zip(named.section(x), power.section(x)):
                assert same(a, b)
            for lam in self.LAMS:
                for method in ("resolvent", "yosida", "moreau"):
                    assert same(getattr(named, method)(lam, x), getattr(power, method)(lam, x))
                assert same(named.resolvent_warm(lam, x, hint), power.resolvent_warm(lam, x, hint))


class TestYosidaExamples:
    def test_linear(self):
        assert LinearGraph(1.0).yosida(1.0, 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_sign_inside_threshold(self):
        # |x| <= lam: resolvent is 0, so the map is x/lam
        assert SignGraph().yosida(0.5, 0.25) == pytest.approx(0.5, abs=1e-14)

    def test_cubic(self):
        assert CubicGraph().yosida(1.0, 2.0) == pytest.approx(1.0, abs=1e-13)


class TestMoreauExamples:
    def test_linear_quadratic(self):
        # min_y y^2/2 + (2-y)^2/2 attained at y=1 with value 1
        assert LinearGraph(1.0).moreau(1.0, 2.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("graph", ALL_GRAPHS)
    def test_zero_minimum(self, graph):
        assert graph.moreau(0.7, 0.0) == 0.0

    def test_sign_huber_value(self):
        # |x| <= lam: Huber regime x^2/(2 lam)
        assert SignGraph().moreau(0.5, 0.25) == pytest.approx(0.0625, abs=1e-14)


class TestSections:
    def test_sign_at_origin(self):
        assert SignGraph().section(0.0) == (-1.0, 1.0)

    def test_jump_fill_in(self):
        assert JumpGraph(2.0).section(0.0) == (0.0, 2.0)

    def test_cubic_singleton(self):
        assert CubicGraph().section(2.0) == (8.0, 8.0)

    @pytest.mark.parametrize("graph", ALL_GRAPHS)
    def test_ordering_between_points(self, graph):
        rng = np.random.default_rng(11)
        x = np.sort(rng.uniform(-5, 5, 100))
        lo, hi = graph.section(x)
        assert np.all(lo <= hi)
        assert np.all(hi[:-1] <= lo[1:] + 1e-12)


@pytest.mark.parametrize("graph", ALL_GRAPHS)
class TestConvexAnalysisProperties:
    """Random-triple invariants; the large acceptance sweep runs vectorized."""

    N = 4000

    def _triples(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-10, 10, self.N)
        y = rng.uniform(-10, 10, self.N)
        lam_groups = 10.0 ** rng.uniform(-3, 1, 8)
        return x, y, lam_groups

    def test_resolvent_contraction(self, graph):
        x, y, lams = self._triples(21)
        for lam in lams:
            jx, jy = graph.resolvent(lam, x), graph.resolvent(lam, y)
            assert np.all(np.abs(jx - jy) <= np.abs(x - y) + 1e-12)

    def test_yosida_lipschitz_and_monotone(self, graph):
        x, y, lams = self._triples(22)
        for lam in lams:
            bx, by = graph.yosida(lam, x), graph.yosida(lam, y)
            assert np.all(np.abs(bx - by) <= (2.0 / lam) * np.abs(x - y) + 1e-12)
            swap = x > y
            lo_v = np.where(swap, by, bx)
            hi_v = np.where(swap, bx, by)
            assert np.all(lo_v <= hi_v + 1e-10)

    def test_yosida_in_section_of_resolvent(self, graph):
        x, _, lams = self._triples(23)
        for lam in lams:
            j = graph.resolvent(lam, x)
            b = graph.yosida(lam, x)
            lo, hi = graph.section(j)
            assert np.all(b >= lo - 1e-10)
            assert np.all(b <= hi + 1e-10)

    def test_envelope_bounds_and_lambda_monotonicity(self, graph):
        x, _, lams = self._triples(24)
        for lam in lams:
            m = graph.moreau(lam, x)
            assert np.all(m >= -1e-14)
            assert np.all(m <= graph.potential(x) + 1e-10)
            assert np.all(graph.moreau(lam / 2.0, x) >= m - 1e-10)

    def test_envelope_derivative_is_yosida(self, graph):
        x, _, lams = self._triples(25)
        h = 1e-5
        for lam in lams:
            fd = (graph.moreau(lam, x + h) - graph.moreau(lam, x - h)) / (2 * h)
            tol = (2.0 / lam) * h + 1e-8
            assert np.all(np.abs(fd - graph.yosida(lam, x)) <= tol)


class TestParseGraph:
    def test_round_trips(self):
        assert isinstance(parse_graph("cubic"), CubicGraph)
        assert isinstance(parse_graph("sign"), SignGraph)
        assert parse_graph("linear:2.5").c == 2.5
        assert parse_graph("linear").c == 1.0
        assert parse_graph("power:3").p == 3.0
        assert parse_graph("jump:2").a == 2.0

    def test_bad_specs(self):
        for bad in (
            "quartic",
            "power:0.5",
            "jump:-1",
            "linear:-2",
            "power:abc",
            "power:nan",
            "power:inf",
            "linear:nan",
            "jump:nan",
        ):
            with pytest.raises(ValueError):
                parse_graph(bad)

    def test_power_one_is_sign_graph(self):
        g = PowerLawGraph(1.0)
        assert g.resolvent(0.5, 2.0) == pytest.approx(1.5)
        assert g.resolvent(0.5, 0.2) == 0.0
        assert g.section(0.0) == (-1.0, 1.0)
