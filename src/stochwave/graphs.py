"""Scalar maximal monotone graphs: resolvents, Yosida maps, Moreau envelopes.

Each graph is the subdifferential of a nonnegative convex potential with
``potential(0) == 0``, so ``0`` always belongs to the graph at ``0``.  All
evaluation methods accept scalars or numpy arrays and are pure functions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError

__all__ = [
    "MonotoneGraph",
    "LinearGraph",
    "PowerLawGraph",
    "CubicGraph",
    "SignGraph",
    "JumpGraph",
    "parse_graph",
]

_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 200


def _as_float_array(x):
    a = np.asarray(x, dtype=float)
    return a, (a.ndim == 0)


def _checked_lam(lam):
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and positive, got {lam}")
    return float(lam)


def _solve_monotone(beta, beta_prime, lam, x):
    """Solve y + lam*beta(y) = x elementwise by safeguarded Newton.

    The root has the sign of x and |y| <= |x|, so [min(0,x), max(0,x)] is a
    valid bracket.  Bisection takes over whenever a Newton step leaves the
    bracket or stalls.
    """
    lo = np.minimum(0.0, x)
    hi = np.maximum(0.0, x)
    y = x / (1.0 + lam)
    done = np.zeros(x.shape, dtype=bool)
    tol = _NEWTON_TOL * (1.0 + np.abs(x))
    for _ in range(_NEWTON_MAX_ITER):
        f = y + lam * beta(y) - x
        lo = np.where(~done & (f < 0.0), y, lo)
        hi = np.where(~done & (f > 0.0), y, hi)
        done |= (np.abs(f) <= tol) | (hi - lo <= tol)
        if done.all():
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            y_new = y - f / (1.0 + lam * beta_prime(y))
        reject = ~np.isfinite(y_new) | (y_new <= lo) | (y_new >= hi) | (y_new == y)
        y = np.where(done, y, np.where(reject, 0.5 * (lo + hi), y_new))
    else:
        f = y + lam * beta(y) - x
        if np.any(np.abs(f) > 1e-9 * (1.0 + np.abs(x))):
            raise NumericError("resolvent iteration failed to converge")
    # Two plain Newton polish steps push the residual to round-off level;
    # needed so that yosida values sit inside the graph section to ~1e-15.
    for _ in range(2):
        f = y + lam * beta(y) - x
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / (1.0 + lam * beta_prime(y))
        y = np.where(np.isfinite(step), y - step, y)
    return y


def _soft_threshold(lam):
    def solve(x):
        # np.sign(-0.0) is +0.0, so a zero result takes the sign of x only
        # inside the threshold (np.copysign would differ there)
        t = np.abs(x)
        t -= lam
        return np.sign(x) * np.maximum(t, 0.0)

    return solve


def _resolvent_p2(lam):
    k = 1.0 + lam
    return lambda x: x / k


def _resolvent_p3(lam):
    # y = sign(x)*s with lam*s^2 + s = |x|, the root written without
    # cancellation: 2x / (1 + sqrt(1 + 4 lam |x|))
    k = 4.0 * lam

    def solve(x):
        t = np.abs(x)
        t *= k
        t += 1.0
        t = np.sqrt(t)
        t += 1.0
        return 2.0 * x / t

    return solve


def _resolvent_p4(lam):
    # the one real root of lam*y^3 + y - x = 0, in hyperbolic form:
    # (2/c) sinh(arcsinh(1.5 c x) / 3) with c = sqrt(3 lam)
    c = np.sqrt(3.0 * lam)
    a, b = 1.5 * c, 2.0 / c

    def solve(x):
        y = np.arcsinh(a * x)
        y /= 3.0
        y = np.sinh(y)
        y *= b
        return y

    return solve


# exact resolvents of the power law |y|^(p-1) sign(y), keyed by p: form(lam)
# does the work that depends on lam alone and returns solve(x), so that a time
# stepper does that work once per run.  lam is a float, or an array that
# broadcasts against x without growing it.  Every operation is the textbook
# formula's, in its order, so the bits are the same.
_CLOSED_FORMS = {1.0: _soft_threshold, 2.0: _resolvent_p2, 3.0: _resolvent_p3, 4.0: _resolvent_p4}


class MonotoneGraph:
    """A maximal monotone graph on the real line, beta = subdifferential of j."""

    name = "monotone"

    def potential(self, x):
        """Convex potential j with j >= 0 and j(0) = 0."""
        raise NotImplementedError

    def section(self, x):
        """The set beta(x) as a closed interval (lo, hi); singleton a.e."""
        a, scalar = _as_float_array(x)
        lo, hi = self._section_impl(a)
        if scalar:
            return float(lo), float(hi)
        return lo, hi

    def _section_impl(self, x):
        raise NotImplementedError

    def resolvent(self, lam, x):
        """(I + lam*beta)^{-1} x: the unique y with x in y + lam*beta(y)."""
        a, scalar = _as_float_array(x)
        y = self._resolvent_impl(_checked_lam(lam), a)
        return float(y) if scalar else y

    def _resolvent_impl(self, lam, x):
        raise NotImplementedError

    def _resolvent_at(self, lam, batch_ndim=0):
        """``resolve(x, y0)``: the resolvent at a fixed lam of trusted array input.

        A time stepper builds it once per run and calls it once per step,
        with the previous step's resolvent as the hint y0 (None at the first
        step); a graph whose resolvent has work that depends on lam alone
        does that work here, once.  The first ``batch_ndim`` axes of x index
        a stack of fields, and lam is a float or an array that broadcasts
        against x.  This default ignores the hint.
        """
        return lambda x, y0: self._resolvent_impl(lam, x)

    def _yosida_at(self, lam, batch_ndim=0):
        """``yosida(x, y0, out) -> (yos, res)``: ``_resolvent_at``'s counterpart for the Yosida map.

        yos goes into ``out`` (an array of x's shape, or None for a new one).
        This default is ``(x - res) / lam`` with ``res = resolve(x, y0)``, the
        next step's hint.  A map that takes no resolvent returns res None.
        """
        resolve = self._resolvent_at(lam, batch_ndim)

        def yosida(x, y0, out=None):
            res = resolve(x, y0)
            return np.divide(np.subtract(x, res, out=out), lam, out=out), res

        return yosida

    def yosida(self, lam, x):
        """(x - resolvent(lam, x)) / lam: Lipschitz single-valued surrogate."""
        a, scalar = _as_float_array(x)
        out = self._yosida_at(_checked_lam(lam))(a, None, np.empty(a.shape))[0]
        return float(out) if scalar else out

    def moreau(self, lam, x):
        """inf_y j(y) + (x-y)^2/(2 lam); the infimum sits at y = resolvent."""
        a, scalar = _as_float_array(x)
        y = self.resolvent(lam, a)
        out = self.potential(y) + 0.5 * lam * ((a - y) / lam) ** 2
        return float(out) if scalar else out

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


class LinearGraph(MonotoneGraph):
    """beta(x) = c*x with c >= 0 (c = 0 turns the nonlinearity off)."""

    def __init__(self, c=1.0):
        if not 0.0 <= c < math.inf:
            raise ValueError(f"linear slope must be finite and nonnegative, got {c}")
        self.c = float(c)
        self.name = f"linear:{self.c:g}"

    def potential(self, x):
        return 0.5 * self.c * np.square(x)

    def _section_impl(self, x):
        v = self.c * x
        return v, v

    def _resolvent_impl(self, lam, x):
        return x / (1.0 + lam * self.c)


class PowerLawGraph(MonotoneGraph):
    """beta(x) = |x|^(p-1) * sign(x) with p >= 1; p = 1 is the sign graph.

    For p in {1, 2, 3, 4} the resolvent equation is piecewise linear, linear,
    quadratic or cubic in |y|, and both ``resolvent`` and ``_resolvent_at``
    evaluate its exact root.  Any other p has no closed form: cold solves run
    the safeguarded Newton of ``_solve_monotone`` and hinted solves run plain
    Newton from the hint.
    """

    def __init__(self, p):
        if not 1.0 <= p < math.inf:
            raise ValueError(f"power exponent must be finite and >= 1, got {p}")
        self.p = float(p)
        self.name = f"power:{self.p:g}"
        self._closed_form = _CLOSED_FORMS.get(self.p)

    def potential(self, x):
        return np.abs(x) ** self.p / self.p

    def _section_impl(self, x):
        if self.p == 1.0:
            s = np.sign(x)
            return np.where(x == 0.0, -1.0, s), np.where(x == 0.0, 1.0, s)
        v = self._beta(x)
        return v, v

    def _beta(self, y):
        return np.abs(y) ** (self.p - 1.0) * np.sign(y)

    def _beta_prime(self, y):
        with np.errstate(divide="ignore", over="ignore"):
            return (self.p - 1.0) * np.abs(y) ** (self.p - 2.0)

    def _resolvent_impl(self, lam, x):
        if self._closed_form is not None:
            return self._closed_form(lam)(x)
        return _solve_monotone(self._beta, self._beta_prime, lam, x)

    def _resolvent_at(self, lam, batch_ndim=0):
        """The closed form if there is one, else three plain Newton steps from the hint.

        The closed form ignores the hint.  Without a hint, Newton's place is
        taken by the cold solver.  A warm start within O(dt) of the root
        makes plain Newton machine-accurate in three quadratic steps; if any
        entry's residual misses, the whole field goes through the
        safeguarded cold solver.  With ``batch_ndim`` leading stack axes
        that is decided per field, and each field gets the bits it gets
        alone: the cold solver works entry by entry.
        """
        if self._closed_form is not None:
            solve = self._closed_form(lam)
            return lambda x, y0: solve(x)

        def resolve(x, y0):
            if y0 is None:
                return self._resolvent_impl(lam, x)
            y = y0
            for _ in range(3):
                y = y - (y + lam * self._beta(y) - x) / (1.0 + lam * self._beta_prime(y))
            f = y + lam * self._beta(y) - x
            # a NaN residual fails the comparison and so also falls back
            close = np.abs(f) <= 1e-12 * (1.0 + np.abs(x))
            if batch_ndim == 0:
                return y if np.all(close) else self._resolvent_impl(lam, x)
            cold = ~close.reshape(*x.shape[:batch_ndim], -1).all(axis=-1)
            if cold.any():
                # lam may be a column of a stack's lambdas or a table at x's shape
                y[cold] = self._resolvent_impl(np.broadcast_to(lam, x.shape)[cold], x[cold])
            return y

        return resolve

    def _yosida_at(self, lam, batch_ndim=0):
        """For p = 1, beta_lam = beta(J_lam x) = clip(x/lam, -1, 1), else the default.

        (Brezis, Operateurs maximaux monotones, Prop. 2.6.)  It takes no
        resolvent and cancels nothing, so every value lies in [-1, 1]
        exactly; both clips keep a NaN for the blow-up guard.
        """
        if self.p != 1.0:
            return super()._yosida_at(lam, batch_ndim)

        def yosida(x, y0, out=None):
            yos = np.divide(x, lam, out=out)
            np.maximum(yos, -1.0, out=yos)
            return np.minimum(yos, 1.0, out=yos), None

        return yosida


class CubicGraph(PowerLawGraph):
    """beta(x) = x^3, the classic defocusing cubic nonlinearity (power law p = 4).

    It is ``PowerLawGraph(4)`` under another name: potential, section and
    resolvent are that graph's, so both agree bit for bit.
    """

    def __init__(self):
        super().__init__(4.0)
        self.name = "cubic"


class SignGraph(PowerLawGraph):
    """beta = subdifferential of |x|: the sign graph with [-1, 1] at 0.

    It is ``PowerLawGraph(1)`` under another name, the way ``CubicGraph`` is
    p = 4, so both agree bit for bit.
    """

    def __init__(self):
        super().__init__(1.0)
        self.name = "sign"


class JumpGraph(MonotoneGraph):
    """beta(x) = x + a*H(x) with jump a > 0 at the origin, fill-in [0, a].

    Potential j(x) = x^2/2 + a*max(x, 0), whose subdifferential is exactly
    this graph.
    """

    def __init__(self, a):
        if not 0.0 < a < math.inf:
            raise ValueError(f"jump size must be finite and positive, got {a}")
        self.a = float(a)
        self.name = f"jump:{self.a:g}"

    def potential(self, x):
        a = np.asarray(x, dtype=float)
        return 0.5 * np.square(a) + self.a * np.maximum(a, 0.0)

    def _section_impl(self, x):
        lo = np.where(x > 0.0, x + self.a, x)
        hi = np.where(x < 0.0, x, x + self.a)
        return lo, hi

    def _resolvent_impl(self, lam, x):
        neg = x / (1.0 + lam)
        pos = (x - lam * self.a) / (1.0 + lam)
        return np.where(x < 0.0, neg, np.where(x > lam * self.a, pos, 0.0))


def parse_graph(spec: str) -> MonotoneGraph:
    """Build a graph from a config token: cubic | linear:c | power:p | sign | jump:a."""
    head, sep, arg = spec.strip().partition(":")
    head = head.lower()
    if head == "cubic" and not sep:
        return CubicGraph()
    if head == "sign" and not sep:
        return SignGraph()
    try:
        if head == "linear":
            return LinearGraph(float(arg) if sep else 1.0)
        if head == "power":
            return PowerLawGraph(float(arg))
        if head == "jump":
            return JumpGraph(float(arg))
    except ValueError as exc:
        raise ValueError(f"graph.kind: bad graph spec {spec!r}: {exc}") from None
    raise ValueError(f"graph.kind: unknown graph kind {spec!r}")
