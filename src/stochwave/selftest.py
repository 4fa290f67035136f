"""Built-in invariant battery behind the `selftest` CLI subcommand.

A compact, deterministic sweep over the module invariants: convex-analysis
properties of the graphs, spectral identities, driver statistics, and the
solver's structural identities.  Prints one line per check.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .graphs import CubicGraph, JumpGraph, LinearGraph, PowerLawGraph, SignGraph
from .noise import DiffusionMap, MartingaleDriver, NuclearCovariance, ito_isometry_check, path_rng
from .solver import (
    SolverConfig,
    chain_rule_check,
    duhamel_residual,
    energy,
    ibp_residual,
    simulate_path,
)
from .spectral import SpectralGrid

SELFTEST_GRAPHS = (
    LinearGraph(1.0),
    PowerLawGraph(3.0),
    CubicGraph(),
    SignGraph(),
    JumpGraph(2.0),
    PowerLawGraph(2.5),  # no closed form: keeps the safeguarded Newton covered
)


def _graph_invariants(graph, n=10_000, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10.0, 10.0, n)
    y = rng.uniform(-10.0, 10.0, n)
    lam = 10.0 ** rng.uniform(-3, 1, n)
    jx, jy = np.empty(n), np.empty(n)
    bx, by = np.empty(n), np.empty(n)
    for i in range(n):  # scalar API on purpose; vectorized paths are tested elsewhere
        jx[i] = graph.resolvent(lam[i], x[i])
        jy[i] = graph.resolvent(lam[i], y[i])
        bx[i] = graph.yosida(lam[i], x[i])
        by[i] = graph.yosida(lam[i], y[i])
    checks = []
    checks.append(np.all(np.abs(jx - jy) <= np.abs(x - y) + 1e-12))
    checks.append(np.all(np.abs(bx - by) <= (2.0 / lam) * np.abs(x - y) + 1e-12))
    checks.append(np.all(np.where(x <= y, bx <= by + 1e-10, by <= bx + 1e-10)))
    lo, hi = graph.section(jx)
    checks.append(np.all((bx >= lo - 1e-10) & (bx <= hi + 1e-10)))
    m = np.array([graph.moreau(lam[i], x[i]) for i in range(n)])
    checks.append(np.all(m >= -1e-14) and np.all(m <= graph.potential(x) + 1e-10))
    return all(bool(c) for c in checks)


def _run(checks, out):
    failures = 0
    for name, fn in checks:
        try:
            ok = fn()
        except Exception as exc:  # a crash is a failure, keep going
            ok = False
            out(f"FAIL - {name} (raised {type(exc).__name__}: {exc})")
        else:
            out(("ok   - " if ok else "FAIL - ") + name)
        failures += 0 if ok else 1
    return failures


def run_selftest(out=print) -> int:
    """Run the invariant suite; returns the number of failed checks."""
    grid = SpectralGrid(1, 32)
    cov = NuclearCovariance.from_grid(grid, 1.0, 2.0)
    wiener = MartingaleDriver("wiener", cov)
    poisson = MartingaleDriver("poisson", cov, rate=5.0)
    config = SolverConfig(
        grid=grid,
        graph=CubicGraph(),
        lam=1e-2,
        dt=2e-3,
        t_final=0.5,
        driver=wiener,
        diffusion=DiffusionMap.from_name("clip"),
        u0="smooth:6",
        seed=2024,
    )

    def graphs_ok():
        return all(_graph_invariants(g, n=4000) for g in SELFTEST_GRAPHS)

    def parseval_ok():
        rng = np.random.default_rng(0)
        f = rng.standard_normal(grid.shape)
        modes = grid.to_modes(f)
        round_trip = np.max(np.abs(grid.to_nodes(modes) - f)) < 1e-12
        parseval = abs(grid.norm(modes) - grid.quad_l2(f)) < 1e-12
        return round_trip and parseval

    def diagonal_composition_ok():
        rng = np.random.default_rng(1)
        c = rng.standard_normal(grid.shape)
        a = grid.apply_spectral(grid.apply_spectral(c, np.sqrt), np.log1p)
        b = grid.apply_spectral(c, lambda mu: np.sqrt(mu) * np.log1p(mu))
        return np.allclose(a, b, rtol=1e-15, atol=0.0)

    def rotation_identity_ok():
        from .solver import GroupCache

        cache = GroupCache(grid, 0.37)
        return np.max(np.abs(cache.cos_t**2 + grid.mu * cache.sinc**2 - 1.0)) < 1e-14

    def linear_energy_ok():
        cfg = replace(config, graph=LinearGraph(0.0), driver=None, record=frozenset())
        result = simulate_path(cfg, 0)
        e0 = energy(grid, result.u_first, result.v_first)
        return abs(energy(grid, result.u_final, result.v_final) - e0) <= 1e-12 * e0

    def increment_stats_ok():
        rng = path_rng(11, 0)
        n, dt = 20_000, 0.01
        draws = wiener.increment_sampler(dt)(rng, n)[:, 0]
        se = np.sqrt(cov.q[0] * dt / n)
        mean_ok = abs(draws.mean()) <= 3 * se
        var_se = np.std(draws**2, ddof=1) / np.sqrt(n)
        var_ok = abs(np.mean(draws**2) - cov.q[0] * dt) <= 3 * var_se
        return mean_ok and var_ok

    def increment_determinism_ok():
        draw = wiener.increment_sampler(0.5)
        return np.array_equal(draw(path_rng(3, 9)), draw(path_rng(3, 9)))

    def isometry_ok():
        for driver in (wiener, poisson):
            rep = ito_isometry_check(driver, 1.0, 1, 2000, 5)
            if abs(rep["lhs_estimate"] - rep["rhs"]) > 3 * rep["std_error"]:
                return False
        return True

    def duhamel_ok():
        return duhamel_residual(config, 0) <= 1e-9

    def ibp_ok():
        rng = np.random.default_rng(4)
        probes = [(rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)) for _ in range(3)]
        return ibp_residual(config, probes, 0) <= 1e-12

    def chain_rule_ok():
        gaps = []
        for dt in (4e-3, 2e-3):
            cfg = replace(config, dt=dt, driver=None, record=frozenset())
            gaps.append(chain_rule_check(simulate_path(cfg, 0), cfg)["gap"])
        return gaps[1] < gaps[0]

    def coupled_noise_ok():
        draws = {1e-1: [], 1e-3: []}
        for lam, seen in draws.items():
            simulate_path(replace(config, lam=lam, record=frozenset()), 3, lambda k, u, v, b, dm: seen.append(dm))
        return np.array_equal(draws[1e-1], draws[1e-3])

    checks = [
        ("graph convex-analysis invariants", graphs_ok),
        ("spectral round trip and Parseval", parseval_ok),
        ("diagonal operators commute", diagonal_composition_ok),
        ("group rotation identity", rotation_identity_ok),
        ("linear flow conserves energy", linear_energy_ok),
        ("increment mean/variance statistics", increment_stats_ok),
        ("increment stream determinism", increment_determinism_ok),
        ("second-moment identity (both drivers)", isometry_ok),
        ("mild-form re-summation residual", duhamel_ok),
        ("integration-by-parts telescoping", ibp_ok),
        ("envelope chain-rule gap shrinks with dt", chain_rule_ok),
        ("coupled noise streams bit-identical", coupled_noise_ok),
    ]
    return _run(checks, out)
