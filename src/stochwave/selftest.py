"""The invariants behind the `selftest` CLI subcommand and the acceptance suite.

Each invariant has one function, here or beside the code it checks
(``duhamel_residual``, ``ibp_residual``, ``ito_isometry_check``), that
returns the number its criterion bounds; the caller applies the bound.
``run_selftest`` calls each at a small size and prints one line per check;
the acceptance tests call the same functions at their own sizes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .graphs import CubicGraph, JumpGraph, LinearGraph, PowerLawGraph, SignGraph
from .noise import DiffusionMap, MartingaleDriver, NuclearCovariance, ito_isometry_check, path_rng
from .solver import (
    GroupCache,
    SolverConfig,
    chain_rule_check,
    duhamel_residual,
    ibp_residual,
    simulate_path,
)
from .spectral import SpectralGrid

__all__ = ["run_selftest", "GRAPHS", "convex_analysis_holds", "free_wave_energy_drift", "chain_rule_order"]

GRAPHS = (
    LinearGraph(1.0),
    PowerLawGraph(3.0),
    CubicGraph(),
    SignGraph(),
    JumpGraph(2.0),
    PowerLawGraph(2.5),  # no closed form: keeps the safeguarded Newton covered
)


def convex_analysis_holds(graph, lam, x, y) -> bool:
    """Whether the resolvent, Yosida map and Moreau envelope at lam pass on the pairs (x, y).

    The resolvent is a contraction, the Yosida map is 2/lam-Lipschitz,
    monotone and in the graph's section at the resolvent, and the envelope
    lies between 0 and the potential.
    """
    jx = graph.resolvent(lam, x)
    jy = graph.resolvent(lam, y)
    bx = graph.yosida(lam, x)
    by = graph.yosida(lam, y)
    swap = x > y
    lo, hi = graph.section(jx)
    m = graph.moreau(lam, x)
    return bool(
        np.all(np.abs(jx - jy) <= np.abs(x - y) + 1e-12)
        and np.all(np.abs(bx - by) <= (2.0 / lam) * np.abs(x - y) + 1e-12)
        and np.all(np.where(swap, by, bx) <= np.where(swap, bx, by) + 1e-10)
        and np.all((bx >= lo - 1e-10) & (bx <= hi + 1e-10))
        and np.all(m >= -1e-14)
        and np.all(m <= graph.potential(x) + 1e-10)
    )


def free_wave_energy_drift(config) -> float:
    """max_k |E_k - E_0| / E_0 along the noise-free path of config with beta = 0."""
    config = replace(config, graph=LinearGraph(0.0), driver=None, record=frozenset({"functionals"}))
    e = simulate_path(config, 0).series[:, 0]
    return float(np.max(np.abs(e - e[0])) / e[0])


def chain_rule_order(config, dts) -> float:
    """Fitted order in dt of the envelope chain-rule gap of config's noise-free path."""
    gaps = []
    for dt in dts:
        cfg = replace(config, dt=dt, driver=None, record=frozenset())
        gaps.append(chain_rule_check(simulate_path(cfg, 0), cfg)["gap"])
    return float(np.polyfit(np.log(dts), np.log(gaps), 1)[0])


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
        rng = np.random.default_rng(7)
        for graph in GRAPHS:
            for _ in range(4):
                lam = float(10.0 ** rng.uniform(-3, 1))
                if not convex_analysis_holds(graph, lam, rng.uniform(-10, 10, 1000), rng.uniform(-10, 10, 1000)):
                    return False
        return True

    def parseval_ok():
        rng = np.random.default_rng(0)
        f = rng.standard_normal(grid.shape)
        modes = grid.to_modes(f)
        round_trip = np.max(np.abs(grid.to_nodes(modes) - f)) < 1e-12
        parseval = abs(grid.norm(modes) - np.sqrt(grid.weight * np.sum(f**2))) < 1e-12
        return round_trip and parseval

    def rotation_identity_ok():
        cache = GroupCache(grid, 0.37)
        return np.max(np.abs(cache.cos_t**2 + grid.mu * cache.sinc**2 - 1.0)) < 1e-14

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
        return np.array_equal(draw(path_rng(3, 9), 1), draw(path_rng(3, 9), 1))

    def isometry_ok():
        for driver in (wiener, poisson):
            rep = ito_isometry_check(driver, 1.0, 1, 2000, 5)
            if abs(rep["lhs_estimate"] - rep["rhs"]) > 3 * rep["std_error"]:
                return False
        return True

    def ibp_ok():
        rng = np.random.default_rng(4)
        probes = [(rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)) for _ in range(3)]
        return ibp_residual(config, probes, 0) <= 1e-12

    def coupled_noise_ok():
        draws = {1e-1: [], 1e-3: []}
        for lam, seen in draws.items():
            simulate_path(
                replace(config, lam=lam, record=frozenset()), 3, lambda k, u, v, b, dm, b_nodes: seen.append(dm)
            )
        return np.array_equal(draws[1e-1], draws[1e-3])

    checks = [
        ("graph convex-analysis invariants", graphs_ok),
        ("spectral round trip and Parseval", parseval_ok),
        ("group rotation identity", rotation_identity_ok),
        ("linear flow conserves energy", lambda: free_wave_energy_drift(config) <= 1e-12),
        ("increment mean/variance statistics", increment_stats_ok),
        ("increment stream determinism", increment_determinism_ok),
        ("second-moment identity (both drivers)", isometry_ok),
        ("mild-form re-summation residual", lambda: duhamel_residual(config, 0) <= 1e-9),
        ("integration-by-parts telescoping", ibp_ok),
        ("envelope chain-rule gap order >= 0.8", lambda: chain_rule_order(config, (4e-3, 2e-3)) >= 0.8),
        ("coupled noise streams bit-identical", coupled_noise_ok),
    ]
    return _run(checks, out)
