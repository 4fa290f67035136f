"""Monte Carlo studies over the regularization scale, with reproducible pooling.

Every study maps independent path simulations (one RNG stream per path index)
over an optional process pool and reduces the per-path values in path order,
so reports are bit-identical for a fixed seed regardless of worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import NumericError
from .noise import _path_increments, ito_isometry_check, path_rng
from .solver import SERIES_COLUMNS, PathResult, SolverConfig, ibp_residual, simulate_path

__all__ = [
    "StudySpec",
    "StudyReport",
    "energy_study",
    "pairing_study",
    "lambda_convergence_study",
    "isometry_study",
    "write_csv",
    "write_path_csv",
    "write_field_csv",
]


@dataclass
class StudySpec:
    """A base solver setup plus the parameter grids a study sweeps over."""

    base: SolverConfig
    lambdas: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    eps_grid: tuple = (1e-2, 1e-3, 0.0)
    n_paths: int = 200
    seed: int = 42
    workers: int = 1

    def __post_init__(self):
        if not self.lambdas:
            raise ValueError("lambda grid must be non-empty")
        if any(l2 > l1 for l1, l2 in zip(self.lambdas, self.lambdas[1:])):
            raise ValueError("lambda grid must be descending")
        if any(l <= 0 for l in self.lambdas):
            raise ValueError("lambda grid entries must be positive")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")

    def config_for(self, lam, **overrides) -> SolverConfig:
        return replace(self.base, lam=lam, seed=self.seed, **overrides)


@dataclass
class StudyReport:
    """Tabular study output: column names plus one tuple per row."""

    name: str
    columns: tuple
    rows: list
    meta: dict = field(default_factory=dict)


def _format_cell(value):
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form, also for np.float64
    return str(value)


def write_csv(report: StudyReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(report.columns) + "\n")
        for row in report.rows:
            f.write(",".join(_format_cell(v) for v in row) + "\n")


def write_path_csv(result: PathResult, path) -> None:
    """Per-step functional trace: t,energy,lyapunov,l2_u,h1_u,l2_v,pairing_running."""
    result.require("series")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(SERIES_COLUMNS) + "\n")
        for t, row in zip(result.times, result.series):
            cells = [repr(float(t))] + [repr(float(v)) for v in row]
            f.write(",".join(cells) + "\n")


def write_field_csv(grid, coeffs, path) -> None:
    """Dump a coefficient field as k1[,k2],coeff rows in lexicographic order."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != grid.shape:
        raise ValueError(f"field has shape {coeffs.shape}, expected {grid.shape}")
    header = "k1,coeff" if grid.dim == 1 else "k1,k2,coeff"
    flat = coeffs.ravel()
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for indices, value in zip(grid.mode_indices, flat):
            f.write(",".join(str(int(k)) for k in indices) + f",{float(value)!r}\n")


def _map_ordered(fn, items, workers):
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunk = max(1, math.ceil(len(items) / (4 * workers)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    if not len(arr):
        return float("nan"), float("nan")
    mean = float(np.mean(arr))
    se = float(np.std(arr, ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, se


def _sweep_job(configs, reduce, path_index):
    """Run one path at every lambda of the grid, in grid order, on one noise stream.

    Returns one reduced value per lambda; None marks a blow-up, after which
    the next lambda has no previous result.  Raises if two finished lambdas
    consumed different increment streams.
    """
    values, prev, noise_hash = [], None, None
    for config in configs:
        try:
            result = simulate_path(config, path_index)
        except NumericError:
            values.append(None)
            prev = None
            continue
        if noise_hash not in (None, result.increment_hash):
            raise RuntimeError("coupled paths consumed different noise streams")
        noise_hash = result.increment_hash
        values.append(reduce(config, prev, result))
        prev = result
    return values


def _sweep(spec: StudySpec, reduce, **overrides):
    """Map the lambda sweep over every path in one pool; blow-ups are counted, not fatal.

    ``reduce(config, previous lambda's result or None, result)`` maps each
    finished path to a value.  Returns, per lambda in grid order, the values
    of the finished paths in path order, and a {lambda: blown-up path count}
    dict of the lambdas that had any.
    """
    configs = tuple(spec.config_for(lam, **overrides) for lam in spec.lambdas)
    per_path = _map_ordered(partial(_sweep_job, configs, reduce), range(spec.n_paths), spec.workers)
    columns = [[v for v in column if v is not None] for column in zip(*per_path)]
    blowups = {lam: spec.n_paths - len(ok) for lam, ok in zip(spec.lambdas, columns) if len(ok) < spec.n_paths}
    return columns, blowups


def _sup_energy(config, prev, result):
    return result.sup_energy


def _pairing_eps(config, prev, result):
    return result.pairing_eps


def energy_study(spec: StudySpec) -> StudyReport:
    """E sup_t (|u|_{H10}^2 + |v|_{L2}^2) per lambda; blow-ups flagged, not fatal."""
    columns, blowups = _sweep(spec, _sup_energy, record=frozenset())
    return StudyReport(
        name="energy",
        columns=("lambda", "estimate", "std_error", "n_paths"),
        rows=[(lam, *_mean_se(ok), len(ok)) for lam, ok in zip(spec.lambdas, columns)],
        meta={"blowups": blowups},
    )


def pairing_study(spec: StudySpec, eps_grid=None) -> StudyReport:
    """E int <yosida(u), resolvent(u)> dt per (lambda, eps), eps -> 0 sweep.

    Positive eps applies the elliptic smoother to both pairing factors, the
    way the uniform bound is derived before letting the smoothing vanish.
    """
    eps_values = tuple(spec.eps_grid if eps_grid is None else eps_grid)
    if 0.0 not in eps_values:
        eps_values = eps_values + (0.0,)
    columns, blowups = _sweep(spec, _pairing_eps, record=frozenset(), eps_pairing=eps_values)
    rows = [
        (lam, eps, *_mean_se([d[eps] for d in ok]), len(ok))
        for lam, ok in zip(spec.lambdas, columns)
        for eps in eps_values
    ]
    return StudyReport(
        name="pairing",
        columns=("lambda", "eps", "estimate", "std_error", "n_paths"),
        rows=rows,
        meta={"blowups": blowups},
    )


def _gaps(config, prev, result):
    """(u, beta L1, beta H^-2, beta H^-3) gaps to the previous lambda's result; () without one."""
    if prev is None:
        return ()
    grid, dt = config.grid, config.dt
    du = result.u - prev.u
    u_gap = float(np.max(np.sqrt(np.sum(du**2, axis=tuple(range(1, du.ndim))))))
    dbeta = result.beta - prev.beta
    l1 = 0.0
    for n in range(dbeta.shape[0]):
        l1 += grid.weight * float(np.sum(np.abs(grid.to_nodes(dbeta[n]))))
    l1 *= dt
    axes = tuple(range(1, dbeta.ndim))
    hm2 = dt * float(np.sum(np.sqrt(np.sum((1.0 + grid.mu) ** -2.0 * dbeta**2, axis=axes))))
    hm3 = dt * float(np.sum(np.sqrt(np.sum((1.0 + grid.mu) ** -3.0 * dbeta**2, axis=axes))))
    return u_gap, l1, hm2, hm3


def lambda_convergence_study(spec: StudySpec) -> StudyReport:
    """Cauchy gaps between consecutive regularization scales under coupled noise.

    Each pair's row averages over the paths that finished at both of its
    lambdas; blow-ups are flagged, not fatal.
    """
    if len(spec.lambdas) < 3:
        raise ValueError("lambda convergence needs a grid of at least 3 values")
    columns, blowups = _sweep(spec, _gaps, record=frozenset({"states"}))
    rows = []
    for hi, lo, column in zip(spec.lambdas, spec.lambdas[1:], columns[1:]):
        gaps = [g for g in column if g]
        stats = [_mean_se([g[k] for g in gaps]) for k in range(4)]
        rows.append((hi, lo, *stats[0], *stats[1], stats[2][0], stats[3][0], len(gaps)))
    return StudyReport(
        name="lambda-conv",
        columns=(
            "lambda_hi",
            "lambda_lo",
            "u_gap",
            "u_gap_se",
            "beta_l1_gap",
            "beta_l1_gap_se",
            "beta_hm2_gap",
            "beta_hm3_gap",
            "n_paths",
        ),
        rows=rows,
        meta={"blowups": blowups},
    )


def isometry_study(spec: StudySpec) -> StudyReport:
    """Second-moment identity, discrete quadratic variation, and the telescoping
    integration-by-parts defect, all for the configured driver."""
    base = spec.base
    if base.driver is None:
        raise ValueError("isometry study needs a noise driver in the base config")
    driver = base.driver
    iso = ito_isometry_check(driver, base.t_final, 1, spec.n_paths, spec.seed)
    rows = [
        (
            f"ito_isometry_{driver.kind}",
            iso["lhs_estimate"],
            iso["rhs"],
            iso["std_error"],
            iso["n_paths"],
        )
    ]

    qv = np.empty(spec.n_paths)
    paths = _path_increments(driver, base.dt, base.n_steps, spec.n_paths, spec.seed)
    for p, increments in enumerate(paths):
        total = 0.0
        for dm in increments:
            total += float(np.sum(dm**2))
        qv[p] = total
    qv_est, qv_se = _mean_se(qv)
    rows.append(
        ("quadratic_variation", qv_est, base.t_final * driver.covariance.trace, qv_se, spec.n_paths)
    )

    config = spec.config_for(spec.lambdas[0], record=frozenset({"states"}))
    result = simulate_path(config, 0)
    grid = config.grid
    worst = 0.0
    probe_rng = path_rng(spec.seed, 2**31)
    probes = [
        (grid.basis_field(*grid.mode_indices[0]), grid.basis_field(*grid.mode_indices[-1])),
        (probe_rng.standard_normal(grid.shape), probe_rng.standard_normal(grid.shape)),
    ]
    for phi, psi in probes:
        worst = max(worst, ibp_residual(result, phi, psi))
    rows.append(("integration_by_parts", worst, 0.0, 0.0, 1))

    return StudyReport(
        name="isometry",
        columns=("check", "estimate", "target", "std_error", "n_paths"),
        rows=rows,
    )
