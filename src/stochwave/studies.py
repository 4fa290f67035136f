"""Monte Carlo studies over the regularization scale, with reproducible pooling.

Every study maps jobs over fixed blocks of paths (one RNG stream per path
index) over an optional process pool and reduces the per-path values in path
order, so reports are bit-identical for a fixed seed regardless of worker
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import NumericError
from .noise import _add_in_order, _path_increments, ito_isometry_check, path_rng
from .solver import SERIES_COLUMNS, PathResult, SolverConfig, _run, ibp_residual, simulate_path

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
    """A base solver setup plus the parameter grids a study sweeps over.

    The base config owns every setting a path needs, the seed included; a
    study varies only lambda and what is recorded.
    """

    base: SolverConfig
    lambdas: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    eps_grid: tuple = (1e-2, 1e-3, 0.0)
    n_paths: int = 200
    workers: int = 1

    def __post_init__(self):
        if not self.lambdas:
            raise ValueError("study.lambda_grid (StudySpec.lambdas) must be non-empty")
        if not all(map(math.isfinite, self.lambdas)):
            raise ValueError(f"study.lambda_grid (StudySpec.lambdas) entries must be finite, got {self.lambdas}")
        if any(l2 >= l1 for l1, l2 in zip(self.lambdas, self.lambdas[1:])):
            raise ValueError(f"study.lambda_grid must be strictly descending, got {tuple(self.lambdas)}")
        if any(l <= 0 for l in self.lambdas):
            raise ValueError(f"study.lambda_grid (StudySpec.lambdas) entries must be positive, got {self.lambdas}")
        if not all(math.isfinite(e) and e >= 0.0 for e in self.eps_grid):
            raise ValueError(f"study.eps_grid entries must be finite and >= 0, got {tuple(self.eps_grid)}")
        if self.n_paths < 1:
            raise ValueError(f"study.n_paths (StudySpec.n_paths) must be >= 1, got {self.n_paths}")
        if self.workers < 1:
            raise ValueError(f"study.workers must be >= 1, got {self.workers}")


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
    if result.series is None:
        raise ValueError("path has no functional series; add 'functionals' to solver.record (SolverConfig.record)")
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
    # a fork-started pool launches all its workers at the first submit
    workers = min(workers, len(items))
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


# Paths per energy-study job, all stepped together by one block-kernel call.
# A constant, so that the jobs do not depend on the worker count; a row's
# bits do not depend on it either.
_BLOCK_PATHS = 8


def _energy_job(base, lambdas, paths):
    """sup_t energy of every (path, lambda) of a block, None where the path blew up."""
    result, blown = _run(base, paths, lambdas)
    return [
        [None if b >= 0 else float(s) for s, b in zip(sup_row, blown_row)]
        for sup_row, blown_row in zip(result.sup_energy, blown)
    ]


def _sweep_job(base, lambdas, paths, make_reducer):
    """Run each path of a block at every lambda of the grid, in grid order, on its noise stream.

    Each lambda's config is ``replace(base, lam=lam)``, so seed, driver, dt
    and initial data are shared and every lambda draws the same increments.
    ``make_reducer()`` gives this job's reducer.  Per path and lambda,
    ``reducer.start(config, chained)`` returns a per-step observer for
    ``simulate_path`` or None; ``chained`` says whether the path's previous
    lambda finished.  ``reducer.finish(config, result)`` returns the value.
    A blow-up gives None and breaks the chain.  Returns the values per path.
    The studies that use it map one path per job: the per-lambda loop gains
    nothing from a longer block, and short jobs keep the pool busy on a few
    paths.
    """
    reducer = make_reducer()
    per_path = []
    for path_index in paths:
        values, chained = [], False
        for lam in lambdas:
            config = replace(base, lam=lam)
            try:
                result = simulate_path(config, path_index, reducer.start(config, chained))
            except NumericError:
                values.append(None)
                chained = False
                continue
            values.append(reducer.finish(config, result))
            chained = True
        per_path.append(values)
    return per_path


def _sweep(spec: StudySpec, job, block_paths):
    """Map ``job(base, lambdas, paths)`` over blocks of paths in one pool; blow-ups are not fatal.

    A job gets ``block_paths`` consecutive path indices (fewer in the last
    block) and returns, per path, its values per lambda with None for a
    blow-up.  Returns, per lambda in grid order, the values of the finished
    paths in path order, and a {lambda: blown-up path count} dict of the
    lambdas that had any.  Studies reduce paths while they step, so nothing
    is recorded.
    """
    base = replace(spec.base, record=frozenset())
    blocks = [range(i, min(i + block_paths, spec.n_paths)) for i in range(0, spec.n_paths, block_paths)]
    per_block = _map_ordered(partial(job, base, spec.lambdas), blocks, spec.workers)
    per_path = [values for block in per_block for values in block]
    columns = [[v for v in column if v is not None] for column in zip(*per_path)]
    blowups = {lam: spec.n_paths - len(ok) for lam, ok in zip(spec.lambdas, columns) if len(ok) < spec.n_paths}
    return columns, blowups


class _SmoothedPairings:
    """{eps: int <resolvent(u_eps), beta_eps> dt}, u_eps and beta_eps smoothed mode-wise.

    eps = 0 is the solver's own unsmoothed pairing.
    """

    def __init__(self, eps_values):
        self.eps_values = tuple(dict.fromkeys(e for e in eps_values if e > 0.0))

    def start(self, config, chained):
        grid, graph, lam = config.grid, config.graph, config.lam
        self.sums = dict.fromkeys(self.eps_values, 0.0)
        smoothers = {e: grid.smoother(e) for e in self.eps_values}
        scale = config.dt * grid.weight

        def observe(k, u, v, beta_modes, dm):
            for e, filt in smoothers.items():
                res_f = graph.resolvent(lam, grid.to_nodes(filt * u))
                beta_f = grid.to_nodes(filt * beta_modes)
                self.sums[e] += scale * float(np.vdot(res_f, beta_f))

        return observe if smoothers else None

    def finish(self, config, result):
        return {**self.sums, 0.0: result.pairing}


def energy_study(spec: StudySpec) -> StudyReport:
    """E sup_t (|u|_{H10}^2 + |v|_{L2}^2) per lambda; blow-ups flagged, not fatal."""
    columns, blowups = _sweep(spec, _energy_job, _BLOCK_PATHS)
    return StudyReport(
        name="energy",
        columns=("lambda", "estimate", "std_error", "n_paths"),
        rows=[(lam, *_mean_se(ok), len(ok)) for lam, ok in zip(spec.lambdas, columns)],
        meta={"blowups": blowups},
    )


def pairing_study(spec: StudySpec) -> StudyReport:
    """E int <yosida(u), resolvent(u)> dt per (lambda, eps), eps -> 0 sweep.

    Positive eps applies the elliptic smoother to both pairing factors, the
    way the uniform bound is derived before letting the smoothing vanish.
    """
    eps_values = tuple(spec.eps_grid)
    if 0.0 not in eps_values:
        eps_values = eps_values + (0.0,)
    columns, blowups = _sweep(spec, partial(_sweep_job, make_reducer=partial(_SmoothedPairings, eps_values)), 1)
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


class _Gaps:
    """(u, beta L1, beta H^-2, beta H^-3) gaps to the previous lambda; () without one.

    One (u, beta) history serves the whole lambda chain of a path job: at
    step k the observer reads the previous lambda's row k, adds that step's
    gap terms, then overwrites the row with this lambda's values.  A broken
    chain (first lambda, or after a blow-up) only overwrites.  Each per-step
    squared norm is one BLAS dot (``np.vdot``), like the solver's inner
    products; the norms are kept in (n+1,)/(n,) arrays and reduced over the
    steps with one np.max/np.sum.
    """

    def __init__(self):
        self.u = self.beta = None

    def start(self, config, chained):
        grid, n = config.grid, config.n_steps
        if self.u is None:
            self.u = np.empty((n + 1, *grid.shape))
            self.beta = np.empty((n, *grid.shape))
        self.chained = chained
        if chained:
            self.u_norm, self.hm2, self.hm3, self.l1 = np.empty(n + 1), np.empty(n), np.empty(n), 0.0
            w2, w3 = (1.0 + grid.mu) ** -2.0, (1.0 + grid.mu) ** -3.0

        def observe(k, u, v, beta_modes, dm):
            if chained:
                du = u - self.u[k]
                self.u_norm[k] = math.sqrt(np.vdot(du, du))
                dbeta = beta_modes - self.beta[k]
                self.l1 += grid.weight * float(np.abs(grid.to_nodes(dbeta)).sum())
                dbeta2 = dbeta**2
                self.hm2[k] = math.sqrt(np.vdot(w2, dbeta2))
                self.hm3[k] = math.sqrt(np.vdot(w3, dbeta2))
            self.u[k] = u
            self.beta[k] = beta_modes

        return observe

    def finish(self, config, result):
        n, dt = config.n_steps, config.dt
        gaps = ()
        if self.chained:
            du = result.u_final - self.u[n]
            self.u_norm[n] = math.sqrt(np.vdot(du, du))
            gaps = (
                float(np.max(self.u_norm)),
                self.l1 * dt,
                dt * float(np.sum(self.hm2)),
                dt * float(np.sum(self.hm3)),
            )
        self.u[n] = result.u_final
        return gaps


def lambda_convergence_study(spec: StudySpec) -> StudyReport:
    """Cauchy gaps between consecutive regularization scales under coupled noise.

    Each pair's row averages over the paths that finished at both of its
    lambdas; blow-ups are flagged, not fatal.
    """
    if len(spec.lambdas) < 3:
        raise ValueError("lambda convergence needs a grid of at least 3 values")
    columns, blowups = _sweep(spec, partial(_sweep_job, make_reducer=_Gaps), 1)
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
    iso = ito_isometry_check(driver, base.t_final, 1, spec.n_paths, base.seed)
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
    paths = _path_increments(driver, base.dt, base.n_steps, spec.n_paths, base.seed)
    for p, blocks in enumerate(paths):
        total = 0.0
        for block in blocks:
            total = _add_in_order(total, np.sum(block**2, axis=tuple(range(1, block.ndim))))
        qv[p] = total
    qv_est, qv_se = _mean_se(qv)
    rows.append(
        ("quadratic_variation", qv_est, base.t_final * driver.covariance.trace, qv_se, spec.n_paths)
    )

    grid = base.grid
    probe_rng = path_rng(base.seed, 2**31)
    probes = [
        (grid.basis_field(*grid.mode_indices[0]), grid.basis_field(*grid.mode_indices[-1])),
        (probe_rng.standard_normal(grid.shape), probe_rng.standard_normal(grid.shape)),
    ]
    worst = ibp_residual(replace(base, lam=spec.lambdas[0]), probes)
    rows.append(("integration_by_parts", worst, 0.0, 0.0, 1))

    return StudyReport(
        name="isometry",
        columns=("check", "estimate", "target", "std_error", "n_paths"),
        rows=rows,
    )
