"""Monte Carlo studies over the regularization scale, with reproducible worker processes.

Every lambda study maps one job over blocks of consecutive paths (one RNG
stream per path index), on forked worker processes if asked.  A job steps its
block at every lambda in one call of the solver's block kernel, reduces
each (path, lambda) row while it steps, and keeps no history.  A row holds
the bits of its own single path whatever its block-mates, and the values
are reduced in path order, so reports are bit-identical for a fixed seed
regardless of block size and worker count.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .noise import _add_in_order, _path_increments, ito_isometry_check, path_rng
from .solver import SERIES_COLUMNS, PathResult, SolverConfig, _row_dots, _run, ibp_residual

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


class _Child:
    """A forked worker process that steps a share of the blocks and pickles the results to a pipe."""

    def __init__(self, fn, share):
        self.share = share
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            os.close(read)
            _serve(fn, share, write)
        os.close(write)
        self.fd = read

    def join(self):
        """The share's results in block order; re-raises the child's error.

        A child that exits without a result raises ChildProcessError naming
        its blocks' path indices and its exit status or signal.
        """
        with open(self.fd, "rb") as pipe:
            self.fd = None
            payload = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if not payload:
            code = os.waitstatus_to_exitcode(status)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            paths = f"{self.share[0].start}..{self.share[-1].stop - 1}"
            raise ChildProcessError(f"the worker process for paths {paths} {how} without a result")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        return value

    def kill(self):
        """Kill and reap the child, unless it was joined."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _serve(fn, share, fd):
    """In a forked child: pickle (True, results) or (False, error) to fd, then exit at once.

    The child never returns into its parent's stack; a failed write leaves
    the pipe empty, which the parent reports with the exit status.
    """
    status = 1
    try:
        try:
            reply = (True, [fn(block) for block in share])
        except BaseException as exc:  # handed over, and re-raised in the parent
            reply = (False, exc)
        try:
            payload = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception:
            error = reply[1]
            payload = pickle.dumps((False, RuntimeError(f"{type(error).__name__}: {error}")))
        with open(fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _map_ordered(fn, blocks, workers):
    """[fn(block) for block in blocks] on up to ``workers`` processes, this one included.

    Never more processes than blocks or than ``os.cpu_count()``.  The blocks
    (ranges of path indices) are cut into one run of consecutive blocks per
    process; this process steps the first run while a forked child steps
    each other one, and the results come back in block order.  If anything
    fails, every child is killed and reaped.  Without ``os.fork`` the map is
    serial.
    """
    blocks = list(blocks)
    procs = min(workers, len(blocks), os.cpu_count() or 1)
    if procs <= 1 or not hasattr(os, "fork"):
        return [fn(block) for block in blocks]
    cuts = [len(blocks) * k // procs for k in range(procs + 1)]
    shares = [blocks[a:b] for a, b in zip(cuts, cuts[1:])]
    children = []
    try:
        for share in shares[1:]:
            children.append(_Child(fn, share))
        results = [fn(block) for block in shares[0]]
        for child in children:
            results += child.join()
        return results
    finally:
        for child in children:
            child.kill()


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    if not len(arr):
        return float("nan"), float("nan")
    mean = float(np.mean(arr))
    se = float(np.std(arr, ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, se


# Most paths per study job, all stepped together by one block-kernel call.
# A block gets min(_BLOCK_PATHS, ceil(n_paths / workers)) paths, so that
# every worker process gets a block; a row's bits do not depend on its
# block-mates.
_BLOCK_PATHS = 8


def _drop_blown(values, blown):
    """Per path, its values per lambda, with None where the (path, lambda) row blew up."""
    return [[None if b >= 0 else v for v, b in zip(row, steps)] for row, steps in zip(values, blown.tolist())]


def _energy_job(base, lambdas, paths):
    """sup_t energy of every (path, lambda) of a block."""
    result, blown = _run(base, paths, lambdas, sums=())
    return _drop_blown(result.sup_energy.tolist(), blown), blown


def _sweep(spec: StudySpec, job):
    """Map ``job(base, lambdas, paths)`` over blocks of paths on the worker processes; blow-ups are not fatal.

    A job gets min(_BLOCK_PATHS, ceil(n_paths / workers)) consecutive path
    indices (fewer in the last block), steps them at every lambda in one
    ``_run`` call, and returns, per path, its values per lambda with None
    for a blow-up, plus the (paths, lambdas) array of blow-up steps.
    Returns, per lambda in grid order, the values of the finished paths in
    path order, and the report meta: {lambda: blown-up path count} and
    {lambda: blow-up steps in path order}, for the lambdas that had any.
    Studies reduce paths while they step, so nothing is recorded.
    """
    base = replace(spec.base, record=frozenset())
    size = min(_BLOCK_PATHS, math.ceil(spec.n_paths / spec.workers))
    blocks = [range(i, min(i + size, spec.n_paths)) for i in range(0, spec.n_paths, size)]
    per_block = _map_ordered(partial(job, base, spec.lambdas), blocks, spec.workers)
    per_path = [values for block, _ in per_block for values in block]
    columns = [[v for v in column if v is not None] for column in zip(*per_path)]
    blown = np.concatenate([steps for _, steps in per_block]).T
    steps = {lam: row[row >= 0].tolist() for lam, row in zip(spec.lambdas, blown) if (row >= 0).any()}
    return columns, {"blowups": {lam: len(found) for lam, found in steps.items()}, "blowup_steps": steps}


def energy_study(spec: StudySpec) -> StudyReport:
    """E sup_t (|u|_{H10}^2 + |v|_{L2}^2) per lambda; blow-ups flagged, not fatal."""
    columns, meta = _sweep(spec, _energy_job)
    return StudyReport(
        name="energy",
        columns=("lambda", "estimate", "std_error", "n_paths"),
        rows=[(lam, *_mean_se(ok), len(ok)) for lam, ok in zip(spec.lambdas, columns)],
        meta=meta,
    )


def _pairing_job(base, lambdas, paths, eps_values):
    """{eps: int <resolvent(u_eps), beta_eps> dt} of every (path, lambda) of a block.

    u_eps and beta_eps are smoothed mode-wise; eps = 0 is the kernel's own
    unsmoothed pairing.  eps is one more stack axis, so one cold resolvent
    call per step serves every eps, lambda and path: the cold solver works
    entry by entry, so each field keeps the bits it gets alone.
    """
    grid = base.grid
    smoothed = tuple(dict.fromkeys(e for e in eps_values if e > 0.0))
    sums = np.zeros((len(smoothed), len(paths), len(lambdas)))
    observe = None
    if smoothed:
        filt = np.array([grid.smoother(e) for e in smoothed])[:, None, None]  # (E, 1, 1, *grid.shape)
        lam = np.reshape(np.array(lambdas, dtype=float), (len(lambdas),) + (1,) * grid.dim)
        scale = base.dt * grid.weight

        def observe(k, u, v, beta_modes, dm):
            res = base.graph._resolvent_impl(lam, grid._nodes(filt * u))
            sums[...] += scale * _row_dots(res, grid._nodes(filt * beta_modes), 3)

    result, blown = _run(base, paths, lambdas, observe, sums={"pairing"})
    values = [
        [{**dict(zip(smoothed, by_eps)), 0.0: pairing} for by_eps, pairing in zip(path_sums, path_pairing)]
        for path_sums, path_pairing in zip(np.moveaxis(sums, 0, -1).tolist(), result.pairing.tolist())
    ]
    return _drop_blown(values, blown), blown


def pairing_study(spec: StudySpec) -> StudyReport:
    """E int <yosida(u), resolvent(u)> dt per (lambda, eps), eps -> 0 sweep.

    Positive eps applies the elliptic smoother to both pairing factors, the
    way the uniform bound is derived before letting the smoothing vanish.
    """
    eps_values = tuple(spec.eps_grid)
    if 0.0 not in eps_values:
        eps_values = eps_values + (0.0,)
    columns, meta = _sweep(spec, partial(_pairing_job, eps_values=eps_values))
    rows = [
        (lam, eps, *_mean_se([d[eps] for d in ok]), len(ok))
        for lam, ok in zip(spec.lambdas, columns)
        for eps in eps_values
    ]
    return StudyReport(
        name="pairing",
        columns=("lambda", "eps", "estimate", "std_error", "n_paths"),
        rows=rows,
        meta=meta,
    )


def _gaps_job(base, lambdas, paths):
    """(u, beta L1, beta H^-2, beta H^-3) gaps of every (path, lambda) of a block to its previous lambda.

    () for the first lambda, and where the previous lambda's row blew up.
    The gaps at a step are differences of adjacent lambda rows, so no state
    outlives its step.  Each per-step squared norm is one BLAS dot per field,
    like the solver's inner products; the norms are kept in contiguous
    (paths, lambdas - 1, steps) arrays and reduced over the last axis, and
    the L1 term is summed in step order.
    """
    grid, n, dt = base.grid, base.n_steps, base.dt
    axes = tuple(range(-grid.dim, 0))
    w2, w3 = ((1.0 + grid.mu) ** -2.0)[None, None], ((1.0 + grid.mu) ** -3.0)[None, None]
    pairs = (len(paths), len(lambdas) - 1)
    # zeros, not empty: a block whose rows all blew up stops before the last step
    u_norm, hm2, hm3 = np.zeros(pairs + (n + 1,)), np.zeros(pairs + (n,)), np.zeros(pairs + (n,))
    l1 = np.zeros(pairs)

    def u_gap(k, u):
        du = u[:, 1:] - u[:, :-1]
        u_norm[..., k] = np.sqrt(_row_dots(du, du))

    def observe(k, u, v, beta_modes, dm):
        u_gap(k, u)
        dbeta = beta_modes[:, 1:] - beta_modes[:, :-1]
        l1[...] += grid.weight * np.abs(grid._nodes(dbeta)).sum(axis=axes)
        dbeta2 = dbeta**2
        hm2[..., k] = np.sqrt(_row_dots(w2, dbeta2))
        hm3[..., k] = np.sqrt(_row_dots(w3, dbeta2))

    result, blown = _run(base, paths, lambdas, observe, sums=())
    u_gap(n, result.u_final)
    gaps = np.stack((u_norm.max(axis=-1), l1 * dt, dt * hm2.sum(axis=-1), dt * hm3.sum(axis=-1)), axis=-1)
    values = [
        [()] + [tuple(gap) if prev_ok else () for gap, prev_ok in zip(path_gaps, path_ok)]
        for path_gaps, path_ok in zip(gaps.tolist(), (blown < 0).tolist())
    ]
    return _drop_blown(values, blown), blown


def lambda_convergence_study(spec: StudySpec) -> StudyReport:
    """Cauchy gaps between consecutive regularization scales under coupled noise.

    Each pair's row averages over the paths that finished at both of its
    lambdas; blow-ups are flagged, not fatal.
    """
    if len(spec.lambdas) < 3:
        raise ValueError("lambda convergence needs a grid of at least 3 values")
    columns, meta = _sweep(spec, _gaps_job)
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
        meta=meta,
    )


def isometry_study(spec: StudySpec) -> StudyReport:
    """Second-moment identity, discrete quadratic variation, and the telescoping
    integration-by-parts defect, all for the configured driver.

    Runs serially and ignores ``study.workers``: the driver loops and the one
    integration-by-parts path fork no worker process.
    """
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
