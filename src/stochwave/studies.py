"""Monte Carlo studies over the regularization scale, with reproducible worker processes.

Every study maps one job over blocks of consecutive paths (one RNG stream
per path index), on forked worker processes if asked.  A lambda study's job
steps its block at every lambda in one call of the solver's block kernel,
reduces each (path, lambda) row while it steps, and keeps no history.  A
row holds the bits of its own single path whatever its block-mates, and the
values are reduced in path order, so reports are bit-identical for a fixed
seed regardless of block size and worker count.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import NumericError
from .noise import _mean_se, _path_sums, path_rng
from .solver import SolverConfig, _row_dots, _run, ibp_residual

__all__ = [
    "StudySpec",
    "StudyReport",
    "energy_study",
    "pairing_study",
    "lambda_convergence_study",
    "isometry_study",
    "write_csv",
    "write_field_csv",
]


@dataclass
class StudySpec:
    """A base solver setup plus the parameter grids a study sweeps over.

    The base config owns every setting a path needs, the seed included; a
    study varies only lambda.  ``simulate`` runs the base config alone.
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
        if len(set(self.eps_grid)) < len(self.eps_grid):
            raise ValueError(f"study.eps_grid entries must be distinct, got {tuple(self.eps_grid)}")
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


def write_field_csv(grid, coeffs, path) -> None:
    """Dump a coefficient field as k1[,k2],coeff rows in lexicographic order."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != grid.shape:
        raise ValueError(f"field has shape {coeffs.shape}, expected {grid.shape}")
    columns = ("k1", "coeff") if grid.dim == 1 else ("k1", "k2", "coeff")
    rows = [(*k, value) for k, value in zip(grid.mode_indices.tolist(), coeffs.ravel().tolist())]
    write_csv(StudyReport("field", columns, rows), path)


def _usable_cpus():
    """How many CPUs this process may run on.

    The size of its affinity set where the platform has one (a cpuset or
    ``taskset`` can make that smaller than the machine), else ``os.cpu_count()``.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    Never more processes than blocks or than usable CPUs (``_usable_cpus``).
    The blocks (ranges of path indices) are cut into one run of consecutive
    blocks per process; this process steps the first run while a forked
    child steps each other one, and the results come back in block order.
    If anything fails, every child is killed and reaped.  Without ``os.fork``
    the map is serial.
    """
    blocks = list(blocks)
    procs = min(workers, len(blocks), _usable_cpus())
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


# Most paths per study job; a lambda study steps them in one block-kernel call.
# A block gets min(_BLOCK_PATHS, ceil(n_paths / processes)) paths, so that
# every process the fork map starts, min(workers, usable CPUs), gets a
# block; a row's bits do not depend on its block-mates.
_BLOCK_PATHS = 8


def _map_blocks(spec: StudySpec, job):
    """The arrays ``job(paths)`` returns for the study's blocks of path indices, each concatenated over the blocks.

    The blocks run on ``_map_ordered``'s processes.  Each array a job
    returns has its block's paths on the first axis, so each result holds
    every path of the study, in path order, on its first axis.
    """
    procs = min(spec.workers, _usable_cpus())
    size = min(_BLOCK_PATHS, math.ceil(spec.n_paths / procs))
    blocks = [range(i, min(i + size, spec.n_paths)) for i in range(0, spec.n_paths, size)]
    return [np.concatenate(arrays) for arrays in zip(*_map_ordered(job, blocks, procs))]


def _energy_job(base, lambdas, paths):
    """sup_t energy of every (path, lambda) of a block, as (paths, lambdas, 1) values, and the blow-up steps."""
    result, blown = _run(base, paths, lambdas)
    return result.sup_energy[..., None], blown


def _sweep(spec: StudySpec, job):
    """Map ``job(base, lambdas, paths)`` over blocks of paths on the worker processes; blow-ups are not fatal.

    A job gets a block of ``_map_blocks``, steps it at every lambda in one
    ``_run`` call, and returns its (paths, lambdas or pairs, values) array
    and its (paths, lambdas) array of blow-up steps (-1 where a row finished).
    Returns the values of every path in path order, the (paths, lambdas)
    mask ``ok`` of the rows that finished, and the report meta: {lambda:
    blow-up steps in path order}, for the lambdas that had any.  A study
    reduces ``values[ok[:, j], j, k]``.
    """
    values, blown = _map_blocks(spec, partial(job, spec.base, spec.lambdas))
    steps = {lam: column[column >= 0].tolist() for lam, column in zip(spec.lambdas, blown.T) if (column >= 0).any()}
    return values, blown < 0, {"blowup_steps": steps}


def energy_study(spec: StudySpec) -> StudyReport:
    """E sup_t (|u|_{H10}^2 + |v|_{L2}^2) per lambda; blow-ups flagged, not fatal."""
    values, ok, meta = _sweep(spec, _energy_job)
    return StudyReport(
        name="energy",
        columns=("lambda", "estimate", "std_error", "n_paths"),
        rows=[(lam, *_mean_se(values[ok[:, j], j, 0]), int(ok[:, j].sum())) for j, lam in enumerate(spec.lambdas)],
        meta=meta,
    )


def _pairing_job(base, lambdas, paths, eps_values):
    """int <resolvent(u_eps), beta_eps> dt of every (path, lambda, eps) of a block, and the blow-up steps.

    The values are (paths, lambdas, eps) in ``eps_values`` order.  u_eps and
    beta_eps are smoothed mode-wise; eps = 0 pairs the kernel's handed nodal
    drift and resolvent.  eps is one more stack axis, so one resolvent call
    per step serves every eps > 0, lambda and path.  The resolver, built
    once per block and called without a hint, is the closed form or the
    cold solver: both work entry by entry, so each field keeps the bits it
    gets alone.  It also resolves the sign graph's unsmoothed nodal state.
    u and beta_modes are smoothed at every eps straight into one stack, so
    that one transform takes them to the nodes.
    """
    grid = base.grid
    smoothed = tuple(e for e in eps_values if e > 0.0)
    block = (len(paths), len(lambdas))
    sums = np.zeros((len(smoothed) + 1,) + block)  # the smoothed eps, then eps = 0
    filt = np.array([grid.smoother(e) for e in smoothed])[:, None, None]  # (E, 1, 1, *grid.shape)
    lam = np.reshape(np.array(lambdas, dtype=float), (len(lambdas),) + (1,) * grid.dim)
    scale = base.dt * grid.weight
    resolve = base.graph._resolvent_at(lam, 3)
    smooth = np.empty((2, len(smoothed)) + block + grid.shape)
    smooth_u, smooth_beta = smooth  # views, so that no step indexes the stack

    def observe(k, u, u_nodes, beta_nodes, beta_modes, res, **_):
        res = resolve(u_nodes, None) if res is None else res
        sums[-1] += scale * _row_dots(beta_nodes, res)
        if smoothed:
            np.multiply(filt, u, out=smooth_u)
            np.multiply(filt, beta_modes, out=smooth_beta)
            u_eps, beta_eps = grid._nodes(smooth)
            sums[:-1] += scale * _row_dots(resolve(u_eps, None), beta_eps, 3)

    _, blown = _run(base, paths, lambdas, observe)
    by_eps = dict(zip(smoothed + (0.0,), sums))
    return np.stack([by_eps[eps] for eps in eps_values], axis=-1), blown


def pairing_study(spec: StudySpec) -> StudyReport:
    """E int <yosida(u), resolvent(u)> dt per (lambda, eps), eps -> 0 sweep.

    Positive eps applies the elliptic smoother to both pairing factors, the
    way the uniform bound is derived before letting the smoothing vanish.
    """
    eps_values = tuple(spec.eps_grid)
    if 0.0 not in eps_values:
        eps_values = eps_values + (0.0,)
    values, ok, meta = _sweep(spec, partial(_pairing_job, eps_values=eps_values))
    rows = [
        (lam, eps, *_mean_se(values[ok[:, j], j, k]), int(ok[:, j].sum()))
        for j, lam in enumerate(spec.lambdas)
        for k, eps in enumerate(eps_values)
    ]
    return StudyReport(
        name="pairing",
        columns=("lambda", "eps", "estimate", "std_error", "n_paths"),
        rows=rows,
        meta=meta,
    )


def _gaps_job(base, lambdas, paths):
    """(u, beta L1, beta H^-2, beta H^-3) gaps of every (path, lambda pair) of a block, and the blow-up steps.

    The values are (paths, lambdas - 1, 4): pair j is lambda j against
    lambda j + 1, and a study counts it only where both rows finished.  The
    gaps at a step are differences of adjacent lambda rows, so no state
    outlives its step.  The L1 gap is taken of the kernel's nodal Yosida
    values, so no field is transformed here.  Each per-step squared norm is
    one BLAS dot per field, like the solver's inner products; the squares
    are kept in contiguous (paths, lambdas - 1, steps) arrays, and rooted
    and reduced over the last axis at the end (the root of the largest
    square is the largest root), and the L1 term is summed in step order.
    """
    grid, n, dt = base.grid, base.n_steps, base.dt
    axes = tuple(range(-grid.dim, 0))
    pairs = (len(paths), len(lambdas) - 1)
    # the H^-2 and H^-3 weights as (1, K) rows: one broadcast matmul makes both dots of each field
    weights = np.stack(((1.0 + grid.mu) ** -2.0, (1.0 + grid.mu) ** -3.0)).reshape(2, 1, 1, 1, -1)
    # zeros, not empty: a block whose rows all blew up stops before the last step
    u_sq, hm_sq = np.zeros(pairs + (n + 1,)), np.zeros((2,) + pairs + (n,))
    l1 = np.zeros(pairs)

    def u_gap(k, u):
        du = u[:, 1:] - u[:, :-1]
        u_sq[..., k] = _row_dots(du, du)

    def observe(k, u, beta_nodes, beta_modes, **_):
        u_gap(k, u)
        l1[...] += grid.weight * np.abs(beta_nodes[:, 1:] - beta_nodes[:, :-1]).sum(axis=axes)
        dbeta2 = (beta_modes[:, 1:] - beta_modes[:, :-1]) ** 2
        hm_sq[..., k] = np.matmul(weights, dbeta2.reshape(*pairs, -1, 1))[..., 0, 0]

    result, blown = _run(base, paths, lambdas, observe)
    u_gap(n, result.u_final)
    hm2, hm3 = dt * np.sqrt(hm_sq).sum(axis=-1)
    return np.stack((np.sqrt(u_sq.max(axis=-1)), l1 * dt, hm2, hm3), axis=-1), blown


def lambda_convergence_study(spec: StudySpec) -> StudyReport:
    """Cauchy gaps between consecutive regularization scales under coupled noise.

    Each pair's row averages over the paths that finished at both of its
    lambdas; blow-ups are flagged, not fatal.
    """
    if len(spec.lambdas) < 3:
        raise ValueError("lambda convergence needs a grid of at least 3 values")
    values, ok, meta = _sweep(spec, _gaps_job)
    both = ok[:, 1:] & ok[:, :-1]
    rows = []
    for j, (hi, lo) in enumerate(zip(spec.lambdas, spec.lambdas[1:])):
        stats = [_mean_se(values[both[:, j], j, k]) for k in range(4)]
        rows.append((hi, lo, *stats[0], *stats[1], stats[2][0], stats[3][0], int(both[:, j].sum())))
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


def _isometry_job(base, paths):
    """|M(T)|^2 and the discrete quadratic variation sum_k |dM_k|^2, each a (paths,) array over a block.

    M(T) is one draw over t_final, and the variation sums n_steps draws over
    dt; each starts from a fresh ``path_rng`` stream of the path.
    """
    driver, seed = base.driver, base.seed
    ends = _path_sums(driver, base.t_final, 1, seed, paths, lambda block: block)
    axes = tuple(range(1, 1 + base.grid.dim))  # a block's mode axes; each block is squared in place
    qv = _path_sums(driver, base.dt, base.n_steps, seed, paths, lambda block: np.square(block, out=block).sum(axes))
    return np.array([np.sum(end**2) for end in ends]), np.array(qv)


def isometry_study(spec: StudySpec) -> StudyReport:
    """Second-moment identity, discrete quadratic variation, and the telescoping
    integration-by-parts defect, all for the configured driver.

    The driver paths are mapped in blocks like a lambda study's; the one
    integration-by-parts path runs in this process at the first lambda.  If
    it hits the blow-up guard, its row is nan over 0 paths and the meta
    flags it, as a lambda study's; a failure without a step is raised.
    """
    base = spec.base
    if base.driver is None:
        raise ValueError("isometry study needs a noise driver in the base config")
    target = base.t_final * base.driver.covariance.trace
    sq, qv = _map_blocks(spec, partial(_isometry_job, base))
    rows = []
    for check, values in ((f"ito_isometry_{base.driver.kind}", sq), ("quadratic_variation", qv)):
        mean, se = _mean_se(values)
        rows.append((check, mean, target, se, spec.n_paths))

    grid, lam = base.grid, spec.lambdas[0]
    probe_rng = path_rng(base.seed, 2**31)
    probes = [
        (grid.basis_field(*grid.mode_indices[0]), grid.basis_field(*grid.mode_indices[-1])),
        (probe_rng.standard_normal(grid.shape), probe_rng.standard_normal(grid.shape)),
    ]
    steps = {}
    try:
        worst, finished = ibp_residual(replace(base, lam=lam), probes), 1
    except NumericError as exc:
        if exc.step is None:
            raise
        worst, finished, steps[lam] = math.nan, 0, [exc.step]
    rows.append(("integration_by_parts", worst, 0.0, 0.0, finished))

    return StudyReport(
        name="isometry",
        columns=("check", "estimate", "target", "std_error", "n_paths"),
        rows=rows,
        meta={"blowup_steps": steps},
    )
