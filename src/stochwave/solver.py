"""Time stepping for the regularized semilinear wave system.

One step kicks the velocity with the Yosida drift and the diffused noise
increment at the left endpoint, then applies the exact wave group over dt
(mode-wise rotation).  The linear flow is therefore exact, and all group
identities (energy conservation, Duhamel re-summation) hold at round-off.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericError
from .graphs import MonotoneGraph
from .noise import DiffusionMap, MartingaleDriver, path_rng
from .spectral import SpectralGrid

__all__ = [
    "WaveState",
    "GroupCache",
    "SolverConfig",
    "PathResult",
    "step",
    "simulate_path",
    "duhamel_residual",
    "chain_rule_check",
    "energy",
    "lyapunov",
    "ibp_residual",
    "build_initial_state",
]

BLOWUP_ENERGY = 1e12

SERIES_COLUMNS = ("t", "energy", "lyapunov", "l2_u", "h1_u", "l2_v", "pairing_running")


@dataclass
class WaveState:
    """Displacement/velocity pair as mode coefficient arrays on one grid."""

    u: np.ndarray
    v: np.ndarray


class GroupCache:
    """Mode-wise entries of the wave group over a fixed step dt.

    cos_t = cos(dt*sqrt(mu)), sinc = sin(dt*sqrt(mu))/sqrt(mu),
    msin = -sqrt(mu)*sin(dt*sqrt(mu)); cos_t^2 + mu*sinc^2 = 1 per mode.
    """

    def __init__(self, grid: SpectralGrid, dt: float):
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.grid = grid
        self.dt = float(dt)
        om = np.sqrt(grid.mu)
        s = np.sin(dt * om)
        self.cos_t = np.cos(dt * om)
        self.sinc = s / om
        self.msin = -om * s

    def rotate(self, u, v):
        return self.cos_t * u + self.sinc * v, self.msin * u + self.cos_t * v


@dataclass
class SolverConfig:
    """Everything needed to advance one path of the regularized system."""

    grid: SpectralGrid
    graph: MonotoneGraph
    lam: float
    dt: float
    t_final: float
    driver: Optional[MartingaleDriver] = None
    diffusion: DiffusionMap = field(default_factory=lambda: DiffusionMap.from_name("one"))
    u0: str = "smooth:8"
    seed: int = 0
    record: frozenset = frozenset({"functionals"})
    eps_pairing: tuple = ()

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final < self.dt:
            raise ValueError("t_final must be at least one step")
        ratio = self.t_final / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, round(ratio)):
            raise ValueError(f"t_final/dt = {ratio} is not an integer step count")
        unknown = set(self.record) - {"states", "increments", "functionals"}
        if unknown:
            raise ValueError(f"unknown record flags {sorted(unknown)}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class PathResult:
    """One simulated trajectory plus the functionals accumulated along it."""

    path_index: int
    times: np.ndarray
    sup_energy: float
    chain_lhs: float
    pairing: float
    pairing_eps: dict
    u_first: np.ndarray
    v_first: np.ndarray
    u_final: np.ndarray
    v_final: np.ndarray
    increment_hash: str
    series: Optional[np.ndarray] = None  # columns per SERIES_COLUMNS, minus t
    u: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    increments: Optional[np.ndarray] = None

    def require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise ValueError(
                    f"path was simulated without recording {name!r}; "
                    f"add the matching flag to SolverConfig.record"
                )


def build_initial_state(grid: SpectralGrid, spec: str, rng=None):
    """Initial (u, v) coefficients from a spec token: zero | smooth:K | random:K.

    smooth:K puts 1/mu_k on every mode with all indices <= K (finite potential
    mass for all built-in graphs); random:K draws those amplitudes as centered
    Gaussians with standard deviation 1/mu_k.  v starts at zero either way.
    """
    head, _, arg = spec.strip().partition(":")
    u = grid.zero_field()
    if head == "zero":
        return u, grid.zero_field()
    if head not in ("smooth", "random"):
        raise ValueError(f"unknown initial data spec {spec!r}")
    k_max = int(arg) if arg else 8
    if not 1 <= k_max <= grid.n_modes:
        raise ValueError(f"initial data band {k_max} outside 1..{grid.n_modes}")
    sel = (grid.mode_indices <= k_max).all(axis=1).reshape(grid.shape)
    amp = np.where(sel, 1.0 / grid.mu, 0.0)
    if head == "random":
        if rng is None:
            raise ValueError("random initial data needs an rng stream")
        u = amp * rng.standard_normal(grid.shape)
    else:
        u = amp
    return u, grid.zero_field()


def _drift(grid: SpectralGrid, graph: MonotoneGraph, lam: float, u, warm=None):
    """Nodal values, resolvent, Yosida values and drift modes of the state u.

    ``warm`` is the previous step's resolvent, used as a Newton start.
    """
    u_nodes = grid.to_nodes(u)
    res = graph.resolvent_warm(lam, u_nodes, warm)
    yos = (u_nodes - res) / lam
    return u_nodes, res, yos, grid.to_modes(yos)


def _kick_rotate(cache: GroupCache, u, v, u_nodes, beta_modes, diffusion, dm):
    """Kick v with the drift and the diffused increment dm, then apply the group."""
    w = v - cache.dt * beta_modes
    if dm is not None:
        w = w + diffusion.apply(cache.grid, u_nodes, dm)
    return cache.rotate(u, w)


def step(
    cache: GroupCache,
    state: WaveState,
    graph: MonotoneGraph,
    lam: float,
    diffusion: Optional[DiffusionMap] = None,
    dm: Optional[np.ndarray] = None,
) -> WaveState:
    """Advance one step: kick with drift/noise at the left endpoint, then rotate."""
    if dm is not None and diffusion is None:
        raise ValueError("noise increment given without a diffusion map")
    u_nodes, _, _, beta_modes = _drift(cache.grid, graph, lam, state.u)
    u_new, v_new = _kick_rotate(cache, state.u, state.v, u_nodes, beta_modes, diffusion, dm)
    if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
        # a single step cannot know its index within a path
        raise NumericError("non-finite state after step", step=None)
    return WaveState(u_new, v_new)


def energy(grid: SpectralGrid, state: WaveState) -> float:
    """|grad u|^2 + |v|^2 in L2: the quadratic part of the invariant."""
    return float(np.sum(grid.mu * state.u**2) + np.sum(state.v**2))


def lyapunov(grid: SpectralGrid, state: WaveState, graph: MonotoneGraph, lam: float) -> float:
    """energy + 2 * integral of the Moreau envelope of u; deterministic invariant."""
    u_nodes = grid.to_nodes(state.u)
    return energy(grid, state) + 2.0 * grid.quad_integral(graph.moreau(lam, u_nodes))


def simulate_path(config: SolverConfig, path_index: int = 0) -> PathResult:
    """Run one trajectory; raises NumericError with the step index on blow-up."""
    grid, graph, lam = config.grid, config.graph, config.lam
    dt, n = config.dt, config.n_steps
    mu = grid.mu
    weight = grid.weight
    rng = path_rng(config.seed, path_index)
    u, v = build_initial_state(grid, config.u0, rng)
    cache = GroupCache(grid, dt)
    driver, diffusion = config.driver, config.diffusion
    eps_list = tuple(e for e in config.eps_pairing if e > 0.0)
    smoothers = {e: grid.smoother(e) for e in eps_list}

    rec_states = "states" in config.record
    rec_inc = "increments" in config.record
    rec_series = "functionals" in config.record
    times = dt * np.arange(n + 1)
    series = np.empty((n + 1, 6)) if rec_series else None
    u_hist = np.empty((n + 1,) + grid.shape) if rec_states else None
    v_hist = np.empty((n + 1,) + grid.shape) if rec_states else None
    beta_hist = np.empty((n,) + grid.shape) if rec_states else None
    inc_hist = np.empty((n,) + grid.shape) if rec_inc else None

    hasher = hashlib.sha256()
    u_first, v_first = u.copy(), v.copy()
    sup_energy = -np.inf
    chain_lhs = 0.0
    pairing = 0.0
    pairing_eps = {e: 0.0 for e in eps_list}
    warm = None
    draw = driver.increment_sampler(dt) if driver is not None else None

    for step_idx in range(n + 1):
        quad = float((mu * u * u).sum() + (v * v).sum())
        if not np.isfinite(quad) or quad > BLOWUP_ENERGY:
            raise NumericError(
                f"energy blow-up at step {step_idx} (lambda={lam:g}, energy={quad:.3e})", step=step_idx
            )
        if quad > sup_energy:
            sup_energy = quad
        u_nodes, res, yos, beta_modes = _drift(grid, graph, lam, u, warm)
        warm = res

        if rec_series:
            lyap = quad + 2.0 * weight * float((graph.potential(res) + 0.5 * lam * yos**2).sum())
            series[step_idx] = (
                quad,
                lyap,
                float(np.sqrt((u * u).sum())),
                float(np.sqrt((mu * u * u).sum())),
                float(np.sqrt((v * v).sum())),
                pairing,
            )
        if rec_states:
            u_hist[step_idx] = u
            v_hist[step_idx] = v
        if step_idx == n:
            break

        chain_lhs += dt * float((beta_modes * v).sum())
        pairing += dt * weight * float((yos * res).sum())
        for e in eps_list:
            filt = smoothers[e]
            res_f = graph.resolvent(lam, grid.to_nodes(filt * u))
            beta_f = grid.to_nodes(filt * beta_modes)
            pairing_eps[e] += dt * weight * float((res_f * beta_f).sum())

        dm = None
        if draw is not None:
            dm = draw(rng)
            hasher.update(dm.tobytes())
            if rec_inc:
                inc_hist[step_idx] = dm
        if rec_states:
            beta_hist[step_idx] = beta_modes
        u, v = _kick_rotate(cache, u, v, u_nodes, beta_modes, diffusion, dm)

    pairing_eps[0.0] = pairing
    return PathResult(
        path_index=path_index,
        times=times,
        sup_energy=sup_energy,
        chain_lhs=chain_lhs,
        pairing=pairing,
        pairing_eps=pairing_eps,
        u_first=u_first,
        v_first=v_first,
        u_final=u,
        v_final=v,
        increment_hash=hasher.hexdigest(),
        series=series,
        u=u_hist,
        v=v_hist,
        beta=beta_hist,
        increments=inc_hist,
    )


def duhamel_residual(result: PathResult, config: SolverConfig) -> float:
    """Re-derive u_n from the mild-form convolution sums; max L2 discrepancy.

    The sums are rebuilt from scratch with two running accumulators obtained
    from the angle-addition split sin((t_n - t_m)w) = sin(t_n w)cos(t_m w)
    - cos(t_n w)sin(t_m w), a different association order from the stepper's
    rotation recursion, at O(modes) work per step.
    """
    result.require("u", "beta")
    grid, dt = config.grid, config.dt
    om = np.sqrt(grid.mu)
    n = len(result.times) - 1
    with_noise = config.driver is not None
    if with_noise:
        result.require("increments")
    u0, v0 = result.u_first, result.v_first
    acc_cos = np.zeros(grid.shape)
    acc_sin = np.zeros(grid.shape)
    worst = 0.0
    for idx in range(n + 1):
        if idx > 0:
            m = idx - 1
            t_m = result.times[m]
            forcing = -dt * result.beta[m]
            if with_noise:
                u_nodes = grid.to_nodes(result.u[m])
                forcing = forcing + config.diffusion.apply(grid, u_nodes, result.increments[m])
            acc_cos += np.cos(t_m * om) * forcing
            acc_sin += np.sin(t_m * om) * forcing
        t_n = result.times[idx]
        c, s = np.cos(t_n * om), np.sin(t_n * om)
        predicted = c * u0 + (s / om) * v0 + (s * acc_cos - c * acc_sin) / om
        resid = float(np.sqrt(np.sum((result.u[idx] - predicted) ** 2)))
        if resid > worst:
            worst = resid
    return worst


def chain_rule_check(result: PathResult, config: SolverConfig) -> dict:
    """Compare the accumulated <yosida(u), v> integral with the envelope change."""
    grid, graph, lam = config.grid, config.graph, config.lam
    rhs = grid.quad_integral(graph.moreau(lam, grid.to_nodes(result.u_final))) - grid.quad_integral(
        graph.moreau(lam, grid.to_nodes(result.u_first))
    )
    lhs = result.chain_lhs
    return {"lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}


def ibp_residual(result: PathResult, phi: np.ndarray, psi: np.ndarray) -> float:
    """Telescoping integration-by-parts defect for (Z1, Z2) = (<u,phi>, <v,psi>).

    Z1Z2(T) - Z1Z2(0) = sum Z1 dZ2 + sum Z2 dZ1 + sum dZ1 dZ2 holds exactly;
    the return value is the absolute defect of the recorded path.
    """
    result.require("u", "v")
    axes = tuple(range(1, result.u.ndim))
    z1 = np.sum(result.u * phi, axis=axes)
    z2 = np.sum(result.v * psi, axis=axes)
    dz1, dz2 = np.diff(z1), np.diff(z2)
    total = np.sum(z1[:-1] * dz2) + np.sum(z2[:-1] * dz1) + np.sum(dz1 * dz2)
    return float(abs(z1[-1] * z2[-1] - z1[0] * z2[0] - total))
