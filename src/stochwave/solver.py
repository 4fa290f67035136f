"""Time stepping for the regularized semilinear wave system.

One step kicks the velocity with the Yosida drift and the diffused noise
increment at the left endpoint, then applies the exact wave group over dt
(mode-wise rotation).  The linear flow is therefore exact, and all group
identities (energy conservation, Duhamel re-summation) hold at round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NumericError
from .graphs import MonotoneGraph
from .noise import DiffusionMap, MartingaleDriver, _increment_blocks, path_rng
from .spectral import MAX_STEP_ENTRIES, SpectralGrid

__all__ = [
    "GroupCache",
    "SolverConfig",
    "PathResult",
    "simulate_path",
    "functional_series",
    "duhamel_residual",
    "chain_rule_check",
    "energy",
    "lyapunov",
    "ibp_residual",
    "build_initial_state",
]

BLOWUP_ENERGY = 1e12
# Most increment entries the kernel draws at once per path (32 KiB of
# float64): enough steps per draw call to amortize it, few enough that a
# job's memory stays that of its state and observers.  Per path, so that a
# block's draw calls span as many steps as a single path's.
_DRAW_ENTRIES = 1 << 12

SERIES_COLUMNS = ("t", "energy", "lyapunov", "l2_u", "h1_u", "l2_v", "pairing_running")


class GroupCache:
    """Mode-wise entries of the wave group over a fixed step dt, and mu.

    cos_t = cos(dt*sqrt(mu)), sinc = sin(dt*sqrt(mu))/sqrt(mu),
    msin = -sqrt(mu)*sin(dt*sqrt(mu)); cos_t^2 + mu*sinc^2 = 1 per mode.
    The tables have the grid's shape, or with ``shape`` (a stepping
    kernel's (P, L, *grid.shape) stack) that shape, every field a copy of
    the grid's: a product of same-shape arrays costs numpy about half a
    broadcast one, and the values, so the bits, are the same.
    """

    def __init__(self, grid: SpectralGrid, dt: float, shape=None):
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {dt}")
        self.grid = grid
        self.dt = float(dt)
        om = np.sqrt(grid.mu)
        s = np.sin(dt * om)
        tables = (grid.mu, np.cos(dt * om), s / om, -om * s)
        if shape is not None:
            tables = (np.broadcast_to(t, shape).copy() for t in tables)
        self.mu, self.cos_t, self.sinc, self.msin = tables

    def rotate(self, u, v, tmp=None):
        """(cos_t*u + sinc*v, msin*u + cos_t*v) as new arrays.

        ``tmp``, a scratch array of their shape, takes the products of v in
        place of new temporaries; u and v are not written.
        """
        u_new = self.cos_t * u
        u_new += np.multiply(self.sinc, v, out=tmp)
        v_new = self.msin * u
        v_new += np.multiply(self.cos_t, v, out=tmp)
        return u_new, v_new


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

    def __post_init__(self):
        for key, name in (("solver.lambda", "lam"), ("solver.dt", "dt"), ("solver.t_final", "t_final")):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{key} (SolverConfig.{name} = {value}) must be finite")
        if self.lam <= 0.0:
            raise ValueError(f"solver.lambda (SolverConfig.lam) must be positive, got {self.lam}")
        if self.dt <= 0.0:
            raise ValueError(f"solver.dt (SolverConfig.dt) must be positive, got {self.dt}")
        if self.t_final < self.dt:
            raise ValueError(f"solver.t_final (SolverConfig.t_final) {self.t_final} is below one step of solver.dt")
        ratio = self.t_final / self.dt
        if ratio * self.grid.size > MAX_STEP_ENTRIES:
            raise ValueError(
                f"solver.t_final / solver.dt = {ratio:g} steps times {self.grid.size} modes exceeds "
                f"the cap of {MAX_STEP_ENTRIES} step entries (n_steps * N^d)"
            )
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, round(ratio)):
            raise ValueError(f"solver.t_final / solver.dt = {ratio} is not an integer step count")
        driver = self.driver
        if driver is not None and driver.kind == "poisson":
            # t_final >= dt and N^d >= 1, so the cap also keeps rate * dt, the
            # mean jump count of one step, far below numpy's Poisson limit
            jumps = driver.rate * self.t_final
            if jumps * self.grid.size > MAX_STEP_ENTRIES:
                raise ValueError(
                    f"noise.rate (MartingaleDriver.rate = {driver.rate:g}) times solver.t_final is {jumps:g} "
                    f"expected jumps of {self.grid.size} modes each, above the cap of {MAX_STEP_ENTRIES} "
                    "jump entries per path"
                )
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"study.seed (SolverConfig.seed) must be a non-negative integer, got {self.seed!r}")
        try:
            _parse_initial_spec(self.grid, self.u0)
        except ValueError as exc:
            raise ValueError(f"solver.u0 (SolverConfig.u0) {self.u0!r}: {exc}") from None

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class PathResult:
    """One simulated trajectory: its sup of the energy and its final state.

    ``simulate_path``'s has a float and grid-shaped fields, ``_run``'s a
    block's (P, L) and (P, L, *grid.shape) arrays.  Anything before the end
    is read through an observer.
    """

    sup_energy: float
    u_final: np.ndarray
    v_final: np.ndarray


def _parse_initial_spec(grid: SpectralGrid, spec: str):
    """(kind, band) of an initial data spec token; band is None for zero."""
    head, sep, arg = spec.strip().partition(":")
    if head == "zero" and not sep:
        return head, None
    if head not in ("smooth", "random"):
        raise ValueError(f"unknown initial data spec {spec!r}")
    k_max = int(arg) if sep else 8
    if not 1 <= k_max <= grid.n_modes:
        raise ValueError(f"initial data band {k_max} outside 1..{grid.n_modes}")
    return head, k_max


def build_initial_state(grid: SpectralGrid, spec: str, rng=None):
    """Initial (u, v) coefficients from a spec token: zero | smooth:K | random:K.

    smooth:K puts 1/mu_k on every mode with all indices <= K (finite potential
    mass for all built-in graphs); random:K draws those amplitudes as centered
    Gaussians with standard deviation 1/mu_k.  v starts at zero either way.
    """
    head, k_max = _parse_initial_spec(grid, spec)
    if head == "zero":
        return grid.zero_field(), grid.zero_field()
    sel = (grid.mode_indices <= k_max).all(axis=1).reshape(grid.shape)
    amp = np.where(sel, 1.0 / grid.mu, 0.0)
    if head == "random":
        if rng is None:
            raise ValueError("random initial data needs an rng stream")
        u = amp * rng.standard_normal(grid.shape)
    else:
        u = amp
    return u, grid.zero_field()


def _drift(grid: SpectralGrid, yosida, u, warm, out, modes=True):
    """Nodal values, resolvent, Yosida values and drift modes of the state u.

    u is a field or a stack of fields; ``yosida(x, y0, out)`` is the graph's
    Yosida map at lam (``MonotoneGraph._yosida_at``).  ``warm`` is the
    previous step's resolvent, used as a Newton start, or None.  ``out``, an
    array of u's shape or None, receives the Yosida values.  The resolvent is
    the one the Yosida map took, or None where it takes none (the sign
    graph).  The drift modes are None where ``modes`` is false: a kick
    summed at the nodes reads only the Yosida values.
    """
    u_nodes = grid._nodes(u)
    yos, res = yosida(u_nodes, warm, out)
    return u_nodes, res, yos, grid._modes(yos) if modes else None


def _kick_rotate(cache: GroupCache, u, v, u_nodes, beta_modes, diffusion, dm, jumps, w, tmp):
    """Kick v with the drift and the diffused increment dm, then apply the group.

    ``jumps`` is the row index of the fields that dm moves: ``...`` for all
    of them; in a (P, L) stack, where dm has one (1, *grid.shape) row per
    path, a (P,) mask of the paths that jump; None where dm is all zero (a
    jump-free compound-Poisson step), whose exactly-zero product is skipped,
    so that only the sign of a zero entry of v can differ.  dm[jumps] is
    transformed here, once per step, each row with the bits it gets alone
    (see ``SpectralGrid._transform``).  ``w`` and ``tmp``, scratch arrays of
    u's shape or None, take the kicked velocity and the rotation's products
    in place of new temporaries; u, v, beta_modes and dm are never written.
    Returns new arrays.

    With ``beta_modes`` None, ``w`` holds the Yosida values at the nodes and
    the kick is summed there: -dt*beta_lam(u) in place, plus sigma(u)*dM
    (``DiffusionMap.at_nodes`` of the nodal dm[jumps]) on the fields that
    jump, then one analysis transform, then v.  A field that does not jump
    takes the same formula, so its bits do not depend on whether its
    block-mates jump.
    """
    grid, fused = cache.grid, beta_modes is None
    if fused:
        w *= -cache.dt
    else:
        w = np.multiply(beta_modes, -cache.dt, out=w)  # v - dt*beta, bit for bit
        w += v
    if jumps is not None:
        rows, dm = u_nodes[jumps], dm[jumps]
        w[jumps] += diffusion.at_nodes(rows, grid._nodes(dm)) if fused else diffusion.apply(grid, rows, dm)
    if fused:
        w = grid._modes(w)
        w += v
    return cache.rotate(u, w, tmp)


def _row_dots(a, b, batch_ndim=2):
    """np.vdot of each field of two stacks, with its bits, e.g. of (P, L, *grid.shape) stacks.

    The first ``batch_ndim`` axes index the fields; a stack with ones there
    (a weight field) broadcasts against the other.  np.vecdot over the
    flattened field axes makes the BLAS dot call per field that np.vdot
    makes; np.einsum would not.
    """
    return np.vecdot(a.reshape(*a.shape[:batch_ndim], -1), b.reshape(*b.shape[:batch_ndim], -1))


def _energy_terms(mu, u, v, dot=np.vdot, out=None):
    """(|grad u|^2, |v|^2), one BLAS dot each per field; every quadratic energy is their sum.

    ``out``, an array of u's shape, takes the product mu * u.
    """
    return dot(np.multiply(mu, u, out=out), u), dot(v, v)


def energy(grid: SpectralGrid, u, v) -> float:
    """|grad u|^2 + |v|^2 in L2 of the mode coefficients u, v: the quadratic part of the invariant."""
    grad2, kin2 = _energy_terms(grid.mu, u, v)
    return float(grad2 + kin2)


def _envelope_mass(weight, graph: MonotoneGraph, lam: float, res, yos) -> float:
    """Integrated Moreau envelope weight * sum(j(res) + lam/2 * yos^2) of nodal resolvent/Yosida values."""
    return weight * (float(graph.potential(res).sum()) + 0.5 * lam * float(np.vdot(yos, yos)))


def _cold_envelope_mass(grid: SpectralGrid, graph: MonotoneGraph, lam: float, u) -> float:
    """``_envelope_mass`` of the modes u through the cold resolvent and the public Yosida map."""
    u_nodes = grid.to_nodes(u)
    return _envelope_mass(grid.weight, graph, lam, graph.resolvent(lam, u_nodes), graph.yosida(lam, u_nodes))


def lyapunov(grid: SpectralGrid, u, v, graph: MonotoneGraph, lam: float) -> float:
    """energy + 2 * integral of the Moreau envelope of u; deterministic invariant."""
    return energy(grid, u, v) + 2.0 * _cold_envelope_mass(grid, graph, lam, u)


def simulate_path(
    config: SolverConfig, path_index: int = 0, observe: Optional[Callable] = None
) -> PathResult:
    """Run one trajectory; raises NumericError with the step index on blow-up.

    ``observe(k, **fields)``, if given, is called once per step k < n with
    the fields ``_run`` hands its observer (u, v, u_nodes, beta_nodes,
    beta_modes, res, dm), each a grid-shaped view or None.  It is the only
    way to read a path between its ends; the state after the last step is
    ``u_final``/``v_final``.  The path is ``_run``'s 1 x 1 block of
    (path_index, config.lam), read at [0, 0], so the result has a float
    ``sup_energy`` and grid-shaped fields.  An observer reads the drift
    modes, so the kick's form (see ``_run``) is that of an observed block.
    """

    def block_observe(k, **fields):
        observe(k, **{name: None if a is None else a[0, 0] for name, a in fields.items()})

    result, blown = _run(config, (path_index,), (config.lam,), block_observe if observe is not None else None)
    step = int(blown[0, 0])
    if step >= 0:
        raise NumericError(
            f"energy blow-up at step {step} (lambda={config.lam:g}, energy={result.sup_energy[0, 0]:.3e})", step=step
        )
    return PathResult(float(result.sup_energy[0, 0]), result.u_final[0, 0], result.v_final[0, 0])


def functional_series(config: SolverConfig, path_index: int = 0) -> np.ndarray:
    """The (n+1, 7) per-step functionals of one path, in ``SERIES_COLUMNS`` order.

    Row k holds t_k, the energy, the Lyapunov functional, |u|, |grad u|,
    |v| and the pairing summed before step k, with the kernel's operations.
    An observer reads the kernel's nodal drift and resolvent, and resolves
    the handed nodal state itself where the Yosida map takes none (sign).
    The last row is read from u_final/v_final through ``_drift`` with the
    kernel's last resolvent as the hint, so Newton runs once per step.  The
    observed path takes the modal kick (see ``_run``).
    """
    return _series_path(config, path_index)[0]


def _series_path(config: SolverConfig, path_index: int):
    """(``functional_series``, ``simulate_path`` result) of one path: the series and its path's ends."""
    grid, graph, lam, dt, n = config.grid, config.graph, config.lam, config.dt, config.n_steps
    resolve = graph._resolvent_at(lam)
    series = np.empty((n + 1, len(SERIES_COLUMNS)))
    series[:, 0] = dt * np.arange(n + 1)
    last_res, pairing = None, 0.0

    def observe(k, u, v, u_nodes, beta_nodes, res, **_):
        nonlocal last_res, pairing
        last_res = res
        res = resolve(u_nodes, None) if res is None else res
        grad2, kin2 = _energy_terms(grid.mu, u, v)
        quad = grad2 + kin2
        mass = _envelope_mass(grid.weight, graph, lam, res, beta_nodes)
        series[k, 1:] = quad, quad + 2.0 * mass, math.sqrt(np.vdot(u, u)), math.sqrt(grad2), math.sqrt(kin2), pairing
        pairing = pairing + dt * grid.weight * np.vdot(beta_nodes, res)

    result = simulate_path(config, path_index, observe)
    u_nodes, res, yos, _ = _drift(grid, graph._yosida_at(lam), result.u_final, last_res, None, False)
    observe(n, result.u_final, result.v_final, u_nodes, yos, res)
    return series, result


def _increments(draw, rngs, n: int, size: int):
    """Per step, (dm, jumps): the paths' increments and the row index of those that jump.

    Each path draws from its own stream, in blocks of at most
    ``_DRAW_ENTRIES`` entries per path.  dm is a (P, 1, *grid.shape) view
    of the drawn block, one row per path, which its lambdas share.
    ``jumps``, the row index of the paths that jump (see ``_kick_rotate``),
    comes from one any per (step, path) of the block: ``...`` where every
    path jumps (every Wiener step), a (P,) mask where some do, None where
    none does.
    """
    per_block = max(1, _DRAW_ENTRIES // size)
    for parts in zip(*(_increment_blocks(draw, rng, n, per_block) for rng in rngs)):
        block = np.stack(parts, 1)[:, :, None]  # (m, P, 1, *shape): a lambda axis
        rows = block.reshape(len(block), len(rngs), -1).any(axis=2)
        every, some = rows.all(axis=1).tolist(), rows.any(axis=1).tolist()
        yield from zip(block, (... if all_ else row if any_ else None for row, all_, any_ in zip(rows, every, some)))


def _run(config: SolverConfig, paths, lams, observe: Optional[Callable] = None):
    """The stepping loop over a block of P path indices x L lambdas.

    Returns (PathResult, blow-up steps).  The state arrays have shape
    (P, L, *grid.shape) and the result's fields are indexed [path, lambda];
    ``simulate_path`` is its 1 x 1 block.  A (path, lambda) row that trips
    the guard leaves with its step index in the (P, L) step array (-1 for
    the rows that finished) and its energy at that step in ``sup_energy``;
    its state is zeroed, so that the others go on without a warning.  Every
    row runs the operation order of its ``simulate_path`` path (observed if
    the block is), and its transforms and dots give each field the bits it
    gets alone (see ``SpectralGrid._transform`` and ``_row_dots``), so it
    holds that path's bits whatever its block-mates.  Each path draws
    once per step from its own stream (see ``_increments``), and its lambdas
    share the draw.  Nothing is recorded: the result holds the sup of the
    energy (the blow-up guard needs the energy anyway), the final state and
    the blow-up steps, and an observer reads the rest.

    ``observe(k, u=, v=, u_nodes=, beta_nodes=, beta_modes=, res=, dm=)``,
    if given, is called once per step k < n, after the step's increment
    draw and before its kick, with all the step computed: the state, its
    nodal values, the Yosida drift at the nodes and in the modes (the
    ``grid._modes`` of beta_nodes, bit for bit), the resolvent the graph's
    Yosida map took (None for the sign graph, whose map takes none) and the
    increment, one (1, *grid.shape) row per path that its lambdas share
    (None without a driver).  An observer names the fields it reads and
    takes ``**_`` for the rest.  The kernel never writes to an array it has
    handed out, so an observer may keep it.

    Work that is the same at every step is done once per call: the group
    tables, mu and the lambda table at the state's shape, the Yosida map's
    lambda constants, the scratch arrays; the jump test once per drawn
    block.  The drift is the graph's ``_yosida_at`` map, computed once per
    step.  The drift modes are computed only where read: by an observer,
    and by a kick that adds modal noise or none.  Where sigma multiplies at
    the nodes under a driver and no observer reads them, the kick is summed
    at the nodes (see ``_kick_rotate``): one transform per step fewer, and
    the state moves at round-off from the modal kick's.
    """
    grid, graph, dt, n = config.grid, config.graph, config.dt, config.n_steps
    rngs = [path_rng(config.seed, p) for p in paths]
    batch = (len(rngs), len(lams))
    # numpy's reductions and ufuncs would cost more than the arithmetic on the
    # floats of a 1 x 1 block; max(quad, sup) keeps a nan quad, as np.maximum does
    dot, every, top = (np.vdot, bool, max) if batch == (1, 1) else (_row_dots, np.ndarray.all, np.maximum)
    lam = np.reshape(np.array(lams, dtype=float), (len(lams),) + (1,) * grid.dim)
    lam = np.broadcast_to(lam, batch + grid.shape).copy()
    u = np.empty(batch + grid.shape)
    u[:] = np.array([build_initial_state(grid, config.u0, rng)[0] for rng in rngs])[:, None]
    v = np.zeros(batch + grid.shape)
    cache = GroupCache(grid, dt, u.shape)
    mu = cache.mu
    # Scratch, never handed out: mu * u, then a product of the kick, go to tmp;
    # the Yosida values, then the kicked velocity, to w.  Each is used up
    # before the next is written.  An observer is handed the Yosida values,
    # so with one they get a new array every step.
    w, tmp = np.empty(u.shape), np.empty(u.shape)
    driver, diffusion = config.driver, config.diffusion
    nodes = driver is not None and diffusion.multiplies

    yosida = graph._yosida_at(lam, len(batch))
    # the observer reads the drift modes, and so does a kick that adds modal
    # noise or none; any other kick is summed at the nodes
    modes = observe is not None or not nodes

    sup_energy = -np.inf
    blown = np.full(batch, -1)
    warm = None
    increments = None
    if driver is not None:
        increments = _increments(driver.increment_sampler(dt), rngs, n, grid.size)

    for step_idx in range(n + 1):
        grad2, kin2 = _energy_terms(mu, u, v, dot, tmp)
        quad = grad2 + kin2
        sup_energy = top(quad, sup_energy)  # before the guard: a row that trips keeps its energy
        ok = quad <= BLOWUP_ENERGY  # False for nan and inf too
        if not every(ok):
            trip = ~ok
            blown[trip] = step_idx
            if (blown >= 0).all():
                break
            u[trip] = v[trip] = quad[trip] = 0.0
            if warm is not None:
                warm = warm.copy()  # an observer may keep the hint it was handed
                warm[trip] = 0.0
        if step_idx == n:
            break
        yos_out = w if observe is None else np.empty(u.shape)
        u_nodes, warm, yos, beta_modes = _drift(grid, yosida, u, warm, yos_out, modes)
        dm, jumps = next(increments) if increments is not None else (None, None)
        if observe is not None:
            observe(step_idx, u=u, v=v, u_nodes=u_nodes, beta_nodes=yos, beta_modes=beta_modes, res=warm, dm=dm)
        u, v = _kick_rotate(cache, u, v, u_nodes, beta_modes, diffusion, dm, jumps, w, tmp)

    return PathResult(sup_energy=np.broadcast_to(sup_energy, batch), u_final=u, v_final=v), blown


def duhamel_residual(config: SolverConfig, path_index: int = 0) -> float:
    """Re-derive every u_k of one path from the mild-form convolution sums; max L2 discrepancy.

    The sums are rebuilt from scratch, while the path steps, with two running
    accumulators obtained from the angle-addition split sin((t_n - t_m)w) =
    sin(t_n w)cos(t_m w) - cos(t_n w)sin(t_m w), a different association order
    from the stepper's rotation recursion, at O(modes) work per step.
    """
    grid, dt, n = config.grid, config.dt, config.n_steps
    diffusion = config.diffusion
    om = np.sqrt(grid.mu)
    times = dt * np.arange(n + 1)
    acc_cos = np.zeros(grid.shape)
    acc_sin = np.zeros(grid.shape)
    start = []  # (u_0, v_0) as handed to the observer
    worst = 0.0

    def check(k, u):
        nonlocal worst
        u0, v0 = start
        c, s = np.cos(times[k] * om), np.sin(times[k] * om)
        predicted = c * u0 + (s / om) * v0 + (s * acc_cos - c * acc_sin) / om
        resid = float(np.sqrt(np.sum((u - predicted) ** 2)))
        if resid > worst:
            worst = resid

    def observe(k, u, v, u_nodes, beta_modes, dm, **_):
        nonlocal acc_cos, acc_sin
        if k == 0:
            start.extend((u, v))
        check(k, u)
        forcing = -dt * beta_modes
        if dm is not None:
            forcing = forcing + diffusion.apply(grid, u_nodes, dm)
        acc_cos += np.cos(times[k] * om) * forcing
        acc_sin += np.sin(times[k] * om) * forcing

    result = simulate_path(config, path_index, observe)
    check(n, result.u_final)
    return worst


def chain_rule_check(config: SolverConfig, path_index: int = 0) -> dict:
    """Compare one path's <yosida(u), v> integral with the change of its envelope mass.

    An observer adds dt * <beta_modes, v> at every step, before its kick,
    and keeps the first state; the envelope masses of that state and of the
    last go through the cold resolvent (``_cold_envelope_mass``).
    """
    grid, graph, lam, dt = config.grid, config.graph, config.lam, config.dt
    lhs = 0.0
    start = []

    def observe(k, u, v, beta_modes, **_):
        nonlocal lhs
        if k == 0:
            start.append(u)
        lhs = lhs + dt * np.vdot(beta_modes, v)

    result = simulate_path(config, path_index, observe)
    rhs = _cold_envelope_mass(grid, graph, lam, result.u_final) - _cold_envelope_mass(grid, graph, lam, start[0])
    lhs = float(lhs)
    return {"lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}


def ibp_residual(config: SolverConfig, probes, path_index: int = 0) -> float:
    """Worst telescoping integration-by-parts defect of one path over its (phi, psi) probes.

    For (Z1, Z2) = (<u,phi>, <v,psi>), Z1Z2(T) - Z1Z2(0) = sum Z1 dZ2 +
    sum Z2 dZ1 + sum dZ1 dZ2 holds exactly; an observer records Z1 and Z2 at
    every step, and each probe's defect is the absolute residual of the identity.
    """
    phi, psi = (np.array(fields) for fields in zip(*probes))  # one row per probe
    axes = tuple(range(1, phi.ndim))
    z1 = np.empty((len(phi), config.n_steps + 1))
    z2 = np.empty_like(z1)

    def observe(k, u, v, **_):
        (u * phi).sum(axis=axes, out=z1[:, k])
        (v * psi).sum(axis=axes, out=z2[:, k])

    result = simulate_path(config, path_index, observe)
    observe(config.n_steps, result.u_final, result.v_final)
    worst = 0.0
    for a, b in zip(z1, z2):
        dz1, dz2 = np.diff(a), np.diff(b)
        total = np.sum(a[:-1] * dz2) + np.sum(b[:-1] * dz1) + np.sum(dz1 * dz2)
        worst = max(worst, float(abs(a[-1] * b[-1] - a[0] * b[0] - total)))
    return worst
