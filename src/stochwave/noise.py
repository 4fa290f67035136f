"""Samplers for L2-valued square-integrable martingale increments.

Two drivers share the same nuclear covariance Q: a Q-Wiener process and a
compensator-free compound Poisson martingale (symmetric bounded jumps).  Per
unit time both have per-mode variance q_k, so downstream estimates can be
checked against the same trace targets.

Streams are derived counter-style from (master_seed, path_index) via Philox,
and increments are consumed in a fixed order (modes lexicographic, then time),
which is what makes coupled-noise continuation across regularization scales
possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# at import, not on first use: numpy.random loads OpenSSL through hashlib, a
# one-off cost of start-up that would otherwise land in a study's first path
from numpy.random import Generator, Philox, SeedSequence

from .spectral import SpectralGrid

__all__ = [
    "NuclearCovariance",
    "MartingaleDriver",
    "DiffusionMap",
    "path_rng",
    "ito_isometry_check",
    "DIFFUSION_MAPS",
]

_SQRT3 = np.sqrt(3.0)


def path_rng(master_seed: int, path_index: int) -> Generator:
    """Independent per-path stream: Philox keyed by (master_seed, path_index)."""
    ss = SeedSequence(entropy=int(master_seed), spawn_key=(int(path_index),))
    return Generator(Philox(ss))


@dataclass(frozen=True)
class NuclearCovariance:
    """Diagonal covariance q_k = q0 * |k|^(-r) on the grid's mode set.

    r > dim keeps the trace convergent as the mode cutoff grows.
    """

    q0: float
    r: float
    q: np.ndarray = field(repr=False)

    @classmethod
    def from_grid(cls, grid: SpectralGrid, q0: float, r: float) -> "NuclearCovariance":
        if not 0.0 <= q0 < math.inf:
            raise ValueError(f"noise.q0: q0 must be finite and >= 0, got {q0}")
        if not grid.dim < r < math.inf:
            raise ValueError(f"noise.r: decay exponent r must be finite and exceed dim={grid.dim}, got {r}")
        # |k| = sqrt(mu_k), so q = q0 * mu^(-r/2)
        q = q0 * grid.mu ** (-r / 2.0)
        return cls(q0=float(q0), r=float(r), q=q)

    @property
    def trace(self) -> float:
        return float(np.sum(self.q))


@dataclass(frozen=True)
class MartingaleDriver:
    """Increment sampler for the driving martingale M with <<M>>(t) = t*Q."""

    kind: str  # "wiener" | "poisson"
    covariance: NuclearCovariance
    rate: float = 0.0  # jump intensity, poisson only

    def __post_init__(self):
        if self.kind not in ("wiener", "poisson"):
            raise ValueError(f"noise.kind: unknown driver kind {self.kind!r}")
        if not math.isfinite(self.rate):
            raise ValueError(f"noise.rate: rate must be finite, got {self.rate}")
        if self.kind == "poisson" and self.rate <= 0.0:
            raise ValueError(f"noise.rate: poisson driver needs rate > 0, got {self.rate}")

    def increment_sampler(self, dt: float):
        """Precompiled sampler ``draw(rng, n_steps)`` of increments of M
        over steps of length dt.

        It returns an ``(n_steps, *q.shape)`` block of consecutive
        increments, equal bit for bit to ``n_steps`` blocks of one in a row
        from the same rng.
        """
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {dt}")
        q = self.covariance.q
        if self.kind == "wiener":
            scale = np.sqrt(q * dt)

            def draw(rng, n_steps):
                block = rng.standard_normal((n_steps, *scale.shape))
                block *= scale  # in place: a long block is one array, not two
                return block

            return draw
        # compound Poisson: Poisson(rate*dt) jumps, each sum_k sqrt(q_k/rate) xi_k e_k
        # with xi uniform on [-sqrt(3), sqrt(3)] (unit variance, symmetric, bounded)
        jump_scale = np.sqrt(q / self.rate)
        mean_jumps = self.rate * dt

        def jumps(rng):
            """One step's summed jumps, or None for a step without any."""
            n_jumps = int(rng.poisson(mean_jumps))
            if n_jumps == 0:
                return None
            xi = rng.uniform(-_SQRT3, _SQRT3, size=(n_jumps,) + jump_scale.shape)
            return jump_scale * xi.sum(axis=0)

        def draw(rng, n_steps):
            block = np.zeros((n_steps, *jump_scale.shape))
            for i in range(n_steps):
                step = jumps(rng)
                if step is not None:
                    block[i] = step
            return block

        return draw


def _clip_unit(x):
    # two ufunc calls: ndarray.clip goes through a Python wrapper of its own
    return np.minimum(np.maximum(x, -1.0), 1.0)


# named module-level callables only, so that a map, and a config holding one, pickles
DIFFUSION_MAPS = {
    "one": np.ones_like,
    "clip": _clip_unit,
    "sin": np.sin,
    "zero": np.zeros_like,  # switches the noise term off entirely
}


@dataclass(frozen=True)
class DiffusionMap:
    """Bounded Lipschitz scalar sigma; acts on noise by nodal multiplication."""

    name: str
    func: object = field(repr=False)

    @classmethod
    def from_name(cls, name: str) -> "DiffusionMap":
        try:
            func = DIFFUSION_MAPS[name]
        except KeyError:
            raise ValueError(f"noise.sigma: unknown diffusion map {name!r}") from None
        return cls(name=name, func=func)

    @property
    def multiplies(self) -> bool:
        """Whether ``apply`` multiplies at the nodes, and so reads the nodal increment."""
        return self.name not in ("one", "zero")

    def at_nodes(self, u_nodes: np.ndarray, dm_nodes: np.ndarray) -> np.ndarray:
        """sigma(u(x)) * dM(x) at the nodes, of nodal u and dM; the product ``apply`` transforms.

        Only a map that ``multiplies`` takes this form; stacks broadcast.  A
        stepper that sums its kick at the nodes calls it with its own
        ``grid._nodes`` of dM.
        """
        return self.func(u_nodes) * dm_nodes

    def apply(self, grid: SpectralGrid, u_nodes: np.ndarray, dm_coeffs: np.ndarray) -> np.ndarray:
        """Modes of sigma(u(x)) * dM(x); sigma evaluated at the pre-step state.

        Both arguments may be stacks of fields (leading axes) that broadcast
        against each other; ``to_nodes`` then runs once per increment.
        Where sigma multiplies, this is ``grid._modes`` of ``at_nodes`` of
        ``grid._nodes(dm_coeffs)``, bit for bit.
        """
        if u_nodes.shape[-grid.dim :] != grid.shape or dm_coeffs.shape[-grid.dim :] != grid.shape:
            raise ValueError("field shapes do not match the grid")
        if self.name == "one":
            return dm_coeffs
        if self.name == "zero":
            return np.zeros(np.broadcast_shapes(u_nodes.shape, dm_coeffs.shape))
        return grid._modes(self.at_nodes(u_nodes, grid._nodes(dm_coeffs)))


# Most entries one block draw holds (512 KiB of float64); a longer path is
# drawn in several blocks from the same stream, which gives the same numbers.
_BLOCK_ENTRIES = 1 << 16


def _increment_blocks(draw, rng, n_steps: int, per_block: int):
    """An iterator over blocks of the first n_steps increments of one stream.

    A block is an ``(m, *q.shape)`` array of 1 <= m <= per_block consecutive
    steps; stacked, the blocks are n_steps one-step draws in step order.
    """
    return (draw(rng, min(per_block, n_steps - start)) for start in range(0, n_steps, per_block))


def _path_sums(driver: MartingaleDriver, dt: float, n_steps: int, master_seed: int, paths, term):
    """Per path index in ``paths``: ``term(dM_1) + ... + term(dM_n)`` over its first n_steps increments.

    Each path draws from its own ``path_rng`` stream, all through one
    sampler, in blocks of at most ``_BLOCK_ENTRIES`` entries; ``term`` maps a
    block of m consecutive increments to its m per-step terms.  The terms
    are added one at a time in step order, which is the running sum of a
    per-step loop, bit for bit (``np.sum`` over a block would add pairwise).
    """
    draw = driver.increment_sampler(dt)
    per_block = max(1, _BLOCK_ENTRIES // driver.covariance.q.size)
    sums = []
    for p in paths:
        total = 0.0
        # map keeps no block alive across draws, so one block's memory serves every path
        for rows in map(term, _increment_blocks(draw, path_rng(master_seed, p), n_steps, per_block)):
            total = np.add.accumulate(np.concatenate((np.broadcast_to(total, rows.shape[1:])[None], rows)))[-1]
        sums.append(total)
    return sums


def _mean_se(values):
    """(mean, standard error) of a sample: the error is 0 for one value, and both are nan for none."""
    arr = np.asarray(values, dtype=float)
    if not len(arr):
        return float("nan"), float("nan")
    mean = float(np.mean(arr))
    se = float(np.std(arr, ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, se


def ito_isometry_check(
    driver: MartingaleDriver,
    t_final: float,
    n_steps: int,
    n_paths: int,
    master_seed: int,
) -> dict:
    """Monte Carlo check of E|M(T)|_{L2}^2 against T * trace(Q).

    The integrand is the identity, so M(T) is just the accumulated increment;
    the estimator averages the squared coefficient norm across paths.
    """
    if not 0.0 <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    rhs = t_final * driver.covariance.trace
    if t_final == 0.0:
        return {"lhs_estimate": 0.0, "rhs": rhs, "std_error": 0.0, "n_paths": n_paths}
    ends = _path_sums(driver, t_final / n_steps, n_steps, master_seed, range(n_paths), lambda block: block)
    lhs, se = _mean_se([np.sum(end**2) for end in ends])
    return {"lhs_estimate": lhs, "rhs": rhs, "std_error": se, "n_paths": n_paths}
