from types import SimpleNamespace

import numpy as np
import pytest

from stochwave import simulate_path
from stochwave.solver import _drift, _kick_rotate


def _record_path(config, path_index=0):
    """``simulate_path`` plus the whole history of the path, read through its observer.

    The returned namespace holds every PathResult field plus ``u`` and ``v``
    (n+1 rows, the last being u_final/v_final), ``beta`` (n rows) and
    ``increments`` (n rows, zeros on a noise-free path).  The observer keeps
    the arrays it is handed without copying them.
    """
    seen = []
    result = simulate_path(config, path_index, lambda k, u, v, beta, dm: seen.append((u, v, beta, dm)))
    zero = config.grid.zero_field()
    return SimpleNamespace(
        **vars(result),
        u=np.array([u for u, _, _, _ in seen] + [result.u_final]),
        v=np.array([v for _, v, _, _ in seen] + [result.v_final]),
        beta=np.array([beta for _, _, beta, _ in seen]),
        increments=np.array([zero if dm is None else dm for _, _, _, dm in seen]),
    )


@pytest.fixture(scope="session")
def record_path():
    return _record_path


def _kernel_step(cache, u, v, graph, lam, diffusion, dm):
    """(u, v) after one step of the kernel's own pieces, without a hint; dm None or all zero skips the noise."""
    u_nodes, _, _, beta_modes = _drift(cache.grid, graph._resolvent_at(lam), lam, u, None, None)
    jumps = dm is not None and bool(np.count_nonzero(dm))
    return _kick_rotate(cache, u, v, u_nodes, beta_modes, diffusion, dm, jumps, None, None, None)


@pytest.fixture(scope="session")
def kernel_step():
    return _kernel_step
