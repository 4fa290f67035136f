from types import SimpleNamespace

import numpy as np
import pytest

from stochwave import simulate_path
from stochwave.solver import _drift, _kick_rotate, _run


def _record_path(config, path_index=0):
    """``simulate_path`` plus the whole history of the path, read through its observer.

    The returned namespace holds every PathResult field plus ``u`` and ``v``
    (n+1 rows, the last being u_final/v_final), ``beta`` and ``beta_nodes``
    (n rows, the drift's modes and nodal values) and ``increments`` (n rows,
    zeros on a noise-free path).  The observer keeps the arrays it is handed
    without copying them.
    """
    seen = []
    result = simulate_path(config, path_index, lambda k, *arrays: seen.append(arrays))
    zero = config.grid.zero_field()
    u, v, beta, increments, beta_nodes = zip(*seen)
    return SimpleNamespace(
        **vars(result),
        u=np.array(u + (result.u_final,)),
        v=np.array(v + (result.v_final,)),
        beta=np.array(beta),
        beta_nodes=np.array(beta_nodes),
        increments=np.array([zero if dm is None else dm for dm in increments]),
    )


@pytest.fixture(scope="session")
def record_path():
    return _record_path


def _path_pairing(config, path_index=0):
    """The kernel's pairing of one path: ``_run``'s 1 x 1 block with ``pairing``, read at [0, 0].

    A no-op observer gives it the modal kick of every observed path, so it
    is ``record_path``'s and ``functional_series``'s path.
    """
    result, _ = _run(config, (path_index,), (config.lam,), lambda *step: None, pairing=True)
    return float(result.pairing[0, 0])


@pytest.fixture(scope="session")
def path_pairing():
    return _path_pairing


def _kernel_step(cache, u, v, graph, lam, diffusion, dm):
    """(u, v) after one step of the kernel's own pieces, without a hint; dm None or all zero skips the noise."""
    u_nodes, _, _, beta_modes = _drift(cache.grid, graph._yosida_at(lam), u, None, None)
    jumps = ... if dm is not None and np.count_nonzero(dm) else None
    return _kick_rotate(cache, u, v, u_nodes, beta_modes, diffusion, dm, jumps, None, None, None)


@pytest.fixture(scope="session")
def kernel_step():
    return _kernel_step
