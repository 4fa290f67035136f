from types import SimpleNamespace

import numpy as np
import pytest

from stochwave import simulate_path
from stochwave.solver import _drift, _kick_rotate
from stochwave.studies import _pairing_job


def _record_path(config, path_index=0):
    """``simulate_path`` plus the whole history of the path, read through its observer.

    The returned namespace holds every PathResult field plus ``u`` and ``v``
    (n+1 rows, the last being u_final/v_final), ``beta`` and ``beta_nodes``
    (n rows, the drift's modes and nodal values), ``res`` (n rows, the
    kernel's resolvents, or None where the Yosida map takes none) and
    ``increments`` (n rows, zeros on a noise-free path).  The observer
    collects the fields by name and keeps the arrays it is handed without
    copying them.
    """
    seen = []
    result = simulate_path(config, path_index, lambda k, **fields: seen.append(fields))
    zero = config.grid.zero_field()

    def column(name):
        return [fields[name] for fields in seen]

    res = column("res")
    return SimpleNamespace(
        **vars(result),
        u=np.array(column("u") + [result.u_final]),
        v=np.array(column("v") + [result.v_final]),
        beta=np.array(column("beta_modes")),
        beta_nodes=np.array(column("beta_nodes")),
        res=None if res[0] is None else np.array(res),
        increments=np.array([zero if dm is None else dm for dm in column("dm")]),
    )


@pytest.fixture(scope="session")
def record_path():
    return _record_path


def _path_pairing(config, path_index=0):
    """The unsmoothed pairing of one path: ``_pairing_job``'s 1 x 1 block at eps = 0, read at [0, 0].

    Its observer gives it the modal kick of every observed path, so it is
    ``record_path``'s and ``functional_series``'s path.
    """
    values, _ = _pairing_job(config, (config.lam,), (path_index,), eps_values=(0.0,))
    return float(values[0, 0, 0])


@pytest.fixture(scope="session")
def path_pairing():
    return _path_pairing


def _kernel_step(cache, u, v, graph, lam, diffusion, dm):
    """(u, v) after one step of the kernel's own pieces, without a hint; dm None or all zero skips the noise."""
    u_nodes, _, _, beta_modes = _drift(cache.grid, graph._yosida_at(lam), u, None, None)
    jumps = ... if dm is not None and np.count_nonzero(dm) else None
    return _kick_rotate(cache, u, v, u_nodes, beta_modes, diffusion, dm, jumps, None, None)


@pytest.fixture(scope="session")
def kernel_step():
    return _kernel_step
