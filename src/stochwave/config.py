"""Sectioned key=value run configuration.

The format is line oriented: a ``[section]`` token opens a section and any
``key=value`` tokens on that or following lines belong to it, e.g.::

    [domain] dim=1 n_modes=64
    [graph] kind=cubic
    [noise] kind=wiener q0=1 r=2 sigma=one
    [solver] lambda=1e-2 dt=1e-3 t_final=1 u0=smooth:8 record=functionals
    [study] n_paths=200 seed=42

Unknown sections or keys are rejected by name.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .graphs import parse_graph
from .noise import DiffusionMap, MartingaleDriver, NuclearCovariance
from .solver import SolverConfig
from .spectral import SpectralGrid
from .studies import StudySpec

__all__ = ["parse_config_text", "load_config", "apply_overrides", "build_solver_config", "build_study_spec", "DEFAULTS"]

DEFAULTS = {
    "domain.dim": 1,
    "domain.n_modes": 64,
    "graph.kind": "cubic",
    "noise.kind": "wiener",
    "noise.q0": 1.0,
    "noise.r": 2.0,
    "noise.rate": 5.0,
    "noise.sigma": "one",
    "solver.lambda": 1e-2,
    "solver.dt": 1e-3,
    "solver.t_final": 1.0,
    "solver.u0": "smooth:8",
    "solver.record": "functionals",
    "study.n_paths": 200,
    "study.seed": 42,
    "study.lambda_grid": "1e-1,1e-2,1e-3,1e-4",
    "study.eps_grid": "1e-2,1e-3,0",
    "study.workers": 1,
}


def _convert(key, raw):
    kind = type(DEFAULTS[key])  # every key's type is its default's
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"config key '{key}' expects {kind.__name__}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"config key '{key}' expects a finite float, got {raw!r}")
    return value


def parse_config_text(text: str) -> dict:
    """Parse config text into a flat dict over defaults; unknown keys error."""
    values = dict(DEFAULTS)
    set_on = {}  # key -> the line that set it
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        for token in line.split():
            if token.startswith("["):
                if not token.endswith("]"):
                    raise ConfigError(f"line {lineno}: malformed section token {token!r}")
                section = token[1:-1]
                if not any(k.startswith(section + ".") for k in DEFAULTS):
                    raise ConfigError(f"line {lineno}: unknown config section '{section}'")
                continue
            key, sep, raw = token.partition("=")
            if not sep:
                raise ConfigError(f"line {lineno}: expected key=value, got {token!r}")
            if section is None:
                raise ConfigError(f"line {lineno}: key '{key}' appears before any [section]")
            full = f"{section}.{key}"
            if full not in DEFAULTS:
                raise ConfigError(f"line {lineno}: unknown config key '{full}'")
            if full in set_on:
                raise ConfigError(f"line {lineno}: config key '{full}' is set again (first on line {set_on[full]})")
            set_on[full] = lineno
            values[full] = _convert(full, raw)
    return values


def load_config(path=None) -> dict:
    if path is None:
        return dict(DEFAULTS)
    with open(path, "r", encoding="utf-8-sig") as f:  # a leading byte-order mark is no part of line 1
        return parse_config_text(f.read())


def apply_overrides(values: dict, overrides) -> dict:
    """Apply CLI 'section.key=value' overrides on top of parsed values; each key at most once."""
    out = dict(values)
    given = set()
    for item in overrides or ():
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key '{key}'")
        if key in given:
            raise ConfigError(f"config key '{key}' is given twice on the command line")
        given.add(key)
        out[key] = _convert(key, raw)
    return out


def _parse_float_grid(key, raw):
    if not str(raw).strip():
        raise ConfigError(f"config key '{key}' is empty")
    try:  # an empty entry, as in '1e-1,,1e-2', is no float
        grid = tuple(float(tok) for tok in str(raw).split(","))
    except ValueError:
        raise ConfigError(f"config key '{key}' expects comma-separated floats, got {raw!r}") from None
    if not all(map(math.isfinite, grid)):
        raise ConfigError(f"config key '{key}' expects finite floats, got {raw!r}")
    return grid


def _record_flags(values: dict) -> frozenset:
    """The solver.record flags: 'functionals', which ``simulate`` needs, or none; the kernel records nothing."""
    raw = values["solver.record"]  # empty records nothing; an empty entry is no name
    flags = frozenset(tok.strip() for tok in raw.split(",")) if raw.strip() else frozenset()
    if flags - {"functionals"}:
        raise ConfigError(f"solver.record accepts only 'functionals', got {sorted(flags - {'functionals'})}")
    return flags


def build_solver_config(values: dict) -> SolverConfig:
    _record_flags(values)
    try:
        grid = SpectralGrid(values["domain.dim"], values["domain.n_modes"])
        graph = parse_graph(values["graph.kind"])
        kind = values["noise.kind"]
        if kind == "none":
            driver = None
        else:
            cov = NuclearCovariance.from_grid(grid, values["noise.q0"], values["noise.r"])
            driver = MartingaleDriver(kind=kind, covariance=cov, rate=values["noise.rate"])
        diffusion = DiffusionMap.from_name(values["noise.sigma"])
        return SolverConfig(
            grid=grid,
            graph=graph,
            lam=values["solver.lambda"],
            dt=values["solver.dt"],
            t_final=values["solver.t_final"],
            driver=driver,
            diffusion=diffusion,
            u0=values["solver.u0"],
            seed=values["study.seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_study_spec(values: dict) -> StudySpec:
    base = build_solver_config(values)
    try:
        return StudySpec(
            base=base,
            lambdas=_parse_float_grid("study.lambda_grid", values["study.lambda_grid"]),
            eps_grid=_parse_float_grid("study.eps_grid", values["study.eps_grid"]),
            n_paths=values["study.n_paths"],
            workers=values["study.workers"],
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None
