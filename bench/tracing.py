"""Per-layer spans for stochwave, installed from outside the package.

`install` wraps every public function and public method of the layer
modules, and replaces each module attribute that names one of them, so
`from .solver import simulate_path` in `studies` and `cli` sees the wrapper
too.  A traced study runs with one worker: forked pool children would keep
their spans to themselves.

A traced study makes about 10^6 spans, so spans are not kept one by one.
Each span adds its duration to its name's inclusive time and its duration
minus its children's to the name's self time; a layer's self time is the sum
over its names.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

LAYER_MODULES = {
    "stochwave.spectral": "spectral",
    "stochwave.graphs": "graphs",
    "stochwave.noise": "noise",
    "stochwave.solver": "solver",
    "stochwave.studies": "studies",
    "stochwave.config": "cli",
    "stochwave.plots": "cli",
    "stochwave.cli": "cli",
}

PER_LAYER = (
    ("graphs.warm_calls", "count", "lower"),
    ("graphs.warm_us_per_call", "us", "lower"),
    ("graphs.warm_fallback_ratio", "ratio", "lower"),
    ("graphs.cold_calls", "count", "lower"),
    ("graphs.cold_us_per_call", "us", "lower"),
    ("graphs.self_us_per_step", "us", "lower"),
    ("spectral.transforms_per_step", "count", "lower"),
    ("spectral.us_per_transform", "us", "lower"),
    ("spectral.self_us_per_step", "us", "lower"),
    ("spectral.computed_mflop_per_step", "MFLOP", "lower"),
    ("spectral.computed_gflop_s", "GFLOP/s", "higher"),
    ("noise.draw_calls", "count", "lower"),
    ("noise.draw_us_per_call", "us", "lower"),
    ("noise.sampler_builds", "count", "lower"),
    ("noise.diffusion_us_per_call", "us", "lower"),
    ("noise.self_us_per_step", "us", "lower"),
    ("noise.computed_draw_bytes_per_step", "bytes", "lower"),
    ("solver.path_steps", "count", "lower"),
    ("solver.self_us_per_step", "us", "lower"),
    ("solver.path_ms_p50", "ms", "lower"),
    ("solver.path_ms_p90", "ms", "lower"),
    ("solver.recorded_mb_per_path", "MB", "lower"),
    ("studies.self_s", "s", "lower"),
    ("studies.pool_speedup", "ratio", "higher"),
    ("cli.config_ms", "ms", "lower"),
    ("cli.write_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

_HINTED = "hinted"


def transform_flops(dim: int, n: int) -> int:
    """Computed flops of one dense sine transform: 2N^2 in 1-D, two N x N matmuls in 2-D."""
    return 2 * n * n if dim == 1 else 4 * n**3


class Tracer:
    def __init__(self):
        self.spans = {}  # span name -> [calls, inclusive ns, self ns]
        self.counts = {}
        self.samples = {}  # span name -> inclusive ns of each call, for names kept
        self._stack = []  # open spans: [children's ns, tag]

    def count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def parent_tag(self):
        return self._stack[-1][1] if self._stack else None

    def wrap(self, name, fn, enter=None, after=None, keep=False):
        """fn, recording one span called `name` per call.

        enter(args, kwargs) runs before the span opens and returns its tag;
        after(args, out) runs once it closed and returns the value to hand back.
        """
        entry = self.spans.setdefault(name, [0, 0, 0])
        samples = self.samples.setdefault(name, []) if keep else None
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0, enter(args, kwargs) if enter else None]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if samples is not None:
                    samples.append(dur)
            return after(args, out) if after else out

        return traced

    def summary(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "samples": self.samples}


def _hooks(tracer, qualname, owner):
    """Counters measured at the span boundary, keyed by the wrapped name."""
    if qualname in ("SpectralGrid.to_nodes", "SpectralGrid.to_modes"):
        def after(args, out):
            grid = args[0]
            tracer.count("spectral.flops", transform_flops(grid.dim, grid.n_modes))
            return out
        return {"after": after}
    if qualname == "MartingaleDriver.increment_sampler":
        def count_bytes(args, out):
            tracer.count("noise.draw_bytes", out.nbytes)
            return out

        def after(args, draw):
            return tracer.wrap("noise:draw", draw, after=count_bytes)
        return {"after": after}
    if qualname == "simulate_path":
        def after(args, result):
            tracer.count("solver.path_steps", args[0].n_steps)
            tracer.count("solver.recorded_bytes",
                         sum(getattr(v, "nbytes", 0) for v in vars(result).values()))
            return result
        return {"after": after, "keep": True}
    if qualname.endswith(".resolvent_warm") and owner.__name__ != "MonotoneGraph":
        # graphs that override resolvent_warm run a warm Newton when given a hint
        def enter(args, kwargs):
            y0 = args[3] if len(args) > 3 else kwargs.get("y0")
            if y0 is None:
                return None
            tracer.count("graphs.hinted_calls")
            return _HINTED
        return {"enter": enter}
    if qualname.endswith("._resolvent_impl"):
        def enter(args, kwargs):
            if tracer.parent_tag() == _HINTED:
                tracer.count("graphs.warm_fallbacks")
        return {"enter": enter}
    return {}


def install(tracer: Tracer) -> None:
    """Wrap the layer modules' public callables everywhere stochwave looks them up."""
    wrapped = {}
    for modname, layer in LAYER_MODULES.items():
        mod = importlib.import_module(modname)
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}:{attr}", obj, **_hooks(tracer, attr, None))
            elif inspect.isclass(obj):
                for mname, method in list(vars(obj).items()):
                    if inspect.isfunction(method) and (
                        not mname.startswith("_") or mname == "_resolvent_impl"
                    ):
                        qualname = f"{obj.__name__}.{mname}"
                        setattr(obj, mname, tracer.wrap(
                            f"{layer}:{qualname}", method, **_hooks(tracer, qualname, obj)))
    for name, mod in list(sys.modules.items()):
        if name == "stochwave" or name.startswith("stochwave."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


def _ns(summary, pred):
    """(calls, inclusive ns, self ns) summed over span names matching pred."""
    total = [0, 0, 0]
    for name, entry in summary["spans"].items():
        if pred(name):
            for i in range(3):
                total[i] += entry[i]
    return total


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced study, except the two that need untraced runs."""
    counts = summary["counts"]
    steps = counts.get("solver.path_steps", 0)

    def self_us_per_step(layer):
        return _ratio(_ns(summary, lambda n: n.startswith(layer + ":"))[2] / 1e3, steps)

    warm = _ns(summary, lambda n: n.endswith(".resolvent_warm"))
    cold = _ns(summary, lambda n: n == "graphs:MonotoneGraph.resolvent")
    transforms = _ns(summary, lambda n: n in ("spectral:SpectralGrid.to_nodes", "spectral:SpectralGrid.to_modes"))
    draws = _ns(summary, lambda n: n == "noise:draw")
    builds = _ns(summary, lambda n: n == "noise:MartingaleDriver.increment_sampler")
    diffusion = _ns(summary, lambda n: n == "noise:DiffusionMap.apply")
    sims = _ns(summary, lambda n: n == "solver:simulate_path")
    paths = sorted(summary["samples"].get("solver:simulate_path", ())) or [0]
    config = _ns(summary, lambda n: n in ("cli:load_config", "cli:apply_overrides", "cli:build_study_spec"))
    write = _ns(summary, lambda n: n in ("studies:write_csv", "cli:write_line_plot"))
    flops = counts.get("spectral.flops", 0)
    p90 = statistics.quantiles(paths, n=10, method="inclusive")[8] if len(paths) > 1 else paths[0]
    return {
        "graphs.warm_calls": warm[0],
        "graphs.warm_us_per_call": _ratio(warm[1] / 1e3, warm[0]),
        "graphs.warm_fallback_ratio": _ratio(counts.get("graphs.warm_fallbacks", 0),
                                             counts.get("graphs.hinted_calls", 0)),
        "graphs.cold_calls": cold[0],
        "graphs.cold_us_per_call": _ratio(cold[1] / 1e3, cold[0]),
        "graphs.self_us_per_step": self_us_per_step("graphs"),
        "spectral.transforms_per_step": _ratio(transforms[0], steps),
        "spectral.us_per_transform": _ratio(transforms[1] / 1e3, transforms[0]),
        "spectral.self_us_per_step": self_us_per_step("spectral"),
        "spectral.computed_mflop_per_step": _ratio(flops / 1e6, steps),
        "spectral.computed_gflop_s": _ratio(flops, transforms[1]),
        "noise.draw_calls": draws[0],
        "noise.draw_us_per_call": _ratio(draws[1] / 1e3, draws[0]),
        "noise.sampler_builds": builds[0],
        "noise.diffusion_us_per_call": _ratio(diffusion[1] / 1e3, diffusion[0]),
        "noise.self_us_per_step": self_us_per_step("noise"),
        "noise.computed_draw_bytes_per_step": _ratio(counts.get("noise.draw_bytes", 0), steps),
        "solver.path_steps": steps,
        "solver.self_us_per_step": self_us_per_step("solver"),
        "solver.path_ms_p50": statistics.median(paths) / 1e6,
        "solver.path_ms_p90": p90 / 1e6,
        "solver.recorded_mb_per_path": _ratio(counts.get("solver.recorded_bytes", 0) / 1e6, sims[0]),
        "studies.self_s": _ns(summary, lambda n: n.startswith("studies:"))[2] / 1e9,
        "cli.config_ms": config[1] / 1e6,
        "cli.write_ms": write[1] / 1e6,
    }


def layer_self_shares(summary: dict) -> dict:
    """Each layer's self time as a share of all traced time."""
    per_layer = {}
    for name, entry in summary["spans"].items():
        layer = name.split(":", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0) + entry[2]
    total = sum(per_layer.values())
    return {layer: _ratio(ns, total) for layer, ns in sorted(per_layer.items())}
