"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest -q bench/bench_tests.py

Each test that runs a study uses a shortened workload (few paths, 50 steps)
in fresh child interpreters, exactly as the benchmark does.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from run import E2E, Session
from tracing import PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS, check_study

BENCH = Path(__file__).resolve().parent
SEED = 7  # not the reference seed: only the seed-independent invariants apply
COUNT_METRICS = (
    "graphs.warm_calls",
    "graphs.cold_calls",
    "noise.draw_calls",
    "noise.sampler_builds",
    "spectral.transforms_per_step",
    "solver.path_steps",
)


def short(name, **changes):
    return replace(WORKLOADS[name], t_final=0.05, **{"n_paths": 2, **changes})


def run_study(tmp_path, workload, mode, workers):
    sample = Session(workload, SEED, tmp_path).spawn(mode, workers)
    assert sample["problems"] == []
    return sample


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_writes_the_same_csv_bytes(tmp_path, name):
    w = short(name, n_paths=40 if name.startswith("isometry") else 2)
    plain = run_study(tmp_path, w, "plain", w.workers)
    traced = run_study(tmp_path, w, "traced", 1)
    assert traced["trace"]["counts"]["solver.path_steps"] > 0
    assert traced["csv"] == plain["csv"]


def test_nested_self_times_sum_to_the_parent_duration():
    tracer = Tracer()

    def busy():
        return sum(i * i for i in range(2000))

    leaf = tracer.wrap("a:leaf", busy)
    other_leaf = tracer.wrap("a:other_leaf", busy)
    mid = tracer.wrap("b:mid", lambda: leaf() + leaf())
    root = tracer.wrap("c:root", lambda: mid() + other_leaf() + busy())
    root()
    root()
    calls, incl, self_ns = (dict((k, v[i]) for k, v in tracer.spans.items()) for i in range(3))
    assert calls == {"a:leaf": 4, "a:other_leaf": 2, "b:mid": 2, "c:root": 2}
    assert self_ns["b:mid"] == incl["b:mid"] - incl["a:leaf"]
    assert self_ns["c:root"] == incl["c:root"] - incl["b:mid"] - incl["a:other_leaf"]
    assert sum(self_ns.values()) == incl["c:root"]
    assert tracer._stack == []


@pytest.mark.parametrize("name", ["energy-d1-cubic", "pairing-d1-power3"])
def test_count_metrics_repeat_exactly(tmp_path, name):
    w = short(name)
    first, second = (layer_metrics(run_study(tmp_path, w, "traced", 1)["trace"]) for _ in range(2))
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}
    assert first["solver.path_steps"] == 50 * w.trajectories


@pytest.mark.parametrize("dim, n, r", [(1, 8, 2.0), (2, 8, 3.0)])
def test_computed_flops_and_bytes_match_the_formulas(tmp_path, dim, n, r):
    w = short("energy-d1-cubic", dim=dim, n_modes=n, r=r, n_paths=1)
    trace = run_study(tmp_path, w, "traced", 1)["trace"]
    spans, counts = trace["spans"], trace["counts"]
    transforms = spans["spectral:SpectralGrid.to_nodes"][0] + spans["spectral:SpectralGrid.to_modes"][0]
    per_transform = 2 * n**2 if dim == 1 else 4 * n**3
    assert counts["spectral.flops"] == transforms * per_transform
    assert counts["noise.draw_bytes"] == spans["noise:draw"][0] * 8 * n**dim
    metrics = layer_metrics(trace)
    steps = counts["solver.path_steps"]
    assert metrics["spectral.computed_mflop_per_step"] == pytest.approx(transforms * per_transform / steps / 1e6)
    assert metrics["noise.computed_draw_bytes_per_step"] == pytest.approx(8 * n**dim)


def test_output_check_flags_wrong_cells():
    w = WORKLOADS["energy-d1-cubic"]
    reference = (BENCH / "reference" / f"{w.name}.csv").read_text()
    assert check_study(w, reference, "", reference) == (0, [])
    lines = reference.splitlines(keepends=True)
    lam, est, se, n = lines[1].strip().split(",")
    nudged = "".join([lines[0], f"{lam},{float(est) * (1 + 1e-6)!r},{se},{n}\n"] + lines[2:])
    assert check_study(w, nudged, "", reference)[1]
    blown = f"warning: lambda={float(lam):g}: 1 path(s) hit the blow-up guard\n"
    assert any("blow-ups" in p for p in check_study(w, reference, blown)[1])


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "energy-d1-cubic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
