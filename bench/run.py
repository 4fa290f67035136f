"""Benchmark for stochwave: closed-loop CLI studies, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  One client runs one study at a time, each in a fresh
interpreter with BLAS pinned to one thread, until the next study would
overrun `--seconds`.  Every study's CSV is checked (see workloads.py), and
the studies of one run must write identical CSV bytes whatever their worker
count or tracing.

Timings are corrected for the host's speed.  A fixed calibration loop is
timed between every two children, and each timing is scaled by the square
root of CAL_REF_S over the run's median loop time.  The speed of a shared
host drifts by tens of percent over minutes, and this keeps most of that
drift out of the metrics.  The raw times are printed next to them.

`--trace 0` reports the end-to-end metrics.  `--trace 1` cycles an untraced
study at the workload's worker count, one at 1 worker (when that differs)
and a traced one at 1 worker, and reports the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import PER_LAYER, layer_metrics, layer_self_shares
from workloads import DEFAULT_SEED, WORKLOADS, check_study

# 2 pool workers x 2 BLAS threads would oversubscribe 2 cores; children inherit this
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

E2E = (
    ("wall_s", "s"),
    ("paths_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_frac", "ratio"),
)
SETUP_REPEATS = 5
CAL_STEPS = 30_000
CAL_REF_S = 0.2  # loop time at which timings are reported as measured
# On a shared 2-vCPU host, log study time regressed on log loop time over 10 runs
# of each workload had slope 0.46-0.49: study times move with the root of the loop's.
CAL_EXPONENT = 0.5
CHILD_TIMEOUT_S = 150
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summarize(values):
    """Median, quartiles, the highest percentile with >= 10 samples beyond it, and n."""
    values = sorted(values)
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    tail = None
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            tail = (p, values[min(n - 1, int(p / 100.0 * n))])
            break
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "tail": tail, "n": n}


class Session:
    """Spawns study children for one workload and seed inside a scratch directory."""

    def __init__(self, workload, seed, tmp):
        self.w = workload
        self.seed = seed
        self.tmp = Path(tmp)
        self.count = 0
        ref = BENCH / "reference" / f"{workload.name}.csv"
        self.reference = ref.read_text(encoding="utf-8") if seed == DEFAULT_SEED else None

    def spawn(self, mode, workers):
        w = self.w
        self.count += 1
        tag = f"{self.count:03d}"
        cfg = self.tmp / f"workers{workers}.cfg"
        if not cfg.exists():
            cfg.write_text(w.config_text(self.seed, workers), encoding="utf-8")
        outdir = self.tmp / f"out{tag}"
        request = {
            "src": str(SRC),
            "mode": mode,
            "argv": [w.command, "--config", str(cfg), "--outdir", str(outdir)],
            "result": str(self.tmp / f"result{tag}.json"),
        }
        req_path = self.tmp / f"request{tag}.json"
        req_path.write_text(json.dumps(request), encoding="utf-8")

        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(req_path)],
            cwd=self.tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:  # a hung study, or this benchmark being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            _, stderr = proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            stderr += f"\nkilled after {CHILD_TIMEOUT_S} s"
        sample = {"mode": mode, "workers": workers, "attempted": 0, "failed": 0, "problems": []}
        try:
            with open(request["result"], encoding="utf-8") as f:
                res = json.load(f)
        except (OSError, ValueError):
            res = None
        if res is None or proc.returncode != 0:
            sample["problems"].append(f"child exited {proc.returncode}: {stderr.strip()[-400:]}")
        if mode == "setup":
            if res is not None:
                sample["setup_s"] = res["marks"]["study_start"] - t_spawn
                sample["numpy"], sample["blas"] = res["numpy"], res["blas"]
            return sample

        sample["attempted"] = w.trajectories
        csv_path = outdir / f"{w.command}.csv"
        if not sample["problems"]:
            marks = res["marks"]
            sample.update(
                setup_s=marks["study_start"] - t_spawn,
                study_s=marks["study_end"] - marks["study_start"],
                wall_s=marks["done"] - t_spawn,
                peak_rss_mb=res["peak_rss_kib"] * 1024 / 1e6,
                trace=res.get("trace"),
            )
            sample["csv"] = csv_path.read_text(encoding="utf-8")
            blown, problems = check_study(w, sample["csv"], stderr, self.reference)
            sample["problems"] += problems
            sample["failed"] = blown
        if sample["problems"]:
            sample["failed"] = sample["attempted"]
        return sample


def calibrate():
    """Seconds for a fixed loop of 64-point matvecs and scalar reductions, like one solver step."""
    import numpy as np

    k = np.arange(1.0, 65.0)
    sine = np.sin(np.outer(k, k) * np.pi / 65.0)
    x = 1.0 / k**2
    t0 = time.perf_counter()
    for _ in range(CAL_STEPS):
        y = sine @ x
        x = y / (1.0 + float(np.abs(y).sum()))
    return time.perf_counter() - t0


def measure(w, seed, seconds, trace):
    """All samples of one run: setup-only children first, then whole study cycles."""
    cycle = [("plain", w.workers)]
    if trace:
        cycle += [("plain", 1)] if w.workers > 1 else []
        cycle += [("traced", 1)]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        session = Session(w, seed, tmp)
        warmup = session.spawn("setup", w.workers)  # compiles bytecode, fills the file cache
        cal = [calibrate()]

        def spawn(mode, workers):
            sample = session.spawn(mode, workers)
            cal.append(calibrate())
            return sample

        setups = [spawn("setup", w.workers) for _ in range(SETUP_REPEATS)]
        studies = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            studies += [spawn(mode, workers) for mode, workers in cycle]
            now = time.monotonic()
            if now - start + (now - t0) > seconds:
                break
    return warmup, setups, studies, cal


def e2e_metrics(w, setups, studies, cal):
    main = [s for s in studies if s["mode"] == "plain" and s["workers"] == w.workers and "wall_s" in s]
    plain = [s for s in studies if s["mode"] == "plain" and "setup_s" in s]
    attempted = sum(s["attempted"] for s in studies)
    failed = sum(s["failed"] for s in studies)
    raw = {
        "setup_s": [s["setup_s"] for s in setups + plain if "setup_s" in s],
        "wall_s": [s["wall_s"] for s in main],
        "paths_per_s": [(s["attempted"] - s["failed"]) / s["study_s"] for s in main],
    }
    scale = (CAL_REF_S / statistics.median(cal)) ** CAL_EXPONENT
    samples = {}
    for name, values in raw.items():
        samples[name] = [v / scale if name == "paths_per_s" else v * scale for v in values]
        samples[name + "_raw"] = values
    samples.update(
        peak_rss_mb=[s["peak_rss_mb"] for s in main],
        completed_frac=[1.0 - failed / attempted],
        failed_frac=[failed / attempted],
        calibration_s=cal,
    )
    return {k: summarize(v) for k, v in samples.items() if v}


def trace_metrics(w, studies):
    traced = [s for s in studies if s["mode"] == "traced" and s.get("trace")]
    one = [s["study_s"] for s in studies if s["mode"] == "plain" and s["workers"] == 1 and "study_s" in s]
    many = [s["study_s"] for s in studies if s["mode"] == "plain" and s["workers"] == w.workers and "study_s" in s]
    if not (traced and one and many):
        return {}
    per_study = [layer_metrics(s["trace"]) for s in traced]
    samples = {name: [m[name] for m in per_study] for name in per_study[0]}
    samples["studies.pool_speedup"] = [statistics.median(one) / statistics.median(many)]
    samples["trace.overhead_frac"] = [
        statistics.median(s["study_s"] for s in traced) / statistics.median(one) - 1.0
    ]
    return {k: summarize(v) for k, v in samples.items()}


def environment(warmup):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        sha = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown (git unavailable)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "stochwave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": warmup.get("numpy"),
        "blas": warmup.get("blas"),
        "blas_threads": 1,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def _fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def print_table(title, stats, units):
    print(f"## {title}")
    print(f"{'metric':36} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} {'tail':>18} {'n':>4}")
    for name, unit in units:
        if name not in stats:
            continue
        s = stats[name]
        tail = f"p{s['tail'][0]:g}={_fmt(s['tail'][1])}" if s["tail"] else "-"
        print(f"{name:36} {unit:8} {_fmt(s['median']):>12} {_fmt(s['q1']):>12} {_fmt(s['q3']):>12} "
              f"{tail:>18} {s['n']:>4}")


def run_one(w, seed, seconds, trace):
    """Measure one workload, print its tables, save its record; return the result fields."""
    warmup, setups, studies, cal = measure(w, seed, seconds, trace)
    problems = [p for s in [warmup] + setups + studies for p in s["problems"]]
    csvs = {s["csv"] for s in studies if "csv" in s}
    if len(csvs) > 1:
        problems.append("studies of one run wrote different CSV bytes")
        for s in studies:
            s["failed"] = s["attempted"]
    e2e = e2e_metrics(w, setups, studies, cal)
    layers = trace_metrics(w, studies) if trace else {}
    env = environment(warmup)

    print(f"# workload {w.name} seed {seed} seconds {seconds} trace {trace}: {w.why}")
    print("# env " + json.dumps(env))
    print_table(f"{w.name}: end to end (untraced, {w.workers} worker(s); times corrected for host speed)", e2e,
                E2E + (("failed_frac", "ratio"), ("wall_s_raw", "s"), ("paths_per_s_raw", "1/s"),
                       ("setup_s_raw", "s"), ("calibration_s", "s")))
    if trace:
        print_table(f"{w.name}: per layer (traced, 1 worker)", layers, [(n, u) for n, u, _ in PER_LAYER])
        traced = [s for s in studies if s.get("trace")]
        if traced:
            shares = layer_self_shares(traced[-1]["trace"])
            print("# self-time share by layer: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    attempted = sum(s["attempted"] for s in studies)
    failed = sum(s["failed"] for s in studies)
    print(f"# checks: {'ok' if not problems else 'FAILED'}; {len(studies)} studies, "
          f"{attempted} trajectories attempted, {failed} failed")
    for p in problems[:20]:
        print(f"# problem: {p}")

    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
        "end_to_end": e2e, "per_layer": layers, "problems": problems,
        "studies": [{k: v for k, v in s.items() if k not in ("csv", "trace")} for s in setups + studies],
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{w.name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    wanted = [(n, u) for n, u, _ in PER_LAYER] if trace else list(E2E)
    metrics = {n: {"value": (layers if trace else e2e)[n]["median"], "unit": u}
               for n, u in wanted if n in (layers if trace else e2e)}
    return not problems and len(metrics) == len(wanted), attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "stochwave" / "__init__.py").is_file():
        print(f"error: no stochwave package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, a, f, m = run_one(WORKLOADS[name], args.seed, args.seconds, args.trace)
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
