"""The four benchmark workloads, the config each one hands the CLI, and the output check.

Each workload is one closed-loop `stochwave` CLI study: one client starts a
fresh interpreter, waits for the CSV/SVG, then starts the next.  The
benchmark turns the workload seed into `study.seed` of a generated config
file; the program only ever sees that file.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

DEFAULT_SEED = 42

COLUMNS = {
    "energy": ("lambda", "estimate", "std_error", "n_paths"),
    "pairing": ("lambda", "eps", "estimate", "std_error", "n_paths"),
    "lambda-conv": (
        "lambda_hi", "lambda_lo", "u_gap", "u_gap_se", "beta_l1_gap",
        "beta_l1_gap_se", "beta_hm2_gap", "beta_hm3_gap", "n_paths",
    ),
    "isometry": ("check", "estimate", "target", "std_error", "n_paths"),
}

_BLOWUP = re.compile(r"warning: lambda=(\S+): (\d+) path\(s\) hit the blow-up guard")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    dim: int = 1
    n_modes: int = 64
    graph: str = "cubic"
    noise: str = "wiener"
    r: float = 2.0
    sigma: str = "one"
    dt: float = 1e-3
    t_final: float = 1.0
    lambdas: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    eps: tuple = (1e-2, 1e-3, 0.0)
    n_paths: int = 1
    workers: int = 1

    def config_text(self, seed: int, workers: int | None = None) -> str:
        return "\n".join((
            f"[domain] dim={self.dim} n_modes={self.n_modes}",
            f"[graph] kind={self.graph}",
            f"[noise] kind={self.noise} q0=1 r={self.r:g} rate=5 sigma={self.sigma}",
            f"[solver] lambda=1e-2 dt={self.dt:g} t_final={self.t_final:g} u0=smooth:8 record=functionals",
            f"[study] n_paths={self.n_paths} seed={seed} workers={workers or self.workers}",
            "lambda_grid=" + ",".join(f"{lam:g}" for lam in self.lambdas),
            "eps_grid=" + ",".join(f"{e:g}" for e in self.eps),
            "",
        ))

    @property
    def trajectories(self) -> int:
        """Trajectories one study attempts: one path at one lambda, or one driver path."""
        if self.command == "isometry":
            return self.n_paths
        return self.n_paths * len(self.lambdas)

    @property
    def n_rows(self) -> int:
        n_lam = len(self.lambdas)
        return {
            "energy": n_lam,
            "pairing": n_lam * len(set(self.eps) | {0.0}),
            "lambda-conv": n_lam - 1,
            "isometry": 3,
        }[self.command]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "energy-d1-cubic", "energy",
            "default profile; per-call overhead dominates: warm cubic Newton, solver self time, 2-worker pool",
            sigma="clip", n_paths=8, workers=2,
        ),
        Workload(
            "pairing-d1-power3", "pairing",
            "two smoothed pairings run the cold safeguarded Newton twice per step; 1 worker bypasses the pool",
            graph="power:3", noise="poisson", lambdas=(1e-1, 1e-3), n_paths=2, workers=1,
        ),
        Workload(
            "lambda-conv-d2-sign", "lambda-conv",
            "closed-form resolvent bypasses Newton; 2-D transforms, recorded states and the to_nodes gap loop dominate",
            dim=2, n_modes=32, graph="sign", noise="poisson", r=3.0, sigma="sin", n_paths=4, workers=2,
        ),
        Workload(
            "isometry-d1-wiener", "isometry",
            "default profile; the noise draw loop does most of the work while graphs and the pool are bypassed",
            n_paths=150, workers=1,
        ),
    )
}


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return (tuple(rows[0]) if rows else ()), rows[1:]


def blowups_from_stderr(text: str) -> dict:
    """lambda -> paths stopped by the blow-up guard, from the CLI's warnings."""
    return {float(lam): int(n) for lam, n in _BLOWUP.findall(text)}


def check_study(w: Workload, csv_text: str, stderr_text: str, reference_text: str | None = None):
    """Check one study's CSV; return (blown-up trajectories, list of problems).

    Seed-independent invariants always; with a reference CSV (recorded at
    the default seed) also every cell: counts exactly, floats to relative 1e-9.
    """
    header, rows = _parse_csv(csv_text)
    problems = []
    if header != COLUMNS[w.command]:
        return 0, [f"header {header} != {COLUMNS[w.command]}"]
    if len(rows) != w.n_rows:
        problems.append(f"{len(rows)} rows, expected {w.n_rows}")
    numeric = rows if w.command != "isometry" else [r[1:] for r in rows]
    for row in numeric:
        for cell in row:
            try:
                finite = math.isfinite(float(cell))
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"non-finite cell {cell!r}")
    if problems:
        return 0, problems

    blown = blowups_from_stderr(stderr_text)
    n_col = [int(r[-1]) for r in rows]
    if w.command in ("energy", "pairing"):
        for row, n in zip(rows, n_col):
            expected = w.n_paths - blown.get(float(row[0]), 0)
            if n != expected:
                problems.append(f"lambda={row[0]}: n_paths {n}, expected {expected} after blow-ups")
    elif w.command == "lambda-conv":
        if any(n != w.n_paths for n in n_col):
            problems.append(f"n_paths column {n_col}, expected {w.n_paths}")
    else:
        if n_col != [w.n_paths, w.n_paths, 1]:
            problems.append(f"n_paths column {n_col}, expected {[w.n_paths, w.n_paths, 1]}")
        for check, est, target, se, _ in rows[:2]:
            if abs(float(est) - float(target)) > 4.0 * float(se):
                problems.append(f"{check}: {est} is more than 4 SE ({se}) from {target}")
        if not float(rows[2][1]) < 1e-12:
            problems.append(f"integration-by-parts defect {rows[2][1]} >= 1e-12")

    if reference_text is not None:
        problems += _compare_reference(w, rows, reference_text)
    return sum(blown.values()), problems


def _compare_reference(w, rows, reference_text):
    ref_header, ref_rows = _parse_csv(reference_text)
    if ref_header != COLUMNS[w.command] or len(ref_rows) != len(rows):
        return ["reference CSV has another shape"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        exact = {len(row) - 1} | ({0} if w.command == "isometry" else set())
        for j, (a, b) in enumerate(zip(row, ref)):
            same = a == b if j in exact else math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
            if not same:
                problems.append(f"row {i} column {COLUMNS[w.command][j]}: {a} != reference {b}")
    return problems
