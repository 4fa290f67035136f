import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from stochwave import ConfigError, CubicGraph, NumericError, SignGraph
from stochwave import cli, selftest, studies
from stochwave.cli import cli_main
from stochwave.config import (
    DEFAULTS,
    apply_overrides,
    build_solver_config,
    build_study_spec,
    load_config,
    parse_config_text,
)

BASE_TEXT = """\
# comment lines and inline tokens both work
[domain] dim=1 n_modes=16
[graph] kind=cubic
[noise] kind=wiener q0=1 r=2 sigma=clip
[solver] lambda=1e-2 dt=2e-3 t_final=0.25 u0=smooth:4
[study]
n_paths=4
seed=9
"""


class TestConfigParsing:
    def test_round_trip(self):
        values = parse_config_text(BASE_TEXT)
        assert values["domain.n_modes"] == 16
        assert values["noise.sigma"] == "clip"
        assert values["solver.lambda"] == 1e-2
        assert values["study.n_paths"] == 4
        # untouched keys keep defaults
        assert values["study.workers"] == 1

    def test_a_leading_byte_order_mark_is_ignored(self, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(BASE_TEXT, encoding="utf-8")
        marked.write_text("\ufeff" + BASE_TEXT, encoding="utf-8")
        assert load_config(str(marked)) == load_config(str(plain)) == parse_config_text(BASE_TEXT)
        inner = tmp_path / "inner.cfg"
        inner.write_text("[domain] dim=1\n\ufeff[graph] kind=cubic\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(inner))

    def test_unknown_key_is_named(self):
        for text, key in (("[noise] flavor=vanilla", "noise.flavor"), ("[study] dt_grid=1e-3", "study.dt_grid")):
            with pytest.raises(ConfigError, match=key):
                parse_config_text(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="boundary"):
            parse_config_text("[boundary] kind=dirichlet")

    def test_key_before_section(self):
        with pytest.raises(ConfigError, match="before any"):
            parse_config_text("dim=1")

    def test_type_errors_are_reported(self):
        with pytest.raises(ConfigError, match="domain.dim"):
            parse_config_text("[domain] dim=one")
        for raw in ("nan", "inf", "-inf"):  # a float key takes finite values only
            with pytest.raises(ConfigError, match="noise.q0"):
                parse_config_text(f"[noise] q0={raw}")
            with pytest.raises(ConfigError, match="solver.lambda"):
                apply_overrides(load_config(None), [f"solver.lambda={raw}"])

    def test_overrides(self):
        values = apply_overrides(parse_config_text(BASE_TEXT), ["solver.dt=1e-3"])
        assert values["solver.dt"] == 1e-3
        with pytest.raises(ConfigError):
            apply_overrides(values, ["solver.unknown=1"])
        with pytest.raises(ConfigError):
            apply_overrides(values, ["no-equals-sign"])

    def test_defaults_without_file(self):
        values = load_config(None)
        assert values["graph.kind"] == "cubic"

    def test_readme_config_block_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config format", 1)[1].split("```", 2)[1]
        assert parse_config_text(block) == DEFAULTS
        # every key is spelled out, not merely left at its default
        lines = (line.split("#", 1)[0] for line in block.splitlines())
        keys = {token.partition("=")[0] for line in lines for token in line.split() if "=" in token}
        assert keys == {key.split(".", 1)[1] for key in DEFAULTS}


class TestBuilders:
    def test_solver_config(self):
        config = build_solver_config(parse_config_text(BASE_TEXT))
        assert isinstance(config.graph, CubicGraph)
        assert config.grid.n_modes == 16
        assert config.driver.kind == "wiener"
        assert config.n_steps == 125

    def test_graph_variants_and_none_noise(self):
        text = BASE_TEXT.replace("kind=cubic", "kind=sign").replace(
            "kind=wiener q0=1 r=2 sigma=clip", "kind=none sigma=one"
        )
        config = build_solver_config(parse_config_text(text))
        assert isinstance(config.graph, SignGraph)
        assert config.driver is None

    def test_bad_values_become_config_errors(self):
        bad = parse_config_text(BASE_TEXT)
        bad["graph.kind"] = "quartic"
        with pytest.raises(ConfigError):
            build_solver_config(bad)
        bad = parse_config_text(BASE_TEXT)
        bad["noise.r"] = 0.5  # trace diverges
        with pytest.raises(ConfigError):
            build_solver_config(bad)
        for u0 in ("bogus", "smooth:abc", "smooth:100", "random:0", "smooth:", "random:", "zero:", "zero:3"):
            bad = parse_config_text(BASE_TEXT)
            bad["solver.u0"] = u0
            with pytest.raises(ConfigError, match="solver.u0"):
                build_solver_config(bad)

    def test_study_spec_grids(self):
        values = parse_config_text(BASE_TEXT)
        values["study.lambda_grid"] = "1e-1,1e-2"
        spec = build_study_spec(values)
        assert spec.lambdas == (1e-1, 1e-2)
        values["study.lambda_grid"] = "abc"
        with pytest.raises(ConfigError):
            build_study_spec(values)
        for key, raw in (
            ("study.lambda_grid", "1e-1,nan"),
            ("study.eps_grid", "inf,0"),
            ("study.lambda_grid", "1e-1,,1e-2"),
            ("study.lambda_grid", ",1e-1"),
            ("study.eps_grid", "1e-2, ,0"),
            ("study.eps_grid", ""),
            ("study.eps_grid", "1e-2,1e-2,0"),
            ("study.eps_grid", "1e-2,0.01"),
            ("study.eps_grid", "0,-0"),
        ):
            values = parse_config_text(BASE_TEXT)
            values[key] = raw
            with pytest.raises(ConfigError, match=key):
                build_study_spec(values)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE_TEXT)
    return str(path)


class TestCli:
    def test_simulate_is_byte_deterministic(self, config_file, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        code1 = cli_main(["simulate", "--config", config_file, "--seed", "1", "--outdir", str(out1)])
        code2 = cli_main(["simulate", "--config", config_file, "--seed", "1", "--outdir", str(out2)])
        assert code1 == 0 and code2 == 0
        csv1 = (out1 / "simulate.csv").read_bytes()
        csv2 = (out2 / "simulate.csv").read_bytes()
        assert csv1 == csv2
        header = csv1.decode().splitlines()[0]
        assert header == "t,energy,lyapunov,l2_u,h1_u,l2_v,pairing_running"
        field_lines = (out1 / "final_u.csv").read_text().splitlines()
        assert field_lines[0] == "k1,coeff"
        assert len(field_lines) == 17  # header + one row per mode

    def test_simulate_and_energy_step_the_same_path(self, tmp_path):
        # the default profile with sigma = clip: an observer never changes a path's bits, so
        # simulate's largest energy is the energy row's one-path estimate, string for string
        sim, est = tmp_path / "sim", tmp_path / "energy"
        common = ["--seed", "42", "--set", "noise.sigma=clip"]
        assert cli_main(["simulate", "--outdir", str(sim)] + common) == 0
        assert cli_main(["energy", "--n-paths", "1", "--lambda-grid", "1e-2", "--outdir", str(est)] + common) == 0
        energies = [line.split(",")[1] for line in (sim / "simulate.csv").read_text().splitlines()[1:]]
        [row] = (est / "energy.csv").read_text().splitlines()[1:]
        assert max(energies, key=float) == row.split(",")[1]

    def test_energy_grid_flag_controls_rows(self, config_file, tmp_path):
        out = tmp_path / "energy_out"
        code = cli_main(
            [
                "energy",
                "--config",
                config_file,
                "--lambda-grid",
                "1e-1,1e-2,1e-3",
                "--n-paths",
                "2",
                "--outdir",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "energy.csv").read_text().splitlines()
        assert lines[0] == "lambda,estimate,std_error,n_paths"
        assert len(lines) == 4

    def test_svg_outputs_are_well_formed(self, config_file, tmp_path):
        out = tmp_path / "svg_out"
        for cmd in ("simulate", "energy", "pairing", "lambda-conv", "isometry"):
            args = [cmd, "--config", config_file, "--n-paths", "2", "--outdir", str(out)]
            if cmd == "lambda-conv":
                args += ["--lambda-grid", "1e-1,1e-2,1e-3"]
            elif cmd != "simulate":
                args += ["--lambda-grid", "1e-1,1e-2"]
            assert cli_main(args) == 0
            svg = out / f"{cmd}.svg"
            assert svg.exists()
            root = ET.parse(svg).getroot()
            assert root.tag.endswith("svg")

    def test_missing_config_file(self, tmp_path):
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        out = str(tmp_path / "out")
        for config, outdir in (
            (str(tmp_path / "nope.cfg"), out),
            (str(tmp_path), out),  # config is a directory
            (str(a_file), str(a_file)),  # outdir is an existing file
        ):
            assert cli_main(["simulate", "--config", config, "--outdir", outdir]) == 2

    @pytest.mark.parametrize(
        "command, extra",
        [("energy", ["--set", "domain.n_modes=0"]), ("energy", ["--set", "study.lambda_grid=1e-1,1e-1"]),
         ("simulate", ["--set", "solver.record="])],
    )
    def test_a_config_error_creates_no_output_directory(self, config_file, tmp_path, capsys, command, extra):
        out = tmp_path / "out"
        assert cli_main([command, "--config", config_file, "--outdir", str(out)] + extra) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_a_failed_run_creates_no_output_directory(self, tmp_path, capsys, monkeypatch):
        # a numeric abort (exit 3), then a worker that dies without a result (exit 2)
        out = tmp_path / "out"
        args = ["simulate", "--set", "graph.kind=linear:1e12", "--set", "noise.kind=none",
                "--set", "solver.lambda=2.4e-7", "--outdir", str(out)]
        assert cli_main(args) == 3
        assert "energy blow-up at step 13" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(studies, "_serve", lambda fn, share, fd: os._exit(9))
        monkeypatch.setattr(studies, "_usable_cpus", lambda: 2)
        args = ["energy", "--n-paths", "4", "--workers", "2", "--set", "solver.t_final=0.01", "--outdir", str(out)]
        assert cli_main(args) == 2
        assert "exited with status 9" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_override(self, config_file, tmp_path):
        code = cli_main(
            ["simulate", "--config", config_file, "--set", "solver.mesh=3", "--outdir", str(tmp_path)]
        )
        assert code == 2

    def test_non_finite_numbers_exit_2(self, config_file, tmp_path, capsys):
        for extra, key in (
            (["energy", "--lambda-grid", "nan"], "study.lambda_grid"),
            (["simulate", "--set", "noise.q0=nan"], "noise.q0"),
            (["simulate", "--set", "graph.kind=power:nan"], "power:nan"),
        ):
            code = cli_main(extra + ["--config", config_file, "--n-paths", "2", "--outdir", str(tmp_path)])
            assert code == 2
            assert key in capsys.readouterr().err

    def test_repeated_lambda_exits_2(self, config_file, tmp_path, capsys):
        code = cli_main(
            ["lambda-conv", "--config", config_file, "--lambda-grid", "1e-1,1e-2,1e-2", "--outdir", str(tmp_path)]
        )
        assert code == 2
        assert "study.lambda_grid" in capsys.readouterr().err
        assert not (tmp_path / "lambda-conv.csv").exists()

    def test_negative_eps_exits_2(self, config_file, tmp_path, capsys):
        code = cli_main(["pairing", "--config", config_file, "--eps-grid=-1e-2,0", "--outdir", str(tmp_path)])
        assert code == 2
        assert "study.eps_grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, key",
        [
            (["--n-paths", "0"], "study.n_paths"),
            (["--lambda-grid", ","], "study.lambda_grid"),
            (["--lambda-grid", "1e-1,-1e-2"], "study.lambda_grid"),
            (["--set", "solver.lambda=0"], "solver.lambda"),
            (["--set", "solver.dt=0"], "solver.dt"),
            (["--set", "solver.dt=-1e-3"], "solver.dt"),
            (["--set", "solver.t_final=1e-3"], "solver.t_final"),  # below one dt=2e-3 step
            (["--set", "solver.t_final=0.2501"], "solver.t_final"),  # not a whole step count
            (["--set", "solver.record=functionals,states"], "solver.record"),
            (["--set", "solver.t_final=1e9"], "solver.t_final"),  # 5e11 steps
            (["--set", "solver.dt=1e-300"], "solver.dt"),
            (["--set", "noise.kind=poisson", "--set", "noise.rate=1e300"], "noise.rate"),
            (["--set", "noise.kind=poisson", "--set", "noise.rate=1e15"], "noise.rate"),  # 2e12 jumps per step
            # rejected before the grid allocates anything (a 728 TiB sine matrix)
            (["--set", "domain.n_modes=10000000"], "domain.n_modes"),
            (["--set", "domain.dim=2", "--set", "domain.n_modes=16385"], "domain.n_modes"),
            (["--set", "domain.n_modes=0"], "domain.n_modes"),
            (["--set", "domain.dim=3"], "domain.dim"),
            (["--set", "noise.r=0.5"], "noise.r:"),  # the colon tells it from noise.rate
            (["--set", "noise.q0=-1"], "noise.q0"),
            (["--set", "noise.sigma=foo"], "noise.sigma"),
            (["--set", "noise.kind=levy"], "noise.kind"),
            (["--set", "graph.kind=power:0.5"], "graph.kind"),
            (["--set", "graph.kind=bogus"], "graph.kind"),
        ],
    )
    @pytest.mark.parametrize("command", ["energy", "simulate"])
    def test_config_errors_name_their_key(self, config_file, tmp_path, capsys, command, extra, key):
        code = cli_main([command, "--config", config_file, "--outdir", str(tmp_path)] + extra)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / f"{command}.csv").exists()

    def test_simulate_without_functionals_fails_before_the_path(self, config_file, tmp_path, capsys, monkeypatch):
        def no_path(*args, **kwargs):
            raise AssertionError("the functional series ran")

        monkeypatch.setattr(cli, "_series_path", no_path)
        code = cli_main(["simulate", "--config", config_file, "--set", "solver.record=", "--outdir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'functionals'" in err and "solver.record" in err
        assert not (tmp_path / "simulate.csv").exists()

    def test_missing_record_flag_is_named(self, config_file, tmp_path, capsys):
        code = cli_main(
            ["simulate", "--config", config_file, "--set", "solver.record=states", "--outdir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'functionals'" in err and "solver.record" in err

    def test_worker_count_below_one_exits_2(self, config_file, tmp_path, capsys):
        for extra in (["--workers", "0"], ["--set", "study.workers=-1"]):
            code = cli_main(["energy", "--config", config_file, "--n-paths", "2", "--outdir", str(tmp_path)] + extra)
            assert code == 2
            assert "study.workers" in capsys.readouterr().err

    def test_negative_seed_is_named(self, config_file, tmp_path, capsys):
        code = cli_main(["lambda-conv", "--config", config_file, "--seed", "-3", "--outdir", str(tmp_path)])
        assert code == 2
        assert "study.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("u0", ["bogus", "smooth:abc", "smooth:100", "random:0"])
    def test_bad_initial_data_is_named(self, config_file, tmp_path, capsys, u0):
        code = cli_main(
            ["isometry", "--config", config_file, "--set", f"solver.u0={u0}", "--outdir", str(tmp_path)]
        )
        assert code == 2
        assert "solver.u0" in capsys.readouterr().err

    SELFTEST_CHECKS = (
        "graph convex-analysis invariants",
        "spectral round trip and Parseval",
        "group rotation identity",
        "linear flow conserves energy",
        "increment mean/variance statistics",
        "increment stream determinism",
        "second-moment identity (both drivers)",
        "mild-form re-summation residual",
        "integration-by-parts telescoping",
        "envelope chain-rule gap order >= 0.8",
        "coupled noise streams bit-identical",
    )

    def test_selftest_passes(self, capsys):
        assert cli_main(["selftest"]) == 0
        assert capsys.readouterr().out.splitlines() == [f"ok   - {name}" for name in self.SELFTEST_CHECKS]

    def test_selftest_names_each_failure_and_goes_on(self, capsys, monkeypatch):
        def raises(config, dts):
            raise RuntimeError("no fit")

        monkeypatch.setattr(selftest, "free_wave_energy_drift", lambda config: 1.0)
        monkeypatch.setattr(selftest, "chain_rule_order", raises)
        assert cli_main(["selftest"]) == 1
        failed = {
            "linear flow conserves energy": "FAIL - linear flow conserves energy",
            "envelope chain-rule gap order >= 0.8": "FAIL - envelope chain-rule gap order >= 0.8 "
            "(raised RuntimeError: no fit)",
        }
        expected = [failed.get(name, f"ok   - {name}") for name in self.SELFTEST_CHECKS]
        assert capsys.readouterr().out.splitlines() == expected

    def test_numeric_abort_exit_code(self, config_file, tmp_path, capsys):
        code = cli_main(
            [
                "simulate",
                "--config",
                config_file,
                "--set",
                "graph.kind=linear:1e9",
                "--set",
                "solver.lambda=1e-9",
                "--set",
                "noise.kind=none",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "lambda=1e-09" in err and "step 1 " in err and "energy=" in err
        # the energy of the step that tripped the guard, not the last one below it
        assert float(re.search(r"energy=(\S+)\)", err).group(1)) > 1e12

    def test_blow_up_warning_names_the_first_step(self, config_file, tmp_path, capsys):
        # the path above stops at step 1; in a study the lambda is flagged and the others go on
        code = cli_main(
            ["lambda-conv", "--config", config_file, "--set", "graph.kind=linear:1e9", "--set", "noise.kind=none",
             "--lambda-grid", "1e-1,5e-2,1e-9", "--n-paths", "3", "--outdir", str(tmp_path)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "warning: lambda=1e-09: 3 path(s) hit the blow-up guard (first at step 1)\n" in err
        assert (tmp_path / "lambda-conv.csv").exists()

    def test_isometry_flags_a_blown_up_integration_by_parts_path(self, config_file, tmp_path, capsys):
        # the path that stops simulate at step 1 is isometry's integration-by-parts path at its first lambda
        code = cli_main(
            ["isometry", "--config", config_file, "--set", "graph.kind=linear:1e9", "--lambda-grid", "1e-9",
             "--n-paths", "2", "--outdir", str(tmp_path)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert err == "warning: lambda=1e-09: 1 path(s) hit the blow-up guard (first at step 1)\n"
        lines = (tmp_path / "isometry.csv").read_text().splitlines()
        assert len(lines) == 4 and lines[3] == "integration_by_parts,nan,0.0,0.0,0"
        assert all(line.endswith(",2") for line in lines[1:3])

    def test_a_failure_without_a_step_still_aborts_isometry(self, config_file, tmp_path, capsys, monkeypatch):
        def no_convergence(config, probes):
            raise NumericError("resolvent iteration failed to converge")

        monkeypatch.setattr(studies, "ibp_residual", no_convergence)
        code = cli_main(["isometry", "--config", config_file, "--n-paths", "2", "--outdir", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == "numeric abort: resolvent iteration failed to converge\n"
        assert not (tmp_path / "isometry.csv").exists()

    def test_importing_the_cli_loads_no_process_pool_machinery(self):
        # the study map forks its workers itself; a process pool would cost every CLI run its import
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys, stochwave.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestConfigFuzz:
    """Every key at the edges of its type: it builds, or its error names it, also through the CLI."""

    EDGES = ("0", "-1", "1e-300", "-1e-300", "1e300", "-1e300", "nan", "inf", "-inf", str(2**63))
    # values that once built: an empty or repeated list entry, and a token with an empty argument
    ESCAPES = (
        ("study.lambda_grid", "1e-1,,1e-2"),
        ("study.eps_grid", "1e-2,"),
        ("study.eps_grid", "1e-2,0.01,0"),
        ("solver.record", "functionals,,"),
        ("solver.u0", "smooth:"),
        ("solver.u0", "random:"),
        ("solver.u0", "zero:"),
        ("graph.kind", "power:"),
        ("graph.kind", "linear:"),
        ("graph.kind", "cubic:"),
    )

    def test_every_key_builds_or_names_itself(self, tmp_path, capsys):
        rng = random.Random(20)
        cases = []
        for key in DEFAULTS:
            malformed = "".join(rng.choice("0123456789.,:+-eEnaix_") for _ in range(rng.randint(1, 8)))
            cases += [(key, raw) for raw in (*self.EDGES, malformed)]
        rng.shuffle(cases)
        cases += self.ESCAPES
        failing, unnamed = [], []
        for key, raw in cases:
            section, name = key.split(".")
            errors = []
            # the same value as a --set override and as a line of a config file
            for parse in (
                lambda: apply_overrides(DEFAULTS, [f"{key}={raw}"]),
                lambda: parse_config_text(f"[{section}] {name}={raw}"),
            ):
                try:
                    build_study_spec(parse())
                except (ConfigError, ValueError) as exc:
                    errors.append(str(exc))
            assert len(errors) in (0, 2), (key, raw, errors)
            if errors:
                failing.append((key, raw))
            # a word boundary, so that noise.rate does not stand for noise.r
            unnamed += [(key, raw, err) for err in errors if not re.search(re.escape(key) + r"\b", err)]
        assert unnamed == []
        assert set(self.ESCAPES) <= set(failing)
        for key, raw in failing:
            code = cli_main(["energy", "--outdir", str(tmp_path), "--set", f"{key}={raw}"])
            err = capsys.readouterr().err
            assert code == 2, (key, raw)
            assert re.search(re.escape(key) + r"\b", err), (key, raw, err)
        assert not (tmp_path / "energy.csv").exists()

    def test_a_repeated_key_is_named(self, tmp_path, capsys):
        config = tmp_path / "twice.cfg"
        for key in DEFAULTS:
            section, name = key.split(".")
            token = f"{name}={DEFAULTS[key]}"
            # twice on one line, and once more under a second [section] token
            for text in (f"[{section}] {token} {token}", f"[{section}] {token}\n[{section}] {token}"):
                with pytest.raises(ConfigError, match=re.escape(key) + r"\b"):
                    parse_config_text(text)
                config.write_text(text)
                assert cli_main(["energy", "--config", str(config), "--outdir", str(tmp_path)]) == 2
                assert re.search(re.escape(key) + r"\b", capsys.readouterr().err), key
        assert not (tmp_path / "energy.csv").exists()

    def test_a_key_given_twice_on_the_command_line_is_named(self, tmp_path, capsys):
        flags = {
            "study.seed": "--seed",
            "study.workers": "--workers",
            "study.n_paths": "--n-paths",
            "study.lambda_grid": "--lambda-grid",
            "study.eps_grid": "--eps-grid",
        }
        for key in DEFAULTS:
            token = f"{key}={DEFAULTS[key]}"
            with pytest.raises(ConfigError, match=re.escape(key) + r"\b"):
                apply_overrides(DEFAULTS, [token, token])
            # two --set overrides, a --set with the direct flag of its key, and that flag twice
            twice = [["--set", token, "--set", token]]
            if key in flags:
                flag = [flags[key], str(DEFAULTS[key])]
                twice += [flag + ["--set", token], flag + flag]
            for args in twice:
                assert cli_main(["energy", "--outdir", str(tmp_path), *args]) == 2, args
                assert re.search(re.escape(key) + r"\b", capsys.readouterr().err), args
        assert not (tmp_path / "energy.csv").exists()
