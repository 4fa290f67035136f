import xml.etree.ElementTree as ET

import pytest

from stochwave import ConfigError, CubicGraph, SignGraph
from stochwave.cli import cli_main
from stochwave.config import (
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

    def test_study_spec_grids(self):
        values = parse_config_text(BASE_TEXT)
        values["study.lambda_grid"] = "1e-1,1e-2"
        spec = build_study_spec(values)
        assert spec.lambdas == (1e-1, 1e-2)
        values["study.lambda_grid"] = "abc"
        with pytest.raises(ConfigError):
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

    def test_unknown_key_override(self, config_file, tmp_path):
        code = cli_main(
            ["simulate", "--config", config_file, "--set", "solver.mesh=3", "--outdir", str(tmp_path)]
        )
        assert code == 2

    def test_selftest_passes(self, capsys):
        assert cli_main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("ok   -") >= 10

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
        assert "lambda=1e-09" in err and "step 1 " in err
