import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmetro.cli import (
    ConfigError,
    EXPERIMENTS,
    main,
    parse_grid,
    parse_scalar,
)


def run_cli(args):
    return main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestScalarAndGridParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1.5", 1.5),
            ("pi", math.pi),
            ("2pi", 2 * math.pi),
            ("pi/2", math.pi / 2),
            ("0.25pi", 0.25 * math.pi),
            ("-pi/4", -math.pi / 4),
            ("2*pi", 2 * math.pi),
            ("0", 0.0),
        ],
    )
    def test_scalar_forms(self, text, value):
        assert parse_scalar(text) == pytest.approx(value, rel=1e-15)

    def test_bad_scalar(self):
        with pytest.raises(ConfigError):
            parse_scalar("two")

    def test_grid_spec(self):
        grid = parse_grid("0:pi:100")
        assert len(grid) == 100
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(math.pi)

    def test_single_value_grid(self):
        np.testing.assert_allclose(parse_grid("pi/2"), [math.pi / 2])

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_grid("0:1:0")


class TestExitCodes:
    def test_unknown_experiment(self, capsys):
        assert run_cli(["run", "bogus-exp"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not a key value line\n")
        assert run_cli(["run", "noon-qfi", "--config", str(bad)]) == 2
        assert "key = value" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("banana = 3\n")
        assert run_cli(["run", "noon-qfi", "--config", str(bad)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_empty_grid(self, capsys):
        assert run_cli(["run", "mz-single", "--phi", "0:1:0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_config_file(self, capsys):
        assert run_cli(["run", "noon-qfi", "--config", "/nonexistent.cfg"]) == 2

    def test_computation_error_maps_to_exit3(self, capsys):
        # |alpha|^2 = 900 cannot reach the truncation bound under the cap
        assert run_cli(["run", "ecs-qfi", "--alpha", "30"]) == 3
        err = capsys.readouterr().err
        assert "ecs-qfi" in err

    def test_version_and_listing(self, capsys):
        assert run_cli(["version"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "0.1.0"
        assert run_cli(["list-experiments"]) == 0
        listed = capsys.readouterr().out.split()
        assert list(EXPERIMENTS) == listed


class TestRecords:
    def test_noon_qfi_values(self, tmp_path):
        out = tmp_path / "noon.csv"
        assert run_cli(["run", "noon-qfi", "--n", "2,10,50", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["n"] for r in rows] == ["2", "10", "50"]
        by_n = {int(r["n"]): r for r in rows}
        assert float(by_n[10]["qfi"]) == pytest.approx(100.0, abs=1e-8)
        assert float(by_n[10]["qcrb"]) == pytest.approx(0.1, abs=1e-10)

    def test_ramsey_css_min_delta_is_sql(self, tmp_path):
        out = tmp_path / "css.csv"
        code = run_cli(
            [
                "run",
                "ramsey-css",
                "--n",
                "100",
                "--phi",
                "0.1pi:0.9pi:9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        deltas = [float(r["delta_theta_errorprop"]) for r in read_csv(out)]
        assert min(deltas) == pytest.approx(0.1, abs=1e-9)

    def test_twinfock_parity_at_zero(self, tmp_path):
        out = tmp_path / "tf.csv"
        code = run_cli(
            ["run", "twinfock-parity", "--n", "3", "--phi", "0", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["parity"]) == pytest.approx(1.0, abs=1e-12)

    def test_ecs_qfi_matches_closed_form(self, tmp_path):
        out = tmp_path / "ecs.json"
        code = run_cli(
            [
                "run",
                "ecs-qfi",
                "--alpha",
                "0.5,1,2",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        records = json.loads(out.read_text())
        for rec in records:
            alpha = rec["alpha"]
            na_sq = 1.0 / (2.0 * (1.0 + math.exp(-(alpha**2))))
            closed = 4 * alpha**2 * na_sq + 4 * (1 - na_sq) * alpha**4 * na_sq
            assert rec["qfi"] == pytest.approx(closed, rel=1e-6)

    def test_bjj_ground_regimes(self, tmp_path):
        out = tmp_path / "bjj.csv"
        code = run_cli(
            [
                "run",
                "bjj-ground",
                "--n",
                "20",
                "--jtun",
                "1",
                "--ec",
                "0.000005",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        row = read_csv(out)[0]
        assert row["regime"] == "rabi"
        assert float(row["css_overlap"]) > 0.999

    def test_oat_squeeze_records(self, tmp_path):
        out = tmp_path / "oat.csv"
        code = run_cli(
            [
                "run",
                "oat-squeeze",
                "--n",
                "40",
                "--chi",
                "1",
                "--t",
                "0.01:0.1:6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 6
        assert min(float(r["xi_r_sq"]) for r in rows) < 1.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bjj_ground_both_formats(self, tmp_path, fmt):
        out = tmp_path / f"bjj.{fmt}"
        args = ["run", "bjj-ground", "--n", "6", "--ec", "1", "--format", fmt]
        assert run_cli(args + ["--out", str(out)]) == 0
        if fmt == "json":
            assert json.loads(out.read_text())[0]["ground_degenerate"] is False
        else:
            assert read_csv(out)[0]["ground_degenerate"] == "false"

    def test_monte_carlo_record(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = run_cli(["run", "monte-carlo", "--seed", "5", "--out", str(out)])
        assert code == 0
        row = read_csv(out)[0]
        ratio = float(row["mse"]) / float(row["crb_variance"])
        assert 1.0 <= ratio <= 1.3


class TestLargeN:
    """Large-N sweeps against the closed forms the benchmark checks."""

    def test_ramsey_css_n400_sits_at_the_sql(self, tmp_path):
        out = tmp_path / "css.csv"
        args = ["run", "ramsey-css", "--n", "400", "--phi", "0.1pi:0.9pi:3"]
        assert run_cli(args + ["--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 3
        for row in rows:
            assert float(row["classical_fisher"]) / 400 == pytest.approx(1.0, abs=1e-6)
            assert float(row["qfi"]) / 400 == pytest.approx(1.0, abs=1e-6)
            assert math.sqrt(400) * float(row["delta_theta_errorprop"]) == pytest.approx(
                1.0, abs=1e-6
            )

    def test_oat_squeeze_n2000_is_squeezed(self, tmp_path):
        out = tmp_path / "oat.csv"
        args = ["run", "oat-squeeze", "--n", "2000", "--chi", "0.01", "--t", "0.1:1:2"]
        assert run_cli(args + ["--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 2
        for row in rows:
            xi_s, xi_r = float(row["xi_s_sq"]), float(row["xi_r_sq"])
            assert xi_s <= xi_r * (1 + 1e-12)
            assert xi_r < 1.0

    def test_bjj_ground_n2000_is_josephson(self, tmp_path):
        out = tmp_path / "bjj.csv"
        assert run_cli(["run", "bjj-ground", "--n", "2000", "--ec", "1", "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert row["regime"] == "josephson"
        assert float(row["gap"]) > 0.0
        assert row["ground_degenerate"] == "false"


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg is imported inside the functions that diagonalise, so
    # the import time of the command line pays only for scipy.special
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, qmetro.cli; print('scipy.linalg' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


class TestOutputContracts:
    @pytest.mark.parametrize(
        "args",
        [
            ["run", "noon-qfi", "--n", "2,5"],
            ["run", "monte-carlo", "--seed", "3"],
            ["run", "twinfock-parity", "--n", "2", "--phi", "0:pi/2:5"],
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, args):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_and_json_carry_equal_numbers(self, tmp_path):
        csv_path = tmp_path / "x.csv"
        json_path = tmp_path / "x.json"
        base = ["run", "ecs-qfi", "--alpha", "1.25"]
        assert run_cli(base + ["--out", str(csv_path)]) == 0
        assert run_cli(base + ["--format", "json", "--out", str(json_path)]) == 0
        csv_row = read_csv(csv_path)[0]
        json_row = json.loads(json_path.read_text())[0]
        for key in ("alpha", "qfi", "qcrb"):
            csv_value = float(csv_row[key])
            assert csv_value == pytest.approx(json_row[key], rel=1e-12)

    def test_env_out_dir_prefixes_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QMETRO_OUT_DIR", str(tmp_path))
        assert run_cli(["run", "noon-qfi", "--n", "3", "--out", "sub/noon.csv"]) == 0
        assert (tmp_path / "sub" / "noon.csv").exists()

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n = 2\nformat = json\nout = from_file.json\n")
        out = tmp_path / "override.csv"
        code = run_cli(
            [
                "run",
                "noon-qfi",
                "--config",
                str(cfg),
                "--n",
                "4",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert [r["n"] for r in rows] == ["4"]

    def test_config_file_alone(self, tmp_path):
        out = tmp_path / "cfg.csv"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"# demo sweep\nn = 6\nout = {out}\n")
        assert run_cli(["run", "noon-qfi", "--config", str(cfg)]) == 0
        rows = read_csv(out)
        assert float(rows[0]["qfi"]) == pytest.approx(36.0, abs=1e-8)

    def test_stdout_when_no_out_path(self, capsys):
        assert run_cli(["run", "noon-qfi", "--n", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("experiment,n,qfi,qcrb")
        assert "min qcrb" in captured.err


class TestUnusedFlags:
    def test_omega_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "noon-qfi", "--n", "4", "--omega", "7"])
        assert exc.value.code == 2

    def test_omega_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("omega = 1\n")
        assert run_cli(["run", "noon-qfi", "--config", str(cfg)]) == 2
        assert "unknown key 'omega'" in capsys.readouterr().err

    def test_chi_on_noon_qfi(self, capsys):
        assert run_cli(["run", "noon-qfi", "--n", "4", "--chi", "3"]) == 2
        assert "noon-qfi does not read --chi" in capsys.readouterr().err

    def test_seed_on_ramsey_css(self, capsys):
        assert run_cli(["run", "ramsey-css", "--n", "2", "--seed", "9"]) == 2
        assert "ramsey-css does not read --seed" in capsys.readouterr().err

    def test_every_unused_flag_is_named(self, capsys):
        args = ["run", "noon-qfi", "--n", "4", "--chi", "3", "--alpha", "2",
                "--seed", "9", "--t", "0:1:5"]
        assert run_cli(args) == 2
        assert "does not read --alpha, --chi, --seed, --t" in capsys.readouterr().err

    def test_unused_config_file_key(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n = 4\nalpha = 2\n")
        assert run_cli(["run", "noon-qfi", "--config", str(cfg)]) == 2
        assert "noon-qfi does not read --alpha" in capsys.readouterr().err

    def test_t_grid_on_ramsey_sss(self, capsys):
        args = ["run", "ramsey-sss", "--n", "4", "--t", "0:1:5", "--phi", "1"]
        assert run_cli(args) == 2
        assert "one --t value" in capsys.readouterr().err

    def test_common_flags_accepted_everywhere(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("format = json\n")
        out = tmp_path / "mc.json"
        args = ["run", "monte-carlo", "--v", "100", "--config", str(cfg), "--out", str(out)]
        assert run_cli(args) == 0
        assert json.loads(out.read_text())[0]["v"] == 100


def _readme_experiment_table():
    """(name, flags, columns) per row of the README's experiment table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("### Experiments, flags and record columns", 1)[1]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        name, flags, columns = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((
            name.strip("`"),
            {flag.strip("` ").removeprefix("--") for flag in flags.split(",")},
            tuple(column.strip() for column in columns.split(",")),
        ))
    return rows


def test_readme_table_matches_experiments():
    expected = [
        (name, set(entry.keys), entry.columns) for name, entry in EXPERIMENTS.items()
    ]
    assert _readme_experiment_table() == expected
