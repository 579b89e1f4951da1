import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import closed_forms
import numpy as np
import pytest

from qmetro.cli import (
    _KEYS,
    ConfigError,
    EXPERIMENTS,
    _build_parser,
    _min_summary,
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
            ("1e-3", 1e-3),
            ("2.5E2", 250.0),
            ("-2.5e+1", -25.0),
            (".5e1", 5.0),
            ("1e-3pi", 1e-3 * math.pi),
            ("pi/1e2", math.pi / 100),
            ("3E-1*pi/2.5e-1", 1.2 * math.pi),
        ],
    )
    def test_scalar_forms(self, text, value):
        assert parse_scalar(text) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize(
        "text", ["two", "inf", "-inf", "nan", "1_000", "1e", "e3", "1e400", "1e308pi", "pi/1e-400"]
    )
    def test_bad_scalar(self, text):
        with pytest.raises(ConfigError):
            parse_scalar(text)

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

    def test_grid_too_large_to_allocate(self, capsys):
        # 8e17 bytes exceed any address space, so the allocation fails at once
        assert run_cli(["run", "mz-single", "--phi", f"0:1:{10**17}"]) == 2
        assert capsys.readouterr().err.startswith("error: --phi: ")

    def test_missing_config_file(self, capsys):
        assert run_cli(["run", "noon-qfi", "--config", "/nonexistent.cfg"]) == 2

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfe n = 2\n")
        assert run_cli(["run", "noon-qfi", "--config", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: cannot read config file {bad}: not UTF-8 text\n"

    def test_negative_seed_is_a_configuration_error(self, capsys):
        assert run_cli(["run", "monte-carlo", "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--v", "0"], "--v: repetitions v must be >= 1"),
            (["--v", "2.5"], "--v: invalid literal for int() with base 10: '2.5'"),
            (["--format", "xml"], "--format: format must be csv or json, got 'xml'"),
            (["--n", "2,x"], "--n: cannot parse integer list '2,x'"),
        ],
    )
    def test_bad_flag_value_names_its_key(self, capsys, flags, message):
        assert run_cli(["run", "noon-qfi", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "line,message",
        [
            ("v = 0", "--v: repetitions v must be >= 1"),
            ("format = xml", "--format: format must be csv or json, got 'xml'"),
        ],
    )
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"n = 2\n{line}\n")
        assert run_cli(["run", "noon-qfi", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unwritable_out_exits_2_without_traceback(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = blocker / "x.csv"  # its directory is a regular file
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-m", "qmetro.cli", "run", "noon-qfi", "--n", "2", "--out", str(path)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in done.stderr

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
    def test_mz_single_is_the_one_particle_ramsey(self, tmp_path):
        runs = {}
        for name, extra in (("mz-single", []), ("ramsey-css", ["--n", "1"])):
            out = tmp_path / f"{name}.csv"
            assert run_cli(["run", name, *extra, "--phi", "0:pi:9", "--v", "3", "--out", str(out)]) == 0
            runs[name] = [{k: v for k, v in row.items() if k != "experiment"} for row in read_csv(out)]
        assert len(runs["mz-single"]) == 9
        assert runs["mz-single"] == runs["ramsey-css"]

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


# runs whose records `closed_forms` checks in full
CLOSED_FORM_RUNS = [
    ["mz-single", "--phi", "0.3:2.8:4", "--v", "4"],
    ["ramsey-css", "--n", "100", "--phi", "0.1pi:0.9pi:9"],
    ["ramsey-css", "--n", "400", "--phi", "0.1pi:0.9pi:3"],
    ["ramsey-css", "--n", "1000", "--phi", "0.1:3:3"],
    *(["ramsey-sss", "--n", "2,10,40,400,1000", "--chi", chi, "--phi", "pi/2"] for chi in ("0.01", "0.05")),
    ["noon-qfi", "--n", "2,10,50"],
    ["ecs-qfi", "--alpha", "0.5,1,2", "--format", "json"],
    ["ecs-qfi", "--alpha", "4,8,12,16"],
    ["twinfock-parity", "--n", "3", "--phi", "0"],
    ["twinfock-parity", "--n", "40", "--phi", "0.01:pi/2:5"],
    ["twinfock-parity", "--n", "100", "--phi", "0.1:1.5:5"],
    ["twinfock-parity", "--n", "400", "--phi", "0.1:1.5:3"],
    *(["bjj-ground", "--n", "10,100,1000,2000", "--ec", "0", f"--jtun={jtun}", f"--delta={delta}"]
      for jtun, delta in [(1, 0), (1, 0.5), (0.5, 2), (2, -1)]),
]


def csv_text(rows):
    out = io.StringIO()
    writer = csv.DictWriter(out, rows[0].keys())
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


class TestClosedForms:
    """Records against the forms of `closed_forms`, and that table itself."""

    @pytest.mark.parametrize("argv", CLOSED_FORM_RUNS, ids=" ".join)
    def test_records_hold_their_closed_forms(self, capsys, argv):
        assert run_cli(["run", *argv]) == 0
        assert closed_forms.failures(argv, capsys.readouterr().out) == []

    def test_every_experiment_has_an_entry(self):
        assert list(closed_forms.FORMS) == list(EXPERIMENTS)

    def test_a_missing_console_script_exits_2_in_one_line(self, monkeypatch, tmp_path, capsys):
        # exit 1 would read as a record off its form; an empty PATH
        # searches the working directory alone, which holds no `qmetro`
        monkeypatch.setenv("PATH", "")
        monkeypatch.chdir(tmp_path)
        assert closed_forms.main(["run", "noon-qfi"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        assert "`qmetro` console script" in err and "install the package" in err

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_a_doubled_cell_of_a_form_column_fails_and_is_named(self, capsys, name):
        # the defaults hold every form; doubling one cell of a form's
        # column makes the runner exit 1 and name that row and column
        assert run_cli(["run", name]) == 0
        text = capsys.readouterr().out
        assert closed_forms.report([name], text) == 0
        capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(text)))
        forms = closed_forms.FORMS[name](rows[0], closed_forms.config([name]))
        columns = [column for column, (expected, _) in forms.items() if not isinstance(expected, str)]
        assert columns
        for column in columns:
            doubled = {**rows[0], column: repr(2.0 * float(rows[0][column]))}
            assert closed_forms.report([name], csv_text([doubled, *rows[1:]])) == 1
            assert f": row 0: {column} = " in capsys.readouterr().out

    def test_a_row_at_nonzero_charging_energy_is_checked_for_its_bounds_only(self, capsys):
        argv = ["bjj-ground", "--n", "4,5", "--ec", "1"]
        assert run_cli(["run", *argv]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        cfg = closed_forms.config(argv)
        assert [closed_forms.FORMS["bjj-ground"](row, cfg) for row in rows] == [{}, {}]
        changed = [{**row, "ground_energy": "1", "gap": "-1", "css_overlap": "2"} for row in rows]
        assert closed_forms.failures(argv, csv_text(changed)) == []
        # the swept n is still read
        assert closed_forms.failures(argv, csv_text([{**rows[0], "n": "6"}, rows[1]])) == [
            "row 0: n = 6, expected 4.0 +- 0"
        ]

    @pytest.mark.parametrize("n", [5, 40])
    def test_twinfock_parity_at_the_fringe_extrema_stays_in_the_unit_interval(self, tmp_path, n):
        out = tmp_path / "tf.csv"
        args = ["run", "twinfock-parity", "--n", str(n), "--phi", "0:pi/2:2"]
        assert run_cli(args + ["--out", str(out)]) == 0
        parities = [float(r["parity"]) for r in read_csv(out)]
        assert parities == [1.0, (-1.0) ** n]  # P_N(cos 2 phi) at phi = 0, pi/2


class TestMinSummary:
    @staticmethod
    def rows(values):
        return [{"phi": 0.1 * (k + 1), "x": v} for k, v in enumerate(values)]

    def test_a_single_least_row_is_named(self):
        summary = _min_summary(self.rows([2.0, 1.0, 1.0 + 2e-9, math.inf]), "x")
        assert summary == "min x = 1 at phi = 0.2"

    def test_rows_within_1e_9_relative_make_a_flat_minimum(self):
        summary = _min_summary(self.rows([1.0 + 9e-10, 3.0, 1.0, math.inf, 1.0 + 5e-10]), "x")
        assert summary == "min x = 1, flat over 3 points (phi = 0.1 to 0.5)"

    def test_no_finite_row(self):
        assert _min_summary(self.rows([math.inf]), "x") == "no finite x in sweep"

    def test_ramsey_css_at_the_sql_is_flat(self, tmp_path, capsys):
        # every row sits at 1/sqrt(N) to 1e-9, so no one phi is the best
        out = tmp_path / "css.csv"
        assert run_cli(["run", "ramsey-css", "--n", "1000", "--phi", "0.1:3:3", "--out", str(out)]) == 0
        assert "min delta_theta_errorprop = 0.0316228, flat over 3 points (phi = 0.1 to 3)" in capsys.readouterr().out

    def test_ramsey_css_at_the_sql_is_flat_at_n2000(self, tmp_path, capsys):
        # near the fringe extrema (phi = 0.1 and 3) a drift of the output's
        # norm with phi would enter the slope at about 1e-9 (`_unit_real_matvec`)
        out = tmp_path / "css.csv"
        assert run_cli(["run", "ramsey-css", "--n", "2000", "--phi", "0.1:3:3", "--out", str(out)]) == 0
        assert "min delta_theta_errorprop = 0.0223607, flat over 3 points (phi = 0.1 to 3)" in capsys.readouterr().out


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg is imported inside the one function that takes a full
    # spectrum, which no experiment calls
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


# one tiny run of each experiment, in `list-experiments` order
TINY_RUNS = [
    ["mz-single", "--phi", "0.1:1:2"],
    ["ramsey-css", "--n", "3,4", "--phi", "0.1:1:2"],
    ["ramsey-sss", "--n", "6", "--phi", "0.1:1:2"],
    ["noon-qfi", "--n", "2,3"],
    ["ecs-qfi", "--alpha", "0.5"],
    ["twinfock-parity", "--n", "2", "--phi", "0.1:1:2"],
    ["bjj-ground", "--n", "4,5", "--ec", "1"],
    ["oat-squeeze", "--n", "6", "--t", "0.1:1:2"],
    ["monte-carlo", "--v", "20"],
]


def test_no_experiment_loads_scipy():
    # log k! comes from math.lgamma, Jx's eigenvectors from their recursion
    # and the two lowest BJJ levels from Laguerre's method: neither the
    # import nor any experiment loads a scipy module
    assert [run[0] for run in TINY_RUNS] == list(EXPERIMENTS)
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, sys\n"
        "from qmetro.cli import main\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(scipy_modules())\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [main(['run', *run]) for run in {TINY_RUNS!r}]\n"
        "print(codes, scipy_modules())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", f"{[0] * len(TINY_RUNS)} []"]


class TestOutputContracts:
    @pytest.mark.parametrize(
        "args",
        [
            ["run", "noon-qfi", "--n", "2,5"],
            ["run", "monte-carlo", "--seed", "3"],
            ["run", "twinfock-parity", "--n", "2", "--phi", "0:pi/2:5"],
            ["run", "mz-single", "--phi", "0:pi:7", "--v", "3"],
            ["run", "ramsey-css", "--n", "2,10", "--phi", "0.1pi:0.9pi:5"],
            ["run", "oat-squeeze", "--n", "10,40", "--chi", "0.05", "--t", "0.1:1:3"],
            ["run", "ramsey-sss", "--n", "20", "--chi", "0.05", "--t", "1", "--phi", "0.1pi:0.9pi:5"],
            # degenerate doublets: the ground vector comes from inverse iteration
            ["run", "bjj-ground", "--n", "20,100", "--ec", "-1"],
            ["run", "ramsey-css", "--n", "1000", "--phi", "0.1:3:3"],
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
        argv = ["noon-qfi", "--config", str(cfg)]
        assert run_cli(["run", *argv]) == 0
        assert closed_forms.failures(argv, out.read_text()) == []  # n = 6, F_Q = 36

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


class TestValuesThatStartWithADash:
    """Every value flag takes the token after it as its value, even one that
    argparse alone would read as a flag."""

    @pytest.mark.parametrize(
        "args",
        [
            ["ramsey-css", "--phi", "-1:1:3"],
            ["bjj-ground", "--delta", "-pi"],
            ["ecs-qfi", "--alpha", "-1,2"],
        ],
    )
    def test_a_negative_value_is_read_as_with_an_equals_sign(self, capsys, args):
        name, flag, value = args
        assert run_cli(["run", name, flag, value]) == 0
        spaced = capsys.readouterr()
        assert run_cli(["run", name, f"{flag}={value}"]) == 0
        assert capsys.readouterr() == spaced
        assert spaced.out.startswith("experiment,") and spaced.out.count("\n") >= 2

    def test_a_config_path_that_starts_with_a_dash_is_read_as_a_path(self, capsys):
        assert run_cli(["run", "noon-qfi", "--config", "-missing.cfg"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file -missing.cfg: ")

    def test_a_value_flag_at_the_end_still_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "ramsey-css", "--phi"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestFlagsAreExactNames:
    """A flag is matched by its exact name only, as `_joined` reads it, so
    an abbreviation exits 2 whatever its value looks like."""

    @pytest.mark.parametrize("value", ["1", "-1:1:3"])
    def test_an_abbreviated_flag_exits_2_and_is_named(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "ramsey-css", "--ph", value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --ph {value}" in capsys.readouterr().err

    def test_an_abbreviation_with_an_equals_sign_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "ramsey-css", "--ph=1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ph=1" in capsys.readouterr().err

    def test_the_exact_name_reads_as_with_an_equals_sign(self, capsys):
        assert run_cli(["run", "ramsey-css", "--phi", "1"]) == 0
        spaced = capsys.readouterr()
        assert run_cli(["run", "ramsey-css", "--phi=1"]) == 0
        assert capsys.readouterr() == spaced
        assert spaced.out.count("\n") == 2


class TestParserReuse:
    """main builds its parser once per process, so every call after the
    first reuses it: no call may see another's values."""

    @staticmethod
    def records(capsys):
        return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_flag_values_do_not_leak_into_the_next_call(self, capsys):
        assert run_cli(["run", "monte-carlo", "--seed", "3"]) == 0
        assert self.records(capsys)[0]["seed"] == "3"
        assert run_cli(["run", "monte-carlo"]) == 0
        assert self.records(capsys)[0]["seed"] == "0"

    def test_bad_flag_does_not_break_the_next_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "monte-carlo", "--seed", "3", "--no-such-flag", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(["run", "monte-carlo", "--v", "50"]) == 0
        (row,) = self.records(capsys)
        assert (row["v"], row["seed"]) == ("50", "0")


def test_run_flags_are_the_key_table():
    (subparsers,) = (
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = {opt for a in subparsers.choices["run"]._actions for opt in a.option_strings}
    assert flags - {"-h", "--help"} == {f"--{key}" for key in _KEYS} | {"--config"}


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_key_table_matches_keys():
    """The README lists the keys of _KEYS in order, with the same default texts."""
    section = README.read_text().split("## Command-line interface", 1)[1]
    section = section.split("### Experiments, flags and record columns", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.strip().startswith("| `"):
            continue
        key, _, default = (cell.strip() for cell in line.strip().strip("|").split("|"))
        code = default.split("`")[1] if default.startswith("`") else None
        rows.append((key.strip("`"), code))
    assert rows == [(key, default) for key, (_, default, _) in _KEYS.items()]


def _readme_experiment_table():
    """(name, flags, columns) per row of the README's experiment table."""
    text = README.read_text()
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


def test_readme_quick_start_prints_sql_and_heisenberg_limit(capsys):
    section = README.read_text().split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quick start", "exec"), {})
    printed = [float(line.split()[0]) for line in capsys.readouterr().out.splitlines()]
    assert printed == [pytest.approx(0.1, abs=1e-9), pytest.approx(0.01, abs=1e-9)]
