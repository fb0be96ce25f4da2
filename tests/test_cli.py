import json
import math

import numpy as np
import pytest

from collide_qfi import cli
from collide_qfi.fisher import thermal_fi_nbar
from collide_qfi.sweeps import ClaimReport, ClaimResult
from collide_qfi.zz_analytic import zz_fn


def test_parse_block_named():
    for spec, dim in [("g", 2), ("plusx", 2), ("gg", 4),
                      ("g-plusx", 4), ("plusx-g", 4)]:
        blk = cli.parse_block(spec)
        assert blk.psi.shape[0] == dim


def test_parse_block_theta_and_schmidt():
    blk = cli.parse_block("theta:1.2")
    assert blk.b == 1
    assert abs(abs(blk.psi[0]) - math.cos(0.6)) < 1e-12
    blk = cli.parse_block("schmidt:0.8,0.5,0.5,0.1,0.2")
    assert blk.b == 2
    with pytest.raises(ValueError):
        cli.parse_block("schmidt:0.8,0.5")
    with pytest.raises(ValueError):
        cli.parse_block("bogus")


def test_parse_grid():
    g = cli.parse_grid("0.1:10:3:log")
    assert np.allclose(g, [0.1, 1.0, 10.0])
    g = cli.parse_grid("0:1:5:lin")
    assert np.allclose(g, np.linspace(0, 1, 5))
    g = cli.parse_grid("0.3,0.7,2.0")
    assert g == (0.3, 0.7, 2.0)
    with pytest.raises(ValueError):
        cli.parse_grid("0.1:10:3:geom")
    with pytest.raises(ValueError):
        cli.parse_grid("-1:10:3:log")
    with pytest.raises(ValueError):
        cli.parse_grid("1:10:0:lin")


def test_parse_config_file(tmp_path):
    path = tmp_path / "sweep.conf"
    path.write_text("# comment\nnbar-grid = 0.5,1.0\n\nn = 2  # trailing\n")
    conf = cli.parse_config_file(str(path))
    assert conf == {"nbar-grid": "0.5,1.0", "n": "2"}
    bad = tmp_path / "bad.conf"
    bad.write_text("just a line\n")
    with pytest.raises(ValueError):
        cli.parse_config_file(str(bad))


def test_thermal_fi_command(capsys):
    assert cli.main(["thermal-fi", "--nbar", "1.0"]) == 0
    out = capsys.readouterr().out.strip()
    # output is formatted to 12 significant digits
    assert abs(float(out) - thermal_fi_nbar(1.0)) < 1e-12


def test_fisher_command(capsys):
    rc = cli.main(["fisher", "--nbar", "1.0", "--gamma-tau", "0.5",
                   "--interaction", "zz", "--block", "plusx", "--n", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    value = float(out.split("value_nbar = ")[1].splitlines()[0])
    assert abs(value - zz_fn(1.0, 0.5, 2)) < 1e-6


def test_fisher_command_bad_block(capsys):
    rc = cli.main(["fisher", "--nbar", "1.0", "--gamma-tau", "0.5",
                   "--interaction", "zz", "--block", "bogus", "--n", "1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_fisher_command_fd_step_larger_than_nbar(capsys):
    # the step is named, not the negative nbar that nbar - step would give
    rc = cli.main(["fisher", "--nbar", "1e-7", "--gamma-tau", "0.5",
                   "--interaction", "zz", "--block", "plusx", "--n", "1",
                   "--fd-step", "1e-6"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "step 1e-06 exceeds nbar = 1e-07" in err
    assert "must be >= 0" not in err
    # a NaN step is named too, not the NaN nbar that nbar + step would give
    rc = cli.main(["fisher", "--nbar", "1.0", "--gamma-tau", "0.5",
                   "--interaction", "zz", "--block", "plusx", "--n", "1",
                   "--fd-step", "nan"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "finite-difference step must be finite" in err
    assert "nbar must be finite" not in err


def test_zz_closed_command(capsys):
    rc = cli.main(["zz-closed", "--nbar", "1.0", "--gamma-tau", "0.5",
                   "--n", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    value = float(out.split("value_nbar = ")[1].splitlines()[0])
    assert abs(value - zz_fn(1.0, 0.5, 3)) < 1e-12
    assert "delta = " in out


def test_closed_form_commands_reject_non_finite(capsys):
    # rejected at the boundary: the closed forms would print nan or 0
    for argv in (["thermal-fi", "--nbar", "nan"],
                 ["thermal-fi", "--nbar", "inf"],
                 ["zz-closed", "--nbar", "nan", "--gamma-tau", "0.5", "--n", "2"],
                 ["zz-closed", "--nbar", "1.0", "--gamma-tau", "inf", "--n", "2"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert captured.out == ""


def test_optimize_command_b1(capsys):
    rc = cli.main(["optimize", "--nbar", "1.0", "--gamma-tau", "0.5",
                   "--b", "1", "--n", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "theta_opt = " in out and "evaluations = " in out


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        cli.main([])


def test_sweep_command_csv(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    rc = cli.main(["sweep", "--nbar-grid", "0.5,1.0",
                   "--gamma-tau-grid", "0.2,0.8", "--interaction", "zz",
                   "--block", "plusx", "--n", "2",
                   "--quantities", "qfi,ratio_thermal",
                   "--output", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "nbar,gamma_tau,qfi,ratio_thermal,status"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0.5" and first[-1] == "ok"
    assert abs(float(first[2]) - zz_fn(0.5, 0.2, 2)) < 1e-6


def test_sweep_command_rejects_non_finite_grid(capsys):
    # a NaN point used to pass the monotonicity check and reach LAPACK
    for grid in ("0.5,nan", "inf", "0.5,1.0,-inf"):
        rc = cli.main(["sweep", "--nbar-grid", grid, "--gamma-tau-grid", "0.2",
                       "--interaction", "zz", "--block", "plusx", "--n", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "DLASCL" not in err


def test_sweep_command_json_stdout(capsys):
    rc = cli.main(["sweep", "--nbar-grid", "1.0", "--gamma-tau-grid", "0.5",
                   "--block", "plusx", "--n", "1", "--quantities", "qfi",
                   "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    assert abs(rows[0]["qfi"] - zz_fn(1.0, 0.5, 1)) < 1e-6


def test_sweep_config_file_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "sweep.conf"
    conf.write_text("nbar-grid = 1.0\ngamma-tau-grid = 0.5\n"
                    "block = plusx\nn = 1\nquantities = qfi\nformat = json\n")
    rc = cli.main(["sweep", "--config", str(conf), "--n", "2"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert abs(rows[0]["qfi"] - zz_fn(1.0, 0.5, 2)) < 1e-6


def test_sweep_config_unknown_key(tmp_path, capsys):
    conf = tmp_path / "sweep.conf"
    conf.write_text("volume = 11\n")
    rc = cli.main(["sweep", "--config", str(conf)])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_sweep_threads_env(monkeypatch, capsys):
    monkeypatch.setenv(cli.THREADS_ENV, "2")
    rc = cli.main(["sweep", "--nbar-grid", "0.5,1.0", "--gamma-tau-grid",
                   "0.5", "--block", "plusx", "--n", "1",
                   "--quantities", "qfi"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_sweep_threads_below_one_rejected(monkeypatch, capsys):
    args = ["sweep", "--nbar-grid", "0.5", "--gamma-tau-grid", "0.5",
            "--block", "plusx", "--n", "1", "--quantities", "qfi"]
    for flag in ("0", "-3"):
        assert cli.main(args + ["--threads", flag]) == 2
        captured = capsys.readouterr()
        assert f"threads must be an integer >= 1, got '{flag}'" in captured.err
        assert captured.out == ""
    for value in ("0", "two"):
        monkeypatch.setenv(cli.THREADS_ENV, value)
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert f"{cli.THREADS_ENV} must be an integer >= 1, got '{value}'" in err
    # the flag wins over the environment
    assert cli.main(args + ["--threads", "1"]) == 0


def stub_report(passed):
    return ClaimReport(results=(
        ClaimResult("stub", "stub check", 1.0, 1.0 if passed else 2.0,
                    1e-6, passed, "abs"),))


def test_claims_command_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "claim_suite", lambda seed: stub_report(True))
    assert cli.main(["claims"]) == 0
    assert "1/1 checks passed" in capsys.readouterr().out
    monkeypatch.setattr(cli, "claim_suite", lambda seed: stub_report(False))
    assert cli.main(["claims"]) == 1
    assert "0/1 checks passed" in capsys.readouterr().out
