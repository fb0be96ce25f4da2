import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from collide_qfi import cli
from collide_qfi.channels import Interaction, ModelParams
from collide_qfi.fisher import thermal_fi_nbar
from collide_qfi.optimize import optimize_b2
from collide_qfi.sweeps import ClaimResult
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
    # a repeated key, '-' and '_' counted the same, would let one line
    # silently win
    for text, key in (("n = 2\nn = 1\n", "'n'"),
                      ("nbar_grid = 1\nnbar-grid = 2\n", "'nbar-grid'")):
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"bad.conf:2: config key {key} "
                                             "is repeated"):
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
    # a negative gamma_tau has no closed form at any N
    for n in ("1", "2"):
        assert cli.main(["zz-closed", "--nbar", "1.0", "--gamma-tau", "-1",
                         "--n", n]) == 2
        captured = capsys.readouterr()
        assert "must be nonnegative" in captured.err and captured.out == ""


def test_optimize_command_b1(capsys):
    rc = cli.main(["optimize", "--nbar", "1.0", "--gamma-tau", "0.5",
                   "--b", "1", "--n", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "theta_opt = " in out and "evaluations = " in out


def test_optimize_command_b2(capsys):
    # the five Schmidt fields of the optimum, its value and its cost, as a
    # direct optimize_b2 call gives them
    rc = cli.main(["optimize", "--nbar", "10", "--gamma-tau", "0.5",
                   "--b", "2", "--n", "2", "--seed", "0"])
    assert rc == 0
    params = ModelParams(nbar=10.0, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    opt = optimize_b2(params, 2, seed=0)
    a = opt.argmax
    fields = [("r", a.r), ("theta_m", a.theta_m), ("theta_n", a.theta_n),
              ("phi_n", a.phi_n), ("alpha", a.alpha),
              ("value_nbar", opt.value_nbar)]
    expected = [f"{name} = {value:.12g}" for name, value in fields]
    expected.append(f"evaluations = {opt.evaluations}")
    assert capsys.readouterr().out.splitlines() == expected


def test_chain_failure_exits_1(capsys):
    # at nbar = 1e-20 the |+x> derivative leaks into the kernel of rho: a
    # runtime failure of the chain, not a bad argument
    rc = cli.main(["fisher", "--nbar", "1e-20", "--gamma-tau", "0.5",
                   "--interaction", "zz", "--block", "plusx", "--n", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "derivative leaves the state's support" in captured.err
    assert captured.out == ""


def test_zz_closed_degenerate_transitions_exit_2(capsys):
    # at nbar = gamma_tau = 1e-200, p_{g->e} = (1 - e^-Gamma) p_e underflows
    # to 0: Delta has no value
    rc = cli.main(["zz-closed", "--nbar", "1e-200", "--gamma-tau", "1e-200",
                   "--n", "2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "degenerate transition probabilities" in captured.err
    assert captured.out == ""


def test_commands_reject_an_overflowing_gamma_tau(capsys):
    # 2 gamma_tau (2nbar+1) overflows at gamma_tau = 1e308: every command
    # exits 2 where it printed nan (fisher, zz-closed) or failed inside the
    # optimizer, and a sweep row reads ValueError where it read nan, ok
    point = ["--nbar", "1", "--gamma-tau", "1e308"]
    for argv in (["fisher", *point, "--interaction", "zz", "--block",
                  "plusx", "--n", "1"],
                 ["zz-closed", *point, "--n", "2"],
                 ["optimize", *point, "--b", "1", "--n", "1"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "2 gamma_tau_se (2nbar+1) must be finite" in captured.err
        assert captured.out == ""
    assert cli.main(["sweep", "--nbar-grid", "1", "--gamma-tau-grid",
                     "0.5,1e307,1e308", "--quantities",
                     "qfi,ratio_thermal"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["ok", "ok", "ValueError"]
    assert rows[2] == "1,1e+308,nan,nan,ValueError"
    # the overflow at (1e10, 1e300) used to escape as a RuntimeWarning, an
    # error under this suite's warning filter
    assert cli.main(["sweep", "--nbar-grid", "1,1e10", "--gamma-tau-grid",
                     "0.5,1e300"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["ok", "ok", "ok",
                                                     "ValueError"]


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        cli.main([])
    # removed options are unknown arguments to argparse
    for argv in (["fisher", "--nbar", "1.0", "--gamma-tau", "0.5",
                  "--interaction", "zz", "--block", "plusx", "--n", "1",
                  "--fd-step", "1e-5"],
                 ["sweep", "--nbar-grid", "0.5", "--gamma-tau-grid", "0.5",
                  "--block", "plusx", "--n", "1", "--threads", "2"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2


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


def test_sweep_command_opens_its_output_before_the_sweep(tmp_path, monkeypatch,
                                                         capsys):
    # a path that cannot be written fails before any point is computed, and
    # a rejected config leaves an existing output file alone
    seen = []
    monkeypatch.setattr(cli, "run_sweep",
                        lambda config, seed: seen.append(config) or [])
    point = ["sweep", "--nbar-grid", "1.0", "--gamma-tau-grid", "0.5"]
    missing = tmp_path / "missing" / "rows.csv"
    assert cli.main(point + ["--output", str(missing)]) == 1
    captured = capsys.readouterr()
    assert "No such file or directory" in captured.err and captured.out == ""
    assert seen == [] and not missing.parent.exists()
    kept = tmp_path / "rows.csv"
    kept.write_text("earlier rows\n")
    assert cli.main(point + ["--n", "9", "--output", str(kept)]) == 2
    assert "n_measured must be in 1..4" in capsys.readouterr().err
    assert seen == [] and kept.read_text() == "earlier rows\n"
    assert cli.main(point + ["--output", str(kept)]) == 0
    assert len(seen) == 1 and kept.read_text() == (
        "nbar,gamma_tau,qfi,ratio_thermal,status\n")


def test_sweep_command_rejects_non_finite_grid(capsys, tmp_path):
    # a NaN point used to pass the monotonicity check and reach LAPACK
    for grid in ("0.5,nan", "inf", "0.5,1.0,-inf"):
        rc = cli.main(["sweep", "--nbar-grid", grid, "--gamma-tau-grid", "0.2",
                       "--interaction", "zz", "--block", "plusx", "--n", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "DLASCL" not in err
    # a non-finite collision angle used to print every row as failed and
    # exit 0; it is rejected before the sweep starts, from a flag or a file
    conf = tmp_path / "sweep.conf"
    conf.write_text("g_tau_sa = nan\n")
    point = ["sweep", "--nbar-grid", "1.0", "--gamma-tau-grid", "0.5"]
    for argv in (point + ["--g-tau-sa", "nan"], point + ["--g-tau-sa", "inf"],
                 point + ["--config", str(conf)]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "g_tau_sa must be finite" in captured.err and captured.out == ""


def test_sweep_command_json_stdout(capsys):
    rc = cli.main(["sweep", "--nbar-grid", "1.0", "--gamma-tau-grid", "0.5",
                   "--block", "plusx", "--n", "1", "--quantities", "qfi",
                   "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    assert abs(rows[0]["qfi"] - zz_fn(1.0, 0.5, 1)) < 1e-6


def test_sweep_command_json_is_strict(capsys):
    # a failed point has no numbers: strict JSON has null there, not NaN
    rc = cli.main(["sweep", "--nbar-grid", "0,1", "--gamma-tau-grid", "0.5",
                   "--block", "plusx", "--n", "1", "--format", "json"])
    assert rc == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rows = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert rows[0]["status"] == "RankChangeError"
    assert rows[0]["qfi"] is None and rows[0]["ratio_thermal"] is None
    assert rows[1]["status"] == "ok"
    assert abs(rows[1]["qfi"] - zz_fn(1.0, 0.5, 1)) < 1e-6


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
    for line in ("volume = 11\n", "threads = 2\n"):
        conf.write_text(line)
        rc = cli.main(["sweep", "--config", str(conf)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err
    conf.write_text("n = 2\nn = 1\nnbar_grid = 1\nnbar-grid = 2\n"
                    "gamma_tau_grid = 0.5\n")
    assert cli.main(["sweep", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert "config key 'n' is repeated" in captured.err and captured.out == ""
    # configs that would fail at every grid point are rejected up front
    point = ["sweep", "--nbar-grid", "1.0", "--gamma-tau-grid", "0.5"]
    for flags, message in (
            (["--block", "optimize-b2", "--interaction", "zz", "--n", "3"],
             "n_measured=3 is not a multiple of block size 2"),
            (["--block", "plusx", "--n", "0"], "n_measured must be in 1..4"),
            (["--block", "plusx", "--n", "5"], "n_measured must be in 1..4"),
            (["--block", "gg", "--n", "3"], "not a multiple of block size 2"),
            (["--block", "optimize-b2", "--interaction", "exchange",
              "--n", "3"], "n_measured=3 is not a multiple of block size 2"),
            (["--block", "plusx", "--quantities", "qfi,theta_opt"],
             "theta_opt")):
        assert cli.main(point + flags) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


def exit_code(argv):
    """main's exit status, whether it returns it or argparse exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_sweep_config_values_are_checked_like_flags(tmp_path, monkeypatch,
                                                    capsys):
    conf = tmp_path / "sweep.conf"
    point = "nbar-grid = 1.0\ngamma-tau-grid = 0.5\nquantities = qfi\n"
    for line, flag in (("format = xml", "--format"),
                       ("interaction = ZZ", "--interaction"),
                       ("n = two", "--n"), ("seed = 1.5", "--seed"),
                       ("seed = -1", "--seed")):
        conf.write_text(point + line + "\n")
        assert exit_code(["sweep", "--config", str(conf)]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""
    # numpy's generators take no negative seed, and no subcommand does
    for argv in (["sweep"], ["claims"],
                 ["optimize", "--nbar", "1", "--gamma-tau", "0.5", "--b", "2",
                  "--n", "2"]):
        assert exit_code(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--seed" in captured.err and captured.out == ""
    # a repeated quantity would give CSV two columns and JSON one key
    conf.write_text(point.replace("qfi", "qfi,qfi"))
    for argv in (["sweep", "--config", str(conf)],
                 ["sweep", "--nbar-grid", "1", "--quantities", "qfi,qfi"]):
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert "'qfi' is repeated" in captured.err and captured.out == ""
    # keys are whole flag names: no --config, no abbreviation of --nbar-grid
    for line in ("config = other.conf", "nbar = 1.0"):
        conf.write_text(line + "\n")
        assert exit_code(["sweep", "--config", str(conf)]) == 2
        captured = capsys.readouterr()
        assert "unknown config key" in captured.err and captured.out == ""

    seen = []
    monkeypatch.setattr(cli, "run_sweep",
                        lambda config, seed: seen.append((config, seed)) or [])
    # a value that starts with '-' is a value, not a flag
    conf.write_text("nbar-grid = 1.0\ngamma-tau-grid = -0.5,0.5\n")
    assert exit_code(["sweep", "--config", str(conf)]) == 0
    assert seen[-1][0].gamma_tau_grid == (-0.5, 0.5)
    capsys.readouterr()
    # a flag of each type overrides its file value
    conf.write_text(point + "format = csv\ng_tau_sa = 1.0\nseed = 3\n")
    assert exit_code(["sweep", "--config", str(conf), "--format", "json",
                      "--g-tau-sa", "0.7", "--seed", "5"]) == 0
    config, seed = seen[-1]
    assert (config.g_tau_sa, seed) == (0.7, 5)
    assert json.loads(capsys.readouterr().out) == []


def stub_report(measured):
    return (ClaimResult("stub", "stub check", 1.0, measured, 1e-6, "abs"),)


def test_claims_command_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "claim_suite", lambda: stub_report(1.0))
    assert cli.main(["claims"]) == 0
    assert "1/1 checks passed" in capsys.readouterr().out
    monkeypatch.setattr(cli, "claim_suite", lambda: stub_report(2.0))
    assert cli.main(["claims"]) == 1
    assert "0/1 checks passed" in capsys.readouterr().out


def test_claims_command_takes_no_options(capsys):
    assert exit_code(["claims", "--seed", "0"]) == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_readme_commands_parse():
    # every collide-qfi line of README's command-line block, continuation
    # lines joined, parses; together they show every subcommand
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    parser = cli.build_parser()
    commands = set()
    for line in lines:
        if line.startswith("collide-qfi "):
            try:
                args = parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")
            commands.add(args.command)
    assert commands == {"thermal-fi", "fisher", "zz-closed", "optimize",
                        "sweep", "claims"}
