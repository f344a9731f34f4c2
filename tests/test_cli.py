import csv
import json
import os

import pytest

from far2.cli import main

SUITE = """
[solver]
name = FAR2-PK

[solver]
name = AR2

[problem]
name = QUAD
n = 6

[problem]
name = ROSENBR
n = 2
"""


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "ROSENBR" in out and "QUAD" in out


def test_run_then_profile(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(SUITE)
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "reports.csv").exists()
    assert (out / "reports.json").exists()
    capsys.readouterr()
    assert main(["profile", "--out", str(out), "--metric", "fact"]) == 0
    text = capsys.readouterr().out
    assert "FAR2-PK" in text
    dat = [f for f in os.listdir(out) if f.endswith(".dat")]
    assert len(dat) == 2


@pytest.mark.parametrize("timing", [True, False], ids=["timing", "no-timing"])
def test_run_writes_wall_time_only_with_timing(tmp_path, capsys, timing):
    # ROSENBR at n = 100 takes well over a millisecond per run, so a
    # measured wall time reads positive at the CSV's three decimals
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(SUITE.replace("n = 2", "n = 100"))
    out = tmp_path / "results"
    argv = ["run", "--config", str(cfg), "--out", str(out)]
    assert main(argv + ["--timing"] * timing) == 0
    capsys.readouterr()
    with open(out / "reports.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(out / "reports.json") as fh:
        reports = json.load(fh)["reports"]
    assert len(rows) == len(reports) == 4
    for row, report in zip(rows, reports):
        assert report["wall_s"] > 0.0
        if timing:
            assert row["wall_s"] == f"{report['wall_s']:.3f}"
            assert float(row["wall_s"]) > 0.0
        else:
            assert row["wall_s"] == "0.000"


def test_run_requires_config(capsys):
    assert main(["run"]) == 2


@pytest.mark.parametrize("bad", ["[suite]\njobs = two\n",
                                 "[problem]\nname = QUAD\nn = ten\n"])
def test_run_reports_bad_integer(tmp_path, capsys, bad):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(SUITE + bad)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("bad,message", [
    ("[suite]\ntiming = onn\n", "timing: not on/off"),
    ("[problem]\nname = QUAD\nn = 4\nseed = 7\n",
     "QUAD: a registry problem takes no seed"),
], ids=["timing", "registry-seed"])
def test_run_rejects_malformed_suite_values(tmp_path, capsys, bad, message):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(SUITE + bad)
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_run_checks_option_overrides(tmp_path, capsys, jobs):
    # an option is checked as the config file's own value is
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(SUITE)
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--jobs", jobs]) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_a_negative_seed(tmp_path, capsys):
    # the suite seed is added to each synthetic problem's own
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(SUITE + "[problem]\nkind = logistic\nN = 40\nn = 4\n")
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--seed", "-5"]) == 2
    assert "is negative" in capsys.readouterr().err
    assert not out.exists()


def test_profile_without_reports(tmp_path):
    assert main(["profile", "--out", str(tmp_path)]) == 2


def test_profile_of_one_solver(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(SUITE.replace("[solver]\nname = FAR2-PK\n", "", 1))
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["profile", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "profile: profiles need at least two solvers\n"


@pytest.mark.parametrize("text", ["{}", "[1, 2]", "{\"reports\": [{}]}",
                                  "not json"])
def test_profile_of_a_file_that_is_not_reports(tmp_path, capsys, text):
    (tmp_path / "reports.json").write_text(text)
    assert main(["profile", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("profile: ") and "is not a reports file" in err
    assert err.count("\n") == 1


@pytest.mark.slow
def test_check_self_test(capsys):
    assert main(["check"]) == 0
    assert "PASS  loss Hessian interval" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["list", "--seed", "3"],
                                  ["check", "--out", "x"],
                                  ["run", "--metric", "nli"],
                                  ["profile", "--jobs", "2"]])
def test_subcommand_rejects_options_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
