"""Command-line interface behavior and output files."""
import pytest

from pulsox.cli import cli_main
from pulsox.table import ResultTable
from pulsox.wigner import grid_from_csv


def run(args, monkeypatch, tmp_path):
    monkeypatch.setenv("PULSOX_OUTPUT_DIR", str(tmp_path))
    return cli_main(args)


def test_fidelity_sweep_writes_requested_rows(tmp_path, monkeypatch, capsys):
    rc = run(["fidelity-sweep", "--mu-log-range", "-1.2:1.2:49",
              "--phi", "0.0628"], monkeypatch, tmp_path)
    assert rc == 0
    table = ResultTable.from_csv((tmp_path / "fidelity_sweep.csv").read_text())
    assert len(table.rows) == 49
    assert "wrote" in capsys.readouterr().out


def test_photon_budget_prints_summary(tmp_path, monkeypatch, capsys):
    rc = run(["photon-budget", "--mu", "1.4142", "--phi", "0.0628"],
             monkeypatch, tmp_path)
    assert rc == 0
    out = capsys.readouterr().out
    assert "16.5" in out


def test_squeeze_calculator(capsys):
    assert cli_main(["squeeze", "--mu", "1.4142", "--phi", "0.0628"]) == 0
    out = capsys.readouterr().out
    assert "chi1" in out and "photon budget" in out


def test_regime_check_warns(capsys):
    rc = cli_main(["regime-check", "--g0", "1", "--omega-m", "1e9",
                   "--kappa", "1e9", "--pulse-bandwidth", "1e8"])
    assert rc == 0  # non-fatal warnings
    assert "unresolved-sideband" in capsys.readouterr().out


def test_fiber_loss_calculator(capsys):
    assert cli_main(["fiber-loss", "--length-km", "0.012"]) == 0
    assert "0.0011" in capsys.readouterr().out


def test_unknown_config_key_is_validation_error(tmp_path, monkeypatch, capsys):
    rc = run(["fidelity-sweep", "--set", "physical.bogus=1"],
             monkeypatch, tmp_path)
    assert rc == 1
    assert "physical.bogus" in capsys.readouterr().err


def test_non_finite_config_value_is_validation_error(tmp_path, monkeypatch, capsys):
    rc = run(["impulse", "--set", "physical.q=nan"], monkeypatch, tmp_path)
    assert rc == 1
    assert "physical.q" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_zero_readout_strength_is_validation_error(tmp_path, monkeypatch, capsys):
    rc = run(["impulse", "--set", "readout.chi_ro=0"], monkeypatch, tmp_path)
    assert rc == 1
    assert "readout.chi_ro" in capsys.readouterr().err


@pytest.mark.parametrize("periods", ["0", "0.01"])
def test_empty_decay_series_is_validation_error(periods, tmp_path, monkeypatch, capsys):
    rc = run(["cat-decay", "--set", f"cat.series_periods={periods}"], monkeypatch, tmp_path)
    assert rc == 1
    assert "cat.series_periods" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args,key", [
    (["fock-squeeze", "--resolution", "0"], "grid.resolution"),
    (["fidelity-sweep", "--q", "0.4"], "sweep.q"),
    (["impulse", "--set", "physical.q=0.3"], "physical.q"),
    (["impulse", "--set", "physical.nbar_m=0", "--set", "physical.q=10"], "physical.nbar_m"),
    (["multimode", "--mu", "1,2,3"], "sweep.mu"),
    (["fock-squeeze", "--mu", "1,2"], "sweep.mu"),
    (["multimode", "--mu-log-range", "0:0.3:2"], "sweep.mu_log_range"),
    (["fidelity-sweep", "--mu-log-range", "1:2"], "sweep.mu_log_range"),
    (["fidelity-sweep", "--mu-log-range=-400:400:3"], "sweep.mu_log_range"),
    (["cat-decay", "--mu-log-range", "-400:0:2"], "sweep.mu_log_range"),
    (["fiber-loss", "--length-km", "nan"], "--length-km"),
    (["regime-check", "--g0", "nan", "--omega-m", "1e6", "--kappa", "1e9",
      "--pulse-bandwidth", "1e8"], "--g0"),
])
def test_rejected_option_names_its_key(args, key, tmp_path, monkeypatch, capsys):
    rc = run(args, monkeypatch, tmp_path)
    assert rc == 1
    assert key in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_missing_config_file(tmp_path, monkeypatch, capsys):
    rc = run(["fidelity-sweep", "--config", str(tmp_path / "absent.cfg")],
             monkeypatch, tmp_path)
    assert rc == 2  # unreadable input counts as an IO failure


def test_config_file_drives_run(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sweep.mu = 1.0, 2.0\nphysical.phi = 0.0628\n")
    rc = run(["photon-budget", "--config", str(cfg),
              "--output", str(tmp_path / "budget")], monkeypatch, tmp_path)
    assert rc == 0
    table = ResultTable.from_csv((tmp_path / "budget.csv").read_text())
    assert len(table.rows) == 2


def test_json_output_format(tmp_path, monkeypatch):
    rc = run(["photon-budget", "--mu", "2.0", "--output",
              str(tmp_path / "b"), "--format", "json"], monkeypatch, tmp_path)
    assert rc == 0
    table = ResultTable.from_json((tmp_path / "b.json").read_text())
    assert table.columns == ["mu", "budget_exact", "budget_approx"]


def test_fock_squeeze_exports_grids(tmp_path, monkeypatch):
    rc = run(["fock-squeeze", "--resolution", "128",
              "--set", "physical.q=1e5"], monkeypatch, tmp_path)
    assert rc == 0
    grid = grid_from_csv(tmp_path / "fock_squeeze_grid_target.csv")
    assert grid.resolution == 128
    table = ResultTable.from_csv((tmp_path / "fock_squeeze.csv").read_text())
    assert table.columns == ["epsilon", "eta"]
    assert all(row[1] > 0 for row in table.rows)


def test_byte_identical_rerun(tmp_path, monkeypatch):
    args = ["photon-budget", "--mu-log-range", "-0.3:0.3:5",
            "--output", str(tmp_path / "out")]
    run(args, monkeypatch, tmp_path)
    first = (tmp_path / "out.csv").read_bytes()
    run(args, monkeypatch, tmp_path)
    assert (tmp_path / "out.csv").read_bytes() == first
