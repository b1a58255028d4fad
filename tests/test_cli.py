"""Command-line interface behavior and output files."""
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pulsox import cli
from pulsox.cli import _EXPERIMENT_FLAGS, cli_main
from pulsox.config import ExperimentConfig, log_grid, parse_config_text
from pulsox.experiments import config_from_metadata, run_experiment
from pulsox.table import ResultTable
from pulsox.wigner import grid_from_csv

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(args, monkeypatch, tmp_path):
    monkeypatch.setenv("PULSOX_OUTPUT_DIR", str(tmp_path))
    return cli_main(args)


def test_fidelity_sweep_writes_requested_rows(tmp_path, monkeypatch, capsys):
    rc = run(["fidelity-sweep", "--mu", "-1.2:1.2:49",
              "--phi", "0.0628"], monkeypatch, tmp_path)
    assert rc == 0
    table = ResultTable.from_csv((tmp_path / "fidelity_sweep.csv").read_text())
    assert len(table.rows) == 49
    assert "wrote" in capsys.readouterr().out


def _table_body(path) -> str:
    return "".join(line for line in path.read_text().splitlines(keepends=True)
                   if not line.startswith("#"))


@pytest.mark.parametrize("ranges", [["--mu", "-1.2:1.2:49"],
                                    ["--q", "4:7:7", "--epsilon", "-5:-2:7"]])
def test_range_spelling_of_the_default_grid_writes_the_default_rows(ranges, tmp_path,
                                                                    monkeypatch):
    assert run(["fidelity-sweep", "--output", str(tmp_path / "default")],
               monkeypatch, tmp_path) == 0
    assert run(["fidelity-sweep", *ranges, "--output", str(tmp_path / "ranged")],
               monkeypatch, tmp_path) == 0
    assert _table_body(tmp_path / "ranged.csv") == _table_body(tmp_path / "default.csv")


def _readme_commands():
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("pulsox ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_cli_examples_run(argv, tmp_path, monkeypatch):
    assert run(argv, monkeypatch, tmp_path) == 0


def test_readme_config_example_loads():
    block = re.search(r"### Config files\n.*?```ini\n(.*?)```", README.read_text(), re.S)
    config = ExperimentConfig.from_items(parse_config_text(block.group(1)))
    config.validate()
    assert config.sweep.q == log_grid("4:7:7")


def probe(code):
    """Standard output of ``code`` run in a fresh interpreter that imports ./src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_importing_the_cli_does_not_load_scipy_optimize():
    assert probe("import sys, pulsox.cli; print('scipy.optimize' in sys.modules)") == "False"


def test_optimizing_a_schedule_does_not_load_scipy():
    assert probe("import math, sys, pulsox\n"
                 "pulsox.optimize_schedule(math.sqrt(2), math.pi / 50, pulsox.LOSSLESS)\n"
                 "print('scipy' in sys.modules)") == "False"


def test_a_table_only_run_does_not_load_multiprocessing(tmp_path):
    # the grid writers import it; a run that writes no grid pays nothing
    code = ("import sys, pulsox.cli\n"
            f"pulsox.cli.cli_main(['photon-budget', '--output', {str(tmp_path / 'b')!r}])\n"
            "print('multiprocessing' in sys.modules)")
    assert probe(code).splitlines()[-1] == "False"


def test_photon_budget_prints_summary(tmp_path, monkeypatch, capsys):
    # one mu writes a one-row table, as any number of mu does
    rc = run(["photon-budget", "--mu", "1.4142", "--phi", "0.0628"],
             monkeypatch, tmp_path)
    assert rc == 0
    assert "photon budget over 1 mu points" in capsys.readouterr().out
    table = ResultTable.from_csv((tmp_path / "photon_budget.csv").read_text())
    assert f"{table.column('budget_approx')[0]:.3g}" == "16.5"


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
    (["multimode", "--mu", "0:0.3:2"], "sweep.mu"),
    (["fidelity-sweep", "--mu", "1:2"], "sweep.mu"),
    (["fidelity-sweep", "--mu=-400:400:3"], "sweep.mu"),
    (["cat-decay", "--mu", "-400:0:2"], "sweep.mu"),  # underflows to 0
    (["fiber-loss", "--length-km", "nan"], "--length-km"),
    (["regime-check", "--g0", "nan", "--omega-m", "1e6", "--kappa", "1e9",
      "--pulse-bandwidth", "1e8"], "--g0"),
    (["fock-squeeze", "--set", "sweep.mu=1,2"], "sweep.mu"),
    (["fidelity-sweep", "--mu", "0:1:0"], "sweep.mu"),
    (["fidelity-sweep", "--set", "experiment=photon-budget"], "experiment"),
    (["multimode", "--set", "sweep.g2_ratio="], "sweep.g2_ratio"),
    (["impulse", "--set", "impulse.nbar_in="], "impulse.nbar_in"),
    (["cat-decay", "--set", "sweep.alpha="], "sweep.alpha"),
    # two values whose output labels coincide would overwrite one grid or
    # give two columns one name
    (["fock-squeeze", "--epsilon", "0.011,0.012", "--resolution", "64"], "sweep.epsilon"),
    (["fidelity-sweep", "--q", "1e4,1.0001e4"], "sweep.q"),
    (["fidelity-sweep", "--epsilon", "0.1,0.1"], "sweep.epsilon"),
    (["regime-check", "--g0", "1e7", "--omega-m", "1e6", "--kappa", "1e9",
      "--pulse-bandwidth", "1e8", "--margin", "0"], "margin"),
])
def test_rejected_option_names_its_key(args, key, tmp_path, monkeypatch, capsys):
    rc = run(args, monkeypatch, tmp_path)
    assert rc == 1
    assert key in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_every_experiment_flag_names_a_config_key():
    keys = ExperimentConfig().flatten()
    assert [key for _, key, _ in _EXPERIMENT_FLAGS if key not in keys] == []


def test_one_run_validates_once(tmp_path, monkeypatch):
    calls = []
    validate = ExperimentConfig.validate

    def counted(config):
        calls.append(config)
        validate(config)

    monkeypatch.setattr(ExperimentConfig, "validate", counted)
    assert run(["photon-budget", "--mu", "1,2"], monkeypatch, tmp_path) == 0
    assert len(calls) == 1


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


@pytest.mark.parametrize("in_file,on_command_line,mus", [
    ("sweep.mu = 0:1:3", ["--mu", "2"], [2.0]),
    ("sweep.mu = 2.0", ["--mu", "0:1:3"], [1.0, 10.0 ** 0.5, 10.0]),
    ("sweep.mu = 2.0", ["--set", "sweep.mu=0:1:3"], [1.0, 10.0 ** 0.5, 10.0]),
])
def test_command_line_mu_replaces_the_config_files_mu(in_file, on_command_line, mus,
                                                      tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(in_file + "\n")
    rc = run(["photon-budget", "--config", str(cfg), *on_command_line,
              "--output", str(tmp_path / "budget")], monkeypatch, tmp_path)
    assert rc == 0
    table = ResultTable.from_csv((tmp_path / "budget.csv").read_text())
    assert table.column("mu") == pytest.approx(mus, rel=1e-15)


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
    args = ["photon-budget", "--mu", "-0.3:0.3:5",
            "--output", str(tmp_path / "out")]
    run(args, monkeypatch, tmp_path)
    first = (tmp_path / "out.csv").read_bytes()
    run(args, monkeypatch, tmp_path)
    assert (tmp_path / "out.csv").read_bytes() == first
    # so does the config echoed in its metadata, with the range written out
    echoed = config_from_metadata(ResultTable.from_csv(first.decode()).metadata)
    assert len(echoed.sweep.mu) == 5
    assert run_experiment(echoed).tables["photon_budget"].to_csv().encode() == first


FOCK_GRIDS = ("target", "ideal", "eps_1e-02", "eps_5e-02")  # the order of the grid jobs
FOCK_SMALL = ["fock-squeeze", "--resolution", "64"]


# None keeps this machine's count; 2 and 4 fork 1 and 3 writers on any machine
@pytest.mark.parametrize("cpus", [None, 2, len(FOCK_GRIDS)])
def test_grid_files_do_not_depend_on_the_cpu_count(cpus, tmp_path, monkeypatch, capfd):
    serial, forked = tmp_path / "serial", tmp_path / "forked"
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert run(FOCK_SMALL, monkeypatch, serial) == 0
    monkeypatch.undo()
    if cpus is not None:
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    assert run(FOCK_SMALL, monkeypatch, forked) == 0
    names = ["fock_squeeze.csv"] + [f"fock_squeeze_grid_{g}.csv" for g in FOCK_GRIDS]
    assert sorted(p.name for p in forked.iterdir()) == sorted(names)
    for name in names:
        assert (forked / name).read_bytes() == (serial / name).read_bytes(), name
    # a forked writer never flushes a copy of the parent's buffered stdout
    lines = capfd.readouterr().out.splitlines()
    for directory in (serial, forked):
        for name in names:
            assert lines.count(f"  wrote {directory / name}") == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("grid", ["target", "ideal"])  # the parent's share, a child's share
def test_a_failed_grid_write_exits_2_and_names_its_path(grid, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    blocked = tmp_path / f"fock_squeeze_grid_{grid}.csv"
    blocked.mkdir()
    assert run(FOCK_SMALL, monkeypatch, tmp_path) == 2
    assert str(blocked) in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_a_writer_that_dies_without_a_word_exits_2_and_names_its_paths(tmp_path, monkeypatch,
                                                                        capsys):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    write = cli.grid_to_csv

    def dying(grid, path):
        if path.name.endswith("_ideal.csv"):
            os._exit(3)
        write(grid, path)

    monkeypatch.setattr(cli, "grid_to_csv", dying)
    assert run(FOCK_SMALL, monkeypatch, tmp_path) == 2
    err = capsys.readouterr().err
    assert "exited with code 3" in err
    assert str(tmp_path / "fock_squeeze_grid_ideal.csv") in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("raised,code", [(ValueError("bad grid"), 1),
                                         (ArithmeticError("overflow"), 2)])
def test_a_childs_error_keeps_its_exit_code(raised, code, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    write = cli.grid_to_csv

    def failing(grid, path):
        if path.name.endswith("_ideal.csv"):
            raise raised
        write(grid, path)

    monkeypatch.setattr(cli, "grid_to_csv", failing)
    assert run(FOCK_SMALL, monkeypatch, tmp_path) == code
    assert str(raised) in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_an_interrupt_in_the_parent_joins_the_children(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    parent, write = os.getpid(), cli.grid_to_csv

    def interrupted(grid, path):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        write(grid, path)

    monkeypatch.setattr(cli, "grid_to_csv", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(FOCK_SMALL, monkeypatch, tmp_path)
    assert multiprocessing.active_children() == []
    # the child's share was written in full before the interrupt went on
    for grid in FOCK_GRIDS[1::2]:
        assert grid_from_csv(tmp_path / f"fock_squeeze_grid_{grid}.csv").resolution == 64
