"""Experiment runners: sweeps, tables, and reproducibility round trips."""
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pulsox.config import (EXPERIMENTS, ConfigError, ExperimentConfig,
                           load_config, log_grid, parse_config_text)
from pulsox.experiments import (RUNNERS, config_from_metadata,
                                d_min_approx, d_min_full,
                                decay_rate_series, dominant_modulation_frequency,
                                estimate_fiber_epsilon, run_experiment,
                                run_fidelity_sweep, run_impulse, run_multimode,
                                run_photon_budget)
from pulsox.channels import LOSSLESS, LossConfig
from pulsox import MECH, ideal_target_state, schedule_for_mu, vacuum, vacuum_infidelity
from pulsox.table import ResultTable
import pulsox


def make_config(experiment: str, **physical) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.experiment = experiment
    for key, value in physical.items():
        setattr(cfg.physical, key, value)
    return cfg


# -- config ---------------------------------------------------------------------

def test_log_grid():
    grid = log_grid("-1:1:3")
    assert grid == pytest.approx((0.1, 1.0, 10.0))
    for bad in ("oops", "1:2", "0:1:0", "inf:1:3", "0:1:2.5"):
        with pytest.raises(ValueError):
            log_grid(bad)
    with pytest.raises(OverflowError):
        log_grid("0:400:2")


def test_log_grid_overflow_names_the_range_and_the_float_limit():
    with pytest.raises(OverflowError, match=r"'-400:400:3'.*10\^400.*1\.8e\+308"):
        log_grid("-400:400:3")


def test_every_list_key_takes_a_range():
    cfg = ExperimentConfig()
    for key in ("sweep.mu", "sweep.q", "sweep.epsilon", "sweep.alpha",
                "sweep.g2_ratio", "impulse.nbar_in"):
        cfg.set_key(key, "-0.2:0:3")
        section, _, name = key.partition(".")
        assert getattr(getattr(cfg, section), name) == log_grid("-0.2:0:3")
    with pytest.raises(ConfigError, match="sweep.mu"):
        cfg.set_key("sweep.mu", "0:400:2")  # overflows


def test_experiment_names_are_the_runners():
    assert EXPERIMENTS == tuple(RUNNERS)


def test_parse_config_text():
    items = parse_config_text("""
        # comment
        experiment = multimode
        physical.q = 1e5
        sweep.mu = 0.5, 2.0
    """)
    cfg = ExperimentConfig.from_items(items)
    assert cfg.experiment == "multimode"
    assert cfg.physical.q == 1e5
    assert cfg.sweep.mu == (0.5, 2.0)


def test_config_unknown_key():
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError, match="physical.bogus"):
        cfg.set_key("physical.bogus", "1")
    with pytest.raises(ConfigError, match="nonsense"):
        cfg.set_key("nonsense.q", "1")


def test_config_bad_value():
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError, match="physical.q"):
        cfg.set_key("physical.q", "not-a-number")


def test_config_flatten_round_trip():
    cfg = make_config("impulse", q=3.3e6, nbar_m=123.0)
    cfg.sweep.mu = (0.5, 1.0, 2.0)
    again = ExperimentConfig.from_items(cfg.flatten())
    assert again == cfg


def test_config_file_loading(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("experiment = photon-budget\nsweep.mu = 1.4142\n")
    cfg = load_config(path)
    assert cfg.experiment == "photon-budget"
    assert cfg.sweep.mu == (1.4142,)


def test_validate_rejects_unknown_experiment():
    cfg = make_config("warp-drive")
    with pytest.raises(ConfigError, match="experiment"):
        cfg.validate()


@pytest.mark.parametrize("key,raw", [
    ("physical.q", "nan"), ("physical.q", "0"), ("physical.q", "0.5"),
    ("sweep.q", "1e5, 0.4"), ("physical.nbar_m", "-1"),
    ("physical.nbar_l", "-inf"), ("physical.epsilon", "1.5"),
    ("physical.epsilon", "-0.1"), ("physical.ancilla_vsq", "0"),
    ("physical.phi", "inf"), ("readout.chi_ro", "0"), ("sweep.alpha", "1, -2"),
    ("sweep.epsilon", "0.1, 2"), ("sweep.q", "1e5, nan"),
    ("cat.samples_per_period", "32"), ("cat.samples_per_period", "inf"),
    ("cat.max_periods", "0"), ("grid.half_extent", "nan"),
    ("physical.phi", "0"), ("physical.phi", "1.6"), ("sweep.mu", "1, 0"),
    ("sweep.g2_ratio", "0.5, -0.1"), ("impulse.nbar_in", "-1"),
    ("cat.momentum_mu", "0"), ("cat.series_periods", "0"),
    ("grid.half_extent", "0"), ("grid.resolution", "2"),
    ("grid.resolution", "500"), ("grid.resolution", "256.7"),
    ("cat.samples_per_period", "64.9"), ("output.format", "xml"),
    ("physical.omega_m", "0"),
])
def test_set_key_rejects_non_finite_and_out_of_range(key, raw):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        ExperimentConfig().set_key(key, raw)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_default_configs_validate(experiment):
    make_config(experiment).validate()


@pytest.mark.parametrize("q,sweep_q", [(10.0, ()), (0.5000001, (10.0,)), (1e8, ())])
def test_validate_rejects_non_completely_positive_delay(q, sweep_q):
    # q -> 1/2 equilibrates the bath during the delay, so only sweep.q fails
    # there; at q = 1e8 the violation is -2.6e-10, inside an absolute 1e-9
    cfg = make_config("fidelity-sweep", q=q, nbar_m=0.0)
    cfg.sweep.q = sweep_q
    failing_q = re.escape(repr(sweep_q[0] if sweep_q else q))
    with pytest.raises(ConfigError,
                       match=rf"physical\.nbar_m.*q={failing_q},.*not completely positive"):
        cfg.validate()
    cfg.physical.nbar_m = 14.0
    cfg.validate()


def test_validate_rejects_a_cat_decay_sample_that_is_not_completely_positive():
    # (2 nbar_m + 1) phi = 11 passes the delay; the first sample, omega_m t = 2 pi / 64,
    # gives 1.08 < sqrt(3)
    cfg = make_config("cat-decay", phi=1.0, nbar_m=5.0)
    t = re.escape(repr(2.0 * math.pi / 64))
    with pytest.raises(ConfigError, match=rf"physical\.nbar_m.*t={t},.*not completely positive"):
        cfg.validate()
    cfg.experiment = "impulse"
    cfg.validate()
    cfg.experiment, cfg.physical.nbar_m = "cat-decay", 9.0
    cfg.validate()


@pytest.mark.parametrize("error, build, fragment", [
    (ConfigError, lambda: ExperimentConfig().set_key("bogus", "1"),
     "'bogus': unknown top-level key"),
    (ConfigError, lambda: parse_config_text("physical.q = 1e7\nphysical.phi 0.1"),
     "'line 2': expected 'key = value'"),
    (ValueError, lambda: d_min_approx(0.0, 1.0, 3.0, 0.5, 0.1, LOSSLESS),
     "mu and chi_ro must be positive"),
], ids=["top-level-key", "line-without-equals", "d-min-approx-mu"])
def test_bad_input_is_rejected_with_its_reason(error, build, fragment):
    with pytest.raises(error, match=fragment):
        build()


def test_validate_rejects_empty_lists_that_have_no_default():
    # sweep.mu, sweep.q and sweep.epsilon default to empty: the runner's grid
    for experiment in EXPERIMENTS:
        cfg = make_config(experiment)
        for key in ("sweep.mu", "sweep.q", "sweep.epsilon"):
            cfg.set_key(key, "")
        cfg.validate()
    for key in ("sweep.alpha", "sweep.g2_ratio", "impulse.nbar_in"):
        cfg = make_config("impulse")
        cfg.set_key(key, "")
        with pytest.raises(ConfigError, match=rf"{re.escape(key)}.*at least one value"):
            cfg.validate()


def test_validate_rejects_fields_set_directly():
    cfg = make_config("impulse", q=float("nan"))
    with pytest.raises(ConfigError, match="physical.q"):
        cfg.validate()
    cfg = make_config("impulse", epsilon=1.0)
    cfg.validate()  # the range of a loss fraction is closed


# -- tables ----------------------------------------------------------------------

def test_table_round_trips():
    t = ResultTable(["a", "b"], [[1.0, 2.5], [3.0, -0.125]],
                    {"config.x": "1", "version": "0.1.0"})
    assert ResultTable.from_csv(t.to_csv()) == t
    assert ResultTable.from_json(t.to_json()) == t


def test_table_rejects_ragged_rows():
    with pytest.raises(ValueError, match="^ragged row in result table$"):
        ResultTable(["a"], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="^ragged row in result table$"):
        ResultTable(["a", "b"], [[1.0, 2.0], [3.0]])


def test_table_body_is_one_read_only_float64_array():
    t = ResultTable(["a", "b"], [[1, np.float64(2.5)], [3.0, -0.125]])
    assert t.values.dtype == np.float64 and t.values.shape == (2, 2)
    assert not t.values.flags.writeable
    with pytest.raises(ValueError):
        t.values[0, 0] = 7.0
    assert ResultTable(["a"], []).values.shape == (0, 1)


def test_table_rows_and_columns_are_fresh_python_floats():
    t = ResultTable(["a", "b"], np.array([[1.0, 2.5], [3.0, -0.125]]))
    rows, column = t.rows, t.column("b")
    assert rows == [[1.0, 2.5], [3.0, -0.125]] and column == [2.5, -0.125]
    assert all(type(v) is float for v in [*rows[0], *rows[1], *column])
    rows[0][0] = column[0] = 99.0
    assert t.rows == [[1.0, 2.5], [3.0, -0.125]] and t.column("b") == [2.5, -0.125]


def test_table_equality_compares_columns_values_and_metadata():
    t = ResultTable(["a", "b"], [[1.0, 2.0]], {"k": "v"})
    assert t == ResultTable(["a", "b"], np.array([[1.0, 2.0]]), {"k": "v"})
    assert t != ResultTable(["a", "c"], [[1.0, 2.0]], {"k": "v"})
    assert t != ResultTable(["a", "b"], [[1.0, 2.5]], {"k": "v"})
    assert t != ResultTable(["a", "b"], [[1.0, 2.0], [1.0, 2.0]], {"k": "v"})
    assert t != ResultTable(["a", "b"], [[1.0, 2.0]], {"k": "w"})
    assert t != [[1.0, 2.0]]


def test_table_bytes_of_special_values_are_pinned():
    t = ResultTable(["n", "x"], [[3, np.float64(0.1)], [-0.0, math.nan], [math.inf, 1e-300]],
                    {"k": "v", "a": "b"})
    assert t.to_csv() == "# a = b\n# k = v\nn,x\n3.0,0.1\n-0.0,nan\ninf,1e-300\n"
    assert t.to_json() == (
        '{\n  "metadata": {\n    "a": "b",\n    "k": "v"\n  },\n'
        '  "columns": [\n    "n",\n    "x"\n  ],\n'
        '  "rows": [\n    [\n      3.0,\n      0.1\n    ],\n'
        '    [\n      -0.0,\n      NaN\n    ],\n'
        '    [\n      Infinity,\n      1e-300\n    ]\n  ]\n}\n')


def test_table_render_deterministic():
    t = ResultTable(["x"], [[0.1]], {"k": "v"})
    assert t.to_csv() == t.to_csv()
    with pytest.raises(ValueError):
        t.render("xml")


# -- fidelity sweep ----------------------------------------------------------------

@pytest.fixture(scope="module")
def fidelity_table():
    cfg = ExperimentConfig()
    cfg.experiment = "fidelity-sweep"
    return run_fidelity_sweep(cfg).tables["fidelity_sweep"]


def test_fidelity_sweep_zero_at_unit_mu(fidelity_table):
    mus = np.array(fidelity_table.column("mu"))
    ideal = np.array(fidelity_table.column("infidelity_ideal"))
    assert ideal[np.argmin(np.abs(mus - 1.0))] == pytest.approx(0.0, abs=1e-12)


def test_fidelity_sweep_lossy_above_ideal(fidelity_table):
    ideal = np.array(fidelity_table.column("infidelity_ideal"))
    for name in fidelity_table.columns:
        if name.startswith("infidelity_q") or name.startswith("infidelity_eps"):
            lossy = np.array(fidelity_table.column(name))
            assert np.all(lossy >= ideal - 1e-12)


def test_fidelity_sweep_monotone_in_loss(fidelity_table):
    q_cols = [c for c in fidelity_table.columns if c.startswith("infidelity_q")]
    eps_cols = [c for c in fidelity_table.columns if c.startswith("infidelity_eps")]
    q_curves = np.array([fidelity_table.column(c) for c in q_cols])
    eps_curves = np.array([fidelity_table.column(c) for c in eps_cols])
    assert np.all(np.diff(q_curves, axis=0) <= 1e-12)   # columns ordered by rising Q
    assert np.all(np.diff(eps_curves, axis=0) >= -1e-12)


def test_fidelity_sweep_metadata_echo(fidelity_table):
    cfg = config_from_metadata(fidelity_table.metadata)
    again = run_fidelity_sweep(cfg).tables["fidelity_sweep"]
    assert again.to_csv() == fidelity_table.to_csv()


# -- impulse ------------------------------------------------------------------------

def test_d_min_approx_reductions():
    # no damping, unit mu: sqrt(N_in + 1/chi_ro^2)
    val = d_min_approx(1.0, 1.0, 3.0, 0.5, math.pi / 50, LossConfig(nbar_m=4e4))
    assert val == pytest.approx(math.sqrt(3 + 1.0 / 9.0), rel=1e-12)
    # ground state, strong readout: the bare momentum noise
    val = d_min_approx(1.0, 0.0, 1e9, 0.5, math.pi / 50, LOSSLESS)
    assert val == pytest.approx(1.0, rel=1e-6)


def test_d_min_full_lossless_limits():
    lossless = LossConfig()
    val = d_min_full(1.0, 0.0, 1e6, 0.5, math.pi / 50, lossless)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_impulse_squeezing_helps():
    lossless = LossConfig()
    d_sq = d_min_full(0.5, 1.0, 3.0, 0.5, math.pi / 50, lossless)
    d_un = d_min_full(1.0, 1.0, 3.0, 0.5, math.pi / 50, lossless)
    assert d_sq < d_un


def test_impulse_converges_to_naive_bound():
    # perfect squeezer limit: no damping, noiseless readout
    lossless = LossConfig()
    for mu, nbar_in in ((0.7, 2.0), (1.3, 1.0)):
        full = d_min_full(mu, nbar_in, 1e9, 0.5, math.pi / 50, lossless)
        naive = mu * math.sqrt(2 * nbar_in + 1)
        assert full == pytest.approx(naive, rel=1e-2)


@pytest.fixture(scope="module")
def impulse_table():
    cfg = ExperimentConfig()
    cfg.experiment = "impulse"
    cfg.physical.q = 1e7
    cfg.physical.epsilon = 1e-3
    cfg.physical.phi = math.pi / 50
    return run_impulse(cfg).tables["impulse"]


def test_impulse_full_tracks_approx_to_six_db(impulse_table):
    db = np.array(impulse_table.column("squeezing_db"))
    full = np.array(impulse_table.column("d_min_full"))
    approx = np.array(impulse_table.column("d_min_approx"))
    window = np.abs(db) <= 6.0
    assert np.max(np.abs(full[window] / approx[window] - 1.0)) < 0.05


def test_impulse_naive_fails_at_strong_squeezing(impulse_table):
    db = np.array(impulse_table.column("squeezing_db"))
    full = np.array(impulse_table.column("d_min_full"))
    naive = np.array(impulse_table.column("d_min_naive"))
    strong = db >= 10.0
    assert np.all(full[strong] > naive[strong])


# -- multimode ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def multimode_table():
    cfg = ExperimentConfig()
    cfg.experiment = "multimode"
    cfg.physical.phi = math.pi / 50
    return run_multimode(cfg).tables["multimode"]


def test_multimode_single_mode_endpoint(multimode_table):
    ratios = multimode_table.column("g2_over_g1")
    infid = multimode_table.column("infidelity")
    assert infid[ratios.index(0.0)] == pytest.approx(0.0181, abs=2e-4)


def test_multimode_uncoupled_row_is_the_single_mode_squeezer(multimode_table):
    # with g2 = 0 the composed pulse is the single-mode X-X pulse, so the
    # three-mode run must reproduce the two-mode squeezer with a vacuum ancilla
    ratios = multimode_table.column("g2_over_g1")
    infid = multimode_table.column("infidelity")[ratios.index(0.0)]
    mu, phi = math.sqrt(2.0), math.pi / 50
    single = vacuum_infidelity(schedule_for_mu(mu, phi, 1.0), LOSSLESS,
                               ideal_target_state(vacuum(MECH), mu, phi))
    assert infid == pytest.approx(single, abs=1e-12)


def test_multimode_reference_points(multimode_table):
    expected = {1.0: 0.70, 0.5: 0.19, 0.2: 0.031, 0.1: 0.021}
    ratios = multimode_table.column("g2_over_g1")
    infid = multimode_table.column("infidelity")
    for ratio, target in expected.items():
        got = infid[ratios.index(ratio)]
        assert got == pytest.approx(target, rel=0.2)


def test_multimode_monotone(multimode_table):
    infid = multimode_table.column("infidelity")
    assert all(a < b for a, b in zip(infid, infid[1:]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_multimode_ratio_batch_equals_one_run_per_ratio(seed):
    rng = np.random.default_rng(seed)
    cfg = make_config("multimode", phi=float(rng.uniform(0.01, 1.5)))
    cfg.sweep.mu = (float(rng.uniform(0.3, 3.0)),)
    cfg.sweep.g2_ratio = tuple(rng.uniform(0.0, 2.0, 6).tolist()) + (0.0,)
    rows = run_multimode(cfg).tables["multimode"].rows
    assert len(rows) == 7
    for row in rows:
        cfg.sweep.g2_ratio = (row[0],)
        assert run_multimode(cfg).tables["multimode"].rows == [row]


@pytest.mark.parametrize("name", ["_four_pulse", "fidelity_zero_mean"])
def test_multimode_ratios_make_one_protocol_and_one_fidelity(monkeypatch, name):
    # one per g2/g1 ratio would be 5
    from pulsox import experiments

    made = []
    original = getattr(experiments, name)

    def counted(*args):
        made.append(args)
        return original(*args)

    monkeypatch.setattr(experiments, name, counted)
    run_experiment(make_config("multimode"))
    assert len(made) == 1


# -- cat decay helpers ------------------------------------------------------------------

def test_decay_rate_series():
    t = np.linspace(0.0, 2.0, 9)
    eta = np.exp(-0.7 * t)
    rates = decay_rate_series(t, eta)
    assert rates == pytest.approx(np.full(8, 0.7), rel=1e-9)


def test_dominant_modulation_frequency_synthetic():
    t = np.linspace(0.0, 4 * math.pi, 257)[1:]
    eta = np.exp(-0.1 * t - 0.02 * np.sin(2.0 * t))
    assert dominant_modulation_frequency(t, eta) == pytest.approx(2.0, rel=0.05)


# -- cat decay runner ---------------------------------------------------------------------

def test_default_cat_decay_builds_a_fixed_number_of_damped_channels(monkeypatch):
    # the six half-lives are one batched search: one damped channel per block
    # of scan times shared by every state still scanning (5, up to the last
    # crossing), one per bisection step of all six states (20), and one per
    # block of the decay series (2); six separate searches built 49, a channel
    # per sample would build 1,250
    from pulsox import wigner
    from pulsox.experiments import run_cat_decay

    built = []
    original = wigner.damped_evolution

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(wigner, "damped_evolution", counted)
    cfg = make_config("cat-decay")
    counts = []
    for _ in range(2):
        built.clear()
        run_cat_decay(cfg)
        counts.append(len(built))
    assert counts == [27, 27]


def test_default_cat_decay_results_are_small_to_keep():
    # a caller that keeps every run (a benchmark's timed loop) holds 100
    # results: 2.8 MB with each row a list of Python floats and each table's
    # metadata keys built anew, 0.85 MB with one float64 array per table and
    # one metadata dict per run
    from pulsox.experiments import run_cat_decay

    cfg = make_config("cat-decay")
    run_cat_decay(cfg)  # fill the lazy caches before measuring
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = [run_cat_decay(cfg) for _ in range(100)]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(results) == 100 and held < 1.5e6


def test_cat_half_life_peaks_near_mu_opt():
    # coarse mu sweep around the fringe-symmetrizing optimum for alpha = 2
    from pulsox.experiments import run_cat_decay
    from pulsox import mu_opt

    cfg = ExperimentConfig()
    cfg.experiment = "cat-decay"
    cfg.physical.q = 1e7
    cfg.physical.nbar_m = 4e4
    cfg.physical.epsilon = 1e-3
    cfg.physical.phi = math.pi / 50
    cfg.sweep.alpha = (2.0,)
    cfg.sweep.mu = (1.3, mu_opt(2.0), 3.2)
    cfg.cat.tau_resolution = 256
    result = run_cat_decay(cfg)
    sweep = result.tables["half_life_mu_sweep"]
    taus = sweep.column("tau")
    assert max(taus) == taus[1]


@pytest.mark.parametrize("experiment", ["fock-squeeze", "multimode", "cat-decay"])
def test_single_mu_runners_read_a_one_point_mu_range(experiment):
    # a one-point log10 range of sweep.mu runs exactly the mu it expands to
    def tables(mu: str):
        cfg = make_config(experiment)
        cfg.sweep.alpha = (1.0,)
        cfg.set_key("sweep.mu", mu)
        return {name: t.rows for name, t in run_experiment(cfg).tables.items()}

    assert tables("0.25:0.25:1") == tables(repr(10.0 ** 0.25))


# The SHA-256 of each default table's column and row lines (its CSV without
# the "# " metadata lines).  fock_squeeze is left out: its eta comes from grid
# nodes whose bytes depend on the CPU's SIMD path (ROADMAP item 15).
DEFAULT_TABLE_SHA256 = {
    "fidelity_sweep": "06d52d8420ea0606ad4dc0253a0fa2f244a05bd846e99d56ede374b35e519b8a",
    "impulse": "8c9902631dfc7df88bca027107a6de82642a7e350cfb49bb1eb38ddbafb7909f",
    "multimode": "c22b604ad4bc680acd0e7af987a9eef2eb2c47d7696955697e5d20eeace32cf0",
    "photon_budget": "75891e0f0eaba7d8941f5aa75ca9de80c441359722cb4f0e219f68a00d316993",
    "half_life": "724f23be4393690ef2b0abeb319164ef9a535ac9780c12395f48d222cd67186f",
    "decay_series": "4fa47f9a84e33e19feede32016e23d0b7a78b445ab6db2136ff4617984cbf8eb",
}


@pytest.mark.parametrize("experiment", ["fidelity-sweep", "impulse", "multimode",
                                        "photon-budget", "cat-decay"])
def test_default_tables_keep_their_bytes(experiment):
    for name, table in run_experiment(make_config(experiment)).tables.items():
        body = "".join(line + "\n" for line in table.to_csv().splitlines()
                       if not line.startswith("# "))
        assert hashlib.sha256(body.encode()).hexdigest() == DEFAULT_TABLE_SHA256[name], name


_TABLES_IN_SUBPROCESS = """
import json
from pulsox.config import EXPERIMENTS, ExperimentConfig
from pulsox.experiments import run_experiment
tables = {}
for experiment in EXPERIMENTS:
    config = ExperimentConfig()
    config.experiment = experiment
    tables.update((name, table.to_csv())
                  for name, table in run_experiment(config).tables.items())
print(json.dumps(tables))
"""


def test_default_tables_do_not_depend_on_the_cpu_dispatch_path():
    """The seven default tables (grid CSVs excluded) keep their bytes when
    numpy runs without its SIMD kernels above the build's baseline.

    A subprocess disables, through ``NPY_DISABLE_CPU_FEATURES``, every dispatch
    target of numpy's ``__cpu_dispatch__`` that ``__cpu_features__`` reports
    enabled on this machine, and its tables are compared byte for byte with an
    in-process run.  Only the targets this machine has are switched off: on a
    machine without AVX-512 the AVX-512 kernels never ran, so the test checks
    less, and on one with no target above the baseline it compares two runs
    on the same path.
    """
    from numpy._core import _multiarray_umath as umath

    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    path = [str(Path(pulsox.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", _TABLES_IN_SUBPROCESS], env=env,
                         capture_output=True, text=True, check=True)
    disabled = json.loads(run.stdout)
    in_process = {name: table.to_csv() for experiment in EXPERIMENTS
                  for name, table in run_experiment(make_config(experiment)).tables.items()}
    assert len(disabled) == 7
    assert disabled == in_process


# -- photon budget / fiber ----------------------------------------------------------------

def test_photon_budget_runner():
    cfg = ExperimentConfig()
    cfg.experiment = "photon-budget"
    cfg.sweep.mu = (math.sqrt(2.0),)
    table = run_photon_budget(cfg).tables["photon_budget"]
    assert table.rows[0][2] == pytest.approx(16.4936, abs=1e-3)


@pytest.mark.parametrize("experiment", ["fidelity-sweep", "photon-budget"])
def test_default_mu_sweep_builds_one_batched_schedule(monkeypatch, experiment):
    # the whole mu axis is one batched schedule; one schedule per loss column
    # would build 15 for the fidelity sweep, one per mu 21 for the photon budget
    from pulsox import experiments

    built = []
    original = experiments.schedule_for_mu

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(experiments, "schedule_for_mu", counted)
    run_experiment(make_config(experiment))
    assert len(built) == 1


@pytest.mark.parametrize("experiment, name", [
    ("fidelity-sweep", "vacuum_infidelity"),   # one per loss column would be 15
    ("impulse", "squeezer_output"),            # one per nbar_in would be 2
])
def test_default_loss_and_occupancy_axes_make_one_squeezer_call(monkeypatch, experiment, name):
    from pulsox import experiments

    made = []
    original = getattr(experiments, name)

    def counted(*args):
        made.append(args)
        return original(*args)

    monkeypatch.setattr(experiments, name, counted)
    run_experiment(make_config(experiment))
    assert len(made) == 1


def test_fiber_epsilon_values():
    assert estimate_fiber_epsilon(0.0, 0.4) == 0.0
    assert 0.9e-3 < estimate_fiber_epsilon(0.012, 0.4) < 1.3e-3
    assert estimate_fiber_epsilon(7.5, 0.4) == pytest.approx(0.5, abs=2e-3)
    with pytest.raises(ValueError):
        estimate_fiber_epsilon(-1.0, 0.4)


def test_run_experiment_dispatch():
    cfg = ExperimentConfig()
    cfg.experiment = "photon-budget"
    cfg.sweep.mu = (2.0,)
    result = run_experiment(cfg)
    assert "photon_budget" in result.tables
