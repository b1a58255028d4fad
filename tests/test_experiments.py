"""Experiment runners: sweeps, tables, and reproducibility round trips."""
import math
import re

import numpy as np
import pytest

from pulsox.config import (EXPERIMENTS, ConfigError, ExperimentConfig,
                           load_config, mu_log_grid, parse_config_text)
from pulsox.experiments import (_squeeze_infidelity, config_from_metadata,
                                d_min_approx, d_min_full,
                                decay_rate_series, dominant_modulation_frequency,
                                estimate_fiber_epsilon, run_experiment,
                                run_fidelity_sweep, run_impulse, run_multimode,
                                run_photon_budget)
from pulsox.channels import LOSSLESS, LossConfig
from pulsox.table import ResultTable


def make_config(experiment: str, **physical) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.experiment = experiment
    for key, value in physical.items():
        setattr(cfg.physical, key, value)
    return cfg


# -- config ---------------------------------------------------------------------

def test_mu_log_grid():
    grid = mu_log_grid("-1:1:3")
    assert grid == pytest.approx((0.1, 1.0, 10.0))
    with pytest.raises(ValueError):
        mu_log_grid("oops")


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
    with pytest.raises(ValueError, match="ragged"):
        ResultTable(["a"], [[1.0, 2.0]])


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
    # with g2 = 0 the collective pulse is the single-mode X-X pulse, so the
    # three-mode run must reproduce the two-mode squeezer with a vacuum ancilla
    ratios = multimode_table.column("g2_over_g1")
    infid = multimode_table.column("infidelity")[ratios.index(0.0)]
    single = _squeeze_infidelity(math.sqrt(2.0), math.pi / 50, 1.0, LOSSLESS)
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
def test_single_mu_runners_read_mu_log_range(experiment):
    # a one-point log10 grid runs exactly the mu it expands to
    def tables(**sweep):
        cfg = make_config(experiment)
        cfg.sweep.alpha = (1.0,)
        for key, value in sweep.items():
            setattr(cfg.sweep, key, value)
        return {name: t.rows for name, t in run_experiment(cfg).tables.items()}

    assert tables(mu_log_range="0.25:0.25:1") == tables(mu=(10.0 ** 0.25,))


# -- photon budget / fiber ----------------------------------------------------------------

def test_photon_budget_runner():
    cfg = ExperimentConfig()
    cfg.experiment = "photon-budget"
    cfg.sweep.mu = (math.sqrt(2.0),)
    table = run_photon_budget(cfg).tables["photon_budget"]
    assert table.rows[0][2] == pytest.approx(16.4936, abs=1e-3)


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
