"""Experiment runners: sweeps, tables, and reproducibility round trips."""
import gc
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import fock_one_after, without_cpu_dispatch

from pulsox.config import (EXPERIMENTS, ConfigError, ExperimentConfig,
                           load_config, log_grid, parse_config_text)
from pulsox.experiments import (RUNNERS, config_from_metadata,
                                d_min_approx, d_min_full,
                                decay_rate_series, dominant_modulation_frequency,
                                estimate_fiber_epsilon, run_experiment,
                                run_fidelity_sweep, run_impulse, run_multimode,
                                run_photon_budget)
from pulsox.channels import LOSSLESS, LossConfig
from pulsox import mechanical_squeezer, schedule_for_mu, vacuum_infidelity, wigner
from pulsox.wigner import GridClippingError, grid_to_csv
from pulsox.table import ResultTable


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
    ("physical.omega_m", "0"), ("physical.nbar_m", "1.1e100"), ("physical.nbar_l", "1.1e8"),
    ("physical.ancilla_vsq", "9e-5"), ("physical.ancilla_vsq", "1.1e4"),
    ("sweep.g2_ratio", "1, 11"),
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
     r"mu must lie in \[1e-3, 1e3\]"),
    # 1 / mu overflows, and the result was NaN
    (ValueError, lambda: d_min_approx(5e-324, 1.0, 3.0, 0.5, 0.06, LOSSLESS),
     r"mu must lie in \[1e-3, 1e3\]"),
    # the result was NaN (inf / inf in the correction term)
    (ValueError, lambda: d_min_approx(1e154, 1.0, 3.0, 0.5, 0.06, LOSSLESS),
     r"mu must lie in \[1e-3, 1e3\]"),
    # chi_ro^-2 overflows from 2^-511 down; d_min_full warned, d_min_approx
    # raised OverflowError
    (ValueError, lambda: d_min_approx(1.0, 1.0, 1e-200, 0.5, 0.06, LOSSLESS),
     r"chi_ro = 1e-200 must lie in \[1e-6, 1e6\]"),
    (ValueError, lambda: d_min_full(1.0, 1.0, 0.0, 0.5, 0.06, LOSSLESS),
     r"chi_ro = 0.0 must lie in \[1e-6, 1e6\]"),
    (ValueError, lambda: d_min_full(1.0, 1.0, 1e-200, 0.5, 0.06, LOSSLESS),
     r"chi_ro = 1e-200 must lie in \[1e-6, 1e6\]"),
    # the readout pulse's matmul overflowed, at this chi_ro and at this mu
    (ValueError, lambda: d_min_full(1.0, 1.0, 1e154, 0.5, 0.06, LOSSLESS),
     r"chi_ro = 1e\+154 must lie in \[1e-6, 1e6\]"),
    (ValueError, lambda: d_min_full(1e-100, 1.0, 3.0, 0.5, 0.06, LOSSLESS),
     r"mu must lie in \[1e-3, 1e3\]"),
    (ValueError, lambda: d_min_approx(1.0, math.nan, 3.0, 0.5, 0.1, LOSSLESS),
     "nbar_in must be nonnegative"),
    # the ancilla term (1 - mu) / mu v_sq tan(phi) outweighs the rest: a bare
    # "math domain error" from the square root
    (ValueError, lambda: d_min_approx(3.0, 1.0, 3.0, 0.5, 1.57, LOSSLESS),
     "d_min_approx has no value at mu = 3: its variance -391 is not positive"),
    (ValueError, lambda: estimate_fiber_epsilon(math.inf),
     "fiber length and attenuation must be nonnegative and finite"),
], ids=["top-level-key", "line-without-equals", "d-min-approx-mu", "d-min-approx-mu-subnormal",
        "d-min-approx-mu-huge", "d-min-approx-chi-ro-tiny", "d-min-full-chi-ro-zero",
        "d-min-full-chi-ro-tiny", "d-min-full-chi-ro-huge", "d-min-full-mu-tiny",
        "d-min-approx-nbar-nan", "d-min-approx-negative-variance",
        "fiber-epsilon-length-inf"])
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
    payload = json.loads(t.to_json())
    assert payload["columns"] == t.columns
    assert payload["metadata"] == t.metadata
    assert np.array(payload["rows"]).tobytes() == t.values.tobytes()


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
    # ground state, the strongest readout: the bare momentum noise
    val = d_min_approx(1.0, 0.0, 1e6, 0.5, math.pi / 50, LOSSLESS)
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
        full = d_min_full(mu, nbar_in, 1e6, 0.5, math.pi / 50, lossless)
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
    single = vacuum_infidelity(schedule_for_mu(mu, phi, 1.0), LOSSLESS, mu)
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


@pytest.mark.parametrize("name", ["_four_pulse", "_infidelity_to_vacuum"])
def test_multimode_ratios_make_one_protocol_and_one_fidelity(monkeypatch, name):
    # one per g2/g1 ratio would be 5; the squeezer's scorer makes both calls
    from pulsox import squeezer

    made = []
    original = getattr(squeezer, name)

    def counted(*args):
        made.append(args)
        return original(*args)

    monkeypatch.setattr(squeezer, name, counted)
    run_experiment(make_config("multimode"))
    assert len(made) == 1


@pytest.mark.parametrize("phi", [1e-3, 0.02, math.pi / 50, 0.3, 0.8, 1.5])
def test_multimode_vacuum_ancilla_scores_as_the_identity_bit_for_bit(monkeypatch, phi):
    # the runner scores with its schedule's ancilla_vsq = 1 ancilla, at +-pi/4,
    # whose off-diagonal rounds to 1.0e-17: 107 mu in [1e-3, 1e3] x 10 ratios
    from pulsox import experiments, squeezer

    made = []
    monkeypatch.setattr(experiments, "_scorer",
                        lambda *args: made.append(args) or squeezer._scorer(*args))
    cfg = make_config("multimode", phi=phi)
    cfg.sweep.g2_ratio = (0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0)
    run_multimode(cfg)
    ((_, _, pulse, delay),) = made
    mus = np.array(log_grid("-3:3:107"))[:, None]
    schedule = schedule_for_mu(mus, phi, ancilla_vsq=1.0)
    scored = squeezer._scorer(schedule, mus, pulse, delay)(schedule)
    monkeypatch.setattr(squeezer, "_squeezed_cov", lambda v_sq, angle: np.eye(2))
    assert scored.shape == (107, 10)
    assert np.array_equal(scored, squeezer._scorer(schedule, mus, pulse, delay)(schedule))


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


@pytest.mark.parametrize("mu", [(), (1.0, 1.5, 2.0, 3.0)], ids=["no-mu", "mu-sweep"])
def test_cat_decay_makes_one_half_life_search(monkeypatch, mu):
    # the sweep.mu states of the largest cat join the scenarios' batch; a
    # second search of their own made two calls
    from pulsox import experiments

    made = []
    original = experiments.half_life

    def counted(*args):
        made.append(args)
        return original(*args)

    monkeypatch.setattr(experiments, "half_life", counted)
    cfg = make_config("cat-decay")
    cfg.sweep.mu = mu
    run_experiment(cfg)
    assert len(made) == 1


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


# -- fock squeeze -------------------------------------------------------------

def test_fock_squeeze_eta_is_the_closed_form_at_the_grid_origin():
    # each row's eta is the sampled origin node (a grid file writes that node
    # exactly), and equals -2 pi W'_1(0) of its squeezer in closed form
    cfg = make_config("fock-squeeze")
    result = run_experiment(cfg)
    phys = cfg.physical
    schedule = schedule_for_mu(2.0, phys.phi, phys.ancilla_vsq)
    rows = result.tables["fock_squeeze"].rows
    for (eps, eta), name in zip(rows, ["ideal", "eps_1e-02", "eps_5e-02"]):
        loss = (LossConfig.from_q(phys.q, nbar_m=phys.nbar_m, epsilon=eps) if eps
                else LossConfig(omega_m=phys.omega_m))
        grid = result.grids[name]
        assert eta == -2.0 * math.pi * grid.values[grid.resolution // 2, grid.resolution // 2]
        closed = -2.0 * math.pi * fock_one_after(mechanical_squeezer(schedule, loss), 0.0, 0.0)
        assert eta == pytest.approx(closed, rel=1e-14, abs=0.0)


def test_fock_squeeze_makes_no_grid_step(monkeypatch):
    def no_step(grid, channel):
        raise AssertionError("fock-squeeze made a grid channel step")

    monkeypatch.setattr(wigner, "apply_gaussian_channel", no_step)
    cfg = make_config("fock-squeeze")
    cfg.grid.resolution = 64
    assert len(run_experiment(cfg).grids) == 4


@pytest.mark.parametrize("mu, epsilon", [
    (None, None),
    # a fixed window of +-16 left 1.28e-3 of the mass outside at the edge of
    # the benchmark's seeded inputs, and 1.7e-3 at mu = 3, epsilon = 0.05
    (2.5178508235883346, (0.01, 0.1)), (3.0, (0.05,)),
    # the fixed window clipped more than 1e-3 of the mass (exit 2)
    (0.25, None), (4.0, None)])
def test_the_fock_window_follows_the_state_and_keeps_its_mass(mu, epsilon):
    cfg = make_config("fock-squeeze")
    cfg.sweep.mu = (mu,) if mu else ()
    cfg.sweep.epsilon = epsilon or ()
    grids = run_experiment(cfg).grids
    assert len({grid.half_extent for grid in grids.values()}) == 1
    for name, grid in grids.items():
        assert grid.half_extent > cfg.grid.half_extent
        assert abs(grid.total_mass() - 1.0) < 1e-13, name


def test_an_undersampled_fock_state_is_a_numerical_failure_naming_the_resolution():
    cfg = make_config("fock-squeeze")
    cfg.sweep.mu = (16.0,)
    with pytest.raises(GridClippingError, match="grid.resolution = 512 undersamples"):
        run_experiment(cfg)
    cfg.grid.resolution = 2048  # the masses then depart from 1 by at most 2.0e-12
    assert len(run_experiment(cfg).grids) == 4


# The SHA-256 of each default table's column and row lines (its CSV without
# the "# " metadata lines).  fock_squeeze's eta is sampled from the exact
# Fock sum, through the complex exp that numpy does not dispatch by CPU.
# fidelity_sweep and multimode were re-pinned when the squeezer came to be
# scored in the target's frame: each value moved by at most 1.5e-11 relative.
DEFAULT_TABLE_SHA256 = {
    "fidelity_sweep": "686ef5c4af4d1e370461a84834fc2cd0aafdb1b2ac6de48087bcf04e2be2f1ff",
    "fock_squeeze": "70dad2024d3d76dee41f4caeb2a40589f9fe5a231a85c60d6d3c19945d3239e0",
    "impulse": "8c9902631dfc7df88bca027107a6de82642a7e350cfb49bb1eb38ddbafb7909f",
    "multimode": "59ec3c6957ad09a0ec1fa60e75e9683ad2d1a2fedea67eab1220bc6652d2e05e",
    "photon_budget": "75891e0f0eaba7d8941f5aa75ca9de80c441359722cb4f0e219f68a00d316993",
    "half_life": "724f23be4393690ef2b0abeb319164ef9a535ac9780c12395f48d222cd67186f",
    "decay_series": "4fa47f9a84e33e19feede32016e23d0b7a78b445ab6db2136ff4617984cbf8eb",
}


@pytest.mark.parametrize("experiment", ["fidelity-sweep", "fock-squeeze", "impulse", "multimode",
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
    numpy runs without its SIMD kernels above the build's baseline: a
    subprocess without them (``conftest.without_cpu_dispatch``) and an
    in-process run write the same tables byte for byte."""
    run = subprocess.run([sys.executable, "-c", _TABLES_IN_SUBPROCESS],
                         env=without_cpu_dispatch(), capture_output=True, text=True,
                         check=True)
    disabled = json.loads(run.stdout)
    in_process = {name: table.to_csv() for experiment in EXPERIMENTS
                  for name, table in run_experiment(make_config(experiment)).tables.items()}
    assert len(disabled) == 7
    assert disabled == in_process


_GRIDS_IN_SUBPROCESS = """
import sys
from pulsox.config import ExperimentConfig
from pulsox.experiments import run_experiment
from pulsox.wigner import grid_to_csv
config = ExperimentConfig()
config.experiment = "fock-squeeze"
for name, grid in run_experiment(config).grids.items():
    grid_to_csv(grid, f"{sys.argv[1]}/{name}.csv")
"""


def test_default_fock_grid_files_do_not_depend_on_the_cpu_dispatch_path(tmp_path):
    """The four default fock-squeeze grid files keep their bytes when numpy
    runs without its SIMD kernels above the build's baseline: a subprocess
    without them (``conftest.without_cpu_dispatch``) and an in-process run
    write the same files byte for byte."""
    disabled, in_process = tmp_path / "disabled", tmp_path / "in_process"
    disabled.mkdir()
    in_process.mkdir()
    subprocess.run([sys.executable, "-c", _GRIDS_IN_SUBPROCESS, str(disabled)],
                   env=without_cpu_dispatch(), check=True)
    for name, grid in run_experiment(make_config("fock-squeeze")).grids.items():
        grid_to_csv(grid, in_process / f"{name}.csv")
    names = sorted(path.name for path in in_process.iterdir())
    assert len(names) == 4 and sorted(path.name for path in disabled.iterdir()) == names
    for name in names:
        assert (disabled / name).read_bytes() == (in_process / name).read_bytes(), name


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
