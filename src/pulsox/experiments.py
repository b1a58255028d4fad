"""Declarative experiment runners.

Each runner takes an :class:`ExperimentConfig`, evaluates a deterministic
sweep (Gaussian noise is handled analytically throughout, so there is no
randomness anywhere in the pipeline), and returns numeric tables whose
metadata echoes the fully resolved configuration.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channels import LossConfig, compose, damped_delay, qnd_xx, rotation
from .config import CHI_RO_RANGE, CHI_RO_RULE, ConfigError, ExperimentConfig, log_grid
from .modes import MECH, ModeLayout
from .squeezer import (_scorer, approx_photon_budget, ideal_target_map, mechanical_squeezer,
                       photon_budget, schedule_for_mu, squeezer_output, vacuum_infidelity)
from .states import _check_mu, _check_phi, apply_channel, classical_bound, thermal
from .table import ResultTable
from .wigner import (CatSpec, GaussianSum, WignerGrid, eta_series, half_life, mu_opt,
                     negativity_eta, wigner_fock)

# Default grids of the fidelity sweep, as log10 ranges a:b:n: mu from
# 10^-1.2 to 10^1.2, quality factors from 1e4 to 1e7 and delay-line losses
# from 1e-5 to 1e-2, the last two in sqrt(10) steps.
DEFAULT_MU_GRID = "-1.2:1.2:49"
DEFAULT_Q_GRID = "4:7:7"
DEFAULT_EPS_GRID = "-5:-2:7"


@dataclass
class RunResult:
    """Tables (and any exported grids) produced by one experiment run."""

    tables: dict[str, ResultTable] = field(default_factory=dict)
    grids: dict[str, WignerGrid] = field(default_factory=dict)
    summary: str = ""


def _metadata(config: ExperimentConfig) -> dict[str, str]:
    md = {"version": __version__,
          "created": os.environ.get("PULSOX_CREATED", "")}
    for key, value in config.flatten().items():
        md[f"config.{key}"] = value
    return md


def config_from_metadata(metadata: dict[str, str]) -> ExperimentConfig:
    """Rebuild the resolved config from a table's metadata echo."""
    items = {key[len("config."):]: value for key, value in metadata.items()
             if key.startswith("config.")}
    return ExperimentConfig.from_items(items)


def _labels(key: str, template: str, values) -> list[str]:
    """``template`` filled with each value; raises ConfigError naming ``key``
    when two values share a label, as one output would then hide the other."""
    seen: dict[str, float] = {}
    for value in values:
        label = template.format(value)
        if label in seen:
            raise ConfigError(key, f"{seen[label]!r} and {value!r} share the label {label!r}")
        seen[label] = value
    return list(seen)


def _loss(config: ExperimentConfig, *, epsilon: float | None = None) -> LossConfig:
    phys = config.physical
    return LossConfig.from_q(phys.q, nbar_m=phys.nbar_m,
                             epsilon=phys.epsilon if epsilon is None else epsilon,
                             nbar_l=phys.nbar_l, omega_m=phys.omega_m)


# ---------------------------------------------------------------------------
# fidelity sweep
# ---------------------------------------------------------------------------

def run_fidelity_sweep(config: ExperimentConfig) -> RunResult:
    """Infidelity of the squeezer on vacuum across mu, for the ideal map and
    for grids of mechanical Q (epsilon = 0) and optical loss (gamma = 0): one
    batched schedule, and one :func:`vacuum_infidelity` of all losses."""
    phys = config.physical
    mus = np.array(config.sweep.mu or log_grid(DEFAULT_MU_GRID))
    q_grid = config.sweep.q or log_grid(DEFAULT_Q_GRID)
    eps_grid = config.sweep.epsilon or log_grid(DEFAULT_EPS_GRID)
    columns = ["mu", "infidelity_ideal", "classical_bound"]
    columns += _labels("sweep.q", "infidelity_q_{:.3e}", q_grid)
    columns += _labels("sweep.epsilon", "infidelity_eps_{:.3e}", eps_grid)
    losses = [LossConfig(omega_m=phys.omega_m),
              *(LossConfig.from_q(q, nbar_m=phys.nbar_m, omega_m=phys.omega_m) for q in q_grid),
              *(LossConfig(omega_m=phys.omega_m, epsilon=e, nbar_l=phys.nbar_l) for e in eps_grid)]
    schedule = schedule_for_mu(mus, phys.phi, phys.ancilla_vsq)
    infidelities = vacuum_infidelity(schedule, losses, mus)
    bound = [1.0 - classical_bound(mu) for mu in mus]
    rows = np.column_stack([mus, infidelities[0], bound, *infidelities[1:]]).tolist()
    table = ResultTable(columns, rows, _metadata(config))
    return RunResult(tables={"fidelity_sweep": table},
                     summary=f"fidelity sweep over {len(rows)} mu points")


# ---------------------------------------------------------------------------
# Fock-state squeezing
# ---------------------------------------------------------------------------

def run_fock_squeeze(config: ExperimentConfig) -> RunResult:
    """Squeeze a single-phonon Fock state and export target / ideal / lossy
    Wigner grids with their origin negativities."""
    phys = config.physical
    (mu,) = config.sweep.mu or (2.0,)
    eps_grid = config.sweep.epsilon or (1e-2, 5e-2)
    names = _labels("sweep.epsilon", "eps_{:.0e}", eps_grid)
    res = config.grid.resolution
    # a fixed factor 2 on the extent, sized for the default mu = 2: from
    # about mu = 4 (or 1/4) the anti-squeezed tails leave the grid
    ext = 2.0 * config.grid.half_extent
    schedule = schedule_for_mu(mu, phys.phi, phys.ancilla_vsq)
    fock = wigner_fock(1, ext, res)
    lossless = LossConfig(omega_m=phys.omega_m)
    grids = {"target": fock.evolve(ideal_target_map(mu, phys.phi)),
             "ideal": fock.evolve(mechanical_squeezer(schedule, lossless))}
    rows = [[0.0, negativity_eta(grids["ideal"])]]
    for name, eps in zip(names, eps_grid):
        grids[name] = fock.evolve(mechanical_squeezer(schedule, _loss(config, epsilon=eps)))
        rows.append([eps, negativity_eta(grids[name])])
    table = ResultTable(["epsilon", "eta"], rows, _metadata(config))
    return RunResult(tables={"fock_squeeze": table}, grids=grids,
                     summary=f"fock squeeze eta: {', '.join(f'{r[1]:.3f}' for r in rows)}")


# ---------------------------------------------------------------------------
# impulse sensing
# ---------------------------------------------------------------------------

def _check_chi_ro(chi_ro: float) -> None:
    """Rejects a readout strength outside ``CHI_RO_RANGE``, NaN too."""
    if not CHI_RO_RANGE[0] <= chi_ro <= CHI_RO_RANGE[1]:
        raise ValueError(f"chi_ro = {chi_ro!r} {CHI_RO_RULE}")


def d_min_approx(mu: float, nbar_in: float, chi_ro: float, v_sq: float, phi: float,
                 loss: LossConfig) -> float:
    """High-Q closed form for the minimum detectable momentum kick.

    Treats the squeezer as ideal, damps the quarter-cycle rotation, and adds
    the readout shot noise 1/chi_ro^2.  Reduces to mu * sqrt(2 nbar_in + 1)
    when readout and ancilla terms are negligible; raises where the ancilla
    term makes its variance nonpositive (mu > 1 with a large v_sq tan(phi)).
    """
    _check_mu(mu)
    _check_chi_ro(chi_ro)
    if not (0 <= nbar_in < math.inf and 0 < v_sq < math.inf):
        raise ValueError("nbar_in must be nonnegative and v_sq positive, both finite")
    _check_phi(phi)
    n_in = 2.0 * nbar_in + 1.0
    n_m = 2.0 * loss.nbar_m + 1.0
    t = math.tan(phi)
    base = mu * mu * n_in + chi_ro ** -2 + (1.0 - mu) / mu * v_sq * t
    if not base > 0:
        raise ValueError(f"d_min_approx has no value at mu = {mu:.6g}: its variance "
                         f"{base:.3g} is not positive")
    corr = (math.pi * chi_ro ** -2 + (math.pi - 2.0) * n_m
            + 4.0 * (1.0 - mu) * (n_in * mu - v_sq / mu) * t)
    return math.sqrt(base) * (1.0 + loss.gamma / (8.0 * loss.omega_m) * corr / base)


def d_min_full(mu, nbar_in, chi_ro: float, v_sq: float, phi: float,
               loss: LossConfig):
    """Minimum detectable kick from full Gaussian propagation.

    Pipeline: thermal input -> lossy squeezer -> (kick enters P) -> damped
    quarter-cycle rotation -> X readout via an X-X pulse of strength chi_ro on
    a coherent probe, in closed form: the probe's P gains chi_ro X on its own
    vacuum variance 1, so the estimator X_hat = P_probe / chi_ro has variance
    (chi_ro^2 V_xx + 1) / chi_ro^2.  The detection threshold is SNR = 1: that
    standard deviation divided by the kick gain, the X(t) <- P(0) entry of the
    quarter rotation.  Arrays of mu and nbar_in give the thresholds over their
    broadcast shape.
    """
    _check_chi_ro(chi_ro)
    state = squeezer_output(schedule_for_mu(mu, phi, v_sq), loss, thermal(nbar_in, MECH))
    quarter = damped_delay(math.pi / 2.0, loss)
    v_xx = apply_channel(state, quarter).cov[..., 0, 0]
    return np.sqrt((chi_ro * v_xx * chi_ro + 1.0) / chi_ro ** 2) / abs(quarter.matrix[0, 1])


def run_impulse(config: ExperimentConfig) -> RunResult:
    """Minimum detectable momentum kick vs pre-squeezing, with the closed-form
    estimate and the naive mu * sqrt(2 nbar + 1) prediction alongside; one
    :func:`d_min_full` call covers the (nbar_in, mu) grid."""
    phys = config.physical
    loss = _loss(config)
    chi_ro = config.readout.chi_ro
    default_mus = tuple(10.0 ** (-db / 20.0) for db in np.linspace(-10, 10, 21))
    mus = config.sweep.mu or default_mus
    nbars = config.impulse.nbar_in
    fulls = d_min_full(mus, np.array(nbars)[:, None], chi_ro, phys.ancilla_vsq, phys.phi, loss)
    rows = [[nbar_in, mu, -20.0 * math.log10(mu), full,
             d_min_approx(mu, nbar_in, chi_ro, phys.ancilla_vsq, phys.phi, loss),
             mu * math.sqrt(2.0 * nbar_in + 1.0)]
            for nbar_in, row in zip(nbars, fulls.tolist()) for mu, full in zip(mus, row)]
    table = ResultTable(
        ["nbar_in", "mu", "squeezing_db", "d_min_full", "d_min_approx", "d_min_naive"],
        rows, _metadata(config))
    return RunResult(tables={"impulse": table},
                     summary=f"impulse sweep over {len(rows)} points")


# ---------------------------------------------------------------------------
# cat decay
# ---------------------------------------------------------------------------

def run_cat_decay(config: ExperimentConfig) -> RunResult:
    """Negativity half-lives of odd cats with and without pre-squeezing (at
    mu_opt and ``cat.momentum_mu``, one batched schedule per cat) and of the
    largest cat at each optional ``sweep.mu``, all in one batched :func:`half_life`
    search, plus the largest cat's dense eta(t) series for the decay-rate diagnostic."""
    cat_cfg = config.cat
    phys = config.physical
    loss = _loss(config)
    period = 2.0 * math.pi / loss.omega_m
    md = _metadata(config)
    tables: dict[str, ResultTable] = {}

    def pre_squeezed(cat: GaussianSum, mus) -> GaussianSum:
        schedule = schedule_for_mu(np.array(mus), phys.phi, phys.ancilla_vsq)
        return cat.evolve(mechanical_squeezer(schedule, loss))

    scenarios, states = [], []
    for alpha in config.sweep.alpha:
        cat = GaussianSum.cat(CatSpec(alpha, "odd"))
        mus = [mu_opt(alpha), cat_cfg.momentum_mu]
        scenarios += [(alpha, mu_pre) for mu_pre in (1.0, *mus)]
        states += [cat, pre_squeezed(cat, mus)]
    largest = GaussianSum.cat(CatSpec(max(config.sweep.alpha), "odd"))
    states += [pre_squeezed(largest, config.sweep.mu)] if config.sweep.mu else []
    # each state's result does not depend on the batch it is searched in
    results = half_life(GaussianSum.concatenate(states), loss,
                        cat_cfg.samples_per_period, cat_cfg.max_periods)
    half_rows = [[alpha, mu_pre, r.tau, r.tau / period, float(r.reached), r.eta_initial]
                 for (alpha, mu_pre), r in zip(scenarios, results)]

    n_samples = int(cat_cfg.series_periods * cat_cfg.samples_per_period)
    times = np.arange(1, n_samples + 1) * (period / cat_cfg.samples_per_period)
    etas = eta_series(largest, loss, times)
    tables["decay_series"] = ResultTable(["t", "eta"], np.column_stack([times, etas]),
                                         dict(md))

    if config.sweep.mu:
        sweep_rows = [[mu_pre, r.tau, r.tau / period, float(r.reached)]
                      for mu_pre, r in zip(config.sweep.mu, results[len(scenarios):])]
        tables["half_life_mu_sweep"] = ResultTable(
            ["mu_pre", "tau", "tau_periods", "reached"], sweep_rows, dict(md))

    tables["half_life"] = ResultTable(
        ["alpha", "mu_pre", "tau", "tau_periods", "reached", "eta_initial"],
        half_rows, dict(md))
    return RunResult(tables=tables,
                     summary=f"cat decay: {len(half_rows)} half-life scenarios")


def decay_rate_series(times: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Finite-difference decay rate -d(ln eta)/dt between consecutive samples."""
    etas = np.asarray(etas, dtype=float)
    times = np.asarray(times, dtype=float)
    return -np.diff(np.log(etas)) / np.diff(times)


def dominant_modulation_frequency(times: np.ndarray, etas: np.ndarray) -> float:
    """Frequency of the strongest oscillation of the decay rate.

    Detrends the finite-difference rate with a linear fit and returns the
    angular frequency of the largest spectral peak.
    """
    rates = decay_rate_series(times, etas)
    mids = 0.5 * (np.asarray(times)[1:] + np.asarray(times)[:-1])
    trend = np.polyval(np.polyfit(mids, rates, 1), mids)
    windowed = rates - trend
    spectrum = np.abs(np.fft.rfft(windowed))
    freqs = np.fft.rfftfreq(len(windowed), d=float(mids[1] - mids[0]))
    k = 1 + int(np.argmax(spectrum[1:]))  # skip the DC bin
    return 2.0 * math.pi * float(freqs[k])


# ---------------------------------------------------------------------------
# multimode study
# ---------------------------------------------------------------------------

def run_multimode(config: ExperimentConfig) -> RunResult:
    """Infidelity penalty from a parasitic second mechanical mode.

    Lossless three-mode run (mech, mech2, opt) with the auxiliary mode at
    twice the target frequency.  The pulse photon numbers are calibrated on
    the single-mode assumption, so the total pulse strength scales with
    s = (g1 + g2) / g1 and each pulse is the composition of one X-X pulse per
    mechanical mode, of strength chi s g_j / (g1 + g2); between the second
    and third pulses each mechanical mode freely rotates at its own frequency.
    All three modes start in vacuum, the light as the schedule's own
    ``ancilla_vsq = 1`` ancilla; the squeezer's one scorer takes the pulse and
    the delay and scores against the mode-1 target.  The g2/g1 ratios form one
    batch: one composed protocol and one score.
    """
    layout = ModeLayout(("mech", "mech2", "opt"))
    (mu,) = config.sweep.mu or (math.sqrt(2.0),)
    phi = config.physical.phi
    omega2_ratio = 2.0
    ratios = np.array(sorted(config.sweep.g2_ratio))
    s = 1.0 + ratios
    schedule = schedule_for_mu(mu, phi, ancilla_vsq=1.0)  # vacuum ancilla

    def pulse(chi):  # chi s g_j / (g1 + g2) in this order rounds as the pinned table
        return compose([qnd_xx(chi * s * 1.0 / s, "mech", layout),
                        qnd_xx(chi * s * ratios / s, "mech2", layout)])

    delay = [rotation("mech", phi, layout), rotation("mech2", omega2_ratio * phi, layout)]
    rows = np.column_stack([ratios, _scorer(schedule, mu, pulse, delay)(schedule)]).tolist()
    table = ResultTable(["g2_over_g1", "infidelity"], rows, _metadata(config))
    return RunResult(tables={"multimode": table},
                     summary="multimode infidelity: " +
                             ", ".join(f"{r[0]:g}:{r[1]:.3f}" for r in rows))


# ---------------------------------------------------------------------------
# photon budget sweep, fiber loss
# ---------------------------------------------------------------------------

def run_photon_budget(config: ExperimentConfig) -> RunResult:
    mus = np.array(config.sweep.mu or log_grid("-0.5:0.5:21"))
    phi = config.physical.phi
    schedule = schedule_for_mu(mus, phi, config.physical.ancilla_vsq)
    rows = np.column_stack([mus, photon_budget(schedule),
                            approx_photon_budget(mus, phi)]).tolist()
    table = ResultTable(["mu", "budget_exact", "budget_approx"], rows,
                        _metadata(config))
    return RunResult(tables={"photon_budget": table},
                     summary=f"photon budget over {len(rows)} mu points")


def estimate_fiber_epsilon(length_km: float, db_per_km: float = 0.4) -> float:
    """Beamsplitter loss fraction of a fiber delay line: 1 - 10^(-dB/10)."""
    if not (0 <= length_km < math.inf and 0 <= db_per_km < math.inf):
        raise ValueError("fiber length and attenuation must be nonnegative and finite")
    return 1.0 - 10.0 ** (-length_km * db_per_km / 10.0)


RUNNERS = {
    "fidelity-sweep": run_fidelity_sweep,
    "fock-squeeze": run_fock_squeeze,
    "impulse": run_impulse,
    "cat-decay": run_cat_decay,
    "multimode": run_multimode,
    "photon-budget": run_photon_budget,
}


def run_experiment(config: ExperimentConfig) -> RunResult:
    config.validate()
    return RUNNERS[config.experiment](config)
