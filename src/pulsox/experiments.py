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
from .channels import (LossConfig, compose, damped_delay, qnd_xx, qnd_xx_collective,
                       rotation)
from .config import ConfigError, ExperimentConfig
from .modes import MECH, ModeLayout, OPT
from .squeezer import (_four_pulse, approx_photon_budget, ideal_target_map,
                       ideal_target_state, mechanical_squeezer, photon_budget,
                       schedule_for_mu, squeezer_output)
from .states import (apply_channel, classical_bound, fidelity_zero_mean,
                     marginal, product, thermal, vacuum)
from .table import ResultTable
from .wigner import (CatSpec, GaussianSum, WignerGrid, apply_gaussian_channel,
                     eta_series, half_life, mu_opt, negativity_eta, wigner_fock)

# Default sweep grids for the lossy fidelity study: quality factors from 1e4
# to 1e7 and delay-line losses from 1e-5 to 1e-2, both in sqrt(10) steps.
DEFAULT_Q_GRID = tuple(10.0 ** (4 + 0.5 * k) for k in range(7))
DEFAULT_EPS_GRID = tuple(10.0 ** (-5 + 0.5 * k) for k in range(7))
DEFAULT_MU_LOG_RANGE = (-1.2, 1.2, 49)


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


def _loss(config: ExperimentConfig, *, epsilon: float | None = None) -> LossConfig:
    phys = config.physical
    return LossConfig.from_q(phys.q, nbar_m=phys.nbar_m,
                             epsilon=phys.epsilon if epsilon is None else epsilon,
                             nbar_l=phys.nbar_l, omega_m=phys.omega_m)


# ---------------------------------------------------------------------------
# fidelity sweep
# ---------------------------------------------------------------------------

def _squeeze_infidelity(mu, phi: float, ancilla_vsq: float, loss: LossConfig):
    """1 - F of the squeezer on vacuum against its target; an array of mu is
    one batched squeezer call."""
    schedule = schedule_for_mu(mu, phi, ancilla_vsq)
    out = squeezer_output(schedule, loss, vacuum(MECH))
    target = ideal_target_state(vacuum(MECH), mu, phi)
    return 1.0 - fidelity_zero_mean(out, target)


def run_fidelity_sweep(config: ExperimentConfig) -> RunResult:
    """Infidelity of the squeezer on vacuum across mu, for the ideal map and
    for grids of mechanical Q (epsilon = 0) and optical loss (gamma = 0)."""
    phys = config.physical
    mus = np.array(config.sweep.mu_values(
        (10.0 ** x for x in np.linspace(*DEFAULT_MU_LOG_RANGE))))
    q_grid = config.sweep.q or DEFAULT_Q_GRID
    eps_grid = config.sweep.epsilon or DEFAULT_EPS_GRID
    columns = ["mu", "infidelity_ideal", "classical_bound"]
    columns += [f"infidelity_q_{q:.3e}" for q in q_grid]
    columns += [f"infidelity_eps_{e:.3e}" for e in eps_grid]
    losses = [LossConfig(omega_m=phys.omega_m)]
    losses += [LossConfig.from_q(q, nbar_m=phys.nbar_m, epsilon=0.0, omega_m=phys.omega_m)
               for q in q_grid]
    losses += [LossConfig(omega_m=phys.omega_m, epsilon=eps, nbar_l=phys.nbar_l)
               for eps in eps_grid]
    infidelities = [_squeeze_infidelity(mus, phys.phi, phys.ancilla_vsq, loss)
                    for loss in losses]
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
    (mu,) = config.sweep.mu_values((2.0,))
    eps_grid = config.sweep.epsilon or (1e-2, 5e-2)
    res = config.grid.resolution
    # a fixed factor 2 on the extent, sized for the default mu = 2: from
    # about mu = 4 (or 1/4) the anti-squeezed tails leave the grid
    ext = 2.0 * config.grid.half_extent
    schedule = schedule_for_mu(mu, phys.phi, phys.ancilla_vsq)
    fock = wigner_fock(1, ext, res)
    target_grid = apply_gaussian_channel(fock, ideal_target_map(mu, phys.phi))

    def squeezed_grid(loss: LossConfig) -> WignerGrid:
        return apply_gaussian_channel(fock, mechanical_squeezer(schedule, loss))

    grids = {"target": target_grid,
             "ideal": squeezed_grid(LossConfig(omega_m=phys.omega_m))}
    rows = [[0.0, negativity_eta(grids["ideal"])]]
    for eps in eps_grid:
        grid = squeezed_grid(_loss(config, epsilon=eps))
        grids[f"eps_{eps:.0e}"] = grid
        rows.append([eps, negativity_eta(grid)])
    table = ResultTable(["epsilon", "eta"], rows, _metadata(config))
    return RunResult(tables={"fock_squeeze": table}, grids=grids,
                     summary=f"fock squeeze eta: {', '.join(f'{r[1]:.3f}' for r in rows)}")


# ---------------------------------------------------------------------------
# impulse sensing
# ---------------------------------------------------------------------------

def d_min_approx(mu: float, nbar_in: float, chi_ro: float, v_sq: float, phi: float,
                 loss: LossConfig) -> float:
    """High-Q closed form for the minimum detectable momentum kick.

    Treats the squeezer as ideal, damps the quarter-cycle rotation, and adds
    the readout shot noise 1/chi_ro^2.  Reduces to mu * sqrt(2 nbar_in + 1)
    when readout and ancilla terms are negligible.
    """
    if mu <= 0 or chi_ro <= 0:
        raise ValueError("mu and chi_ro must be positive")
    n_in = 2.0 * nbar_in + 1.0
    n_m = 2.0 * loss.nbar_m + 1.0
    t = math.tan(phi)
    base = mu * mu * n_in + chi_ro ** -2 + (1.0 - mu) / mu * v_sq * t
    corr = (math.pi * chi_ro ** -2 + (math.pi - 2.0) * n_m
            + 4.0 * (1.0 - mu) * (n_in * mu - v_sq / mu) * t)
    return math.sqrt(base) * (1.0 + loss.gamma / (8.0 * loss.omega_m) * corr / base)


def d_min_full(mu, nbar_in: float, chi_ro: float, v_sq: float, phi: float,
               loss: LossConfig):
    """Minimum detectable kick from full Gaussian propagation.

    Pipeline: thermal input -> lossy squeezer -> (kick enters P) -> damped
    quarter-cycle rotation -> X readout via an X-X pulse of strength chi_ro on
    a coherent probe.  The detection threshold is SNR = 1: the estimator's
    standard deviation divided by its kick gain.  An array of mu gives an
    array of thresholds.
    """
    schedule = schedule_for_mu(mu, phi, v_sq)
    state = squeezer_output(schedule, loss, thermal(nbar_in, MECH))
    quarter = damped_delay(math.pi / 2.0, loss)
    state = apply_channel(state, quarter)

    probe = vacuum(OPT)  # coherent readout pulse: vacuum fluctuations
    readout = qnd_xx(chi_ro)
    out = apply_channel(product(state, probe), readout)
    var_estimator = out.variance("opt", "p") / chi_ro ** 2

    # kick gain: a P displacement reaches the estimator through X(t) <- P(0)
    # of the quarter rotation; the chi_ro readout factor cancels in X_hat.
    gain = quarter.block("mech", "mech")[0, 1]
    return np.sqrt(var_estimator) / abs(gain)


def run_impulse(config: ExperimentConfig) -> RunResult:
    """Minimum detectable momentum kick vs pre-squeezing, with the closed-form
    estimate and the naive mu * sqrt(2 nbar + 1) prediction alongside."""
    phys = config.physical
    loss = _loss(config)
    chi_ro = config.readout.chi_ro
    default_mus = tuple(10.0 ** (-db / 20.0) for db in np.linspace(-10, 10, 21))
    mus = config.sweep.mu_values(default_mus)
    rows = []
    for nbar_in in config.impulse.nbar_in:
        fulls = d_min_full(np.array(mus), nbar_in, chi_ro, phys.ancilla_vsq, phys.phi, loss)
        for mu, full in zip(mus, fulls.tolist()):
            approx = d_min_approx(mu, nbar_in, chi_ro, phys.ancilla_vsq, phys.phi, loss)
            naive = mu * math.sqrt(2.0 * nbar_in + 1.0)
            rows.append([nbar_in, mu, -20.0 * math.log10(mu), full, approx, naive])
    table = ResultTable(
        ["nbar_in", "mu", "squeezing_db", "d_min_full", "d_min_approx", "d_min_naive"],
        rows, _metadata(config))
    return RunResult(tables={"impulse": table},
                     summary=f"impulse sweep over {len(rows)} points")


# ---------------------------------------------------------------------------
# cat decay
# ---------------------------------------------------------------------------

def _cat_scenarios(config: ExperimentConfig):
    for alpha in config.sweep.alpha:
        yield alpha, "none", 1.0
        yield alpha, "position", mu_opt(alpha)
        yield alpha, "momentum", config.cat.momentum_mu


def run_cat_decay(config: ExperimentConfig) -> RunResult:
    """Negativity half-lives of odd cats with and without pre-squeezing, plus
    a dense eta(t) series for the decay-rate-modulation diagnostic."""
    cat_cfg = config.cat
    loss = _loss(config)
    period = 2.0 * math.pi / loss.omega_m
    tables: dict[str, ResultTable] = {}

    def cat_half_life(alpha: float, mu_pre: float | None):
        pre = None if mu_pre is None else schedule_for_mu(
            mu_pre, config.physical.phi, config.physical.ancilla_vsq)
        return half_life(CatSpec(alpha, "odd"), loss, pre,
                         samples_per_period=cat_cfg.samples_per_period,
                         max_periods=cat_cfg.max_periods)

    half_rows = []
    for alpha, label, mu_pre in _cat_scenarios(config):
        result = cat_half_life(alpha, None if label == "none" else mu_pre)
        half_rows.append([alpha, mu_pre, result.tau, result.tau / period,
                          1.0 if result.reached else 0.0, result.eta_initial])

    # dense series for the largest unsqueezed cat
    alpha_series = max(config.sweep.alpha)
    n_samples = int(cat_cfg.series_periods * cat_cfg.samples_per_period)
    times = np.arange(1, n_samples + 1) * (period / cat_cfg.samples_per_period)
    etas = eta_series(GaussianSum.cat(CatSpec(alpha_series, "odd")), loss, times)
    tables["decay_series"] = ResultTable(
        ["t", "eta"], [[t, e] for t, e in zip(times, etas)], _metadata(config))

    # optional half-life sweep over mu for the largest cat
    mus = config.sweep.mu_values(())
    if mus:
        sweep_rows = []
        for mu_pre in mus:
            result = cat_half_life(alpha_series, mu_pre)
            sweep_rows.append([mu_pre, result.tau, result.tau / period,
                               1.0 if result.reached else 0.0])
        tables["half_life_mu_sweep"] = ResultTable(
            ["mu_pre", "tau", "tau_periods", "reached"], sweep_rows, _metadata(config))

    tables["half_life"] = ResultTable(
        ["alpha", "mu_pre", "tau", "tau_periods", "reached", "eta_initial"],
        half_rows, _metadata(config))
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
    the single-mode assumption, so the collective pulse strength scales with
    (g1 + g2) / g1 while mode 1 keeps its scheduled share; between the second
    and third pulses each mechanical mode freely rotates at its own frequency.
    All three modes start in vacuum; reported against the mode-1 target.
    """
    layout = ModeLayout(("mech", "mech2", "opt"))
    (mu,) = config.sweep.mu_values((math.sqrt(2.0),))
    phi = config.physical.phi
    omega2_ratio = 2.0
    schedule = schedule_for_mu(mu, phi, ancilla_vsq=1.0)  # vacuum ancilla
    target = ideal_target_state(vacuum(MECH), mu, phi)
    rows = []
    for ratio in sorted(config.sweep.g2_ratio):
        couplings = (1.0, ratio)
        scale = 1.0 + ratio

        def pulse(chi):
            return qnd_xx_collective(couplings, chi * scale, layout)

        delay = [rotation("mech", phi, layout),
                 rotation("mech2", omega2_ratio * phi, layout)]
        full = compose(_four_pulse(schedule, pulse, delay, layout))
        out = marginal(apply_channel(vacuum(layout), full), ["mech"])
        rows.append([ratio, 1.0 - fidelity_zero_mean(out, target)])
    table = ResultTable(["g2_over_g1", "infidelity"], rows, _metadata(config))
    return RunResult(tables={"multimode": table},
                     summary="multimode infidelity: " +
                             ", ".join(f"{r[0]:g}:{r[1]:.3f}" for r in rows))


# ---------------------------------------------------------------------------
# photon budget sweep, fiber loss
# ---------------------------------------------------------------------------

def run_photon_budget(config: ExperimentConfig) -> RunResult:
    mus = config.sweep.mu_values(
        (10.0 ** x for x in np.linspace(-0.5, 0.5, 21)))
    phi = config.physical.phi
    rows = []
    for mu in mus:
        schedule = schedule_for_mu(mu, phi, config.physical.ancilla_vsq)
        rows.append([mu, photon_budget(schedule), approx_photon_budget(mu, phi)])
    table = ResultTable(["mu", "budget_exact", "budget_approx"], rows,
                        _metadata(config))
    return RunResult(tables={"photon_budget": table},
                     summary=f"photon budget over {len(rows)} mu points")


def estimate_fiber_epsilon(length_km: float, db_per_km: float = 0.4) -> float:
    """Beamsplitter loss fraction of a fiber delay line: 1 - 10^(-dB/10)."""
    if length_km < 0 or db_per_km < 0:
        raise ValueError("fiber length and attenuation must be nonnegative")
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
    try:
        runner = RUNNERS[config.experiment]
    except KeyError:
        raise ConfigError("experiment", f"unknown experiment {config.experiment!r}")
    return runner(config)
