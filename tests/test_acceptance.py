"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 2 and 7 contain clauses that the implemented model provably cannot
satisfy (the closed-form photon-budget estimate diverges from the exact
pulse-strength sum away from mu = 1, and the lossless infidelity is not
monotone beyond 6 dB of momentum squeezing).  Those clauses are asserted
as stated and fail honestly; the analysis lives in the failure messages.
"""
import math
import time

import numpy as np

from conftest import record_criterion

import pulsox as px
from pulsox.config import ExperimentConfig
from pulsox.experiments import (dominant_modulation_frequency, estimate_fiber_epsilon,
                                run_cat_decay, run_fidelity_sweep, run_fock_squeeze,
                                run_impulse, run_multimode)

SQRT2 = math.sqrt(2.0)


def _check(clauses):
    """Evaluate (label, bool) clauses; return (ok, detail string)."""
    failed = [label for label, ok in clauses if not ok]
    ok = not failed
    detail = "all clauses hold" if ok else "failed: " + "; ".join(failed)
    return ok, detail


def _finish(name, ok, detail, elapsed, budget):
    detail = f"{detail} [{elapsed:.1f}s / {budget:.0f}s]"
    ok = ok and elapsed < budget
    record_criterion(name, ok, detail)
    assert ok, f"criterion {name}: {detail}"


def test_criterion_01_lossless_infidelity():
    t0 = time.perf_counter()
    mu, phi = SQRT2, math.pi / 50
    formula = 1.0 - px.pure_fidelity(mu, phi, 1.0, 1.0)
    schedule = px.schedule_for_mu(mu, phi, ancilla_vsq=1.0)  # vacuum ancilla
    out = px.squeezer_output(schedule, px.LOSSLESS, px.vacuum(px.MECH))
    target = px.ideal_target_state(px.vacuum(px.MECH), mu, phi)
    pipeline = 1.0 - px.fidelity_zero_mean(out, target)
    ok, detail = _check([
        (f"formula I={formula:.5f} within 0.018+-0.001", abs(formula - 0.018) <= 0.001),
        (f"pipeline I={pipeline:.5f} within 0.018+-0.001", abs(pipeline - 0.018) <= 0.001),
    ])
    _finish("01 lossless infidelity", ok, detail, time.perf_counter() - t0, 1.0)


def test_criterion_02_photon_budget():
    t0 = time.perf_counter()
    phi = 2 * math.pi / 100
    approx_pos = px.approx_photon_budget(SQRT2, phi)
    approx_mom = px.approx_photon_budget(1.0 / SQRT2, phi)
    exact_pos = px.photon_budget(px.schedule_for_mu(SQRT2, phi))
    exact_mom = px.photon_budget(px.schedule_for_mu(1.0 / SQRT2, phi))
    dev_pos = abs(exact_pos / approx_pos - 1.0)
    dev_mom = abs(exact_mom / approx_mom - 1.0)
    ok, detail = _check([
        (f"approx(mu=sqrt2)={approx_pos:.2f} within 16.5+-0.5", abs(approx_pos - 16.5) <= 0.5),
        (f"approx(mu=1/sqrt2)={approx_mom:.2f} within 35.2+-1", abs(approx_mom - 35.2) <= 1.0),
        (f"exact {exact_pos:.2f} within 10% of approx {approx_pos:.2f} "
         f"(dev {dev_pos:.0%}; the estimate and the exact pulse-strength sum "
         f"are mutually inconsistent away from mu=1)", dev_pos <= 0.10),
        (f"exact {exact_mom:.2f} within 10% of approx {approx_mom:.2f} "
         f"(dev {dev_mom:.0%})", dev_mom <= 0.10),
    ])
    _finish("02 photon budget", ok, detail, time.perf_counter() - t0, 5.0)


def test_criterion_03_classical_bound():
    t0 = time.perf_counter()
    sym = max(abs(px.classical_bound(mu) - px.classical_bound(1.0 / mu))
              for mu in (0.3, 0.77, 2.5, 9.0))
    ok, detail = _check([
        ("bound(1) = 0.5 exactly", px.classical_bound(1.0) == 0.5),
        (f"mu <-> 1/mu symmetry {sym:.1e} <= 1e-12", sym <= 1e-12),
    ])
    _finish("03 classical bound", ok, detail, time.perf_counter() - t0, 5.0)


def test_criterion_04_mu_opt():
    t0 = time.perf_counter()
    m1, m2 = px.mu_opt(1.0), px.mu_opt(2.0)
    ok, detail = _check([
        (f"mu_opt(1)={m1:.4f} within 1.36+-0.01", abs(m1 - 1.36) <= 0.01),
        (f"mu_opt(2)={m2:.4f} within 2.03+-0.01", abs(m2 - 2.03) <= 0.01),
    ])
    _finish("04 mu_opt", ok, detail, time.perf_counter() - t0, 5.0)


def test_criterion_05_multimode_table():
    t0 = time.perf_counter()
    cfg = ExperimentConfig()
    cfg.experiment = "multimode"
    cfg.physical.phi = math.pi / 50
    table = run_multimode(cfg).tables["multimode"]
    ratios = table.column("g2_over_g1")
    infid = table.column("infidelity")
    expected = {1.0: 0.70, 0.5: 0.19, 0.2: 0.031, 0.1: 0.021}
    clauses = [("monotone decreasing towards g2=0",
                all(a < b for a, b in zip(infid, infid[1:]))),
               (f"endpoint {infid[0]:.4f} recovers 0.018+-0.001",
                abs(infid[0] - 0.018) <= 0.001)]
    for ratio, target in expected.items():
        got = infid[ratios.index(ratio)]
        clauses.append((f"I(g2/g1={ratio:g})={got:.3f} within 20% of {target}",
                        abs(got / target - 1.0) <= 0.20))
    ok, detail = _check(clauses)
    _finish("05 multimode table", ok, detail, time.perf_counter() - t0, 10.0)


def test_criterion_06_fiber_loss():
    t0 = time.perf_counter()
    eps = estimate_fiber_epsilon(0.012, 0.4)
    ok, detail = _check([
        (f"epsilon={eps:.2e} in [0.9e-3, 1.3e-3]", 0.9e-3 <= eps <= 1.3e-3),
    ])
    _finish("06 fiber loss", ok, detail, time.perf_counter() - t0, 5.0)


def test_criterion_07_fidelity_sweep_properties():
    t0 = time.perf_counter()
    cfg = ExperimentConfig()
    cfg.experiment = "fidelity-sweep"
    table = run_fidelity_sweep(cfg).tables["fidelity_sweep"]
    mus = np.array(table.column("mu"))
    ideal = np.array(table.column("infidelity_ideal"))
    bound = np.array(table.column("classical_bound"))
    i1 = int(np.argmin(np.abs(mus - 1.0)))
    up_side = np.all(np.diff(ideal[i1:]) >= -1e-12)
    down_side = np.all(np.diff(ideal[:i1 + 1]) <= 1e-12)
    window = np.abs(np.log10(mus)) <= 0.7
    not_unit = np.abs(mus - 1.0) > 1e-9
    exceeds = np.all(ideal[window & not_unit] < bound[window & not_unit])
    q_cols = [c for c in table.columns if c.startswith("infidelity_q")]
    eps_cols = [c for c in table.columns if c.startswith("infidelity_eps")]
    q_curves = np.array([table.column(c) for c in q_cols])
    eps_curves = np.array([table.column(c) for c in eps_cols])
    ok, detail = _check([
        (f"lossless infidelity at mu=1 is {ideal[i1]:.1e}", ideal[i1] <= 1e-12),
        ("monotone increase towards mu > 1", bool(up_side)),
        ("monotone increase towards mu < 1 (fails beyond 6 dB of momentum "
         "squeezing: the lossless infidelity peaks at mu = 1/2 and falls "
         "again, since the error terms scale with mu(1-mu))", bool(down_side)),
        ("exceeds classical bound across |log10 mu| <= 0.7", bool(exceeds)),
        ("infidelity monotone in 1/Q", bool(np.all(np.diff(q_curves, axis=0) <= 1e-12))),
        ("infidelity monotone in epsilon", bool(np.all(np.diff(eps_curves, axis=0) >= -1e-12))),
    ])
    _finish("07 fidelity sweep properties", ok, detail, time.perf_counter() - t0, 30.0)


def test_criterion_08_fock_squeeze():
    t0 = time.perf_counter()
    cfg = ExperimentConfig()
    cfg.experiment = "fock-squeeze"
    cfg.physical.q = 1e5
    cfg.physical.nbar_m = 4e4
    cfg.grid.resolution = 512
    result = run_fock_squeeze(cfg)
    rows = result.tables["fock_squeeze"].rows  # (epsilon, eta), ideal first
    etas = [r[1] for r in rows]
    ok, detail = _check([
        (f"eta > 0 in all cases ({', '.join(f'{e:.3f}' for e in etas)})",
         all(e > 0 for e in etas)),
        ("eta decreasing in epsilon", all(a > b for a, b in zip(etas, etas[1:]))),
        ("ideal output keeps most negativity", etas[0] > 0.5),
    ])
    _finish("08 fock squeeze", ok, detail, time.perf_counter() - t0, 60.0)


def test_criterion_09_impulse_approximation():
    t0 = time.perf_counter()
    cfg = ExperimentConfig()
    cfg.experiment = "impulse"
    cfg.physical.q = 1e7
    cfg.physical.epsilon = 1e-3
    cfg.physical.phi = math.pi / 50
    table = run_impulse(cfg).tables["impulse"]
    db = np.array(table.column("squeezing_db"))
    full = np.array(table.column("d_min_full"))
    approx = np.array(table.column("d_min_approx"))
    window = np.abs(db) <= 6.0
    worst = float(np.max(np.abs(full[window] / approx[window] - 1.0)))
    ok, detail = _check([
        (f"full vs approx deviation {worst:.1%} < 5% for |squeezing| <= 6 dB, "
         f"nbar_in in (1, 3)", worst < 0.05),
    ])
    _finish("09 impulse approximation", ok, detail, time.perf_counter() - t0, 10.0)


def test_criterion_10_cat_decay():
    t0 = time.perf_counter()
    cfg = ExperimentConfig()
    cfg.experiment = "cat-decay"
    cfg.physical.q = 1e7
    cfg.physical.nbar_m = 4e4
    cfg.physical.epsilon = 1e-3
    cfg.physical.phi = math.pi / 50
    result = run_cat_decay(cfg)
    half = result.tables["half_life"]
    tau = {(row[0], row[1]): row[2] for row in half.rows}
    mu_none, mu_mom = 1.0, cfg.cat.momentum_mu

    def tau_of(alpha, label):
        mu = {"none": mu_none, "position": px.mu_opt(alpha), "momentum": mu_mom}[label]
        return tau[(alpha, mu)]

    series = result.tables["decay_series"]
    freq = dominant_modulation_frequency(np.array(series.column("t")),
                                         np.array(series.column("eta")))
    gain_abs = {a: tau_of(a, "position") - tau_of(a, "none") for a in (1.0, 2.0)}
    gain_rel = {a: tau_of(a, "position") / tau_of(a, "none") for a in (1.0, 2.0)}
    ok, detail = _check([
        (f"alpha=2 ordering tau_pos={tau_of(2, 'position'):.1f} > "
         f"tau_none={tau_of(2, 'none'):.1f} > tau_mom={tau_of(2, 'momentum'):.1f}",
         tau_of(2, "position") > tau_of(2, "none") > tau_of(2, "momentum")),
        (f"decay rate modulated at 2 omega (found {freq:.2f})",
         abs(freq - 2.0) < 0.25),
        (f"alpha=2 absolute improvement {gain_abs[2.0]:.2f} > "
         f"alpha=1 {gain_abs[1.0]:.2f}", gain_abs[2.0] > gain_abs[1.0]),
        (f"alpha=2 relative improvement {gain_rel[2.0]:.2f} > "
         f"alpha=1 {gain_rel[1.0]:.2f}", gain_rel[2.0] > gain_rel[1.0]),
    ])
    _finish("10 cat decay", ok, detail, time.perf_counter() - t0, 300.0)


def test_criterion_11_oracle_suites():
    t0 = time.perf_counter()
    clauses = []

    # symplectic preservation over random lossless compositions
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        stages = [px.rotation("mech", 0.0)]
        for _ in range(5):
            kind = rng.integers(0, 3)
            if kind == 0:
                stages.append(px.qnd_xx(3 * rng.normal()))
            elif kind == 1:
                stages.append(px.qnd_pp(3 * rng.normal()))
            else:
                stages.append(px.rotation("opt", rng.uniform(-3, 3)))
        worst = max(worst, px.compose(stages).symplectic_defect())
    clauses.append((f"symplectic defect {worst:.1e} < 1e-10", worst < 1e-10))

    # Gaussian calculus vs Wigner grid moments
    worst = 0.0
    for k in range(5):
        angle = 0.4 * k
        s_map = px.compose([px.quadrature_scaling(1.25, 0.8, "mech", px.MECH),
                            px.rotation("mech", angle, px.MECH)])
        channel = px.GaussianChannel(s_map.matrix, np.array([0.2, -0.1]), 0.15 * np.eye(2),
                                     px.MECH)
        grid = px.wigner_gaussian([0.3, 0.1], np.diag([1.2, 0.9]))
        mean_g, cov_g = px.apply_gaussian_channel(grid, channel).moments()
        ref = px.apply_channel(px.GaussianState([0.3, 0.1], np.diag([1.2, 0.9]),
                                                px.MECH), channel)
        worst = max(worst, float(np.max(np.abs(mean_g - ref.mean))),
                    float(np.max(np.abs(cov_g - ref.cov))))
    clauses.append((f"grid vs covariance moments {worst:.1e} < 1e-3", worst < 1e-3))

    # parity identity
    parity_err = max(
        abs(2 * math.pi * px.wigner_fock(0).value_at(0, 0) - 1.0),
        abs(2 * math.pi * px.wigner_fock(1).value_at(0, 0) + 1.0),
        abs(2 * math.pi * px.wigner_cat(px.CatSpec(2.0, "odd")).value_at(0, 0) + 1.0),
        abs(2 * math.pi * px.wigner_cat(px.CatSpec(2.0, "even")).value_at(0, 0) - 1.0))
    clauses.append((f"parity identity error {parity_err:.1e} < 1e-3", parity_err < 1e-3))

    # thermal noise limits
    warm = px.LossConfig(gamma=0.1, nbar_m=5.0)
    zero = float(np.max(np.abs(px.damped_evolution(warm, 0.0).cov)))
    late = px.damped_evolution(px.LossConfig(gamma=0.5, nbar_m=5.0), 1e4).cov
    late_err = float(np.max(np.abs(late - 11.0 * np.eye(2))))
    clauses.append((f"thermal noise t=0 ({zero:.1e}) and t->inf ({late_err:.1e}) limits",
                    zero == 0.0 and late_err < 1e-6))

    # fidelity vs pure-overlap oracle
    v1, v2 = np.diag([0.5, 2.0]), np.diag([1.7, 1 / 1.7])
    f_lib = px.fidelity_zero_mean(px.GaussianState([0, 0], v1, px.MECH),
                                  px.GaussianState([0, 0], v2, px.MECH))
    f_oracle = 2.0 / math.sqrt(np.linalg.det(v1 + v2))
    clauses.append((f"fidelity vs overlap oracle {abs(f_lib - f_oracle):.1e} < 1e-10",
                    abs(f_lib - f_oracle) < 1e-10))

    ok, detail = _check(clauses)
    _finish("11 oracle suites", ok, detail, time.perf_counter() - t0, 60.0)
