"""Gaussian states, fidelity measures, and the classical benchmark."""
import math

import numpy as np
import pytest

from pulsox import (GaussianState, LOSSLESS, LossConfig, MECH, MECH_OPT, apply_channel,
                    beamsplitter_loss, build_ideal_squeezer, classical_bound,
                    coherent, fidelity_zero_mean, ideal_target_state, marginal,
                    mean_distance, product, pure_fidelity, rotation,
                    schedule_for_mu, squeezed, squeezer_output,
                    symplectic_form, thermal, vacuum)


def overlap_fidelity(v1: np.ndarray, v2: np.ndarray, half: float = 16.0,
                     n: int = 2048) -> float:
    """Independent oracle: 4 pi times the phase-space overlap integral of two
    zero-mean Gaussian Wigner functions, by Riemann quadrature."""
    ax = -half + 2 * half / n * np.arange(n)
    x, p = np.meshgrid(ax, ax, indexing="ij")

    def w(v):
        inv = np.linalg.inv(v)
        det = np.linalg.det(v)
        quad = inv[0, 0] * x ** 2 + 2 * inv[0, 1] * x * p + inv[1, 1] * p ** 2
        return np.exp(-0.5 * quad) / (2 * math.pi * math.sqrt(det))

    return float(4 * math.pi * np.sum(w(v1) * w(v2)) * (2 * half / n) ** 2)


# -- constructors ------------------------------------------------------------

def test_vacuum_covariance():
    s = vacuum(MECH_OPT)
    assert np.array_equal(s.cov, np.eye(4))
    assert np.array_equal(s.mean, np.zeros(4))


def test_thermal_covariance():
    assert np.allclose(thermal(3.0, MECH).cov, 7.0 * np.eye(2))
    with pytest.raises(ValueError):
        thermal(-1.0, MECH)


def test_squeezed_eigenvalues_and_angle():
    v = 0.25
    for angle in (0.0, math.pi / 4, -math.pi / 4, 1.1):
        s = squeezed(v, angle)
        eigs = np.sort(np.linalg.eigvalsh(s.cov))
        assert eigs == pytest.approx([v, 1.0 / v], rel=1e-12)
        u = np.array([math.cos(angle), math.sin(angle)])
        assert u @ s.cov @ u == pytest.approx(v, rel=1e-12)


def test_coherent_state():
    s = coherent([2.0, -1.0], MECH)
    assert np.array_equal(s.cov, np.eye(2))
    assert np.array_equal(s.mean, [2.0, -1.0])


def test_product_concatenates():
    s = product(thermal(1.0, MECH), squeezed(0.5, 0.0))
    assert s.layout.labels == ("mech", "opt")
    assert s.cov[0, 0] == 3.0
    assert s.cov[2, 2] == 0.5
    assert s.cov[0, 2] == 0.0


def test_state_validation_rejects_unphysical():
    # the constructor checks structure only; the fidelity refuses a
    # covariance below the pure-state floor
    sub_vacuum = GaussianState([0.0, 0.0], 0.5 * np.eye(2), MECH)
    with pytest.raises(ValueError, match="pure-state floor"):
        fidelity_zero_mean(sub_vacuum, vacuum(MECH))


# -- channel application -----------------------------------------------------

def test_apply_identity_channel():
    s = thermal(2.0, MECH_OPT)
    out = apply_channel(s, rotation("mech", 0.0))
    assert np.allclose(out.cov, s.cov)


def test_apply_ideal_squeezer_variances():
    # chi1=1, chi3=-2: X' = X/2 - P_L/2, P' = 2P
    v_sq = 0.01
    squeezer = build_ideal_squeezer(1.0, -2.0)
    ancilla = squeezed(v_sq, math.pi / 2)  # squeezed along P
    out = apply_channel(product(vacuum(MECH), ancilla), squeezer)
    assert out.variance("mech", "p") == pytest.approx(4.0, rel=1e-12)
    assert out.variance("mech", "x") == pytest.approx(0.25 + 0.25 * v_sq, rel=1e-12)


def test_apply_thermal_through_loss():
    eps, nbar = 0.3, 2.0
    s = thermal(nbar, MECH_OPT)
    out = apply_channel(s, beamsplitter_loss(LossConfig(epsilon=eps)))
    expected = (1 - eps) * (2 * nbar + 1) + eps
    assert out.variance("opt", "x") == pytest.approx(expected, rel=1e-12)
    assert out.variance("opt", "p") == pytest.approx(expected, rel=1e-12)


def test_apply_channel_layout_mismatch():
    with pytest.raises(ValueError):
        apply_channel(vacuum(MECH), beamsplitter_loss(LossConfig(epsilon=0.1)))


def test_apply_preserves_physicality():
    omega = symplectic_form(2)
    state = product(squeezed(0.1, 0.3, MECH), squeezed(0.2, -1.0))
    for eps in (0.0, 0.2, 0.9):
        out = apply_channel(state, beamsplitter_loss(LossConfig(epsilon=eps, nbar_l=1.0)))
        h = out.cov + 1j * omega
        assert np.linalg.eigvalsh(h).min() > -1e-9


# -- marginal ----------------------------------------------------------------

def test_marginal_of_product_is_factor():
    s = product(thermal(1.0, MECH), squeezed(0.5, 0.7))
    m = marginal(s, ["opt"])
    assert np.allclose(m.cov, squeezed(0.5, 0.7).cov)


def test_marginal_preserves_uncertainty():
    # correlated two-mode-squeezed-like covariance
    r = 1.2
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    cov = np.array([[ch, 0, sh, 0],
                    [0, ch, 0, -sh],
                    [sh, 0, ch, 0],
                    [0, -sh, 0, ch]], dtype=float)
    s = GaussianState(np.zeros(4), cov, MECH_OPT)
    m = marginal(s, ["mech"])
    assert np.allclose(m.cov, ch * np.eye(2))  # thermal-shaped reduced state
    h = m.cov + 1j * symplectic_form(1)
    assert np.linalg.eigvalsh(h).min() > -1e-12


# -- fidelity ----------------------------------------------------------------

def test_fidelity_identical_pure_states():
    assert fidelity_zero_mean(vacuum(MECH), vacuum(MECH)) == pytest.approx(1.0)


def test_fidelity_vacuum_vs_squeezed_matches_overlap_oracle():
    v2 = np.diag([2.0, 0.5])
    got = fidelity_zero_mean(vacuum(MECH), GaussianState([0, 0], v2, MECH))
    assert got == pytest.approx(2.0 / math.sqrt(4.5), rel=1e-12)
    assert got == pytest.approx(overlap_fidelity(np.eye(2), v2), abs=1e-10)


@pytest.mark.parametrize("v1,v2", [
    (np.eye(2), np.diag([0.3, 1 / 0.3])),
    (np.diag([0.5, 2.0]), np.diag([2.0, 0.5])),
    (np.diag([0.1, 10.0]), np.eye(2)),
])
def test_fidelity_matches_overlap_oracle_pure(v1, v2):
    got = fidelity_zero_mean(GaussianState([0, 0], v1, MECH),
                             GaussianState([0, 0], v2, MECH))
    assert got == pytest.approx(overlap_fidelity(v1, v2), abs=1e-10)


def test_fidelity_identical_thermal_states():
    a = GaussianState([0, 0], np.diag([3.0, 3.0]), MECH)
    assert fidelity_zero_mean(a, a) == pytest.approx(1.0, rel=1e-12)


def test_fidelity_symmetric_and_discriminating():
    a = vacuum(MECH)
    b = GaussianState([0, 0], np.diag([1.5, 1.0]), MECH)
    assert fidelity_zero_mean(a, b) == pytest.approx(fidelity_zero_mean(b, a), rel=1e-14)
    assert fidelity_zero_mean(a, b) < 1.0


def test_fidelity_rejects_displaced_and_multimode():
    with pytest.raises(ValueError, match="zero-mean"):
        fidelity_zero_mean(coherent([1.0, 0.0], MECH), vacuum(MECH))
    with pytest.raises(ValueError, match="single-mode"):
        fidelity_zero_mean(vacuum(MECH_OPT), vacuum(MECH_OPT))


def test_mean_distance_diagnostic():
    assert mean_distance(coherent([3.0, 4.0], MECH), vacuum(MECH)) == pytest.approx(5.0)


# -- closed-form fidelity and classical bound --------------------------------

def test_pure_fidelity_no_squeeze():
    assert pure_fidelity(1.0, math.pi / 50, 1.0, 0.5) == 1.0


def test_pure_fidelity_reference_value():
    f = pure_fidelity(math.sqrt(2), math.pi / 50, 1.0, 1.0)
    assert 1.0 - f == pytest.approx(0.0180939, abs=2e-6)


def test_pure_fidelity_monotone_in_ancilla_squeezing():
    f_vac = pure_fidelity(math.sqrt(2), math.pi / 50, 1.0, 1.0)
    f_3db = pure_fidelity(math.sqrt(2), math.pi / 50, 1.0, 0.5)
    assert f_3db > f_vac


@pytest.mark.parametrize("mu", [0.35, 0.5, 0.8, 1.25, 2.0, 2.9])
@pytest.mark.parametrize("v_sq", [1.0, 0.5])
def test_pure_fidelity_agrees_with_pipeline(mu, v_sq):
    phi = 2 * math.pi / 100
    schedule = schedule_for_mu(mu, phi, v_sq)
    out = squeezer_output(schedule, LOSSLESS, vacuum(MECH))
    target = ideal_target_state(vacuum(MECH), mu, phi)
    assert 1.0 - fidelity_zero_mean(out, target) == pytest.approx(
        1.0 - pure_fidelity(mu, phi, 1.0, v_sq), abs=1e-12)


def test_classical_bound_values():
    assert classical_bound(1.0) == 0.5
    assert classical_bound(2.0) == pytest.approx(1.0 / 2.25, rel=1e-12)


def test_classical_bound_symmetry():
    for mu in (0.3, 0.77, 1.9, 4.2):
        assert abs(classical_bound(mu) - classical_bound(1.0 / mu)) < 1e-12


def test_exceeds_classical_across_sweep():
    phi = 2 * math.pi / 100
    for logmu in np.linspace(-0.7, 0.7, 15):
        mu = 10.0 ** logmu
        if abs(mu - 1.0) < 1e-12:
            continue
        assert pure_fidelity(mu, phi, 1.0, 0.5) > classical_bound(mu)
