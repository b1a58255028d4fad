"""Squeezer assembly, pulse selection rules, budgets, and re-optimization."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulsox import (LOSSLESS, LossConfig, MECH, MECH_OPT, PulseSchedule,
                    ancilla_state, approx_photon_budget, build_ideal_squeezer,
                    build_lossy_squeezer, chi2_for, compose,
                    chi3_for, chi_from_physical, fidelity_zero_mean,
                    ideal_target_state, is_physical, marginal,
                    mechanical_reduced_channel, mechanical_squeezer,
                    optimize_schedule,
                    photon_budget, photons_for_chi, product, regime_check,
                    rotation, schedule_for_mu, squeezed, squeezer_output,
                    apply_channel, symplectic_form, theta_for, thermal,
                    vacuum)
from pulsox.experiments import d_min_full

PHI = math.pi / 50
SQRT2 = math.sqrt(2.0)


def derotated_mech_rows(channel, phi):
    """Mechanical rows of the map with the overall delay rotation removed."""
    full = compose([channel, rotation("mech", -phi, MECH_OPT)])
    return full.matrix[:2]


# -- selection rules ----------------------------------------------------------

def test_chi2_for_values():
    assert chi2_for(1.0, -1.0) == 0.0
    assert chi2_for(1.0, 1.0) == -2.0
    assert chi2_for(2.0, 2.0) == -1.0
    with pytest.raises(ValueError):
        chi2_for(0.0, 1.0)


def test_chi3_for_small_angle_limit():
    assert chi3_for(1.3, 1.3, 1e-12) == pytest.approx(-1.3, rel=1e-9)


def test_chi3_for_reference_value():
    assert chi3_for(1.0, 1.0, PHI) == pytest.approx(-0.9445333, abs=1e-6)


def test_chi3_exceeds_chi1_for_position_branch():
    chi1 = 2.0
    assert abs(chi3_for(chi1, -chi1, PHI)) > chi1


def test_theta_for_values():
    assert theta_for(0.0, PHI) == 0.0
    assert theta_for(1.0, math.pi / 4) == pytest.approx(-math.pi / 4, rel=1e-12)
    assert theta_for(1.0, PHI) == pytest.approx(-PHI, rel=1e-12)


# -- schedule ------------------------------------------------------------------

def test_schedule_identity_at_unit_mu():
    s = schedule_for_mu(1.0, PHI)
    assert s.chi1 == s.lam == s.chi2_second_pulse == s.chi3 == 0.0
    assert s.theta == 0.0
    assert s.mu == 1.0


def test_schedule_position_branch():
    s = schedule_for_mu(SQRT2, PHI)
    assert s.chi1 == pytest.approx(2.1576, abs=1e-3)
    assert s.lam == pytest.approx(-s.chi1)
    assert s.ancilla_angle == pytest.approx(-math.pi / 4)
    assert s.chi3 == pytest.approx(-3.18584, abs=1e-3)


def test_schedule_momentum_branch():
    s = schedule_for_mu(1.0 / SQRT2, PHI)
    assert s.lam == pytest.approx(+s.chi1)
    assert s.ancilla_angle == pytest.approx(+math.pi / 4)


@pytest.mark.parametrize("mu", np.geomspace(0.3, 3.0, 11).tolist())
def test_schedule_mu_round_trip(mu):
    s = schedule_for_mu(mu, PHI)
    assert s.mu == pytest.approx(mu, abs=1e-12)
    assert s.kerr_cancellation_defect() < 1e-12


def test_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        schedule_for_mu(-1.0, PHI)
    with pytest.raises(ValueError):
        schedule_for_mu(2.0, 2.0)  # phi >= pi/2
    with pytest.raises(ValueError):  # 1 + lam chi1 tan(phi) < 0
        PulseSchedule(chi1=10.0, lam=-10.0, chi3=1.0, phi=0.1, theta=0.0)


# -- ideal three-pulse squeezer -------------------------------------------------

def test_ideal_squeezer_reference_rows():
    m = build_ideal_squeezer(1.0, -2.0).matrix
    assert np.allclose(m[0], [0.5, 0.0, 0.0, -0.5], atol=1e-14)
    assert np.allclose(m[1], [0.0, 2.0, 0.0, 0.0], atol=1e-14)


def test_ideal_squeezer_equal_strengths_is_pi_rotation():
    m = build_ideal_squeezer(1.7, 1.7)
    assert np.allclose(m.block("mech", "mech"), -np.eye(2), atol=1e-14)


@pytest.mark.parametrize("chi1,chi3", [(1.0, -2.0), (0.7, 1.9), (-1.2, -0.4)])
def test_ideal_squeezer_structure(chi1, chi3):
    m = build_ideal_squeezer(chi1, chi3)
    assert m.is_symplectic()
    block = m.block("mech", "mech")
    assert np.allclose(block, np.diag([-chi1 / chi3, -chi3 / chi1]), atol=1e-12)
    # back-action cancellation: P_M' carries no optical contribution
    assert abs(m.matrix[1, 2]) < 1e-14
    assert abs(m.matrix[1, 3]) < 1e-14
    # X_M' optical pickup is the residual noise coefficient chi2
    assert m.matrix[0, 3] == pytest.approx(chi2_for(chi1, chi3), rel=1e-12)


# -- four-pulse squeezer ---------------------------------------------------------

@pytest.mark.parametrize("mu", np.geomspace(0.3, 3.0, 9).tolist())
@pytest.mark.parametrize("phi", [math.pi / 100, math.pi / 50])
def test_pulsed_squeezer_momentum_row(mu, phi):
    s = schedule_for_mu(mu, phi)
    rows = derotated_mech_rows(build_lossy_squeezer(s, LOSSLESS), phi)
    assert np.allclose(rows[1], [0.0, mu, 0.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("mu", [0.5, 1.0 / SQRT2, SQRT2, 2.5])
def test_pulsed_squeezer_position_row(mu):
    s = schedule_for_mu(mu, PHI)
    t = math.tan(PHI)
    rows = derotated_mech_rows(build_lossy_squeezer(s, LOSSLESS), PHI)
    assert rows[0, 0] == pytest.approx(1.0 / mu, rel=1e-10)
    assert rows[0, 1] == pytest.approx((1.0 - mu) * t, abs=1e-10)
    # optical noise amplitude and angle
    amp = math.hypot(rows[0, 2], rows[0, 3])
    assert amp == pytest.approx(math.sqrt(2 * abs(1 - 1 / mu) * t), rel=1e-10)
    angle = math.atan2(rows[0, 3], rows[0, 2])
    assert angle == pytest.approx(s.ancilla_angle, abs=1e-10)


def test_pulsed_squeezer_is_symplectic():
    for mu in (0.4, 1.6):
        assert build_lossy_squeezer(schedule_for_mu(mu, PHI), LOSSLESS).is_symplectic()


# -- lossy squeezer ---------------------------------------------------------------

def test_lossy_squeezer_lossless_limit():
    # without loss the delay is the bare mechanical rotation through phi, so
    # the map is the literal seven-stage product of the paper's protocol
    import pulsox as px

    s = schedule_for_mu(SQRT2, PHI)
    lossy = build_lossy_squeezer(s, LOSSLESS)
    m = np.eye(4)
    for stage in [px.qnd_xx(s.chi1).matrix,
                  px.rotation("opt", math.pi / 2).matrix,
                  px.qnd_xx(s.lam).matrix,
                  px.rotation("mech", s.phi).matrix,
                  px.qnd_xx(s.chi2_second_pulse).matrix,
                  px.rotation("opt", s.theta - math.pi / 2).matrix,
                  px.qnd_xx(s.chi3).matrix]:
        m = stage @ m
    assert np.allclose(lossy.matrix, m, atol=1e-12)
    assert np.allclose(lossy.cov, 0.0, atol=1e-15)


def test_lossy_squeezer_noise_route():
    # independent route: the incoming thermal and delay-line noise propagate
    # through exactly the final two pulses and the Kerr-cancelling rotation
    import pulsox as px

    s = schedule_for_mu(1.0 / SQRT2, PHI)
    loss = LossConfig.from_q(2e5, nbar_m=500.0, epsilon=3e-3, nbar_l=0.7)
    built = build_lossy_squeezer(s, loss)

    t_delay = s.phi / (loss.sigma * loss.omega_m)
    f_m = px.damped_evolution(loss, t_delay, MECH_OPT).cov
    f_l = np.zeros((4, 4))
    i = MECH_OPT.x_index("opt")
    f_l[i:i + 2, i:i + 2] = loss.epsilon * (2 * loss.nbar_l + 1) * np.eye(2)
    tail = (px.qnd_xx(s.chi3).matrix
            @ px.rotation("opt", s.theta - math.pi / 2).matrix
            @ px.qnd_xx(s.chi2_second_pulse).matrix)
    expected = tail @ (f_m + f_l) @ tail.T
    assert np.allclose(built.cov, expected, atol=1e-12)

    # and the map is the literal eight-stage product
    m = np.eye(4)
    for stage in [px.qnd_xx(s.chi1).matrix,
                  px.rotation("opt", math.pi / 2).matrix,
                  px.qnd_xx(s.lam).matrix,
                  px.beamsplitter_loss(loss).matrix,
                  px.damped_evolution(loss, t_delay, MECH_OPT).matrix,
                  px.qnd_xx(s.chi2_second_pulse).matrix,
                  px.rotation("opt", s.theta - math.pi / 2).matrix,
                  px.qnd_xx(s.chi3).matrix]:
        m = stage @ m
    assert np.allclose(built.matrix, m, atol=1e-13)


def test_pulsed_squeezer_equals_conjugated_interaction_form():
    # alternative assembly: wrap the two middle pulses plus the mechanical
    # rotation in optical quarter turns before applying theta
    import pulsox as px

    s = schedule_for_mu(SQRT2, PHI)
    core = compose([px.qnd_xx(s.lam), px.rotation("mech", s.phi),
                    px.qnd_xx(s.chi2_second_pulse)])
    wrapped = compose([px.rotation("opt", math.pi / 2), core,
                       px.rotation("opt", -math.pi / 2)])
    alt = compose([px.qnd_xx(s.chi1), wrapped, px.rotation("opt", s.theta),
                   px.qnd_xx(s.chi3)])
    assert np.allclose(alt.matrix, build_lossy_squeezer(s, LOSSLESS).matrix, atol=1e-13)


def test_lossy_squeezer_optical_loss_degrades_output():
    # delay-line loss never reduces either output variance and strictly
    # lowers the fidelity (strict covariance ordering does not hold: the
    # attenuation also perturbs the cross correlation)
    s = schedule_for_mu(SQRT2, PHI)
    clean = squeezer_output(s, LOSSLESS, vacuum(MECH))
    noisy = squeezer_output(s, LossConfig(epsilon=0.01), vacuum(MECH))
    assert noisy.cov[0, 0] >= clean.cov[0, 0] - 1e-12
    assert noisy.cov[1, 1] > clean.cov[1, 1]
    target = ideal_target_state(vacuum(MECH), SQRT2, PHI)
    assert fidelity_zero_mean(noisy, target) < fidelity_zero_mean(clean, target)


def test_lossy_squeezer_is_physical():
    s = schedule_for_mu(SQRT2, PHI)
    loss = LossConfig.from_q(1e5, nbar_m=4e4, epsilon=5e-2)
    assert is_physical(build_lossy_squeezer(s, loss))


# The value types check structure only; these properties check the
# physicality the builders must deliver.
_SCHEDULES = st.builds(schedule_for_mu, st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),
                       st.floats(0.01, 1.5), st.floats(0.1, 1.0))


def _losses(nbar_m_min: float = 0.0):
    return st.builds(lambda e, nbar_m, eps, nbar_l: LossConfig.from_q(10.0 ** e, nbar_m, eps, nbar_l),
                     st.floats(1.0, 8.0), st.floats(nbar_m_min, 1e5), st.floats(0.0, 1.0),
                     st.floats(0.0, 10.0))


# The bath occupancy starts at 100: below (2 nbar_m + 1) phi ~ sqrt(3) the
# momentum-damped delay is itself not completely positive
# (test_damped_evolution_physical_at_low_occupancy in test_channels.py).
@given(_SCHEDULES, _losses(100.0))
def test_built_squeezers_are_physical(schedule, loss):
    assert is_physical(build_lossy_squeezer(schedule, loss))
    assert is_physical(mechanical_squeezer(schedule, loss))


@given(_SCHEDULES, _losses(), st.floats(0.0, 100.0))
def test_squeezer_output_obeys_uncertainty_principle(schedule, loss, nbar_in):
    v = squeezer_output(schedule, loss, thermal(nbar_in, MECH)).cov
    margin = float(np.linalg.eigvalsh(v + 1j * symplectic_form(1)).min())
    assert margin >= -1e-9 * float(np.max(np.abs(v)))


def test_lossy_infidelity_ordered_in_q():
    mu, phi = SQRT2, 2 * math.pi / 100
    target = ideal_target_state(vacuum(MECH), mu, phi)

    def infid(q):
        loss = LossConfig.from_q(q, nbar_m=4e4)
        out = squeezer_output(schedule_for_mu(mu, phi, 0.5), loss, vacuum(MECH))
        return 1.0 - fidelity_zero_mean(out, target)

    assert infid(1e7) < infid(1e5) < infid(1e4)


# -- batched equals scalar --------------------------------------------------------

def _mu_batches():
    """mu in [10^-1.2, 10^1.2]: exactly 1 plus points on both sides of it."""
    side = st.lists(st.floats(1e-6, 1.2), min_size=1, max_size=4)
    return st.tuples(side, side).map(
        lambda sides: np.array([1.0, *(10.0 ** -e for e in sides[0]),
                                *(10.0 ** e for e in sides[1])]))


_LOSS_KINDS = {
    "lossless": st.just(LOSSLESS),
    "from_q": st.builds(lambda e, nbar_m: LossConfig.from_q(10.0 ** e, nbar_m=nbar_m),
                        st.floats(4.0, 7.0), st.floats(0.0, 1e5)),
    "epsilon": st.builds(lambda eps, nbar_l: LossConfig(epsilon=eps, nbar_l=nbar_l),
                         st.floats(0.0, 0.1), st.floats(0.0, 5.0)),
}


def _assert_close(batched, scalar):
    np.testing.assert_allclose(batched, scalar, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kind", sorted(_LOSS_KINDS))
@settings(max_examples=40)
@given(data=st.data())
def test_batched_squeezer_equals_scalar_calls(kind, data):
    mus = data.draw(_mu_batches())
    loss = data.draw(_LOSS_KINDS[kind])
    nbar_in = data.draw(st.floats(0.0, 10.0))
    phi, v_sq = 2 * math.pi / 100, 0.5
    out = squeezer_output(schedule_for_mu(mus, phi, v_sq), loss, vacuum(MECH))
    target = ideal_target_state(vacuum(MECH), mus, phi)
    fidelity = fidelity_zero_mean(out, target)
    d_min = d_min_full(mus, nbar_in, 3.0, v_sq, phi, loss)
    assert out.mean.shape == (len(mus), 2) and out.cov.shape == (len(mus), 2, 2)
    for k, mu in enumerate(mus.tolist()):
        one = squeezer_output(schedule_for_mu(mu, phi, v_sq), loss, vacuum(MECH))
        assert one.mean.shape == (2,) and one.cov.shape == (2, 2)
        _assert_close(out.mean[k], one.mean)
        _assert_close(out.cov[k], one.cov)
        one_fidelity = float(fidelity_zero_mean(one, ideal_target_state(vacuum(MECH), mu, phi)))
        _assert_close(fidelity[k], one_fidelity)
        _assert_close(d_min[k], float(d_min_full(mu, nbar_in, 3.0, v_sq, phi, loss)))


# -- ancilla reduction -------------------------------------------------------------

def test_reduced_channel_identity():
    ident = rotation("mech", 0.0)
    reduced = mechanical_reduced_channel(ident, squeezed(0.3, 0.2))
    assert np.allclose(reduced.matrix, np.eye(2))
    assert np.allclose(reduced.cov, 0.0)


def test_reduced_channel_strong_ancilla_squeezing_kills_fed_noise():
    squeezer = build_ideal_squeezer(1.0, -2.0)
    reduced = mechanical_reduced_channel(squeezer, squeezed(1e-8, math.pi / 2))
    # the fed quadrature is X_M; its injected noise follows the squeezed P_L
    assert reduced.cov[0, 0] < 1e-8
    assert reduced.cov[1, 1] < 1e-14


@pytest.mark.parametrize("mu", [0.6, 1.8])
def test_reduced_channel_matches_two_mode_propagation(mu):
    s = schedule_for_mu(mu, PHI)
    loss = LossConfig.from_q(1e6, nbar_m=100.0, epsilon=1e-3)
    channel = build_lossy_squeezer(s, loss)
    anc = ancilla_state(s)
    mech_in = thermal(2.0, MECH)
    via_reduced = apply_channel(mech_in, mechanical_reduced_channel(channel, anc))
    via_full = marginal(apply_channel(product(mech_in, anc), channel), ["mech"])
    assert np.allclose(via_reduced.cov, via_full.cov, atol=1e-10)
    assert np.allclose(via_reduced.mean, via_full.mean, atol=1e-12)


# -- photon budget -----------------------------------------------------------------

def test_budget_zero_at_unit_mu():
    assert photon_budget(schedule_for_mu(1.0, PHI)) == 0.0
    assert approx_photon_budget(1.0, PHI) == 0.0


def test_approx_budget_reference_values():
    assert approx_photon_budget(SQRT2, 2 * math.pi / 100) == pytest.approx(16.4936, abs=1e-3)
    assert approx_photon_budget(1.0 / SQRT2, 2 * math.pi / 100) == pytest.approx(35.1779, abs=1e-3)


def test_exact_budget_values():
    # regression values for the exact pulse-strength sums
    assert photon_budget(schedule_for_mu(SQRT2, 2 * math.pi / 100)) == \
        pytest.approx(24.1342, abs=1e-3)
    assert photon_budget(schedule_for_mu(1.0 / SQRT2, 2 * math.pi / 100)) == \
        pytest.approx(23.6492, abs=1e-3)


def test_budget_agreement_near_unit_mu():
    # the closed-form estimate tracks the exact sum only close to mu = 1
    for mu in (0.98, 1.02):
        exact = photon_budget(schedule_for_mu(mu, PHI))
        approx = approx_photon_budget(mu, PHI)
        assert exact == pytest.approx(approx, rel=0.05)


@pytest.mark.xfail(strict=True, reason=(
    "the closed-form budget estimate diverges from the exact pulse-strength "
    "sum away from mu = 1; the exact sum is nearly mu <-> 1/mu symmetric"))
def test_budget_agreement_across_sweep():
    for mu in np.geomspace(0.5, 2.0, 9):
        exact = photon_budget(schedule_for_mu(mu, PHI))
        approx = approx_photon_budget(mu, PHI)
        assert exact == pytest.approx(approx, rel=0.05)


def test_approx_budget_position_cheaper_than_momentum():
    for mu in (1.3, SQRT2, 2.0):
        assert approx_photon_budget(mu, PHI) < approx_photon_budget(1.0 / mu, PHI)


@pytest.mark.xfail(strict=True, reason=(
    "the exact pulse-strength sum shows no position/momentum cost asymmetry; "
    "only the closed-form estimate does"))
def test_exact_budget_position_cheaper_than_momentum():
    for mu in (1.3, SQRT2, 2.0):
        assert photon_budget(schedule_for_mu(mu, PHI)) < \
            photon_budget(schedule_for_mu(1.0 / mu, PHI))


# -- physical conversion -----------------------------------------------------------

def test_chi_from_physical():
    assert chi_from_physical(1.0, 0.0, 1.0) == 0.0
    assert chi_from_physical(1e-3, 1e6, 1.0) == pytest.approx(-8.0)
    assert photons_for_chi(-8.0, 1e-3, 1.0) == pytest.approx(1e6)


def test_regime_check_pass_and_fail():
    ok = regime_check(1.0, 1e6, 1e9, 1e8)
    assert ok.ok
    bad = regime_check(1.0, 1e9, 1e9, 1e8)
    assert not bad.ok
    assert "unresolved-sideband" in bad.failed()
    bad2 = regime_check(1.0, 1e6, 1e9, 1e9)
    assert "pulse-distortion" in bad2.failed()


# -- optimizer ---------------------------------------------------------------------

def test_optimizer_never_loses_to_seed():
    res = optimize_schedule(SQRT2, PHI, LOSSLESS, ancilla_vsq=0.5)
    assert res.objective <= res.seed_objective


def test_symmetric_split_optimal_at_fixed_mu():
    # among schedules pinned to the target squeeze factor, the symmetric
    # |lam| = |chi1| split minimizes the infidelity (it minimizes the optical
    # noise amplitude at fixed lam * chi1)
    mu, v_sq = SQRT2, 0.5
    t = math.tan(PHI)
    k = (1.0 / mu - 1.0) / t  # pinned product lam * chi1
    target = ideal_target_state(vacuum(MECH), mu, PHI)

    def infid(split):
        chi1 = math.sqrt(abs(k)) * split
        lam = k / chi1
        s = PulseSchedule(chi1=chi1, lam=lam, chi3=chi3_for(chi1, lam, PHI), phi=PHI,
                          theta=theta_for(lam, PHI), ancilla_vsq=v_sq,
                          ancilla_angle=math.copysign(math.pi / 4, 1 - mu))
        return 1.0 - fidelity_zero_mean(squeezer_output(s, LOSSLESS, vacuum(MECH)),
                                        target)

    splits = [0.7, 0.85, 1.0, 1.15, 1.3]
    values = [infid(s) for s in splits]
    assert min(values) == values[2]


def test_optimizer_trivial_at_unit_mu():
    res = optimize_schedule(1.0, PHI, LOSSLESS)
    assert res.objective <= 1e-10
    assert abs(res.schedule.chi1) < 1e-3


def test_optimizer_beats_analytic_seed_under_loss():
    loss = LossConfig.from_q(1e4, nbar_m=4e4)
    res = optimize_schedule(SQRT2, PHI, loss, ancilla_vsq=0.5)
    assert res.objective < res.seed_objective


def test_optimizer_with_free_angles_reaches_unitary_squeezer():
    # freeing theta and the ancilla angle admits an exactly unitary solution
    # even with a finitely squeezed ancilla
    res = optimize_schedule(SQRT2, PHI, LOSSLESS, ancilla_vsq=0.5,
                            include_angles=True)
    assert res.objective < 1e-7
    assert res.objective < res.seed_objective
