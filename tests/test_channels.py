"""Gaussian channels: constructors, composition and physicality."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pulsox import (LOSSLESS, CatSpec, GaussianChannel, GaussianState, GaussianSum,
                    LossConfig, MECH, MECH_OPT, ModeLayout, PulseSchedule, WignerGrid,
                    apply_channel, apply_gaussian_channel, beamsplitter_loss,
                    build_lossy_squeezer, compose, damped_evolution, is_physical,
                    mechanical_squeezer, qnd_pp, qnd_xx, quadrature_scaling, rotation,
                    schedule_for_mu, symplectic_form, thermal, wigner_fock)
from pulsox import squeezer
from pulsox.channels import damped_delay, damped_is_physical

OMEGA2 = symplectic_form(2)


def _channel(matrix, mean=None, cov=None, layout=MECH):
    """A channel from explicit arrays; the noise defaults to zero."""
    d = layout.dim
    return GaussianChannel(matrix, np.zeros(d) if mean is None else mean,
                           np.zeros((d, d)) if cov is None else cov, layout)


def test_layout_rejects_duplicates():
    with pytest.raises(ValueError):
        ModeLayout(("a", "a"))


def test_layout_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        MECH_OPT.x_index("nope")


# -- QND pulses --------------------------------------------------------------

def test_qnd_xx_zero_strength_is_identity():
    assert np.array_equal(qnd_xx(0.0).matrix, np.eye(4))


def test_qnd_xx_matches_reference_matrix():
    expected = np.array([[1, 0, 0, 0],
                         [0, 1, 1, 0],
                         [0, 0, 1, 0],
                         [1, 0, 0, 1]], dtype=float)
    m = qnd_xx(1.0)
    assert np.array_equal(m.matrix, expected)
    assert math.isclose(np.linalg.det(m.matrix), 1.0)
    assert m.symplectic_defect() < 1e-10


def test_qnd_xx_strengths_add_under_composition():
    twice = compose([qnd_xx(2.0), qnd_xx(2.0)])
    assert np.allclose(twice.matrix, qnd_xx(4.0).matrix)


def test_qnd_xx_rejects_bad_input():
    with pytest.raises(ValueError):
        qnd_xx(float("nan"))


def test_qnd_pp_matches_reference_matrix():
    expected = np.array([[1, 0, 0, 1],
                         [0, 1, 0, 0],
                         [0, 1, 1, 0],
                         [0, 0, 0, 1]], dtype=float)
    assert np.array_equal(qnd_pp(1.0).matrix, expected)
    assert np.array_equal(qnd_pp(0.0).matrix, np.eye(4))


def test_qnd_pp_is_rotated_px_interaction():
    # P-X QND (preserves P_M and X_L) conjugated by optical pi/2 rotations
    chi = 0.8
    m_px = np.eye(4)
    m_px[0, 2] = chi
    m_px[3, 1] = -chi
    left = rotation("opt", -math.pi / 2, MECH_OPT).matrix
    right = rotation("opt", math.pi / 2, MECH_OPT).matrix
    assert np.allclose(left @ m_px @ right, qnd_pp(chi).matrix, atol=1e-15)


# -- rotations ---------------------------------------------------------------

def test_rotation_identity_and_periodicity():
    assert np.allclose(rotation("mech", 0.0).matrix, np.eye(4))
    assert np.allclose(rotation("mech", 2 * math.pi).matrix, np.eye(4), atol=1e-12)


def test_rotation_sign_convention():
    # quarter turn on the operator vector: X' = P, P' = -X
    m = rotation("mech", math.pi / 2, MECH).matrix
    assert np.allclose(m[0], [0.0, 1.0], atol=1e-15)
    assert np.allclose(m[1], [-1.0, 0.0], atol=1e-15)


def test_rotation_group_property():
    a, b = 0.7, -1.3
    lhs = compose([rotation("opt", b), rotation("opt", a)])
    assert np.allclose(lhs.matrix, rotation("opt", a + b).matrix, atol=1e-14)


# -- loss model -------------------------------------------------------------

@pytest.mark.parametrize("make,match", [
    (lambda: LossConfig(gamma=2.5), "overdamped"),
    (lambda: LossConfig(epsilon=1.5), "above 1"),
    (lambda: LossConfig(epsilon=-0.1), "nonnegative"),
    (lambda: LossConfig(gamma=math.nan), "finite"),
    (lambda: LossConfig(nbar_m=math.nan), "finite"),
    (lambda: LossConfig(epsilon=math.nan), "finite"),
    (lambda: LossConfig(omega_m=math.inf), "finite"),
    (lambda: LossConfig(nbar_l=math.inf), "finite"),
    (lambda: LossConfig.from_q(math.nan), "finite"),
], ids=["overdamped", "epsilon-above-1", "epsilon-negative", "gamma-nan", "nbar_m-nan",
        "epsilon-nan", "omega_m-inf", "nbar_l-inf", "from_q-nan"])
def test_loss_config_rejects_out_of_range_and_non_finite(make, match):
    # construction only: a half-life search at omega_m = inf never ends (dt = 0)
    with pytest.raises(ValueError, match=match):
        make()


def test_loss_sigma_limits():
    assert LossConfig().sigma == 1.0
    assert LossConfig(gamma=2.0 - 1e-12).sigma == pytest.approx(0.0, abs=1e-5)
    with pytest.raises(ValueError):
        LossConfig(gamma=2.0)


def test_loss_sigma_taylor():
    # gamma = omega / Q with Q = 1e4: sigma = 1 - gamma^2 / 8 omega^2
    assert abs(LossConfig(gamma=1e-4).sigma - (1.0 - 1.25e-9)) < 1e-12


# -- damped evolution --------------------------------------------------------

def test_damped_map_lossless_limit_exact():
    t = 0.37
    assert np.array_equal(damped_evolution(LOSSLESS, t).matrix,
                          rotation("mech", t, MECH).matrix)


def test_damped_map_at_zero_time():
    assert np.allclose(damped_evolution(LossConfig(gamma=0.3), 0.0).matrix, np.eye(2))


def test_damped_map_determinant_is_energy_decay():
    gamma, t = 0.2, 3.1
    det = np.linalg.det(damped_evolution(LossConfig(gamma=gamma), t).matrix)
    assert det == pytest.approx(math.exp(-gamma * t), rel=1e-12)


def test_damped_map_converges_linearly_in_gamma():
    t = 1.1
    ref = rotation("mech", t, MECH).matrix
    errs = [np.max(np.abs(damped_evolution(LossConfig(gamma=g), t).matrix - ref))
            for g in (1e-3, 1e-4, 1e-5)]
    assert errs[0] < 2e-3 and errs[1] < 2e-4 and errs[2] < 2e-5


@settings(max_examples=40)
@given(q=st.floats(0.6, 1e9), nbar_m=st.floats(0.0, 1e5),
       ts=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=1, max_size=10),
       two_d=st.booleans(), layout=st.sampled_from([MECH, MECH_OPT]))
def test_batched_damped_evolution_equals_the_stacked_scalar_calls(q, nbar_m, ts, two_d,
                                                                   layout):
    loss = LossConfig.from_q(q, nbar_m=nbar_m)
    times = np.array(ts * 2).reshape(2, -1) if two_d else np.array(ts)
    batch = damped_evolution(loss, times, layout)
    alone = [damped_evolution(loss, t, layout) for t in times.ravel().tolist()]
    d = layout.dim
    for name, shape in (("matrix", (d, d)), ("mean", (d,)), ("cov", (d, d))):
        stacked = np.stack([getattr(ch, name) for ch in alone])
        assert getattr(batch, name).shape == times.shape + shape
        assert np.array_equal(getattr(batch, name), stacked.reshape(times.shape + shape))
    bad = times.copy()
    bad.flat[-1] = -1e-300
    with pytest.raises(ValueError, match="negative evolution time"):
        damped_evolution(loss, bad, layout)


def _one_time_damped_entries(loss, t):
    """The damped block over one time, written out per sample as it was before
    the loss-only factors moved out of the loop over times: the oracle the
    hoisted formula must match bit for bit."""
    if t < 0:
        raise ValueError("negative evolution time")
    gamma, omega = loss.gamma, loss.omega_m
    sig = loss.sigma
    g = gamma / (2.0 * omega)
    a = sig * omega * t
    d = math.exp(-gamma * t / 2.0)
    c, s = math.cos(a), math.sin(a)
    sig2 = sig * sig
    decay = math.exp(-gamma * t)
    em1 = -math.expm1(-gamma * t)  # 1 - e^(-gamma t)
    c2, s2 = math.cos(2 * a), math.sin(2 * a)
    n_total = 2.0 * loss.nbar_m + 1.0
    v11 = n_total / sig2 * (em1 + g * g * (decay * c2 - 1.0) - decay * g * sig * s2)
    v22 = n_total / sig2 * (em1 + g * g * (decay * c2 - 1.0) + decay * g * sig * s2)
    v12 = n_total * 2.0 * g / sig2 * decay * math.sin(a) ** 2
    return (d * (c + (g / sig) * s), d * (s / sig), d * (-s / sig), d * (c - (g / sig) * s),
            v11, v12, v12, v22)


def _one_time_damped_channel(loss, t, layout):
    """The damped evolution over one time with its block from the oracle."""
    entries = np.reshape(_one_time_damped_entries(loss, t), (2, 2, 2))
    i = layout.x_index("mech")
    m, cov = np.eye(layout.dim), np.zeros((layout.dim, layout.dim))
    m[i:i + 2, i:i + 2] = entries[0]
    cov[i:i + 2, i:i + 2] = entries[1]
    return GaussianChannel(m, np.zeros(layout.dim), cov, layout)


_DAMPED_LOSSES = st.builds(
    lambda ratio, omega, nbar_m: LossConfig(gamma=ratio * omega, omega_m=omega, nbar_m=nbar_m),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.floats(0.1, 10.0),
    st.floats(0.0, 1e5))


@settings(max_examples=60)
@given(loss=_DAMPED_LOSSES, periods=st.lists(st.floats(0.0, 40.0), max_size=20))
def test_damped_entries_equal_the_one_time_formula_bit_for_bit(loss, periods):
    period = 2.0 * math.pi / loss.omega_m
    times = [0.0, 1e-6, 40.0 * period] + [x * period for x in periods]
    batch = damped_evolution(loss, times)
    oracle = np.array([_one_time_damped_entries(loss, t) for t in times]).reshape(-1, 2, 2, 2)
    assert np.array_equal(batch.matrix, oracle[:, 0])
    assert np.array_equal(batch.cov, oracle[:, 1])
    with pytest.raises(ValueError, match="negative evolution time"):
        damped_evolution(loss, times[:2] + [-period] + times[2:])


@settings(max_examples=20)
@given(loss=_DAMPED_LOSSES, epsilon=st.floats(0.0, 0.1), mu=st.floats(0.3, 3.0),
       phi=st.floats(0.01, 1.5))
def test_damped_delay_of_the_lossy_squeezer_equals_the_one_time_formula(loss, epsilon, mu,
                                                                        phi):
    loss = dataclasses.replace(loss, epsilon=epsilon)
    oracle = _one_time_damped_channel(loss, phi / (loss.sigma * loss.omega_m), MECH_OPT)
    delay = damped_delay(phi, loss, MECH_OPT)
    s = schedule_for_mu(mu, phi)
    stages = [qnd_xx(s.chi1), rotation("opt", math.pi / 2.0), qnd_xx(s.lam),
              beamsplitter_loss(loss), oracle, qnd_xx(s.chi2_second_pulse),
              rotation("opt", s.theta - math.pi / 2.0), qnd_xx(s.chi3)]
    squeezer, composed = build_lossy_squeezer(s, loss), compose(stages)
    for name in ("matrix", "mean", "cov"):
        assert np.array_equal(getattr(delay, name), getattr(oracle, name)), name
        assert np.array_equal(getattr(squeezer, name), getattr(composed, name)), name


def test_thermal_noise_zero_time():
    noise = damped_evolution(LossConfig(gamma=0.1, nbar_m=10.0), 0.0)
    assert np.allclose(noise.cov, 0.0)


def test_thermal_noise_equilibrium():
    nbar = 7.0
    noise = damped_evolution(LossConfig(gamma=0.5, nbar_m=nbar), 1e4)
    assert np.allclose(noise.cov, (2 * nbar + 1) * np.eye(2), atol=1e-8)


def test_thermal_noise_short_time_structure():
    gamma, nbar = 1e-5, 4e4
    n_total = 2 * nbar + 1
    for t in (1e-3, 1e-4):
        cov = damped_evolution(LossConfig(gamma=gamma, nbar_m=nbar), t).cov
        assert cov[1, 1] == pytest.approx(2 * gamma * t * n_total, rel=1e-3)
        # position noise grows as (2/3) gamma nbar omega^2 t^3
        assert cov[0, 0] == pytest.approx(2.0 / 3.0 * gamma * n_total * t ** 3, rel=1e-3)
        assert cov[0, 0] < 1e-3 * cov[1, 1]


@pytest.mark.parametrize("gamma", [1e-7, 1e-5, 1e-3, 0.1, 1.0])
@pytest.mark.parametrize("t", np.geomspace(1e-6, 1e3, 20).tolist())
def test_thermal_noise_psd_sweep(gamma, t):
    cov = damped_evolution(LossConfig(gamma=gamma, nbar_m=4e4), t).cov
    assert np.allclose(cov, cov.T)
    scale = max(np.max(np.abs(cov)), 1e-300)
    assert np.linalg.eigvalsh(cov).min() >= -1e-10 * scale


# -- beamsplitter loss -------------------------------------------------------

def test_beamsplitter_zero_loss_is_identity():
    ch = beamsplitter_loss(LOSSLESS)
    assert np.array_equal(ch.matrix, np.eye(4))
    assert np.allclose(ch.cov, 0.0)


def test_beamsplitter_full_loss_replaces_with_vacuum():
    ch = beamsplitter_loss(LossConfig(epsilon=1.0))
    i = MECH_OPT.x_index("opt")
    assert np.allclose(ch.matrix[i:i + 2, i:i + 2], 0.0)
    assert np.allclose(ch.cov[i:i + 2, i:i + 2], np.eye(2))


def test_beamsplitter_small_loss_values():
    ch = beamsplitter_loss(LossConfig(epsilon=1e-3))
    i = MECH_OPT.x_index("opt")
    assert ch.matrix[i, i] == pytest.approx(math.sqrt(1 - 1e-3), rel=1e-15)
    assert ch.cov[i, i] == pytest.approx(1e-3)


# -- composition -------------------------------------------------------------

def test_compose_identity_neutral():
    ident = rotation("mech", 0.0)
    ch = beamsplitter_loss(LossConfig(epsilon=0.3, nbar_l=2.0))
    out = compose([ident, ch])
    assert np.allclose(out.matrix, ch.matrix)
    assert np.allclose(out.cov, ch.cov)


def test_compose_inverse_pulses_cancel():
    out = compose([qnd_xx(2.0), qnd_xx(-2.0)])
    assert np.allclose(out.matrix, np.eye(4), atol=1e-14)


def test_compose_two_beamsplitters():
    eps = 0.2
    nbar = 1.5
    step = beamsplitter_loss(LossConfig(epsilon=eps, nbar_l=nbar))
    twice = compose([step, step])
    eps2 = 1.0 - (1.0 - eps) ** 2
    once = beamsplitter_loss(LossConfig(epsilon=eps2, nbar_l=nbar))
    assert np.allclose(twice.matrix, once.matrix, atol=1e-14)
    assert np.allclose(twice.cov, once.cov, atol=1e-14)


_STAGES = st.one_of(
    st.builds(qnd_xx, st.floats(-3.0, 3.0)),
    st.builds(qnd_pp, st.floats(-3.0, 3.0)),
    st.builds(rotation, st.sampled_from(["mech", "opt"]), st.floats(-math.pi, math.pi)),
    st.builds(lambda e, n: beamsplitter_loss(LossConfig(epsilon=e, nbar_l=n)),
              st.floats(0.0, 1.0), st.floats(0.0, 10.0)),
    st.builds(lambda g, n, t: damped_evolution(LossConfig(gamma=g, nbar_m=n), t,
                                               layout=MECH_OPT),
              st.floats(0.0, 0.5), st.floats(0.0, 10.0), st.floats(0.0, 3.0)),
)


@example(qnd_xx(1.3), beamsplitter_loss(LossConfig(epsilon=0.25, nbar_l=3.0)),
         rotation("mech", 0.8))
@given(_STAGES, _STAGES, _STAGES)
def test_compose_associativity(a, b, c):
    left = compose([compose([a, b]), c])
    right = compose([a, compose([b, c])])
    flat = compose([a, b, c])
    for x, y in ((left, right), (left, flat)):
        for u, v in ((x.matrix, y.matrix), (x.cov, y.cov), (x.mean, y.mean)):
            assert np.max(np.abs(u - v)) <= 1e-12 * max(1.0, np.max(np.abs(u)))


def test_compose_layout_mismatch():
    with pytest.raises(ValueError, match="layout"):
        compose([qnd_xx(1.0), rotation("mech", 1.0, MECH)])


# -- collective pulse: one qnd_xx per mechanical mode, composed ----------------

THREE = ModeLayout(("mech", "mech2", "opt"))


def _collective(chi1, chi2):
    return [qnd_xx(chi1, "mech", THREE), qnd_xx(chi2, "mech2", THREE)]


def test_collective_single_mode_reduction():
    lone = compose(_collective(1.7, 0.0)).matrix
    keep = [THREE.x_index("mech"), THREE.x_index("mech") + 1, THREE.x_index("opt"),
            THREE.x_index("opt") + 1]
    assert np.array_equal(lone[np.ix_(keep, keep)], qnd_xx(1.7).matrix)
    assert np.array_equal(qnd_xx(1.7, "mech", MECH_OPT).matrix, qnd_xx(1.7).matrix)


def test_collective_equal_couplings_split_evenly():
    chi = 1.6
    m = compose(_collective(chi / 2, chi / 2)).matrix
    pl = THREE.x_index("opt") + 1
    assert m[pl, THREE.x_index("mech")] == m[pl, THREE.x_index("mech2")] == chi / 2
    assert m[THREE.x_index("mech") + 1, THREE.x_index("opt")] == chi / 2


@given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_collective_preserves_commutators(chi1, chi2):
    # the per-mode pulses commute and add their strengths exactly
    forward = compose(_collective(chi1, chi2))
    backward = compose(_collective(chi1, chi2)[::-1])
    assert np.array_equal(forward.matrix, backward.matrix)
    expected = np.eye(THREE.dim)
    x_opt = THREE.x_index("opt")
    for mode, chi in (("mech", chi1), ("mech2", chi2)):
        x = THREE.x_index(mode)
        expected[x_opt + 1, x] = expected[x + 1, x_opt] = chi
    assert np.array_equal(forward.matrix, expected)
    assert forward.symplectic_defect() < 1e-10


def test_batched_qnd_xx_gives_each_element_its_own_channel():
    chis = np.random.default_rng(3).normal(size=(2, 3)) * 2
    for mode in ("mech", "mech2"):
        batch = qnd_xx(chis, mode, THREE)
        assert batch.matrix.shape == (2, 3, 6, 6)
        for idx in np.ndindex(chis.shape):
            assert np.array_equal(batch.matrix[idx], qnd_xx(chis[idx], mode, THREE).matrix)
    pulse = compose(_collective(chis, chis[0]))
    for idx in np.ndindex(chis.shape):
        alone = compose(_collective(chis[idx], chis[0][idx[1]]))
        assert np.array_equal(pulse.matrix[idx], alone.matrix)


# -- invariants --------------------------------------------------------------

def _random_lossless_chain(rng) -> GaussianChannel:
    stages = [rotation("mech", 0.0)]
    for _ in range(6):
        kind = rng.integers(0, 3)
        if kind == 0:
            stages.append(qnd_xx(rng.normal() * 3))
        elif kind == 1:
            stages.append(qnd_pp(rng.normal() * 3))
        else:
            mode = "mech" if rng.integers(0, 2) else "opt"
            stages.append(rotation(mode, rng.uniform(-math.pi, math.pi)))
    return compose(stages)


def test_symplectic_preservation_of_compositions():
    rng = np.random.default_rng(42)
    for _ in range(25):
        defect = _random_lossless_chain(rng).symplectic_defect()
        assert defect < 1e-10


@pytest.mark.parametrize("channel,physical", [
    (beamsplitter_loss(LossConfig(epsilon=0.3, nbar_l=5.0)), True),
    (beamsplitter_loss(LossConfig(epsilon=1.0)), True),
    (damped_evolution(LossConfig(gamma=0.01, nbar_m=100.0), 2.0, layout=MECH), True),
    (damped_evolution(LossConfig(gamma=1e-5, nbar_m=4e4), 0.06, layout=MECH), True),
    (qnd_xx(2.5), True),
    # zero-occupancy momentum damping: min eig(N + i(1 - det M) Omega) = -0.059
    (damped_evolution(LossConfig(gamma=0.2), 1.0), False),
    # the same defect at weak damping, margin -2.0e-4
    (damped_evolution(LossConfig(gamma=1e-3), 2.0, layout=MECH), False),
], ids=[f"channel{k}" for k in range(7)])
def test_channels_are_physical(channel, physical):
    assert is_physical(channel) is physical


@settings(max_examples=200)
@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), st.floats(-1.0, 10.0),
       st.floats(-3.0, 3.0), st.floats(-1.0, 10.0))
def test_is_physical_is_the_single_mode_cp_condition(entries, a, b, c):
    m = np.reshape(entries, (2, 2))
    noise = np.array([[a, b], [b, c]])
    # 2x2 determinants in closed form: LAPACK's LU warns on subnormal pivots
    det_m = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    gap = (a * c - b * b) - (1.0 - det_m) ** 2
    if abs(gap) > 1e-6:  # off the boundary, where rounding cannot decide
        closed_form = a >= 0 and c >= 0 and gap >= 0  # N >= 0, det N >= (1 - det M)^2
        assert is_physical(_channel(m, cov=noise)) is closed_form
    if abs(det_m) > 1e-2:
        # a real 2x2 map with unit determinant is symplectic
        s = m @ np.diag([1.0, math.copysign(1.0, det_m)]) / math.sqrt(abs(det_m))
        assert is_physical(_channel(s))


@pytest.mark.xfail(strict=True, reason=(
    "momentum-only damping (quantum Brownian motion) is not completely positive "
    "at low bath occupancy: its noise cannot cover the commutator it removes, "
    "det N < (1 - e^(-gamma t))^2, while (2 nbar + 1) omega t < ~sqrt(3)"))
def test_damped_evolution_physical_at_low_occupancy():
    assert is_physical(damped_evolution(LossConfig(gamma=0.1), 0.125, layout=MECH))


def test_damped_closed_form_cp_test_sees_short_time_violations():
    # 168 delays t = phi / (sigma omega_m): the closed form agrees with the
    # generic test except in 7, all short and far below (2 nbar + 1) omega t =
    # sqrt(3), whose violations lie under the generic test's absolute floor
    disagree = []
    for q, nbar, phi in itertools.product((10.0, 1e2, 1e4, 1e7),
                                          (0.0, 0.01, 0.1, 1.0, 10.0, 1e3),
                                          (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5)):
        loss = LossConfig.from_q(q, nbar_m=nbar)
        t = phi / loss.sigma
        closed_form = damped_is_physical(loss, t)
        if closed_form is not is_physical(damped_evolution(loss, t)):
            disagree.append((2.0 * nbar + 1.0) * t)
            assert not closed_form and phi <= 1e-4
    assert len(disagree) == 7 and max(disagree) < math.sqrt(3.0) / 8.0
    # at the boundary (an equilibrated pure-loss delay, det N = (1 - det M)^2)
    # rounding passes
    assert damped_is_physical(LossConfig.from_q(0.5000001), 99.3)


def test_batched_values_check_every_element_and_matching_batches():
    covs = np.stack([np.eye(2), np.diag([2.0, 3.0]), np.eye(2)])
    rotations = rotation("mech", [0.0, 0.5, 1.0], MECH).matrix
    channel = _channel(rotations, cov=covs)  # unbatched mean against a batch
    assert channel.mean.shape == (2,) and channel.cov.shape == (3, 2, 2)
    assert channel.matrix.shape == (3, 2, 2)
    asymmetric = covs.copy()
    asymmetric[1, 0, 1] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        _channel(rotations, cov=asymmetric)
    with pytest.raises(ValueError, match="non-finite"):
        qnd_xx([0.5, float("inf")])
    with pytest.raises(ValueError, match="batch shapes"):
        _channel(np.eye(2), mean=np.zeros((4, 2)), cov=covs)
    with pytest.raises(ValueError, match="batch shapes"):
        _channel(rotation("mech", [0.0, 0.5], MECH).matrix, cov=covs)
    # everything the map and the noise term rejected on their own
    for matrix in (np.eye(4), np.eye(2)[0], np.ones((2, 3))):
        with pytest.raises(ValueError, match="does not match layout"):
            _channel(matrix)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite matrix"):
            _channel(np.stack([np.eye(2), [[1.0, bad], [0.0, 1.0]]]))
        with pytest.raises(ValueError, match="non-finite noise mean"):
            _channel(np.eye(2), mean=[0.0, bad])
        with pytest.raises(ValueError, match="non-finite noise cov"):
            _channel(np.eye(2), cov=np.stack([np.eye(2), np.diag([1.0, bad])]))
    with pytest.raises(ValueError, match="symmetric"):
        _channel(np.eye(2), cov=[[1.0, 0.5], [0.0, 1.0]])
    for mean, cov in ((np.zeros(3), np.zeros((2, 2))), (np.zeros(2), np.zeros((3, 3))),
                      (np.zeros(2), np.zeros((2, 3))), (0.0, np.zeros((2, 2))),
                      (np.zeros(2), np.zeros(2))):
        with pytest.raises(ValueError, match="noise shapes"):
            _channel(np.eye(2), mean=mean, cov=cov)
    with pytest.raises(ValueError, match="batch shapes"):
        _channel(rotation("mech", [0.0, 0.5, 1.0, 1.5], MECH).matrix, mean=np.zeros((3, 2)))


@pytest.mark.parametrize("make,match", [
    (lambda: qnd_pp(math.nan), "pulse strength"),
    (lambda: quadrature_scaling(math.nan, 1.0), "quadrature scaling"),
    (lambda: damped_evolution(LossConfig(gamma=0.1), math.nan), "evolution time"),
    (lambda: damped_evolution(LossConfig(gamma=0.1), math.inf), "evolution time"),
], ids=["qnd_pp", "quadrature_scaling", "damped_evolution-nan", "damped_evolution-inf"])
def test_constructors_reject_non_finite_input_by_name(make, match):
    with pytest.raises(ValueError, match=f"non-finite {match}"):
        make()


def test_damped_evolution_rejects_a_bath_whose_noise_overflows():
    with pytest.raises(ValueError, match="nbar_m = 1e[+]308 overflows"):
        damped_evolution(LossConfig(gamma=0.1, nbar_m=1e308), [0.5, 1.0])


def test_compose_rejects_a_product_that_overflows():
    huge = quadrature_scaling(1e200, 1e-200)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="composed .* non-finite"):
        compose([huge, huge])


def _built_channels():
    """One channel of every constructor, and the composed and reduced squeezer
    over a batch of mu, none of which runs ``GaussianChannel.__post_init__``."""
    loss = LossConfig.from_q(1e4, nbar_m=10.0, epsilon=1e-2, nbar_l=0.5)
    s = schedule_for_mu(np.geomspace(0.2, 5.0, 25), math.pi / 50, ancilla_vsq=0.3)
    return {"qnd_xx": qnd_xx(0.5), "qnd_pp": qnd_pp([0.5, -1.0]),
            "rotation": rotation("opt", [0.3, 1.0]),
            "quadrature_scaling": quadrature_scaling(2.0, 0.5),
            "collective": compose(_collective([0.7, 0.2], 1.4)),
            "damped_evolution": damped_evolution(loss, [0.1, 0.2]),
            "damped_delay": damped_delay(0.3, loss, MECH_OPT),
            "beamsplitter_loss": beamsplitter_loss(loss),
            "compose": build_lossy_squeezer(s, loss), "reduction": mechanical_squeezer(s, loss)}


def test_built_channels_are_frozen_with_exactly_symmetric_noise():
    for name, channel in _built_channels().items():
        for array in (channel.matrix, channel.mean, channel.cov):
            assert not array.flags.writeable, name
        assert np.array_equal(channel.cov, np.swapaxes(channel.cov, -1, -2)), name


_LOSS = LossConfig.from_q(1e4, nbar_m=10.0, epsilon=1e-2, nbar_l=0.5)
_SEED = schedule_for_mu(1.5, math.pi / 50)
_CAT = GaussianSum.cat(CatSpec(1.0))

# Every value type, built by its checked constructor and by each computed path
# that builds it unchecked.
_VALUES = {
    "channel-checked": lambda: GaussianChannel(np.eye(2), np.zeros(2), np.eye(2), MECH),
    "channel-compose": lambda: compose([rotation("mech", 0.3, MECH),
                                        damped_evolution(_LOSS, [0.1, 0.2])]),
    "state-checked": lambda: GaussianState(np.zeros(2), np.eye(2), MECH),
    "state-apply-channel": lambda: apply_channel(thermal(1.0, MECH),
                                                 damped_evolution(_LOSS, [0.1, 0.2])),
    "schedule-checked": lambda: PulseSchedule(chi1=np.array([0.5, 1.0]), lam=np.ones(2),
                                              chi3=np.zeros(2), phi=math.pi / 50,
                                              ancilla_angle=np.zeros(2)),
    "schedule-batched": lambda: schedule_for_mu(np.array([0.5, 2.0]), math.pi / 50),
    "schedule-free": lambda: squeezer._free_schedule(
        np.array([[_SEED.chi1, _SEED.lam, _SEED.chi3]] * 2), _SEED),
    "grid-checked": lambda: WignerGrid(8.0, 4, np.zeros((4, 4))),
    "grid-channel-step": lambda: apply_gaussian_channel(wigner_fock(1, 8.0, 64),
                                                        damped_evolution(_LOSS, 0.1)),
    "sum-checked": lambda: GaussianSum([0.0], [[0.0, 0.0]], np.eye(2)),
    "sum-evolve": lambda: _CAT.evolve(damped_evolution(_LOSS, [0.1, 0.2])),
    "sum-concatenate": lambda: GaussianSum.concatenate(
        [_CAT, _CAT.evolve(damped_evolution(_LOSS, [0.1, 0.2]))]),
}


@pytest.mark.parametrize("build", list(_VALUES.values()), ids=list(_VALUES))
def test_every_value_holds_read_only_arrays(build):
    arrays = {name: a for name, a in vars(build()).items() if isinstance(a, np.ndarray)}
    assert arrays
    for name, a in arrays.items():
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


def test_a_checked_schedule_copies_its_arrays_and_keeps_its_floats():
    chi1 = np.array([0.5, 2.0])
    schedule = PulseSchedule(chi1=chi1, lam=1.0, chi3=0.0, phi=math.pi / 50)
    chi1[0] = 100.0
    assert schedule.chi1.tolist() == [0.5, 2.0]
    assert isinstance(schedule.lam, float)
    assert type(schedule_for_mu(0.5, math.pi / 50).chi1) is np.float64


def test_a_checked_schedule_converts_list_entries():
    listed = PulseSchedule(chi1=[0.5, 1.0], lam=1.0, chi3=(0.0, 0.1), phi=0.06)
    arrays = PulseSchedule(chi1=np.array([0.5, 1.0]), lam=1.0, chi3=np.array([0.0, 0.1]),
                           phi=0.06)
    assert not listed.chi1.flags.writeable and not listed.chi3.flags.writeable
    assert squeezer.photon_budget(listed).tolist() == squeezer.photon_budget(arrays).tolist()


# Valid arguments of each checked constructor; its array fields are under test.
_CHECKED = {
    GaussianChannel: dict(matrix=np.eye(2), mean=np.zeros(2), cov=np.eye(2), layout=MECH),
    GaussianState: dict(mean=np.zeros(2), cov=np.eye(2), layout=MECH),
    PulseSchedule: dict(chi1=np.array([0.5, 1.0]), lam=np.ones(2), chi3=np.zeros(2), phi=0.06,
                        ancilla_vsq=np.full(2, 0.5), ancilla_angle=np.zeros(2)),
    WignerGrid: dict(half_extent=8.0, resolution=4, values=np.zeros((4, 4))),
    GaussianSum: dict(log_weights=np.zeros(1, complex), means=np.zeros((1, 2), complex),
                      cov=np.eye(2)),
}
_FIELDS = [(cls, name) for cls, kwargs in _CHECKED.items() for name, value in kwargs.items()
           if isinstance(value, np.ndarray)]


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, field", _FIELDS,
                         ids=[f"{cls.__name__}-{name}" for cls, name in _FIELDS])
def test_every_checked_constructor_rejects_a_non_finite_field_by_name(cls, field, bad, as_list):
    # the one gate, channels._frozen, rejects it before any other check runs
    kwargs = dict(_CHECKED[cls])
    value = kwargs[field].copy()
    value.flat[-1] = bad
    kwargs[field] = value.tolist() if as_list else value
    with pytest.raises(ValueError, match=rf"non-finite (\w+ )?{field}\b"):
        cls(**kwargs)


def test_is_physical_rejects_negative_noise_covariance():
    # the constructor checks structure only; is_physical catches the sign
    assert not is_physical(_channel(np.eye(2), cov=np.diag([1.0, -1.0])))


def test_is_physical_decides_every_batch_element():
    phi = math.pi / 50
    loss = LossConfig.from_q(1e7, nbar_m=4e4, epsilon=1e-3)
    mus = [0.5, 0.7, 1.5, 2.0]
    assert all(is_physical(build_lossy_squeezer(schedule_for_mu(mu, phi), loss)) for mu in mus)
    assert is_physical(build_lossy_squeezer(schedule_for_mu(np.array(mus), phi), loss))
    assert is_physical(build_lossy_squeezer(schedule_for_mu(np.array(mus), phi), LOSSLESS))
    # one element with negative noise makes the batch unphysical
    assert is_physical(_channel(np.eye(2), cov=np.stack([np.eye(2), np.eye(2)])))
    assert not is_physical(_channel(np.eye(2), cov=np.stack([np.eye(2), np.diag([1.0, -1.0])])))
    # each element is judged against its own rounding scale: a loud physical
    # element must not hide the -2e-4 violation of a quiet one
    bad = damped_evolution(LossConfig(gamma=1e-3), 2.0)
    assert not is_physical(bad)
    batch = _channel(np.stack([np.eye(2), bad.matrix]),
                     cov=np.stack([1e12 * np.eye(2), bad.cov]))
    assert not is_physical(batch)
    assert is_physical(_channel(batch.matrix[:1], cov=batch.cov[:1]))


@pytest.mark.parametrize("gamma,t", [(1e-3, 0.7), (1e-3, 1.64), (0.05, 3.0),
                                     (1e-6, 0.0628)])
def test_thermal_noise_matches_quadrature_oracle(gamma, t):
    # independent route: integrate the propagator-weighted momentum noise
    # 2 gamma N int M(u) diag(0, 1) M(u)^T du directly
    from scipy.integrate import quad

    nbar = 10.0
    n_total = 2 * nbar + 1
    loss = LossConfig(gamma=gamma, nbar_m=nbar)
    sig = loss.sigma

    def m12(u):
        return math.exp(-gamma * u / 2) * math.sin(sig * u) / sig

    def m22(u):
        return math.exp(-gamma * u / 2) * (math.cos(sig * u)
                                           - gamma / (2 * sig) * math.sin(sig * u))

    v11 = quad(lambda u: 2 * gamma * n_total * m12(u) ** 2, 0, t)[0]
    v22 = quad(lambda u: 2 * gamma * n_total * m22(u) ** 2, 0, t)[0]
    v12 = quad(lambda u: 2 * gamma * n_total * m12(u) * m22(u), 0, t)[0]
    got = damped_evolution(loss, t).cov
    assert np.allclose(got, [[v11, v12], [v12, v22]], atol=1e-9 * n_total)


@pytest.mark.parametrize("build, fragment", [
    (lambda: qnd_xx(math.nan, "mech2", THREE), "non-finite pulse strength"),
    (lambda: qnd_xx(1.0, "opt"), "not 'opt' itself"),
    (lambda: qnd_xx(1.0, "opt", THREE), "not 'opt' itself"),
    (lambda: qnd_xx(1.0, "mech2"), "unknown mode 'mech2'"),
    (lambda: qnd_xx(1.0, "mech", MECH), "unknown mode 'opt'"),
    (lambda: LossConfig(omega_m=0.0), "mechanical frequency must be positive"),
    (lambda: LossConfig.from_q(0.0), "quality factor must be positive"),
    (lambda: compose([]), "nothing to compose"),
    (lambda: ModeLayout(()), "at least one mode"),
], ids=["qnd_xx-nan-chi", "qnd_xx-opt", "qnd_xx-opt-three-modes", "qnd_xx-unknown-mode",
        "qnd_xx-no-opt", "omega-m", "q", "compose-empty", "empty-layout"])
def test_bad_input_is_rejected_with_its_reason(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()
