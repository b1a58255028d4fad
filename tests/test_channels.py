"""Quadrature maps, noise terms, and channel composition."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pulsox import (GaussianChannel, LinearMap, MECH, MECH_OPT, ModeLayout,
                    NoiseTerm, beamsplitter_loss, compose, damped_evolution,
                    is_physical, lossy_rotation, qnd_pp, qnd_xx,
                    qnd_xx_collective, rotation, sigma_factor,
                    symplectic_form, thermal_noise_cov)

OMEGA2 = symplectic_form(2)


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
    assert m.is_symplectic()


def test_qnd_xx_strengths_add_under_composition():
    twice = qnd_xx(2.0) @ qnd_xx(2.0)
    assert np.allclose(twice.matrix, qnd_xx(4.0).matrix)


def test_qnd_xx_rejects_bad_input():
    with pytest.raises(ValueError):
        qnd_xx(float("nan"))
    with pytest.raises(ValueError):
        qnd_xx(1.0, "mech", "mech")
    with pytest.raises(ValueError):
        qnd_xx(1.0, "mech", "missing")


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
    lhs = rotation("opt", a) @ rotation("opt", b)
    assert np.allclose(lhs.matrix, rotation("opt", a + b).matrix, atol=1e-14)


# -- damped evolution --------------------------------------------------------

def test_sigma_factor_limits():
    assert sigma_factor(0.0, 1.0) == 1.0
    assert sigma_factor(2.0 - 1e-12, 1.0) == pytest.approx(0.0, abs=1e-5)
    with pytest.raises(ValueError):
        sigma_factor(2.0, 1.0)


def test_sigma_factor_taylor():
    # gamma = omega / Q with Q = 1e4: sigma = 1 - gamma^2 / 8 omega^2
    assert abs(sigma_factor(1e-4, 1.0) - (1.0 - 1.25e-9)) < 1e-12


def test_lossy_rotation_lossless_limit_exact():
    t = 0.37
    assert np.array_equal(lossy_rotation(0.0, 1.0, t).matrix,
                          rotation("mech", t, MECH).matrix)


def test_lossy_rotation_at_zero_time():
    assert np.allclose(lossy_rotation(0.3, 1.0, 0.0).matrix, np.eye(2))


def test_lossy_rotation_determinant_is_energy_decay():
    gamma, t = 0.2, 3.1
    det = np.linalg.det(lossy_rotation(gamma, 1.0, t).matrix)
    assert det == pytest.approx(math.exp(-gamma * t), rel=1e-12)


def test_lossy_rotation_converges_linearly_in_gamma():
    t = 1.1
    ref = rotation("mech", t, MECH).matrix
    errs = [np.max(np.abs(lossy_rotation(g, 1.0, t).matrix - ref))
            for g in (1e-3, 1e-4, 1e-5)]
    assert errs[0] < 2e-3 and errs[1] < 2e-4 and errs[2] < 2e-5


def test_lossy_rotation_rejects_overdamped():
    with pytest.raises(ValueError, match="overdamped"):
        lossy_rotation(2.5, 1.0, 1.0)


def test_thermal_noise_zero_time():
    noise = thermal_noise_cov(0.1, 1.0, 10.0, 0.0)
    assert np.allclose(noise.cov, 0.0)


def test_thermal_noise_equilibrium():
    nbar = 7.0
    noise = thermal_noise_cov(0.5, 1.0, nbar, 1e4)
    assert np.allclose(noise.cov, (2 * nbar + 1) * np.eye(2), atol=1e-8)


def test_thermal_noise_short_time_structure():
    gamma, nbar = 1e-5, 4e4
    n_total = 2 * nbar + 1
    for t in (1e-3, 1e-4):
        cov = thermal_noise_cov(gamma, 1.0, nbar, t).cov
        assert cov[1, 1] == pytest.approx(2 * gamma * t * n_total, rel=1e-3)
        # position noise grows as (2/3) gamma nbar omega^2 t^3
        assert cov[0, 0] == pytest.approx(2.0 / 3.0 * gamma * n_total * t ** 3, rel=1e-3)
        assert cov[0, 0] < 1e-3 * cov[1, 1]


@pytest.mark.parametrize("gamma", [1e-7, 1e-5, 1e-3, 0.1, 1.0])
@pytest.mark.parametrize("t", np.geomspace(1e-6, 1e3, 20).tolist())
def test_thermal_noise_psd_sweep(gamma, t):
    cov = thermal_noise_cov(gamma, 1.0, 4e4, t).cov
    assert np.allclose(cov, cov.T)
    scale = max(np.max(np.abs(cov)), 1e-300)
    assert np.linalg.eigvalsh(cov).min() >= -1e-10 * scale


# -- beamsplitter loss -------------------------------------------------------

def test_beamsplitter_zero_loss_is_identity():
    ch = beamsplitter_loss(0.0, 0.0)
    assert np.array_equal(ch.map.matrix, np.eye(4))
    assert np.allclose(ch.noise.cov, 0.0)


def test_beamsplitter_full_loss_replaces_with_vacuum():
    ch = beamsplitter_loss(1.0, 0.0)
    assert np.allclose(ch.map.block("opt", "opt"), 0.0)
    i = MECH_OPT.x_index("opt")
    assert np.allclose(ch.noise.cov[i:i + 2, i:i + 2], np.eye(2))


def test_beamsplitter_small_loss_values():
    ch = beamsplitter_loss(1e-3, 0.0)
    assert ch.map.block("opt", "opt")[0, 0] == pytest.approx(math.sqrt(1 - 1e-3), rel=1e-15)
    i = MECH_OPT.x_index("opt")
    assert ch.noise.cov[i, i] == pytest.approx(1e-3)


def test_beamsplitter_range_check():
    with pytest.raises(ValueError):
        beamsplitter_loss(1.5, 0.0)
    with pytest.raises(ValueError):
        beamsplitter_loss(-0.1, 0.0)


# -- composition -------------------------------------------------------------

def test_compose_identity_neutral():
    ident = rotation("mech", 0.0).as_channel()
    ch = beamsplitter_loss(0.3, 2.0)
    out = compose([ident, ch])
    assert np.allclose(out.map.matrix, ch.map.matrix)
    assert np.allclose(out.noise.cov, ch.noise.cov)


def test_compose_inverse_pulses_cancel():
    out = compose([qnd_xx(2.0).as_channel(), qnd_xx(-2.0).as_channel()])
    assert np.allclose(out.map.matrix, np.eye(4), atol=1e-14)


def test_compose_two_beamsplitters():
    eps = 0.2
    nbar = 1.5
    twice = compose([beamsplitter_loss(eps, nbar), beamsplitter_loss(eps, nbar)])
    eps2 = 1.0 - (1.0 - eps) ** 2
    once = beamsplitter_loss(eps2, nbar)
    assert np.allclose(twice.map.matrix, once.map.matrix, atol=1e-14)
    assert np.allclose(twice.noise.cov, once.noise.cov, atol=1e-14)


_STAGES = st.one_of(
    st.builds(lambda chi: qnd_xx(chi).as_channel(), st.floats(-3.0, 3.0)),
    st.builds(lambda chi: qnd_pp(chi).as_channel(), st.floats(-3.0, 3.0)),
    st.builds(lambda mode, a: rotation(mode, a).as_channel(),
              st.sampled_from(["mech", "opt"]), st.floats(-math.pi, math.pi)),
    st.builds(beamsplitter_loss, st.floats(0.0, 1.0), st.floats(0.0, 10.0)),
    st.builds(lambda g, n, t: damped_evolution(g, 1.0, n, t, layout=MECH_OPT),
              st.floats(0.0, 0.5), st.floats(0.0, 10.0), st.floats(0.0, 3.0)),
)


@example(qnd_xx(1.3).as_channel(), beamsplitter_loss(0.25, 3.0),
         rotation("mech", 0.8).as_channel())
@given(_STAGES, _STAGES, _STAGES)
def test_compose_associativity(a, b, c):
    left = compose([compose([a, b]), c])
    right = compose([a, compose([b, c])])
    flat = compose([a, b, c])
    for x, y in ((left, right), (left, flat)):
        for u, v in ((x.map.matrix, y.map.matrix), (x.noise.cov, y.noise.cov),
                     (x.noise.mean, y.noise.mean)):
            assert np.max(np.abs(u - v)) <= 1e-12 * max(1.0, np.max(np.abs(u)))


def test_compose_layout_mismatch():
    with pytest.raises(ValueError, match="layout"):
        compose([qnd_xx(1.0).as_channel(),
                 rotation("mech", 1.0, MECH).as_channel()])


# -- collective pulse --------------------------------------------------------

THREE = ModeLayout(("mech", "mech2", "opt"))


def test_collective_single_mode_reduction():
    lone = qnd_xx_collective([0.4], 1.7, MECH_OPT)
    assert np.allclose(lone.matrix, qnd_xx(1.7).matrix)


def test_collective_preserves_commutators():
    m = qnd_xx_collective([1.0, 0.5], 2.0, THREE)
    assert m.is_symplectic()


def test_collective_equal_couplings_split_evenly():
    chi = 1.6
    m = qnd_xx_collective([1.0, 1.0], chi, THREE)
    pl = THREE.p_index("opt")
    assert m.matrix[pl, THREE.x_index("mech")] == pytest.approx(chi / 2)
    assert m.matrix[pl, THREE.x_index("mech2")] == pytest.approx(chi / 2)
    assert m.matrix[THREE.p_index("mech"), THREE.x_index("opt")] == pytest.approx(chi / 2)


def test_collective_rejects_zero_couplings():
    with pytest.raises(ValueError):
        qnd_xx_collective([0.0, 0.0], 1.0, THREE)


# -- invariants --------------------------------------------------------------

def _random_lossless_chain(rng) -> LinearMap:
    m = rotation("mech", 0.0)
    for _ in range(6):
        kind = rng.integers(0, 3)
        if kind == 0:
            m = qnd_xx(rng.normal() * 3) @ m
        elif kind == 1:
            m = qnd_pp(rng.normal() * 3) @ m
        else:
            mode = "mech" if rng.integers(0, 2) else "opt"
            m = rotation(mode, rng.uniform(-math.pi, math.pi)) @ m
    return m


def test_symplectic_preservation_of_compositions():
    rng = np.random.default_rng(42)
    for _ in range(25):
        defect = _random_lossless_chain(rng).symplectic_defect()
        assert defect < 1e-10


@pytest.mark.parametrize("channel,physical", [
    (beamsplitter_loss(0.3, 5.0), True),
    (beamsplitter_loss(1.0, 0.0), True),
    (damped_evolution(0.01, 1.0, 100.0, 2.0, layout=MECH), True),
    (damped_evolution(1e-5, 1.0, 4e4, 0.06, layout=MECH), True),
    (qnd_xx(2.5).as_channel(), True),
    # zero-occupancy momentum damping: min eig(N + i(1 - det M) Omega) = -0.059
    (GaussianChannel(lossy_rotation(0.2, 1.0, 1.0),
                     thermal_noise_cov(0.2, 1.0, 0.0, 1.0)), False),
    # the same defect at weak damping, margin -2.0e-4
    (damped_evolution(1e-3, 1.0, 0.0, 2.0, layout=MECH), False),
], ids=[f"channel{k}" for k in range(7)])
def test_channels_are_physical(channel, physical):
    assert is_physical(channel) is physical


@settings(max_examples=200)
@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), st.floats(-1.0, 10.0),
       st.floats(-3.0, 3.0), st.floats(-1.0, 10.0))
def test_is_physical_is_the_single_mode_cp_condition(entries, a, b, c):
    m = np.reshape(entries, (2, 2))
    noise = np.array([[a, b], [b, c]])
    det_m = float(np.linalg.det(m))
    gap = float(np.linalg.det(noise)) - (1.0 - det_m) ** 2
    if abs(gap) > 1e-6:  # off the boundary, where rounding cannot decide
        closed_form = a >= 0 and c >= 0 and gap >= 0  # N >= 0, det N >= (1 - det M)^2
        channel = GaussianChannel(LinearMap(m, MECH), NoiseTerm(np.zeros(2), noise))
        assert is_physical(channel) is closed_form
    if abs(det_m) > 1e-2:
        # a real 2x2 map with unit determinant is symplectic
        s = m @ np.diag([1.0, math.copysign(1.0, det_m)]) / math.sqrt(abs(det_m))
        assert is_physical(LinearMap(s, MECH).as_channel())


@pytest.mark.xfail(strict=True, reason=(
    "momentum-only damping (quantum Brownian motion) is not completely positive "
    "at low bath occupancy: its noise cannot cover the commutator it removes, "
    "det N < (1 - e^(-gamma t))^2, while (2 nbar + 1) omega t < ~sqrt(3)"))
def test_damped_evolution_physical_at_low_occupancy():
    assert is_physical(damped_evolution(0.1, 1.0, 0.0, 0.125, layout=MECH))


def test_noise_term_rejects_negative_covariance():
    # the constructor checks structure only; is_physical catches the sign
    noise = NoiseTerm(np.zeros(2), np.diag([1.0, -1.0]))
    identity = LinearMap(np.eye(2), MECH)
    assert not is_physical(GaussianChannel(identity, noise))


@pytest.mark.parametrize("gamma,t", [(1e-3, 0.7), (1e-3, 1.64), (0.05, 3.0),
                                     (1e-6, 0.0628)])
def test_thermal_noise_matches_quadrature_oracle(gamma, t):
    # independent route: integrate the propagator-weighted momentum noise
    # 2 gamma N int M(u) diag(0, 1) M(u)^T du directly
    from scipy.integrate import quad

    nbar = 10.0
    n_total = 2 * nbar + 1
    sig = sigma_factor(gamma, 1.0)

    def m12(u):
        return math.exp(-gamma * u / 2) * math.sin(sig * u) / sig

    def m22(u):
        return math.exp(-gamma * u / 2) * (math.cos(sig * u)
                                           - gamma / (2 * sig) * math.sin(sig * u))

    v11 = quad(lambda u: 2 * gamma * n_total * m12(u) ** 2, 0, t)[0]
    v22 = quad(lambda u: 2 * gamma * n_total * m22(u) ** 2, 0, t)[0]
    v12 = quad(lambda u: 2 * gamma * n_total * m12(u) * m22(u), 0, t)[0]
    got = thermal_noise_cov(gamma, 1.0, nbar, t).cov
    assert np.allclose(got, [[v11, v12], [v12, v22]], atol=1e-9 * n_total)
