"""Wigner grids and exact Gaussian sums: constructors, channel evolution, and
cat metrics."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulsox import (CatSpec, GaussianChannel, GaussianState, GaussianSum,
                    GridClippingError, LossConfig, MECH, WignerGrid,
                    ancilla_state, apply_channel, apply_gaussian_channel,
                    build_lossy_squeezer, compose, damped_evolution, eta_series,
                    fringe_ellipse, grid_from_csv, grid_to_csv, half_life,
                    mechanical_reduced_channel, mu_opt, negativity_eta,
                    quadrature_scaling, rotation, schedule_for_mu, wigner_cat,
                    wigner_fock, wigner_gaussian)

TWO_PI = 2.0 * math.pi


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        WignerGrid(8.0, 300, np.zeros((300, 300)))


def test_grid_axis_contains_origin():
    g = wigner_fock(0, 8.0, 256)
    assert 0.0 in g.axis().tolist()


# -- constructors -------------------------------------------------------------

@pytest.mark.parametrize("n,w0", [(0, 1.0), (1, -1.0), (2, 1.0), (3, -1.0)])
def test_fock_origin_parity(n, w0):
    g = wigner_fock(n)
    assert TWO_PI * g.value_at(0.0, 0.0) == pytest.approx(w0, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_fock_normalization(n):
    assert wigner_fock(n).total_mass() == pytest.approx(1.0, abs=1e-4)


def test_fock_unsupported_n():
    with pytest.raises(ValueError):
        wigner_fock(4)


def test_fock_vacuum_matches_gaussian():
    g = wigner_fock(0)
    ref = wigner_gaussian([0.0, 0.0], np.eye(2))
    assert np.allclose(g.values, ref.values, atol=1e-14)


@pytest.mark.parametrize("parity,w0", [("odd", -1.0), ("even", 1.0)])
def test_cat_origin_parity(parity, w0):
    g = wigner_cat(CatSpec(2.0, parity))
    assert TWO_PI * g.value_at(0.0, 0.0) == pytest.approx(w0, abs=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_cat_normalization(alpha, parity):
    assert wigner_cat(CatSpec(alpha, parity)).total_mass() == pytest.approx(1.0, abs=1e-4)


def test_cat_peaks_sit_at_twice_alpha():
    alpha = 2.0
    g = wigner_cat(CatSpec(alpha, "odd"))
    ax = g.axis()
    i_origin = np.argmin(np.abs(ax))
    profile = g.values[:, i_origin]  # W(x, 0)
    i_peak = np.argmax(profile[ax > 0])
    assert ax[ax > 0][i_peak] == pytest.approx(2 * alpha, abs=2 * g.step)


def test_cat_fringe_spacing():
    # along p at x = 0 the interference term oscillates as cos(2 alpha p):
    # consecutive zero crossings are pi / (2 alpha) apart
    alpha = 2.0
    g = wigner_cat(CatSpec(alpha, "odd"))
    ax = g.axis()
    profile = g.values[np.argmin(np.abs(ax))]  # W(0, p)
    signs = np.sign(profile)
    crossings = ax[:-1][signs[1:] * signs[:-1] < 0]
    crossings = crossings[np.abs(crossings) < 2.0]
    spacing = np.diff(crossings)
    assert np.allclose(spacing, math.pi / (2 * alpha), rtol=0.01)


def test_cat_amplitude_too_large_for_grid():
    with pytest.raises(ValueError, match="alpha"):
        wigner_cat(CatSpec(3.0, "odd"), half_extent=8.0)


def test_parity_identity_all_constructors():
    cases = [(wigner_fock(0), 1.0), (wigner_fock(1), -1.0),
             (wigner_cat(CatSpec(1.0, "odd")), -1.0),
             (wigner_cat(CatSpec(1.5, "even")), 1.0),
             (wigner_gaussian([0, 0], np.diag([0.5, 2.0])), 1.0)]
    for grid, parity in cases:
        assert TWO_PI * grid.value_at(0.0, 0.0) == pytest.approx(parity, abs=1e-3)


# -- channel application ------------------------------------------------------

def test_identity_channel_preserves_grid():
    g = wigner_fock(1)
    out = apply_gaussian_channel(g, rotation("mech", 0.0, MECH))
    assert np.max(np.abs(out.values - g.values)) < 1e-6


def test_vacuum_fixed_point_of_loss():
    # pure loss towards an empty bath leaves the vacuum unchanged
    g = wigner_fock(0)
    amp = math.sqrt(0.5)
    loss_map = quadrature_scaling(amp, amp, "mech", MECH).matrix
    out = apply_gaussian_channel(g, GaussianChannel(loss_map, np.zeros(2), 0.5 * np.eye(2), MECH))
    _, cov = out.moments()
    assert np.allclose(cov, np.eye(2), atol=1e-3)


def test_singular_map_rejected():
    bad = quadrature_scaling(0.0, 1.0, "mech", MECH)
    with pytest.raises(ValueError, match="singular"):
        apply_gaussian_channel(wigner_fock(0), bad)


def test_clipping_detected():
    shift = GaussianChannel(np.eye(2), np.array([14.0, 0.0]), np.zeros((2, 2)), MECH)
    with pytest.raises(GridClippingError):
        apply_gaussian_channel(wigner_fock(0), shift)


def test_normalization_preserved_by_channel():
    g = wigner_cat(CatSpec(2.0, "odd"))
    ch = damped_evolution(LossConfig(gamma=1e-4, nbar_m=100.0), 1.7, layout=MECH)
    out = apply_gaussian_channel(g, ch)
    assert out.total_mass() == pytest.approx(1.0, abs=1e-3)


def _random_one_mode_channel(rng):
    # drawn in the order rotation after, scaling, rotation before
    after = rotation("mech", rng.uniform(-math.pi, math.pi), MECH)
    scaling = quadrature_scaling(*(lambda r: (r, 1 / r))(rng.uniform(0.7, 1.4)), "mech", MECH)
    before = rotation("mech", rng.uniform(-math.pi, math.pi), MECH)
    s = compose([before, scaling, after]).matrix
    a = rng.normal(size=(2, 2)) * 0.3
    mean = rng.normal(size=2) * 0.3
    return GaussianChannel(s, mean, a @ a.T, MECH)


def test_gaussian_channel_moment_oracle():
    # grid evolution must agree with covariance calculus for Gaussian inputs
    rng = np.random.default_rng(2024)
    for _ in range(20):
        ch = _random_one_mode_channel(rng)
        mean_in = rng.normal(size=2) * 0.4
        r = rng.uniform(0.7, 1.4)
        cov_in = rotation("mech", rng.uniform(0, math.pi), MECH).matrix
        cov_in = cov_in @ np.diag([r, 1 / r]) @ cov_in.T
        grid = wigner_gaussian(mean_in, cov_in, half_extent=10.0)
        out_grid = apply_gaussian_channel(grid, ch)
        mean_g, cov_g = out_grid.moments()
        ref = apply_channel(GaussianState(mean_in, cov_in, MECH), ch)
        assert np.max(np.abs(mean_g - ref.mean)) < 1e-3
        assert np.max(np.abs(cov_g - ref.cov)) < 1e-3


# -- exact Gaussian sums --------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_sampled_cat_sum_matches_closed_form(alpha, parity):
    # real closed form: peaks at X = +/- 2 alpha plus 2 exp(-r^2/2) cos(2 alpha p)
    spec = CatSpec(alpha, parity)
    grid = GaussianSum.cat(spec).sample(8.0, 512)
    x = grid.axis()[:, None]
    p = grid.axis()[None, :]
    peaks = (np.exp(-0.5 * ((x - 2 * alpha) ** 2 + p ** 2))
             + np.exp(-0.5 * ((x + 2 * alpha) ** 2 + p ** 2)))
    fringe = 2.0 * np.exp(-0.5 * (x ** 2 + p ** 2)) * np.cos(2.0 * alpha * p)
    norm = 2.0 * (1.0 + spec.sign * math.exp(-2.0 * alpha ** 2))
    ref = (peaks + spec.sign * fringe) / (TWO_PI * norm)
    assert np.max(np.abs(grid.values - ref)) <= 1e-15
    assert np.array_equal(wigner_cat(spec, 8.0, 512).values, grid.values)


def test_large_cat_has_no_overflow():
    # the fringe weights carry exp(-2 alpha^2) and their Gaussians exp(+2 alpha^2)
    # at the origin; 2 alpha^2 = 800 overflows unless the two share one exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        eta = negativity_eta(GaussianSum.cat(CatSpec(20.0)))
    assert math.isfinite(eta)
    assert eta == pytest.approx(1.0, abs=1e-12)


def test_single_term_sum_follows_covariance_calculus():
    rng = np.random.default_rng(7)
    for _ in range(10):
        ch = _random_one_mode_channel(rng)
        mean = rng.normal(size=2)
        out = GaussianSum([0.0], [mean], np.eye(2)).evolve(ch)
        ref = apply_channel(GaussianState(mean, np.eye(2), MECH), ch)
        assert np.allclose(out.means[0].real, ref.mean, atol=1e-14)
        assert np.all(out.means.imag == 0.0)
        assert np.allclose(out.cov, ref.cov, atol=1e-14)
        assert np.allclose(out.sample(8.0, 64).values,
                           wigner_gaussian(ref.mean, ref.cov, 8.0, 64).values, atol=1e-15)


def test_gaussian_sum_rejects_bad_shapes():
    with pytest.raises(ValueError, match="positive-definite"):
        GaussianSum([0.0], [[0.0, 0.0]], np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="mean per weight"):
        GaussianSum([0.0, 0.0], [[0.0, 0.0]], np.eye(2))


@settings(max_examples=12)
@given(alpha=st.floats(0.5, 2.0), mu_pre=st.floats(0.5, 2.0),
       t=st.floats(0.0, 10.0, exclude_min=True))
def test_exact_sum_matches_grid_oracle(alpha, mu_pre, t):
    # lossy pre-squeezer then damped thermal evolution: one grid step of the
    # composed channel on 512 points against the sum evolved channel by
    # channel and sampled on the same nodes
    loss = LossConfig.from_q(1e6, nbar_m=4e4, epsilon=1e-3)
    schedule = schedule_for_mu(mu_pre, math.pi / 50, 0.5)
    channels = [mechanical_reduced_channel(build_lossy_squeezer(schedule, loss),
                                           ancilla_state(schedule)),
                damped_evolution(loss, t, layout=MECH)]
    spec = CatSpec(alpha, "odd")
    # the anti-squeezed cat reaches (2 alpha + 3.7) / mu along X
    half_extent = 8.0 if 2 * alpha + 3.7 <= 8.0 * min(mu_pre, 1.0) else 16.0
    grid0 = wigner_cat(spec, half_extent, 512)
    exact = GaussianSum.cat(spec)
    for channel in channels:
        exact = exact.evolve(channel)
    err = np.abs(grid0.evolve(compose(channels)).values
                 - exact.sample(half_extent, 512).values)
    # the oracle's own error: bilinear resampling errs by at most
    # h^2 / 8 (max |W_xx| + max |W_pp|), up to 7e-4 for alpha = 2 on the
    # 16-wide grid; the noise convolution does not enlarge it
    bound = (np.abs(np.diff(grid0.values, 2, axis=0)).max()
             + np.abs(np.diff(grid0.values, 2, axis=1)).max()) / 8.0
    assert err.max() < bound


# Exact criterion-10 half-lives (q = 1e7, nbar_m = 4e4, epsilon = 1e-3,
# phi = pi / 50): no pre-squeeze, position squeeze at mu_opt, momentum squeeze
# at mu = 0.5.
@pytest.mark.parametrize("alpha,label,tau", [
    (1.0, "none", 25.511), (1.0, "position", 27.287), (1.0, "momentum", 8.304),
    (2.0, "none", 9.975), (2.0, "position", 17.644), (2.0, "momentum", 2.209),
])
def test_criterion_10_half_lives_are_pinned(alpha, label, tau):
    loss = LossConfig.from_q(1e7, nbar_m=4e4, epsilon=1e-3)
    mu = {"position": mu_opt(alpha), "momentum": 0.5}.get(label)
    pre = None if mu is None else schedule_for_mu(mu, math.pi / 50, 0.5)
    result = half_life(CatSpec(alpha, "odd"), loss, pre)
    assert result.reached
    assert result.tau == pytest.approx(tau, rel=1e-3)


# -- negativity ---------------------------------------------------------------

def test_eta_pure_odd_cat_and_vacuum():
    assert negativity_eta(wigner_cat(CatSpec(2.0, "odd"))) == pytest.approx(1.0, abs=1e-12)
    assert negativity_eta(wigner_fock(0)) == 0.0


def test_eta_invariant_under_rotation():
    g = wigner_cat(CatSpec(2.0, "odd"))
    for angle in (0.3, 1.2, math.pi / 2):
        out = apply_gaussian_channel(g, rotation("mech", angle, MECH))
        assert negativity_eta(out) == pytest.approx(1.0, abs=1e-6)


def test_eta_preserved_by_noiseless_symplectic():
    g = wigner_cat(CatSpec(1.0, "odd"))
    squeeze = quadrature_scaling(1 / 1.5, 1.5, "mech", MECH)
    out = apply_gaussian_channel(g, compose([squeeze, rotation("mech", 0.4, MECH)]))
    assert negativity_eta(out) == pytest.approx(1.0, abs=1e-4)


def test_eta_after_five_damped_periods():
    loss = LossConfig.from_q(1e7, nbar_m=4e4)
    g = wigner_cat(CatSpec(2.0, "odd"))
    ch = damped_evolution(loss, 5 * TWO_PI, layout=MECH)
    eta = negativity_eta(apply_gaussian_channel(g, ch))
    assert 0.0 < eta < 1.0
    assert eta < 0.5  # well past the half-life


# -- fringe geometry ----------------------------------------------------------

def test_fringe_ellipse_symmetric_at_mu_opt():
    for alpha in (1.0, 2.0):
        rx, rp = fringe_ellipse(alpha, mu_opt(alpha))
        assert rx == pytest.approx(rp, abs=1e-9)


def test_fringe_ellipse_unsqueezed_is_wide_in_x():
    rx, rp = fringe_ellipse(2.0, 1.0)
    assert rx > rp


def test_fringe_ellipse_matches_grid_curvature():
    # the ellipse is the second-order expansion of the central fringe: its
    # radii are set by the origin curvatures of W, which we extract from a
    # grid-squeezed cat by finite differences
    alpha, mu = 2.0, 1.5
    g = wigner_cat(CatSpec(alpha, "odd"))
    squeezer = quadrature_scaling(1 / mu, mu, "mech", MECH)
    out = apply_gaussian_channel(g, squeezer)
    h = 4 * out.step
    w0 = out.value_at(0.0, 0.0)

    def radius(second_derivative):
        return math.sqrt(-2.0 * w0 / second_derivative)

    d2x = (out.value_at(h, 0.0) - 2 * w0 + out.value_at(-h, 0.0)) / h ** 2
    d2p = (out.value_at(0.0, h) - 2 * w0 + out.value_at(0.0, -h)) / h ** 2
    rx, rp = fringe_ellipse(alpha, mu)
    assert radius(d2x) == pytest.approx(rx, rel=0.1)
    assert radius(d2p) == pytest.approx(rp, rel=0.1)


def test_fringe_ellipse_p_radius_tracks_true_zero():
    # along p the fringe is cosine-dominated, so the quadratic radius sits
    # within ~15% of the actual zero crossing of W(0, p)
    alpha = 2.0
    g = wigner_cat(CatSpec(alpha, "odd"))
    ax = g.axis()
    mid = np.argmin(np.abs(ax))
    profile = g.values[mid]
    signs = np.sign(profile[mid:])
    idx = np.nonzero(signs[1:] * signs[:-1] < 0)[0][0]
    p_zero = 0.5 * (ax[mid + idx] + ax[mid + idx + 1])
    _, rp = fringe_ellipse(alpha, 1.0)
    assert rp == pytest.approx(p_zero, rel=0.15)


def test_mu_opt_reference_values():
    assert mu_opt(1.0) == pytest.approx(1.364, abs=1e-3)
    assert mu_opt(2.0) == pytest.approx(2.028, abs=1e-3)


def test_mu_opt_small_alpha_limit():
    assert mu_opt(1e-4) == pytest.approx(1.0, abs=1e-6)


# -- half-life ----------------------------------------------------------------

def test_half_life_monotone_in_bath_occupancy():
    spec = CatSpec(1.0, "odd")
    hot = half_life(spec, LossConfig.from_q(1e6, nbar_m=8e4))
    cold = half_life(spec, LossConfig.from_q(1e6, nbar_m=2e4))
    assert hot.reached and cold.reached
    assert hot.tau < cold.tau


def test_half_life_horizon_flag():
    res = half_life(CatSpec(1.0, "odd"), LossConfig.from_q(1e9, nbar_m=1.0),
                    max_periods=0.5)
    assert not res.reached
    assert res.tau == pytest.approx(0.5 * TWO_PI)


def test_half_life_rejects_even_cats():
    with pytest.raises(ValueError, match="odd"):
        half_life(CatSpec(1.0, "even"), LossConfig.from_q(1e6, nbar_m=1e4))


def test_half_life_with_pre_squeeze_runs():
    loss = LossConfig.from_q(1e7, nbar_m=4e4, epsilon=1e-3)
    pre = schedule_for_mu(mu_opt(1.0), math.pi / 50, 0.5)
    with_pre = half_life(CatSpec(1.0, "odd"), loss, pre)
    without = half_life(CatSpec(1.0, "odd"), loss, None)
    assert with_pre.reached and without.reached
    assert with_pre.tau > without.tau


def test_eta_series_monotone_envelope():
    loss = LossConfig.from_q(1e6, nbar_m=4e4)
    grid = wigner_cat(CatSpec(1.0, "odd"), resolution=256)
    times = np.linspace(0.5, 4.0, 6)
    etas = eta_series(grid, loss, times)
    assert np.all(np.diff(etas) < 0)


# -- IO -------------------------------------------------------------------------

def test_grid_csv_round_trip(tmp_path):
    g = wigner_cat(CatSpec(1.0, "odd"), resolution=64)
    path = tmp_path / "grid.csv"
    grid_to_csv(g, path)
    back = grid_from_csv(path)
    assert back.half_extent == g.half_extent
    assert back.resolution == g.resolution
    assert np.array_equal(back.values, g.values)
