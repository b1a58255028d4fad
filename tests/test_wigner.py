"""Wigner grids and exact Gaussian sums: constructors, channel evolution, and
cat metrics."""
import decimal
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import fock_one_after, without_cpu_dispatch
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pulsox import (CatSpec, GaussianChannel, GaussianState, GaussianSum,
                    GridClippingError, HalfLifeResult, LossConfig, MECH, MECH_OPT, WignerGrid,
                    apply_channel, apply_gaussian_channel,
                    compose, damped_evolution, eta_series, ideal_target_map,
                    fringe_ellipse, grid_from_csv, grid_to_csv, half_life,
                    mechanical_squeezer, mu_opt,
                    negativity_eta, quadrature_scaling, rotation, schedule_for_mu,
                    wigner_cat, wigner_fock, wigner_gaussian)
from pulsox.config import ExperimentConfig
from pulsox.experiments import run_experiment
from pulsox.wigner import _SAMPLE_ROWS, ETA_BLOCK, _csv_rows, _ryu_table, _shortest, eta_at

TWO_PI = 2.0 * math.pi
CRITERION_10_LOSS = LossConfig.from_q(1e7, nbar_m=4e4, epsilon=1e-3)


def _criterion_10_state(alpha, label):
    """An odd cat, pre-squeezed at mu_opt ("position") or mu = 0.5 ("momentum")."""
    mu = {"position": mu_opt(alpha), "momentum": 0.5}.get(label)
    state0 = GaussianSum.cat(CatSpec(alpha, "odd"))
    if mu is None:
        return state0
    return state0.evolve(mechanical_squeezer(schedule_for_mu(mu, math.pi / 50, 0.5),
                                             CRITERION_10_LOSS))


def _displaced_cat():
    """A rotated, displaced cat.  Its means mix real and imaginary parts, so
    the complex products in its values round, where a cat's are exact."""
    shift = GaussianChannel(np.eye(2), [0.3, -0.2], np.zeros((2, 2)), MECH)
    return GaussianSum.cat(CatSpec(1.0, "odd")).evolve(compose([rotation("mech", 0.4, MECH),
                                                                shift]))


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        WignerGrid(8.0, 300, np.zeros((300, 300)))


def test_grid_axis_contains_origin():
    g = wigner_fock(0, 8.0, 256)
    assert 0.0 in g.axis().tolist()


def test_grid_reads_every_node_exactly_up_to_the_last_row_and_column():
    g = wigner_gaussian([0.0, 0.0], 40.0 * np.eye(2), 4.0, 16)
    ax = g.axis()
    nodes = [(i, j) for i in (0, 15) for j in (0, 15)]
    nodes += [(15, j) for j in range(16)] + [(i, 15) for i in range(16)]
    for i, j in nodes:
        assert g.value_at(ax[i], ax[j]) == g.values[i, j], (i, j)


def test_identity_step_keeps_the_last_row_and_column():
    # every node is its own pre-image; the last row and column read zero when
    # a node on them counted as outside the grid
    g = wigner_fock(0, 5.0, 16)
    out = apply_gaussian_channel(g, GaussianChannel(np.eye(2), np.zeros(2),
                                                    np.zeros((2, 2)), MECH))
    np.testing.assert_allclose(out.values, g.values / g.total_mass(), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("x, p", [(1e19, 0.0), (0.0, -1e19), (-1e300, 0.0)])
def test_grid_reads_zero_far_outside(x, p):
    # so far out that the point's grid index would leave the integer range
    assert wigner_fock(1, 8.0, 64).value_at(x, p) == 0.0


# -- constructors -------------------------------------------------------------

def _fock_grid(n):
    """``wigner_fock(n)`` on the default grid, or for n = "sum-1" the exact
    sum of the Fock state 1 sampled on it."""
    return GaussianSum.fock(1).sample(8.0, 512) if n == "sum-1" else wigner_fock(n)


@pytest.mark.parametrize("n,w0", [(0, 1.0), (1, -1.0), (2, 1.0), (3, -1.0), ("sum-1", -1.0)])
def test_fock_origin_parity(n, w0):
    g = _fock_grid(n)
    assert TWO_PI * g.value_at(0.0, 0.0) == pytest.approx(w0, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 3, "sum-1"])
def test_fock_normalization(n):
    assert _fock_grid(n).total_mass() == pytest.approx(1.0, abs=1e-4)


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


@pytest.mark.parametrize("alpha", [*(10.0 ** k for k in range(-8, 0)), 0.3, 1.0, 2.0, 3.0])
def test_odd_cat_peak_log_weight_holds_its_digits(alpha):
    # -log(2 (1 - e^(-2 alpha^2))) to 50 digits.  log1p(-e^(-2 alpha^2)) alone
    # lost 7e-15 of it at alpha = 1e-2 and 3e-3 at 1e-8.  The value crosses zero
    # at alpha = sqrt(ln 2 / 2), about 0.589, where no relative bound can hold.
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a = decimal.Decimal(alpha)
        want = -(2 * (1 - (-2 * a * a).exp())).ln()
    got = GaussianSum.cat(CatSpec(alpha, "odd")).log_weights[0]
    assert got.imag == 0.0
    assert abs((decimal.Decimal(got.real) - want) / want) <= decimal.Decimal(1e-15)


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


def _one_shot_bilinear(values, half_extent, step, xs, ps):
    # the resample over every point at once, gathering by row and column index
    res = values.shape[0]
    fx = (xs + half_extent) / step
    fp = (ps + half_extent) / step
    i0 = np.clip(np.floor(fx), 0, res - 2).astype(int)
    j0 = np.clip(np.floor(fp), 0, res - 2).astype(int)
    tx = fx - i0
    tp = fp - j0
    inside = (fx >= 0) & (fx <= res - 1) & (fp >= 0) & (fp <= res - 1)
    out = (values[i0, j0] * (1 - tx) * (1 - tp) + values[i0 + 1, j0] * tx * (1 - tp)
           + values[i0, j0 + 1] * (1 - tx) * tp + values[i0 + 1, j0 + 1] * tx * tp)
    return np.where(inside, out, 0.0)


def _one_shot_step(grid, channel):
    """The channel step as one whole-grid pass: the reference that the
    blocked step must equal bit for bit."""
    s_inv = np.linalg.inv(channel.matrix)
    d, n = channel.mean, channel.cov
    ax = grid.axis()
    x = ax[:, None] - d[0]
    p = ax[None, :] - d[1]
    ux = s_inv[0, 0] * x + s_inv[0, 1] * p
    up = s_inv[1, 0] * x + s_inv[1, 1] * p
    w = _one_shot_bilinear(grid.values, grid.half_extent, grid.step, ux.ravel(),
                           up.ravel()).reshape(ux.shape) / abs(np.linalg.det(channel.matrix))
    kx = TWO_PI * np.fft.fftfreq(grid.resolution, d=grid.step)
    kp = TWO_PI * np.fft.rfftfreq(grid.resolution, d=grid.step)
    quad = (n[0, 0] * kx[:, None] ** 2 + 2.0 * n[0, 1] * kx[:, None] * kp[None, :]
            + n[1, 1] * kp[None, :] ** 2)
    w = np.fft.irfft2(np.fft.rfft2(w) * np.exp(-0.5 * quad), s=w.shape)
    total = float(w.sum() * grid.step ** 2)
    assert abs(1.0 - total) <= 1e-3
    return w / total


_STEP_CHANNELS = {
    "displaced": GaussianChannel(np.eye(2), [0.3, -0.2], np.zeros((2, 2)), MECH),
    "off-diagonal": compose([quadrature_scaling(0.9, 1 / 0.9, "mech", MECH),
                             rotation("mech", 0.4, MECH)]),
    "correlated-noise": GaussianChannel(np.eye(2), np.zeros(2),
                                        [[0.3, 0.1], [0.1, 0.2]], MECH),
    # S^-1 stretches X by 1/0.95: the outer rows (one at each edge of a
    # 16-point grid) sample outside the window, where only tails lie
    "edge": GaussianChannel(np.diag([0.95, 1.0]), [0.1, 0.0], 0.05 * np.eye(2), MECH),
}


@pytest.mark.parametrize("grid", [wigner_fock(0, 5.0, 16), wigner_fock(1, 6.0, 512)],
                         ids=["16", "512"])
@pytest.mark.parametrize("label", list(_STEP_CHANNELS))
def test_blocked_step_equals_the_one_shot_step_bit_for_bit(label, grid):
    # 16 rows are fewer than one block, 512 are 16 blocks.  At 16 points the
    # vacuum on [-5, 5) keeps the resample's mass drift below the step's 1e-3,
    # and the Fock state 1 does not
    channel = _STEP_CHANNELS[label]
    got = apply_gaussian_channel(grid, channel).values
    assert got.tobytes() == _one_shot_step(grid, channel).tobytes()


@pytest.mark.parametrize("state", [GaussianSum.cat(CatSpec(1.0, "odd")), _displaced_cat()],
                         ids=["cat", "displaced-cat"])
def test_sample_fills_the_rows_each_block_computes(state):
    ax = np.linspace(-8.0, 8.0, 512, endpoint=False)
    blocks = [state._values(ax[i:i + _SAMPLE_ROWS, None], ax)
              for i in range(0, 512, _SAMPLE_ROWS)]
    assert state.sample(8.0, 512).values.tobytes() == np.concatenate(blocks).tobytes()


def test_one_fock_step_holds_a_few_grids_at_its_peak():
    # a whole-grid resample held about 17 full-size temporaries at once
    # (about 36 MB traced); blocked, the FFT's arrays dominate (about 7 MB)
    fock = wigner_fock(1, 16.0, 512)
    squeezer = mechanical_squeezer(schedule_for_mu(2.0, TWO_PI / 100, 0.5),
                                   LossConfig.from_q(1e7, nbar_m=4e4, epsilon=1e-2))
    tracemalloc.start()
    try:
        out = fock.evolve(squeezer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.values.shape == (512, 512) and peak < 12e6


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


_FOCK_LOSS = LossConfig.from_q(1e7, nbar_m=4e4, epsilon=1e-2)
_FOCK_SCHEDULE = schedule_for_mu(2.0, TWO_PI / 100)
_FOCK_CHANNELS = {
    "target": [ideal_target_map(2.0, TWO_PI / 100)],
    "lossless": [mechanical_squeezer(_FOCK_SCHEDULE, LossConfig())],
    "lossy": [mechanical_squeezer(_FOCK_SCHEDULE, _FOCK_LOSS)],
    "displaced-damped": [mechanical_squeezer(_FOCK_SCHEDULE, _FOCK_LOSS),
                         GaussianChannel(np.eye(2), [0.3, -0.2], np.zeros((2, 2)), MECH),
                         rotation("mech", 0.4, MECH),
                         damped_evolution(_FOCK_LOSS, 5.0, layout=MECH)],
}


@pytest.mark.parametrize("label", list(_FOCK_CHANNELS))
def test_evolved_fock_sum_matches_its_closed_form(label):
    # the sum evolved channel by channel against W'_1 of the composed channel,
    # computed from 2x2 formulas; none of the points sits near a zero of W
    channels = _FOCK_CHANNELS[label]
    state = GaussianSum.fock(1)
    for channel in channels:
        state = state.evolve(channel)
    composed = compose(channels)
    for x, p in [(0.0, 0.0), (0.5, 0.2), (2.0, -1.0), (-3.0, 0.7), (1.0, 4.0), (6.0, -0.5)]:
        assert state.value_at(x, p) == pytest.approx(fock_one_after(composed, x, p), rel=1e-13)


def test_fock_sum_evolves_in_batches_and_half_life_searches_it():
    # the covariance derivative follows the batch through evolve,
    # concatenate and the half-life search's index slices
    fock = GaussianSum.fock(1)
    squeezed = fock.evolve(mechanical_squeezer(_FOCK_SCHEDULE, _FOCK_LOSS))
    times = np.arange(1, ETA_BLOCK + 5) * (TWO_PI / 64)
    etas = eta_series(squeezed, _FOCK_LOSS, times)
    assert np.array_equal(etas, [eta_at(squeezed, _FOCK_LOSS, t) for t in times])
    loss = LossConfig.from_q(1e5, nbar_m=4e4)
    both = half_life(GaussianSum.concatenate([fock, squeezed]), loss)
    assert both == [_scalar_scan_half_life(state, loss) for state in (fock, squeezed)]
    assert all(r.reached and r.tau > 0.0 for r in both)
    with pytest.raises(ValueError, match="with and without a covariance derivative"):
        GaussianSum.concatenate([fock, GaussianSum.cat(CatSpec(1.0))])


def test_gaussian_sum_rejects_bad_shapes():
    with pytest.raises(ValueError, match="positive-definite"):
        GaussianSum([0.0], [[0.0, 0.0]], np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="mean per weight"):
        GaussianSum([0.0, 0.0], [[0.0, 0.0]], np.eye(2))


@pytest.mark.parametrize("kind", ["cat", "fock"])
@settings(max_examples=12)
@given(alpha=st.floats(0.5, 2.0), mu_pre=st.floats(0.5, 2.0),
       t=st.floats(0.0, 10.0, exclude_min=True))
def test_exact_sum_matches_grid_oracle(kind, alpha, mu_pre, t):
    # lossy pre-squeezer then damped thermal evolution: one grid step of the
    # composed channel on 512 points against the sum evolved channel by
    # channel and sampled on the same nodes
    loss = LossConfig.from_q(1e6, nbar_m=4e4, epsilon=1e-3)
    schedule = schedule_for_mu(mu_pre, math.pi / 50, 0.5)
    channels = [mechanical_squeezer(schedule, loss), damped_evolution(loss, t, layout=MECH)]
    spec = CatSpec(alpha, "odd")
    # the anti-squeezed cat reaches (2 alpha + 3.7) / mu along X, the Fock
    # state 1 (alpha unused) 5 max(mu, 1 / mu) along one axis
    if kind == "cat":
        reach = (2 * alpha + 3.7) / min(mu_pre, 1.0)
    else:
        reach = 5 * max(mu_pre, 1 / mu_pre)
    half_extent = 8.0 if reach <= 8.0 else 16.0
    if kind == "cat":
        grid0, exact = wigner_cat(spec, half_extent, 512), GaussianSum.cat(spec)
    else:
        grid0, exact = wigner_fock(1, half_extent, 512), GaussianSum.fock(1)
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


def _scalar_scan_half_life(state0, loss, samples_per_period=64, max_periods=40.0):
    """The half-life search with one eta_at per scan sample, as it was before
    the scan was batched: the oracle a batched scan must match bit for bit."""
    eta0 = negativity_eta(state0)
    if eta0 < 0.5:
        return HalfLifeResult(0.0, True, eta0)
    period = 2.0 * math.pi / loss.omega_m
    dt = period / samples_per_period
    horizon = max_periods * period
    t_lo = 0.0
    t = dt
    while t <= horizon:
        if eta_at(state0, loss, t) < 0.5:
            for _ in range(20):
                t_mid = 0.5 * (t_lo + t)
                if eta_at(state0, loss, t_mid) >= 0.5:
                    t_lo = t_mid
                else:
                    t = t_mid
            return HalfLifeResult(0.5 * (t_lo + t), True, eta0)
        t_lo = t
        t += dt
    return HalfLifeResult(horizon, False, eta0)


# Exact criterion-10 half-lives (q = 1e7, nbar_m = 4e4, epsilon = 1e-3,
# phi = pi / 50): no pre-squeeze, position squeeze at mu_opt, momentum squeeze
# at mu = 0.5.
@pytest.mark.parametrize("alpha,label,tau", [
    (1.0, "none", 25.511), (1.0, "position", 27.287), (1.0, "momentum", 8.304),
    (2.0, "none", 9.975), (2.0, "position", 17.644), (2.0, "momentum", 2.209),
])
def test_criterion_10_half_lives_are_pinned(alpha, label, tau):
    state0 = _criterion_10_state(alpha, label)
    result = half_life(state0, CRITERION_10_LOSS)
    assert result.reached
    assert result.tau == pytest.approx(tau, rel=1e-3)
    assert result == _scalar_scan_half_life(state0, CRITERION_10_LOSS)


def test_a_batched_search_equals_the_scalar_search_of_each_state():
    # one batch of nine: the six criterion-10 scenarios, an even cat (tau = 0),
    # four coincident terms of weight -10, whose eta = 10 / sqrt(det V) never
    # falls to 1/2 here (reached=False), and an alpha = 2 cat evolved to just
    # before its crossing, which crosses before the first sample (k = 0)
    loss, dt = CRITERION_10_LOSS, TWO_PI / 64
    scenarios = [_criterion_10_state(alpha, label) for alpha in (1.0, 2.0)
                 for label in ("none", "position", "momentum")]
    even = GaussianSum.cat(CatSpec(1.0, "even"))
    never = GaussianSum([math.log(2.5) + 1j * math.pi] * 4, np.zeros((4, 2)), np.eye(2))
    first = scenarios[3].evolve(damped_evolution(loss, 9.975 - dt / 2))
    assert negativity_eta(first) >= 0.5 > eta_at(first, loss, dt)
    states = [scenarios[0], even, *scenarios[1:4], never, first, *scenarios[4:]]
    results = half_life(GaussianSum.concatenate(states), loss)
    assert len(results) == len(states)
    for state, result in zip(states, results):
        assert result == _scalar_scan_half_life(state, loss)
    assert results[1] == HalfLifeResult(0.0, True, 0.0)
    assert not results[5].reached and results[5].tau == 40.0 * TWO_PI
    assert results[6].reached and 0.0 < results[6].tau < dt
    taus = [r.tau for r in results[:1] + results[2:5] + results[7:]]
    assert taus == pytest.approx([25.511, 27.287, 8.304, 9.975, 17.644, 2.209], rel=1e-3)


def test_half_life_rejects_a_batch_of_rank_two():
    cat = GaussianSum.cat(CatSpec(1.0, "odd"))
    batch = cat.evolve(damped_evolution(CRITERION_10_LOSS, np.ones((2, 3))))
    with pytest.raises(ValueError, match=r"not \(2, 3\)"):
        half_life(batch, CRITERION_10_LOSS)


@pytest.mark.parametrize("alpha,samples_per_period,max_periods", [
    (1.0, 142, 40.0),  # a block spans less than half a period
    (2.0, 81, 40.0),   # the crossing is the first sample of the third block
    (2.0, 64, 3.3),    # the horizon ends inside a block, before the crossing
])
def test_block_scan_equals_the_scalar_scan(alpha, samples_per_period, max_periods):
    state0 = _criterion_10_state(alpha, "none")
    result = half_life(state0, CRITERION_10_LOSS, samples_per_period, max_periods)
    assert result == _scalar_scan_half_life(state0, CRITERION_10_LOSS, samples_per_period,
                                            max_periods)
    if samples_per_period == 81:
        dt = TWO_PI / samples_per_period
        etas = eta_series(state0, CRITERION_10_LOSS, np.cumsum(np.full(3 * ETA_BLOCK, dt)))
        assert np.flatnonzero(etas < 0.5)[0] == 2 * ETA_BLOCK


def test_bisection_tree_from_a_crossing_at_the_first_sample():
    # the cat falls below 1/2 before the first sample, so the bracket starts
    # at t_lo = 0
    loss = LossConfig.from_q(1e5, nbar_m=4e4)
    state0 = GaussianSum.cat(CatSpec(2.0, "odd"))
    dt = TWO_PI / 64
    assert negativity_eta(state0) >= 0.5 > eta_at(state0, loss, dt)
    result = half_life(state0, loss)
    assert result.reached and 0.0 < result.tau < dt
    assert result == _scalar_scan_half_life(state0, loss)


def test_bisection_tree_of_a_displaced_cat():
    state0 = _displaced_cat()
    result = half_life(state0, CRITERION_10_LOSS)
    assert result.reached
    assert result == _scalar_scan_half_life(state0, CRITERION_10_LOSS)


def test_bisection_tree_after_a_lossy_pre_squeeze():
    loss = LossConfig.from_q(3e6, nbar_m=1e4, epsilon=5e-3)
    cat = GaussianSum.cat(CatSpec(1.5, "odd"))
    state0 = cat.evolve(mechanical_squeezer(schedule_for_mu(1.7, math.pi / 50, 0.5), loss))
    result = half_life(state0, loss)
    assert result.reached
    assert result == _scalar_scan_half_life(state0, loss)


@settings(max_examples=10)
@given(alpha=st.floats(0.5, 2.5), mu_pre=st.floats(0.3, 3.0),
       log_q=st.floats(5.0, 8.0))
def test_bisection_tree_equals_the_scalar_bisection(alpha, mu_pre, log_q):
    loss = LossConfig.from_q(10.0 ** log_q, nbar_m=4e4, epsilon=1e-3)
    cat = GaussianSum.cat(CatSpec(alpha, "odd"))
    state0 = cat.evolve(mechanical_squeezer(schedule_for_mu(mu_pre, math.pi / 50, 0.5), loss))
    assert half_life(state0, loss) == _scalar_scan_half_life(state0, loss)


def test_a_half_life_search_checks_no_state(monkeypatch):
    # the scan blocks and bisection steps evolve index slices of the batch
    # that half_life flattens with GaussianSum.concatenate, all built
    # unchecked from the checked input; re-checking each slice ran the check
    # 11 times here, and the checked concatenate once
    batch = GaussianSum.concatenate([GaussianSum.cat(CatSpec(1.0)),
                                     GaussianSum.cat(CatSpec(2.0))])
    checks = []
    original = GaussianSum.__post_init__

    def counted(self):
        checks.append(self)
        original(self)

    monkeypatch.setattr(GaussianSum, "__post_init__", counted)
    assert all(result.reached for result in half_life(batch, CRITERION_10_LOSS))
    assert checks == []


@pytest.mark.parametrize("label", ["none", "position", "momentum", "displaced"])
def test_eta_series_equals_eta_at_sample_by_sample(label):
    state0 = _displaced_cat() if label == "displaced" else _criterion_10_state(2.0, label)
    times = np.concatenate([[0.0], np.arange(1, 2 * ETA_BLOCK + 10) * (TWO_PI / 64)])
    etas = eta_series(state0, CRITERION_10_LOSS, times)
    assert etas.shape == times.shape
    assert np.array_equal(etas, [eta_at(state0, CRITERION_10_LOSS, t) for t in times])


def test_batched_sum_evolves_and_reads_each_state_alone():
    state0 = _displaced_cat()
    loss = LossConfig.from_q(1e6, nbar_m=4e4)
    times = np.linspace(0.0, 3.0, 6).reshape(2, 3)
    batch = state0.evolve(damped_evolution(loss, times))
    assert batch.means.shape == (2, 3, 4, 2) and batch.cov.shape == (2, 3, 2, 2)
    values = batch.value_at(0.4, -0.3)
    assert values.shape == (2, 3)
    for index, t in np.ndenumerate(times):
        alone = state0.evolve(damped_evolution(loss, t))
        assert np.array_equal(batch.means[index], alone.means)
        assert np.array_equal(batch.cov[index], alone.cov)
        assert values[index] == alone.value_at(0.4, -0.3)


def test_batched_negativity_clamps_element_by_element():
    # one term with W(0, 0) = -2 exp(-s^2 / 2) / (2 pi) at shift s: eta 2 is
    # clamped to 1 + 1e-6, and at s = 40 W underflows to a zero that gives
    # eta = -0.0, as the scalar max keeps it
    shifts = np.array([0.0, 1.5, 3.0, 40.0])
    means = np.stack([shifts, np.zeros(4)], axis=-1)[:, None, :]
    covs = np.broadcast_to(np.eye(2), (4, 2, 2))
    batch = GaussianSum([math.log(2.0) + 1j * math.pi], means, covs)
    builtin = [min(max(-2.0 * math.pi * float(w), 0.0), 1.0 + 1e-6)
               for w in batch.value_at(0.0, 0.0)]
    alone = [negativity_eta(GaussianSum(batch.log_weights, m, np.eye(2))) for m in means]
    etas = negativity_eta(batch)
    assert etas[0] == 1.0 + 1e-6 and 0.0 < etas[2] < etas[1] < 1.0
    for got in (etas, alone):
        assert np.array_equal(got, builtin)
        assert [math.copysign(1.0, e) for e in got] == [math.copysign(1.0, e) for e in builtin]
    assert np.array_equal(negativity_eta(GaussianSum([0.0], means, covs)), np.zeros(4))


def test_concatenated_sums_give_each_state_its_own_weights():
    odd, even = GaussianSum.cat(CatSpec(1.0, "odd")), GaussianSum.cat(CatSpec(1.0, "even"))
    rotated = odd.evolve(rotation("mech", [0.3, 0.9], MECH))
    batch = GaussianSum.concatenate([odd, even, rotated])
    assert batch.log_weights.shape == (4, 4) and batch.means.shape == (4, 4, 2)
    alone = [odd, even, *(GaussianSum(odd.log_weights, m, c)
                          for m, c in zip(rotated.means, rotated.cov))]
    assert np.array_equal(batch.value_at(0.4, -0.3), [s.value_at(0.4, -0.3) for s in alone])
    # a batch of higher rank is flattened in order
    square = odd.evolve(rotation("mech", [[0.3, 0.9], [0.1, 0.2]], MECH))
    assert np.array_equal(GaussianSum.concatenate([square]).means, square.means.reshape(4, 4, 2))
    with pytest.raises(ValueError, match="log-weights does not broadcast"):
        GaussianSum(np.zeros((3, 2, 1)), np.zeros((2, 1, 2)), np.stack([np.eye(2)] * 2))
    with pytest.raises(ValueError):  # a different number of terms
        GaussianSum.concatenate([odd, GaussianSum([0.0], np.zeros((1, 2)), np.eye(2))])


def test_gaussian_sum_checks_every_batch_element():
    covs = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(ValueError, match="positive-definite"):
        GaussianSum([0.0], np.zeros((2, 1, 2)), covs)
    with pytest.raises(ValueError, match="batch shapes"):
        GaussianSum([0.0], np.zeros((3, 1, 2)), np.stack([np.eye(2)] * 2))
    batch = GaussianSum([0.0], np.zeros((2, 1, 2)), np.stack([np.eye(2)] * 2))
    with pytest.raises(ValueError, match=r"batch of shape \(2,\)"):
        batch.sample(8.0, 64)


def test_evolved_sum_is_built_unchecked_but_finite():
    # evolve skips the constructor's checks: its arrays equal a checked
    # construction's and are read-only.  A covariance that overflows still
    # raises, though the constructor's "<= 0" tests pass inf and NaN.
    evolved = _displaced_cat().evolve(damped_evolution(LossConfig.from_q(1e6, nbar_m=4e4),
                                                       [0.5, 1.0]))
    checked = GaussianSum(evolved.log_weights, evolved.means, evolved.cov)
    for name in ("log_weights", "means", "cov"):
        got, want = getattr(evolved, name), getattr(checked, name)
        assert not got.flags.writeable
        assert got.dtype == want.dtype and np.array_equal(got, want)
    wide = GaussianSum([0.0], np.zeros((1, 2)), np.diag([1e308, 1e-308]))
    # S V S^T overflows to inf, and inf * 0 gives NaN off the diagonal
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="evolved covariance contains non-finite"):
            wide.evolve(quadrature_scaling(10.0, 1.0, "mech", MECH))


def test_grid_rejects_a_batched_channel():
    grid = wigner_cat(CatSpec(1.0, "odd"), resolution=64)
    with pytest.raises(ValueError, match=r"batch of shape \(3,\)"):
        grid.evolve(rotation("mech", [0.1, 0.2, 0.3], MECH))


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
    # e^(2 alpha^2) exceeds the float range above alpha ~ 18.83; from
    # 2 alpha^2 = 700 (alpha ~ 18.71) on both closed forms take their limits
    for alpha in (0.5, 1.0, 2.0, 10.0, 18.7, 18.75, 18.8, 18.83, 18.9, 20.0, 30.0, 100.0):
        rx, rp = fringe_ellipse(alpha, mu_opt(alpha))
        assert rx == pytest.approx(rp, rel=1e-12, abs=0.0)


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
    cat = GaussianSum.cat(CatSpec(1.0, "odd"))
    hot = half_life(cat, LossConfig.from_q(1e6, nbar_m=8e4))
    cold = half_life(cat, LossConfig.from_q(1e6, nbar_m=2e4))
    assert hot.reached and cold.reached
    assert hot.tau < cold.tau


def test_half_life_horizon_flag():
    res = half_life(GaussianSum.cat(CatSpec(1.0, "odd")), LossConfig.from_q(1e9, nbar_m=1.0),
                    max_periods=0.5)
    assert not res.reached
    assert res.tau == pytest.approx(0.5 * TWO_PI)


def test_half_life_of_an_even_cat_is_zero():
    # an even cat has W(0, 0) > 0, so eta(0) = 0 is already below 1/2
    even = GaussianSum.cat(CatSpec(1.0, "even"))
    assert half_life(even, LossConfig.from_q(1e6, nbar_m=1e4)) == HalfLifeResult(0.0, True, 0.0)


def test_half_life_with_pre_squeeze_runs():
    loss = LossConfig.from_q(1e7, nbar_m=4e4, epsilon=1e-3)
    pre = schedule_for_mu(mu_opt(1.0), math.pi / 50, 0.5)
    cat = GaussianSum.cat(CatSpec(1.0, "odd"))
    with_pre = half_life(cat.evolve(mechanical_squeezer(pre, loss)), loss)
    without = half_life(cat, loss)
    assert with_pre.reached and without.reached
    assert with_pre.tau > without.tau


def test_eta_series_monotone_envelope():
    loss = LossConfig.from_q(1e6, nbar_m=4e4)
    times = np.linspace(0.5, 4.0, 6)
    etas = eta_series(GaussianSum.cat(CatSpec(1.0, "odd")), loss, times)
    assert np.all(np.diff(etas) < 0)


def test_eta_series_and_half_life_reject_a_grid():
    # the series and the scan evolve a block of times as one batch, which the
    # grid engine refuses; eta_at still steps a grid one time at a time
    loss = LossConfig.from_q(1e6, nbar_m=4e4)
    grid = wigner_cat(CatSpec(1.0, "odd"), resolution=64)
    with pytest.raises(ValueError, match="batch"):
        eta_series(grid, loss, [0.5])
    with pytest.raises(ValueError, match="batch"):
        half_life(grid, loss)
    assert eta_at(grid, loss, 0.5) < negativity_eta(grid)
    # an even cat starts below 1/2, which must not let a grid through either
    even = wigner_cat(CatSpec(1.0, "even"), resolution=64)
    assert negativity_eta(even) < 0.5
    with pytest.raises(ValueError, match="batch"):
        half_life(even, loss)


# -- IO -------------------------------------------------------------------------

def test_grid_csv_round_trip(tmp_path):
    g = wigner_cat(CatSpec(1.0, "odd"), resolution=64)
    path = tmp_path / "grid.csv"
    grid_to_csv(g, path)
    back = grid_from_csv(path)
    assert back.half_extent == g.half_extent
    assert back.resolution == g.resolution
    assert np.array_equal(back.values, g.values)


def _repr_lines(values) -> bytes:
    """The CSV lines of a 2-D array as ``",".join(map(repr, row))`` writes them."""
    return "".join(",".join(map(repr, row)) + "\n" for row in values.tolist()).encode()


# +-0, the smallest subnormal, the largest subnormal, the smallest normal, 2^53
# and its neighbours, repr's switches to and from the exponent form, two- and
# three-digit exponents, fractions with short and long digits, integers, the
# largest float
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 1e-5, 9.999e-5, 1e-4, 1e15, 1e16,
               1e17, 1e-99, 1e99, 1e-100, 1e100, 2.5e-99, 2.5e-100, 0.1, 0.3, 1 / 3, 1.0,
               3.0, 12345.0, 0.5, 1.7976931348623157e308]


def _decimal_floats() -> list[float]:
    """Floats read from decimal strings of 1 to 17 significant digits at
    exponents of every layout (0.000ddd, ddd.ddd and the exponent form with
    two- and three-digit powers), each string also ending in 4, 5, 49 and 50;
    then the neighbours of the layout switches.  Both signs."""
    rng = np.random.default_rng(38)
    values = []
    for digits in range(1, 18):
        for exponent in (-323, -300, -250, -200, -150, -101, -100, -99, -98, -60, -30, -10, -5,
                         -4, -3, -1, 0, 1, 3, 8, 12, 15, 16):
            body = "".join(map(str, rng.integers(0, 10, digits)))
            for end in ("", "4", "5", "49", "50"):
                text = str(rng.integers(1, 10)) + body[1:max(digits - len(end), 1)] + end
                values.append(float(f"0.{text}e{exponent}"))
    for switch in (1e-99, 1e-4, 1.0, 1e16):
        values += [np.nextafter(switch, 0), switch, np.nextafter(switch, 2 * switch)]
    return values + [-v for v in values]


def _round_up_boundaries() -> list[float]:
    """For each layout, doubles whose digits ahead of the shortest ones (Ryu's
    vr = floor(|x| 10^-e10), exact) end in 4 and 5 with one digit removed, and
    in 49 and 50 with two: the last removed digit either side of rounding up."""
    e10, rng, found = _ryu_table()[2], np.random.default_rng(49), {}
    for layout, (low, high) in enumerate([(-300, -100), (-99, -5), (-4, 0), (0, 15)]):
        for x in (10.0 ** rng.uniform(low, high, 1500)).tolist():
            num, den = x.as_integer_ratio()
            vr = num * 10 ** -int(e10[np.float64(x).view(np.uint64) >> 52]) // den
            removed = len(str(vr)) - len(repr(x).split("e")[0].replace(".", "").strip("0"))
            if (removed, vr % 10 ** removed) in ((1, 4), (1, 5), (2, 49), (2, 50)):
                found.setdefault((layout, vr % 10 ** removed), x)
    assert len(found) == 16
    return list(found.values()) + [-x for x in found.values()]


DECIMAL_FLOATS = _decimal_floats() + _round_up_boundaries()


def test_csv_kernel_writes_repr_bytes_on_edge_values():
    values = np.array([EDGE_FLOATS, [-v for v in EDGE_FLOATS]])
    assert _csv_rows(values).tobytes() == _repr_lines(values)
    assert _csv_rows(values.T).tobytes() == _repr_lines(values.T)


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_kernel_writes_repr_bytes_on_any_finite_floats(values):
    assert _csv_rows(values).tobytes() == _repr_lines(values)


def test_csv_kernel_removes_every_digit_count_as_repr_does():
    values = np.array(DECIMAL_FLOATS)
    bits = values.view(np.uint64)
    out, n, decpt, exact = _shortest(bits)
    removed = (decpt - n - _ryu_table()[2][(bits >> 52) & 0x7FF])[~exact]
    assert set(removed.tolist()) >= set(range(1, 19))
    assert _csv_rows(values[:, None]).tobytes() == _repr_lines(values[:, None])


def test_csv_kernel_writes_repr_bytes_on_random_bit_patterns():
    # every binary exponent, subnormals, inf and nan among 200,000 patterns
    bits = np.random.default_rng(2018).integers(0, 2 ** 64, 200_000, np.uint64)
    values = bits.view(np.float64).reshape(400, 500)
    assert _csv_rows(values).tobytes() == _repr_lines(values)


def test_grid_to_csv_writes_the_default_fock_squeeze_grids_as_repr(tmp_path):
    config = ExperimentConfig()
    config.experiment = "fock-squeeze"
    grids = run_experiment(config).grids
    assert len(grids) == 4
    for name, grid in grids.items():
        grid_to_csv(grid, tmp_path / name)
        header = f"# half_extent,{grid.half_extent!r}\n# resolution,{grid.resolution}\n"
        assert (tmp_path / name).read_bytes() == header.encode() + _repr_lines(grid.values), name


_CSV_IN_SUBPROCESS = """
import sys
import numpy as np
from pulsox.wigner import _csv_rows
values = np.frombuffer(sys.stdin.buffer.read()).reshape(-1, 64)
sys.stdout.buffer.write(_csv_rows(values).tobytes())
"""


def test_csv_kernel_does_not_depend_on_the_cpu_dispatch_path():
    """The kernel writes the same bytes, repr's, when numpy runs without its
    SIMD kernels above the build's baseline (``conftest.without_cpu_dispatch``)."""
    bits = np.random.default_rng(15).integers(0, 2 ** 64, 64 * 256, np.uint64)
    values = np.concatenate([EDGE_FLOATS, np.negative(EDGE_FLOATS), bits.view(np.float64)])
    values = np.concatenate([values[:64 * 256], DECIMAL_FLOATS,
                             np.zeros(-len(DECIMAL_FLOATS) % 64)]).reshape(-1, 64)
    run = subprocess.run([sys.executable, "-c", _CSV_IN_SUBPROCESS], env=without_cpu_dispatch(),
                         input=values.tobytes(), capture_output=True, check=True)
    assert run.stdout == _csv_rows(values).tobytes() == _repr_lines(values)


def _headerless_csv(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("0.0,0.0\n0.0,0.0\n", encoding="utf-8")
    return grid_from_csv(path)


def _infinite_extent_csv(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("# half_extent,inf\n# resolution,4\n" + "0.0,0.0,0.0,0.0\n" * 4,
                    encoding="utf-8")
    return grid_from_csv(path)


def _non_finite_body_csv(tmp_path, value):
    path = tmp_path / "grid.csv"
    path.write_text("# half_extent,1.0\n# resolution,4\n" + "0.0,0.0,0.0,0.0\n" * 3
                    + f"0.0,{value},0.0,0.0\n", encoding="utf-8")
    return grid_from_csv(path)


def _half_life(**scan):
    return half_life(GaussianSum.cat(CatSpec(1.0)), LossConfig.from_q(1e7, nbar_m=4e4), **scan)


_TWO_MODE_CHANNEL = rotation("mech", 0.1, MECH_OPT)


@pytest.mark.parametrize("build, fragment", [
    (lambda _: WignerGrid(0.0, 4, np.zeros((4, 4))), "half extent must be positive"),
    (lambda _: WignerGrid(1.0, 4, np.zeros((4, 8))), r"values shape \(4, 8\)"),
    (lambda _: CatSpec(0.0), "cat amplitude must be positive"),
    (lambda _: CatSpec(1.0, "none"), "parity must be 'odd' or 'even'"),
    (lambda _: GaussianSum.cat(CatSpec(1.0)).evolve(_TWO_MODE_CHANNEL), "single-mode channels"),
    (lambda _: apply_gaussian_channel(wigner_fock(0, 4.0, 16), _TWO_MODE_CHANNEL),
     "single-mode channels"),
    (lambda _: wigner_gaussian([0.0, 0.0], np.diag([1.0, -1.0])), "positive-definite"),
    (lambda _: fringe_ellipse(1.0, 0.0), "alpha and mu must be positive"),
    (lambda _: mu_opt(0.0), "alpha must be positive"),
    (lambda _: half_life(GaussianSum.cat(CatSpec(1.0)), LossConfig(), samples_per_period=32),
     "at least 64 samples"),
    (_headerless_csv, "missing header"),
    (lambda _: WignerGrid(math.inf, 4, np.zeros((4, 4))), "half extent must be positive and finite"),
    (lambda _: WignerGrid(math.nan, 4, np.zeros((4, 4))), "half extent must be positive and finite"),
    (_infinite_extent_csv, "half extent must be positive and finite"),
    (lambda path: _non_finite_body_csv(path, "nan"), "non-finite values"),
    (lambda path: _non_finite_body_csv(path, "inf"), "non-finite values"),
    (lambda _: WignerGrid(8.0, 4, np.diag([0.0, math.nan, 0.0, 0.0])), "non-finite values"),
    (lambda _: WignerGrid(8.0, 4, np.diag([0.0, 0.0, -math.inf, 0.0])), "non-finite values"),
    (lambda _: GaussianSum([math.nan], [[0.0, 0.0]], np.eye(2)), "non-finite log_weights"),
    (lambda _: GaussianSum([0.0], [[0.0, complex(0.0, math.inf)]], np.eye(2)),
     "non-finite means"),
    # NaN passes the covariance's "<= 0" tests
    (lambda _: GaussianSum([0.0], [[0.0, 0.0]], [[1.0, math.nan], [math.nan, 1.0]]),
     "non-finite cov"),
    (lambda _: wigner_gaussian([math.nan, 0.0], np.eye(2), 8.0, 4), "non-finite mean"),
    (lambda _: wigner_gaussian([0.0, 0.0], np.diag([math.inf, 1.0]), 8.0, 4),
     "non-finite covariance"),
    (lambda _: wigner_fock(1, 8.0, 6), "power of two"),
    (lambda _: GaussianSum.fock(2), "holds the Fock state n = 1, not n = 2"),
    (lambda _: GaussianSum([0.0], [[0.0, 0.0]], np.eye(2), [[1.0, math.nan], [math.nan, 1.0]]),
     "non-finite cov_derivative"),
    (lambda _: GaussianSum([0.0], [[0.0, 0.0]], np.eye(2), [[1.0, 0.5], [0.0, 1.0]]),
     "cov_derivative is not symmetric"),
    (lambda _: GaussianSum([0.0], [[0.0, 0.0]], np.eye(2), np.eye(3)),
     r"cov_derivative shape \(3, 3\)"),
    (lambda _: GaussianSum.cat(CatSpec(1.0)).sample(math.inf, 64), "half extent must be"),
    (lambda _: CatSpec(math.nan), "cat amplitude must be positive and finite"),
    (lambda _: CatSpec(math.inf), "cat amplitude must be positive and finite"),
    # 2 alpha^2 rounds to 0 and the odd cat's norm took log(0)
    (lambda _: CatSpec(1e-170), "cat amplitude must be positive and finite, its square nonzero"),
    (lambda _: fringe_ellipse(math.nan, 1.0), "alpha and mu must be positive and finite"),
    (lambda _: fringe_ellipse(1.0, math.inf), "alpha and mu must be positive and finite"),
    (lambda _: mu_opt(math.nan), "alpha must be positive and finite"),
    (lambda _: _half_life(samples_per_period=math.inf), "samples_per_period = inf"),
    (lambda _: _half_life(samples_per_period=math.nan), "samples_per_period = nan"),
    (lambda _: _half_life(max_periods=-1.0), "max_periods = -1.0"),
    (lambda _: _half_life(max_periods=0.0), "max_periods = 0.0"),
    (lambda _: _half_life(max_periods=math.nan), "max_periods = nan"),
    (lambda _: _half_life(max_periods=math.inf), "max_periods = inf"),
    (lambda _: wigner_fock(1, 1e200, 4), r"half extent 1e\+200 overflows"),
    (lambda _: wigner_fock(1, 1e154, 4), r"half extent 1e\+154 overflows"),
    (lambda _: wigner_fock(1, 8.0, 64).value_at(math.nan, 0.0), r"not \(nan, 0.0\)"),
    (lambda _: wigner_fock(1, 8.0, 64).value_at(0.0, -math.inf), r"not \(0.0, -inf\)"),
    (lambda _: GaussianSum.cat(CatSpec(1.0)).value_at(math.nan, 0.0), r"not \(nan, 0.0\)"),
    (lambda _: GaussianSum.cat(CatSpec(1.0)).value_at(math.inf, 0.0), r"not \(inf, 0.0\)"),
    # W would read the upper inverse entry alone
    (lambda _: GaussianSum([0.0], [[0.0, 0.0]], [[1.0, 0.5], [0.0, 1.0]]),
     "covariance is not symmetric"),
    (lambda _: wigner_gaussian([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]], 8.0, 64),
     "covariance is not symmetric"),
    # det > 0, but the density has mass 1e26 on the grid
    (lambda _: wigner_gaussian([0.0, 0.0], -np.eye(2), 8.0, 64), "positive-definite"),
    (lambda _: wigner_gaussian([0.0, 0.0], np.eye(3), 8.0, 64), r"shape \(3, 3\)"),
    # it read the first two entries of the mean; float(det) raised TypeError on a batch
    (lambda _: wigner_gaussian([0.0, 0.0, 0.0], np.eye(2), 8.0, 16), r"mean shape \(3,\)"),
    (lambda _: wigner_gaussian([0.0, 0.0], np.stack([np.eye(2)] * 3), 8.0, 16),
     r"covariance shape \(3, 2, 2\)"),
], ids=["grid-extent", "grid-shape", "cat-alpha", "cat-parity", "sum-two-mode-channel",
        "grid-two-mode-channel", "gaussian-covariance", "fringe-mu", "mu-opt-alpha",
        "half-life-samples", "csv-header", "grid-extent-inf", "grid-extent-nan",
        "csv-extent-inf", "csv-body-nan", "csv-body-inf", "grid-body-nan", "grid-body-inf",
        "sum-log-weight-nan", "sum-mean-inf", "sum-cov-nan", "gaussian-mean-nan",
        "gaussian-covariance-inf", "fock-resolution", "sum-fock-n", "sum-derivative-nan",
        "sum-derivative-asymmetric", "sum-derivative-shape", "sample-extent-inf",
        "cat-alpha-nan", "cat-alpha-inf", "cat-alpha-square-zero", "fringe-alpha-nan", "fringe-mu-inf",
        "mu-opt-nan", "half-life-samples-inf", "half-life-samples-nan",
        "half-life-periods-negative", "half-life-periods-zero", "half-life-periods-nan",
        "half-life-periods-inf", "fock-extent-1e200", "fock-extent-1e154",
        "grid-value-at-nan", "grid-value-at-inf", "sum-value-at-nan", "sum-value-at-inf",
        "sum-cov-asymmetric", "gaussian-covariance-asymmetric",
        "gaussian-covariance-negative-definite", "gaussian-covariance-shape",
        "gaussian-mean-shape", "gaussian-covariance-batch"])
def test_bad_input_is_rejected_with_its_reason(build, fragment, tmp_path):
    with pytest.raises(ValueError, match=fragment):
        build(tmp_path)
