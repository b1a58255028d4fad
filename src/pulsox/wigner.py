"""Wigner functions of non-Gaussian states and their Gaussian-channel evolution.

Two representations share one interface (``value_at`` and ``evolve``):

* :class:`GaussianSum` holds a state exactly as a weighted sum of Gaussians
  with complex means (Bourassa et al., PRX Quantum 2, 040315 (2021)).  A cat
  is four terms, and a Gaussian channel maps each term in closed form, so the
  cat-decay negativities need no grid.
* :class:`WignerGrid` holds samples W(x, p) on a square grid spanning
  [-L, L)^2.  A Gaussian channel acts in one exact step: the affine map is
  applied by bilinear resampling, the additive noise by a spectral (FFT)
  convolution whose Gaussian kernel is evaluated analytically in Fourier
  space, so a singular noise covariance needs no regularization.  The grid
  serves Fock states, CSV export and as a test oracle for the exact sums.

Multi-sample decay curves re-evolve from t = 0 at each sample instead of
accumulating error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import GaussianChannel, LossConfig, damped_evolution
from .squeezer import PulseSchedule, mechanical_squeezer

DEFAULT_HALF_EXTENT = 8.0
DEFAULT_RESOLUTION = 512
MASS_DRIFT_TOL = 1e-3


class GridClippingError(ArithmeticError):
    """Raised when more than the tolerated probability mass leaves the grid."""


def _axis(half_extent: float, resolution: int) -> np.ndarray:
    """Node coordinates x_i = -L + i * (2L / resolution) of one grid axis."""
    return np.linspace(-half_extent, half_extent, resolution, endpoint=False)


@dataclass(frozen=True)
class WignerGrid:
    """Wigner samples values[i, j] = W(x_i, p_j) on a uniform grid.

    The axes follow the FFT convention x_i = -L + i * (2L / resolution), so the
    origin is a grid node and the resolution must be a power of two.
    """

    half_extent: float
    resolution: int
    values: np.ndarray

    def __post_init__(self):
        res = self.resolution
        if res < 4 or res & (res - 1):
            raise ValueError("resolution must be a power of two (>= 4)")
        if self.half_extent <= 0:
            raise ValueError("half extent must be positive")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (res, res):
            raise ValueError(f"values shape {v.shape} does not match resolution {res}")
        v = np.array(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def step(self) -> float:
        return 2.0 * self.half_extent / self.resolution

    def axis(self) -> np.ndarray:
        return _axis(self.half_extent, self.resolution)

    def total_mass(self) -> float:
        return float(self.values.sum() * self.step ** 2)

    def value_at(self, x: float, p: float) -> float:
        """Bilinear interpolation; exact when (x, p) is a grid node."""
        return float(_bilinear(self.values, self.half_extent, self.step,
                               np.array([x]), np.array([p]))[0])

    def evolve(self, channel: GaussianChannel) -> "WignerGrid":
        return apply_gaussian_channel(self, channel)

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Riemann-sum first and second moments (mean vector, covariance)."""
        ax = self.axis()
        w = self.values * self.step ** 2
        mass = w.sum()
        mx = (w.sum(axis=1) * ax).sum() / mass
        mp = (w.sum(axis=0) * ax).sum() / mass
        dx = ax - mx
        dp = ax - mp
        vxx = (w.sum(axis=1) * dx ** 2).sum() / mass
        vpp = (w.sum(axis=0) * dp ** 2).sum() / mass
        vxp = float(dx @ w @ dp) / mass
        return np.array([mx, mp]), np.array([[vxx, vxp], [vxp, vpp]])


@dataclass(frozen=True)
class CatSpec:
    """Coherent-state superposition |alpha> +/- |-alpha> (even / odd)."""

    alpha: float
    parity: str = "odd"

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("cat amplitude must be positive")
        if self.parity not in ("odd", "even"):
            raise ValueError("parity must be 'odd' or 'even'")

    @property
    def sign(self) -> float:
        return -1.0 if self.parity == "odd" else 1.0


@dataclass(frozen=True)
class GaussianSum:
    """Exact Wigner function as a sum of Gaussians sharing one covariance.

    W(v) = Re sum_k exp(log_weights[k] - (v - m_k)^T V^-1 (v - m_k) / 2)
    / (2 pi sqrt(det V)) with complex log-weights, complex means m_k and one
    real covariance V.  The weights are kept as logarithms so that a large
    factor of a weight and the small Gaussian factor it multiplies cancel
    inside one exponent instead of overflowing.  One covariance is exact for
    terms that start with the same one, because a Gaussian channel's
    covariance update does not depend on the mean.
    """

    log_weights: np.ndarray
    means: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        log_weights = np.array(self.log_weights, dtype=complex)
        means = np.array(self.means, dtype=complex)
        cov = np.array(self.cov, dtype=float)
        if log_weights.ndim != 1 or means.shape != (log_weights.size, 2):
            raise ValueError("need one complex 2-vector mean per weight")
        if cov.shape != (2, 2) or cov[0, 0] <= 0 or np.linalg.det(cov) <= 0:
            raise ValueError("covariance must be a positive-definite 2x2 matrix")
        for name, value in (("log_weights", log_weights), ("means", means), ("cov", cov)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def cat(cls, spec: CatSpec) -> "GaussianSum":
        """Two coherent peaks at X = +/- 2 alpha plus the interference fringes
        cos(2 alpha p), normalized including the exp(-2 alpha^2) overlap of
        the two branches.  Each fringe term is a vacuum Gaussian centred at
        P = +/- 2 i alpha: exp(-(x^2 + (p -/+ 2 i alpha)^2) / 2) =
        exp(2 alpha^2) exp(-(x^2 + p^2) / 2 +/- 2 i alpha p)."""
        a = spec.alpha
        log_norm = math.log(2.0) + math.log1p(spec.sign * math.exp(-2.0 * a * a))
        fringe = (complex(0.0, math.pi) if spec.sign < 0 else 0.0) - 2.0 * a * a - log_norm
        return cls([-log_norm, -log_norm, fringe, fringe],
                   [[2.0 * a, 0.0], [-2.0 * a, 0.0], [0.0, 2.0j * a], [0.0, -2.0j * a]],
                   np.eye(2))

    def evolve(self, channel: GaussianChannel) -> "GaussianSum":
        """Exact action of a single-mode Gaussian channel on every term:
        m -> S m + d and V -> S V S^T + N; the weights do not change."""
        if channel.layout.mode_count != 1:
            raise ValueError("the Wigner engine evolves single-mode channels")
        s = channel.matrix
        return GaussianSum(self.log_weights, self.means @ s.T + channel.mean,
                           s @ self.cov @ s.T + channel.cov)

    def _values(self, x, p) -> np.ndarray:
        inv = np.linalg.inv(self.cov)
        total = 0.0
        for log_weight, (mx, mp) in zip(self.log_weights, self.means):
            dx = x - mx
            dp = p - mp
            quad = inv[0, 0] * dx * dx + 2.0 * inv[0, 1] * dx * dp + inv[1, 1] * dp * dp
            total = total + np.exp(log_weight - 0.5 * quad)
        return np.real(total) / (2.0 * math.pi * math.sqrt(np.linalg.det(self.cov)))

    def value_at(self, x: float, p: float) -> float:
        return float(self._values(float(x), float(p)))

    def sample(self, half_extent: float, resolution: int) -> WignerGrid:
        """The sum evaluated on the nodes of a grid."""
        ax = _axis(half_extent, resolution)
        return WignerGrid(half_extent, resolution, self._values(ax[:, None], ax[None, :]))


def _bilinear(values: np.ndarray, half_extent: float, step: float,
              xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Sample W at arbitrary points, zero outside the grid."""
    res = values.shape[0]
    fx = (xs + half_extent) / step
    fp = (ps + half_extent) / step
    i0 = np.floor(fx).astype(int)
    j0 = np.floor(fp).astype(int)
    tx = fx - i0
    tp = fp - j0
    inside = (i0 >= 0) & (i0 <= res - 2) & (j0 >= 0) & (j0 <= res - 2)
    i0c = np.clip(i0, 0, res - 2)
    j0c = np.clip(j0, 0, res - 2)
    v00 = values[i0c, j0c]
    v10 = values[i0c + 1, j0c]
    v01 = values[i0c, j0c + 1]
    v11 = values[i0c + 1, j0c + 1]
    out = (v00 * (1 - tx) * (1 - tp) + v10 * tx * (1 - tp)
           + v01 * (1 - tx) * tp + v11 * tx * tp)
    return np.where(inside, out, 0.0)


# ---------------------------------------------------------------------------
# constructors (all exact closed forms, normalized)
# ---------------------------------------------------------------------------

_LAGUERRE = (
    lambda u: np.ones_like(u),
    lambda u: 1.0 - u,
    lambda u: 1.0 - 2.0 * u + 0.5 * u * u,
    lambda u: 1.0 - 3.0 * u + 1.5 * u * u - u ** 3 / 6.0,
)


def wigner_fock(n: int, half_extent: float = DEFAULT_HALF_EXTENT,
                resolution: int = DEFAULT_RESOLUTION) -> WignerGrid:
    """Fock-state Wigner function (-1)^n L_n(r^2) e^(-r^2 / 2) / (2 pi)."""
    if not 0 <= n <= 3:
        raise ValueError("Fock constructor supports n in 0..3")
    ax = _axis(half_extent, resolution)
    r2 = ax[:, None] ** 2 + ax[None, :] ** 2
    w = (-1.0) ** n * _LAGUERRE[n](r2) * np.exp(-0.5 * r2) / (2.0 * math.pi)
    return WignerGrid(half_extent, resolution, w)


def wigner_cat(spec: CatSpec, half_extent: float = DEFAULT_HALF_EXTENT,
               resolution: int = DEFAULT_RESOLUTION) -> WignerGrid:
    """Cat-state Wigner function (see :meth:`GaussianSum.cat`) on a grid."""
    if spec.alpha > half_extent / 4.0:
        raise ValueError("cat peaks at +/- 2 alpha need alpha <= half_extent / 4")
    return GaussianSum.cat(spec).sample(half_extent, resolution)


def wigner_gaussian(mean: Sequence[float], cov: np.ndarray,
                    half_extent: float = DEFAULT_HALF_EXTENT,
                    resolution: int = DEFAULT_RESOLUTION) -> WignerGrid:
    """Gaussian Wigner function exp(-d^T V^-1 d / 2) / (2 pi sqrt(|V|))."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    det = float(np.linalg.det(cov))
    if det <= 0:
        raise ValueError("covariance must be positive definite")
    inv = np.linalg.inv(cov)
    ax = _axis(half_extent, resolution)
    dx = ax[:, None] - mean[0]
    dp = ax[None, :] - mean[1]
    quad = inv[0, 0] * dx ** 2 + 2.0 * inv[0, 1] * dx * dp + inv[1, 1] * dp ** 2
    w = np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))
    return WignerGrid(half_extent, resolution, w)


# ---------------------------------------------------------------------------
# channel application
# ---------------------------------------------------------------------------

def apply_gaussian_channel(grid: WignerGrid, channel: GaussianChannel) -> WignerGrid:
    """Exact one-step action of a single-mode Gaussian channel.

    W'(v) = |det S|^-1 W(S^-1 (v - d)) convolved with the Gaussian of
    covariance N.  Raises :class:`GridClippingError` if more than 1e-3 of the
    mass leaves the grid; smaller drifts are renormalized away.
    """
    if channel.layout.mode_count != 1:
        raise ValueError("the Wigner engine evolves single-mode channels")
    s = channel.matrix
    det = float(np.linalg.det(s))
    if abs(det) <= 1e-12:
        raise ValueError("singular channel map")
    s_inv = np.linalg.inv(s)
    d = channel.mean
    n = channel.cov

    ax = grid.axis()
    x = ax[:, None] - d[0]
    p = ax[None, :] - d[1]
    ux = s_inv[0, 0] * x + s_inv[0, 1] * p
    up = s_inv[1, 0] * x + s_inv[1, 1] * p
    w = _bilinear(grid.values, grid.half_extent, grid.step,
                  ux.ravel(), up.ravel()).reshape(ux.shape) / abs(det)

    # spectral convolution with the analytic Fourier transform of the kernel
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.resolution, d=grid.step)
    kp = 2.0 * math.pi * np.fft.rfftfreq(grid.resolution, d=grid.step)
    quad = (n[0, 0] * kx[:, None] ** 2 + 2.0 * n[0, 1] * kx[:, None] * kp[None, :]
            + n[1, 1] * kp[None, :] ** 2)
    spec = np.fft.rfft2(w) * np.exp(-0.5 * quad)
    w = np.fft.irfft2(spec, s=w.shape)

    total = float(w.sum() * grid.step ** 2)
    drift = abs(1.0 - total)
    if drift > MASS_DRIFT_TOL:
        raise GridClippingError(
            f"probability mass drift {drift:.2e} exceeds {MASS_DRIFT_TOL} "
            "(state clipped by grid edges)")
    return WignerGrid(grid.half_extent, grid.resolution, w / total)


def negativity_eta(state: GaussianSum | WignerGrid) -> float:
    """Normalized origin negativity max(-2 pi W(0, 0), 0), clamped to [0, 1 + 1e-6]."""
    eta = -2.0 * math.pi * state.value_at(0.0, 0.0)
    return min(max(eta, 0.0), 1.0 + 1e-6)


# ---------------------------------------------------------------------------
# cat-state metrics
# ---------------------------------------------------------------------------

def fringe_ellipse(alpha: float, mu: float) -> tuple[float, float]:
    """Semi-axes of the central negative fringe of a squeezed odd cat.

    Solves mu^2 x^2 / 2 * (4 a^2/(e^(2a^2)-1) + 1) + p^2/(2 mu^2) *
    (4 a^2/(1-e^(-2a^2)) + 1) = 1 for the axis intercepts.
    """
    if alpha <= 0 or mu <= 0:
        raise ValueError("alpha and mu must be positive")
    a2 = 2.0 * alpha * alpha
    cx = 4.0 * alpha * alpha / math.expm1(a2) + 1.0
    cp = 4.0 * alpha * alpha / (-math.expm1(-a2)) + 1.0
    return math.sqrt(2.0 / cx) / mu, mu * math.sqrt(2.0 / cp)


def mu_opt(alpha: float) -> float:
    """Squeeze factor that makes the central fringe circular."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    a2 = 2.0 * alpha * alpha
    e = math.exp(a2)
    return ((e * (1.0 + 2.0 * a2) - 1.0) / (e + 2.0 * a2 - 1.0)) ** 0.25


@dataclass(frozen=True)
class HalfLifeResult:
    tau: float
    reached: bool
    eta_initial: float


def pre_squeezed_cat(spec: CatSpec, loss: LossConfig,
                     pre_squeeze: PulseSchedule | None) -> GaussianSum:
    """Cat state, optionally passed through the lossy squeezer at t = 0."""
    state = GaussianSum.cat(spec)
    if pre_squeeze is None:
        return state
    return state.evolve(mechanical_squeezer(pre_squeeze, loss))


def eta_at(state0: GaussianSum | WignerGrid, loss: LossConfig, t: float) -> float:
    """Negativity after damped thermal evolution for time t, in one exact step
    from the t = 0 state."""
    if t == 0.0:
        return negativity_eta(state0)
    return negativity_eta(state0.evolve(damped_evolution(loss, t)))


def eta_series(state0: GaussianSum | WignerGrid, loss: LossConfig,
               times: Sequence[float]) -> np.ndarray:
    """eta(t) over a time grid; each sample evolves from t = 0 independently."""
    return np.array([eta_at(state0, loss, t) for t in times])


def half_life(spec: CatSpec, loss: LossConfig, pre_squeeze: PulseSchedule | None = None,
              samples_per_period: int = 64, max_periods: float = 40.0) -> HalfLifeResult:
    """Time for the origin negativity to fall to 1/2 (absolute threshold).

    Scans eta(t) at ``samples_per_period`` per mechanical period (each sample
    is a single exact propagation of the Gaussian sum from t = 0), then
    bisects 20 times between the first bracketing pair.  If eta never crosses
    1/2 within ``max_periods`` the horizon is returned with ``reached=False``.
    """
    if spec.parity != "odd":
        raise ValueError("half-life is defined for odd cats (eta(0) = 1)")
    if samples_per_period < 64:
        raise ValueError("need at least 64 samples per mechanical period")
    state0 = pre_squeezed_cat(spec, loss, pre_squeeze)
    eta0 = negativity_eta(state0)
    period = 2.0 * math.pi / loss.omega_m
    dt = period / samples_per_period
    horizon = max_periods * period
    t_lo = 0.0
    if eta0 < 0.5:
        return HalfLifeResult(0.0, True, eta0)
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


# ---------------------------------------------------------------------------
# grid export
# ---------------------------------------------------------------------------

def grid_to_csv(grid: WignerGrid, path) -> None:
    """Write samples as CSV with a two-line header (half extent, resolution).

    Row i holds W(x_i, p_j) for all j.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# half_extent,{grid.half_extent!r}\n")
        fh.write(f"# resolution,{grid.resolution}\n")
        for row in grid.values:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def grid_from_csv(path) -> WignerGrid:
    with open(path, "r", encoding="utf-8") as fh:
        header1 = fh.readline().strip()
        header2 = fh.readline().strip()
        if not (header1.startswith("# half_extent,") and header2.startswith("# resolution,")):
            raise ValueError("not a Wigner grid CSV (missing header)")
        half_extent = float(header1.split(",", 1)[1])
        resolution = int(header2.split(",", 1)[1])
        values = np.loadtxt(fh, delimiter=",").reshape(resolution, resolution)
    return WignerGrid(half_extent, resolution, values)
