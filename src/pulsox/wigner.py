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
  :func:`grid_to_csv` writes each value exactly as ``repr`` does: Ryu's
  interval from one pass of ``uint64`` column sums, up to three digits
  removed on whole arrays, and one digit of every value written a pass.
  :meth:`GaussianSum.sample` and the channel step fill their grid in blocks
  of ``_SAMPLE_ROWS`` rows, so only the FFT's full-size arrays are alive at
  once: a 512-point step holds about 7 MB at its peak, for a 2 MB result.

A state moves only through its ``evolve`` method.  The negativity helpers
evolve from the t = 0 state at each sample instead of accumulating error.
:func:`eta_at` takes a state of either type; :func:`eta_series` and
:func:`half_life` take the exact sum, which they evolve in blocks of up to
``ETA_BLOCK`` samples: one batched damped channel and one batched sum per
block, each element bit-identical to its sample's own :func:`eta_at`.
:func:`half_life` searches a batch of states at once, and each bisection
step is one batched evolution of every crossing state at its own midpoint.
A grid steps one channel at a time, so these helpers reject it.  Callers
build the t = 0 state (a cat, a Fock grid, or either one passed through the
squeezer); the module depends only on ``channels``.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (GaussianChannel, LossConfig, _check_symmetric, _finite, _frozen,
                       _unchecked, damped_evolution)

DEFAULT_HALF_EXTENT = 8.0
DEFAULT_RESOLUTION = 512
MASS_DRIFT_TOL = 1e-3
# Times per batched evolution in eta_series and half_life: memory stays that
# of one block (about 200 B a sample and state) however long the series, and a
# half-life scan overshoots its last crossing by less than one block.
ETA_BLOCK = 64
# Bisection steps of a half-life: they narrow its scan bracket 2^20-fold.
BISECTIONS = 20
# Grid rows per block of GaussianSum.sample and of the channel step's bilinear
# resample: their temporaries (every term of every point, or the corners and
# weights of every pre-image) would take tens of MB for a whole 512-point grid.
# Blocked, a 512-point step peaks at about 7 MB (tracemalloc), the FFT's arrays.
_SAMPLE_ROWS = 32


class GridClippingError(ArithmeticError):
    """Raised when more than the tolerated probability mass leaves the grid."""


def _check_size(half_extent: float, resolution: int) -> None:
    if resolution < 4 or resolution & (resolution - 1):
        raise ValueError("resolution must be a power of two (>= 4)")
    if not 0 < half_extent < math.inf:
        raise ValueError("half extent must be positive and finite")


def _axis(half_extent: float, resolution: int) -> np.ndarray:
    """Node coordinates x_i = -L + i * (2L / resolution) of one grid axis,
    after the checks of a grid's size."""
    _check_size(half_extent, resolution)
    return np.linspace(-half_extent, half_extent, resolution, endpoint=False)


def _point(x: float, p: float) -> tuple[float, float]:
    """The phase-space point (x, p) of a ``value_at``, as floats; a
    non-finite coordinate raises ``ValueError``."""
    x, p = float(x), float(p)
    if not (math.isfinite(x) and math.isfinite(p)):
        raise ValueError(f"W is evaluated at a finite point, not ({x!r}, {p!r})")
    return x, p


def _by_rows(resolution: int, rows) -> np.ndarray:
    """A square grid filled in blocks of ``_SAMPLE_ROWS`` rows, ``rows(block)``
    giving the rows of the slice ``block``."""
    out = np.empty((resolution, resolution))
    for i in range(0, resolution, _SAMPLE_ROWS):
        block = slice(i, i + _SAMPLE_ROWS)
        out[block] = rows(block)
    return out


def _check_cov(cov: np.ndarray) -> None:
    """Rejects a finite covariance (or batch) that is not a positive-definite
    2x2 matrix symmetric to 1e-12 of its size, as a state's; it is not
    symmetrized, so an evolved sum keeps the rounding of S V S^T + N."""
    if cov.shape[-2:] != (2, 2):
        raise ValueError(f"covariance shape {cov.shape} is not (..., 2, 2)")
    _check_symmetric(cov, "covariance")
    if np.any(cov[..., 0, 0] <= 0) or np.any(np.linalg.det(cov) <= 0):
        raise ValueError("covariance must be a positive-definite 2x2 matrix")


@dataclass(frozen=True)
class WignerGrid:
    """Wigner samples values[i, j] = W(x_i, p_j) on a uniform grid.

    The axes follow the FFT convention x_i = -L + i * (2L / resolution), so the
    origin is a grid node and the resolution must be a power of two.  A grid
    built from outside arrays copies them and rejects a non-finite value.
    """

    half_extent: float
    resolution: int
    values: np.ndarray

    def __post_init__(self):
        res = self.resolution
        _check_size(self.half_extent, res)
        v = _frozen(self.values, "values")
        if v.shape != (res, res):
            raise ValueError(f"values shape {v.shape} does not match resolution {res}")
        object.__setattr__(self, "values", v)

    @property
    def step(self) -> float:
        return 2.0 * self.half_extent / self.resolution

    def axis(self) -> np.ndarray:
        return _axis(self.half_extent, self.resolution)

    def total_mass(self) -> float:
        return float(self.values.sum() * self.step ** 2)

    def value_at(self, x: float, p: float) -> float:
        """Bilinear interpolation; exact when (x, p) is a grid node.  A point
        far outside is first clipped to twice the half extent, still outside,
        so that its coordinate in grid steps cannot overflow."""
        bound = 2.0 * self.half_extent
        x, p = np.clip(_point(x, p), -bound, bound)
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
        if not (0 < self.alpha < math.inf and self.alpha * self.alpha > 0):
            raise ValueError("cat amplitude must be positive and finite, its square nonzero")
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

    A sum may hold a batch of states: ``means`` of shape ``(..., K, 2)`` and
    ``cov`` of shape ``(..., 2, 2)``, with ``log_weights`` of shape ``(K,)`` or
    ``(..., K)`` broadcasting against that batch.  ``value_at`` then returns
    an array of the batch's shape, each element equal bit for bit to the
    value of its state alone.
    """

    log_weights: np.ndarray
    means: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        fields = {"log_weights": _frozen(self.log_weights, "log_weights", complex),
                  "means": _frozen(self.means, "means", complex), "cov": _frozen(self.cov, "cov")}
        log_weights, means, cov = fields.values()
        if log_weights.ndim == 0 or means.shape[-2:] != (log_weights.shape[-1], 2):
            raise ValueError("need one complex 2-vector mean per weight")
        _check_cov(cov)
        if means.shape[:-2] != cov.shape[:-2]:
            raise ValueError(f"batch shapes {means.shape[:-2]} of the means and "
                             f"{cov.shape[:-2]} of the covariance differ")
        if np.broadcast_shapes(log_weights.shape[:-1], cov.shape[:-2]) != cov.shape[:-2]:
            raise ValueError(f"batch shape {log_weights.shape[:-1]} of the log-weights "
                             f"does not broadcast to {cov.shape[:-2]}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def cat(cls, spec: CatSpec) -> "GaussianSum":
        """Two coherent peaks at X = +/- 2 alpha plus the interference fringes
        cos(2 alpha p), normalized including the exp(-2 alpha^2) overlap of
        the two branches.  Each fringe term is a vacuum Gaussian centred at
        P = +/- 2 i alpha: exp(-(x^2 + (p -/+ 2 i alpha)^2) / 2) =
        exp(2 alpha^2) exp(-(x^2 + p^2) / 2 +/- 2 i alpha p)."""
        a = spec.alpha
        x = 2.0 * a * a
        # log1p(-e^-x) loses digits up to x = ln 2 (M. Maechler, Rmpfr vignette, 2012)
        small_odd = spec.sign < 0 and x <= math.log(2.0)
        log_norm = math.log(2.0) + (math.log(-math.expm1(-x)) if small_odd
                                    else math.log1p(spec.sign * math.exp(-x)))
        fringe = (complex(0.0, math.pi) if spec.sign < 0 else 0.0) - 2.0 * a * a - log_norm
        return cls([-log_norm, -log_norm, fringe, fringe],
                   [[2.0 * a, 0.0], [-2.0 * a, 0.0], [0.0, 2.0j * a], [0.0, -2.0j * a]],
                   np.eye(2))

    @classmethod
    def concatenate(cls, sums: Sequence["GaussianSum"]) -> "GaussianSum":
        """The states of ``sums`` (each batch flattened, one term count for all)
        in order, as one batch of shape ``(N,)`` whose log-weights carry it."""
        return _unchecked(
            cls, log_weights=np.concatenate([np.broadcast_to(s.log_weights, s.means.shape[:-1])
                                             .reshape(-1, s.means.shape[-2]) for s in sums]),
            means=np.concatenate([s.means.reshape(-1, *s.means.shape[-2:]) for s in sums]),
            cov=np.concatenate([s.cov.reshape(-1, 2, 2) for s in sums]))

    def evolve(self, channel: GaussianChannel) -> "GaussianSum":
        """Exact action of a single-mode Gaussian channel on every term:
        m -> S m + d and V -> S V S^T + N; the weights do not change.  A
        batched channel or sum gives their broadcast batch.

        The result is built unchecked, since a physical channel keeps the
        covariance positive definite and the shapes broadcast by
        construction; only its covariance's finiteness is checked."""
        if channel.layout.mode_count != 1:
            raise ValueError("the Wigner engine evolves single-mode channels")
        s = channel.matrix
        s_t = s.swapaxes(-1, -2)
        cov = s @ self.cov @ s_t + channel.cov
        if not np.isfinite(cov).all():
            raise ValueError("evolved covariance contains non-finite entries")
        return _unchecked(GaussianSum, log_weights=self.log_weights,
                          means=self.means @ s_t + channel.mean[..., None, :], cov=cov)

    def _values(self, x, p) -> np.ndarray:
        """W at the points (x, p), which broadcast against the batch."""
        inv = np.linalg.inv(self.cov)[..., None, :, :]  # shared by the K terms
        dx = np.asarray(x)[..., None] - self.means[..., 0]
        dp = np.asarray(p)[..., None] - self.means[..., 1]
        quad = (inv[..., 0, 0] * dx * dx + 2.0 * inv[..., 0, 1] * dx * dp
                + inv[..., 1, 1] * dp * dp)
        total = 0.0
        for term in np.moveaxis(np.exp(self.log_weights - 0.5 * quad), -1, 0):
            total = total + term  # term by term, in order, as a scalar sum adds
        return np.real(total) / (2.0 * math.pi * np.sqrt(np.linalg.det(self.cov)))

    def value_at(self, x: float, p: float) -> float | np.ndarray:
        """W(x, p): a float, or an array of the batch's shape for a batch."""
        values = self._values(*_point(x, p))
        return values if values.ndim else float(values)

    def sample(self, half_extent: float, resolution: int) -> WignerGrid:
        """The sum evaluated on the nodes of a grid."""
        if self.cov.ndim != 2:
            raise ValueError(f"a grid samples one state, not a batch of shape "
                             f"{self.cov.shape[:-2]}")
        ax = _axis(half_extent, resolution)
        values = _by_rows(resolution, lambda rows: self._values(ax[rows, None], ax))
        return _unchecked(WignerGrid, half_extent=half_extent, resolution=resolution,
                          values=values)


def _bilinear(values: np.ndarray, half_extent: float, step: float,
              xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Sample W at arbitrary points (any shape), zero outside the grid.  A
    point on the last row or column of nodes interpolates from the cell
    before it, so that every node reads its own value."""
    res = values.shape[0]
    fx = (xs + half_extent) / step
    fp = (ps + half_extent) / step
    i0 = np.clip(np.floor(fx), 0, res - 2).astype(int)
    j0 = np.clip(np.floor(fp), 0, res - 2).astype(int)
    tx = fx - i0
    tp = fp - j0
    inside = (fx >= 0) & (fx <= res - 1) & (fp >= 0) & (fp <= res - 1)
    k = i0 * res + j0  # flat index of corner 00
    flat = values.ravel()
    sx = 1 - tx
    sp = 1 - tp
    out = (flat.take(k) * sx * sp + flat.take(k + res) * tx * sp
           + flat.take(k + 1) * sx * tp + flat.take(k + res + 1) * tx * tp)
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        r2 = ax[:, None] ** 2 + ax[None, :] ** 2
        w = (-1.0) ** n * _LAGUERRE[n](r2) * np.exp(-0.5 * r2) / (2.0 * math.pi)
    if not np.isfinite(w).all():  # L_n(inf) * exp(-inf) at overflowing nodes
        raise ValueError(f"half extent {half_extent!r} overflows the Fock-state "
                         f"closed form at the grid's edge")
    return _unchecked(WignerGrid, half_extent=half_extent, resolution=resolution, values=w)


def wigner_cat(spec: CatSpec, half_extent: float = DEFAULT_HALF_EXTENT,
               resolution: int = DEFAULT_RESOLUTION) -> WignerGrid:
    """Cat-state Wigner function (see :meth:`GaussianSum.cat`) on a grid."""
    if spec.alpha > half_extent / 4.0:
        raise ValueError("cat peaks at +/- 2 alpha need alpha <= half_extent / 4")
    return GaussianSum.cat(spec).sample(half_extent, resolution)


def wigner_gaussian(mean: Sequence[float], cov: np.ndarray,
                    half_extent: float = DEFAULT_HALF_EXTENT,
                    resolution: int = DEFAULT_RESOLUTION) -> WignerGrid:
    """Gaussian Wigner function exp(-d^T V^-1 d / 2) / (2 pi sqrt(|V|)) of one
    state: a mean of shape (2,) and a covariance of shape (2, 2)."""
    mean, cov = _finite(mean, "mean"), _finite(cov, "covariance")
    if mean.shape != (2,) or cov.shape != (2, 2):
        raise ValueError(f"mean shape {mean.shape}, covariance shape {cov.shape}: "
                         f"need (2,), (2, 2)")
    _check_cov(cov)
    det = float(np.linalg.det(cov))
    inv = np.linalg.inv(cov)
    ax = _axis(half_extent, resolution)
    dx = ax[:, None] - mean[0]
    dp = ax[None, :] - mean[1]
    quad = inv[0, 0] * dx ** 2 + 2.0 * inv[0, 1] * dx * dp + inv[1, 1] * dp ** 2
    w = np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))
    return _unchecked(WignerGrid, half_extent=half_extent, resolution=resolution, values=w)


# ---------------------------------------------------------------------------
# channel application
# ---------------------------------------------------------------------------

def apply_gaussian_channel(grid: WignerGrid, channel: GaussianChannel) -> WignerGrid:
    """Exact one-step action of a single-mode Gaussian channel.

    W'(v) = |det S|^-1 W(S^-1 (v - d)) convolved with the Gaussian of
    covariance N.  Raises :class:`GridClippingError` if more than 1e-3 of the
    mass leaves the grid (or the mass is not finite); smaller drifts are
    renormalized away.  The resample runs in blocks of ``_SAMPLE_ROWS`` rows
    and the convolution in place, each value computed as one whole-grid pass
    would compute it.
    """
    if channel.layout.mode_count != 1:
        raise ValueError("the Wigner engine evolves single-mode channels")
    s = channel.matrix
    if s.ndim != 2:
        raise ValueError(f"the grid engine evolves one channel, not a batch of shape "
                         f"{s.shape[:-2]}")
    det = float(np.linalg.det(s))
    if abs(det) <= 1e-12:
        raise ValueError("singular channel map")
    s_inv = np.linalg.inv(s)
    d = channel.mean
    n = channel.cov

    ax = grid.axis()
    x = ax[:, None] - d[0]
    p = ax[None, :] - d[1]

    def resampled(rows):  # |det S|^-1 W(S^-1 (v - d)) on a block of rows
        return _bilinear(grid.values, grid.half_extent, grid.step,
                         s_inv[0, 0] * x[rows] + s_inv[0, 1] * p,
                         s_inv[1, 0] * x[rows] + s_inv[1, 1] * p) / abs(det)

    # the resampled grid is freed once transformed, so that it and the inverse
    # transform's arrays are never alive together
    spec = np.fft.rfft2(_by_rows(grid.resolution, resampled))

    # spectral convolution with the analytic Fourier transform of the kernel
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.resolution, d=grid.step)
    kp = 2.0 * math.pi * np.fft.rfftfreq(grid.resolution, d=grid.step)
    quad = (n[0, 0] * kx[:, None] ** 2 + 2.0 * n[0, 1] * kx[:, None] * kp[None, :]
            + n[1, 1] * kp[None, :] ** 2)
    spec *= np.exp(-0.5 * quad)
    w = np.fft.irfft2(spec, s=grid.values.shape)

    total = float(w.sum() * grid.step ** 2)
    drift = abs(1.0 - total)
    if not drift <= MASS_DRIFT_TOL:
        raise GridClippingError(
            f"probability mass drift {drift:.2e} exceeds {MASS_DRIFT_TOL} "
            "(state clipped by grid edges)")
    w /= total
    return _unchecked(WignerGrid, half_extent=grid.half_extent, resolution=grid.resolution,
                      values=w)


def negativity_eta(state: GaussianSum | WignerGrid) -> float | np.ndarray:
    """Normalized origin negativity max(-2 pi W(0, 0), 0), clamped to [0, 1 + 1e-6];
    an array, clamped element by element, for a batch of states."""
    eta = -2.0 * math.pi * np.asarray(state.value_at(0.0, 0.0))
    # min(max(eta, 0.0), 1 + 1e-6) element by element, keeping -0.0 and nan as
    # the builtins do
    eta = np.where(0.0 > eta, 0.0, np.where(eta > 1.0 + 1e-6, 1.0 + 1e-6, eta))
    return eta if eta.ndim else float(eta)


# ---------------------------------------------------------------------------
# cat-state metrics
# ---------------------------------------------------------------------------

# From this 2 alpha^2 on, e^(2 alpha^2) (1 + 4 alpha^2) nears the float
# maximum while e^(-2 alpha^2) is far below rounding, so the fringe closed
# forms divided through by e^(2 alpha^2) round to their alpha -> inf limits.
_EXP_SAFE = 700.0


def fringe_ellipse(alpha: float, mu: float) -> tuple[float, float]:
    """Semi-axes of the central negative fringe of a squeezed odd cat.

    Solves mu^2 x^2 / 2 * (4 a^2/(e^(2a^2)-1) + 1) + p^2/(2 mu^2) *
    (4 a^2/(1-e^(-2a^2)) + 1) = 1 for the axis intercepts.
    """
    if not (0 < alpha < math.inf and 0 < mu < math.inf):
        raise ValueError("alpha and mu must be positive and finite")
    a2 = 2.0 * alpha * alpha
    cx = 4.0 * alpha * alpha / math.expm1(a2) + 1.0 if a2 < _EXP_SAFE else 1.0
    cp = 4.0 * alpha * alpha / (-math.expm1(-a2)) + 1.0
    return math.sqrt(2.0 / cx) / mu, mu * math.sqrt(2.0 / cp)


def mu_opt(alpha: float) -> float:
    """Squeeze factor that makes the central fringe circular."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    a2 = 2.0 * alpha * alpha
    if a2 >= _EXP_SAFE:
        return math.sqrt(math.hypot(1.0, 2.0 * alpha))  # (1 + 4 alpha^2)^(1/4)
    e = math.exp(a2)
    return ((e * (1.0 + 2.0 * a2) - 1.0) / (e + 2.0 * a2 - 1.0)) ** 0.25


@dataclass(frozen=True)
class HalfLifeResult:
    tau: float
    reached: bool
    eta_initial: float


def eta_at(state0: GaussianSum | WignerGrid, loss: LossConfig, t: float) -> float:
    """Negativity after damped thermal evolution for time t, in one exact step
    from the t = 0 state."""
    return negativity_eta(state0.evolve(damped_evolution(loss, t)))


def eta_series(state0: GaussianSum, loss: LossConfig, times: Sequence[float]) -> np.ndarray:
    """eta(t) over a time grid; each sample evolves from t = 0 independently.

    The sum evolves once per block of up to ``ETA_BLOCK`` samples, through one
    batched damped channel, so memory stays flat however many samples there
    are; every element equals :func:`eta_at` at its time bit for bit.  A
    :class:`WignerGrid` raises the grid engine's ``ValueError`` for a batched
    channel.
    """
    times = np.asarray(times, dtype=float)
    etas = np.empty(times.shape)
    for i in range(0, times.size, ETA_BLOCK):
        block = times[i:i + ETA_BLOCK]
        etas[i:i + ETA_BLOCK] = negativity_eta(state0.evolve(damped_evolution(loss, block)))
    return etas


def _etas(states: GaussianSum, index: list[int], loss: LossConfig,
          times: np.ndarray) -> np.ndarray:
    """eta of the states ``index`` of a concatenated batch at ``times``, shared
    (T,) or one row per state (len(index), T), in one batched evolution."""
    rows = _unchecked(GaussianSum, log_weights=states.log_weights[index, None],
                      means=states.means[index, None], cov=states.cov[index, None])
    return negativity_eta(rows.evolve(damped_evolution(loss, times)))


def half_life(state0: GaussianSum, loss: LossConfig, samples_per_period: int = 64,
              max_periods: float = 40.0) -> HalfLifeResult | list[HalfLifeResult]:
    """Time for the origin negativity to fall to 1/2 (absolute threshold).

    Scans eta(t) at ``samples_per_period`` per mechanical period (each sample
    one exact propagation from t = 0), then bisects ``BISECTIONS`` (20) times
    between the first sample below 1/2 and the one before it.  A batch of
    shape ``(B,)`` gives a list of B results: its states share one damped
    channel per block of ``ETA_BLOCK`` scan times and per bisection step, and
    each result equals one :func:`eta_at` per sample and step of its state
    alone, bit for bit.  Anything but a :class:`GaussianSum` of batch shape
    ``()`` or ``(B,)`` is rejected.  A state that starts below 1/2 (an even
    cat, or a heavily lossy pre-squeezed one) gets tau = 0 with
    ``reached=True``; one that does not cross within ``max_periods`` gets the
    horizon with ``reached=False``.  ``samples_per_period`` must be finite and
    at least 64, ``max_periods`` finite and positive.
    """
    if not isinstance(state0, GaussianSum):
        raise ValueError(f"half_life scans a batch of times, which a "
                         f"{type(state0).__name__} cannot evolve; pass a GaussianSum")
    batch = state0.cov.shape[:-2]
    if len(batch) > 1:
        raise ValueError(f"half_life searches a batch of shape () or (B,), not {batch}")
    if not 64 <= samples_per_period < math.inf:
        raise ValueError(f"samples_per_period = {samples_per_period!r}: need a finite "
                         f"number of at least 64 samples per mechanical period")
    if not 0 < max_periods < math.inf:
        raise ValueError(f"max_periods = {max_periods!r} must be positive and finite")
    states = GaussianSum.concatenate([state0])
    eta0 = negativity_eta(states).tolist()
    period = 2.0 * math.pi / loss.omega_m
    dt = period / samples_per_period
    horizon = max_periods * period
    # dt, 2 dt, ... by repeated addition, in blocks
    times = itertools.takewhile(lambda t: t <= horizon,
                                itertools.accumulate(itertools.repeat(dt)))
    scanning = [i for i, eta in enumerate(eta0) if eta >= 0.5]
    brackets = {}  # state -> the samples around its first eta below 1/2
    t_lo = 0.0
    while scanning and (block := list(itertools.islice(times, ETA_BLOCK))):
        for i, below in zip(scanning, _etas(states, scanning, loss, block) < 0.5):
            if below.any():
                k = int(below.argmax())
                brackets[i] = (block[k - 1] if k else t_lo, block[k])
        scanning = [i for i in scanning if i not in brackets]
        t_lo = block[-1]
    taus = {i: 0.0 for i, eta in enumerate(eta0) if eta < 0.5}
    if brackets:
        index = list(brackets)
        lo, hi = np.array(list(brackets.values())).T
        for _ in range(BISECTIONS):  # the scalar step of every crossing state at once
            mid = 0.5 * (lo + hi)
            above = _etas(states, index, loss, mid[:, None])[:, 0] >= 0.5
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        taus.update(zip(index, (0.5 * (lo + hi)).tolist()))
    results = [HalfLifeResult(taus.get(i, horizon), i in taus, eta)
               for i, eta in enumerate(eta0)]
    return results if batch else results[0]


# ---------------------------------------------------------------------------
# grid export
# ---------------------------------------------------------------------------

_U32 = np.uint64(0xFFFFFFFF)


@functools.cache
def _ryu_table() -> tuple[np.ndarray, ...]:
    """Ryu's constants for each biased exponent of a double (U. Adams, "Ryu:
    fast float-to-string conversion", PLDI 2018; the e2 < 0 branch of d2s).

    For an exponent below 2^53 it holds the top 125 bits of 5^i as four
    32-bit limbs (shape (4, 2048)), the shift j - 96 of the product
    m * 5^i / 2^j (22 to 26), the decimal exponent e10 and the mask of the q
    low bits of mv that Ryu's trailing-zero path tests: a value whose mv has
    none of them set, which includes every value with q <= 1, goes to
    ``repr``.  Every other exponent (|x| >= 2^53, inf and nan) gets mask 0,
    which sends all its values there.  Last come the powers 1 .. 10^19 that
    divide out removed digits and, by the biased exponent of a double
    2^k <= d < 2^(k+1), the digits of 2^k and the power of ten that adds one.
    """
    limbs = np.zeros((4, 2048), np.uint64)
    shift = np.zeros(2048, np.uint64)
    e10 = np.zeros(2048, np.int16)
    mask = np.zeros(2048, np.uint64)
    for biased in range(1076):  # 2^53 has biased exponent 1076
        e2 = max(biased, 1) - 1077  # bias 1023, 52 mantissa bits, 2 bits for the bounds
        q = (-e2 * 732923 >> 20) - (e2 < -1)  # floor(log10(5^-e2)), less one below -1
        five = 5 ** (-e2 - q)
        top = (five << 125) >> five.bit_length()
        limbs[:, biased] = [top >> (32 * k) & 0xFFFFFFFF for k in range(4)]
        shift[biased] = q - (five.bit_length() - 125) - 96
        e10[biased] = q + e2
        mask[biased] = (1 << min(q, 63)) - 1  # mv, a multiple of 4, passes any q <= 2
    pow10 = np.array([10 ** k for k in range(20)], np.uint64)
    digits = np.ones(2048, np.int16)
    digits[1023:1087] = [len(str(2 ** k)) for k in range(64)]
    return limbs, shift, e10, mask, pow10, digits, pow10[digits]


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ryu's shortest digits of the doubles with these bits: the digits as an
    integer with n digits, n, and decpt, where the value is
    0.d1..dn * 10^decpt, each one the shortest that reads back to the same
    double and of those the closest to it, as ``repr`` writes it.

    The last array marks the values that would take Ryu's trailing-zero path
    (a short binary fraction such as 0.5 or an integer), the zeros and
    |x| >= 2^53 (inf and nan too); they read 0 with n = 1 and decpt = 1, and
    are left to ``repr``.  One pass over the limbs of the power of five gives
    all three bounds.  Digits go while (vm, vp] holds a multiple of 10^k:
    k = 1, 2 and 3 are tested on every value, and only the values past 3 go
    on one digit at a time.  Every array in the uint64 arithmetic is uint64:
    numpy < 2 turns uint64 with int64 into float64, which drops bits.
    """
    limbs, shift, e10, mask, pow10, digits, above = _ryu_table()
    biased = (bits >> 52).astype(np.int16) & 0x7FF
    mant = bits & 0xFFFFFFFFFFFFF
    s = (mant != 0) | (biased <= 1)
    mm = np.where(biased > 0, mant | (1 << 52), mant) << 2
    exact = (mm & mask.take(biased)) == 0
    mm -= s
    mm -= 1  # mm = mv - 1 - s is the lower bound, mv the value, mm + 3 + s the upper
    high = mm >> 32
    mm &= _U32
    # column b sums the low half of mm * A_b, the high half of mm * A_(b-1)
    # and all of high * A_(b-1) (below 2^55); each running sum stays below 2^57
    carry = vm = vr = vp = 0
    for row in limbs:
        limb = row.take(biased)
        low = mm * limb
        col = (low & _U32) + carry
        carry = (low >> 32) + high * limb
        vm = col + (vm >> 32)
        col += limb << s
        vr = col + (vr >> 32)
        col += limb << 1
        vp = col + (vp >> 32)
    del mm, high, low, col, limb  # a block's peak memory is paid in page faults
    # carry is the column of 2^128; floor(sum / 2^(96 + shift)) is below 2^62
    shift = shift.take(biased)
    vm, vr, vp = (((carry + (t >> 32)) << (32 - shift)) | ((t & _U32) >> shift)
                  for t in (vm, vr, vp))

    # remove the most digits k that leave a multiple of 10^k in (vm, vp]
    removed = np.zeros(bits.size, np.int16)
    for k in (10, 100, 1000):
        removed += vp // k > vm // k
    live = np.flatnonzero(removed == 3)
    live_p, live_m = vp[live] // 1000, vm[live] // 1000
    while live.size:
        live_p, live_m = live_p // 10, live_m // 10
        cut = live_p > live_m
        live, live_p, live_m = live[cut], live_p[cut], live_m[cut]
        removed[live] += 1
    # round up when the removed digits are at least half a unit, or vr's
    # digits would read vm, which is outside the interval
    scale = pow10.take(removed)
    out = vr // scale
    out += (out * scale <= vm) | (vr - out * scale >= (scale + 1) // 2)
    out[exact] = 0
    e = out.astype(np.float64).view(np.int64) >> 52
    n = digits.take(e) + (out >= above.take(e))
    decpt = n + e10.take(biased) + removed
    decpt[exact] = 1
    return out, n, decpt, exact


def _csv_rows(rows: np.ndarray) -> np.ndarray:
    """The CSV lines of a 2-D block of floats as a uint8 array, each value
    written as ``repr`` writes it: the digits of :func:`_shortest` laid out
    by array operations, one digit of every value a pass, and the values it
    leaves to ``repr`` by ``repr``."""
    bits = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1).view(np.uint64)
    out, n, decpt, exact = _shortest(bits)

    # repr uses the exponent form when decpt <= -4 (or decpt > 16, which
    # takes |x| >= 2^53); a value left to repr is laid out as "0.0" here and
    # then overwritten
    sci = decpt <= -4
    neg = (bits >> 63).astype(np.int16)
    dot = neg + np.maximum(decpt, 1)  # the '.' of every layout
    raw = dot - np.where(sci, 1, decpt) + n - 1  # the last digit, before the '.'
    inner = raw >= dot
    last = raw + inner
    length = np.where(sci, last + 5 + (decpt <= -99), np.maximum(last + 1, dot + 2))
    fallback = np.flatnonzero(exact)
    reprs = [repr(v).encode() for v in bits[fallback].view(np.float64).tolist()]
    length[fallback] = [len(r) for r in reprs]
    end = np.cumsum(length + 1, dtype=np.intp) - 1  # each value's ','
    start = end - length
    # zeros become the padding '0's; one more byte for stray writes
    buf = np.zeros(end[-1] + 2, np.uint8)

    # digits from the right with no gap for an inner '.'; the zero digits
    # beyond the n-th land on padding zeros, on bytes written after this loop
    # (a sign, the '.') or, clipped, on the byte before the value, its ','
    # (the spare last byte for the first)
    high = out // 100_000_000
    half = (out - high * 100_000_000).astype(np.uint32)
    pos, floor = start + last, start - 1
    for k in range(int(n.max())):
        if k == 8:
            half = high.astype(np.uint32)
        tens = half // 10
        buf[np.maximum(pos, floor)] = (half - tens * 10).astype(np.uint8)
        half = tens
        pos -= 1
    del out, high, half
    # then the digits before an inner '.' move one byte left, onto the zero
    # the loop left there
    count, first = np.where(inner, dot - last + n, 0), start + (last - n)
    for j in range(int(count.max())):
        pos = first[count > j] + j
        buf[pos] = buf[pos + 1]
    # the exponent's units, tens and hundreds (a two-digit power's 0 on its
    # '-'), on the ',' of a value without one
    power, pos = 1 - decpt, end
    for _ in range(3):
        pos = pos - sci
        tens = power // 10
        buf[pos] = (power - tens * 10).astype(np.uint8)
        power = tens
    buf += ord("0")
    # each mark lands, for a value without it, on a byte written after it
    buf[floor + neg] = ord("-")
    buf[start + dot] = ord(".")
    pos -= decpt <= -99
    buf[pos] = ord("-")
    buf[pos - sci] = ord("e")
    buf[end] = ord(",")
    buf[end[rows.shape[-1] - 1::rows.shape[-1]]] = ord("\n")
    text = np.frombuffer(b"".join(reprs), np.uint8)
    lengths = length[fallback]
    buf[np.repeat(start[fallback] - np.cumsum(lengths) + lengths, lengths)
        + np.arange(text.size)] = text
    return buf[:-1]


def grid_to_csv(grid: WignerGrid, path) -> None:
    """Write samples as CSV with a two-line header (half extent, resolution).

    Row i holds W(x_i, p_j) for all j.  Each value is written exactly as
    Python's ``repr`` writes it (the shortest digits that read back to the
    same float), by a vectorized kernel over blocks of ``_SAMPLE_ROWS`` rows.
    """
    with open(path, "wb") as fh:
        fh.write(f"# half_extent,{grid.half_extent!r}\n"
                 f"# resolution,{grid.resolution}\n".encode())
        for i in range(0, grid.resolution, _SAMPLE_ROWS):
            fh.write(_csv_rows(grid.values[i:i + _SAMPLE_ROWS]))


def grid_from_csv(path) -> WignerGrid:
    """The grid a :func:`grid_to_csv` file holds; a missing header or a
    non-finite value raises ``ValueError``."""
    with open(path, "r", encoding="utf-8") as fh:
        header1 = fh.readline().strip()
        header2 = fh.readline().strip()
        if not (header1.startswith("# half_extent,") and header2.startswith("# resolution,")):
            raise ValueError("not a Wigner grid CSV (missing header)")
        half_extent = float(header1.split(",", 1)[1])
        resolution = int(header2.split(",", 1)[1])
        values = np.loadtxt(fh, delimiter=",").reshape(resolution, resolution)
    return WignerGrid(half_extent, resolution, values)
