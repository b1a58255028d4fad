"""Gaussian channels X' = M X + F on the quadrature vector of a mode layout.

Every element of the protocol, a QND pulse, an optical quarter turn, the
damped mechanical delay or the delay-line loss, is one
:class:`GaussianChannel`: a real 2N x 2N matrix M plus Gaussian noise F with
a mean drift and a covariance.  Lossless constructors (QND pulses, rotations,
scalings) return noiseless channels; lossy ones (beamsplitter, damped
evolution) complete the missing commutator with their noise.  All values are
immutable, every operation is a pure function, and :func:`compose` is the one
way to chain them.

A channel checks structure only (shape, finiteness, noise symmetry).  It may
carry a leading batch axis (``(..., d, d)`` matrix and covariance,
``(..., d)`` mean), checked once per object.  The lossless constructors and
``compose`` broadcast over it; the loss constructors take one scalar
:class:`LossConfig`.

A channel is physical when it is completely positive, which
:func:`is_physical` tests exactly and composition preserves.  The named
constructors guarantee that, the loss ones through the rules of the
:class:`LossConfig` they take, except for the momentum-damped delay at low
bath occupancy, which ``ExperimentConfig.validate`` rejects.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .modes import MECH, MECH_OPT, ModeLayout, symplectic_form

# Rounding allowance of the complete-positivity test, relative to the size of
# its terms.  An absolute one would pass the damped delay at nbar_m = 0 for
# large q, whose violation shrinks as 1/q.
CP_RTOL = 64.0 * float(np.finfo(float).eps)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _same_batch(*batches: tuple) -> None:
    """The arrays of one value either share a batch shape or have none."""
    shapes = set(batches)
    shapes.discard(())
    if len(shapes) > 1:
        raise ValueError(f"batch shapes {batches} differ")


@functools.cache
def _eye(d: int) -> np.ndarray:
    return _frozen(np.eye(d))


@functools.cache
def _zero_noise(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The zero mean and covariance; immutable, so one pair per dimension."""
    return _frozen(np.zeros(d)), _frozen(np.zeros((d, d)))


def _identity(batch: tuple, d: int) -> np.ndarray:
    return np.zeros(batch + (d, d)) + _eye(d)


def _transpose(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


@dataclass(frozen=True)
class GaussianChannel:
    """Channel X' = M X + F on ``layout``: the real 2N x 2N ``matrix`` M and
    Gaussian noise F with ``mean`` and symmetric ``cov``, or a batch of them
    with shapes ``(..., 2N, 2N)``, ``(..., 2N)`` and ``(..., 2N, 2N)``."""

    matrix: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    layout: ModeLayout

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        d = self.layout.dim
        if m.shape[-2:] != (d, d):
            raise ValueError(f"map shape {m.shape} does not match layout dim {d}")
        if not np.isfinite(m).all():
            raise ValueError("map contains non-finite entries")
        object.__setattr__(self, "matrix", _frozen(m))
        zero_mean, zero_cov = _zero_noise(d)
        if self.mean is zero_mean and self.cov is zero_cov:  # shared, already checked
            return
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape[-1:] != (d,) or cov.shape[-2:] != (d, d):
            raise ValueError(f"noise shapes {mean.shape}, {cov.shape} do not match "
                             f"layout dim {d}")
        _same_batch(m.shape[:-2], mean.shape[:-1], cov.shape[:-2])
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("noise contains non-finite entries")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - _transpose(cov))) > 1e-12 * scale:
            raise ValueError("noise covariance is not symmetric")
        object.__setattr__(self, "mean", _frozen(mean))
        object.__setattr__(self, "cov", _frozen(0.5 * (cov + _transpose(cov))))

    def symplectic_defect(self) -> float:
        """Max-norm of M Omega M^T - Omega over the batch; ~0 for lossless maps."""
        omega = symplectic_form(self.layout.mode_count)
        return float(np.max(np.abs(self.matrix @ omega @ _transpose(self.matrix) - omega)))

    def is_symplectic(self) -> bool:
        return self.symplectic_defect() < 1e-10

    def block(self, rows: str, cols: str) -> np.ndarray:
        """2x2 sub-block of M: quadratures of mode ``rows`` driven by mode ``cols``."""
        i = self.layout.x_index(rows)
        j = self.layout.x_index(cols)
        return self.matrix[..., i:i + 2, j:j + 2].copy()


def _noiseless(m: np.ndarray, layout: ModeLayout) -> GaussianChannel:
    return GaussianChannel(m, *_zero_noise(layout.dim), layout)


# ---------------------------------------------------------------------------
# lossless constructors
# ---------------------------------------------------------------------------

def _qnd(chi, entries: Sequence[tuple[int, int]]) -> GaussianChannel:
    """Identity on (mech, opt) with ``chi`` at each (row, column) of ``entries``."""
    chi = np.asarray(chi, dtype=float)
    m = _identity(chi.shape, MECH_OPT.dim)
    for i, j in entries:
        m[..., i, j] = chi
    return _noiseless(m, MECH_OPT)


def qnd_xx(chi) -> GaussianChannel:
    """Position-position QND pulse on (mech, opt): both X unchanged,
    P_opt += chi X_mech, P_mech += chi X_opt.  An array ``chi`` gives a batch."""
    layout = MECH_OPT
    return _qnd(chi, ((layout.p_index("opt"), layout.x_index("mech")),
                      (layout.p_index("mech"), layout.x_index("opt"))))


def qnd_pp(chi) -> GaussianChannel:
    """Momentum-momentum QND pulse on (mech, opt): both P unchanged,
    X_opt += chi P_mech, X_mech += chi P_opt.  An array ``chi`` gives a batch."""
    layout = MECH_OPT
    return _qnd(chi, ((layout.x_index("opt"), layout.p_index("mech")),
                      (layout.x_index("mech"), layout.p_index("opt"))))


def rotation(mode: str, angle, layout: ModeLayout = MECH_OPT) -> GaussianChannel:
    """Phase-space rotation of one mode; an array ``angle`` gives a batch.

    Sign convention, fixed package-wide: X -> X cos(a) + P sin(a) and
    P -> -X sin(a) + P cos(a), so ``rotation(mode, pi/2)`` maps X -> P and
    P -> -X.  Free mechanical evolution through an angle ``omega * t`` uses the
    same convention (it is the zero-damping limit of :func:`damped_evolution`).
    """
    angle = np.asarray(angle, dtype=float)
    if not np.isfinite(angle).all():
        raise ValueError("non-finite rotation angle")
    c, s = np.cos(angle), np.sin(angle)
    m = _identity(angle.shape, layout.dim)
    i = layout.x_index(mode)
    m[..., i, i] = m[..., i + 1, i + 1] = c
    m[..., i, i + 1] = s
    m[..., i + 1, i] = -s
    return _noiseless(m, layout)


def quadrature_scaling(sx, sp, mode: str = "mech",
                       layout: ModeLayout = MECH) -> GaussianChannel:
    """diag(sx, sp) on one mode; symplectic iff sx * sp = 1.  Arrays give a batch."""
    sx, sp = np.broadcast_arrays(np.asarray(sx, dtype=float), np.asarray(sp, dtype=float))
    m = _identity(sx.shape, layout.dim)
    i = layout.x_index(mode)
    m[..., i, i] = sx
    m[..., i + 1, i + 1] = sp
    return _noiseless(m, layout)


def qnd_xx_collective(couplings: Sequence[float], chi_total: float,
                      layout: ModeLayout) -> GaussianChannel:
    """X-X QND pulse addressing every mechanical mode of ``layout`` (all modes
    but ``"opt"``, in layout order) through the optical mode.

    The optical phase picks up the coupling-weighted collective position
    chi_total * (sum_j g_j X_j) / (sum_j g_j), and each mechanical momentum
    receives its share chi_j = chi_total * g_j / sum(g) of the back-action, so
    the collective (X, P) pair stays canonically conjugate.  With a single
    mechanical mode this reduces to :func:`qnd_xx`.
    """
    if not math.isfinite(chi_total):
        raise ValueError("non-finite pulse strength")
    mech_modes = [lab for lab in layout.labels if lab != "opt"]
    g = np.asarray(couplings, dtype=float)
    if len(mech_modes) < 1:
        raise ValueError("need at least one mechanical mode")
    if g.shape != (len(mech_modes),):
        raise ValueError("one coupling per mechanical mode required")
    if np.any(g < 0):
        raise ValueError("couplings must be nonnegative")
    total = g.sum()
    if total <= 0:
        raise ValueError("all couplings are zero")
    m = np.eye(layout.dim)
    ip_l = layout.p_index("opt")
    for lab, gj in zip(mech_modes, g):
        chi_j = chi_total * gj / total
        m[layout.p_index(lab), layout.x_index("opt")] += chi_j
        m[ip_l, layout.x_index(lab)] += chi_j
    return _noiseless(m, layout)


# ---------------------------------------------------------------------------
# loss model and the lossy constructors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossConfig:
    """Loss model of every lossy element: mechanical damping ``gamma`` (omega_m
    / Q) with bath occupancy ``nbar_m``, and delay-line beamsplitter loss
    ``epsilon`` with bath occupancy ``nbar_l``.

    Every field is finite, gamma and both occupancies are nonnegative, omega_m
    is positive, gamma < 2 omega_m (no overdamped mechanics) and epsilon lies
    in [0, 1].  The constructors below rely on these rules and check none of
    them again.
    """

    gamma: float = 0.0
    omega_m: float = 1.0
    nbar_m: float = 0.0
    epsilon: float = 0.0
    nbar_l: float = 0.0

    def __post_init__(self):
        values = (self.gamma, self.omega_m, self.nbar_m, self.epsilon, self.nbar_l)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"loss parameters {values} must be finite")
        if min(self.gamma, self.nbar_m, self.epsilon, self.nbar_l) < 0:
            raise ValueError("loss parameters must be nonnegative")
        if self.omega_m <= 0:
            raise ValueError("mechanical frequency must be positive")
        if self.gamma >= 2.0 * self.omega_m:
            raise ValueError("overdamped mechanics not supported")
        if self.epsilon > 1.0:
            raise ValueError("loss fraction above 1")

    @classmethod
    def from_q(cls, q: float, nbar_m: float = 0.0, epsilon: float = 0.0,
               nbar_l: float = 0.0, omega_m: float = 1.0) -> "LossConfig":
        if q <= 0:
            raise ValueError("quality factor must be positive")
        return cls(gamma=omega_m / q, omega_m=omega_m, nbar_m=nbar_m,
                   epsilon=epsilon, nbar_l=nbar_l)

    @property
    def sigma(self) -> float:
        """Damping-induced retardation factor sqrt(1 - gamma^2 / 4 omega_m^2)."""
        g = self.gamma / (2.0 * self.omega_m)
        return math.sqrt(1.0 - g * g)


LOSSLESS = LossConfig()


def damped_evolution(loss: LossConfig, t: float,
                     layout: ModeLayout = MECH) -> GaussianChannel:
    """Exact channel of the damped thermal mechanics over time ``t``.

    Solves Xdot = omega P, Pdot = -omega X - gamma P plus the bath's momentum
    noise, with omega, gamma and nbar_m from ``loss``.  The map carries an
    overall e^(-gamma t / 2) decay on a rotation through sigma * omega * t; its
    determinant is exactly e^(-gamma t), and gamma = 0 gives
    ``rotation("mech", omega * t)``.

    The noise has zero mean.  Its covariance vanishes at t = 0, equilibrates
    to (2 nbar + 1) I for t >> 1/gamma, and at short times is dominated by the
    momentum entry 2 gamma t (2 nbar + 1); the position entry grows as t^3.
    It is written in expm1 form so the small-t cancellations stay accurate.

    Momentum-only damping is the high-temperature Brownian-motion model: the
    channel is not completely positive unless roughly (2 nbar_m + 1) omega t
    exceeds sqrt(3).
    """
    if t < 0:
        raise ValueError("negative evolution time")
    gamma, omega = loss.gamma, loss.omega_m
    sig = loss.sigma
    g = gamma / (2.0 * omega)
    a = sig * omega * t
    d = math.exp(-gamma * t / 2.0)
    c, s = math.cos(a), math.sin(a)
    i = layout.x_index("mech")
    m = np.eye(layout.dim)
    m[i:i + 2, i:i + 2] = d * np.array([[c + (g / sig) * s, s / sig],
                                        [-s / sig, c - (g / sig) * s]])
    sig2 = sig * sig
    decay = math.exp(-gamma * t)
    em1 = -math.expm1(-gamma * t)  # 1 - e^(-gamma t)
    c2, s2 = math.cos(2 * a), math.sin(2 * a)
    n_total = 2.0 * loss.nbar_m + 1.0
    v11 = n_total / sig2 * (em1 + g * g * (decay * c2 - 1.0) - decay * g * sig * s2)
    v22 = n_total / sig2 * (em1 + g * g * (decay * c2 - 1.0) + decay * g * sig * s2)
    v12 = n_total * 2.0 * g / sig2 * decay * math.sin(a) ** 2
    cov = np.zeros((layout.dim, layout.dim))
    cov[i:i + 2, i:i + 2] = [[v11, v12], [v12, v22]]
    return GaussianChannel(m, np.zeros(layout.dim), cov, layout)


def damped_delay(phi: float, loss: LossConfig, layout: ModeLayout = MECH) -> GaussianChannel:
    """Damped thermal evolution of the mechanics while it rotates through
    phi, which takes t = phi / (sigma * omega_m)."""
    t = phi / (loss.sigma * loss.omega_m)
    return damped_evolution(loss, t, layout)


def beamsplitter_loss(loss: LossConfig) -> GaussianChannel:
    """Beamsplitter loss on the light of (mech, opt): both optical quadratures
    scaled by sqrt(1 - epsilon), with thermal noise of variance
    epsilon * (2 nbar_l + 1) coupled in."""
    layout = MECH_OPT
    amp = math.sqrt(1.0 - loss.epsilon)
    m = np.eye(layout.dim)
    i = layout.x_index("opt")
    m[i, i] = m[i + 1, i + 1] = amp
    cov = np.zeros((layout.dim, layout.dim))
    cov[i, i] = cov[i + 1, i + 1] = loss.epsilon * (2.0 * loss.nbar_l + 1.0)
    return GaussianChannel(m, np.zeros(layout.dim), cov, layout)


# ---------------------------------------------------------------------------
# composition and physicality
# ---------------------------------------------------------------------------

def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product over broadcast batch axes."""
    return (m @ v[..., None])[..., 0]


def compose(channels: Iterable[GaussianChannel]) -> GaussianChannel:
    """Compose channels in temporal (left-to-right) order.

    The map is the product of maps; noise injected by earlier stages is
    propagated through every later map, N_total = sum_i M_later N_i M_later^T.
    Batched and unbatched stages broadcast against each other.  The noise
    stays the shared zero until the first noisy stage, so noiseless stages
    compose to a noiseless channel.
    """
    channels = list(channels)
    if not channels:
        raise ValueError("nothing to compose")
    layout = channels[0].layout
    d = layout.dim
    zero_mean, zero_cov = _zero_noise(d)
    m_tot, mean_tot, cov_tot = np.eye(d), zero_mean, zero_cov
    for ch in channels:
        if ch.layout != layout:
            raise ValueError("layout mismatch in channel composition")
        m = ch.matrix
        m_tot = m @ m_tot
        if cov_tot is not zero_cov or ch.cov is not zero_cov:
            cov_tot = m @ cov_tot @ _transpose(m) + ch.cov
            mean_tot = _apply(m, mean_tot) + ch.mean
    if cov_tot is zero_cov:
        return GaussianChannel(m_tot, zero_mean, zero_cov, layout)
    return GaussianChannel(m_tot, mean_tot, 0.5 * (cov_tot + _transpose(cov_tot)), layout)


def is_physical(channel: GaussianChannel) -> bool:
    """Complete positivity: N + i Omega - i M Omega M^T >= 0, to rounding.

    This is the exact condition for the channel (M, N) to map every physical
    state, including the halves of entangled ones, to a physical state.  For
    one mode it reads N >= 0 and det N >= (1 - det M)^2.  The tolerance is
    ``CP_RTOL`` (64 machine epsilons) times the size of the terms: 1, the
    2N-term sums of M Omega M^T (each at most max|M|^2) and max|N|.  A batch
    is physical when every element is, each against its own tolerance.
    """
    omega = symplectic_form(channel.layout.mode_count)
    m = channel.matrix
    n = channel.cov
    h = n + 1j * (omega - m @ omega @ _transpose(m))
    scale = np.maximum(np.maximum(1.0, m.shape[-1] * np.max(np.abs(m), axis=(-2, -1)) ** 2),
                       np.max(np.abs(n), axis=(-2, -1)))
    return bool(np.all(np.linalg.eigvalsh(h).min(axis=-1) >= -CP_RTOL * scale))
