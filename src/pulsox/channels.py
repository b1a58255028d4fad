"""Gaussian channels X' = M X + F on the quadrature vector of a mode layout.

Every element of the protocol, a QND pulse, an optical quarter turn, the
damped mechanical delay or the delay-line loss, is one
:class:`GaussianChannel`: a real 2N x 2N matrix M plus Gaussian noise F with
a mean drift and a covariance.  Lossless constructors (QND pulses, rotations,
scalings) return noiseless channels; lossy ones (beamsplitter, damped
evolution) complete the missing commutator with their noise.  All values are
immutable, every operation is a pure function, and :func:`compose` is the one
way to chain them.  An X-X pulse couples one mechanical mode of a layout to
``"opt"``; a pulse on several mechanical modes is the composition of one per
mode.

Input is checked where it enters.  An outside array passes one gate,
``_frozen``, which rejects a non-finite entry by name and stores a read-only
copy; ``GaussianChannel(...)`` then checks shapes and noise symmetry.  The
named constructors check their scalar input and build their channel with
``_unchecked`` (README, Conventions); noiseless ones share the
``_zero_noise(d)`` pair.  :func:`compose` checks layouts and the finiteness
of its result.

A channel may carry a leading batch axis (``(..., d, d)`` matrix and
covariance, ``(..., d)`` mean).  The lossless constructors and
``compose`` broadcast over it; the loss constructors take one scalar
:class:`LossConfig`, and :func:`damped_evolution` also takes an array of
times.

A channel is physical when it is completely positive, which
:func:`is_physical` tests exactly and composition preserves.  The named
constructors guarantee that, the loss ones through the rules of the
:class:`LossConfig` they take, except for the momentum-damped delay at low
bath occupancy, which ``ExperimentConfig.validate`` rejects over the
squeezer's delay and over cat-decay's first sample time by
:func:`damped_is_physical`.
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

# The squeeze factors mu that every schedule, target, closed form and config
# key accepts: rounding a pulse strength is a pulse-strength error that grows
# with the squeezing.
MU_RANGE = (1e-3, 1e3)
MU_RULE = ("must lie in [1e-3, 1e3]: beyond, the float-rounded schedule departs from the "
           "real-number protocol (its infidelity by 1.9e-6 relative at 1e-3, 40% at 1e-4)")

# The ancilla squeezed variances schedule_for_mu and the config key accept, 40 dB
# either way, measured against the exact rational oracle of the vacuum
# infidelity in tests/test_squeezer.py at the default phi.
ANCILLA_VSQ_RANGE = (1e-4, 1e4)
ANCILLA_VSQ_RULE = ("must lie in [1e-4, 1e4], 40 dB either way: beyond, the infidelity departs "
                    "from the exact one (by 2e-6 relative at 1e-4 and mu = 1e-3, 7% at 1e-12), "
                    "and the default fidelity sweep has no value at 1e-17 and 1e19")


def _finite(values, what: str, dtype=float) -> np.ndarray:
    """``values`` as an array of ``dtype``; a non-finite entry raises, naming ``what``."""
    values = np.asarray(values, dtype=dtype)
    if not (math.isfinite(values) if values.ndim == 0 and dtype is float
            else np.isfinite(values).all()):
        raise ValueError(f"non-finite {what}")
    return values


def _frozen(a, what: str, dtype=float) -> np.ndarray:
    """A read-only copy of ``a`` as an array of ``dtype`` with no non-finite
    entry (:func:`_finite`): the one gate an outside array passes."""
    a = np.array(_finite(a, what, dtype))
    a.flags.writeable = False
    return a


def _unchecked(cls, **fields):
    """The instance of the frozen dataclass ``cls`` holding ``fields``, which
    are valid by construction: neither copied nor checked (``__post_init__``
    does not run), each writable array field made read-only in place."""
    for value in fields.values():
        if isinstance(value, np.ndarray) and value.flags.writeable:
            value.flags.writeable = False
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


@functools.cache
def _eye(d: int) -> np.ndarray:
    return _frozen(np.eye(d), "identity")


@functools.cache
def _zero_noise(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The zero mean and covariance; immutable, so one pair per dimension."""
    return _frozen(np.zeros(d), "zero mean"), _frozen(np.zeros((d, d)), "zero cov")


def _identity(batch: tuple, d: int) -> np.ndarray:
    return np.zeros(batch + (d, d)) + _eye(d)


def _transpose(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _check_symmetric(cov: np.ndarray, what: str) -> None:
    """Rejects a finite covariance (or batch) asymmetric beyond 1e-12 of its size."""
    size = float(np.abs(cov).max(initial=0.0))
    if float(np.abs(cov - _transpose(cov)).max(initial=0.0)) > 1e-12 * max(1.0, size):
        raise ValueError(f"{what} is not symmetric")


def _checked_moments(mean, cov, d: int, what: str,
                     *batches: tuple) -> tuple[np.ndarray, np.ndarray]:
    """A mean vector and covariance of dimension ``d``, frozen, the covariance
    symmetrized.  Rejects non-finite entries, wrong shapes, batch shapes that
    differ from each other or from ``batches`` and a covariance asymmetric
    beyond 1e-12 of its size; ``what`` names the value in the message."""
    mean, cov = _frozen(mean, f"{what} mean"), _finite(cov, f"{what} cov")
    if mean.shape[-1:] != (d,) or cov.shape[-2:] != (d, d):
        raise ValueError(f"{what} shapes {mean.shape}, {cov.shape} do not match "
                         f"layout dim {d}")
    batches += (mean.shape[:-1], cov.shape[:-2])
    if len(set(batches) - {()}) > 1:  # each array has the one batch shape or none
        raise ValueError(f"batch shapes {batches} differ")
    _check_symmetric(cov, f"{what} covariance")
    return mean, _frozen(0.5 * (cov + _transpose(cov)), f"{what} cov")


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
        m = _frozen(self.matrix, "matrix")
        d = self.layout.dim
        if m.shape[-2:] != (d, d):
            raise ValueError(f"map shape {m.shape} does not match layout dim {d}")
        object.__setattr__(self, "matrix", m)
        mean, cov = _checked_moments(self.mean, self.cov, d, "noise", m.shape[:-2])
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def symplectic_defect(self) -> float:
        """Max-norm of M Omega M^T - Omega over the batch; ~0 for lossless maps."""
        omega = symplectic_form(self.layout.mode_count)
        return float(np.max(np.abs(self.matrix @ omega @ _transpose(self.matrix) - omega)))


def _noiseless(m: np.ndarray, layout: ModeLayout) -> GaussianChannel:
    mean, cov = _zero_noise(m.shape[-1])
    return _unchecked(GaussianChannel, matrix=m, mean=mean, cov=cov, layout=layout)


# ---------------------------------------------------------------------------
# lossless constructors
# ---------------------------------------------------------------------------

def _qnd(chi, kicked: int, mode: str, layout: ModeLayout) -> GaussianChannel:
    """Identity on ``layout`` with ``chi`` coupling mechanical ``mode`` to
    ``"opt"``: quadrature ``kicked`` (0 for X, 1 for P) of each mode is kicked
    by the other quadrature of the other mode."""
    if mode == "opt":
        raise ValueError("a QND pulse couples a mechanical mode to 'opt', not 'opt' itself")
    i, j, k = layout.x_index(mode), layout.x_index("opt"), 1 - kicked
    chi = _finite(chi, "pulse strength")
    m = _identity(chi.shape, layout.dim)
    m[..., j + kicked, i + k] = m[..., i + kicked, j + k] = chi
    return _noiseless(m, layout)


def qnd_xx(chi, mode: str = "mech", layout: ModeLayout = MECH_OPT) -> GaussianChannel:
    """Position-position QND pulse between mechanical ``mode`` and ``"opt"``:
    both X unchanged, P_opt += chi X_mode, P_mode += chi X_opt.  An array
    ``chi`` gives a batch.  A pulse on several mechanical modes is the
    :func:`compose` of one per mode: they commute and their strengths add
    exactly, since each pulse's coupling term times another's is zero."""
    return _qnd(chi, 1, mode, layout)


def qnd_pp(chi) -> GaussianChannel:
    """Momentum-momentum QND pulse on (mech, opt): both P unchanged,
    X_opt += chi P_mech, X_mech += chi P_opt.  An array ``chi`` gives a batch."""
    return _qnd(chi, 0, "mech", MECH_OPT)


def rotation(mode: str, angle, layout: ModeLayout = MECH_OPT) -> GaussianChannel:
    """Phase-space rotation of one mode; an array ``angle`` gives a batch.

    Sign convention, fixed package-wide: X -> X cos(a) + P sin(a) and
    P -> -X sin(a) + P cos(a), so ``rotation(mode, pi/2)`` maps X -> P and
    P -> -X.  Free mechanical evolution through an angle ``omega * t`` uses the
    same convention (it is the zero-damping limit of :func:`damped_evolution`).
    """
    angle = _finite(angle, "rotation angle")
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
    sx, sp = np.broadcast_arrays(_finite(sx, "quadrature scaling"),
                                 _finite(sp, "quadrature scaling"))
    m = _identity(sx.shape, layout.dim)
    i = layout.x_index(mode)
    m[..., i, i] = sx
    m[..., i + 1, i + 1] = sp
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


def _damped_entries(loss: LossConfig, times: Sequence[float]) -> list[float]:
    """The mechanical block of the damped evolution over each time of
    ``times``: map entries m11, m12, m21, m22, then noise entries v11, v12,
    v12, v22, eight floats a time, flat; a negative or non-finite time
    raises.  Each transcendental is a ``math`` call, whose result numpy's
    vector kernels do not always reproduce.  The factors that depend on
    ``loss`` alone are computed once, each a leading (left-to-right) part of
    the per-time expression it came from, so every entry keeps the rounding
    of the one-time formula."""
    gamma, omega = loss.gamma, loss.omega_m
    sig = loss.sigma
    g = gamma / (2.0 * omega)
    sig_omega, gg, g_sig = sig * omega, g * g, g / sig
    sig2 = sig * sig
    n_total = 2.0 * loss.nbar_m + 1.0
    k_diag, k_off = n_total / sig2, n_total * 2.0 * g / sig2
    entries = []
    for t in times:
        if not 0.0 <= t < math.inf:
            raise ValueError(f"{'negative' if t < 0 else 'non-finite'} evolution time")
        a = sig_omega * t
        gt = -gamma * t
        d = math.exp(gt / 2.0)
        c, s = math.cos(a), math.sin(a)
        decay = math.exp(gt)
        em1 = -math.expm1(gt)  # 1 - e^(-gamma t)
        c2, s2 = math.cos(2 * a), math.sin(2 * a)
        even = em1 + gg * (decay * c2 - 1.0)
        odd = decay * g * sig * s2
        v12 = k_off * decay * s ** 2
        entries += (d * (c + g_sig * s), d * (s / sig), d * (-s / sig), d * (c - g_sig * s),
                    k_diag * (even - odd), v12, v12, k_diag * (even + odd))
    return entries


def damped_evolution(loss: LossConfig, t, layout: ModeLayout = MECH) -> GaussianChannel:
    """Exact channel of the damped thermal mechanics over time ``t``.

    An array ``t`` gives a batch of shape ``t.shape``, every element equal bit
    for bit to the channel of its time alone; a negative or non-finite element
    raises.

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
    t = np.asarray(t, dtype=float)
    blocks = np.array(_damped_entries(loss, t.ravel().tolist()))
    if not np.isfinite(blocks).all():  # (2 nbar_m + 1) / sigma^2 near the float range
        raise ValueError(f"nbar_m = {loss.nbar_m!r} overflows the damped noise")
    i = layout.x_index("mech")
    buffer = np.zeros(t.shape + (2, layout.dim, layout.dim))  # map, noise covariance
    buffer[..., 0, :, :] = _eye(layout.dim)
    buffer[..., i:i + 2, i:i + 2] = blocks.reshape(t.shape + (2, 2, 2))
    return _unchecked(GaussianChannel, matrix=buffer[..., 0, :, :], layout=layout,
                      mean=np.zeros(t.shape + (layout.dim,)), cov=buffer[..., 1, :, :])


def damped_delay(phi: float, loss: LossConfig, layout: ModeLayout = MECH) -> GaussianChannel:
    """Damped thermal evolution of the mechanics while it rotates through
    phi, which takes t = phi / (sigma * omega_m)."""
    return damped_evolution(loss, phi / (loss.sigma * loss.omega_m), layout)


def damped_is_physical(loss: LossConfig, t: float) -> bool:
    """Complete positivity of ``damped_evolution(loss, t)`` by its closed-form
    margin, N >= 0 and det N >= expm1(-gamma t)^2 (det M = e^(-gamma t)), to
    ``CP_RTOL`` of its own terms: no absolute floor, unlike :func:`is_physical`,
    hides a short delay's violation of order (gamma t)^2."""
    v11, v12, _, v22 = _damped_entries(loss, [t])[4:]
    loss_term = math.expm1(-loss.gamma * t) ** 2
    margin = v11 * v22 - v12 * v12 - loss_term
    return min(v11, v22) >= 0.0 and margin >= -CP_RTOL * max(v11 * v22, v12 * v12, loss_term)


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
    return _unchecked(GaussianChannel, matrix=m, mean=np.zeros(layout.dim), cov=cov, layout=layout)


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
    if any(ch.layout is not layout and ch.layout != layout for ch in channels):
        raise ValueError("layout mismatch in channel composition")
    d = layout.dim
    zero_mean, zero_cov = _zero_noise(d)
    m_tot, mean_tot, cov_tot = np.eye(d), zero_mean, zero_cov
    for ch in channels:
        m = ch.matrix
        m_tot = m @ m_tot
        if cov_tot is not zero_cov or ch.cov is not zero_cov:
            cov_tot = m @ cov_tot @ _transpose(m) + ch.cov
            mean_tot = _apply(m, mean_tot) + ch.mean
    if cov_tot is not zero_cov:
        cov_tot = 0.5 * (cov_tot + _transpose(cov_tot))
    if not (np.isfinite(m_tot).all() and np.isfinite(mean_tot).all()
            and np.isfinite(cov_tot).all()):
        raise ValueError("composed channel contains non-finite entries")
    return _unchecked(GaussianChannel, matrix=m_tot, mean=mean_tot, cov=cov_tot, layout=layout)


def is_physical(channel: GaussianChannel) -> bool:
    """Complete positivity: N + i Omega - i M Omega M^T >= 0, to rounding.

    This is the exact condition for the channel (M, N) to map every physical
    state, including the halves of entangled ones, to a physical state.  For
    one mode it reads N >= 0 and det N >= (1 - det M)^2.  The tolerance is
    ``CP_RTOL`` (64 machine epsilons) times the size of the terms: 1, the
    2N-term sums of M Omega M^T (each at most max|M|^2) and max|N|.  That
    size is at least 1, so the tolerance has an absolute floor: a violation
    smaller than ``CP_RTOL`` (about 1.4e-14) always passes.  A batch is
    physical when every element is, each against its own tolerance.
    """
    omega = symplectic_form(channel.layout.mode_count)
    m = channel.matrix
    n = channel.cov
    h = n + 1j * (omega - m @ omega @ _transpose(m))
    scale = np.maximum(np.maximum(1.0, m.shape[-1] * np.max(np.abs(m), axis=(-2, -1)) ** 2),
                       np.max(np.abs(n), axis=(-2, -1)))
    return bool(np.all(np.linalg.eigvalsh(h).min(axis=-1) >= -CP_RTOL * scale))
