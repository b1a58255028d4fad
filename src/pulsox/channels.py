"""Linear quadrature maps and additive-Gaussian-noise channels.

The universal channel representation is X' = M X + F where M is a real
2N x 2N matrix and F is Gaussian noise with a mean drift and a covariance.
Lossless constructors (QND pulses, rotations) are symplectic; lossy ones
(beamsplitter, damped rotation) complete the missing commutator with their
noise term.  All values are immutable and every operation is a pure function.

The value types check structure only (shape, finiteness, noise symmetry).
A channel is physical when it is completely positive, which
:func:`is_physical` tests exactly and composition preserves.  The named
constructors' scalar checks guarantee that, except for the momentum-damped
delay at low bath occupancy, which ``ExperimentConfig.validate`` rejects.
"""
from __future__ import annotations

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


@dataclass(frozen=True)
class LinearMap:
    """Real 2N x 2N linear map on the quadrature vector of ``layout``."""

    matrix: np.ndarray
    layout: ModeLayout

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        d = self.layout.dim
        if m.shape != (d, d):
            raise ValueError(f"map shape {m.shape} does not match layout dim {d}")
        if not np.all(np.isfinite(m)):
            raise ValueError("map contains non-finite entries")
        object.__setattr__(self, "matrix", _frozen(m))

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        if self.layout != other.layout:
            raise ValueError("layout mismatch in map composition")
        return LinearMap(self.matrix @ other.matrix, self.layout)

    def symplectic_defect(self) -> float:
        """Max-norm of M Omega M^T - Omega; ~0 for lossless maps."""
        omega = symplectic_form(self.layout.mode_count)
        return float(np.max(np.abs(self.matrix @ omega @ self.matrix.T - omega)))

    def is_symplectic(self) -> bool:
        return self.symplectic_defect() < 1e-10

    def block(self, rows: str, cols: str) -> np.ndarray:
        """2x2 sub-block: quadratures of mode ``rows`` driven by mode ``cols``."""
        i = self.layout.x_index(rows)
        j = self.layout.x_index(cols)
        return self.matrix[i:i + 2, j:j + 2].copy()

    def as_channel(self) -> "GaussianChannel":
        return GaussianChannel(self, NoiseTerm.zero(self.layout.dim))


@dataclass(frozen=True)
class NoiseTerm:
    """Additive Gaussian noise: mean drift plus a symmetric covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"noise covariance shape {cov.shape} vs mean dim {d}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("noise term contains non-finite entries")
        if np.max(np.abs(cov - cov.T)) > 1e-12 * max(1.0, float(np.max(np.abs(cov)))):
            raise ValueError("noise covariance is not symmetric")
        object.__setattr__(self, "mean", _frozen(mean))
        object.__setattr__(self, "cov", _frozen(0.5 * (cov + cov.T)))

    @classmethod
    def zero(cls, dim: int) -> "NoiseTerm":
        return cls(np.zeros(dim), np.zeros((dim, dim)))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class GaussianChannel:
    """Affine-plus-noise channel X' = M X + F."""

    map: LinearMap
    noise: NoiseTerm

    def __post_init__(self):
        if self.noise.dim != self.map.layout.dim:
            raise ValueError("noise dimension does not match map layout")

    @property
    def layout(self) -> ModeLayout:
        return self.map.layout


# ---------------------------------------------------------------------------
# lossless constructors
# ---------------------------------------------------------------------------

def qnd_xx(chi: float, mode_a: str = "mech", mode_b: str = "opt",
           layout: ModeLayout = MECH_OPT) -> LinearMap:
    """Position-position QND pulse: both X unchanged, P_b += chi X_a, P_a += chi X_b."""
    if not math.isfinite(chi):
        raise ValueError("non-finite pulse strength")
    if mode_a == mode_b:
        raise ValueError("QND pulse needs two distinct modes")
    m = np.eye(layout.dim)
    m[layout.p_index(mode_b), layout.x_index(mode_a)] = chi
    m[layout.p_index(mode_a), layout.x_index(mode_b)] = chi
    return LinearMap(m, layout)


def qnd_pp(chi: float) -> LinearMap:
    """Momentum-momentum QND pulse on (mech, opt): both P unchanged,
    X_opt += chi P_mech, X_mech += chi P_opt."""
    if not math.isfinite(chi):
        raise ValueError("non-finite pulse strength")
    layout = MECH_OPT
    m = np.eye(layout.dim)
    m[layout.x_index("opt"), layout.p_index("mech")] = chi
    m[layout.x_index("mech"), layout.p_index("opt")] = chi
    return LinearMap(m, layout)


def rotation(mode: str, angle: float, layout: ModeLayout = MECH_OPT) -> LinearMap:
    """Phase-space rotation of one mode.

    Sign convention, fixed package-wide: X -> X cos(a) + P sin(a) and
    P -> -X sin(a) + P cos(a), so ``rotation(mode, pi/2)`` maps X -> P and
    P -> -X.  Free mechanical evolution through an angle ``omega * t`` uses the
    same convention (it is the zero-damping limit of :func:`lossy_rotation`).
    """
    if not math.isfinite(angle):
        raise ValueError("non-finite rotation angle")
    c, s = math.cos(angle), math.sin(angle)
    m = np.eye(layout.dim)
    i = layout.x_index(mode)
    m[i:i + 2, i:i + 2] = [[c, s], [-s, c]]
    return LinearMap(m, layout)


def quadrature_scaling(sx: float, sp: float, mode: str = "mech",
                       layout: ModeLayout = MECH) -> LinearMap:
    """diag(sx, sp) on one mode; symplectic iff sx * sp = 1."""
    if not (math.isfinite(sx) and math.isfinite(sp)):
        raise ValueError("non-finite scaling")
    m = np.eye(layout.dim)
    i = layout.x_index(mode)
    m[i, i] = sx
    m[i + 1, i + 1] = sp
    return LinearMap(m, layout)


def qnd_xx_collective(couplings: Sequence[float], chi_total: float,
                      layout: ModeLayout) -> LinearMap:
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
    return LinearMap(m, layout)


# ---------------------------------------------------------------------------
# damped mechanical evolution
# ---------------------------------------------------------------------------

def sigma_factor(gamma: float, omega: float) -> float:
    """Damping-induced retardation factor sqrt(1 - gamma^2 / 4 omega^2)."""
    if omega <= 0:
        raise ValueError("mechanical frequency must be positive")
    if gamma < 0:
        raise ValueError("damping rate must be nonnegative")
    g = gamma / (2.0 * omega)
    if g >= 1.0:
        raise ValueError(f"overdamped regime gamma={gamma} >= 2*omega={2 * omega} not supported")
    return math.sqrt(1.0 - g * g)


def lossy_rotation(gamma: float, omega: float, t: float, mode: str = "mech",
                   layout: ModeLayout = MECH) -> LinearMap:
    """Momentum-damped oscillator propagator over time ``t`` on one mode.

    Solves Xdot = omega P, Pdot = -omega X - gamma P. The block carries an
    overall e^(-gamma t / 2) decay on a rotation through sigma * omega * t;
    its determinant is exactly e^(-gamma t).  gamma = 0 gives
    ``rotation(mode, omega * t)``.
    """
    if t < 0:
        raise ValueError("negative evolution time")
    sig = sigma_factor(gamma, omega)
    g = gamma / (2.0 * omega)
    a = sig * omega * t
    d = math.exp(-gamma * t / 2.0)
    c, s = math.cos(a), math.sin(a)
    block = d * np.array([[c + (g / sig) * s, s / sig],
                          [-s / sig, c - (g / sig) * s]])
    m = np.eye(layout.dim)
    i = layout.x_index(mode)
    m[i:i + 2, i:i + 2] = block
    return LinearMap(m, layout)


def thermal_noise_cov(gamma: float, omega: float, nbar_m: float, t: float,
                      mode: str = "mech", layout: ModeLayout = MECH) -> NoiseTerm:
    """Accumulated thermal noise of the damped oscillator over time ``t``.

    Zero mean.  The covariance vanishes at t = 0, equilibrates to
    (2 nbar + 1) I for t >> 1/gamma, and at short times is dominated by the
    momentum entry 2 gamma t (2 nbar + 1); the position entry grows as t^3.
    Written in expm1 form so the small-t cancellations stay accurate.
    """
    if t < 0:
        raise ValueError("negative evolution time")
    if nbar_m < 0:
        raise ValueError("bath occupancy must be nonnegative")
    sig = sigma_factor(gamma, omega)
    g = gamma / (2.0 * omega)
    sig2 = sig * sig
    a = sig * omega * t
    decay = math.exp(-gamma * t)
    em1 = -math.expm1(-gamma * t)  # 1 - e^(-gamma t)
    c2, s2 = math.cos(2 * a), math.sin(2 * a)
    n_total = 2.0 * nbar_m + 1.0
    v11 = n_total / sig2 * (em1 + g * g * (decay * c2 - 1.0) - decay * g * sig * s2)
    v22 = n_total / sig2 * (em1 + g * g * (decay * c2 - 1.0) + decay * g * sig * s2)
    v12 = n_total * 2.0 * g / sig2 * decay * math.sin(a) ** 2
    cov = np.zeros((layout.dim, layout.dim))
    i = layout.x_index(mode)
    cov[i:i + 2, i:i + 2] = [[v11, v12], [v12, v22]]
    return NoiseTerm(np.zeros(layout.dim), cov)


def damped_evolution(gamma: float, omega: float, nbar_m: float, t: float,
                     mode: str = "mech", layout: ModeLayout = MECH) -> GaussianChannel:
    """One-step exact channel for damped thermal evolution over time ``t``.

    Momentum-only damping is the high-temperature Brownian-motion model: the
    channel is not completely positive unless roughly (2 nbar_m + 1) omega t
    exceeds sqrt(3).
    """
    return GaussianChannel(lossy_rotation(gamma, omega, t, mode, layout),
                           thermal_noise_cov(gamma, omega, nbar_m, t, mode, layout))


# ---------------------------------------------------------------------------
# optical loss
# ---------------------------------------------------------------------------

def beamsplitter_loss(epsilon: float, nbar_l: float, mode: str = "opt",
                      layout: ModeLayout = MECH_OPT) -> GaussianChannel:
    """Beamsplitter loss: both quadratures scaled by sqrt(1 - epsilon), with
    thermal noise of variance epsilon * (2 nbar + 1) coupled in."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"loss fraction {epsilon} outside [0, 1]")
    if nbar_l < 0:
        raise ValueError("bath occupancy must be nonnegative")
    amp = math.sqrt(1.0 - epsilon)
    m = np.eye(layout.dim)
    i = layout.x_index(mode)
    m[i, i] = m[i + 1, i + 1] = amp
    cov = np.zeros((layout.dim, layout.dim))
    cov[i, i] = cov[i + 1, i + 1] = epsilon * (2.0 * nbar_l + 1.0)
    return GaussianChannel(LinearMap(m, layout), NoiseTerm(np.zeros(layout.dim), cov))


# ---------------------------------------------------------------------------
# composition and physicality
# ---------------------------------------------------------------------------

def compose(channels: Iterable[GaussianChannel]) -> GaussianChannel:
    """Compose channels in temporal (left-to-right) order.

    The map is the product of maps; noise injected by earlier stages is
    propagated through every later map, N_total = sum_i M_later N_i M_later^T.
    """
    channels = list(channels)
    if not channels:
        raise ValueError("nothing to compose")
    layout = channels[0].layout
    d = layout.dim
    m_tot = np.eye(d)
    cov_tot = np.zeros((d, d))
    mean_tot = np.zeros(d)
    for ch in channels:
        if ch.layout != layout:
            raise ValueError("layout mismatch in channel composition")
        m = ch.map.matrix
        m_tot = m @ m_tot
        cov_tot = m @ cov_tot @ m.T + ch.noise.cov
        mean_tot = m @ mean_tot + ch.noise.mean
    return GaussianChannel(LinearMap(m_tot, layout), NoiseTerm(mean_tot, 0.5 * (cov_tot + cov_tot.T)))


def is_physical(channel: GaussianChannel) -> bool:
    """Complete positivity: N + i Omega - i M Omega M^T >= 0, to rounding.

    This is the exact condition for the channel (M, N) to map every physical
    state, including the halves of entangled ones, to a physical state.  For
    one mode it reads N >= 0 and det N >= (1 - det M)^2.  The tolerance is
    ``CP_RTOL`` (64 machine epsilons) times the size of the terms: 1, the
    2N-term sums of M Omega M^T (each at most max|M|^2) and max|N|.
    """
    omega = symplectic_form(channel.layout.mode_count)
    m = channel.map.matrix
    n = channel.noise.cov
    h = n + 1j * (omega - m @ omega @ m.T)
    scale = max(1.0, m.shape[0] * float(np.max(np.abs(m))) ** 2, float(np.max(np.abs(n))))
    return float(np.linalg.eigvalsh(h).min()) >= -CP_RTOL * scale
