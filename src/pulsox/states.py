"""Gaussian states, channel application, and fidelity measures.

States carry a mean vector and covariance matrix in the [X, P] = 2i
convention (vacuum covariance = identity).  Fidelity follows the
squared-overlap convention, so two identical pure states score 1 and the
best classical squeeze-by-cloning strategy tops out at 1/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import GaussianChannel, _frozen
from .modes import ModeLayout

_MEAN_ATOL = 1e-9


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix on a mode layout.

    Checks shape and finiteness only; V + i Omega >= 0 is carried by the
    named constructors and preserved by physical channels.
    """

    mean: np.ndarray
    cov: np.ndarray
    layout: ModeLayout

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        d = self.layout.dim
        if mean.shape != (d,) or cov.shape != (d, d):
            raise ValueError("state dimensions do not match layout")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("state contains non-finite entries")
        object.__setattr__(self, "mean", _frozen(mean))
        object.__setattr__(self, "cov", _frozen(0.5 * (cov + cov.T)))

    def variance(self, mode: str, quadrature: str = "x") -> float:
        i = self.layout.x_index(mode) if quadrature == "x" else self.layout.p_index(mode)
        return float(self.cov[i, i])


def vacuum(layout: ModeLayout) -> GaussianState:
    return GaussianState(np.zeros(layout.dim), np.eye(layout.dim), layout)


def thermal(nbar: float, layout: ModeLayout) -> GaussianState:
    """Thermal state with occupancy ``nbar`` in every mode of the layout."""
    if nbar < 0:
        raise ValueError("occupancy must be nonnegative")
    return GaussianState(np.zeros(layout.dim), (2.0 * nbar + 1.0) * np.eye(layout.dim), layout)


def squeezed(v_sq: float, angle: float = 0.0,
             layout: ModeLayout | None = None) -> GaussianState:
    """Pure single-mode squeezed vacuum.

    The quadrature X cos(angle) + P sin(angle) has variance ``v_sq``; the
    orthogonal one has 1 / v_sq.
    """
    if v_sq <= 0:
        raise ValueError("squeezed variance must be positive")
    layout = layout or ModeLayout(("opt",))
    if layout.mode_count != 1:
        raise ValueError("squeezed() builds single-mode states")
    c, s = math.cos(angle), math.sin(angle)
    r = np.array([[c, -s], [s, c]])
    cov = r @ np.diag([v_sq, 1.0 / v_sq]) @ r.T
    return GaussianState(np.zeros(2), cov, layout)


def coherent(mean: Sequence[float], layout: ModeLayout) -> GaussianState:
    """Coherent state: vacuum covariance displaced to ``mean``."""
    return GaussianState(np.asarray(mean, dtype=float), np.eye(layout.dim), layout)


def product(*states: GaussianState) -> GaussianState:
    """Tensor product of states on disjoint layouts."""
    labels: list[str] = []
    for s in states:
        labels.extend(s.layout.labels)
    layout = ModeLayout(tuple(labels))  # raises on duplicate labels
    dim = layout.dim
    mean = np.concatenate([s.mean for s in states])
    cov = np.zeros((dim, dim))
    pos = 0
    for s in states:
        d = s.layout.dim
        cov[pos:pos + d, pos:pos + d] = s.cov
        pos += d
    return GaussianState(mean, cov, layout)


def apply_channel(state: GaussianState, channel: GaussianChannel) -> GaussianState:
    """Propagate the state through X' = M X + F."""
    if state.layout != channel.layout:
        raise ValueError("state and channel layouts differ")
    m = channel.map.matrix
    mean = m @ state.mean + channel.noise.mean
    cov = m @ state.cov @ m.T + channel.noise.cov
    return GaussianState(mean, cov, state.layout)


def marginal(state: GaussianState, modes: Sequence[str]) -> GaussianState:
    """Reduced state on a subset of modes (sub-vector / sub-matrix extraction)."""
    idx = []
    for lab in modes:
        i = state.layout.x_index(lab)
        idx.extend((i, i + 1))
    idx = np.array(idx)
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)],
                         state.layout.sub_layout(modes))


def mean_distance(a: GaussianState, b: GaussianState) -> float:
    """Euclidean distance between mean vectors; the displacement diagnostic
    that complements the zero-mean fidelity."""
    if a.layout != b.layout:
        raise ValueError("layout mismatch")
    return float(np.linalg.norm(a.mean - b.mean))


def _det_minus_one(cov: np.ndarray) -> float:
    d = float(np.linalg.det(cov)) - 1.0
    if d < -1e-8:
        raise ValueError("covariance determinant below the pure-state floor")
    return max(d, 0.0)  # clamp tiny negatives from numerically pure states


def fidelity_zero_mean(a: GaussianState, b: GaussianState) -> float:
    """Fidelity of two zero-mean single-mode Gaussian states.

    F = 2 / (sqrt(|Va + Vb| + y) - sqrt(y)) with y = (|Va| - 1)(|Vb| - 1).
    For pure states this equals the phase-space overlap 2 / sqrt(|Va + Vb|).
    Displaced states are rejected; compare means with :func:`mean_distance`.
    """
    for s in (a, b):
        if s.layout.mode_count != 1:
            raise ValueError("fidelity is defined for single-mode states")
        if float(np.max(np.abs(s.mean))) > _MEAN_ATOL:
            raise ValueError("fidelity_zero_mean requires zero-mean states")
    y = _det_minus_one(a.cov) * _det_minus_one(b.cov)
    total = float(np.linalg.det(a.cov + b.cov))
    f = 2.0 / (math.sqrt(total + y) - math.sqrt(y))
    return min(f, 1.0)


def pure_fidelity(mu: float, phi: float, v_p: float, v_sq: float) -> float:
    """Closed-form fidelity of the four-pulse squeezer on a pure input.

    ``v_p`` is the input momentum variance, ``v_sq`` the squeezed variance of
    the optical ancilla; phi is the mechanical rotation angle of the schedule.
    """
    if mu <= 0 or v_p <= 0 or v_sq <= 0:
        raise ValueError("mu, v_p and v_sq must be positive")
    t = math.tan(phi)
    m = mu * abs(1.0 - mu)
    return (1.0 + m * v_p * (v_sq + 0.25 * m * v_p * t) * t) ** -0.5


def classical_bound(mu: float) -> float:
    """Best fidelity of the measure-and-feedforward squeezer; at most 1/2."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return 1.0 / (1.0 + math.sqrt(0.5 + (mu * mu + mu ** -2) / 4.0))
