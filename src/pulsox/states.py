"""Gaussian states, channel application, and fidelity measures.

States carry a mean vector and covariance matrix in the [X, P] = 2i
convention (vacuum covariance = identity).  Fidelity follows the
squared-overlap convention, so two identical pure states score 1 and the
best classical squeeze-by-cloning strategy tops out at 1/2.

A state may carry a leading batch axis, as channels do; the functions below
broadcast over it, and an unbatched call returns plain shapes and floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (GaussianChannel, _apply, _checked_moments, _finite, _transpose,
                       _unchecked, quadrature_scaling, rotation)
from .modes import OPT, ModeLayout

_MEAN_ATOL = 1e-9
# A covariance with det V - 1 below this is pure to rounding.  Taking it as
# exactly pure keeps sqrt(y) in the fidelity from turning a determinant
# rounding of 1e-16 into a fidelity error of 1e-8.
PURE_ATOL = 1e-12


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix on a mode layout, or a batch of them.

    ``GaussianState(...)`` checks structure only, as a channel's noise
    (shape, finiteness, symmetry); V + i Omega >= 0 is carried by the named
    constructors and preserved by physical channels.  Every state this module
    returns is built unchecked; the named constructors check their scalars.
    """

    mean: np.ndarray
    cov: np.ndarray
    layout: ModeLayout

    def __post_init__(self):
        mean, cov = _checked_moments(self.mean, self.cov, self.layout.dim, "state")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def variance(self, mode: str, quadrature: str = "x"):
        """Variance of one quadrature: a float, or an array over the batch."""
        i = self.layout.x_index(mode) if quadrature == "x" else self.layout.p_index(mode)
        return self.cov[..., i, i][()]


def vacuum(layout: ModeLayout) -> GaussianState:
    return _unchecked(GaussianState, mean=np.zeros(layout.dim), cov=np.eye(layout.dim),
                      layout=layout)


def thermal(nbar, layout: ModeLayout) -> GaussianState:
    """Thermal state with occupancy ``nbar`` in every mode; an array gives a batch."""
    nbar = _finite(nbar, "occupancy")
    if not np.all((0.0 <= nbar) & (nbar < 2.0 ** 1022)):
        raise ValueError("occupancy must be nonnegative and below 2^1022")
    cov = (2.0 * nbar[..., None, None] + 1.0) * np.eye(layout.dim)
    return _unchecked(GaussianState, mean=np.zeros(layout.dim), cov=cov, layout=layout)


def _squeezed_cov(v_sq, angle) -> np.ndarray:
    """Symmetrized covariance of :func:`squeezed`, as the state would hold it,
    for a positive ``v_sq`` and a finite ``angle``."""
    # in the package's sign convention, rotating by -angle carries X onto the
    # direction at angle
    r = rotation("opt", np.negative(angle), OPT).matrix
    cov = r @ quadrature_scaling(v_sq, 1.0 / v_sq, "opt", OPT).matrix @ _transpose(r)
    return 0.5 * (cov + _transpose(cov))


def squeezed(v_sq, angle=0.0, layout: ModeLayout | None = None) -> GaussianState:
    """Pure single-mode squeezed vacuum; arrays of ``v_sq`` or ``angle`` give a batch.

    The quadrature X cos(angle) + P sin(angle) has variance ``v_sq``; the
    orthogonal one has 1 / v_sq.
    """
    layout = layout or OPT
    if layout.mode_count != 1:
        raise ValueError("squeezed() builds single-mode states")
    v_sq, angle = _finite(v_sq, "squeezed variance"), _finite(angle, "squeezing angle")
    if not np.all(v_sq > 0):
        raise ValueError("squeezed variance must be positive")
    return _unchecked(GaussianState, mean=np.zeros(2), cov=_squeezed_cov(v_sq, angle),
                      layout=layout)


def product(*states: GaussianState) -> GaussianState:
    """Tensor product of states on disjoint layouts; batched factors broadcast."""
    labels: list[str] = []
    for s in states:
        labels.extend(s.layout.labels)
    layout = ModeLayout(tuple(labels))  # raises on duplicate labels
    dim = layout.dim
    batch = np.broadcast_shapes(*(s.cov.shape[:-2] for s in states),
                                *(s.mean.shape[:-1] for s in states))
    mean = np.concatenate([np.broadcast_to(s.mean, batch + s.mean.shape[-1:])
                           for s in states], axis=-1)
    cov = np.zeros(batch + (dim, dim))
    pos = 0
    for s in states:
        d = s.layout.dim
        cov[..., pos:pos + d, pos:pos + d] = s.cov
        pos += d
    return _unchecked(GaussianState, mean=mean, cov=cov, layout=layout)


def apply_channel(state: GaussianState, channel: GaussianChannel) -> GaussianState:
    """Propagate the state through X' = M X + F; the output mean is broadcast
    to the joint batch of state and channel, as its covariance is.

    Both inputs were checked where they were built, so the result is built
    unchecked, as :func:`~pulsox.channels.compose` builds its channel: only
    its finiteness is checked (an overflowing product raises ``ValueError``),
    and its covariance is symmetrized, since ``M V M^T`` rounds unevenly.
    """
    if state.layout != channel.layout:
        raise ValueError("state and channel layouts differ")
    m = channel.matrix
    cov = m @ state.cov @ _transpose(m) + channel.cov
    mean = np.broadcast_to(_apply(m, state.mean) + channel.mean, cov.shape[:-1])
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError("state contains non-finite entries")
    return _unchecked(GaussianState, mean=mean, cov=0.5 * (cov + _transpose(cov)),
                      layout=state.layout)


def marginal(state: GaussianState, modes: Sequence[str]) -> GaussianState:
    """Reduced state on a subset of modes (sub-vector / sub-matrix extraction)."""
    idx = []
    for lab in modes:
        i = state.layout.x_index(lab)
        idx.extend((i, i + 1))
    idx = np.array(idx)
    return _unchecked(GaussianState, mean=state.mean[..., idx],
                      cov=state.cov[..., idx, :][..., idx], layout=ModeLayout(tuple(modes)))


def _det_minus_one(cov: np.ndarray) -> np.ndarray:
    """|V| - 1, set to exactly 0 where the state is pure to rounding."""
    d = np.linalg.det(cov) - 1.0
    if np.any(d < -1e-8):
        raise ValueError("covariance determinant below the pure-state floor")
    return np.where(d < PURE_ATOL, 0.0, d)


def _check_single_zero_mean(s: GaussianState) -> None:
    if s.layout.mode_count != 1:
        raise ValueError("fidelity is defined for single-mode states")
    if np.max(np.abs(s.mean)) > _MEAN_ATOL:
        raise ValueError("fidelity_zero_mean requires zero-mean states")


def _reference(b: GaussianState) -> tuple[np.ndarray, np.ndarray]:
    """The covariance of ``b`` and its |V_b| - 1 term, for :func:`_fidelity`,
    after the checks :func:`fidelity_zero_mean` makes of ``b``."""
    _check_single_zero_mean(b)
    return b.cov, _det_minus_one(b.cov)


def _fidelity(a: GaussianState, b_cov: np.ndarray, b_term: np.ndarray):
    """The core of :func:`fidelity_zero_mean`, given ``b`` as its
    :func:`_reference`; checks ``a`` alone."""
    _check_single_zero_mean(a)
    y = _det_minus_one(a.cov) * b_term
    total = np.linalg.det(a.cov + b_cov)
    f = 2.0 / (np.sqrt(total + y) - np.sqrt(y))
    return np.minimum(f, 1.0)[()]


def fidelity_zero_mean(a: GaussianState, b: GaussianState):
    """Fidelity of two zero-mean single-mode Gaussian states (or batches).

    F = 2 / (sqrt(|Va + Vb| + y) - sqrt(y)) with y = (|Va| - 1)(|Vb| - 1).
    For pure states this equals the phase-space overlap 2 / sqrt(|Va + Vb|).
    Displaced states are rejected: the fidelity compares covariances only.
    Returns a float, or an array over the broadcast batch.

    Checks each state once: single mode, zero mean, and a determinant above
    the pure-state floor.  ``b``'s checks and its |Vb| - 1 term are
    :func:`_reference`, which the optimizer's objective computes once per
    search and passes to the core :func:`_fidelity` at every call.
    """
    return _fidelity(a, *_reference(b))


def _check_phi(phi: float) -> None:
    if not 0.0 < phi < math.pi / 2:
        raise ValueError("phi must lie in (0, pi/2)")


def _check_mu(mu) -> None:
    """Rejects a squeeze factor (a float or an array) that is NaN, infinite or
    below the smallest normal float 2^-1022, where 1 / mu overflows."""
    if not (2.0 ** -1022 <= mu < math.inf if isinstance(mu, float)
            else np.all((2.0 ** -1022 <= mu) & (mu < math.inf))):
        raise ValueError("mu must be positive and finite, at least 2^-1022 so that 1/mu is finite")


def pure_fidelity(mu: float, phi: float, v_p: float, v_sq: float) -> float:
    """Closed-form fidelity of the four-pulse squeezer on a pure input.

    ``v_p`` is the input momentum variance, ``v_sq`` the squeezed variance of
    the optical ancilla; phi is the mechanical rotation angle of the schedule.
    """
    if not (0 < mu < math.inf and 0 < v_p < math.inf and 0 < v_sq < math.inf):
        raise ValueError("mu, v_p and v_sq must be positive and finite")
    _check_phi(phi)
    t = math.tan(phi)
    m = mu * abs(1.0 - mu)
    return (1.0 + m * v_p * (v_sq + 0.25 * m * v_p * t) * t) ** -0.5


def classical_bound(mu: float) -> float:
    """Best fidelity of the measure-and-feedforward squeezer; at most 1/2."""
    _check_mu(mu)
    return 1.0 / (1.0 + math.sqrt(0.5 + (mu * mu + mu ** -2) / 4.0))
