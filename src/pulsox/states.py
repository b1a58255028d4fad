"""Gaussian states, channel application, and fidelity measures.

States carry a mean vector and covariance matrix in the [X, P] = 2i
convention (vacuum covariance = identity).  Fidelity follows the
squared-overlap convention, so two identical pure states score 1 and the
best classical squeeze-by-cloning strategy tops out at 1/2.  Every target
is pure, so the fidelity is the overlap 2 / sqrt(|Va + Vb|); the runners
score in the target's frame (:func:`_infidelity_to_vacuum`).

A state may carry a leading batch axis, as channels do; the functions below
broadcast over it, and an unbatched call returns plain shapes and floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import (MU_RANGE, MU_RULE, GaussianChannel, _apply, _checked_moments, _finite,
                       _transpose, _unchecked, quadrature_scaling, rotation)
from .modes import OPT, ModeLayout

_MEAN_ATOL = 1e-9


def _elementwise(fn: Callable, nin: int) -> Callable:
    """The ``math`` function ``fn`` applied element by element.  numpy's own
    power and arctan loops round differently from libm in the last bit, and
    its log1p and expm1 on some CPU dispatch paths; this keeps a batch
    bit-identical to unbatched calls, on every path."""
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *args: np.asarray(ufunc(*args), dtype=float)[()]


_log1p = _elementwise(math.log1p, 1)
_expm1 = _elementwise(math.expm1, 1)


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


def fidelity_zero_mean(a: GaussianState, b: GaussianState):
    """Fidelity of a zero-mean single-mode Gaussian state ``a`` (or batch) with
    the pure zero-mean target ``b``: the overlap 2 / sqrt(|Va + Vb|), a float
    or an array over the broadcast batch.  Rejects displaced states, an input
    whose |Va| is below 1 by more than 1e-8 and a target whose |Vb| is off 1
    by more than 1e-12, each relative to |V|'s rounding scale V00 V11 + V01^2."""
    for s in (a, b):
        if s.layout.mode_count != 1:
            raise ValueError("fidelity is defined for single-mode states")
        if np.max(np.abs(s.mean)) > _MEAN_ATOL:
            raise ValueError("fidelity_zero_mean requires zero-mean states")
    det_a, det_b = np.linalg.det(a.cov), np.linalg.det(b.cov)
    size_a, size_b = (abs(v[..., 0, 0] * v[..., 1, 1]) + v[..., 0, 1] ** 2 for v in (a.cov, b.cov))
    if np.any(det_a < 1.0 - 1e-8 * size_a):
        raise ValueError("covariance determinant below the pure-state floor")
    if np.any(np.abs(det_b - 1.0) > 1e-12 * size_b):
        raise ValueError("fidelity_zero_mean needs a pure target, |Vb| = 1")
    return np.minimum(2.0 / np.sqrt(np.linalg.det(a.cov + b.cov)), 1.0)[()]


def _infidelity_to_vacuum(channel: GaussianChannel, ancilla_cov: np.ndarray):
    """1 - F against vacuum of mode ``"mech"`` of ``channel``'s output when
    ``"opt"`` starts in the zero-mean ancilla ``ancilla_cov`` and every other
    mode in vacuum: the one scoring core, for channels that end in the
    inverse of their pure target.  With E = W - I, W the output covariance,
    F = (1 + x)^-1/2 with x = tr E / 2 + |E| / 4, so no term is far larger than
    1 - F = -expm1(-log1p(x) / 2), taken with libm; rounding below 0 is clamped.
    A non-finite x, or one at or below -1 (where 1 + x = |W + I| / 4 is not
    positive), raises rather than give NaN."""
    i, j = channel.layout.x_index("mech"), channel.layout.x_index("opt")
    rows = channel.matrix[..., i:i + 2, :]
    fed, kept = rows[..., j:j + 2], np.delete(rows, [j, j + 1], axis=-1)
    # summed in this order, the optimizer's default searches keep their step counts
    w = (fed @ ancilla_cov @ _transpose(fed) + channel.cov[..., i:i + 2, i:i + 2]
         + kept @ _transpose(kept))
    e = w - np.eye(2)
    x = (0.5 * (e[..., 0, 0] + e[..., 1, 1])
         + 0.25 * (e[..., 0, 0] * e[..., 1, 1] - e[..., 0, 1] * e[..., 1, 0]))
    if not np.all((-1.0 < x) & (x < math.inf)):  # NaN fails both
        raise ValueError("vacuum infidelity has no value: x = tr E / 2 + |E| / 4 must be "
                         "finite and above -1")
    return np.maximum(-_expm1(-0.5 * _log1p(x)), 0.0)


def _check_phi(phi: float) -> None:
    if not 0.0 < phi < math.pi / 2:
        raise ValueError("phi must lie in (0, pi/2)")


def _check_range(value, what: str, bounds: tuple[float, float], rule: str) -> None:
    """Rejects a value (a float, or anything ``np.asarray`` takes) outside
    ``bounds``, NaN too, with a message naming ``what`` and its rule."""
    lo, hi = bounds
    if not isinstance(value, float):
        value = np.asarray(value, dtype=float)
    if not (lo <= value <= hi if isinstance(value, float) else np.all((lo <= value) & (value <= hi))):
        raise ValueError(f"{what} {rule}")


def _check_mu(mu) -> None:
    """Rejects a squeeze factor (a float or an array) outside ``MU_RANGE``, NaN too."""
    _check_range(mu, "mu", MU_RANGE, MU_RULE)


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
