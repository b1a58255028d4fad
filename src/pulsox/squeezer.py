"""Assembly of the four-pulse mechanical squeezer.

The paper's protocol is four X-X pulses.  Its derivation starts from an
X-X, P-P, X-X sequence, whose momentum-momentum pulse is not natively
available; the protocol builds it from two X-X pulses wrapped in optical
quarter turns around a short mechanical rotation phi, and cancels the
residual Kerr term with an extra optical rotation theta.
:func:`_four_pulse` writes that protocol out once, on the layout of the
delay it is passed; the lossy squeezer (whose ``LOSSLESS`` case is the
lossless one) and the multimode study differ only in the pulse and the delay
they pass it: the squeezer's pulse is ``qnd_xx``, the multimode study's the
composition of one ``qnd_xx`` per mechanical mode, batched over its g2/g1
ratios.
The protocol is a list of channels, each of which checks its input where it
enters (see :mod:`pulsox.channels`); like :func:`~pulsox.channels.compose`
and :func:`~pulsox.states.apply_channel`, the ancilla reduction checks only
that its result is finite, so a lossy :func:`squeezer_output` runs no
state, channel or schedule validator.  :func:`_scorer` is the one scorer of
a protocol, given its pulse and delay: :func:`vacuum_infidelity`, the
optimizer's objective and the multimode study all call it.  It scores in
the target's frame: the inverse target map ends the protocol, and
:func:`~pulsox.states._infidelity_to_vacuum` scores the mechanical output.

Momentum is rescaled by mu (P' = mu P, X' = X / mu): mu < 1 squeezes
momentum, mu > 1 squeezes position.

``schedule_for_mu`` takes an array of mu; everything built from a schedule
broadcasts over that batch axis, with ``phi`` a scalar.  A sequence of L
losses adds a leading axis of length L, stacked from each loss's own delay.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import (ANCILLA_VSQ_RANGE, ANCILLA_VSQ_RULE, LOSSLESS, GaussianChannel,
                       LossConfig, _finite, _frozen, _transpose, _unchecked, beamsplitter_loss,
                       compose, damped_delay, qnd_xx, quadrature_scaling, rotation)
from .modes import MECH, MECH_OPT, ModeLayout
from .states import (GaussianState, _check_mu, _check_phi, _check_range, _elementwise,
                     _infidelity_to_vacuum, _squeezed_cov, apply_channel)

_atan = _elementwise(math.atan, 1)
_pow = _elementwise(math.pow, 2)
Losses = LossConfig | Sequence[LossConfig]


@dataclass(frozen=True)
class PulseSchedule:
    """The pulse strengths, the mechanical rotation and the ancilla squeezing spec.

    Every entry but ``phi`` may be an array or a list; the schedule is then a
    batch of that shape, and it keeps read-only copies of its array entries.
    The second X-X pulse's strength :attr:`chi2_second_pulse` and the
    Kerr-cancelling optical rotation :attr:`theta` follow from lam and phi.
    ``ancilla_vsq`` must lie in ``ANCILLA_VSQ_RANGE``.
    """

    chi1: float
    lam: float
    chi3: float
    phi: float
    ancilla_vsq: float = 0.5
    ancilla_angle: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, (np.ndarray, list, tuple)):
                object.__setattr__(self, name, _frozen(value, name))
            else:
                _finite(value, name)
        if np.ndim(self.phi):
            raise ValueError(f"phi must be a scalar, not of shape {np.shape(self.phi)}")
        _check_phi(self.phi)
        _check_range(self.ancilla_vsq, "ancilla_vsq", ANCILLA_VSQ_RANGE, ANCILLA_VSQ_RULE)
        if np.any(1.0 + self.lam * self.chi1 * math.tan(self.phi) <= 0):
            raise ValueError("schedule has no positive squeeze factor mu")

    @property
    def chi2_second_pulse(self):
        """Strength -lam / cos(phi) of the second X-X pulse."""
        return -self.lam / math.cos(self.phi)

    @property
    def theta(self):
        """Optical rotation arctan(-lam^2 tan(phi)) that cancels the Kerr term."""
        return theta_for(self.lam, self.phi)

    @property
    def mu(self):
        """Momentum rescaling factor (1 + lam chi1 tan(phi))^-1."""
        return 1.0 / (1.0 + self.lam * self.chi1 * math.tan(self.phi))


# ---------------------------------------------------------------------------
# analytic selection rules
# ---------------------------------------------------------------------------

def chi3_for(chi1, lam, phi: float):
    """Final-pulse strength that brings the four-pulse map into squeezer form;
    a non-finite chi1 or lam, or phi outside (0, pi/2), raises."""
    _finite(chi1, "chi1")
    _finite(lam, "lam")
    _check_phi(phi)
    t = math.tan(phi)
    denom = math.cos(phi) + lam * chi1 * math.sin(phi)
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("unreachable mu: singular chi3 denominator")
    try:
        lam4 = _pow(lam, 4.0)
    except OverflowError:
        raise ValueError("unreachable mu: lam^4 overflows") from None
    return -chi1 * np.sqrt(1.0 + lam4 * t * t) / denom


def theta_for(lam, phi: float):
    """Optical rotation angle cancelling the Kerr term: arctan(-lam^2 tan(phi));
    a non-finite lam, or phi outside (0, pi/2), raises."""
    _finite(lam, "lam")
    _check_phi(phi)
    return _atan(-_pow(lam, 2.0) * math.tan(phi))


def schedule_for_mu(mu, phi: float, ancilla_vsq: float = 0.5) -> PulseSchedule:
    """Noise-optimal analytic schedule for a target squeeze factor, or for an
    array of them (a batched schedule).

    Uses |lam| = |chi1| with chi1 >= 0: lam = +chi1 squeezes momentum
    (mu < 1), lam = -chi1 squeezes position (mu > 1).  The ancilla squeezing
    angle is sign(1 - mu) * pi / 4.  mu = 1 gives the identity schedule
    (all strengths zero, the mechanical rotation phi still elapses).
    ``ancilla_vsq`` must lie in ``ANCILLA_VSQ_RANGE``, which the schedule checks.
    """
    mu = np.asarray(mu, dtype=float)
    _check_mu(mu)
    _check_phi(phi)
    t = math.tan(phi)
    with np.errstate(over="ignore"):  # 1 / mu is finite, but over tan(phi) need not be
        chi1 = np.sqrt(np.abs(1.0 / mu - 1.0) / t)
    if not np.isfinite(chi1).all():
        raise ValueError("unreachable mu: chi1 overflows")
    lam = np.copysign(chi1, 1.0 - mu)
    return PulseSchedule(chi1=chi1, lam=lam, chi3=chi3_for(chi1, lam, phi), phi=phi,
                         ancilla_vsq=ancilla_vsq, ancilla_angle=np.sign(1.0 - mu) * math.pi / 4.0)


# ---------------------------------------------------------------------------
# squeezer assembly
# ---------------------------------------------------------------------------

@functools.cache
def _quarter_turn(layout: ModeLayout) -> GaussianChannel:
    """The protocol's optical pi/2 turn on ``layout``: one frozen channel per
    layout, shared by every call."""
    return rotation("opt", math.pi / 2.0, layout)


def _four_pulse(schedule: PulseSchedule, pulse: Callable[[float], GaussianChannel],
                delay: Sequence[GaussianChannel]) -> list[GaussianChannel]:
    """The four-pulse protocol, as channels in temporal order, on the layout
    of ``delay``.

    ``pulse(chi)`` is the X-X interaction of strength chi and ``delay`` the
    channels between the second and third pulses, during which the mechanics
    rotates through phi.
    """
    layout = delay[0].layout
    return [pulse(schedule.chi1), _quarter_turn(layout),
            pulse(schedule.lam), *delay, pulse(schedule.chi2_second_pulse),
            rotation("opt", schedule.theta - math.pi / 2.0, layout), pulse(schedule.chi3)]


def _delay(schedule: PulseSchedule, loss: Losses) -> list[GaussianChannel]:
    """The delay's beamsplitter loss and damped mechanics.  For a sequence of L
    losses the L channels of each kind, built alone, are stacked unchecked into
    one of batch shape (L, 1, ..., 1), a 1 per batch axis of ``schedule``."""
    if isinstance(loss, LossConfig):
        return [beamsplitter_loss(loss), damped_delay(schedule.phi, loss, MECH_OPT)]
    if not loss:
        raise ValueError("empty loss sequence")
    lead = (len(loss),) + (1,) * np.broadcast(*vars(schedule).values()).ndim
    stacked = [[np.stack(a).reshape(lead + a[0].shape)
                for a in zip(*((ch.matrix, ch.mean, ch.cov) for ch in stage))]
               for stage in zip(*(_delay(schedule, one) for one in loss))]
    return [_unchecked(GaussianChannel, matrix=m, mean=mean, cov=cov, layout=MECH_OPT)
            for m, mean, cov in stacked]


def build_lossy_squeezer(schedule: PulseSchedule, loss: Losses) -> GaussianChannel:
    """Four-pulse squeezer with delay-line loss and mechanical damping.

    During the delay the mechanics evolves under the damped propagator for
    t = phi / (sigma * omega_m) while the light takes beamsplitter loss
    epsilon with bath occupancy nbar_l.  With ``LOSSLESS`` the delay is
    exactly ``rotation("mech", phi)`` and the map is symplectic: its
    mechanical rows equal the mechanical rotation through phi applied to the
    plain squeezer form X' = X/mu + (1-mu) tan(phi) P + optical noise,
    P' = mu P.  A sequence of L losses adds a leading axis of length L (a (49,)
    schedule gives (L, 49)), each element the squeezer of its loss bit for bit.
    """
    return compose(_four_pulse(schedule, qnd_xx, _delay(schedule, loss)))


def ideal_target_map(mu, phi: float, mode: str = "mech",
                     layout: ModeLayout = MECH) -> GaussianChannel:
    """Unitary image the squeezer aims for: diag(1/mu, mu) followed by the
    mechanical rotation through phi (outputs are compared in that frame).
    An array of mu gives a batch."""
    mu = np.asarray(mu, dtype=float)
    _check_mu(mu)
    return compose([quadrature_scaling(1.0 / mu, mu, mode, layout),
                    rotation(mode, phi, layout)])


def _inverse_target(mu, phi: float, layout: ModeLayout) -> GaussianChannel:
    """diag(mu, 1/mu) R(-phi), the inverse of :func:`ideal_target_map`, on
    ``"mech"`` of ``layout``: it carries the pure target onto vacuum."""
    mu = np.asarray(mu, dtype=float)
    _check_mu(mu)
    return compose([rotation("mech", -phi, layout),
                    quadrature_scaling(mu, 1.0 / mu, "mech", layout)])


def ideal_target_state(state: GaussianState, mu, phi: float) -> GaussianState:
    if state.layout.mode_count != 1:
        raise ValueError("target comparison is single-mode")
    return apply_channel(state, ideal_target_map(mu, phi, state.layout.labels[0], state.layout))


def _reduced(channel: GaussianChannel, ancilla_cov: np.ndarray) -> GaussianChannel:
    """The mechanical channel of a (mech, opt) channel fed a zero-mean ancilla
    of covariance ``ancilla_cov``, for a mechanical input independent of the
    ancilla: the ancilla enters through the mech-from-optical block and is
    absorbed into the channel noise.  Its noise is symmetrized: the product
    ``m_mo V m_mo^T`` rounds unevenly."""
    i = channel.layout.x_index("mech")
    j = channel.layout.x_index("opt")
    m_mo = channel.matrix[..., i:i + 2, j:j + 2]
    cov = m_mo @ ancilla_cov @ _transpose(m_mo) + channel.cov[..., i:i + 2, i:i + 2]
    if not np.isfinite(cov).all():
        raise ValueError("reduced channel contains non-finite entries")
    return _unchecked(GaussianChannel, matrix=channel.matrix[..., i:i + 2, i:i + 2],
                      mean=channel.mean[..., i:i + 2], cov=0.5 * (cov + _transpose(cov)),
                      layout=MECH)


def mechanical_squeezer(schedule: PulseSchedule, loss: Losses) -> GaussianChannel:
    """Single-mode mechanical channel of the (lossy) squeezer (``loss`` as for
    :func:`build_lossy_squeezer`), with the schedule's own ancilla traced out."""
    return _reduced(build_lossy_squeezer(schedule, loss),
                    _squeezed_cov(schedule.ancilla_vsq, schedule.ancilla_angle))


def squeezer_output(schedule: PulseSchedule, loss: Losses,
                    input_state: GaussianState) -> GaussianState:
    """Apply the (lossy) squeezer to a single-mode mechanical input using the
    schedule's own ancilla."""
    return apply_channel(input_state, mechanical_squeezer(schedule, loss))


def _scorer(schedule: PulseSchedule, mu, pulse: Callable[[float], GaussianChannel],
            delay: Sequence[GaussianChannel]) -> Callable[[PulseSchedule], np.ndarray]:
    """The one scorer of a protocol: for any schedule with the phi and ancilla
    of ``schedule``, 1 - F against the target at ``mu`` of the mechanical
    output of :func:`_four_pulse` with ``pulse`` and ``delay``, the light
    starting in the schedule's ancilla and every other mode in vacuum.  The
    ancilla and the inverse target are built once, here."""
    ancilla_cov = _squeezed_cov(schedule.ancilla_vsq, schedule.ancilla_angle)
    inverse = _inverse_target(mu, schedule.phi, delay[0].layout)
    return lambda s: _infidelity_to_vacuum(compose([*_four_pulse(s, pulse, delay), inverse]),
                                           ancilla_cov)


def vacuum_infidelity(schedule: PulseSchedule, loss: Losses, mu):
    """1 - F of the squeezer output on mechanical vacuum against the ideal
    target (:func:`ideal_target_map` at ``mu`` on vacuum); a batched schedule
    and ``mu`` give one value per schedule, and L losses L rows."""
    return _scorer(schedule, mu, qnd_xx, _delay(schedule, loss))(schedule)


# ---------------------------------------------------------------------------
# budgets and regime diagnostics
# ---------------------------------------------------------------------------

def photon_budget(schedule: PulseSchedule):
    """Sum of squared pulse strengths chi1^2 + lam^2 + lam2^2 + chi3^2, squared
    by libm's ``pow`` so a batch equals the unbatched budgets bit for bit.
    Times kappa^2 / (64 g0^2) it is the four pulses' total photon number, the
    sum of :func:`photons_for_chi` (the inverse of :func:`chi_from_physical`)."""
    return (_pow(schedule.chi1, 2.0) + _pow(schedule.lam, 2.0)
            + _pow(schedule.chi2_second_pulse, 2.0) + _pow(schedule.chi3, 2.0))


def approx_photon_budget(mu, phi: float):
    """Small-phi closed-form estimate |1 - 1/mu| (3 + (1 + (1 - 1/mu)^2) / mu^2) / tan(phi).

    Kept as the documented interface even though it tracks the exact
    pulse-strength sum only near mu = 1; for strong squeezing the two diverge
    (the exact sum is nearly symmetric under mu <-> 1/mu, the estimate is not).
    An array of mu gives an array.
    """
    mu = np.asarray(mu, dtype=float)
    _check_mu(mu)
    _check_phi(phi)
    r = 1.0 - 1.0 / mu
    return np.abs(r) * (3.0 + (1.0 + r * r) / (mu * mu)) / math.tan(phi)


def chi_from_physical(g0: float, n_photons: float, kappa: float) -> float:
    """Pulse strength -8 g0 sqrt(N) / kappa from physical drive parameters."""
    if not 0 < g0 < math.inf:
        raise ValueError("coupling rate g0 must be positive and finite")
    if not 0 < kappa < math.inf:
        raise ValueError("cavity linewidth must be positive and finite")
    if not 0 <= n_photons < math.inf:
        raise ValueError("photon number must be nonnegative and finite")
    return -8.0 * g0 * math.sqrt(n_photons) / kappa


def photons_for_chi(chi: float, g0: float, kappa: float) -> float:
    """Pulse photon number needed for strength ``chi``; inverse of
    :func:`chi_from_physical`."""
    _finite(chi, "pulse strength")
    if not (0 < g0 < math.inf and 0 < kappa < math.inf):
        raise ValueError("rates must be positive and finite")
    return (chi * kappa / (8.0 * g0)) ** 2


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    ok: bool
    ratio: float
    margin: float


def regime_check(g0: float, omega_m: float, kappa: float, pulse_bandwidth: float,
                 margin: float = 10.0) -> tuple[RegimeCheck, ...]:
    """Non-fatal diagnostic of the pulsed-QND validity inequalities.

    Each 'a << b' check passes when b / a >= margin: weak single-photon
    coupling (g0 << omega_m), pulse shorter than the period
    (omega_m << bandwidth), no cavity distortion of the pulse
    (bandwidth << kappa), and the unresolved-sideband condition
    (omega_m << kappa).  Every rate must be positive and finite (NaN and inf
    are rejected) and the margin must exceed 1, or a >= b would pass as a << b.
    """
    rates = {"g0": g0, "omega_m": omega_m, "kappa": kappa, "pulse_bandwidth": pulse_bandwidth}
    for name, rate in rates.items():
        if not 0 < rate < math.inf:
            raise ValueError(f"rate {name} = {rate!r} must be positive and finite")
    if not margin > 1:
        raise ValueError(f"margin {margin!r} must exceed 1")

    def check(name, small, big):
        ratio = big / small
        return RegimeCheck(name, ratio >= margin, ratio, margin)

    return (
        check("weak-coupling", g0, omega_m),
        check("sub-period-pulse", omega_m, pulse_bandwidth),
        check("pulse-distortion", pulse_bandwidth, kappa),
        check("unresolved-sideband", omega_m, kappa),
    )


# ---------------------------------------------------------------------------
# numerical re-optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleOptimization:
    schedule: PulseSchedule
    objective: float
    seed_objective: float
    converged: bool
    n_evaluations: int


def _free_schedule(x: np.ndarray, seed: PulseSchedule) -> PulseSchedule:
    """The schedule at the optimizer coordinates ``x`` = (chi1, lam, chi3),
    with phi and the ancilla of ``seed``.  A 2-D ``x`` gives a batch, one row
    each.

    Built unchecked: phi and the ancilla come from the checked ``seed``, and
    the caller checks that ``x`` is finite with a positive mu in every row.
    """
    chi1, lam, chi3 = x.T
    return _unchecked(PulseSchedule, chi1=chi1, lam=lam, chi3=chi3, phi=seed.phi,
                      ancilla_vsq=seed.ancilla_vsq, ancilla_angle=seed.ancilla_angle)


def _objective(seed: PulseSchedule, loss: LossConfig,
               mu: float) -> Callable[[np.ndarray], np.ndarray]:
    """The optimizer's objective: for each row of the coordinates ``x``, checked
    finite, :func:`vacuum_infidelity` at ``mu`` of its schedule, built
    unchecked, in one batched call of the search's :func:`_scorer`.  Rows with
    1 + lam chi1 tan(phi) <= 0 have no positive mu and score 1e6 (outside the
    physical branch); they are masked out before the schedule is built, so
    they do not fail the rest of the batch."""
    tan_phi = math.tan(seed.phi)
    score = _scorer(seed, mu, qnd_xx, _delay(seed, loss))

    def infidelities(x: np.ndarray) -> np.ndarray:
        _finite(x, "optimizer coordinates")
        values = np.full(len(x), 1e6)
        inside = 1.0 + x[:, 1] * x[:, 0] * tan_phi > 0
        if inside.any():
            values[inside] = score(_free_schedule(x[inside], seed))
        return values

    return infidelities


def _stencil(n: int) -> np.ndarray:
    """Offsets, in units of the step, of the central-difference stencil that
    gives the value, gradient and Hessian in n dimensions: the centre, +-e_i,
    and the four corners +-e_i +-e_j of each pair i < j (1 + 2n + 2n(n - 1)
    points)."""
    eye = np.eye(n)
    rows = [np.zeros(n), *eye, *-eye]
    for i, j in itertools.combinations(range(n), 2):
        rows += [eye[i] + eye[j], eye[i] - eye[j], eye[j] - eye[i], -eye[i] - eye[j]]
    return np.array(rows)


def _derivatives(f: np.ndarray, h: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian from the values ``f`` on ``_stencil``
    scaled per coordinate by ``h``."""
    n = len(h)
    plus, minus = f[1:n + 1], f[n + 1:2 * n + 1]
    grad = (plus - minus) / (2.0 * h)
    hess = np.diag((plus - 2.0 * f[0] + minus) / h ** 2)
    corners = f[2 * n + 1:].reshape(-1, 4)
    for (i, j), (pp, pm, mp, mm) in zip(itertools.combinations(range(n), 2), corners):
        hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * h[i] * h[j])
    return f[0], grad, hess


# Levenberg-Marquardt dampings, relative to the Hessian's largest curvature,
# and the fractions of each damped Newton step tried in one candidate batch.
_DAMPINGS = np.array([0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0])
_STEP_LENGTHS = np.array([1.0, 0.5, 0.1])
_STEP_FRACTION = 1e-4     # finite-difference step, as a fraction of the box half-width
_STEP_ATOL = 1e-10
_MAX_ITERATIONS = 100


def _candidates(x: np.ndarray, grad: np.ndarray, hess: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> np.ndarray:
    """Damped Newton steps from ``x`` for every damping and step length,
    clipped to the box [lo, hi].

    Each step is -(|H| + d)^-1 g, with |H| the Hessian with its eigenvalues
    made positive, so every step points downhill.  Coordinates held at a
    bound by the gradient stay there and the step is taken in the others,
    so that clipping does not bend it.
    """
    free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
    w, v = np.linalg.eigh(hess[np.ix_(free, free)])
    w = np.abs(w)
    scale = w.max(initial=0.0)
    floor = max(np.finfo(float).eps * scale, np.finfo(float).tiny)
    g = v.T @ grad[free]
    scaled = g / np.maximum(w + _DAMPINGS[:, None] * scale, floor)  # one row a damping
    directions = np.array([v @ z for z in scaled])
    steps = np.zeros((len(_DAMPINGS) * len(_STEP_LENGTHS), len(x)))
    steps[:, free] = (-_STEP_LENGTHS[:, None] * directions[:, None, :]).reshape(len(steps), len(w))
    return np.clip(x + steps, lo, hi)


def optimize_schedule(mu_target: float, phi: float, loss: LossConfig = LOSSLESS,
                      ancilla_vsq: float = 0.5) -> ScheduleOptimization:
    """Local damped-Newton re-optimization of the pulse strengths.

    Minimizes the infidelity between the squeezer output on vacuum and the
    ideal target over (chi1, lam, chi3), seeded at and box-bounded around the
    analytic schedule (x0 +- max(|x0| / 2, 1/2)).  theta follows lam and phi
    as in every schedule, and the ancilla angle stays at the seed's, so the
    optimum stays comparable to the analytic schedule.

    Each iteration makes two batched squeezer calls: a central-difference
    stencil (19 schedules) for the value, gradient and Hessian, then 18
    Levenberg-Marquardt damped Newton steps clipped to the box, of which the
    best replaces the current point if it is lower.  The objective is built
    once per search (:func:`_objective`), scoring as :func:`vacuum_infidelity`.
    ``mu_target``, phi and ``ancilla_vsq`` are checked by
    :func:`schedule_for_mu`, each batch of coordinates by the objective; the
    schedules, the returned one too, are built unchecked.
    Schedules with no positive mu score 1e6.  ``converged`` is True when the
    current point beats every candidate or the accepted step is below 1e-10,
    and False if the 100-iteration cap stops the search first.
    ``n_evaluations`` counts the schedules evaluated, stencil and candidate
    rows alike.  Never returns anything worse than the seed.
    """
    seed = schedule_for_mu(mu_target, phi, ancilla_vsq)
    x = np.array([seed.chi1, seed.lam, seed.chi3])
    span = np.maximum(0.5 * np.abs(x), 0.5)
    lo, hi = x - span, x + span
    h = _STEP_FRACTION * span
    offsets = _stencil(len(x)) * h

    objective = _objective(seed, loss, mu_target)
    n_eval = 0
    for _ in range(_MAX_ITERATIONS):
        f, grad, hess = _derivatives(objective(x + offsets), h)
        if n_eval == 0:
            seed_objective = f
        trial = _candidates(x, grad, hess, lo, hi)
        values = objective(trial)
        n_eval += len(offsets) + len(trial)
        k = int(np.argmin(values))
        if not values[k] < f:
            converged = True
            break
        converged = np.max(np.abs(trial[k] - x)) < _STEP_ATOL
        x, f = trial[k], values[k]
        if converged:
            break
    return ScheduleOptimization(schedule=_free_schedule(x, seed),
                                objective=float(f), seed_objective=float(seed_objective),
                                converged=bool(converged), n_evaluations=n_eval)
