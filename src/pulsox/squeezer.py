"""Assembly of the four-pulse mechanical squeezer.

The ideal three-pulse sequence (X-X, P-P, X-X) needs a momentum-momentum
interaction that is not natively available.  The paper's protocol replaces
the P-P pulse with two X-X pulses wrapped in optical quarter turns around a
short mechanical rotation phi, and cancels the residual Kerr term with an
extra optical rotation theta.  :func:`_four_pulse` writes that protocol out
once; the lossy squeezer (whose ``LOSSLESS`` case is the lossless one) and
the multimode study differ only in the pulse and the delay they pass it.

Momentum is rescaled by mu (P' = mu P, X' = X / mu): mu < 1 squeezes
momentum, mu > 1 squeezes position.

``schedule_for_mu`` takes an array of mu; everything built from a schedule
broadcasts over that batch axis, while ``LossConfig``, ``phi`` and the delay
stay scalars shared by the whole batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from .channels import (LOSSLESS, GaussianChannel, LossConfig, _apply, _transpose,
                       beamsplitter_loss, compose, damped_delay, qnd_pp, qnd_xx,
                       quadrature_scaling, rotation)
from .modes import MECH, MECH_OPT, ModeLayout, OPT
from .states import GaussianState, apply_channel, fidelity_zero_mean, squeezed, vacuum


def _elementwise(fn: Callable, nin: int) -> Callable:
    """The ``math`` function ``fn`` applied element by element.  numpy's own
    power and arctan loops round differently from libm in the last bit; this
    keeps a batched schedule's entries bit-identical to unbatched ones."""
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *args: np.asarray(ufunc(*args), dtype=float)[()]


_atan = _elementwise(math.atan, 1)
_pow = _elementwise(math.pow, 2)


@dataclass(frozen=True)
class PulseSchedule:
    """The four pulse strengths plus rotation angles and ancilla squeezing spec.

    Every entry but ``phi`` may be an array; the schedule is then a batch of
    that shape.  The second X-X pulse's strength :attr:`chi2_second_pulse`
    follows from lam and phi.  ``theta`` cancels the Kerr term for analytic
    schedules (tan(theta) = -lam^2 tan(phi)) but is left free so the numerical
    re-optimizer can adjust it.
    """

    chi1: float
    lam: float
    chi3: float
    phi: float
    theta: float
    ancilla_vsq: float = 0.5
    ancilla_angle: float = 0.0

    def __post_init__(self):
        vals = (self.chi1, self.lam, self.chi3, self.phi, self.theta,
                self.ancilla_vsq, self.ancilla_angle)
        if not all(np.isfinite(v).all() for v in vals):
            raise ValueError("schedule contains non-finite entries")
        if np.any(self.ancilla_vsq <= 0):
            raise ValueError("ancilla squeezed variance must be positive")
        if np.any(1.0 + self.lam * self.chi1 * math.tan(self.phi) <= 0):
            raise ValueError("schedule has no positive squeeze factor mu")

    @property
    def chi2_second_pulse(self):
        """Strength -lam / cos(phi) of the second X-X pulse."""
        return -self.lam / math.cos(self.phi)

    @property
    def mu(self):
        """Momentum rescaling factor (1 + lam chi1 tan(phi))^-1."""
        return 1.0 / (1.0 + self.lam * self.chi1 * math.tan(self.phi))

    def kerr_cancellation_defect(self):
        """|tan(theta) + lam^2 tan(phi)|; zero for analytic schedules."""
        return np.abs(np.tan(self.theta) + self.lam ** 2 * math.tan(self.phi))


# ---------------------------------------------------------------------------
# analytic selection rules
# ---------------------------------------------------------------------------

def chi2_for(chi1: float, chi3: float) -> float:
    """P-P strength -(1/chi1 + 1/chi3) that diagonalizes the three-pulse map
    and cancels the mechanical momentum's optical pickup."""
    if chi1 == 0 or chi3 == 0:
        raise ValueError("zero pulse strength has no matching chi2")
    return -(1.0 / chi1 + 1.0 / chi3)


def chi3_for(chi1, lam, phi: float):
    """Final-pulse strength that brings the four-pulse map into squeezer form."""
    t = math.tan(phi)
    denom = math.cos(phi) + lam * chi1 * math.sin(phi)
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("unreachable mu: singular chi3 denominator")
    return -chi1 * np.sqrt(1.0 + _pow(lam, 4.0) * t * t) / denom


def theta_for(lam, phi: float):
    """Optical rotation angle cancelling the Kerr term: arctan(-lam^2 tan(phi))."""
    return _atan(-_pow(lam, 2.0) * math.tan(phi))


def schedule_for_mu(mu, phi: float, ancilla_vsq: float = 0.5) -> PulseSchedule:
    """Noise-optimal analytic schedule for a target squeeze factor, or for an
    array of them (a batched schedule).

    Uses |lam| = |chi1| with chi1 >= 0: lam = +chi1 squeezes momentum
    (mu < 1), lam = -chi1 squeezes position (mu > 1).  The ancilla squeezing
    angle is sign(1 - mu) * pi / 4.  mu = 1 gives the identity schedule
    (all strengths zero, the mechanical rotation phi still elapses).
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0):
        raise ValueError("mu must be positive")
    if not 0.0 < phi < math.pi / 2:
        raise ValueError("phi must lie in (0, pi/2)")
    t = math.tan(phi)
    chi1 = np.sqrt(np.abs(1.0 / mu - 1.0) / t)
    lam = np.copysign(chi1, 1.0 - mu)
    return PulseSchedule(chi1=chi1, lam=lam, chi3=chi3_for(chi1, lam, phi), phi=phi,
                         theta=theta_for(lam, phi), ancilla_vsq=ancilla_vsq,
                         ancilla_angle=np.sign(1.0 - mu) * math.pi / 4.0)


# ---------------------------------------------------------------------------
# squeezer assembly
# ---------------------------------------------------------------------------

def build_ideal_squeezer(chi1: float, chi3: float) -> GaussianChannel:
    """Three-pulse sequence XX(chi1), PP(chi2), XX(chi3) on (mech, opt) with
    chi2 from :func:`chi2_for`; the mechanical block is
    diag(-chi1/chi3, -chi3/chi1)."""
    return compose([qnd_xx(chi1), qnd_pp(chi2_for(chi1, chi3)), qnd_xx(chi3)])


def _four_pulse(schedule: PulseSchedule, pulse: Callable[[float], GaussianChannel],
                delay: Sequence[GaussianChannel], layout: ModeLayout) -> list[GaussianChannel]:
    """The four-pulse protocol in temporal order, as channels on ``layout``.

    ``pulse(chi)`` is the X-X interaction of strength chi and ``delay`` the
    stages between the second and third pulses, during which the mechanics
    rotates through phi.
    """
    return [pulse(schedule.chi1), rotation("opt", math.pi / 2.0, layout),
            pulse(schedule.lam), *delay, pulse(schedule.chi2_second_pulse),
            rotation("opt", schedule.theta - math.pi / 2.0, layout), pulse(schedule.chi3)]


def build_lossy_squeezer(schedule: PulseSchedule, loss: LossConfig) -> GaussianChannel:
    """Four-pulse squeezer with delay-line loss and mechanical damping.

    During the delay the mechanics evolves under the damped propagator for
    t = phi / (sigma * omega_m) while the light takes beamsplitter loss
    epsilon with bath occupancy nbar_l.  With ``LOSSLESS`` the delay is
    exactly ``rotation("mech", phi)`` and the map is symplectic: its
    mechanical rows equal the mechanical rotation through phi applied to the
    plain squeezer form X' = X/mu + (1-mu) tan(phi) P + optical noise,
    P' = mu P.
    """
    delay = [beamsplitter_loss(loss), damped_delay(schedule.phi, loss, MECH_OPT)]
    return compose(_four_pulse(schedule, qnd_xx, delay, MECH_OPT))


def ideal_target_map(mu, phi: float, mode: str = "mech",
                     layout: ModeLayout = MECH) -> GaussianChannel:
    """Unitary image the squeezer aims for: diag(1/mu, mu) followed by the
    mechanical rotation through phi (outputs are compared in that frame).
    An array of mu gives a batch."""
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0):
        raise ValueError("mu must be positive")
    return compose([quadrature_scaling(1.0 / mu, mu, mode, layout),
                    rotation(mode, phi, layout)])


def ideal_target_state(state: GaussianState, mu, phi: float) -> GaussianState:
    if state.layout.mode_count != 1:
        raise ValueError("target comparison is single-mode")
    return apply_channel(state, ideal_target_map(mu, phi, state.layout.labels[0], state.layout))


def ancilla_state(schedule: PulseSchedule) -> GaussianState:
    """Squeezed optical ancilla matching the schedule's squeezing spec."""
    return squeezed(schedule.ancilla_vsq, schedule.ancilla_angle, OPT)


def mechanical_reduced_channel(channel: GaussianChannel,
                               ancilla: GaussianState) -> GaussianChannel:
    """Marginalize the optical ancilla out of a two-mode (mech, opt) channel.

    Valid for product inputs (mechanical state independent of the ancilla):
    the ancilla's covariance feeds the mechanical output through the
    mech-from-optical block and is absorbed into the channel noise.
    """
    layout = channel.layout
    if layout.mode_count != 2:
        raise ValueError("reduction expects a two-mode channel")
    if ancilla.layout.mode_count != 1:
        raise ValueError("ancilla must be single-mode")
    i = layout.x_index("mech")
    j = layout.x_index("opt")
    m = channel.matrix
    m_mm = m[..., i:i + 2, i:i + 2]
    m_mo = m[..., i:i + 2, j:j + 2]
    cov = m_mo @ ancilla.cov @ _transpose(m_mo) + channel.cov[..., i:i + 2, i:i + 2]
    mean = _apply(m_mo, ancilla.mean) + channel.mean[..., i:i + 2]
    return GaussianChannel(m_mm, mean, cov, MECH)


def mechanical_squeezer(schedule: PulseSchedule, loss: LossConfig) -> GaussianChannel:
    """Single-mode mechanical channel of the (lossy) squeezer, with the
    schedule's own ancilla marginalized out."""
    return mechanical_reduced_channel(build_lossy_squeezer(schedule, loss),
                                      ancilla_state(schedule))


def squeezer_output(schedule: PulseSchedule, loss: LossConfig,
                    input_state: GaussianState) -> GaussianState:
    """Apply the (lossy) squeezer to a single-mode mechanical input using the
    schedule's own ancilla."""
    return apply_channel(input_state, mechanical_squeezer(schedule, loss))


# ---------------------------------------------------------------------------
# budgets and regime diagnostics
# ---------------------------------------------------------------------------

def photon_budget(schedule: PulseSchedule) -> float:
    """Sum of squared pulse strengths chi1^2 + lam^2 + lam2^2 + chi3^2.

    In physical terms this is the total pulse photon number scaled by
    64 g0^2 / kappa^2 (equivalently, N ~ budget * (kappa / g0)^2 up to that
    factor-64 normalization, depending on the reading).
    """
    return (schedule.chi1 ** 2 + schedule.lam ** 2
            + schedule.chi2_second_pulse ** 2 + schedule.chi3 ** 2)


def approx_photon_budget(mu: float, phi: float) -> float:
    """Small-phi closed-form estimate |1 - 1/mu| (3 + (1 + (1 - 1/mu)^2) / mu^2) / tan(phi).

    Kept as the documented interface even though it tracks the exact
    pulse-strength sum only near mu = 1; for strong squeezing the two diverge
    (the exact sum is nearly symmetric under mu <-> 1/mu, the estimate is not).
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    r = 1.0 - 1.0 / mu
    return abs(r) * (3.0 + (1.0 + r * r) / (mu * mu)) / math.tan(phi)


def chi_from_physical(g0: float, n_photons: float, kappa: float) -> float:
    """Pulse strength -8 g0 sqrt(N) / kappa from physical drive parameters."""
    if kappa <= 0:
        raise ValueError("cavity linewidth must be positive")
    if n_photons < 0:
        raise ValueError("photon number must be nonnegative")
    return -8.0 * g0 * math.sqrt(n_photons) / kappa


def photons_for_chi(chi: float, g0: float, kappa: float) -> float:
    """Pulse photon number needed for strength ``chi``; inverse of
    :func:`chi_from_physical`."""
    if g0 <= 0 or kappa <= 0:
        raise ValueError("rates must be positive")
    return (chi * kappa / (8.0 * g0)) ** 2


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    ok: bool
    ratio: float
    margin: float


@dataclass(frozen=True)
class RegimeReport:
    checks: tuple[RegimeCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self) -> list[str]:
        return [c.name for c in self.checks if not c.ok]


def regime_check(g0: float, omega_m: float, kappa: float, pulse_bandwidth: float,
                 margin: float = 10.0) -> RegimeReport:
    """Non-fatal diagnostic of the pulsed-QND validity inequalities.

    Each 'a << b' check passes when b / a >= margin: weak single-photon
    coupling (g0 << omega_m), pulse shorter than the period
    (omega_m << bandwidth), no cavity distortion of the pulse
    (bandwidth << kappa), and the unresolved-sideband condition
    (omega_m << kappa).
    """
    if min(g0, omega_m, kappa, pulse_bandwidth) <= 0:
        raise ValueError("all rates must be positive")

    def check(name, small, big):
        ratio = big / small
        return RegimeCheck(name, ratio >= margin, ratio, margin)

    return RegimeReport((
        check("weak-coupling", g0, omega_m),
        check("sub-period-pulse", omega_m, pulse_bandwidth),
        check("pulse-distortion", pulse_bandwidth, kappa),
        check("unresolved-sideband", omega_m, kappa),
    ))


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


def optimize_schedule(mu_target: float, phi: float, loss: LossConfig = LOSSLESS,
                      ancilla_vsq: float = 0.5,
                      include_angles: bool = False) -> ScheduleOptimization:
    """Local derivative-free re-optimization of the pulse strengths.

    Minimizes the infidelity between the squeezer output on vacuum and the
    ideal target over (chi1, lam, chi3), seeded at and box-bounded around the
    analytic schedule, with theta and the ancilla angle tied to their analytic
    rules.  ``include_angles=True`` frees those two as well; with the extra
    freedom the lossless problem admits exactly unitary solutions even for a
    finitely squeezed ancilla, so the tied mode is the default to keep the
    optimum comparable to the analytic schedule.  Never returns anything worse
    than the seed; ``converged`` is False if the simplex hit its 2000-iteration
    cap.
    """
    seed = schedule_for_mu(mu_target, phi, ancilla_vsq)
    target = ideal_target_state(vacuum(MECH), mu_target, phi)

    def make(params) -> PulseSchedule:
        if include_angles:
            chi1, lam, chi3, theta, angle = params
        else:
            chi1, lam, chi3 = params
            theta, angle = theta_for(lam, phi), seed.ancilla_angle
        return PulseSchedule(chi1=chi1, lam=lam, chi3=chi3, phi=phi, theta=theta,
                             ancilla_vsq=ancilla_vsq, ancilla_angle=angle)

    def infidelity(params) -> float:
        try:
            out = squeezer_output(make(params), loss, vacuum(MECH))
            return 1.0 - fidelity_zero_mean(out, target)
        except ValueError:
            return 1e6  # outside the physical branch

    x0 = np.array([seed.chi1, seed.lam, seed.chi3])
    if include_angles:
        x0 = np.append(x0, [seed.theta, seed.ancilla_angle])
    seed_objective = infidelity(x0)
    span = np.maximum(0.5 * np.abs(x0), 0.5)
    bounds = optimize.Bounds(x0 - span, x0 + span)
    res = optimize.minimize(infidelity, x0, method="Nelder-Mead", bounds=bounds,
                            options={"maxiter": 2000, "xatol": 1e-10, "fatol": 1e-14})
    n_eval = int(res.nfev)
    if res.fun <= seed_objective:
        best, best_obj = make(res.x), float(res.fun)
    else:
        best, best_obj = seed, seed_objective
    return ScheduleOptimization(schedule=best, objective=best_obj,
                                seed_objective=seed_objective,
                                converged=bool(res.success), n_evaluations=n_eval)
