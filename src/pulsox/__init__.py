"""Pulsed optomechanical squeezing simulator.

Simulates a four-pulse QND squeezing protocol end to end: Gaussian channels
for every pulse, rotation, delay and loss (composed into the lossless and
lossy squeezers), Gaussian state propagation with fidelity benchmarks, exact
and grid Wigner functions for non-Gaussian inputs, and experiment runners with
a CLI.

Conventions, fixed package-wide:

* [X, P] = 2i units; the vacuum covariance is the identity, 3 dB of squeezing
  is a variance of 0.5.
* Quadratures are interleaved (X1, P1, X2, P2, ...).
* Rotations map X -> X cos(a) + P sin(a), P -> -X sin(a) + P cos(a).
* Squeeze factor mu rescales momentum: P' = mu P, X' = X / mu; mu < 1
  squeezes momentum, mu > 1 squeezes position.
"""

__version__ = "0.1.0"

from .channels import (LOSSLESS, GaussianChannel, LossConfig, beamsplitter_loss, compose,
                       damped_evolution, is_physical, qnd_pp, qnd_xx, quadrature_scaling,
                       rotation)
from .modes import MECH, MECH_OPT, OPT, ModeLayout, symplectic_form
from .squeezer import (PulseSchedule, approx_photon_budget, build_lossy_squeezer,
                       chi3_for, chi_from_physical, ideal_target_map, ideal_target_state,
                       mechanical_squeezer, optimize_schedule, photon_budget,
                       photons_for_chi, regime_check, schedule_for_mu, squeezer_output,
                       theta_for, vacuum_infidelity)
from .states import (GaussianState, apply_channel, classical_bound, fidelity_zero_mean,
                     marginal, product, pure_fidelity, squeezed, thermal, vacuum)
from .wigner import (CatSpec, GaussianSum, GridClippingError, HalfLifeResult,
                     WignerGrid, apply_gaussian_channel, eta_series,
                     fringe_ellipse, grid_from_csv, grid_to_csv, half_life,
                     mu_opt, negativity_eta, wigner_cat, wigner_fock,
                     wigner_gaussian)
