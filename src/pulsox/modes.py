"""Mode bookkeeping for interleaved quadrature vectors.

Every object in the package lives on a :class:`ModeLayout`: an ordered tuple of
mode labels with quadratures interleaved as (X1, P1, X2, P2, ...).  Units are
fixed globally to the [X, P] = 2i convention, so the vacuum covariance is the
identity and a 3 dB squeezed variance is 0.5.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModeLayout:
    """Ordered set of bosonic modes.

    Args:
        labels: unique mode names, e.g. ``("mech", "opt")``.  The quadrature
            vector dimension is exactly ``2 * len(labels)``.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("layout needs at least one mode")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels: {labels}")

    @property
    def mode_count(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2 * len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown mode {label!r}, layout has {self.labels}") from None

    def x_index(self, label: str) -> int:
        return 2 * self.index(label)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal single-mode symplectic form for (X1, P1, X2, P2, ...)."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


# Layouts used throughout the squeezing protocol.
MECH = ModeLayout(("mech",))
OPT = ModeLayout(("opt",))
MECH_OPT = ModeLayout(("mech", "opt"))
