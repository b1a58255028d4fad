"""Shared test configuration: the Hypothesis profile, acceptance-criterion
reporting, the environment of a subprocess without numpy's SIMD dispatch and
the three-pulse oracle map."""
from __future__ import annotations

import os
from pathlib import Path

from hypothesis import settings

from pulsox import compose, qnd_pp, qnd_xx

# Every property test is deterministic and keeps no example database.
settings.register_profile("pulsox", deadline=None, derandomize=True, database=None)
settings.load_profile("pulsox")

CRITERIA_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(name: str, ok: bool, detail: str) -> None:
    CRITERIA_RESULTS.append((name, ok, detail))
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in CRITERIA_RESULTS:
        terminalreporter.write_line(
            f"criterion {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def without_cpu_dispatch() -> dict[str, str]:
    """The environment of a subprocess that imports this pulsox with numpy's
    dispatch targets above the build's baseline switched off.

    ``NPY_DISABLE_CPU_FEATURES`` names every target of numpy's
    ``__cpu_dispatch__`` that ``__cpu_features__`` reports enabled on this
    machine.  Only the targets this machine has are switched off: on a machine
    without AVX-512 the AVX-512 kernels never ran, so a test checks less, and
    on one with no target above the baseline it compares two runs on the same
    path.
    """
    from numpy._core import _multiarray_umath as umath

    import pulsox

    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    path = [str(Path(pulsox.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
                PYTHONPATH=os.pathsep.join(filter(None, path)))


def three_pulse(chi1: float, chi3: float):
    """The X-X, P-P, X-X map on (mech, opt) that the four-pulse protocol is
    derived from.  The P-P strength -(1/chi1 + 1/chi3) diagonalizes it and
    cancels the mechanical momentum's optical pickup, so its mechanical block
    is diag(-chi1/chi3, -chi3/chi1) and X_mech picks up that P-P strength
    times P_opt."""
    return compose([qnd_xx(chi1), qnd_pp(-(1.0 / chi1 + 1.0 / chi3)), qnd_xx(chi3)])
