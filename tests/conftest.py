"""Shared test configuration: the Hypothesis profile, acceptance-criterion
reporting and the environment of a subprocess without numpy's SIMD dispatch."""
from __future__ import annotations

import os
from pathlib import Path

from hypothesis import settings

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
