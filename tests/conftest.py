"""Shared test configuration: the Hypothesis profile and acceptance-criterion
reporting."""
from __future__ import annotations

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
