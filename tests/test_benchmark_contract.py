"""The benchmark's workloads still run on the package.

``perfbench/workloads.py`` is loaded as it stands, without edits, and each
workload makes one pass on its default inputs: ``prepare``, ``run_pass``,
``collect`` and ``check``, with every check holding.  A change that deletes or
renames something the benchmark calls fails here, not only when the
benchmark is run.
"""
from __future__ import annotations

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "workloads.py")
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_pass_of_each_workload_holds_every_check(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.prepare(workloads.DEFAULT_SEED, str(tmp_path))
    if name == "cat-decay":
        # its warm-up alone still drives the grid engine and reads
        # cat.tau_resolution and cat.series_resolution
        wl.warmup(inputs)
    output = wl.collect(inputs, wl.run_pass(inputs))
    assert isinstance(wl.digest(output), str)
    checks = wl.check(inputs, [output], workloads.DEFAULT_SEED)
    assert checks
    assert [label for label, ok in checks if not ok] == []
