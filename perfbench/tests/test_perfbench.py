"""Tests of the benchmark itself: tracing changes no output, the exact counts
repeat, seeds make same-size inputs, and every metric name is valid.

Run from the repository root with ``python -m pytest perfbench/tests``.  The
cat-decay test runs the criterion-10 config twice and takes about a minute.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pulsox import experiments, squeezer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _traced_pass(wl, inputs):
    tracer = spans.Tracer()
    with tracer.active():
        raw = wl.run_pass(inputs)
    return tracer, raw


def _under(tracer, name, ancestor):
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    found = 0
    for _, _, _, parent in (s for s in tracer.spans if s[0] == name):
        while parent >= 0 and tracer.spans[parent][0] != ancestor:
            parent = tracer.spans[parent][3]
        found += parent >= 0
    return found


def test_metric_names_and_units_are_valid_and_listed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for section, ours in (("end_to_end", run.END_TO_END), ("per_layer", spans.LAYER_METRICS)):
        assert [(m["name"], m["unit"]) for m in bench[section]] == list(ours)
    names = [name for name, _ in run.END_TO_END + tuple(spans.LAYER_METRICS)]
    assert len(set(names)) == len(names)
    for name, unit in run.END_TO_END + tuple(spans.LAYER_METRICS):
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", ["gaussian", "optimize", "fock-export"])
def test_traced_outputs_are_byte_identical(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.prepare(workloads.DEFAULT_SEED, str(tmp_path))
    plain = wl.digest(wl.collect(inputs, wl.run_pass(inputs)))
    tracer, raw = _traced_pass(wl, inputs)
    assert wl.digest(wl.collect(inputs, raw)) == plain
    assert tracer.spans


def test_tracer_restores_every_binding():
    before = (experiments.run_experiment, experiments.RUNNERS["fidelity-sweep"],
              experiments.squeezer_output, squeezer.LinearMap.__post_init__)
    with spans.Tracer().active():
        assert experiments.squeezer_output is not before[2]
        assert experiments.RUNNERS["fidelity-sweep"] is not before[1]
    assert (experiments.run_experiment, experiments.RUNNERS["fidelity-sweep"],
            experiments.squeezer_output, squeezer.LinearMap.__post_init__) == before


def test_fidelity_sweep_makes_735_squeezer_output_calls():
    wl = workloads.WORKLOADS["gaussian"]
    inputs = wl.prepare(workloads.DEFAULT_SEED, ".")
    counts = []
    for _ in range(2):
        tracer, _ = _traced_pass(wl, inputs)
        counts.append(_under(tracer, "squeezer.squeezer_output",
                             "experiments.run_fidelity_sweep"))
    assert counts == [49 * 15, 49 * 15]


def test_cat_decay_counts_repeat_and_tracing_changes_nothing():
    wl = workloads.WORKLOADS["cat-decay"]
    cfg = wl.prepare(workloads.DEFAULT_SEED, ".")
    plain = wl.digest(wl.run_pass(cfg))
    tracer, result = _traced_pass(wl, cfg)
    assert wl.digest(result) == plain
    profile = spans.Profile(tracer.spans, 0, len(tracer.spans))
    assert profile.calls["wigner.apply_gaussian_channel"] == 1171
    assert profile.calls["wigner.half_life"] == 6
    assert all(ok for _, ok in wl.check(cfg, [result], workloads.DEFAULT_SEED))


def test_self_time_subtracts_direct_children():
    spans_ = [["a.f", 0.0, 10.0, -1], ["b.g", 1.0, 4.0, 0], ["c.h", 2.0, 3.0, 1],
              ["b.g", 5.0, 6.0, 0]]
    profile = spans.Profile(spans_, 0, len(spans_))
    assert profile.self_s["a.f"] == 6.0
    assert profile.self_s["b.g"] == 3.0
    assert profile.self_s["c.h"] == 1.0
    assert profile.top_level_s == 10.0
    assert profile.layer_sum(profile.calls, "b") == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs_of_the_same_size(name):
    wl = workloads.WORKLOADS[name]

    def shape(inputs):
        if name == "gaussian":
            return [(len(cfg.sweep.mu), len(cfg.sweep.g2_ratio)) for cfg in inputs]
        if name == "cat-decay":
            return (inputs.sweep.alpha, inputs.cat.tau_resolution,
                    inputs.cat.series_resolution)
        return len(inputs[0]) if name == "optimize" else len(inputs)

    def fingerprint(inputs):
        if name == "gaussian":
            return repr([cfg.flatten() for cfg in inputs])
        if name == "cat-decay":
            return repr(inputs.flatten())
        return repr(inputs[0]) if name == "optimize" else repr(inputs)

    a, b, c = (wl.prepare(seed, ".") for seed in (1, 1, 2))
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)
    assert shape(a) == shape(c)


def test_gauge_scales_to_the_reference_speed():
    gauge = calibrate.Gauge(("python", "format"))
    assert gauge.reference_s == calibrate.REFERENCE_S["python"] + calibrate.REFERENCE_S["format"]
    # a machine running at half the reference speed takes twice as long for both
    ref = gauge.reference_s
    assert gauge.scale(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert gauge.scale(1.0, ref, 3 * ref) == pytest.approx(0.5)
    assert gauge.sample() > 0.0 and len(gauge.samples) == 1


def test_every_workload_names_known_gauge_parts():
    for wl in workloads.WORKLOADS.values():
        assert set(wl.gauge_parts) <= set(calibrate.PARTS)
    assert workloads.WORKLOADS["cat-decay"].gauge_parts == ()  # reported raw
    assert set(calibrate.PARTS) == set(calibrate.REFERENCE_S) == set(workloads.ALL_GAUGE_PARTS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gaussian",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
