#!/usr/bin/env python3
"""Run one pulsox benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gaussian --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run it from the repository root: the package is imported from ./src.  With
--trace 0 it measures the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  The lines it prints first are a readable report
(environment, seed, every metric with its unit, the checks); the last line is
one JSON object with the keys correct, attempted, failed and metrics.
``--workload all`` runs every workload in its own process and prints a table.

Each workload is a closed loop: one caller runs passes back to back until
--seconds have passed (at least one pass), after an untimed warm-up.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import spans

WORKLOAD_NAMES = ("gaussian", "cat-decay", "fock-export", "optimize")
SETUP_PROBES = 5
THREAD_ENV_PREFIXES = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "GOTO_", "VECLIB_",
                       "NUMEXPR_")
COVERAGE_MIN = 0.95

# (name, unit) of every end-to-end metric, as listed in BENCHMARK.json.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ref_err", "1"), ("opt_infidelity", "1"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Checks:
    """Output checks; an exception inside a check counts as a failed check."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def add(self, name, ok):
        self.results.append((name, bool(ok)))

    def run(self, name, fn):
        try:
            for check_name, ok in fn():
                self.add(check_name, ok)
        except Exception as exc:  # report the failure and keep measuring
            self.add(f"{name} raised {type(exc).__name__}: {exc}", False)

    @property
    def failed(self):
        return sum(not ok for _, ok in self.results)


def _cpu_s():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "thread_env": {k: v for k, v in sorted(os.environ.items())
                           if k.startswith(THREAD_ENV_PREFIXES)}}


def _setup_times(args, root, gauge):
    """Seconds from launching a fresh interpreter to 'ready': imports plus
    config resolution, once per probe, raw and scaled to the gauge's reference
    speed."""
    code = (f"import sys; sys.path[:0] = [{os.path.join(root, 'src')!r}, "
            f"{os.path.dirname(os.path.abspath(__file__))!r}]; import workloads; "
            f"workloads.WORKLOADS[{args.workload!r}].prepare("
            f"{args.seed}, {os.path.join(root, '.perfbench', 'probe')!r}); "
            "print('ready', flush=True)")
    cmd = [sys.executable, "-c", code]
    raw, scaled = [], []
    before = gauge.sample()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - t0
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
        after = gauge.sample()
        raw.append(elapsed)
        scaled.append(gauge.scale(elapsed, before, after))
        before = after
    return raw, scaled


def _timed_pass(wl, inputs):
    c0, t0 = _cpu_s(), time.perf_counter()
    raw = wl.run_pass(inputs)
    return raw, time.perf_counter() - t0, _cpu_s() - c0


def _measure(wl, inputs, seconds, checks, tracer=None, gauge=None):
    """Run passes for ``seconds``; with a tracer, alternate untraced and traced
    passes.  Returns (untraced passes, traced passes, outputs) where a pass is
    (wall, cpu, digest) and a traced pass also carries its span range and
    counters.  With a gauge, an untraced pass also carries its wall time scaled
    by gauge samples taken right before and right after it: the machine's
    speed swings within a second, so only adjacent samples track it."""
    plain, traced, outputs = [], [], []
    try:
        wl.warmup(inputs)
        start = time.perf_counter()
        while not (traced if tracer else plain) or time.perf_counter() - start < seconds:
            before = gauge.sample() if gauge else None
            raw, wall, cpu = _timed_pass(wl, inputs)
            if gauge:
                scaled = gauge.scale(wall, before, gauge.sample())
            out = wl.collect(inputs, raw)
            plain.append((wall, cpu, wl.digest(out)) + ((scaled,) if gauge else ()))
            if tracer is None:
                outputs.append(out)
                continue
            lo = len(tracer.spans)
            tracer.counts.clear()
            with tracer.active():
                raw, wall, cpu = _timed_pass(wl, inputs)
            out = wl.collect(inputs, raw)
            outputs.append(out)
            traced.append((wall, cpu, wl.digest(out), lo, len(tracer.spans),
                           tracer.counts.copy()))
    except Exception as exc:  # a failing pass is a failed check, not a crash
        checks.add(f"pass {len(plain)} raised {type(exc).__name__}: {exc}", False)
    return plain, traced, outputs


def _end_to_end(wl, workloads, args, root, workdir, checks):
    setup_raw, setup = _setup_times(args, root, calibrate.Gauge())
    inputs = wl.prepare(args.seed, workdir)
    gauge = calibrate.Gauge(wl.gauge_parts) if wl.gauge_parts else None
    plain, _, outputs = _measure(wl, inputs, args.seconds, checks, gauge=gauge)
    peak = _peak_rss_mb()
    if outputs:
        checks.run("check", lambda: wl.check(inputs, outputs, args.seed))
        checks.add("outputs identical pass to pass", len({p[2] for p in plain}) == 1)
    ref_err, opt_infidelity = workloads.reference_accuracy()
    notes = {"setup_s": (f"median of {len(setup)} fresh interpreters, scaled to the "
                         f"reference speed; raw median {statistics.median(setup_raw):.4f}"),
             "ref_err": "default fidelity sweep, whatever the seed",
             "opt_infidelity": "default optimize targets, whatever the seed"}
    metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": peak,
               "ref_err": ref_err, "opt_infidelity": opt_infidelity}
    if plain:
        walls = [p[0] for p in plain]
        raw = (f"raw median {statistics.median(walls):.4f}, min {min(walls):.4f}, "
               f"max {max(walls):.4f}")
        if gauge:
            metrics["wall_s"] = statistics.median(p[3] for p in plain)
            notes["wall_s"] = (f"median of {len(walls)} passes scaled to the reference "
                               f"speed by the {'+'.join(gauge.parts)} gauge (median "
                               f"{statistics.median(gauge.samples):.4f} s, reference "
                               f"{gauge.reference_s:.4f} s); {raw}")
        else:
            metrics["wall_s"] = statistics.median(walls)
            notes["wall_s"] = f"median of {len(walls)} passes, not scaled; {raw}"
    return metrics, notes, END_TO_END


def _traced_run(wl, args, workdir, checks):
    tracer = spans.Tracer()
    with tracer.active():
        inputs = wl.prepare(args.seed, workdir)
    setup = spans.Profile(tracer.spans, 0, len(tracer.spans))
    plain, traced, outputs = _measure(wl, inputs, args.seconds, checks, tracer)
    if not traced:
        return {}, {}, spans.LAYER_METRICS
    per_pass = []
    for wall, _, _, lo, hi, counts in traced:
        profile = spans.Profile(tracer.spans, lo, hi)
        m = spans.pass_metrics(profile, counts)
        m["trace.coverage"] = profile.top_level_s / wall
        per_pass.append(m)
    checks.run("check", lambda: wl.check(inputs, outputs, args.seed))
    checks.add("traced outputs byte-identical to untraced ones",
               len({p[2] for p in plain} | {t[2] for t in traced}) == 1)
    checks.add("exact counts repeat from pass to pass",
               all(m[k] == per_pass[0][k] for m in per_pass for k in spans.COUNT_METRICS))
    coverage = [m["trace.coverage"] for m in per_pass]
    checks.add(f"top-level spans cover at least {COVERAGE_MIN:g} of each pass",
               all(COVERAGE_MIN <= c <= 1.0 for c in coverage))

    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics.update({k: per_pass[0][k] for k in spans.COUNT_METRICS})
    metrics["config.setup_s"] = setup.layer_sum(setup.self_s, "config")
    metrics["experiments.cpu_s"] = statistics.median(p[1] for p in plain)
    metrics["experiments.cpu_util"] = statistics.median(p[1] / p[0] for p in plain)
    metrics["trace.wall_s"] = statistics.median(t[0] for t in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(p[0] for p in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    tracer.write(os.path.join(os.path.dirname(workdir), f"spans-{wl.name}-seed{args.seed}.csv"))
    notes = {"trace.wall_s": f"median of {len(traced)} traced passes",
             "trace.untraced_wall_s": f"median of {len(plain)} untraced passes"}
    return metrics, notes, spans.LAYER_METRICS


def _run_one(args, root):
    sys.path.insert(0, os.path.join(root, "src"))
    import pulsox
    if not os.path.abspath(pulsox.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"perfbench: imported pulsox from {pulsox.__file__}, not ./src", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    checks = Checks()
    workdir = os.path.join(root, ".perfbench", f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            metrics, notes, names = _traced_run(wl, args, workdir, checks)
        else:
            metrics, notes, names = _end_to_end(wl, workloads, args, root, workdir, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} (closed loop, one caller)")
    print("env " + json.dumps(_environment(), sort_keys=True))
    result = {}
    for name, unit in names:
        if name in metrics:
            result[name] = {"value": metrics[name], "unit": unit}
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<46} {metrics[name]:<14.6g} {unit}{note}")
    attempted = len(checks.results)
    for name, ok in checks.results:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    print(f"  fail_frac = {checks.failed / max(attempted, 1):g} "
          f"({checks.failed} of {attempted} checks failed)")
    correct = checks.failed == 0 and len(result) == len(names)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": checks.failed, "metrics": result}))
    return 0 if correct else 1


def _run_all(args):
    rows, failed = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            result = {}
        if proc.returncode != 0 or not result.get("correct"):
            failed += 1
        fail_frac = result.get("failed", 1) / max(result.get("attempted", 1), 1)
        rows.append((name, result.get("metrics", {}), fail_frac))
    for name, metrics, fail_frac in rows:
        print(f"{name}:")
        for metric, m in metrics.items():
            print(f"  {metric:<46} {m['value']:<14.6g} {m['unit']}")
        print(f"  {'fail_frac':<46} {fail_frac:<14.6g} 1")
    return 1 if failed else 0


def main(argv=None):
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pulsox", "__init__.py")):
        print("perfbench: no ./src/pulsox here; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
