"""In-memory span tracer for pulsox's layers and the per-layer metrics it yields.

A layer is one module of the package.  ``Tracer.active()`` wraps every public
function of each layer, the public methods, ``__post_init__`` validators and
``__matmul__`` of its classes, and rebinds each wrapper in every pulsox module
namespace (and registry dict) that holds the original, because the package
imports names with ``from .x import y``.  Leaving the block restores the
originals, so untraced code runs unchanged.

``modes`` is not traced: its calls are too fine to time, so their cost shows as
self time of the callers.
"""
from __future__ import annotations

import collections
import functools
import inspect
import os
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("channels", "squeezer", "states", "wigner", "experiments", "config",
          "table", "cli")
_TRACED_DUNDERS = ("__post_init__", "__matmul__")

# A bilinear read of W(0, 0) touches the four samples of one grid cell.
_ETA_READS = 4
# Compulsory traffic of one grid channel step: read every float64 input sample
# once and write every output sample once.
_STEP_BYTES_PER_POINT = 16


def _add(key, amount):
    def hook(counts, args, result):
        counts[key] += amount(args, result)
    return hook


# Work counters recorded at the layer boundary, keyed by span name.
HOOKS = {
    "wigner.apply_gaussian_channel":
        _add("grid_points", lambda args, grid: grid.resolution ** 2),
    "wigner.wigner_cat": _add("grid_points_built", lambda args, grid: grid.resolution ** 2),
    "wigner.wigner_fock": _add("grid_points_built", lambda args, grid: grid.resolution ** 2),
    "wigner.wigner_gaussian":
        _add("grid_points_built", lambda args, grid: grid.resolution ** 2),
    "wigner.negativity_eta": _add("grid_values_read", lambda args, eta: _ETA_READS),
    "wigner.grid_to_csv": _add("csv_bytes", lambda args, _: os.path.getsize(args[1])),
    "table.ResultTable.render":
        _add("table_bytes", lambda args, text: len(text.encode("utf-8"))),
    "squeezer.optimize_schedule":
        _add("optimizer_evaluations", lambda args, result: result.n_evaluations),
}


class Tracer:
    """Records spans as ``[name, start, end, parent index or -1]`` in ``spans``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result
        return traced

    def _replace(self, setter, key, old, new):
        setter(key, new)
        self._undo.append((setter, key, old))

    def _rebind(self, namespaces, original, wrapped):
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                if value is original:
                    self._replace(namespace.__setitem__, key, original, wrapped)
                elif isinstance(value, dict):  # registries such as RUNNERS
                    for rkey, item in list(value.items()):
                        if item is original:
                            self._replace(value.__setitem__, rkey, original, wrapped)

    def _wrap_class(self, layer, cls):
        setter = functools.partial(setattr, cls)
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _TRACED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                wrapped = self._wrap(name, member)
            elif isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(name, member.__func__))
            else:
                continue
            self._replace(setter, attr, member, wrapped)

    def install(self):
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if n == "pulsox" or n.startswith("pulsox.")]
        for layer in LAYERS:
            module = sys.modules[f"pulsox.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._rebind(namespaces, obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)

    def uninstall(self):
        while self._undo:
            setter, key, old = self._undo.pop()
            setter(key, old)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        """Write every span as CSV: id, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start!r},{end!r}\n")


class Profile:
    """Calls, total and self seconds per span name over ``spans[lo:hi]``.

    Self time is a span's duration minus the durations of its direct children.
    """

    def __init__(self, spans, lo, hi):
        self.calls = collections.Counter()
        self.total = collections.Counter()
        self.self_s = collections.Counter()
        self.top_level_s = 0.0
        self.n_spans = hi - lo
        self.eta_in_half_life = 0
        durations = [end - start for _, start, end, _ in spans[lo:hi]]
        children = [0.0] * self.n_spans
        in_half_life = [False] * self.n_spans
        for k, (name, _, _, parent) in enumerate(spans[lo:hi]):
            if parent >= lo:
                children[parent - lo] += durations[k]
                inherited = in_half_life[parent - lo]
            else:
                self.top_level_s += durations[k]
                inherited = False
            in_half_life[k] = inherited or name == "wigner.half_life"
            if name == "wigner.eta_at" and inherited:
                self.eta_in_half_life += 1
        for k, (name, _, _, _) in enumerate(spans[lo:hi]):
            self.calls[name] += 1
            self.total[name] += durations[k]
            self.self_s[name] += durations[k] - children[k]

    def layer_sum(self, table, layer, suffix=""):
        prefix = layer + "."
        return sum(v for name, v in table.items()
                   if name.startswith(prefix) and name.endswith(suffix))


def _ratio(num, den):
    return num / den if den else 0.0


# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    [(f"{layer}.{kind}", unit) for layer in LAYERS
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("channels.validate_s", "s"), ("channels.compose.self_s", "s"),
       ("states.validate_s", "s"), ("states.apply_channel.self_s", "s"),
       ("states.fidelity_zero_mean.self_s", "s")]
    + [(f"squeezer.{fn}.{kind}", unit)
       for fn in ("schedule_for_mu", "build_lossy_squeezer",
                  "mechanical_reduced_channel", "squeezer_output")
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("squeezer.optimize_schedule.n_evaluations", "count"),
       ("wigner.apply_gaussian_channel.calls", "count"),
       ("wigner.apply_gaussian_channel.self_s", "s"),
       ("wigner.apply_gaussian_channel.points", "count"),
       ("wigner.apply_gaussian_channel.s_per_mpoint", "s/Mpoint"),
       ("wigner.apply_gaussian_channel.computed_bytes", "B"),
       ("wigner.half_life.calls", "count"), ("wigner.half_life.self_s", "s"),
       ("wigner.half_life.eta_per_call", "count"), ("wigner.useful_ratio", "1"),
       ("wigner.grid_to_csv.self_s", "s"), ("wigner.grid_to_csv.bytes", "B"),
       ("table.render.self_s", "s"), ("table.bytes", "B"),
       ("config.setup_s", "s"), ("experiments.cpu_s", "s"),
       ("experiments.cpu_util", "1"),
       ("trace.spans", "count"), ("trace.coverage", "1"), ("trace.wall_s", "s"),
       ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s")]
)

# Per-layer metrics that are exact counts: they must repeat from pass to pass.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit in ("count", "B"))


def pass_metrics(profile: Profile, counts) -> dict[str, float]:
    """The per-layer metrics of one traced pass that come from its spans."""
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = profile.layer_sum(profile.calls, layer)
        m[f"{layer}.self_s"] = profile.layer_sum(profile.self_s, layer)
    for layer in ("channels", "states"):
        m[f"{layer}.validate_s"] = profile.layer_sum(profile.total, layer, ".__post_init__")
    for name in ("channels.compose", "states.apply_channel", "states.fidelity_zero_mean",
                 "wigner.grid_to_csv"):
        m[f"{name}.self_s"] = profile.self_s[name]
    # render's only children are the to_csv / to_json of its own layer
    m["table.render.self_s"] = profile.total["table.ResultTable.render"]
    for fn in ("schedule_for_mu", "build_lossy_squeezer", "mechanical_reduced_channel",
               "squeezer_output"):
        m[f"squeezer.{fn}.calls"] = profile.calls[f"squeezer.{fn}"]
        m[f"squeezer.{fn}.self_s"] = profile.self_s[f"squeezer.{fn}"]
    m["squeezer.optimize_schedule.n_evaluations"] = counts["optimizer_evaluations"]

    step = "wigner.apply_gaussian_channel"
    points = counts["grid_points"]
    m[f"{step}.calls"] = profile.calls[step]
    m[f"{step}.self_s"] = profile.self_s[step]
    m[f"{step}.points"] = points
    m[f"{step}.s_per_mpoint"] = _ratio(profile.self_s[step], points / 1e6)
    m[f"{step}.computed_bytes"] = _STEP_BYTES_PER_POINT * points
    m["wigner.half_life.calls"] = profile.calls["wigner.half_life"]
    m["wigner.half_life.self_s"] = profile.self_s["wigner.half_life"]
    m["wigner.half_life.eta_per_call"] = _ratio(profile.eta_in_half_life,
                                                profile.calls["wigner.half_life"])
    m["wigner.useful_ratio"] = _ratio(counts["grid_values_read"],
                                      points + counts["grid_points_built"])
    m["wigner.grid_to_csv.bytes"] = counts["csv_bytes"]
    m["table.bytes"] = counts["table_bytes"]
    m["trace.spans"] = profile.n_spans
    return m
