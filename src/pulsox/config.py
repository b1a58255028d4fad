"""Experiment configuration: flat key-value text with dotted sections.

Grammar (one assignment per line; ``#`` starts a comment)::

    # comment
    experiment = cat-decay  # the CLI's subcommand takes its place
    physical.q = 1e7
    physical.nbar_m = 4e4
    sweep.mu = 0.5, 1.0, 2.0
    sweep.q = 4:7:7
    output.path = out/cat

Values are parsed by the field they land in: floats, whole-number ints,
strings, or float lists.  A float list is comma-separated values or one
``a:b:n`` range, n values with log10 uniform on [a, b].  Each section field
is the one declaration of its key: its type, its default and, for a ruled key,
the range every value must meet.  Every numeric value must also be finite.
Unknown, malformed or out-of-range keys raise :class:`ConfigError` carrying
the dotted key path.
"""
from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields

import numpy as np

from .channels import (ANCILLA_VSQ_RANGE, ANCILLA_VSQ_RULE, MU_RANGE, MU_RULE, LossConfig,
                       damped_is_physical)

EXPERIMENTS = ("fidelity-sweep", "fock-squeeze", "impulse", "cat-decay",
               "multimode", "photon-budget")
# Experiments that squeeze at a single mu rather than sweeping it.
SINGLE_MU_EXPERIMENTS = ("fock-squeeze", "multimode")
# The readout strengths that readout.chi_ro and both impulse functions accept.
CHI_RO_RANGE = (1e-6, 1e6)
CHI_RO_RULE = ("must lie in [1e-6, 1e6], far from where chi_ro^-2 or chi_ro^2 overflows "
               "(about 1e-154, 1e154)")


class ConfigError(ValueError):
    """Invalid configuration; ``key`` is the dotted path that failed."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


def _float_list(raw: str) -> tuple[float, ...]:
    if ":" in raw:
        return log_grid(raw)
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def log_grid(spec: str) -> tuple[float, ...]:
    """Expand 'a:b:n' into n points with log10 uniform on [a, b]; raises
    OverflowError, naming the range, when a point exceeds the float range."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValueError(f"expected 'a:b:n', got {spec!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("range ends must be finite")
    if n < 1:
        raise ValueError("grid needs at least one point")
    try:
        return tuple(10.0 ** float(x) for x in np.linspace(lo, hi, n))
    except OverflowError:
        raise OverflowError(f"range {spec!r} reaches 10^{max(lo, hi):g}, past the largest "
                            f"float (about {np.finfo(float).max:.2g})") from None


def _key(default, rule, why):
    """A ruled field: every value (every element, for a list key) must pass
    ``rule``; ``why`` states the allowed range in the error."""
    return field(default=default, metadata={"rule": rule, "why": why})


def _check_value(key: str, value, spec: Field) -> None:
    """Every numeric value must be finite and pass the rule ``spec`` carries."""
    values = value if isinstance(value, tuple) else (value,)
    for v in values:
        if isinstance(v, (int, float)) and not math.isfinite(v):
            raise ConfigError(key, f"{v!r} is not finite")
    rule = spec.metadata.get("rule")
    if rule is not None and not all(rule(v) for v in values):
        raise ConfigError(key, f"{value!r} {spec.metadata['why']}")


@dataclass
class PhysicalConfig:
    """Loss model plus the ancilla squeezing used by the squeezer."""

    # q > 1/2 is gamma < 2 omega_m: the model has no overdamped mechanics
    q: float = _key(1e7, lambda v: v > 0.5, "must be > 0.5 (underdamped)")
    omega_m: float = _key(1.0, lambda v: v > 0, "must be > 0")
    nbar_m: float = _key(4e4, lambda v: 0 <= v <= 1e100, "must lie in [0, 1e100], far below "
                         "where the complete-positivity test overflows and rejects the run for "
                         "the wrong reason (from 6e153 at q near 1/2, 1.6e163 at the defaults)")
    epsilon: float = _key(0.0, lambda v: 0 <= v <= 1, "must lie in [0, 1]")
    # nbar_l: measured against the exact rational oracle of the vacuum
    # infidelity in tests/test_squeezer.py, at the default phi
    nbar_l: float = _key(0.0, lambda v: 0 <= v <= 1e8, "must lie in [0, 1e8]: beyond, at "
                         "epsilon = 1 the fidelity left under the infidelity (4e-10 at 1e8) "
                         "loses its digits (2.8e-7 relative at 1e8, 1.9e-4 at 1e10, 12% at "
                         "1e13), and from 3.7e13 the infidelity has no value")
    ancilla_vsq: float = _key(0.5, lambda v: ANCILLA_VSQ_RANGE[0] <= v <= ANCILLA_VSQ_RANGE[1],
                              ANCILLA_VSQ_RULE)
    phi: float = _key(2.0 * math.pi / 100.0, lambda v: 0 < v < math.pi / 2,
                      "must lie in (0, pi/2)")


@dataclass
class SweepConfig:
    mu: tuple[float, ...] = _key((), lambda v: MU_RANGE[0] <= v <= MU_RANGE[1], MU_RULE)
    q: tuple[float, ...] = _key((), lambda v: v > 0.5, "must be > 0.5 (underdamped)")
    epsilon: tuple[float, ...] = _key((), lambda v: 0 <= v <= 1, "must lie in [0, 1]")
    alpha: tuple[float, ...] = _key((1.0, 2.0), lambda v: 1e-3 <= v <= 1e3, "must lie in "
                                    "[1e-3, 1e3]: above, rounding takes 2 alpha^2 eps off a "
                                    "cat's negativity; below, an odd cat's four terms cancel "
                                    "and eta(0) drifts above 1 (by 8e-8 at 1e-4)")
    g2_ratio: tuple[float, ...] = _key((0.0, 0.1, 0.2, 0.5, 1.0), lambda v: 0 <= v <= 10,
                                       "must lie in [0, 10]: above, the fidelity left under "
                                       "the multimode infidelity (1e-9 at 10 and mu = 1e3) "
                                       "loses its digits (1.1e-7 relative at 10, 3.5% at 100), "
                                       "and from about 126 the score has no value")


@dataclass
class ReadoutConfig:
    chi_ro: float = _key(3.0, lambda v: CHI_RO_RANGE[0] <= v <= CHI_RO_RANGE[1], CHI_RO_RULE)


@dataclass
class ImpulseConfig:
    nbar_in: tuple[float, ...] = _key((1.0, 3.0), lambda v: v >= 0, "must be >= 0")


@dataclass
class GridConfig:
    resolution: int = _key(512, lambda v: isinstance(v, int) and v >= 4 and v & (v - 1) == 0,
                           "must be a power of two >= 4")
    half_extent: float = _key(8.0, lambda v: v > 0, "must be > 0")


@dataclass
class CatConfig:
    samples_per_period: int = _key(64, lambda v: v >= 64, "must be >= 64")
    max_periods: float = _key(40.0, lambda v: v > 0, "must be > 0")
    series_periods: float = _key(2.0, lambda v: v > 0, "must be > 0")
    series_resolution: int = 512
    tau_resolution: int = 256
    momentum_mu: float = _key(0.5, lambda v: MU_RANGE[0] <= v <= MU_RANGE[1], MU_RULE)


@dataclass
class OutputConfig:
    path: str = ""
    format: str = _key("csv", lambda v: v in ("csv", "json"), "must be csv or json")


@dataclass
class ExperimentConfig:
    experiment: str = ""
    physical: PhysicalConfig = field(default_factory=PhysicalConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    readout: ReadoutConfig = field(default_factory=ReadoutConfig)
    impulse: ImpulseConfig = field(default_factory=ImpulseConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    cat: CatConfig = field(default_factory=CatConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError("experiment",
                              f"{self.experiment!r} not one of {EXPERIMENTS}")
        for f in fields(self):
            section = getattr(self, f.name)
            if hasattr(section, "__dataclass_fields__"):
                for sub in fields(section):
                    key, value = f"{f.name}.{sub.name}", getattr(section, sub.name)
                    # an empty list means the runner's default only where the
                    # field's own default is empty
                    if value == () and sub.default != ():
                        raise ConfigError(key, "needs at least one value")
                    _check_value(key, value, sub)
        if self.experiment in SINGLE_MU_EXPERIMENTS and len(self.sweep.mu) > 1:
            raise ConfigError("sweep.mu", f"{self.experiment} runs at one mu, "
                              f"got {len(self.sweep.mu)}")
        if int(self.cat.series_periods * self.cat.samples_per_period) < 1:
            raise ConfigError("cat.series_periods",
                              f"{self.cat.series_periods!r} periods give no decay-series "
                              f"sample at {self.cat.samples_per_period} per period")
        phys = self.physical
        losses = {q: LossConfig.from_q(q, nbar_m=phys.nbar_m, omega_m=phys.omega_m)
                  for q in (phys.q, *self.sweep.q)}
        # each (q, t) of a damped evolution a run starts with: the squeezer's
        # delay at every q, and the first sample of cat-decay's scan and series
        steps = [(q, phys.phi / (loss.sigma * loss.omega_m)) for q, loss in losses.items()]
        if self.experiment == "cat-decay":
            steps.append((phys.q, 2.0 * math.pi / phys.omega_m / self.cat.samples_per_period))
        for q, t in steps:
            if not damped_is_physical(losses[q], t):
                raise ConfigError("physical.nbar_m", f"{phys.nbar_m!r} leaves the damped "
                                  f"evolution over t={t!r}, at q={q!r}, not completely "
                                  "positive (momentum damping needs about "
                                  "(2 nbar_m + 1) omega_m t >= sqrt(3))")

    # -- flat key-value view -------------------------------------------------

    def set_key(self, key: str, raw: str) -> None:
        section, _, name = key.partition(".")
        if not name:
            if key != "experiment":
                raise ConfigError(key, "unknown top-level key")
            self.experiment = raw.strip()
            return
        target = getattr(self, section, None)
        if target is None or not hasattr(target, "__dataclass_fields__"):
            raise ConfigError(key, "unknown section")
        spec = target.__dataclass_fields__.get(name)
        if spec is None:
            raise ConfigError(key, "unknown key")
        current = getattr(target, name)
        try:
            if isinstance(current, tuple):
                value = _float_list(raw)
            elif isinstance(current, int):
                value = float(raw)
                if not value.is_integer():
                    raise ValueError("not a whole number")
                value = int(value)
            elif isinstance(current, float):
                value = float(raw)
            else:
                value = raw.strip()
        except (ValueError, OverflowError) as exc:
            raise ConfigError(key, f"cannot parse {raw!r}: {exc}") from None
        _check_value(key, value, spec)
        setattr(target, name, value)

    def flatten(self) -> dict[str, str]:
        out = {"experiment": self.experiment}
        for f in fields(self):
            section = getattr(self, f.name)
            if not hasattr(section, "__dataclass_fields__"):
                continue
            for sub in fields(section):
                value = getattr(section, sub.name)
                if isinstance(value, tuple):
                    rendered = ", ".join(repr(float(v)) for v in value)
                else:
                    rendered = repr(value) if isinstance(value, float) else str(value)
                out[f"{f.name}.{sub.name}"] = rendered
        return out

    @classmethod
    def from_items(cls, items: dict[str, str]) -> "ExperimentConfig":
        cfg = cls()
        for key, raw in items.items():
            cfg.set_key(key, raw)
        return cfg


def parse_config_text(text: str) -> dict[str, str]:
    items: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        items[key.strip()] = raw.strip()
    return items


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_items(parse_config_text(fh.read()))
