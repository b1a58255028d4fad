"""Experiment configuration: flat key-value text with dotted sections.

Grammar (one assignment per line)::

    # comment
    experiment = cat-decay
    physical.q = 1e7
    physical.nbar_m = 4e4
    sweep.mu = 0.5, 1.0, 2.0
    sweep.mu_log_range = -1.2:1.2:49
    output.path = out/cat

Values are parsed by the field they land in: floats, whole-number ints,
strings, or comma-separated float lists.  ``a:b:n`` ranges expand to n
log10-spaced mu values.  Unknown or malformed keys raise :class:`ConfigError`
carrying the dotted key path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

from .channels import LossConfig, damped_delay, is_physical

EXPERIMENTS = ("fidelity-sweep", "fock-squeeze", "impulse", "cat-decay",
               "multimode", "photon-budget")
# Experiments that squeeze at a single mu rather than sweeping it.
SINGLE_MU_EXPERIMENTS = ("fock-squeeze", "multimode")


class ConfigError(ValueError):
    """Invalid configuration; ``key`` is the dotted path that failed."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def mu_log_grid(spec: str) -> tuple[float, ...]:
    """Expand 'a:b:n' into n points with log10(mu) uniform on [a, b]."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValueError(f"expected 'a:b:n', got {spec!r}") from None
    if n < 1:
        raise ValueError("grid needs at least one point")
    return tuple(10.0 ** (lo + (hi - lo) * k / max(n - 1, 1)) for k in range(n))


# Allowed values of each ruled key (every element, for list keys); every
# numeric key must also be finite.  q > 1/2 is gamma < 2 omega_m: the model
# has no overdamped mechanics.
_RANGES = {
    "physical.q": (lambda v: v > 0.5, "must be > 0.5 (underdamped)"),
    "physical.omega_m": (lambda v: v > 0, "must be > 0"),
    "physical.nbar_m": (lambda v: v >= 0, "must be >= 0"),
    "physical.nbar_l": (lambda v: v >= 0, "must be >= 0"),
    "physical.epsilon": (lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    "physical.ancilla_vsq": (lambda v: v > 0, "must be > 0"),
    "physical.phi": (lambda v: 0 < v < math.pi / 2, "must lie in (0, pi/2)"),
    "sweep.mu": (lambda v: v > 0, "must be > 0"),
    "sweep.q": (lambda v: v > 0.5, "must be > 0.5 (underdamped)"),
    "sweep.epsilon": (lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    "sweep.alpha": (lambda v: v > 0, "must be > 0"),
    "sweep.g2_ratio": (lambda v: v >= 0, "must be >= 0"),
    "readout.chi_ro": (lambda v: v > 0, "must be > 0"),
    "impulse.nbar_in": (lambda v: v >= 0, "must be >= 0"),
    "grid.resolution": (lambda v: isinstance(v, int) and v >= 4 and v & (v - 1) == 0,
                        "must be a power of two >= 4"),
    "grid.half_extent": (lambda v: v > 0, "must be > 0"),
    "cat.samples_per_period": (lambda v: v >= 64, "must be >= 64"),
    "cat.max_periods": (lambda v: v > 0, "must be > 0"),
    "cat.series_periods": (lambda v: v > 0, "must be > 0"),
    "cat.momentum_mu": (lambda v: v > 0, "must be > 0"),
    "output.format": (lambda v: v in ("csv", "json"), "must be csv or json"),
}


def _check_value(key: str, value) -> None:
    values = value if isinstance(value, tuple) else (value,)
    for v in values:
        if isinstance(v, (int, float)) and not math.isfinite(v):
            raise ConfigError(key, f"{v!r} is not finite")
    rule = _RANGES.get(key)
    if rule is not None and not all(rule[0](v) for v in values):
        raise ConfigError(key, f"{value!r} {rule[1]}")


@dataclass
class PhysicalConfig:
    """Loss model plus the ancilla squeezing used by the squeezer."""

    q: float = 1e7
    omega_m: float = 1.0
    nbar_m: float = 4e4
    epsilon: float = 0.0
    nbar_l: float = 0.0
    ancilla_vsq: float = 0.5
    phi: float = 2.0 * math.pi / 100.0


@dataclass
class SweepConfig:
    mu: tuple[float, ...] = ()
    mu_log_range: str = ""
    q: tuple[float, ...] = ()
    epsilon: tuple[float, ...] = ()
    alpha: tuple[float, ...] = (1.0, 2.0)
    g2_ratio: tuple[float, ...] = (0.0, 0.1, 0.2, 0.5, 1.0)

    def mu_values(self, default: Sequence[float]) -> tuple[float, ...]:
        """The mu values to run: ``mu`` or the expanded ``mu_log_range``,
        whichever is set (``validate`` rejects both), else ``default``."""
        if self.mu:
            return self.mu
        if self.mu_log_range:
            return mu_log_grid(self.mu_log_range)
        return tuple(default)


@dataclass
class ReadoutConfig:
    chi_ro: float = 3.0


@dataclass
class ImpulseConfig:
    nbar_in: tuple[float, ...] = (1.0, 3.0)


@dataclass
class GridConfig:
    resolution: int = 512
    half_extent: float = 8.0


@dataclass
class CatConfig:
    samples_per_period: int = 64
    max_periods: float = 40.0
    series_periods: float = 2.0
    series_resolution: int = 512
    tau_resolution: int = 256
    momentum_mu: float = 0.5


@dataclass
class OutputConfig:
    path: str = ""
    format: str = "csv"


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
                    _check_value(f"{f.name}.{sub.name}", getattr(section, sub.name))
        if self.sweep.mu and self.sweep.mu_log_range:
            raise ConfigError("sweep.mu", "set together with sweep.mu_log_range; "
                              "give mu by one of the two keys")
        mu_key = "sweep.mu" if self.sweep.mu else "sweep.mu_log_range"
        try:
            mus = self.sweep.mu_values(())
        except (ValueError, OverflowError) as exc:
            raise ConfigError(mu_key, f"cannot expand {self.sweep.mu_log_range!r}: {exc}") from None
        positive, rule = _RANGES["sweep.mu"]
        if not all(positive(mu) for mu in mus):
            raise ConfigError(mu_key, f"values {mus!r} {rule}")
        if self.experiment in SINGLE_MU_EXPERIMENTS and len(mus) > 1:
            raise ConfigError(mu_key, f"{self.experiment} runs at one mu, got {len(mus)}")
        if int(self.cat.series_periods * self.cat.samples_per_period) < 1:
            raise ConfigError("cat.series_periods",
                              f"{self.cat.series_periods!r} periods give no decay-series "
                              f"sample at {self.cat.samples_per_period} per period")
        phys = self.physical
        for q in (phys.q, *self.sweep.q):
            loss = LossConfig.from_q(q, nbar_m=phys.nbar_m, omega_m=phys.omega_m)
            if not is_physical(damped_delay(phys.phi, loss)):
                raise ConfigError("physical.nbar_m", f"{phys.nbar_m!r} leaves the damped delay "
                                  f"at q={q!r}, phi={phys.phi!r} not completely positive "
                                  "(momentum damping needs about (2 nbar_m + 1) phi >= sqrt(3))")

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
        if name not in {f.name for f in fields(target)}:
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
        except ValueError as exc:
            raise ConfigError(key, f"cannot parse {raw!r}: {exc}") from None
        _check_value(key, value)
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
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        items[key.strip()] = raw.strip()
    return items


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_items(parse_config_text(fh.read()))
