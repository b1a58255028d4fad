"""The benchmark's workloads.

Each workload turns a seed into inputs (``prepare``, the config resolution
that counts as set-up), runs one pass of the package on them (``run_pass``, the
timed part), gathers what the pass produced (``collect``), reduces it to a
digest that must repeat from pass to pass, and checks it (``check``).

The default seed runs exactly the documented configs.  Any other seed draws
inputs of the same size, chosen so that a pass does about the same amount of
work whatever the seed.  Checks tied to one config run only on the default
seed.

Calls go through module attributes (``experiments.run_experiment``), so the
tracer's rebinding reaches them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import statistics

import numpy as np

from pulsox import cli, config, experiments, squeezer, states, wigner
from pulsox.table import ResultTable

DEFAULT_SEED = 0
PHI = math.pi / 50
OPT_TARGETS = (1.0 / math.sqrt(2.0), math.sqrt(2.0), 2.0)
GAUSSIAN_EXPERIMENTS = ("fidelity-sweep", "impulse", "multimode", "photon-budget")
# Parts of the speed gauge (calibrate.PARTS) that resemble a workload's work.
ALL_GAUGE_PARTS = ("python", "format", "linalg", "fft")
NUMPY_GAUGE_PARTS = ("linalg", "fft")
REF_ERR_LIMIT = 1e-6
MASS_TOL = 1e-9


def _values(xs) -> str:
    return ", ".join(repr(float(x)) for x in xs)


def _config(experiment: str, overrides=()) -> config.ExperimentConfig:
    cfg = config.ExperimentConfig()
    cfg.experiment = experiment
    for key, value in overrides:
        cfg.set_key(key, value)
    cfg.validate()
    return cfg


def _tables_digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        for name, table in result.tables.items():
            h.update(name.encode())
            h.update(table.to_csv().encode())
    return h.hexdigest()


def sweep_ref_err(result) -> float:
    """Largest |infidelity_ideal - (1 - pure_fidelity(mu, phi, 1, v_sq))| of a
    fidelity-sweep run: the pipeline against the closed form."""
    table = result.tables["fidelity_sweep"]
    phys = experiments.config_from_metadata(table.metadata).physical
    return max(abs(inf - (1.0 - states.pure_fidelity(mu, phys.phi, 1.0, phys.ancilla_vsq)))
               for mu, inf in zip(table.column("mu"), table.column("infidelity_ideal")))


class Gaussian:
    """fidelity-sweep, impulse, multimode and photon-budget, in process."""

    name = "gaussian"
    gauge_parts = NUMPY_GAUGE_PARTS

    def prepare(self, seed, workdir):
        if seed == DEFAULT_SEED:
            return [_config(e) for e in GAUSSIAN_EXPERIMENTS]
        rng = np.random.default_rng(seed)
        return [
            _config("fidelity-sweep",
                    [("sweep.mu", _values(np.sort(10.0 ** rng.uniform(-1.2, 1.2, 49))))]),
            _config("impulse",
                    [("sweep.mu", _values(np.sort(10.0 ** (rng.uniform(-10, 10, 21) / 20))))]),
            _config("multimode",
                    [("sweep.mu", _values([math.sqrt(2.0) * 10.0 ** rng.uniform(-0.1, 0.1)])),
                     ("sweep.g2_ratio", _values(np.sort(rng.uniform(0.0, 1.0, 5))))]),
            _config("photon-budget",
                    [("sweep.mu", _values(np.sort(10.0 ** rng.uniform(-0.5, 0.5, 21))))]),
        ]

    def warmup(self, configs):
        self.run_pass(configs)

    def run_pass(self, configs):
        return [experiments.run_experiment(cfg) for cfg in configs]

    def collect(self, configs, results):
        return results

    def digest(self, results):
        return _tables_digest(results)

    def check(self, configs, outputs, seed):
        sweep, multimode = outputs[0][0], outputs[0][2]
        table = sweep.tables["fidelity_sweep"]
        infidelities = [v for col in table.columns if col.startswith("infidelity")
                        for v in table.column(col)]
        infidelities += multimode.tables["multimode"].column("infidelity")
        return [("every infidelity lies in [0, 1]",
                 all(0.0 <= v <= 1.0 for v in infidelities)),
                (f"ref_err < {REF_ERR_LIMIT:g}", sweep_ref_err(sweep) < REF_ERR_LIMIT)]


class CatDecay:
    """cat-decay at the criterion-10 config: six half-lives plus the series."""

    name = "cat-decay"
    # One 30-s pass averages the machine's swings by itself; a gauge sampled
    # only at its two ends tracked it worse than its raw time.
    gauge_parts = ()

    def prepare(self, seed, workdir):
        q, nbar_m, epsilon, phi = 1e7, 4e4, 1e-3, PHI
        if seed != DEFAULT_SEED:
            # The half-lives set the number of grid steps, so keep the heating
            # rate nbar_m / q that sets them, and move the pre-squeezer's loss
            # and angle only a little.
            rng = np.random.default_rng(seed)
            q = 1e7 * 10.0 ** rng.uniform(-0.5, 0.5)
            nbar_m = 4e4 * q / 1e7
            epsilon = 1e-3 * 10.0 ** rng.uniform(-0.05, 0.05)
            phi = PHI * rng.uniform(0.99, 1.01)
        return _config("cat-decay", [("physical.q", repr(q)), ("physical.nbar_m", repr(nbar_m)),
                                     ("physical.epsilon", repr(epsilon)),
                                     ("physical.phi", repr(phi))])

    def warmup(self, cfg):
        # One grid step at each resolution a pass uses; a whole pass is too long.
        loss = squeezer.LossConfig.from_q(cfg.physical.q, nbar_m=cfg.physical.nbar_m)
        for res in (cfg.cat.tau_resolution, cfg.cat.series_resolution):
            grid = wigner.wigner_cat(wigner.CatSpec(1.0), cfg.grid.half_extent, res)
            wigner.eta_at(grid, loss, 1.0)

    def run_pass(self, cfg):
        return experiments.run_experiment(cfg)

    def collect(self, cfg, result):
        return result

    def digest(self, result):
        return _tables_digest([result])

    def check(self, cfg, outputs, seed):
        result = outputs[0]
        rows = result.tables["half_life"].rows
        checks = [(f"half-life alpha={a:g} mu_pre={mu:.3g} reached and positive",
                   reached == 1.0 and tau > 0.0)
                  for a, mu, tau, _, reached, _ in rows]
        if seed == DEFAULT_SEED:
            checks += _criterion_10(cfg, result)
        return checks


def _criterion_10(cfg, result):
    tau = {(row[0], row[1]): row[2] for row in result.tables["half_life"].rows}

    def tau_of(alpha, label):
        mu = {"none": 1.0, "position": wigner.mu_opt(alpha),
              "momentum": cfg.cat.momentum_mu}[label]
        return tau[(alpha, mu)]

    series = result.tables["decay_series"]
    freq = experiments.dominant_modulation_frequency(np.array(series.column("t")),
                                                     np.array(series.column("eta")))
    gain_abs = {a: tau_of(a, "position") - tau_of(a, "none") for a in (1.0, 2.0)}
    gain_rel = {a: tau_of(a, "position") / tau_of(a, "none") for a in (1.0, 2.0)}
    return [
        ("alpha=2: tau_pos > tau_none > tau_mom",
         tau_of(2.0, "position") > tau_of(2.0, "none") > tau_of(2.0, "momentum")),
        ("decay rate modulated within 0.25 of 2 omega", abs(freq - 2.0) < 0.25),
        ("alpha=2 gains more than alpha=1 (absolute)", gain_abs[2.0] > gain_abs[1.0]),
        ("alpha=2 gains more than alpha=1 (relative)", gain_rel[2.0] > gain_rel[1.0]),
    ]


class FockExport:
    """``pulsox fock-squeeze --output <workdir>/f`` through cli_main."""

    name = "fock-export"
    # the pass is float formatting and file writes; numpy barely shows
    gauge_parts = ("python", "format") * 2
    n_files = 5  # one table and four Wigner grids

    def prepare(self, seed, workdir):
        argv = ["fock-squeeze", "--output", os.path.join(workdir, "f")]
        if seed != DEFAULT_SEED:
            rng = np.random.default_rng(seed)
            argv += ["--set", f"physical.q={1e7 * 10.0 ** rng.uniform(-0.5, 0.5)!r}",
                     "--mu", repr(2.0 * 10.0 ** rng.uniform(-0.1, 0.1)),
                     # one loss per decade, so the two grid names never collide
                     "--epsilon", _values([rng.uniform(5e-3, 2e-2), rng.uniform(3e-2, 1e-1)])]
        return argv

    def warmup(self, argv):
        self.run_pass(argv)

    def run_pass(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.cli_main(argv)

    def collect(self, argv, code):
        stem = argv[2]
        directory = os.path.dirname(stem)
        with open(stem + ".csv", "rb") as fh:
            table = fh.read()
        grids = {}
        for name in sorted(os.listdir(directory)):
            if name.endswith(".csv") and name != os.path.basename(stem) + ".csv":
                with open(os.path.join(directory, name), "rb") as fh:
                    grids[name] = hashlib.sha256(fh.read()).hexdigest()
        return {"code": code, "n_files": len(os.listdir(directory)), "table": table,
                "grids": grids}

    def digest(self, out):
        return hashlib.sha256(out["table"] + repr(sorted(out["grids"].items())).encode()
                              ).hexdigest()

    def check(self, argv, outputs, seed):
        checks = [("exit code 0", all(o["code"] == 0 for o in outputs)),
                  (f"all {self.n_files} files written",
                   all(o["n_files"] == self.n_files for o in outputs)),
                  ("table bytes identical pass to pass",
                   len({o["table"] for o in outputs}) == 1)]
        directory, stem_name = os.path.split(argv[2])
        grids = {name: wigner.grid_from_csv(os.path.join(directory, name))
                 for name in outputs[-1]["grids"]}
        for name, grid in grids.items():
            checks.append((f"{name}: mass within {MASS_TOL:g} of 1",
                           abs(grid.total_mass() - 1.0) < MASS_TOL))
        for eps, eta in ResultTable.from_csv(outputs[-1]["table"].decode("utf-8")).rows:
            name = f"{stem_name}_grid_{'ideal' if eps == 0.0 else f'eps_{eps:.0e}'}.csv"
            checks.append((f"{name}: eta read back equals the table",
                           name in grids and wigner.negativity_eta(grids[name]) == eta))
        return checks


class Optimize:
    """Nelder-Mead re-optimisation of three lossy schedules, one at a time."""

    name = "optimize"
    gauge_parts = NUMPY_GAUGE_PARTS

    def prepare(self, seed, workdir):
        targets = OPT_TARGETS
        if seed != DEFAULT_SEED:
            rng = np.random.default_rng(seed)
            targets = tuple(mu * 10.0 ** rng.uniform(-0.05, 0.05) for mu in OPT_TARGETS)
        return targets, squeezer.LossConfig.from_q(1e7, nbar_m=4e4, epsilon=1e-3)

    def warmup(self, inputs):
        self.run_pass(inputs)

    def run_pass(self, inputs):
        targets, loss = inputs
        return [squeezer.optimize_schedule(mu, PHI, loss) for mu in targets]

    def collect(self, inputs, results):
        return results

    def digest(self, results):
        return hashlib.sha256(repr(results).encode()).hexdigest()

    def check(self, inputs, outputs, seed):
        return [check for mu, r in zip(inputs[0], outputs[0])
                for check in ((f"mu={mu:.4g}: objective <= seed objective",
                               r.objective <= r.seed_objective),
                              (f"mu={mu:.4g}: converged", r.converged))]


WORKLOADS = {w.name: w for w in (Gaussian(), CatDecay(), FockExport(), Optimize())}


def reference_accuracy() -> tuple[float, float]:
    """(ref_err, opt_infidelity) on the default inputs, whatever the seed.

    ref_err comes from the default fidelity sweep; opt_infidelity is the mean
    best infidelity of the default optimize targets.
    """
    ref_err = sweep_ref_err(experiments.run_experiment(_config("fidelity-sweep")))
    best = Optimize().run_pass(Optimize().prepare(DEFAULT_SEED, "."))
    return ref_err, statistics.mean(r.objective for r in best)
