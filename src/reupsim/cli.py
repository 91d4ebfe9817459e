"""Command-line harness: data generation, training, evaluation, sweeps, and
the analysis pipelines, all driven by YAML configs plus flag overrides.

Every run archives its fully-resolved config next to the outputs; re-running
that file reproduces the run byte for byte.  Exit codes: 0 success, 2 config
problem (the message names the offending key), 3 backend failure during
training, 4 I/O trouble (missing, malformed, or unwritable files).

A process builds the parser of the one command of COMMANDS that argv starts
with (the whole table only to word top-level help and parse errors), and
imports what only one command uses inside that command's runner.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import circuits, costs, data
from .backend import (DEFAULT_RESIDUAL_SIGMA, DEFAULT_SHOTS, HARDWARE_STEPS, MAX_SHOTS,
                      IdealBackend, NoiseModel, NoisyBackend, SettingError, estimate_time)
from .circuits import Ansatz, CircuitSpec
from .config import (ConfigError, ExperimentConfig, _build, _circle, apply_overrides,
                     read_config, save_config, set_dotted)
from .ga import GAConfig, ga_train
from .seeding import derive_seed
from .trace import TrainingError
from .trainers import OptimizerKind, bfgs_train, landscape_scan, sgd_train

SEED_ENV_VAR = "REUP_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_IO = 4
# what a failed run prints and exits with: the first row whose exception matches
FAILURES = ((ConfigError, "config error", EXIT_CONFIG),
            (TrainingError, "training failed", EXIT_BACKEND),
            (OSError, "i/o error", EXIT_IO), (ValueError, "invalid input", EXIT_IO))


def _env_seed() -> int | None:
    text = os.environ.get(SEED_ENV_VAR)
    if text is None:
        return None
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR}: expected an integer, got {text!r}") from None
    if value < 0:
        raise ConfigError(f"{SEED_ENV_VAR}: seed must be >= 0, got {value}")
    return value


def _master_seed(args) -> int | None:
    """Flag beats environment; None means defer to the config file."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    return _env_seed()


def _analysis_seed(args) -> int:
    """The master seed of a command that reads no config file: 0 when unset."""
    seed = _master_seed(args)
    return seed if seed is not None else 0


def _write_rows(path: Path, header: str, rows) -> None:
    with data.rewrite(path) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_theta(path: str | Path, theta: np.ndarray) -> None:
    with data.rewrite(path) as fh:
        for v in np.asarray(theta, dtype=float):
            fh.write(repr(float(v)) + "\n")


def read_theta(path: str | Path) -> np.ndarray:
    values = []
    for lineno, line in enumerate(data.read_utf8(path), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
        if not np.isfinite(value):
            raise ValueError(f"{path}:{lineno}: not a finite number: {text!r}")
        values.append(value)
    if not values:
        raise ValueError(f"{path}: no parameters found")
    return np.array(values)


def _sized(theta: np.ndarray, spec: CircuitSpec) -> np.ndarray:
    """theta, if it holds the circuit's parameter count; a config error if not."""
    if theta.size != spec.n_params:
        raise ConfigError(f"theta: expected {spec.n_params} parameters for "
                          f"{spec.ansatz.value} with {spec.layers} layers, got {theta.size}")
    return theta


def run_training(cfg: ExperimentConfig):
    """Train per the config; returns (dataset, backend, best theta, trace)."""
    dataset = cfg.build_dataset()
    backend = cfg.build_backend()
    trainer_cfg = cfg.trainer
    if isinstance(trainer_cfg, GAConfig):
        train = ga_train
    elif trainer_cfg.method in (OptimizerKind.SGD, OptimizerKind.GRADIENT_DESCENT):
        train = sgd_train
    else:
        train = bfgs_train
    try:
        theta, trace = train(trainer_cfg, cfg.circuit, dataset, backend)
    except SettingError as exc:
        raise ConfigError(f"optimizer.{exc}") from None
    return dataset, backend, theta, trace


# ---------------------------------------------------------------------------
# runners: each takes the parsed flags; an analysis also takes its circuit, its
# dataset and `seed_of`, the seed of a named draw.  A runner that returns
# (files, lines) has them written under --out by _report.


def _gen_data(args) -> None:
    seed = _analysis_seed(args)
    circle = _circle(vars(args))
    if args.split is not None:
        ds = data.canonical_split(seed, args.split, args.n, circle)
    else:
        ds = data.generate(data.TRAIN_SIZE if args.n is None else args.n, circle, seed)
    data.save(ds, args.out)
    print(f"wrote {len(ds)} points to {args.out} "
          f"(seed {ds.seed}, label-1 fraction {float(ds.y.mean()):.3f})")


def _train(args) -> None:
    cfg = ExperimentConfig.from_mapping(read_config(args.config, args.set),
                                        master_seed=_master_seed(args),
                                        workers=args.workers, output_dir=args.out)
    dataset, backend, theta, trace = run_training(cfg)
    out_dir = Path(cfg.output_dir if cfg.output_dir is not None else "runs/train")
    save_config(cfg, out_dir / "config.yaml")
    trace.write_csv(out_dir / "trace.csv")
    write_theta(out_dir / "best_theta.txt", theta)

    final = trace.final
    minutes = final.wall_ms / 60000.0
    summary = [
        ("optimizer", cfg.optimizer["kind"]),
        ("cost", cfg.cost.value),
        ("dataset_n", len(dataset)),
        ("iterations", final.iteration),
        ("best_accuracy", final.best_accuracy),
        ("best_loss", final.best_loss),
        ("total_estimates", final.cum_estimates),
        ("total_shots", final.cum_shots),
        ("modeled_minutes", minutes),
    ]
    with data.rewrite(out_dir / "summary.txt") as fh:
        for key, value in summary:
            fh.write(f"{key}={_cell(value)}\n")

    print(f"{cfg.optimizer['kind']} finished after {final.iteration} iterations: "
          f"accuracy {final.best_accuracy:.4f}, {cfg.cost.value} {final.best_loss:.6f}")
    print(f"estimates {final.cum_estimates}, shots {final.cum_shots}, "
          f"modeled time {minutes:.1f} min")
    print(f"outputs in {out_dir}")


def _evaluate(args) -> None:
    theta = read_theta(args.theta)
    ds = data.load(args.data)
    spec = _circuit_from_flags(args)
    _sized(theta, spec)
    if args.backend == "noisy":
        noise_seed = (args.noise_seed if args.noise_seed is not None
                      else derive_seed(_analysis_seed(args), "evaluate"))
        backend = NoisyBackend(NoiseModel(shots=args.shots,
                                          residual_sigma=args.residual_sigma,
                                          seed=noise_seed))
    else:
        backend = IdealBackend(shots=args.shots)

    design = circuits.Design(spec.ansatz, ds.x, np.ones(len(ds), dtype=int))
    est = costs.measured_groups(spec, [(theta[None], design, None)], backend)[0][0]
    predicted = (est > 0.5).astype(int)
    rows = [(ds.x[i, 0], ds.x[i, 1], int(ds.y[i]), int(predicted[i]), float(est[i]))
            for i in range(len(ds))]
    if args.out is not None:
        _write_rows(Path(args.out), "x0,x1,label,predicted,p1_estimate", rows)
        print(f"wrote per-point results to {args.out}")
    acc = float((predicted == ds.y).mean())
    print(f"accuracy {acc:.4f} on {len(ds)} points ({args.backend} backend, "
          f"{args.shots} shots per estimate)")


def _sweep(args):
    why = {"seed": "it is the master seed, which every cell's seed derives from; use --seed",
           "optimizer.seed": "the sweep derives it per cell",
           "output_dir": "no training reads it", "workers": "no training reads it"}.get(args.param)
    if why is not None:
        raise ConfigError(f"argument --param: a sweep cannot vary {args.param}: {why}")
    base_raw = read_config(args.config, args.set)
    master = ExperimentConfig.from_mapping(base_raw, master_seed=_master_seed(args),
                                           workers=args.workers).seed

    cells, settings = [], []
    for text in args.values:
        for rep in range(args.repeats):
            raw = apply_overrides(copy.deepcopy(base_raw), [f"{args.param}={text}"])
            set_dotted(raw, "optimizer.seed",
                       derive_seed(master, f"sweep/{args.param}={text}/rep{rep}"))
            cfg = ExperimentConfig.from_mapping(raw, master_seed=master,
                                                workers=args.workers)
            cells.append((text, rep, cfg))
        settings.append({**cfg.to_mapping(), "optimizer": {**cfg.optimizer, "seed": None}})
        if settings[-1] in settings[:-1]:   # e.g. a kind name in another case: one setting
            raise ConfigError(f"argument --values: {text} is listed twice")

    def run_cell(cell):
        text, rep, cfg = cell
        _, _, _, trace = run_training(cfg)
        final = trace.final
        return (args.param, text, rep, cfg.optimizer["seed"], final.best_accuracy,
                final.best_loss, final.cum_estimates, final.cum_shots, final.wall_ms)

    if args.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(c) for c in cells]

    summary_rows = []
    for text in args.values:
        accs = [r[4] for r in results if r[1] == text]
        losses = [r[5] for r in results if r[1] == text]
        summary_rows.append((args.param, text, float(np.median(accs)),
                             float(np.median(losses)), len(accs)))
    files = [("sweep.csv", "param,value,repeat,seed,best_accuracy,best_loss,cum_estimates,"
                           "cum_shots,wall_ms", results),
             ("sweep_summary.csv", "param,value,median_accuracy,median_loss,repeats",
              summary_rows)]
    lines = [f"swept {args.param} over {len(args.values)} values x {args.repeats} repeats"]
    lines += [f"  {args.param}={text}: median accuracy {med_acc:.4f}, "
              f"median loss {med_loss:.6f}" for _, text, med_acc, med_loss, _ in summary_rows]
    return files, lines


def _circuit_from_flags(args) -> CircuitSpec:
    """The circuit of --ansatz and --layers, read like a config's circuit block."""
    return _build(CircuitSpec, {"ansatz": getattr(args, "ansatz", None),
                                "layers": args.layers}, "circuit")


def _residuals(args, spec, ds, seed_of):
    from . import mitigation
    theta = _sized(read_theta(args.theta), spec) if args.theta is not None else None
    noise = NoiseModel(shots=args.shots, residual_sigma=args.residual_sigma,
                       seed=seed_of("backend"))
    cal = mitigation.calibrate(NoisyBackend(replace(noise, seed=seed_of("cal"))), spec,
                               shots=args.calibration_shots)
    pairs = mitigation.observation_pairs(spec, ds, NoisyBackend(noise), theta=theta,
                                         seed=seed_of("thetas"), cal=cal)
    fits = (("raw", mitigation.residual_analysis(pairs[:, :2])),
            ("mitigated", mitigation.residual_analysis(pairs[:, [0, 2]])))
    edges, density = fits[0][1].bin_edges, fits[0][1].bin_density
    files = [("pairs.csv", "theoretical,observed,mitigated", pairs),
             ("fit.csv", "variant,slope,intercept,residual_mean,residual_std,n_pairs",
              [(name, r.slope, r.intercept, r.residual_mean, r.residual_std, r.n_pairs)
               for name, r in fits]),
             ("residual_histogram.csv", "bin_left,bin_right,density",
              zip(edges[:-1], edges[1:], density))]
    return files, [f"{name} fit: slope {r.slope:.4f}, intercept {r.intercept:.4f}, "
                   f"residual std {r.residual_std:.4f}" for name, r in fits]


def _noise_scaling(args, spec, ds, seed_of):
    from . import mitigation
    theta = circuits.random_parameters(spec, np.random.default_rng(seed_of("theta")))
    report = mitigation.noise_scaling(spec, theta, ds, args.shots,
                                      residual_sigma=args.residual_sigma,
                                      repeats=args.repeats, seed=seed_of("backend"))
    rows = [(int(n), float(s), report.amplitude, report.exponent)
            for n, s in zip(report.shot_counts, report.stds)]
    return ([("noise_scaling.csv", "shots,std,fit_amplitude,fit_exponent", rows)],
            [f"fitted std ~ {report.amplitude:.4f} * N^{report.exponent:.4f} "
             f"over N in {args.shots}"])


def _gradient_noise(args, spec, ds, seed_of):
    from . import mitigation
    theta = circuits.random_parameters(spec, np.random.default_rng(seed_of("theta")))
    noise = None if args.ideal else NoiseModel(shots=args.shots, seed=seed_of("backend"))
    report = mitigation.gradient_noise_report(spec, theta, ds, noise, args.steps,
                                              repeats=args.repeats)
    rows = [(r.step, r.cost.value, r.component, r.theoretical, r.noisy_mean,
             r.noisy_std, r.sign_agreement) for r in report]
    lines = []
    for step in args.steps:
        for kind in mitigation.GRADIENT_NOISE_COSTS:
            picked = [r for r in report if r.step == step and r.cost is kind]
            agree = [r.sign_agreement for r in picked if not np.isnan(r.sign_agreement)]
            agree_text = f"{np.mean(agree):.3f}" if agree else "n/a"
            lines.append(f"step {step}: {kind.value}: max |gradient| "
                         f"{max(abs(r.theoretical) for r in picked):.6f}, "
                         f"sign agreement {agree_text}")
    return ([("gradient_noise.csv",
              "step,cost,component,theoretical,noisy_mean,noisy_std,sign_agreement", rows)],
            lines)


def _landscape(args, spec, ds, seed_of):
    theta0 = circuits.random_parameters(spec, np.random.default_rng(seed_of("theta")))
    grid = np.linspace(args.grid_min, args.grid_max, args.grid_steps)
    surface = landscape_scan(spec, ds, theta0, grid, args.budget, args.radius,
                             seed_of("search"))
    rows = [(a, b, surface[i, j]) for i, a in enumerate(grid) for j, b in enumerate(grid)]
    return ([("landscape.csv", "theta0,theta1,best_accuracy", rows)],
            [f"accuracy surface over {grid.size}x{grid.size} grid: "
             f"min {surface.min():.4f}, max {surface.max():.4f}"])


def _ansatz_spread(args, spec, ds, seed_of):
    rows, summary = [], []
    for ansatz in Ansatz:
        kind, sums = CircuitSpec(ansatz, spec.layers), np.empty((2, args.sets, len(ds)))
        for s in range(args.sets):
            rng = np.random.default_rng(seed_of(f"{ansatz.value}/{s}"))
            theta = circuits.random_parameters(kind, rng)
            sums[:, s] = circuits.layer_angles(kind, theta, ds.design(ansatz)).sum(axis=1)
            rows += [(ansatz.value, s, p, *sums[:, s, p]) for p in range(len(ds))]
        summary.append((ansatz.value, float(sums[0].std()), float(sums[1].std())))
    return ([("ansatz_spread.csv", "ansatz,set,point,phi_y_sum,phi_z_sum", rows),
             ("ansatz_spread_summary.csv", "ansatz,phi_y_sum_std,phi_z_sum_std", summary)],
            [f"{name}: total-angle spread std phi_y {sy:.3f}, phi_z {sz:.3f}"
             for name, sy, sz in summary])


def _time_budget(args):
    n_estimates = args.generations * args.population * args.points
    n_shots = n_estimates * args.shots
    total = estimate_time(n_estimates, n_shots)
    count = {"estimate": n_estimates, "shot": n_shots}
    rows = [(name, seconds * count[per]) for name, seconds, per in HARDWARE_STEPS]
    rows.append(("total", total))
    return ([("time_budget.csv", "component,seconds", rows)],
            [f"{args.generations} generation(s), population {args.population}, "
             f"{args.points} points, {args.shots} shots per estimate:",
             f"  {n_estimates} estimates, {n_shots} shots, "
             f"{total:.0f} s = {total / 60.0:.2f} min"])


def _report(out_dir: Path, files, lines) -> None:
    """Write the (name, header, rows) files under out_dir, then print the lines."""
    for name, header, rows in files:
        _write_rows(out_dir / name, header, rows)
    for line in lines:
        print(line)
    print(f"outputs in {out_dir}")


# ---------------------------------------------------------------------------
# the command table


def _at_least(minimum: int | None, kind=int, exclusive: bool = False, maximum=None):
    """An argparse type: a `kind` value (finite, if a float), >= minimum
    (> minimum if exclusive) and at most `maximum` where given; any other
    value, NaN and infinity included, makes parsing exit 2 naming the flag."""
    relation = ">" if exclusive else ">="

    def number(text: str):
        value = kind(text)
        if minimum is not None and not (value > minimum if exclusive else value >= minimum):
            raise argparse.ArgumentTypeError(f"must be {relation} {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        if kind is float and not np.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        return value
    number.__name__ = kind.__name__
    return number


def _list_of(item, distinct: int = 1, key=None):
    """An argparse type: comma-separated `item` values, blank ones skipped; a bad
    item, an empty list, under `distinct` distinct values or a value listed
    twice (its `key` equal to an earlier one's, if given) exits 2 naming the flag."""
    def values(text: str) -> list:
        out = [item(t.strip()) for t in text.split(",") if t.strip()]
        if len(set(out)) < distinct:
            raise argparse.ArgumentTypeError(
                f"need at least {distinct} distinct values" if out else "empty list")
        keys = [v if key is None else key(v) for v in out]
        twice = [out[keys.index(k)] for i, k in enumerate(keys) if k in keys[:i]]
        if twice:
            raise argparse.ArgumentTypeError(f"{twice[0]} is listed twice")
        return out
    values.__name__ = f"{item.__name__} list"
    return values


def _one_of(*options: str) -> dict:
    """The argparse settings of a flag that takes one of `options` in any case:
    its type returns the option that the text names, ignoring case, or the
    text itself, which `choices` then rejects."""
    def option(text: str) -> str:
        return next((o for o in options if o.lower() == text.lower()), text)
    return dict(type=option, choices=options)


def _as_set(text: str):
    """What `--set KEY=text` sets KEY to: its YAML value, or the text if not YAML."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError:
        return text


_count = _at_least(1)
_shots = _at_least(1, maximum=MAX_SHOTS)     # read by a noisy backend
_non_negative = _at_least(0)
_non_negative_real = _at_least(0, float)
_positive_real = _at_least(0, float, exclusive=True)
_real = _at_least(None, float)


class _NoisyOnly(argparse.Action):
    """Stores a flag that only a noisy backend reads, and notes that it was given."""

    def __call__(self, parser, namespace, values, option_string):
        setattr(namespace, self.dest, values)
        self.given = True


# Flags that several commands take, declared once; a command row names one as
# a string, or as (name, changes) to change some of its settings.
FLAGS = {
    "--out": dict(required=True),
    "--seed": dict(type=_non_negative,
                   help=f"master seed (default: ${SEED_ENV_VAR} or config file)"),
    "--points": dict(type=_count),
    "--shots": dict(type=_shots, default=DEFAULT_SHOTS),
    "--residual-sigma": dict(type=_non_negative_real, default=DEFAULT_RESIDUAL_SIGMA),
    "--repeats": dict(type=_count),
    "--set": dict(action="append", default=[], metavar="KEY=VALUE"),
    "--workers": dict(type=_count),
    "--config": dict(required=True),
    "--ansatz": dict(help="ansatz kind (2A, 2B, 2C, 2D)"),    # CircuitSpec's when not given
    "--layers": dict(type=int, help="number of layers"),
}


@dataclass(frozen=True)
class Command:
    """One row of the command table.  `tag` is an analysis's seed context (see
    _run); `ideal` tells from the parsed flags that the run has no noisy
    backend, and then a _NoisyOnly flag given is an error."""
    words: tuple[str, ...]
    help: str
    flags: tuple = ()
    run: Callable | None = None         # None: a group of commands
    tag: str | None = None
    ideal: Callable | None = None


COMMANDS = (
    Command(("gen-data",), "generate a circle-boundary dataset CSV", (
        ("--n", dict(type=_count, help="number of points")),
        ("--out", dict(help="output CSV path")),
        ("--split", dict(_one_of("train", "test"),
                         help="derive the seed for the canonical train or test split")),
        ("--center", dict(type=float, nargs=2, metavar=("X0", "X1"))),
        ("--radius", dict(type=float)),
        ("--domain", dict(type=float, nargs=4, metavar=("XLO", "XHI", "YLO", "YHI"))),
        "--seed"), _gen_data),
    Command(("train",), "run one training experiment from a config", (
        ("--config", dict(required=False, help="YAML config path")),
        ("--out", dict(required=False, help="output directory")),
        ("--workers",
         dict(help="accepted for archived configs; does not affect results or speed")),
        ("--set", dict(help="override a config key (dotted path, YAML value); repeatable")),
        "--seed"), _train),
    Command(("evaluate",), "score a trained parameter vector on a dataset", (
        ("--theta", dict(required=True, help="parameter file (one value per line)")),
        ("--data", dict(required=True, help="dataset CSV")),
        ("--backend", dict(_one_of("ideal", "noisy"), default="ideal")),
        "--shots", ("--residual-sigma", dict(action=_NoisyOnly)),
        ("--noise-seed", dict(type=_non_negative, action=_NoisyOnly)),
        ("--out", dict(required=False, help="per-point results CSV")),
        "--ansatz", "--layers", ("--seed", dict(action=_NoisyOnly))),
        _evaluate, ideal=lambda args: args.backend == "ideal"),
    Command(("sweep",), "repeat training over one hyperparameter", (
        ("--config", dict(help="base YAML config")),
        ("--param", dict(required=True,
                         help="dotted config key to vary, e.g. optimizer.population_size")),
        ("--values", dict(type=_list_of(str, key=_as_set), required=True,
                          help="comma-separated values")),
        ("--repeats", dict(default=5, help="repeats per value")),
        ("--jobs", dict(type=_count, default=1, help="parallel training jobs")),
        ("--out", dict(help="output directory")), "--workers", "--set", "--seed"), _sweep),
    Command(("analyze",), "run one of the analysis pipelines"),
    Command(("analyze", "residuals"),
            "theoretical vs observed populations, raw and mitigated", (
        ("--points", dict(default=250)), ("--shots", dict(default=500)), "--residual-sigma",
        ("--calibration-shots", dict(type=_count, default=20000)),
        ("--theta", dict(help="optional fixed parameter file; default draws per-point")),
        "--out", "--ansatz", "--layers", "--seed"), _residuals, tag="residuals"),
    Command(("analyze", "noise-scaling"), "estimator spread vs shot count", (
        ("--shots", dict(type=_list_of(_shots, distinct=2), default="10,30,100,300,1000",
                         help="comma-separated shot counts, at least two distinct")),
        ("--repeats", dict(type=_at_least(2), default=200)), ("--points", dict(default=20)),
        ("--residual-sigma", dict(default=0.0)), "--out", "--ansatz", "--layers", "--seed"),
        _noise_scaling, tag="scaling"),
    Command(("analyze", "gradient-noise"),
            "exact finite-difference gradients vs noisy estimates", (
        ("--steps", dict(type=_list_of(_positive_real), default="0.1,0.5,1.0",
                         help="comma-separated step sizes")),
        ("--repeats", dict(default=20)), ("--points", dict(default=25)),
        ("--shots", dict(action=_NoisyOnly)),
        ("--ideal", dict(action="store_true", help="run the noisy leg on an ideal backend")),
        "--out", "--ansatz", "--layers", "--seed"),
        _gradient_noise, tag="grad", ideal=lambda args: args.ideal),
    Command(("analyze", "landscape"),
            "best-accuracy surface over the first two parameters", (
        ("--grid-min", dict(type=_real, default=-np.pi)),
        ("--grid-max", dict(type=_real, default=np.pi)),
        ("--grid-steps", dict(type=_count, default=21)),
        ("--budget", dict(type=_non_negative, default=0,
                          help="random perturbations of the remaining parameters per cell")),
        ("--radius", dict(type=_non_negative_real, default=0.5)),
        ("--points", dict(default=100)), "--out", "--ansatz", "--layers", "--seed"),
        _landscape, tag="landscape"),
    Command(("analyze", "ansatz-spread"), "total applied rotation angles per ansatz kind", (
        ("--sets", dict(type=_count, default=20, help="random parameter sets per kind")),
        ("--points", dict(default=200)), "--layers", "--out", "--seed"),
        _ansatz_spread, tag="spread"),
    Command(("analyze", "time-budget"), "modeled hardware time for a training run", (
        ("--population", dict(type=_count, default=50)), ("--points", dict(default=250)),
        ("--shots", dict(type=_count)), ("--generations", dict(type=_non_negative, default=1)),
        "--out"), _time_budget),
)


def _run(command: Command, args):
    """What the command's runner returns; an analysis's gets its circuit, dataset and seeds."""
    if command.tag is None:
        return command.run(args)
    seed = _analysis_seed(args)
    spec = _circuit_from_flags(args)

    def seed_of(name: str) -> int:
        return derive_seed(seed, f"analyze/{command.tag}/{name}")

    return command.run(args, spec, data.generate(args.points, seed=seed_of("data")), seed_of)


class _Reparse(Exception):
    """A parse error of _OneCommand: the whole table parses argv again, and words it."""


class _OneCommand(argparse.ArgumentParser):
    """The parser of the one command that argv starts with, as the table would build it."""

    @staticmethod
    def error(message):
        raise _Reparse(message)


def _add_flags(parser: argparse.ArgumentParser, row: Command) -> list:
    """Add the row's flags to `parser`; returns their actions."""
    actions = []
    for flag in row.flags:
        name, changes = (flag, {}) if isinstance(flag, str) else flag
        actions.append(parser.add_argument(name, **{**FLAGS.get(name, {}), **changes}))
    return actions


def _checked(parser: argparse.ArgumentParser, row: Command, actions: list, args):
    """args, unless a flag that only a noisy backend reads was given to an ideal run."""
    given = [action.option_strings[0] for action in actions if getattr(action, "given", False)]
    if given and row.ideal(args):
        parser.error(f"argument {given[0]}: not read by the ideal backend")
    return args


def _parse(argv: list) -> tuple:
    """(command row, parsed flags) of argv.  Only the parser of the command that
    argv starts with is built, unless argv names none (an option first, say) or
    that parser fails; then the whole table parses argv, and prints the usage
    and the error."""
    row = next((row for row in COMMANDS
                if row.run is not None and argv[:len(row.words)] == list(row.words)), None)
    if row is not None:
        parser = _OneCommand(prog=" ".join(("reupsim", *row.words)))
        try:
            return row, _checked(parser, row, _add_flags(parser, row),
                                 parser.parse_args(argv[len(row.words):]))
        except _Reparse:
            pass
    words = [word for word in argv if not word.startswith("-")]
    parser = argparse.ArgumentParser(
        prog="reupsim",
        description="Train and analyze single-qubit data re-uploading classifiers "
                    "on simulated ideal or noisy hardware.")
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    command, actions = None, []
    for row in COMMANDS:
        if row.words[:-1] not in groups:
            continue                # under a group that argv does not name
        sub = groups[row.words[:-1]].add_parser(row.words[-1], help=row.help)
        if words[:len(row.words)] != list(row.words):
            continue
        if row.run is None:
            groups[row.words] = sub.add_subparsers(dest="analysis", required=True)
            continue
        command, chosen, actions = row, sub, _add_flags(sub, row)
    args = parser.parse_args(argv)
    return command, _checked(chosen, command, actions, args)


def main(argv=None) -> int:
    command, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        result = _run(command, args)
        if result is not None:
            _report(Path(args.out), *result)
        return EXIT_OK
    except (TrainingError, OSError, ValueError) as exc:
        prefix, code = next((prefix, code) for kind, prefix, code in FAILURES
                            if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
