"""Command-line harness: data generation, training, evaluation, sweeps, and
the analysis pipelines, all driven by YAML configs plus flag overrides.

Every run archives its fully-resolved config next to the outputs; re-running
that file reproduces the run byte for byte.  Exit codes: 0 success, 2 config
problem (the message names the offending key), 3 backend failure during
training, 4 I/O trouble (missing, malformed, or unwritable files).
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import circuits, data, mitigation
from .backend import (DEFAULT_RESIDUAL_SIGMA, DEFAULT_SHOTS, HARDWARE_STEPS, MAX_SHOTS,
                      IdealBackend, MeasurementLedger, NoiseModel, NoisyBackend,
                      SettingError, estimate_time)
from .circuits import Ansatz, CircuitSpec
from .config import (ConfigError, ExperimentConfig, _build, _circle, apply_overrides,
                     read_config, save_config, set_dotted)
from .ga import GAConfig, ga_train
from .seeding import derive_seed
from .trace import TrainingError
from .trainers import LocalSearchSpec, OptimizerKind, bfgs_train, landscape_scan, sgd_train

SEED_ENV_VAR = "REUP_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_IO = 4


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


def _write_rows(path: Path, header: tuple[str, ...], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_theta(path: str | Path, theta: np.ndarray) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for v in np.asarray(theta, dtype=float):
            fh.write(repr(float(v)) + "\n")


def read_theta(path: str | Path) -> np.ndarray:
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
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


def run_training(cfg: ExperimentConfig):
    """Train per the config; returns (dataset, backend, best theta, trace)."""
    dataset = cfg.build_dataset()
    backend = cfg.build_backend()
    trainer_cfg = cfg.build_trainer_config()
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
# subcommands


def cmd_gen_data(args) -> int:
    seed = _analysis_seed(args)
    circle = _circle(vars(args))
    if args.split is not None:
        context = f"data/{args.split}"
        n = args.n if args.n is not None else (data.TRAIN_SIZE if args.split == "train"
                                               else data.TEST_SIZE)
        ds = data.generate(n, circle, derive_seed(seed, context))
    else:
        n = args.n if args.n is not None else data.TRAIN_SIZE
        ds = data.generate(n, circle, seed)
    data.save(ds, args.out)
    inside = float(ds.y.mean())
    print(f"wrote {len(ds)} points to {args.out} "
          f"(seed {ds.seed}, label-1 fraction {inside:.3f})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = ExperimentConfig.from_mapping(read_config(args.config, args.set),
                                        master_seed=_master_seed(args),
                                        workers=args.workers, output_dir=args.out)
    dataset, backend, theta, trace = run_training(cfg)
    out_dir = Path(cfg.output_dir if cfg.output_dir is not None else "runs/train")
    out_dir.mkdir(parents=True, exist_ok=True)
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
    with open(out_dir / "summary.txt", "w") as fh:
        for key, value in summary:
            fh.write(f"{key}={_cell(value)}\n")

    print(f"{cfg.optimizer['kind']} finished after {final.iteration} iterations: "
          f"accuracy {final.best_accuracy:.4f}, {cfg.cost.value} {final.best_loss:.6f}")
    print(f"estimates {final.cum_estimates}, shots {final.cum_shots}, "
          f"modeled time {minutes:.1f} min")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    theta = read_theta(args.theta)
    ds = data.load(args.data)
    spec = _circuit_from_flags(args)
    if theta.size != spec.n_params:
        raise ConfigError(f"theta: expected {spec.n_params} parameters for "
                          f"{spec.ansatz.value} with {spec.layers} layers, got {theta.size}")
    if args.backend == "noisy":
        noise_seed = args.noise_seed
        if noise_seed is None:
            noise_seed = derive_seed(_analysis_seed(args), "evaluate")
        backend = NoisyBackend(NoiseModel(shots=args.shots,
                                          residual_sigma=args.residual_sigma,
                                          seed=noise_seed))
    else:
        backend = IdealBackend(shots=args.shots)

    ones = np.ones(len(ds), dtype=int)
    est = backend.measure(spec, theta, ds.x, ones)
    predicted = (est > 0.5).astype(int)
    correct = predicted == ds.y
    rows = [(ds.x[i, 0], ds.x[i, 1], int(ds.y[i]), int(predicted[i]), float(est[i]))
            for i in range(len(ds))]
    if args.out is not None:
        _write_rows(Path(args.out), ("x0", "x1", "label", "predicted", "p1_estimate"),
                    rows)
        print(f"wrote per-point results to {args.out}")
    acc = float(correct.mean())
    print(f"accuracy {acc:.4f} on {len(ds)} points ({args.backend} backend, "
          f"{args.shots} shots per estimate)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    base_raw = read_config(args.config, args.set)
    master = ExperimentConfig.from_mapping(base_raw, master_seed=_master_seed(args),
                                           workers=args.workers).seed

    cells = []
    for text in args.values:
        for rep in range(args.repeats):
            raw = apply_overrides(copy.deepcopy(base_raw), [f"{args.param}={text}"])
            set_dotted(raw, "optimizer.seed",
                       derive_seed(master, f"sweep/{args.param}={text}/rep{rep}"))
            cfg = ExperimentConfig.from_mapping(raw, master_seed=master,
                                                workers=args.workers)
            cells.append((text, rep, cfg))

    def run_cell(cell):
        text, rep, cfg = cell
        _, _, _, trace = run_training(cfg)
        final = trace.final
        return (args.param, text, rep, cfg.optimizer["seed"], final.best_accuracy,
                final.best_loss, final.cum_estimates, final.cum_shots, final.wall_ms)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(c) for c in cells]

    out_dir = Path(args.out)
    _write_rows(out_dir / "sweep.csv",
                ("param", "value", "repeat", "seed", "best_accuracy", "best_loss",
                 "cum_estimates", "cum_shots", "wall_ms"), results)

    summary_rows = []
    for text in args.values:
        accs = [r[4] for r in results if r[1] == text]
        losses = [r[5] for r in results if r[1] == text]
        summary_rows.append((args.param, text, float(np.median(accs)),
                             float(np.median(losses)), len(accs)))
    _write_rows(out_dir / "sweep_summary.csv",
                ("param", "value", "median_accuracy", "median_loss", "repeats"),
                summary_rows)

    print(f"swept {args.param} over {len(args.values)} values x {args.repeats} repeats")
    for _, text, med_acc, med_loss, _ in summary_rows:
        print(f"  {args.param}={text}: median accuracy {med_acc:.4f}, "
              f"median loss {med_loss:.6f}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analysis subcommands


def _circuit_from_flags(args) -> CircuitSpec:
    """The circuit of --ansatz and --layers, read like a config's circuit block."""
    return _build(CircuitSpec, {"ansatz": getattr(args, "ansatz", None),
                                "layers": args.layers}, "circuit")


def cmd_analyze_residuals(args) -> int:
    seed = _analysis_seed(args)
    spec = _circuit_from_flags(args)
    ds = data.generate(args.points, seed=derive_seed(seed, "analyze/residuals/data"))
    noise = NoiseModel(shots=args.shots, residual_sigma=args.residual_sigma,
                       seed=derive_seed(seed, "analyze/residuals/backend"))
    backend = NoisyBackend(noise)
    cal_backend = NoisyBackend(replace(noise,
                                       seed=derive_seed(seed, "analyze/residuals/cal")))
    cal = mitigation.calibrate(cal_backend, spec, shots=args.calibration_shots)
    theta = read_theta(args.theta) if args.theta is not None else None
    pairs = mitigation.observation_pairs(
        spec, ds, backend, theta=theta,
        seed=derive_seed(seed, "analyze/residuals/thetas"), cal=cal)
    raw_report = mitigation.residual_analysis(pairs[:, :2])
    mit_report = mitigation.residual_analysis(pairs[:, [0, 2]])

    out_dir = Path(args.out)
    _write_rows(out_dir / "pairs.csv", ("theoretical", "observed", "mitigated"),
                [tuple(row) for row in pairs])
    _write_rows(out_dir / "fit.csv",
                ("variant", "slope", "intercept", "residual_mean", "residual_std",
                 "n_pairs"),
                [("raw", raw_report.slope, raw_report.intercept,
                  raw_report.residual_mean, raw_report.residual_std,
                  raw_report.n_pairs),
                 ("mitigated", mit_report.slope, mit_report.intercept,
                  mit_report.residual_mean, mit_report.residual_std,
                  mit_report.n_pairs)])
    hist_rows = [(raw_report.bin_edges[i], raw_report.bin_edges[i + 1],
                  raw_report.bin_density[i])
                 for i in range(raw_report.bin_density.size)]
    _write_rows(out_dir / "residual_histogram.csv",
                ("bin_left", "bin_right", "density"), hist_rows)

    print(f"raw fit: slope {raw_report.slope:.4f}, intercept "
          f"{raw_report.intercept:.4f}, residual std {raw_report.residual_std:.4f}")
    print(f"mitigated fit: slope {mit_report.slope:.4f}, intercept "
          f"{mit_report.intercept:.4f}, residual std {mit_report.residual_std:.4f}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def cmd_analyze_noise_scaling(args) -> int:
    seed = _analysis_seed(args)
    spec = _circuit_from_flags(args)
    shot_counts = args.shots
    ds = data.generate(args.points, seed=derive_seed(seed, "analyze/scaling/data"))
    rng = np.random.default_rng(derive_seed(seed, "analyze/scaling/theta"))
    theta = circuits.random_parameters(spec, rng)
    report = mitigation.noise_scaling(spec, theta, ds, shot_counts,
                                      residual_sigma=args.residual_sigma,
                                      repeats=args.repeats,
                                      seed=derive_seed(seed, "analyze/scaling/backend"))
    out_dir = Path(args.out)
    rows = [(int(n), float(s), report.amplitude, report.exponent)
            for n, s in zip(report.shot_counts, report.stds)]
    _write_rows(out_dir / "noise_scaling.csv",
                ("shots", "std", "fit_amplitude", "fit_exponent"), rows)
    print(f"fitted std ~ {report.amplitude:.4f} * N^{report.exponent:.4f} "
          f"over N in {shot_counts}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def cmd_analyze_gradient_noise(args) -> int:
    seed = _analysis_seed(args)
    spec = _circuit_from_flags(args)
    steps = args.steps
    ds = data.generate(args.points, seed=derive_seed(seed, "analyze/grad/data"))
    rng = np.random.default_rng(derive_seed(seed, "analyze/grad/theta"))
    theta = circuits.random_parameters(spec, rng)
    noise = None if args.ideal else NoiseModel(shots=args.shots,
                                               seed=derive_seed(seed,
                                                                "analyze/grad/backend"))
    report = mitigation.gradient_noise_report(spec, theta, ds, noise, steps,
                                              repeats=args.repeats)
    out_dir = Path(args.out)
    rows = [(r.step, r.cost.value, r.component, r.theoretical, r.noisy_mean,
             r.noisy_std, r.sign_agreement) for r in report.rows]
    _write_rows(out_dir / "gradient_noise.csv",
                ("step", "cost", "component", "theoretical", "noisy_mean",
                 "noisy_std", "sign_agreement"), rows)
    for step in steps:
        for kind in mitigation.GRADIENT_NOISE_COSTS:
            peak = report.max_abs_theoretical(kind, step)
            try:
                agree = report.mean_sign_agreement(kind, step)
                agree_text = f"{agree:.3f}"
            except ValueError:
                agree_text = "n/a"
            print(f"step {step}: {kind.value}: max |gradient| {peak:.6f}, "
                  f"sign agreement {agree_text}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def cmd_analyze_landscape(args) -> int:
    seed = _analysis_seed(args)
    spec = _circuit_from_flags(args)
    ds = data.generate(args.points, seed=derive_seed(seed, "analyze/landscape/data"))
    rng = np.random.default_rng(derive_seed(seed, "analyze/landscape/theta"))
    theta0 = circuits.random_parameters(spec, rng)
    grid = np.linspace(args.grid_min, args.grid_max, args.grid_steps)
    neighborhood = LocalSearchSpec(budget=args.budget, radius=args.radius,
                                   seed=derive_seed(seed, "analyze/landscape/search"))
    surface = landscape_scan(spec, ds, theta0, grid, grid, neighborhood)
    out_dir = Path(args.out)
    rows = [(float(grid[i]), float(grid[j]), float(surface[i, j]))
            for i in range(grid.size) for j in range(grid.size)]
    _write_rows(out_dir / "landscape.csv", ("theta0", "theta1", "best_accuracy"),
                rows)
    print(f"accuracy surface over {grid.size}x{grid.size} grid: "
          f"min {surface.min():.4f}, max {surface.max():.4f}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def cmd_analyze_ansatz_spread(args) -> int:
    seed = _analysis_seed(args)
    layers = _circuit_from_flags(args).layers
    ds = data.generate(args.points, seed=derive_seed(seed, "analyze/spread/data"))
    out_dir = Path(args.out)
    rows = []
    summary = []
    for ansatz in Ansatz:
        spec = CircuitSpec(ansatz, layers)
        sums_y = np.empty((args.sets, len(ds)))
        sums_z = np.empty((args.sets, len(ds)))
        for s in range(args.sets):
            rng = np.random.default_rng(
                derive_seed(seed, f"analyze/spread/{ansatz.value}/{s}"))
            theta = circuits.random_parameters(spec, rng)
            phi_y, phi_z = circuits.layer_angles(spec, theta, ds.x)
            sums_y[s] = phi_y.sum(axis=0)
            sums_z[s] = phi_z.sum(axis=0)
            for p in range(len(ds)):
                rows.append((ansatz.value, s, p, float(sums_y[s, p]),
                             float(sums_z[s, p])))
        summary.append((ansatz.value, float(sums_y.std()), float(sums_z.std())))
    _write_rows(out_dir / "ansatz_spread.csv",
                ("ansatz", "set", "point", "phi_y_sum", "phi_z_sum"), rows)
    _write_rows(out_dir / "ansatz_spread_summary.csv",
                ("ansatz", "phi_y_sum_std", "phi_z_sum_std"), summary)
    for name, sy, sz in summary:
        print(f"{name}: total-angle spread std phi_y {sy:.3f}, phi_z {sz:.3f}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def cmd_analyze_time_budget(args) -> int:
    ledger = MeasurementLedger()
    n_estimates = args.generations * args.population * args.points
    ledger.reserve(n_estimates, args.shots)
    total = estimate_time(ledger)
    n_shots = n_estimates * args.shots
    count = {"estimate": n_estimates, "shot": n_shots}
    rows = [(name, seconds * count[per]) for name, seconds, per in HARDWARE_STEPS]
    rows.append(("total", total))
    out_dir = Path(args.out)
    _write_rows(out_dir / "time_budget.csv", ("component", "seconds"), rows)
    print(f"{args.generations} generation(s), population {args.population}, "
          f"{args.points} points, {args.shots} shots per estimate:")
    print(f"  {n_estimates} estimates, {n_shots} shots, "
          f"{total:.0f} s = {total / 60.0:.2f} min")
    print(f"outputs in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


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


def _list_of(item, distinct: int = 1):
    """An argparse type: comma-separated `item` values, blank ones skipped; a bad
    item, an empty list or under `distinct` distinct values exits 2 naming the flag."""
    def values(text: str) -> list:
        out = [item(t.strip()) for t in text.split(",") if t.strip()]
        if len(set(out)) < distinct:
            raise argparse.ArgumentTypeError(
                f"need at least {distinct} distinct values" if out else "empty list")
        return out
    values.__name__ = f"{item.__name__} list"
    return values


_count = _at_least(1)
_shots = _at_least(1, maximum=MAX_SHOTS)     # read by a noisy backend
_non_negative = _at_least(0)
_non_negative_real = _at_least(0, float)
_positive_real = _at_least(0, float, exclusive=True)
_real = _at_least(None, float)


def _add_seed(parser) -> None:
    parser.add_argument("--seed", type=_non_negative, default=None,
                        help=f"master seed (default: ${SEED_ENV_VAR} or config file)")


def _add_circuit(parser, ansatz: bool = True) -> None:
    """--ansatz and --layers; a flag not given takes CircuitSpec's default."""
    if ansatz:
        parser.add_argument("--ansatz", default=None, help="ansatz kind (2A, 2B, 2C, 2D)")
    parser.add_argument("--layers", type=int, default=None, help="number of layers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reupsim",
        description="Train and analyze single-qubit data re-uploading classifiers "
                    "on simulated ideal or noisy hardware.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a circle-boundary dataset CSV")
    p.add_argument("--n", type=_count, default=None, help="number of points")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--split", choices=("train", "test"), default=None,
                   help="derive the seed for the canonical train or test split")
    p.add_argument("--center", type=float, nargs=2, metavar=("X0", "X1"), default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--domain", type=float, nargs=4,
                   metavar=("XLO", "XHI", "YLO", "YHI"), default=None)
    _add_seed(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run one training experiment from a config")
    p.add_argument("--config", default=None, help="YAML config path")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--workers", type=_count, default=None,
                   help="accepted for archived configs; does not affect results or speed")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (dotted path, YAML value); repeatable")
    _add_seed(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained parameter vector on a dataset")
    p.add_argument("--theta", required=True, help="parameter file (one value per line)")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--backend", choices=("ideal", "noisy"), default="ideal")
    p.add_argument("--shots", type=_shots, default=DEFAULT_SHOTS)
    p.add_argument("--residual-sigma", type=_non_negative_real, default=DEFAULT_RESIDUAL_SIGMA)
    p.add_argument("--noise-seed", type=_non_negative, default=None)
    p.add_argument("--out", default=None, help="per-point results CSV")
    _add_circuit(p)
    _add_seed(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="repeat training over one hyperparameter")
    p.add_argument("--config", required=True, help="base YAML config")
    p.add_argument("--param", required=True,
                   help="dotted config key to vary, e.g. optimizer.population_size")
    p.add_argument("--values", type=_list_of(str), required=True,
                   help="comma-separated values")
    p.add_argument("--repeats", type=_count, default=5, help="repeats per value")
    p.add_argument("--jobs", type=_count, default=1, help="parallel training jobs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=_count, default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    _add_seed(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="run one of the analysis pipelines")
    asub = p.add_subparsers(dest="analysis", required=True)

    a = asub.add_parser("residuals",
                        help="theoretical vs observed populations, raw and mitigated")
    a.add_argument("--points", type=_count, default=250)
    a.add_argument("--shots", type=_shots, default=500)
    a.add_argument("--residual-sigma", type=_non_negative_real, default=DEFAULT_RESIDUAL_SIGMA)
    a.add_argument("--calibration-shots", type=_count, default=20000)
    a.add_argument("--theta", default=None,
                   help="optional fixed parameter file; default draws per-point")
    a.add_argument("--out", required=True)
    _add_circuit(a)
    _add_seed(a)
    a.set_defaults(func=cmd_analyze_residuals)

    a = asub.add_parser("noise-scaling", help="estimator spread vs shot count")
    a.add_argument("--shots", type=_list_of(_shots, distinct=2), default="10,30,100,300,1000",
                   help="comma-separated shot counts, at least two distinct")
    a.add_argument("--repeats", type=_at_least(2), default=200)
    a.add_argument("--points", type=_count, default=20)
    a.add_argument("--residual-sigma", type=_non_negative_real, default=0.0)
    a.add_argument("--out", required=True)
    _add_circuit(a)
    _add_seed(a)
    a.set_defaults(func=cmd_analyze_noise_scaling)

    a = asub.add_parser("gradient-noise",
                        help="exact finite-difference gradients vs noisy estimates")
    a.add_argument("--steps", type=_list_of(_positive_real), default="0.1,0.5,1.0",
                   help="comma-separated step sizes")
    a.add_argument("--repeats", type=_count, default=20)
    a.add_argument("--points", type=_count, default=25)
    a.add_argument("--shots", type=_shots, default=DEFAULT_SHOTS)
    a.add_argument("--ideal", action="store_true",
                   help="run the noisy leg on an ideal backend")
    a.add_argument("--out", required=True)
    _add_circuit(a)
    _add_seed(a)
    a.set_defaults(func=cmd_analyze_gradient_noise)

    a = asub.add_parser("landscape",
                        help="best-accuracy surface over the first two parameters")
    a.add_argument("--grid-min", type=_real, default=-np.pi)
    a.add_argument("--grid-max", type=_real, default=np.pi)
    a.add_argument("--grid-steps", type=_count, default=21)
    a.add_argument("--budget", type=_non_negative, default=0,
                   help="random perturbations of the remaining parameters per cell")
    a.add_argument("--radius", type=_non_negative_real, default=0.5)
    a.add_argument("--points", type=_count, default=100)
    a.add_argument("--out", required=True)
    _add_circuit(a)
    _add_seed(a)
    a.set_defaults(func=cmd_analyze_landscape)

    a = asub.add_parser("ansatz-spread",
                        help="total applied rotation angles per ansatz kind")
    a.add_argument("--sets", type=_count, default=20, help="random parameter sets per kind")
    a.add_argument("--points", type=_count, default=200)
    _add_circuit(a, ansatz=False)
    a.add_argument("--out", required=True)
    _add_seed(a)
    a.set_defaults(func=cmd_analyze_ansatz_spread)

    a = asub.add_parser("time-budget", help="modeled hardware time for a training run")
    a.add_argument("--population", type=_count, default=50)
    a.add_argument("--points", type=_count, default=250)
    a.add_argument("--shots", type=_count, default=DEFAULT_SHOTS)
    a.add_argument("--generations", type=_non_negative, default=1)
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_analyze_time_budget)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
