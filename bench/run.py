"""Benchmark of `reupsim train`: end-to-end host time, or a traced run per layer.

    python3 bench/run.py --workload ga-ideal --seed 0 --seconds 25 --trace 0

With `--trace 0` it times warm in-process `reupsim.cli.main(["train", ...])`
ops for `--seconds` (`train_s`, `train_s_tail`, `estimates_per_s`), five
fresh `reupsim train` processes at zero steps spread over the same window
(`setup_s`), and the peak resident memory of this process.  With
`--trace 1` it alternates traced and untraced ops and derives the per-layer
metrics from spans recorded around the calls into each module.  Every time
is scaled by a calibration kernel timed around it (see calibrate.py).  Both
modes check every op's outputs.  The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the exit code
is 0 only when every check passed.  A record of the run (environment,
samples, fingerprints, metrics) is written under `.bench_work/results/`.

Everything runs single-threaded in this process, one op at a time (a closed
loop with one client).  Modeled hardware time (`wall_ms` in trace.csv) is
printed as a fingerprint only; every metric is host time.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from calibrate import Calibrator
from spans import Span, Target, Tracer, self_times
from workloads import LAYERS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

FRESH_PROCESSES = 5         # fresh processes per run for setup_s and cli.import_s
TAIL_BEYOND = 10            # samples the tail percentile must leave above it
MIN_OPS = 2 * TAIL_BEYOND + 1   # so the tail percentile is at least the median
MIN_TRACED_PAIRS = 3
LOSS_TOL = 1e-12
CHILD_TIMEOUT_S = 60

TRAIN_CHILD = "import sys; from reupsim.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_CHILD = ("import time; t = time.perf_counter(); import reupsim.cli; "
                "print(time.perf_counter() - t)")

SANDBOX_LIMITS = ("no page-cache dropping, no CPU pinning or frequency control; "
                  "only the benchmark's own processes are measured")


class CheckFailed(Exception):
    """An op ran but its outputs are wrong."""


def load_program():
    """Import reupsim from this checkout's src/, never from anywhere else."""
    if not (SRC / "reupsim" / "cli.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'reupsim'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import reupsim.cli
    if Path(reupsim.cli.__file__).resolve().parent != (SRC / "reupsim").resolve():
        sys.exit(f"bench: imported reupsim from {reupsim.cli.__file__}, not {SRC}")
    return reupsim


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=CHILD_TIMEOUT_S,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    import scipy
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sandbox_limits": SANDBOX_LIMITS,
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least TAIL_BEYOND samples above it.

    Uses the 'lower' interpolation so the value is one of the samples; its
    index floor(p (n-1) / 100) is at most n - 1 - TAIL_BEYOND.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    p = (100 * (n - TAIL_BEYOND)) // n
    ordered = sorted(samples)
    return p, ordered[(p * (n - 1)) // 100]


class Bench:
    """One workload at one seed: configs, ops, and their correctness checks."""

    def __init__(self, reupsim, workload: Workload, seed: int, run_dir: Path):
        self.rs = reupsim
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.raw = workload.raw_config(seed)
        self.config = self._write_config("op.yaml", self.raw)
        self.setup_config = self._write_config("setup.yaml", workload.raw_config(seed, 0))
        self.out = run_dir / "op"
        self.reference: tuple[str, str] | None = None
        self.final = None
        self.calibrator = Calibrator()

    def _write_config(self, name: str, raw: dict) -> Path:
        import yaml
        path = self.run_dir / name
        path.write_text(yaml.safe_dump(raw, sort_keys=True))
        return path

    def op(self, call=None) -> float:
        """One in-process `reupsim train`; returns host seconds."""
        argv = ["train", "--config", str(self.config), "--out", str(self.out)]
        main = self.rs.cli.main
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = main(argv) if call is None else call(main, argv)
            seconds = time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"reupsim train exited with {code}")
        return seconds

    def digests(self) -> tuple[str, str]:
        return sha256(self.out / "trace.csv"), sha256(self.out / "best_theta.txt")

    def check_op(self) -> None:
        """Compare the last op's outputs with the reference op's, byte for byte."""
        got = self.digests()
        if got != self.reference:
            raise CheckFailed(f"outputs differ from the reference op: {got} != "
                              f"{self.reference}")

    def checked_op(self) -> float:
        seconds = self.op()
        self.check_op()
        return seconds

    def check_final(self, final, steps: int) -> None:
        expected = self.workload.expected_estimates(steps)
        if expected is not None:
            if final.iteration != steps:
                raise CheckFailed(f"stopped at step {final.iteration}, expected {steps}")
            if final.cum_estimates != expected:
                raise CheckFailed(f"cum_estimates {final.cum_estimates}, expected "
                                  f"{expected} in closed form")

    def set_reference(self) -> None:
        """Run one untimed op, check it in depth, and keep its digests."""
        self.op()
        trace = self.rs.trace.TrainingTrace.read_csv(self.out / "trace.csv")
        self.final = trace.final
        self.check_final(self.final, self.workload.steps)
        if not self.workload.noisy:
            cfg = self.rs.config.ExperimentConfig.from_mapping(self.raw)
            theta = self.rs.cli.read_theta(self.out / "best_theta.txt")
            loss = self.rs.costs.evaluate(cfg.cost, cfg.circuit, theta,
                                          cfg.build_dataset(),
                                          self.rs.backend.IdealBackend())
            if abs(loss - self.final.best_loss) > LOSS_TOL:
                raise CheckFailed(f"best_theta.txt scores {loss!r} on an ideal "
                                  f"backend, trace says {self.final.best_loss!r}")
        self.reference = self.digests()

    def fresh_setup(self) -> float:
        """Wall time of a fresh `reupsim train` process at zero steps."""
        out = self.run_dir / "setup"
        start = time.perf_counter()
        run_child([TRAIN_CHILD, "train", "--config", str(self.setup_config),
                   "--out", str(out)])
        seconds = time.perf_counter() - start
        final = self.rs.trace.TrainingTrace.read_csv(out / "trace.csv").final
        self.check_final(final, 0)
        return seconds


def run_child(args: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", *args], cwd=ROOT, env=env, text=True,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed(f"child exited with {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


class Tally:
    """Attempted and failed ops; a failure's reason goes to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, into: list) -> None:
        """Run one op and append its result to `into`, or count it as failed."""
        self.attempted += 1
        try:
            into.append(fn())
        except Exception as exc:    # a failing op is counted and the run goes on
            self.failed += 1
            print(f"bench: op failed: {exc!r}", file=sys.stderr)
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)


def run_window(seconds: float, fresh, step, enough) -> None:
    """Call step() for `seconds`, with FRESH_PROCESSES calls of fresh() spread
    evenly over the window, then go on until enough() holds.

    Host speed drifts over tens of seconds on a shared machine, so the fresh
    processes and the warm ops both sample the whole window.
    """
    start = time.perf_counter()
    due = [start + seconds * (i + 0.5) / FRESH_PROCESSES for i in range(FRESH_PROCESSES)]
    while due or time.perf_counter() < start + seconds or not enough():
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            fresh()
        else:
            step()


def scaled(pairs: list[tuple[float, float]]) -> list[float]:
    """Wall seconds times their calibration factors."""
    return [wall * factor for wall, factor in pairs]


def measure_untraced(bench: Bench, seconds: float, tally: Tally) -> tuple[dict, dict]:
    cal = bench.calibrator
    setups, ops = [], []        # (wall seconds, calibration factor) pairs
    tally.attempt(bench.set_reference, [])
    if bench.reference is not None:
        # A slow op still gets MIN_OPS samples; a failing one does not loop.
        run_window(seconds,
                   fresh=lambda: tally.attempt(lambda: cal.around(bench.fresh_setup),
                                               setups),
                   step=lambda: tally.attempt(lambda: cal.around(bench.checked_op), ops),
                   enough=lambda: len(ops) >= MIN_OPS or tally.failed > 0)
    raw = {"train_s": ops, "setup_s": setups}
    if len(ops) < MIN_OPS or not setups:
        return {}, raw
    train, setup = scaled(ops), scaled(setups)
    p, tail_s = tail(train)
    estimates = bench.final.cum_estimates
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls = f"wall median {statistics.median(w for w, _ in ops)!r} s"
    metrics = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh processes, "
                    f"wall median {statistics.median(w for w, _ in setups)!r} s"),
        "train_s": (statistics.median(train), f"median of {len(train)} ops, {walls}"),
        "train_s_tail": (tail_s, f"p{p} of {len(train)} ops"),
        "estimates_per_s": (estimates * len(train) / sum(train),
                            f"{estimates} estimates per op over {len(train)} ops"),
        "peak_rss_mb": (peak_kb / 1024.0, "ru_maxrss of this process"),
    }
    return metrics, raw


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else (args[index] if len(args) > index else None)


def targets(rs) -> list[Target]:
    """Every module attribute the traced run wraps, with its span name."""
    import numpy as np

    def points(args, kwargs):
        return len(_arg(args, kwargs, 2, "x"))

    def estimates(args, kwargs):
        return int(np.size(_arg(args, kwargs, 1, "p_y")))

    def theta_key(args, kwargs):
        theta = np.asarray(_arg(args, kwargs, 1, "theta"), dtype=float)
        return theta.tobytes(), _arg(args, kwargs, 5, "shift")

    return [
        Target(rs.circuits, "measure_batch", "circuits.measure_batch", points),
        Target(rs.circuits, "analytic_gradient_batch", "circuits.analytic_gradient_batch"),
        Target(rs.backend.IdealBackend, "sample", "backend.sample", estimates),
        Target(rs.backend.NoisyBackend, "sample", "backend.sample", estimates),
        Target(rs.backend, "counter_uniforms", "seeding.counter_uniforms"),
        Target(rs.costs, "measured_values", "costs.measured_values", theta_key),
        Target(rs.costs, "evaluate_with_accuracy", "costs.evaluate_with_accuracy"),
        Target(rs.trainers, "estimate_gradient", "trainers.estimate_gradient"),
        Target(rs.trainers, "bfgs_update", "trainers.bfgs_update"),
        Target(rs.ga, "select_parents", "ga.select_parents"),
        Target(rs.ga, "crossover", "ga.crossover"),
        Target(rs.ga, "mutate", "ga.mutate"),
        Target(rs.ga, "diversity", "ga.diversity"),
        Target(rs.cli, "ga_train", "ga.ga_train"),
        Target(rs.cli, "bfgs_train", "trainers.bfgs_train"),
        Target(rs.cli, "sgd_train", "trainers.sgd_train"),
        Target(rs.config.ExperimentConfig, "from_mapping", "config.from_mapping"),
        Target(rs.config, "generate", "data.generate"),
        Target(rs.trace.TrainingTrace, "write_csv", "trace.write_csv"),
        Target(rs.cli, "write_theta", "trace.write_theta"),
        Target(rs.cli, "save_config", "trace.save_config"),
    ]


ROOT_SPAN = "cli.train"


def op_layer_metrics(spans: list[Span], selfs: list[float], final,
                     workload: Workload) -> dict[str, float]:
    """Per-layer metrics of one traced op from its spans (indices are op-local)."""
    calls, busy, own = defaultdict(int), defaultdict(float), defaultdict(float)
    notes = defaultdict(list)
    for s, self_s in zip(spans, selfs):
        calls[s.name] += 1
        busy[s.name] += s.duration
        own[s.name] += self_s
        if s.note is not None:
            notes[s.name].append(s.note)
    points = sum(notes["circuits.measure_batch"])
    sampled = sum(notes["backend.sample"])
    evaluations = notes["costs.measured_values"]
    trials = sum(1 for s in spans if s.name == "costs.evaluate_with_accuracy"
                 and s.parent is not None and spans[s.parent].name == "trainers.bfgs_train")
    is_bfgs = calls["trainers.bfgs_train"] > 0
    accepted = final.iteration if is_bfgs else 0
    return {
        "circuits.measure_batch.calls": calls["circuits.measure_batch"],
        "circuits.measure_batch.points": points,
        "circuits.measure_batch.points_per_call":
            points / calls["circuits.measure_batch"] if points else 0.0,
        "circuits.measure_batch.busy_s": busy["circuits.measure_batch"],
        "circuits.ns_per_point_layer":
            1e9 * busy["circuits.measure_batch"] / (points * LAYERS) if points else 0.0,
        "circuits.analytic_gradient_batch.calls": calls["circuits.analytic_gradient_batch"],
        "circuits.analytic_gradient_batch.busy_s": busy["circuits.analytic_gradient_batch"],
        "backend.sample.calls": calls["backend.sample"],
        "backend.sample.estimates": sampled,
        "backend.sample.busy_s": busy["backend.sample"],
        "backend.sample.self_s": own["backend.sample"],
        "backend.us_per_estimate":
            1e6 * busy["backend.sample"] / sampled if sampled else 0.0,
        "backend.ledger.estimates": final.cum_estimates,
        "backend.ledger.shots": final.cum_shots,
        "seeding.counter_uniforms.calls": calls["seeding.counter_uniforms"],
        "seeding.counter_uniforms.busy_s": busy["seeding.counter_uniforms"],
        "costs.measured_values.calls": calls["costs.measured_values"],
        "costs.measured_values.self_s": own["costs.measured_values"],
        "costs.evaluate_with_accuracy.calls": calls["costs.evaluate_with_accuracy"],
        "costs.distinct_theta_ratio":
            len(set(evaluations)) / len(evaluations) if evaluations else 0.0,
        "trainers.estimate_gradient.calls": calls["trainers.estimate_gradient"],
        "trainers.estimate_gradient.busy_s": busy["trainers.estimate_gradient"],
        "trainers.estimate_gradient.self_s": own["trainers.estimate_gradient"],
        "trainers.bfgs_update.calls": calls["trainers.bfgs_update"],
        "trainers.bfgs_update.skipped": accepted - calls["trainers.bfgs_update"],
        "trainers.line_search.accept_ratio": accepted / (trials - 1) if trials > 1 else 0.0,
        "trainers.bfgs_train.self_s": own["trainers.bfgs_train"],
        "trainers.sgd_train.self_s": own["trainers.sgd_train"],
        "ga.generations": final.iteration if workload.is_ga else 0,
        "ga.operators.busy_s": (busy["ga.select_parents"] + busy["ga.crossover"]
                                + busy["ga.mutate"]),
        "ga.diversity.busy_s": busy["ga.diversity"],
        "ga.ga_train.self_s": own["ga.ga_train"],
        "config.resolve_s": busy["config.from_mapping"],
        "data.generate_s": busy["data.generate"],
        "trace.write_s": (busy["trace.write_csv"] + busy["trace.write_theta"]
                          + busy["trace.save_config"]),
        "cli.train.self_s": own[ROOT_SPAN],
        "tracing.self_sum_s": sum(selfs),
    }


def split_ops(spans: list[Span]) -> dict[int, list[Span]]:
    """Spans grouped by op, with parent indices rebased to each op's list."""
    by_op: dict[int, list[tuple[int, Span]]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_op[s.op].append((i, s))
    out = {}
    for op, items in by_op.items():
        local = {i: j for j, (i, _) in enumerate(items)}
        out[op] = [Span(s.name, s.start, s.end,
                        None if s.parent is None else local[s.parent], s.op, s.note)
                   for _, s in items]
    return out


def measure_traced(bench: Bench, seconds: float, tally: Tally) -> tuple[dict, dict]:
    cal = bench.calibrator
    tracer = Tracer(targets(bench.rs))
    imports, untraced, traced = [], [], []   # (result, calibration factor) pairs

    def traced_op():
        tracer.op += 1
        tracer.install()
        try:
            s = bench.op(lambda main, argv: tracer.span(ROOT_SPAN, main, argv))
        finally:
            tracer.restore()
        if not tracer.restored():
            raise CheckFailed("a wrapped attribute was not restored")
        bench.check_op()
        return tracer.op, s

    def pair():
        # alternate which side goes first, so drift does not favour either
        sides = [(traced_op, traced), (bench.checked_op, untraced)]
        for fn, into in (sides if tracer.op % 2 == 0 else sides[::-1]):
            tally.attempt(lambda: cal.around(fn), into)

    tally.attempt(bench.set_reference, [])
    if bench.reference is not None:
        run_window(seconds,
                   fresh=lambda: tally.attempt(
                       lambda: cal.around(lambda: float(run_child([IMPORT_CHILD]))), imports),
                   step=pair,
                   enough=lambda: (min(len(traced), len(untraced)) >= MIN_TRACED_PAIRS
                                   or tally.failed > 0))
    if not traced or not untraced or not imports:
        return {}, {}

    factors = {op: factor for (op, _), factor in traced}
    per_op = []
    for op, op_spans in split_ops(tracer.spans).items():
        if op in factors:
            m = op_layer_metrics(op_spans, self_times(op_spans), bench.final, bench.workload)
            per_op.append({name: value * factors[op] if unit(name) in TIME_UNITS else value
                           for name, value in m.items()})
    metrics = {name: (statistics.median(m[name] for m in per_op),
                      f"median of {len(per_op)} traced ops")
               for name in per_op[0]}
    traced_s = statistics.median(wall * f for (_, wall), f in traced)
    untraced_s = statistics.median(scaled(untraced))
    metrics.update({
        "cli.import_s": (statistics.median(scaled(imports)),
                         f"median of {len(imports)} fresh processes"),
        "tracing.untraced_train_s": (untraced_s, f"median of {len(untraced)} ops"),
        "tracing.traced_train_s": (traced_s, f"median of {len(traced)} ops"),
        "tracing.overhead_s": (traced_s - untraced_s, "difference of the medians"),
        "tracing.unaccounted_s": (statistics.median(
            wall * f - m["tracing.self_sum_s"] for ((_, wall), f), m in zip(traced, per_op)),
            "op time minus the sum of its self times, median"),
        "op_failure_ratio": (tally.failed / tally.attempted,
                             f"{tally.failed} of {tally.attempted} ops"),
    })
    write_spans(bench, tracer.spans)
    return metrics, {"traced_ops": traced, "untraced_ops": untraced, "cli.import_s": imports}


def write_spans(bench: Bench, spans: list[Span]) -> None:
    path = WORK / "results" / f"spans-{bench.workload.name}-seed{bench.seed}.csv.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("index,name,start,end,parent,op\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s.name},{s.start!r},{s.end!r},"
                     f"{'' if s.parent is None else s.parent},{s.op}\n")


UNITS = {
    "train_s_tail": "s",
    "estimates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "circuits.ns_per_point_layer": "ns",
    "backend.us_per_estimate": "us",
    "costs.distinct_theta_ratio": "ratio",
    "trainers.line_search.accept_ratio": "ratio",
    "op_failure_ratio": "ratio",
}
TIME_UNITS = {"s", "ns", "us"}


def unit(name: str) -> str:
    """Unit of a metric: from the table, else seconds for `_s`, else a count."""
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    reupsim = load_program()
    import reupsim.config
    import reupsim.costs
    import reupsim.ga
    import reupsim.trace
    import reupsim.trainers

    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(),
              "loadavg_before": os.getloadavg()}
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    bench = Bench(reupsim, workload, args.seed, run_dir)
    tally = Tally()
    try:
        measure = measure_traced if args.trace else measure_untraced
        metrics, samples = measure(bench, args.seconds, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()
    correct = bool(metrics) and tally.failed == 0

    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    print(f"loadavg before {record['loadavg_before']}, after {record['loadavg_after']}")
    if bench.reference is not None:
        print(f"fingerprint {workload.name} seed {args.seed}: trace.csv sha256 "
              f"{bench.reference[0]}, modeled wall_ms {bench.final.wall_ms!r} "
              "(fingerprints, not metrics)")
    print(f"ops attempted {tally.attempted}, failed {tally.failed}, op_failure_ratio "
          f"{tally.failed / max(tally.attempted, 1)!r}")
    for name, (value, basis) in metrics.items():
        print(f"{workload.name} {name} = {value!r} {unit(name)} ({basis})")
    if args.trace and metrics:
        print(f"{workload.name}: self times sum to {metrics['tracing.self_sum_s'][0]!r} s "
              f"per traced op, untraced train_s is "
              f"{metrics['tracing.untraced_train_s'][0]!r} s, tracing overhead "
              f"{metrics['tracing.overhead_s'][0]!r} s")

    values = {name: value for name, (value, _) in metrics.items()}
    record.update(attempted=tally.attempted, failed=tally.failed, correct=correct,
                  metrics=values, samples=samples,
                  fingerprint=None if bench.reference is None else {
                      "trace_sha256": bench.reference[0],
                      "best_theta_sha256": bench.reference[1],
                      "modeled_wall_ms": bench.final.wall_ms})
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
