#!/usr/bin/env python3
"""Byte comparison of a commit and the working tree over a fixed command corpus.

    python tools/golden.py --against HEAD --quick

Every case of the corpus runs its `reupsim` commands in fresh processes, once
on a `git archive` extract of `--against` (the parent) and once on the
working tree (the change), each side in an empty directory of its own, so
relative paths print alike.  The two sides' stdout, stderr and exit code of
every command, and every file the case leaves in its directory (bytes and
mode), are compared.  For each case that differs it prints the files that
differ and, over its `trace.csv` and `best_theta.txt` files, the first trace
row and the columns that differ, the largest |delta best_loss|, the largest
|delta theta| and the change in the final best_accuracy; then one markdown
table of those rows.  The corpus covers the four bench workloads at seeds 0,
5 and 37, the GA's selections, crossovers, populations and shot counts, every
gradient trainer and line search on both backends at 1 and 4 layers, budget
caps, target and zero-step runs, a re-run over longer outputs, gen-data,
evaluate, sweep, every analysis and inputs that must be rejected.  `--quick`
runs a subset of it.  No digest is stored: both sides run on this host.  The
exit code is 0 only when no case differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import stat
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from record import ROOT, checkout  # noqa: E402

RUN_TIMEOUT_S = 300
JOBS = 2                # cases run at once
SIDES = ("parent", "change")
# a command runs as `reupsim` would, on the tree whose src/ is argv[1]
CHILD = ("import sys; sys.path.insert(0, sys.argv.pop(1)); from reupsim.cli import main; "
         "sys.exit(main(sys.argv[1:]))")
WHERE = "import sys; sys.path.insert(0, sys.argv[1]); import reupsim; print(reupsim.__file__)"


@dataclass(frozen=True)
class Case:
    """Commands run in turn in one directory that starts with `files` in it."""
    name: str
    steps: tuple[tuple[str, ...], ...]
    files: dict = field(default_factory=dict)
    quick: bool = False


def _train(name: str, *sets: str, quick: bool = False) -> Case:
    """A 20-point training run into out/ with each of `sets` as a --set."""
    args = ["train", "--out", "out", "--set", "dataset.n=20"]
    for s in sets:
        args += ["--set", s]
    return Case(name, (tuple(args),), quick=quick)


def _bench_cases() -> list[Case]:
    """Each bench workload at seeds 0, 5 and 37, as bench/run.py runs one op."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    op = ("train", "--config", "config.yaml", "--out", "out")
    return [Case(f"bench-{name}-seed{seed}", (op,), {"config.yaml": json.dumps(w.raw_config(seed))},
                 quick=seed == 0)
            for name, w in workloads.WORKLOADS.items() for seed in (0, 5, 37)]


def _ga_cases() -> list[Case]:
    cases = []
    for backend in ("ideal", "noisy"):
        for selection in ("sss", "rws", "sus", "rank", "random", "tournament"):
            for crossover in ("single_point", "two_point", "scattered"):
                cases.append(_train(
                    f"ga-{backend}-{selection}-{crossover}", f"backend.kind={backend}",
                    f"optimizer.selection={selection}", f"optimizer.crossover={crossover}",
                    "optimizer.population_size=7", "optimizer.max_generations=3",
                    quick=(selection, crossover) == ("sss", "scattered")))
        for pop in (2, 17, 50):
            cases.append(_train(f"ga-{backend}-pop{pop}", f"backend.kind={backend}",
                                f"optimizer.population_size={pop}", "optimizer.max_generations=2",
                                f"optimizer.elitism_count={min(pop - 1, 2)}"))
        for shots in (1, 100000):
            cases.append(_train(f"ga-{backend}-shots{shots}", f"backend.kind={backend}",
                                f"backend.shots={shots}", "optimizer.population_size=7",
                                "optimizer.max_generations=2"))
    return cases


def _gradient_cases() -> list[Case]:
    cases = []
    for backend in ("ideal", "noisy"):
        for layers in (1, 4):
            for gradient in ("finite_difference", "parameter_shift", "analytic"):
                common = (f"backend.kind={backend}", f"circuit.layers={layers}",
                          f"optimizer.gradient={gradient}", "optimizer.max_iterations=4")
                step = ("optimizer.step=0.3",) if gradient == "finite_difference" else ()
                for kind in ("bfgs_standard", "bfgs_as_written"):
                    for search in ("armijo", "wolfe"):
                        cases.append(_train(
                            f"{kind}-{search}-{gradient}-{backend}-L{layers}", *common, *step,
                            f"optimizer.kind={kind}", f"optimizer.line_search.kind={search}",
                            quick=(kind, search, gradient, layers) in {
                                ("bfgs_standard", "armijo", "analytic", 4),
                                ("bfgs_standard", "wolfe", "finite_difference", 1)}))
                for kind in ("sgd", "gradient_descent"):
                    batch = ("optimizer.batch_size=5",) if kind == "sgd" else ()
                    cases.append(_train(f"{kind}-{gradient}-{backend}-L{layers}", *common, *step,
                                        *batch, f"optimizer.kind={kind}",
                                        quick=(kind, gradient, layers) == (
                                            "sgd", "parameter_shift", 4)))
    return cases


def _limit_cases() -> list[Case]:
    ga = ("optimizer.population_size=7",)
    bfgs = ("backend.kind=noisy", "optimizer.kind=bfgs_standard",
            "optimizer.gradient=finite_difference", "optimizer.step=0.3")
    sgd = ("backend.kind=noisy", "optimizer.kind=sgd", "optimizer.gradient=parameter_shift",
           "optimizer.batch_size=5")
    rerun = tuple(("train", "--out", "out", "--set", "dataset.n=20", "--set", ga[0],
                   "--set", f"optimizer.max_generations={gens}") for gens in (6, 1))
    return [
        _train("ga-cap-at-iteration-0", *ga, "optimizer.max_estimates=100"),
        _train("ga-cap-mid-run", *ga, "optimizer.max_estimates=500", quick=True),
        _train("bfgs-cap-mid-line-search", *bfgs, "optimizer.line_search.kind=wolfe",
               "optimizer.max_estimates=1000"),
        _train("bfgs-armijo-cap", *bfgs, "optimizer.max_estimates=777"),
        _train("sgd-cap", *sgd, "optimizer.max_estimates=1000"),
        _train("ga-target", *ga, "optimizer.target_accuracy=0.7"),
        _train("sgd-target", "backend.kind=noisy", "optimizer.kind=sgd",
               "optimizer.gradient=finite_difference", "optimizer.step=0.3",
               "optimizer.batch_size=5", "optimizer.target_accuracy=0.7",
               "optimizer.max_iterations=40"),
        _train("ga-zero-steps", *ga, "optimizer.max_generations=0"),
        _train("bfgs-zero-steps", "optimizer.kind=bfgs_standard", "optimizer.max_iterations=0"),
        Case("ga-rerun-over-longer-outputs", rerun, quick=True),
    ]


def _command_cases() -> list[Case]:
    theta_run = ("train", "--out", "run", "--set", "dataset.n=20",
                 "--set", "optimizer.population_size=6", "--set", "optimizer.max_generations=1")
    sweep = "dataset: {n: 20}\noptimizer: {population_size: 4, max_generations: 1}\n"
    sweep_args = ("sweep", "--config", "sweep.yaml", "--param", "optimizer.mutation.rate",
                  "--values", "0.1,0.3", "--repeats", "2", "--set", "optimizer.mutation.kind=fixed",
                  "--out", "out")
    return [
        Case("gen-data", (("gen-data", "--n", "30", "--out", "pts.csv"),
                          ("gen-data", "--split", "train", "--n", "30", "--out", "train.csv"),
                          ("gen-data", "--n", "12", "--center", "0.1", "-0.2", "--radius", "0.5",
                           "--seed", "3", "--out", "moved.csv")), quick=True),
        Case("evaluate", (theta_run, ("gen-data", "--n", "30", "--out", "pts.csv"),
                          ("evaluate", "--theta", "run/best_theta.txt", "--data", "pts.csv",
                           "--out", "ideal.csv"),
                          ("evaluate", "--theta", "run/best_theta.txt", "--data", "pts.csv",
                           "--backend", "noisy", "--shots", "150", "--out", "noisy.csv")),
             quick=True),
        Case("sweep-jobs-1", (sweep_args,), {"sweep.yaml": sweep}),
        Case("sweep-jobs-2-noisy", (sweep_args + ("--jobs", "2", "--set", "backend.kind=noisy"),),
             {"sweep.yaml": sweep}),
        Case("analyze-residuals", (("analyze", "residuals", "--points", "5",
                                    "--calibration-shots", "200", "--out", "out"),)),
        Case("analyze-noise-scaling", (("analyze", "noise-scaling", "--shots", "10,30",
                                        "--repeats", "2", "--points", "5", "--out", "out"),)),
        Case("analyze-gradient-noise", (("analyze", "gradient-noise", "--steps", "0.5",
                                         "--repeats", "2", "--points", "5", "--out", "out"),),
             quick=True),
        Case("analyze-gradient-noise-ideal", (("analyze", "gradient-noise", "--steps", "0.5",
                                               "--repeats", "2", "--points", "5", "--ideal",
                                               "--out", "out"),)),
        Case("analyze-landscape", (("analyze", "landscape", "--points", "5", "--grid-steps", "3",
                                    "--budget", "2", "--out", "out"),), quick=True),
        Case("analyze-ansatz-spread", (("analyze", "ansatz-spread", "--sets", "2", "--points",
                                        "10", "--out", "out"),)),
        Case("analyze-time-budget", (("analyze", "time-budget", "--out", "out"),)),
        Case("rejections", (
            ("train", "--out", "out", "--set", "optimizer.kind=nope"),
            ("train", "--out", "out", "--set", "backend.shots=0"),
            ("train", "--out", "out", "--set", "optimizer.kind=sgd",
             "--set", "optimizer.line_search.kind=wolfe"),
            ("gen-data", "--n", "0", "--out", "none.csv"),
            ("sweep", "--param", "seed", "--values", "1,2", "--out", "sweep"),
            ("evaluate", "--theta", "missing.txt", "--data", "missing.csv", "--noise-seed", "1"),
            theta_run,
            ("evaluate", "--theta", "run/best_theta.txt", "--data", "pts.csv", "--layers", "3"),
        ), quick=True),
    ]


def corpus(quick: bool = False) -> list[Case]:
    cases = (_bench_cases() + _ga_cases() + _gradient_cases() + _limit_cases()
             + _command_cases())
    return [case for case in cases if case.quick] if quick else cases


def _clean_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "REUP_SEED")}


def check_import(src: Path) -> None:
    """Exit unless a child process given src imports reupsim from it."""
    where = subprocess.run([sys.executable, "-c", WHERE, str(src)], env=_clean_env(),
                           capture_output=True, text=True, check=True).stdout.strip()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        sys.exit(f"golden: a child imports reupsim from {where}, not from {src}")


def run_case(case: Case, src: Path, workdir: Path) -> dict:
    """Run `case` on the tree at src in the empty directory workdir: each
    step's exit code, stdout and stderr, and every path left there with its
    mode and, for a file, its bytes."""
    workdir.mkdir(parents=True)
    for name, text in case.files.items():
        (workdir / name).write_text(text)
    env = _clean_env()
    steps = []
    for argv in case.steps:
        try:
            proc = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv], cwd=workdir,
                                  env=env, capture_output=True, timeout=RUN_TIMEOUT_S)
            steps.append({"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr})
        except subprocess.TimeoutExpired:
            steps.append({"code": "timeout", "stdout": b"", "stderr": b""})
    files = {}
    for path in sorted(workdir.rglob("*")):
        mode = path.lstat().st_mode
        files[str(path.relative_to(workdir))] = (
            stat.S_IMODE(mode), path.read_bytes() if stat.S_ISREG(mode) else None)
    return {"steps": steps, "files": files}


def differences(parent: dict, change: dict) -> list[str]:
    """What differs between two runs of one case: `step N: exit|stdout|stderr`,
    `PATH` for a file whose bytes or mode differ, `PATH (only parent|change)`."""
    out = []
    for i, (a, b) in enumerate(zip(parent["steps"], change["steps"])):
        out += [f"step {i}: {what}" for key, what in (("code", "exit"), ("stdout", "stdout"),
                                                      ("stderr", "stderr")) if a[key] != b[key]]
    for path in sorted(set(parent["files"]) | set(change["files"])):
        if path not in change["files"]:
            out.append(f"{path} (only parent)")
        elif path not in parent["files"]:
            out.append(f"{path} (only change)")
        elif parent["files"][path] != change["files"][path]:
            out.append(path)
    return out


def _rows(data: bytes) -> tuple[list[str], list[list[str]]]:
    lines = data.decode().splitlines()
    return (lines[0].split(",") if lines else []), [line.split(",") for line in lines[1:]]


def csv_difference(a: bytes, b: bytes) -> tuple[int | None, list[str]]:
    """Two CSV files with a header: the first data row (0-based) that differs,
    and every column that differs in some row, in header order."""
    head, rows_a = _rows(a)
    head_b, rows_b = _rows(b)
    if head != head_b:
        return 0, ["header"]
    moved = [i for i, (ra, rb) in enumerate(zip(rows_a, rows_b)) if ra != rb]
    columns = [name for j, name in enumerate(head)
               if any(rows_a[i][j:j + 1] != rows_b[i][j:j + 1] for i in moved)]
    if len(rows_a) != len(rows_b):
        moved.append(min(len(rows_a), len(rows_b)))
        columns.append("row count")
    return (moved[0] if moved else None), columns


def trace_difference(a: bytes, b: bytes) -> dict:
    """Two trace.csv files: csv_difference's first row and columns, the
    largest |delta best_loss| over rows both hold, and the change in the last
    row's best_accuracy."""
    first_row, columns = csv_difference(a, b)
    out = {"first_row": first_row, "columns": columns, "max_loss_delta": 0.0,
           "accuracy_delta": 0.0}
    (head, rows_a), (head_b, rows_b) = _rows(a), _rows(b)
    if head != head_b:
        return out
    if "best_loss" in head:
        col = head.index("best_loss")
        out["max_loss_delta"] = max((abs(float(ra[col]) - float(rb[col]))
                                     for ra, rb in zip(rows_a, rows_b)), default=0.0)
    if "best_accuracy" in head and rows_a and rows_b:
        col = head.index("best_accuracy")
        out["accuracy_delta"] = float(rows_b[-1][col]) - float(rows_a[-1][col])
    return out


def theta_difference(a: bytes, b: bytes) -> float:
    """The largest |delta theta| of two best_theta.txt files (inf if their lengths differ)."""
    ta, tb = ([float(v) for v in data.split()] for data in (a, b))
    if len(ta) != len(tb):
        return float("inf")
    return max((abs(x - y) for x, y in zip(ta, tb)), default=0.0)


def summarize(name: str, parent: dict, change: dict) -> dict | None:
    """None if the two runs of case `name` agree; else the row this tool
    reports, over every trace.csv and best_theta.txt of the case's directory.
    Its columns are the trace columns that differ, then `FILE:COLUMN` for
    each column that differs in another CSV file."""
    diffs = differences(parent, change)
    if not diffs:
        return None
    row = {"case": name, "differs": diffs, "first_row": None, "columns": [],
           "max_loss_delta": 0.0, "max_theta_delta": 0.0, "accuracy_delta": 0.0}
    others = set()
    for path in diffs:
        if path not in parent["files"] or path not in change["files"]:
            continue
        a, b = parent["files"][path][1], change["files"][path][1]
        if a is None or b is None:
            continue
        if Path(path).name == "trace.csv":
            t = trace_difference(a, b)
            if row["first_row"] is None:
                row["first_row"] = t["first_row"]
            row["columns"] += [c for c in t["columns"] if c not in row["columns"]]
            row["max_loss_delta"] = max(row["max_loss_delta"], t["max_loss_delta"])
            if abs(t["accuracy_delta"]) > abs(row["accuracy_delta"]):
                row["accuracy_delta"] = t["accuracy_delta"]
        elif Path(path).name == "best_theta.txt":
            row["max_theta_delta"] = max(row["max_theta_delta"], theta_difference(a, b))
        elif path.endswith(".csv"):
            others.update(f"{Path(path).name}:{c}" for c in csv_difference(a, b)[1])
    row["columns"] += sorted(others)
    return row


def table(rows: list[dict]) -> str:
    """The differing cases as one markdown table."""
    lines = ["| case | files that differ | first trace row | columns that differ "
             "| max abs. delta best_loss | max abs. delta theta | delta final best_accuracy |",
             "|---|---|---|---|---|---|---|"]
    for r in rows:
        lines.append(f"| `{r['case']}` | {', '.join(r['differs'])} | "
                     f"{'-' if r['first_row'] is None else r['first_row']} | "
                     f"{', '.join(r['columns']) or '-'} | {r['max_loss_delta']:.2g} | "
                     f"{r['max_theta_delta']:.2g} | {r['accuracy_delta']:+.4g} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the parent revision")
    parser.add_argument("--quick", action="store_true", help="run the quick subset")
    args = parser.parse_args(argv)
    cases = corpus(args.quick)
    with tempfile.TemporaryDirectory(prefix="golden-") as scratch:
        roots = {"parent": Path(scratch) / "tree", "change": ROOT}
        checkout(args.against, roots["parent"])
        for root in roots.values():
            check_import(root / "src")
        tasks = [(case, side) for case in cases for side in SIDES]
        with ThreadPoolExecutor(JOBS) as pool:
            done = list(pool.map(lambda t: run_case(t[0], roots[t[1]] / "src",
                                                    Path(scratch) / t[1] / t[0].name), tasks))
    runs = {(case.name, side): run for (case, side), run in zip(tasks, done)}
    rows = []
    for case in cases:
        row = summarize(case.name, runs[case.name, "parent"], runs[case.name, "change"])
        if row is not None:
            rows.append(row)
            print(f"differs: {case.name}: {'; '.join(row['differs'])}")
    print(f"golden: {len(cases)} cases against {args.against}, {len(cases) - len(rows)} "
          f"identical, {len(rows)} differ")
    if rows:
        print(table(rows))
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(main())
