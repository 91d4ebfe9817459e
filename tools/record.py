#!/usr/bin/env python3
"""Alternated benchmark pairs of a commit and the working tree, with an A/A
control, summarised into one JSON record.

    python tools/record.py --against HEAD --pairs 10 --seconds 10 --out BENCH_32.json

For each workload and pair, the unchanged `bench/run.py --trace 0` runs three
times: on a checkout of `--against` (the parent), on the working tree (the
change) and on a second checkout of `--against` (the parent again, the A/A
control).  Even pairs run them in that order and odd pairs in reverse, so
neither side of either comparison always goes first.  The checkouts are
`git archive` extracts in a temporary directory, removed at the end: they hold
the committed files of `--against` and leave the repository's `.git` as it was.

The record holds the environment (git shas and the working tree's source
digest, CPU, Python, numpy and PyYAML versions, numpy's highest dispatch
target, PYTHONDONTWRITEBYTECODE), every run's metrics, and for each workload
and end-to-end metric of BENCHMARK.json each side's median and quartiles, the
wins of each side out of the pairs, the change's median difference and the
A/A median difference, both relative to the parent's median.  Two records
compare only on one CPU model and one dispatch target.  The working tree's
source digest and uncommitted-edits flag are taken again after the last run;
if either moved, the change side measured code the record does not name, and
both values are printed.  The exit code is 0 only when every run passed its
checks and neither value moved.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change", "again")      # again: the parent's second checkout (A/A)
DISPATCH_TARGETS = ("X86_V2", "X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
RUN_TIMEOUT_S = 600
CLAIM_SHARE = 0.9       # a gain needs this share of the pairs won


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, text=True, capture_output=True,
                          check=True).stdout.strip()


def checkout(rev: str, dest: Path) -> None:
    """The committed files of `rev` under dest, from `git archive`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="tar")


def dispatch_target(features: dict) -> str | None:
    """The highest of DISPATCH_TARGETS that numpy's CPU feature table reports present."""
    present = [t for t in DISPATCH_TARGETS if features.get(t)]
    return present[-1] if present else None


def src_digest(src: Path) -> str:
    """The sha256 of every .py file under src with its path, as bench/run.py records it."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    """What the change side runs: whether the working tree has uncommitted edits
    to tracked files, and the digest of its src/."""
    return {"change_has_uncommitted_edits": bool(git("status", "--porcelain",
                                                     "--untracked-files=no")),
            "change_src_sha256": src_digest(ROOT / "src")}


def provenance_drift(before: dict, after: dict) -> list[str]:
    """One line per provenance value that differs between `before`, taken before
    the first run, and `after`, taken after the last."""
    return [f"record: {name} moved during the runs: {before[name]!r} before the first run, "
            f"{after[name]!r} after the last" for name in after if before[name] != after[name]]


def environment(against: str) -> dict:
    import numpy
    import yaml
    from numpy._core import _multiarray_umath
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "parent_sha": git("rev-parse", against),
        "change_sha": git("rev-parse", "HEAD"),
        **provenance(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "numpy_dispatch_target": dispatch_target(_multiarray_umath.__cpu_features__),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def parse_result(stdout: str) -> dict:
    """The last stdout line of bench/run.py, one JSON object, as a run's entry."""
    lines = stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else {}
    return {"correct": bool(last.get("correct")), "attempted": last.get("attempted", 0),
            "failed": last.get("failed", 0),
            "metrics": {name: m["value"] for name, m in last.get("metrics", {}).items()}}


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, text=True, capture_output=True, timeout=RUN_TIMEOUT_S)
    try:
        run = parse_result(proc.stdout)
    except ValueError:
        run = parse_result("")
    if proc.returncode != 0 or not run["correct"]:
        run["correct"] = False
        print(f"record: {workload} on {root} exited {proc.returncode}: "
              f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
    return run


def order(pair: int) -> tuple[str, ...]:
    """The sides in the order pair `pair` runs them."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def compare(runs: dict, name: str, better: str, bound: float) -> dict:
    """One end-to-end metric of one workload across the pairs of `runs` (side:
    one run per pair).  A pair counts only where both runs gave the metric; a
    tie counts for neither side.  `gain` is the claim rule: the change wins at
    least CLAIM_SHARE of the pairs, and its median beats the parent's by more
    than the parent's interquartile range.  `within_bound`: the change's median
    is not worse than the parent's by more than `bound` of it."""
    values = {side: [run["metrics"].get(name) if run["correct"] else None
                     for run in runs[side]] for side in SIDES}
    sign = 1.0 if better == "lower" else -1.0
    ab = [(p, c) for p, c in zip(values["parent"], values["change"])
          if p is not None and c is not None]
    row = {"better": better, "bound": bound, "pairs": len(ab),
           "change_wins": sum(sign * (p - c) > 0 for p, c in ab),
           "parent_wins": sum(sign * (c - p) > 0 for p, c in ab)}
    sides = {side: [v for v in values[side] if v is not None] for side in SIDES}
    if not all(sides.values()):
        return {**row, "missing": [side for side in SIDES if not sides[side]]}
    row.update({side: quartiles(sides[side]) for side in SIDES})
    parent = row["parent"]["median"]
    row["difference"] = (row["change"]["median"] - parent) / parent
    row["aa_difference"] = (row["again"]["median"] - parent) / parent
    row["parent_iqr"] = (row["parent"]["q3"] - row["parent"]["q1"]) / parent
    row["gain"] = (row["change_wins"] >= CLAIM_SHARE * len(ab)
                   and -sign * row["difference"] > row["parent_iqr"])
    row["within_bound"] = sign * row["difference"] <= bound
    return row


def summarize(runs: dict, end_to_end: list[dict]) -> dict:
    """Every end-to-end metric of BENCHMARK.json compared, for one workload's runs."""
    return {m["name"]: compare(runs, m["name"], m["better"], m["bound"]) for m in end_to_end}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the parent revision")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="bench/run.py --seconds of each run")
    parser.add_argument("--workload", action="append",
                        help="one workload (repeatable); default: every one")
    parser.add_argument("--seed", type=int, default=0, help="bench/run.py --seed")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    record = {"command": ["tools/record.py", *(sys.argv[1:] if argv is None else argv)],
              "env": environment(args.against),
              "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                           "workloads": workloads, "sides": dict(zip(SIDES, (
                               f"checkout of {args.against}", "working tree",
                               f"second checkout of {args.against}")))},
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="record-") as scratch:
        roots = {"parent": Path(scratch) / "parent", "change": ROOT,
                 "again": Path(scratch) / "again"}
        checkout(args.against, roots["parent"])
        checkout(args.against, roots["again"])
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in order(pair):
                    runs[side].append(bench_run(roots[side], workload, args.seed, args.seconds))
                print(f"record: {workload} pair {pair + 1}/{args.pairs} done", file=sys.stderr)
            record["workloads"][workload] = {
                "summary": summarize(runs, benchmark["end_to_end"]), "runs": runs}
    drift = provenance_drift(record["env"], provenance())
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    failed = sum(not run["correct"] for w in record["workloads"].values()
                 for side in w["runs"].values() for run in side)
    for workload, entry in record["workloads"].items():
        for name, row in entry["summary"].items():
            if "difference" in row:
                print(f"{workload} {name}: parent {row['parent']['median']:.6g}, change "
                      f"{row['change']['median']:.6g} ({row['difference']:+.2%}; A/A "
                      f"{row['aa_difference']:+.2%}, parent IQR {row['parent_iqr']:.2%}), "
                      f"change wins {row['change_wins']}/{row['pairs']}")
    print(f"runs failed: {failed}")
    for line in drift:
        print(line, file=sys.stderr)
    return 0 if failed == 0 and not drift else 1


if __name__ == "__main__":
    sys.exit(main())
