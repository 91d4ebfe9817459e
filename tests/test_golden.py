"""The corpus, diff and summary logic of tools/golden.py, on hand-made runs:
no extract, no subprocess."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_SPEC = importlib.util.spec_from_file_location("golden", _PATH)
golden = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

TRACE = (b"iter,best_accuracy,best_loss,diversity,cum_estimates,cum_shots,wall_ms\n"
         b"0,0.6,1.0098347339547915,10.05,140,21000,221200.0\n"
         b"1,0.65,0.9681098803532746,7.85,280,42000,442400.0\n")


def _run(files, code=0, stdout=b"done\n", stderr=b""):
    """A one-step run leaving `files` (path: bytes, or (mode, bytes))."""
    return {"steps": [{"code": code, "stdout": stdout, "stderr": stderr}],
            "files": {path: v if isinstance(v, tuple) else (0o644, v)
                      for path, v in files.items()}}


def test_equal_runs_have_no_differences_and_no_row():
    a = _run({"out/trace.csv": TRACE})
    assert golden.differences(a, _run({"out/trace.csv": TRACE})) == []
    assert golden.summarize("case", a, _run({"out/trace.csv": TRACE})) is None


def test_each_stream_exit_code_file_and_mode_is_compared():
    a = _run({"out/x": b"1", "out/y": b"2", "out/z": b"3"})
    b = _run({"out/x": b"1", "out/y": (0o755, b"2"), "out/w": b"4"}, code=2,
             stdout=b"other\n", stderr=b"warn\n")
    assert golden.differences(a, b) == ["step 0: exit", "step 0: stdout", "step 0: stderr",
                                        "out/w (only change)", "out/y", "out/z (only parent)"]


def test_a_trace_diff_names_its_first_row_columns_loss_and_accuracy():
    moved = TRACE.replace(b"0.9681098803532746", b"0.9681098803532757").replace(
        b"1,0.65,", b"1,0.7,")
    t = golden.trace_difference(TRACE, moved)
    assert (t["first_row"], t["columns"]) == (1, ["best_accuracy", "best_loss"])
    assert t["max_loss_delta"] == pytest.approx(1.1e-15, rel=0.01)
    assert t["accuracy_delta"] == pytest.approx(0.05)
    longer = TRACE + b"2,0.65,0.9,7.0,420,63000,663600.0\n"
    assert golden.trace_difference(TRACE, longer)["first_row"] == 2
    assert golden.trace_difference(TRACE, longer)["columns"] == ["row count"]
    assert golden.trace_difference(TRACE, b"iter,x\n")["columns"] == ["header"]


def test_a_csv_diff_names_every_column_that_moves_in_any_row():
    a = b"p,q,r\n1,2,3\n4,5,6\n"
    assert golden.csv_difference(a, a) == (None, [])
    assert golden.csv_difference(a, b"p,q,r\n1,2,3\n4,0,7\n") == (1, ["q", "r"])
    assert golden.csv_difference(a, b"p,q,r\n0,2,3\n4,5,0\n") == (0, ["p", "r"])
    assert golden.csv_difference(a, b"p,q,r\n1,2,3\n") == (1, ["row count"])


def test_theta_difference_is_the_largest_absolute_change():
    assert golden.theta_difference(b"0.5\n-1.25\n", b"0.5\n-1.0\n") == 0.25
    assert golden.theta_difference(b"0.5\n", b"0.5\n0.1\n") == float("inf")


def test_a_summary_row_covers_every_trace_and_theta_of_the_case():
    moved = TRACE.replace(b"1.0098347339547915", b"1.0098347339547935")
    same = {"run1/trace.csv": TRACE, "run1/best_theta.txt": b"1.0\n2.0\n"}
    parent = _run({**same, "run2/trace.csv": TRACE, "run2/best_theta.txt": b"1.0\n2.0\n"})
    change = _run({**same, "run2/trace.csv": moved, "run2/best_theta.txt": b"1.0\n2.5\n"})
    parent["files"]["pairs.csv"] = (0o644, b"theoretical,observed\n0.25,0.5\n")
    change["files"]["pairs.csv"] = (0o644, b"theoretical,observed\n0.2500000000000001,0.5\n")
    row = golden.summarize("case", parent, change)
    assert row["differs"] == ["pairs.csv", "run2/best_theta.txt", "run2/trace.csv"]
    assert (row["first_row"], row["columns"]) == (0, ["best_loss", "pairs.csv:theoretical"])
    assert row["max_loss_delta"] == pytest.approx(2e-15, rel=0.2)
    assert row["max_theta_delta"] == 0.5 and row["accuracy_delta"] == 0.0
    text = golden.table([row])
    assert text.splitlines()[2].startswith(
        "| `case` | pairs.csv, run2/best_theta.txt, run2/trace.csv | 0 | best_loss, pairs.csv:")


def test_the_corpus_names_are_distinct_and_quick_is_a_subset():
    full, quick = golden.corpus(), golden.corpus(quick=True)
    names = [case.name for case in full]
    assert len(set(names)) == len(names)
    assert {case.name for case in quick} < set(names)
    assert {f"bench-{w}-seed{s}" for w in ("ga-ideal", "ga-noisy", "sgd-shift-noisy",
                                           "bfgs-analytic-ideal") for s in (0, 5, 37)} <= set(names)
    assert all(step[0] in {"train", "gen-data", "evaluate", "sweep", "analyze"}
               for case in full for step in case.steps)
