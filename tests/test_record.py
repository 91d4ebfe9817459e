"""The summary logic of tools/record.py, on hand-made runs: no checkout, no bench."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "record.py"
_SPEC = importlib.util.spec_from_file_location("record", _PATH)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)


def _runs(**sides):
    """Runs of one metric `m` per side; None is a run that failed its checks."""
    return {side: [{"correct": v is not None, "metrics": {} if v is None else {"m": v}}
                   for v in values] for side, values in sides.items()}


def test_the_sides_alternate_which_goes_first():
    assert record.order(0) == ("parent", "change", "again")
    assert record.order(1) == ("again", "change", "parent")
    firsts = [record.order(p).index("parent") < record.order(p).index("change")
              for p in range(10)]
    assert firsts.count(True) == 5


def test_quartiles_of_one_run_and_of_several():
    assert record.quartiles([2.0]) == {"q1": 2.0, "median": 2.0, "q3": 2.0, "n": 1}
    assert record.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "q1": 2.0, "median": 3.0, "q3": 4.0, "n": 5}


def test_a_lower_is_better_gain_needs_the_wins_and_more_than_the_parent_iqr():
    parent = [10.0, 10.2, 10.1, 9.9, 10.0, 10.3, 9.8, 10.0, 10.1, 10.0]
    change = [9.0, 9.1, 9.0, 8.9, 10.5, 9.2, 9.0, 9.1, 8.8, 9.0]
    row = record.compare(_runs(parent=parent, change=change, again=parent[::-1]),
                         "m", "lower", 0.2)
    assert (row["pairs"], row["change_wins"], row["parent_wins"]) == (10, 9, 1)
    assert row["difference"] == pytest.approx(9.0 / 10.0 - 1.0)
    assert row["aa_difference"] == 0.0
    assert row["parent_iqr"] == pytest.approx((10.1 - 10.0) / 10.0)
    assert row["gain"] and row["within_bound"]
    # one more pair lost: 8 of 10 is no claim, whatever the medians
    change[0] = 10.4
    assert not record.compare(_runs(parent=parent, change=change, again=parent),
                              "m", "lower", 0.2)["gain"]


def test_a_higher_is_better_metric_and_ties():
    row = record.compare(_runs(parent=[100.0, 100.0, 100.0], change=[100.0, 90.0, 130.0],
                               again=[100.0, 104.0, 96.0]), "m", "higher", 0.05)
    assert (row["change_wins"], row["parent_wins"]) == (1, 1)    # the tie counts for neither
    assert row["difference"] == 0.0 and row["within_bound"] and not row["gain"]
    worse = record.compare(_runs(parent=[100.0] * 3, change=[90.0] * 3, again=[100.0] * 3),
                           "m", "higher", 0.05)
    assert worse["difference"] == pytest.approx(-0.1) and not worse["within_bound"]


def test_a_failed_run_drops_its_pair_and_a_side_with_no_run_is_named():
    row = record.compare(_runs(parent=[1.0, None, 1.0], change=[0.5, 0.5, None],
                               again=[1.0, 1.0, 1.0]), "m", "lower", 0.2)
    assert (row["pairs"], row["change_wins"]) == (1, 1)
    assert row["change"]["n"] == 2 and row["parent"]["n"] == 2
    missing = record.compare(_runs(parent=[1.0], change=[None], again=[1.0]),
                             "m", "lower", 0.2)
    assert missing["missing"] == ["change"] and "difference" not in missing


def test_every_end_to_end_metric_of_the_benchmark_is_summarized():
    benchmark = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in benchmark["end_to_end"]]
    run = {"correct": True, "metrics": {name: 1.0 for name in names}}
    summary = record.summarize({side: [run] for side in record.SIDES}, benchmark["end_to_end"])
    assert list(summary) == names
    assert all({"parent", "change", "again"} <= set(row) for row in summary.values())


def test_a_bench_result_line_and_a_missing_one():
    out = ("env: {}\nops attempted 3, failed 0\n"
           + json.dumps({"correct": True, "attempted": 3, "failed": 0,
                         "metrics": {"train_s": {"value": 0.5, "unit": "s"}}}) + "\n")
    assert record.parse_result(out) == {"correct": True, "attempted": 3, "failed": 0,
                                        "metrics": {"train_s": 0.5}}
    assert record.parse_result("") == {"correct": False, "attempted": 0, "failed": 0,
                                       "metrics": {}}


def test_the_dispatch_target_is_the_highest_present():
    assert record.dispatch_target({"X86_V2": True, "X86_V3": True, "X86_V4": False,
                                   "AVX512_ICL": True, "AVX2": True}) == "AVX512_ICL"
    assert record.dispatch_target({"ASIMD": True}) is None


def test_a_provenance_value_that_moves_during_the_runs_is_named_with_both_values():
    before = {"change_has_uncommitted_edits": False, "change_src_sha256": "aa", "nproc": 2}
    assert record.provenance_drift(before, {"change_has_uncommitted_edits": False,
                                            "change_src_sha256": "aa"}) == []
    moved = record.provenance_drift(before, {"change_has_uncommitted_edits": True,
                                             "change_src_sha256": "bb"})
    assert moved == ["record: change_has_uncommitted_edits moved during the runs: False before "
                     "the first run, True after the last",
                     "record: change_src_sha256 moved during the runs: 'aa' before the first "
                     "run, 'bb' after the last"]


def test_the_provenance_taken_after_the_runs_is_the_one_the_record_holds():
    """environment() records provenance() under the same names, so the check
    after the last run compares like with like."""
    assert set(record.provenance()) == {"change_has_uncommitted_edits", "change_src_sha256"}
    assert record.provenance()["change_src_sha256"] == record.src_digest(record.ROOT / "src")
