"""End-to-end checks of the command-line harness, run in process."""

import csv

import numpy as np
import pytest

from reupsim import cli
from reupsim.data import CircleSpec, generate, generate_splits, load
from reupsim.seeding import derive_seed

SMALL_TRAIN_CONFIG = """\
seed: 5
dataset: {n: 24}
backend:
  kind: noisy
  noise: {shots: 30}
optimizer:
  kind: ga
  population_size: 6
  max_generations: 3
"""


def test_gen_data_split_matches_the_canonical_splits(tmp_path, capsys):
    out = tmp_path / "train.csv"
    rc = cli.main(["gen-data", "--out", str(out), "--split", "train", "--seed", "0"])
    assert rc == cli.EXIT_OK
    assert "wrote 250 points" in capsys.readouterr().out
    ds = load(out)
    train, _ = generate_splits(0)
    np.testing.assert_array_equal(ds.x, train.x)
    np.testing.assert_array_equal(ds.y, train.y)


def test_gen_data_explicit_n_and_test_split(tmp_path):
    out = tmp_path / "test.csv"
    rc = cli.main(["gen-data", "--out", str(out), "--split", "test", "--n", "50",
                   "--seed", "0"])
    assert rc == cli.EXIT_OK
    ds = load(out)
    expected = generate(50, CircleSpec(), derive_seed(0, "data/test"))
    np.testing.assert_array_equal(ds.x, expected.x)


def test_gen_data_reads_the_seed_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    out = tmp_path / "pts.csv"
    rc = cli.main(["gen-data", "--out", str(out), "--n", "30"])
    assert rc == cli.EXIT_OK
    ds = load(out)
    expected = generate(30, CircleSpec(), 7)
    np.testing.assert_array_equal(ds.x, expected.x)


def test_a_malformed_seed_environment_variable_is_a_config_error(tmp_path, monkeypatch,
                                                                 capsys):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "banana")
    rc = cli.main(["gen-data", "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_CONFIG
    assert "REUP_SEED" in capsys.readouterr().err


def test_train_archives_a_rerunnable_config(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text(SMALL_TRAIN_CONFIG)
    out1 = tmp_path / "run1"
    rc = cli.main(["train", "--config", str(config), "--out", str(out1)])
    assert rc == cli.EXIT_OK
    assert "ga finished" in capsys.readouterr().out
    for name in ("config.yaml", "trace.csv", "best_theta.txt", "summary.txt"):
        assert (out1 / name).is_file()

    # the archived config reproduces the run byte for byte
    out2 = tmp_path / "run2"
    rc = cli.main(["train", "--config", str(out1 / "config.yaml"), "--out", str(out2)])
    assert rc == cli.EXIT_OK
    for name in ("trace.csv", "best_theta.txt", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_train_set_overrides_change_the_run(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(SMALL_TRAIN_CONFIG)
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(config), "--out", str(out),
                   "--set", "optimizer.max_generations=1"])
    assert rc == cli.EXIT_OK
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["iter"] == "1"


def test_train_rejects_an_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("shots: 100\n")
    rc = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_CONFIG
    assert "config.shots" in capsys.readouterr().err


def test_evaluate_scores_a_parameter_file(tmp_path, capsys):
    data_path = tmp_path / "pts.csv"
    cli.main(["gen-data", "--out", str(data_path), "--n", "40", "--seed", "3"])
    theta_path = tmp_path / "theta.txt"
    cli.write_theta(theta_path, np.zeros(16))
    out_path = tmp_path / "scores.csv"
    capsys.readouterr()
    rc = cli.main(["evaluate", "--theta", str(theta_path), "--data", str(data_path),
                   "--out", str(out_path)])
    assert rc == cli.EXIT_OK
    # all-zero parameters keep p1 = 0, so every point is predicted 0
    ds = load(data_path)
    expected = float((ds.y == 0).mean())
    assert f"accuracy {expected:.4f}" in capsys.readouterr().out
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    assert all(r["predicted"] == "0" for r in rows)


def test_evaluate_rejects_a_theta_of_the_wrong_length(tmp_path, capsys):
    data_path = tmp_path / "pts.csv"
    cli.main(["gen-data", "--out", str(data_path), "--n", "10", "--seed", "3"])
    theta_path = tmp_path / "theta.txt"
    cli.write_theta(theta_path, np.zeros(5))
    rc = cli.main(["evaluate", "--theta", str(theta_path), "--data", str(data_path)])
    assert rc == cli.EXIT_CONFIG
    assert "expected 16 parameters" in capsys.readouterr().err


def test_missing_files_exit_with_the_io_code(tmp_path, capsys):
    rc = cli.main(["evaluate", "--theta", str(tmp_path / "absent.txt"),
                   "--data", str(tmp_path / "absent.csv")])
    assert rc == cli.EXIT_IO
    capsys.readouterr()

    # a dataset whose labels contradict its boundary is rejected on load
    data_path = tmp_path / "pts.csv"
    cli.main(["gen-data", "--out", str(data_path), "--n", "10", "--seed", "3"])
    lines = data_path.read_text().splitlines()
    first = lines[2].rsplit(",", 1)
    lines[2] = f"{first[0]},{1 - int(first[1])}"
    data_path.write_text("\n".join(lines) + "\n")
    theta_path = tmp_path / "theta.txt"
    cli.write_theta(theta_path, np.zeros(16))
    rc = cli.main(["evaluate", "--theta", str(theta_path), "--data", str(data_path)])
    assert rc == cli.EXIT_IO


def test_read_theta_skips_comments_and_reports_bad_lines(tmp_path):
    path = tmp_path / "theta.txt"
    path.write_text("# trained parameters\n\n0.5\n-1.25\n\n# end\n2.0\n")
    np.testing.assert_array_equal(cli.read_theta(path), [0.5, -1.25, 2.0])

    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\noops\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        cli.read_theta(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no parameters"):
        cli.read_theta(empty)


def test_sweep_writes_per_cell_and_summary_rows(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("dataset: {n: 20}\n"
                      "optimizer: {kind: ga, population_size: 4, max_generations: 2}\n")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(config), "--param",
                   "optimizer.population_size", "--values", "4,6", "--repeats", "2",
                   "--out", str(out), "--seed", "3"])
    assert rc == cli.EXIT_OK
    assert "swept optimizer.population_size" in capsys.readouterr().out
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    seeds = {(r["value"], r["repeat"]): int(r["seed"]) for r in rows}
    assert seeds[("6", "1")] == derive_seed(3, "sweep/optimizer.population_size=6/rep1")
    with open(out / "sweep_summary.csv") as fh:
        summary = list(csv.DictReader(fh))
    assert [r["value"] for r in summary] == ["4", "6"]
    assert all(r["repeats"] == "2" for r in summary)


def test_an_ideal_cell_over_a_noise_block_is_a_config_error(tmp_path, capsys):
    """A noise block is noisy-only, so an ideal-vs-noisy sweep needs a base without one."""
    config = tmp_path / "config.yaml"
    config.write_text(SMALL_TRAIN_CONFIG)
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(config), "--param", "backend.kind",
                   "--values", "ideal,noisy", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "backend.noise: only valid when kind is noisy" in capsys.readouterr().err
    assert not out.exists()
    rc = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run"),
                   "--set", "backend.kind=ideal"])
    assert rc == cli.EXIT_CONFIG
    assert "backend.noise" in capsys.readouterr().err

    config.write_text("dataset: {n: 20}\nbackend: {shots: 30}\n"
                      "optimizer: {kind: ga, population_size: 4, max_generations: 1}\n")
    rc = cli.main(["sweep", "--config", str(config), "--param", "backend.kind",
                   "--values", "ideal,noisy", "--repeats", "1", "--out", str(out)])
    assert rc == cli.EXIT_OK
    with open(out / "sweep.csv") as fh:
        assert [r["value"] for r in csv.DictReader(fh)] == ["ideal", "noisy"]


def test_analyze_residuals_writes_fits_and_histogram(tmp_path, capsys):
    out = tmp_path / "res"
    rc = cli.main(["analyze", "residuals", "--points", "40", "--shots", "200",
                   "--calibration-shots", "2000", "--out", str(out), "--seed", "1"])
    assert rc == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "raw fit" in text and "mitigated fit" in text
    with open(out / "fit.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["variant"] for r in rows] == ["raw", "mitigated"]
    # mitigation should bring the slope toward 1
    assert abs(float(rows[1]["slope"]) - 1.0) < abs(float(rows[0]["slope"]) - 1.0)
    assert (out / "pairs.csv").is_file()
    assert (out / "residual_histogram.csv").is_file()


def test_analyze_noise_scaling_reports_a_negative_exponent(tmp_path, capsys):
    out = tmp_path / "scaling"
    rc = cli.main(["analyze", "noise-scaling", "--shots", "50,400", "--repeats", "120",
                   "--points", "4", "--out", str(out), "--seed", "2"])
    assert rc == cli.EXIT_OK
    assert "fitted std" in capsys.readouterr().out
    with open(out / "noise_scaling.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["fit_exponent"]) < -0.3


def test_analyze_gradient_noise_runs_on_the_ideal_leg(tmp_path, capsys):
    out = tmp_path / "grad"
    rc = cli.main(["analyze", "gradient-noise", "--steps", "0.5", "--repeats", "2",
                   "--points", "6", "--ideal", "--out", str(out), "--seed", "4"])
    assert rc == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "cross_entropy" in text
    with open(out / "gradient_noise.csv") as fh:
        rows = list(csv.DictReader(fh))
    # 3 costs x 16 components at a single step size
    assert len(rows) == 48


def test_analyze_landscape_covers_the_grid(tmp_path, capsys):
    out = tmp_path / "scape"
    rc = cli.main(["analyze", "landscape", "--grid-steps", "3", "--points", "10",
                   "--out", str(out), "--seed", "4"])
    assert rc == cli.EXIT_OK
    assert "accuracy surface over 3x3 grid" in capsys.readouterr().out
    with open(out / "landscape.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert all(0.0 <= float(r["best_accuracy"]) <= 1.0 for r in rows)


def test_analyze_ansatz_spread_covers_every_kind(tmp_path, capsys):
    out = tmp_path / "spread"
    rc = cli.main(["analyze", "ansatz-spread", "--sets", "2", "--points", "10",
                   "--out", str(out), "--seed", "4"])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().out.count("total-angle spread") == 4
    with open(out / "ansatz_spread_summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["ansatz"] for r in rows] == ["2A", "2B", "2C", "2D"]


def test_analyze_time_budget_matches_the_hand_total(tmp_path, capsys):
    out = tmp_path / "budget"
    rc = cli.main(["analyze", "time-budget", "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert "329.17 min" in capsys.readouterr().out
    with open(out / "time_budget.csv") as fh:
        rows = {r["component"]: float(r["seconds"]) for r in csv.DictReader(fh)}
    assert rows["total"] == pytest.approx(sum(v for k, v in rows.items()
                                              if k != "total"))
