"""End-to-end checks of the command-line harness, run in process."""

import argparse
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reupsim import cli
from reupsim.backend import MAX_SHOTS
from reupsim.circuits import CircuitSpec
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


def test_archived_files_keep_their_line_endings(tmp_path, capsys):
    """trace.csv and a gen-data CSV's rows are written by csv.writer, so they
    end in \\r\\n (a gen-data file's boundary line ends in \\n); every other
    file a command writes ends its lines in \\n alone.  Archived bytes depend
    on both conventions."""
    config = tmp_path / "config.yaml"
    config.write_text(SMALL_TRAIN_CONFIG)
    run, pts = tmp_path / "run", tmp_path / "pts.csv"
    assert cli.main(["train", "--config", str(config), "--out", str(run)]) == cli.EXIT_OK
    assert cli.main(["gen-data", "--out", str(pts), "--n", "5"]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--theta", str(run / "best_theta.txt"), "--data", str(pts),
                     "--out", str(tmp_path / "scores.csv")]) == cli.EXIT_OK
    assert cli.main(["analyze", "time-budget", "--out", str(tmp_path / "budget")]) == cli.EXIT_OK
    capsys.readouterr()

    def lines(path):
        return path.read_bytes().splitlines(keepends=True)

    trace = lines(run / "trace.csv")
    assert len(trace) == 5 and all(line.endswith(b"\r\n") for line in trace)
    boundary, *rows = lines(pts)
    assert boundary.startswith(b"# boundary") and boundary.endswith(b"\n")
    assert not boundary.endswith(b"\r\n")
    assert len(rows) == 6 and all(line.endswith(b"\r\n") for line in rows)
    for path in (run / "best_theta.txt", run / "summary.txt", run / "config.yaml",
                 tmp_path / "scores.csv", tmp_path / "budget" / "time_budget.csv"):
        text = path.read_bytes()
        assert text.endswith(b"\n") and b"\r" not in text, path.name


def test_a_seed_of_64_bits_or_more_is_read_from_the_flag_as_from_the_config(tmp_path,
                                                                            monkeypatch):
    """Seeds have no upper bound: the flag, the config key and REUP_SEED all
    take 2**64 and give the same run."""
    seed = str(2**64)
    config = tmp_path / "config.yaml"
    config.write_text(SMALL_TRAIN_CONFIG)
    flag, key = tmp_path / "flag", tmp_path / "key"
    assert cli.main(["train", "--config", str(config), "--out", str(flag),
                     "--seed", seed]) == cli.EXIT_OK
    config.write_text(SMALL_TRAIN_CONFIG.replace("seed: 5", f"seed: {seed}"))
    assert cli.main(["train", "--config", str(config), "--out", str(key)]) == cli.EXIT_OK
    for name in ("trace.csv", "best_theta.txt"):
        assert (flag / name).read_bytes() == (key / name).read_bytes()
    assert cli.main(["gen-data", "--out", str(flag / "d.csv"), "--n", "5",
                     "--seed", seed]) == cli.EXIT_OK
    monkeypatch.setenv(cli.SEED_ENV_VAR, seed)
    assert cli.main(["gen-data", "--out", str(key / "d.csv"), "--n", "5"]) == cli.EXIT_OK
    assert (flag / "d.csv").read_bytes() == (key / "d.csv").read_bytes()
    rc = cli.main(["evaluate", "--theta", str(flag / "best_theta.txt"), "--data",
                   str(flag / "d.csv"), "--backend", "noisy", "--noise-seed", seed])
    assert rc == cli.EXIT_OK


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


@pytest.mark.parametrize("confusion", ["[[a, 1], [0, 1]]", "[[true, 0], [0, 1]]"])
def test_train_rejects_a_confusion_entry_that_is_no_number(tmp_path, capsys, confusion):
    config = tmp_path / "config.yaml"
    config.write_text(f"backend: {{kind: noisy, noise: {{confusion: {confusion}}}}}\n")
    out = tmp_path / "r"
    rc = cli.main(["train", "--config", str(config), "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "backend.noise.confusion: expected 2 numbers" in capsys.readouterr().err
    assert not out.exists()


def test_a_ga_budget_below_one_generation_writes_nothing(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text(SMALL_TRAIN_CONFIG)
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(config), "--out", str(out),
                   "--set", "optimizer.max_estimates=143"])
    assert rc == cli.EXIT_CONFIG
    assert ("optimizer.max_estimates=143 is below one generation: 6 chromosomes x "
            "24 points = 144 estimates") in capsys.readouterr().err
    assert not out.exists()
    rc = cli.main(["train", "--config", str(config), "--out", str(out),
                   "--set", "optimizer.max_estimates=144"])
    assert rc == cli.EXIT_OK
    with open(out / "trace.csv") as fh:
        assert [r["cum_estimates"] for r in csv.DictReader(fh)] == ["144"]


@pytest.mark.parametrize("kind,first", [
    ("bfgs_standard", "iteration 0: a cost evaluation and a gradient = 432 estimates"),
    ("sgd", "iteration 0: a cost evaluation = 24 estimates")])
def test_a_gradient_budget_below_iteration_zero_writes_nothing(tmp_path, capsys, kind,
                                                               first):
    config = tmp_path / "config.yaml"
    config.write_text(f"dataset: {{n: 24}}\noptimizer: {{kind: {kind}, max_estimates: 23}}\n")
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(config), "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert f"optimizer.max_estimates=23 is below {first}" in capsys.readouterr().err
    assert not out.exists()


def test_a_gradient_descent_mini_batch_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("dataset: {n: 24}\noptimizer: {kind: gradient_descent, batch_size: 10}\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    assert ("config error: optimizer.batch_size=10 is below the 24 points: "
            "gradient_descent is full-batch") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["sgd", "gradient_descent"])
def test_a_batch_above_the_dataset_is_a_config_error(tmp_path, capsys, kind):
    out = tmp_path / "run"
    argv = ["train", "--out", str(out), "--set", "dataset.n=20",
            "--set", f"optimizer.kind={kind}", "--set", "optimizer.batch_size=1000"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert ("config error: optimizer.batch_size=1000 is above the 20 points"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("override,message", [
    ("optimizer.mutation={kind: decaying, rate: 0.9}",
     "optimizer.mutation: rate is not read by decaying mutation"),
    ("optimizer.mutation={kind: fixed, mask_base: 0.5}",
     "optimizer.mutation: mask_base is not read by fixed mutation"),
    ("optimizer.mutation={kind: fixed, scale: 1.0}",
     "optimizer.mutation: scale is not read by fixed mutation"),
    ("optimizer.mutation={kind: fixed, delta_halfwidth: 0.1}",
     "optimizer.mutation: delta_halfwidth is not read by fixed mutation"),
    ("optimizer.tournament_size=5", "optimizer: tournament_size is not read by sss selection")])
def test_a_ga_key_its_kind_does_not_read_is_a_config_error(tmp_path, capsys, override, message):
    out = tmp_path / "run"
    argv = ["train", "--out", str(out), "--set", "optimizer.kind=ga", "--set", override]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {message}; leave it out or at its default" in err
    assert "Traceback" not in err and not out.exists()


def test_the_keys_a_ga_kind_reads_train(tmp_path):
    out = tmp_path / "run"
    argv = ["train", "--out", str(out), "--set", "dataset.n=12",
            "--set", "optimizer={kind: ga, population_size: 4, max_generations: 1, "
            "selection: tournament, tournament_size: 2, mutation: {kind: fixed, rate: 0.9}}"]
    assert cli.main(argv) == cli.EXIT_OK
    archived = (out / "config.yaml").read_text()
    assert "tournament_size: 2" in archived and "rate: 0.9" in archived


def test_an_empty_key_trains_with_its_default(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("dataset: {n: 6}\noptimizer:\n  population_size:\n"
                      "  max_generations: 0\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    assert "population_size: 50\n" in (out / "config.yaml").read_text()


@pytest.mark.parametrize("override,message", [
    ("optimizer.target_accuracy=2", "optimizer: target_accuracy must lie in (0, 1]"),
    ("optimizer.line_search={c1: 5}", "optimizer.line_search: c1 must lie in (0, 1)"),
    ("optimizer.line_search={kind: armijo, c2: 0.5}",
     "optimizer.line_search: c2 is not read by armijo line search"),
    ("optimizer.learning_rate=3", "optimizer: learning_rate is not read by bfgs_standard"),
    ("dataset.radius=.nan", "dataset.radius: must be finite, got nan"),
    ("backend={kind: noisy, noise: {residual_sigma: .nan}}",
     "backend.noise.residual_sigma: must be finite, got nan"),
    ("backend={kind: noisy, noise: {confusion: [[.nan, 1], [0, 1]]}}",
     "backend.noise.confusion: must be finite, got nan"),
    ("optimizer.init_range=[.nan, 1]", "optimizer.init_range: must be finite, got nan"),
    ("optimizer.line_search={alpha0: .inf}",
     "optimizer.line_search.alpha0: must be finite, got inf"),
    ("optimizer.line_search={alpha0: " + "9" * 400 + "}",
     "optimizer.line_search.alpha0: must be finite, got inf")])
def test_an_out_of_range_value_is_a_config_error(tmp_path, capsys, override, message):
    argv = ["train", "--out", str(tmp_path / "run"), "--set", override,
            "--set", "optimizer.kind=bfgs_standard"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


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


def test_a_noisy_run_at_the_shot_ceiling_runs_and_one_past_it_exits_2(tmp_path, capsys):
    """MAX_SHOTS is the noisy sampler's ceiling: evaluate samples at it, and a
    train config one past it is a config error naming backend.noise's shots."""
    data_path = tmp_path / "pts.csv"
    cli.main(["gen-data", "--out", str(data_path), "--n", "30", "--seed", "3"])
    theta_path = tmp_path / "theta.txt"
    cli.write_theta(theta_path, np.full(16, 0.3))
    argv = ["evaluate", "--theta", str(theta_path), "--data", str(data_path),
            "--backend", "noisy", "--shots", str(MAX_SHOTS)]
    assert cli.main(argv) == cli.EXIT_OK
    assert f"{MAX_SHOTS} shots per estimate" in capsys.readouterr().out
    config = tmp_path / "c.yaml"
    config.write_text(f"backend: {{kind: noisy, shots: {MAX_SHOTS + 1}}}\n")
    rc = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert (f"config error: backend.noise: shots must be <= {MAX_SHOTS}, got {MAX_SHOTS + 1}"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_evaluate_rejects_a_theta_of_the_wrong_length(tmp_path, capsys):
    data_path = tmp_path / "pts.csv"
    cli.main(["gen-data", "--out", str(data_path), "--n", "10", "--seed", "3"])
    theta_path = tmp_path / "theta.txt"
    cli.write_theta(theta_path, np.zeros(5))
    rc = cli.main(["evaluate", "--theta", str(theta_path), "--data", str(data_path)])
    assert rc == cli.EXIT_CONFIG
    assert "expected 16 parameters" in capsys.readouterr().err


def test_a_rerun_into_one_out_leaves_the_bytes_of_a_fresh_run(tmp_path, capsys):
    """Outputs are rewritten in place: a 1-generation run into the directory of
    a 6-generation run leaves the bytes of a fresh 1-generation run, and a
    gen-data or evaluate file rewritten with fewer points those of a fresh file."""
    config = tmp_path / "config.yaml"
    config.write_text(SMALL_TRAIN_CONFIG)
    run, fresh = tmp_path / "run", tmp_path / "fresh"
    for generations, out in ((6, run), (1, run), (1, fresh)):
        assert cli.main(["train", "--config", str(config), "--out", str(out), "--set",
                         f"optimizer.max_generations={generations}"]) == cli.EXIT_OK
    for name in ("trace.csv", "best_theta.txt", "summary.txt"):
        assert (run / name).read_bytes() == (fresh / name).read_bytes(), name
    assert (run / "config.yaml").read_text().replace(str(run), str(fresh)) == (
        fresh / "config.yaml").read_text()
    theta = run / "best_theta.txt"
    for n, out in ((40, "pts.csv"), (5, "pts.csv"), (5, "fresh.csv")):
        assert cli.main(["gen-data", "--n", str(n), "--out", str(tmp_path / out)]) == cli.EXIT_OK
        assert cli.main(["evaluate", "--theta", str(theta), "--data", str(tmp_path / out),
                         "--out", str(tmp_path / f"scores-{out}")]) == cli.EXIT_OK
    for name in ("pts.csv", "scores-pts.csv"):
        assert (tmp_path / name).read_bytes() == (
            tmp_path / name.replace("pts", "fresh")).read_bytes()


def test_an_out_that_is_no_regular_file_is_written_through(tmp_path, capsys):
    """A device or a pipe is written but not cut: /dev/null, and /dev/stdout
    into a pipe, exit 0."""
    assert cli.main(["gen-data", "--n", "5", "--out", os.devnull]) == cli.EXIT_OK
    theta = tmp_path / "theta.txt"
    cli.write_theta(theta, np.full(16, 0.3))
    assert cli.main(["gen-data", "--n", "5", "--out", str(tmp_path / "pts.csv")]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--theta", str(theta), "--data", str(tmp_path / "pts.csv"),
                     "--out", os.devnull]) == cli.EXIT_OK
    assert f"wrote per-point results to {os.devnull}" in capsys.readouterr().out
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "reupsim.cli", "gen-data", "--n", "3",
                           "--out", "/dev/stdout"], capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stdout.startswith(b"# boundary") and proc.stdout.count(b"\r\n") == 4


@pytest.mark.parametrize("command", [["gen-data", "--n", "5"], ["evaluate"]])
def test_an_out_that_is_a_directory_exits_4_naming_it(tmp_path, monkeypatch, capsys,
                                                      command):
    monkeypatch.chdir(tmp_path)
    cli.write_theta("theta.txt", np.full(16, 0.3))
    assert cli.main(["gen-data", "--n", "5", "--out", "pts.csv"]) == cli.EXIT_OK
    if command == ["evaluate"]:
        command = command + ["--theta", "theta.txt", "--data", "pts.csv"]
    Path("taken").mkdir()
    capsys.readouterr()
    assert cli.main(command + ["--out", "taken"]) == cli.EXIT_IO
    assert capsys.readouterr().err == "i/o error: [Errno 21] Is a directory: 'taken'\n"


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


def test_a_boundary_line_its_circle_rejects_exits_4_naming_the_line(tmp_path, capsys):
    """A boundary line that parses but describes no valid circle is a bad
    file at line 1, as a line that does not parse is."""
    data_path = tmp_path / "pts.csv"
    cli.main(["gen-data", "--out", str(data_path), "--n", "10", "--seed", "3"])
    first, rest = data_path.read_text().split("\n", 1)
    data_path.write_text(re.sub(r"radius=\S+", "radius=-1.0", first) + "\n" + rest)
    theta_path = tmp_path / "theta.txt"
    cli.write_theta(theta_path, np.zeros(16))
    capsys.readouterr()
    rc = cli.main(["evaluate", "--theta", str(theta_path), "--data", str(data_path)])
    assert rc == cli.EXIT_IO
    assert f"{data_path}:1: radius must be positive, got -1.0" in capsys.readouterr().err


def test_a_non_finite_number_in_an_input_file_exits_4_naming_the_line(tmp_path, capsys):
    """A NaN parameter or coordinate is a bad file, not a number to score:
    evaluate and train stop before writing anything."""
    data_path = tmp_path / "pts.csv"
    cli.main(["gen-data", "--out", str(data_path), "--n", "10", "--seed", "3"])
    theta_path = tmp_path / "theta.txt"
    cli.write_theta(theta_path, np.zeros(16))
    nan_theta = tmp_path / "nan_theta.txt"
    nan_theta.write_text("0.0\n" * 2 + "nan\n" + "0.0\n" * 13)
    nan_data = tmp_path / "nan_pts.csv"
    lines = data_path.read_text().splitlines()
    nan_data.write_text("\n".join(lines[:2] + ["nan,0.5,0"] + lines[3:]) + "\n")
    out = tmp_path / "scores.csv"
    capsys.readouterr()
    for theta, points, message in (
            (nan_theta, data_path, "nan_theta.txt:3: not a finite number: 'nan'"),
            (theta_path, nan_data, "nan_pts.csv:3: field 'x0' is not finite: 'nan'")):
        rc = cli.main(["evaluate", "--theta", str(theta), "--data", str(points),
                       "--out", str(out)])
        assert rc == cli.EXIT_IO
        assert message in capsys.readouterr().err
    assert not out.exists()
    run = tmp_path / "run"
    rc = cli.main(["train", "--out", str(run), "--set", f"dataset.path={nan_data}"])
    assert rc == cli.EXIT_IO
    assert "nan_pts.csv:3: field 'x0' is not finite" in capsys.readouterr().err
    assert not run.exists()


def test_read_theta_skips_comments_and_reports_bad_lines(tmp_path):
    path = tmp_path / "theta.txt"
    path.write_text("# trained parameters\n\n0.5\n-1.25\n\n# end\n2.0\n")
    np.testing.assert_array_equal(cli.read_theta(path), [0.5, -1.25, 2.0])

    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\noops\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        cli.read_theta(bad)
    bad.write_text("0.5\n-inf\n")
    with pytest.raises(ValueError, match="bad.txt:2: not a finite number: '-inf'"):
        cli.read_theta(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no parameters"):
        cli.read_theta(empty)


def test_a_theta_file_that_is_not_utf8_is_an_error_naming_the_file(tmp_path):
    path = tmp_path / "theta.txt"
    path.write_bytes(b"0.5\n\xff\n")
    with pytest.raises(ValueError) as err:
        cli.read_theta(path)
    assert str(err.value) == (f"{path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff "
                              "in position 4: invalid start byte)")


def test_an_input_file_that_is_not_utf8_names_the_file(tmp_path, capsys):
    """A config exits 2 as invalid YAML; a theta file or a dataset exits 4."""
    data_path, theta_path = tmp_path / "pts.csv", tmp_path / "theta.txt"
    cli.main(["gen-data", "--out", str(data_path), "--n", "10", "--seed", "3"])
    cli.write_theta(theta_path, np.zeros(16))
    bad_config, bad_theta, bad_data = (tmp_path / "bad.yaml", tmp_path / "bad.txt",
                                       tmp_path / "bad.csv")
    bad_config.write_bytes(b"seed: \xff\n")
    bad_theta.write_bytes(b"0.0\n" * 15 + b"\xff\n")
    bad_data.write_bytes(data_path.read_bytes().replace(b"\n", b"\n\xff", 1))
    capsys.readouterr()
    for argv, code, message in (
            (["train", "--config", str(bad_config), "--out", str(tmp_path / "run")],
             cli.EXIT_CONFIG, f"config error: {bad_config}: not valid YAML ("),
            (["evaluate", "--theta", str(bad_theta), "--data", str(data_path)],
             cli.EXIT_IO, f"invalid input: {bad_theta}: not UTF-8 text ("),
            (["evaluate", "--theta", str(theta_path), "--data", str(bad_data)],
             cli.EXIT_IO, f"invalid input: {bad_data}: not UTF-8 text (")):
        assert cli.main(argv) == code
        assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "run").exists()


BOM = b"\xef\xbb\xbf"


def test_a_theta_file_with_a_byte_order_mark_reads_as_without(tmp_path):
    path = tmp_path / "theta.txt"
    cli.write_theta(path, np.linspace(-1.0, 1.0, 16))
    plain = cli.read_theta(path)
    path.write_bytes(BOM + path.read_bytes())
    np.testing.assert_array_equal(cli.read_theta(path), plain)


def test_a_dataset_with_a_byte_order_mark_loads_as_without(tmp_path):
    """The mark would otherwise hide the boundary line, read as the header."""
    path = tmp_path / "pts.csv"
    assert cli.main(["gen-data", "--out", str(path), "--n", "12", "--seed", "4",
                     "--center", "0.1", "0.2", "--radius", "0.5"]) == 0
    plain = load(path)
    path.write_bytes(BOM + path.read_bytes())
    marked = load(path)
    np.testing.assert_array_equal(marked.x, plain.x)
    np.testing.assert_array_equal(marked.y, plain.y)
    assert (marked.boundary, marked.seed) == (plain.boundary, plain.seed)
    assert marked.boundary.center == (0.1, 0.2)


@pytest.mark.parametrize("argv,flag", [
    (["evaluate", "--backend", "ideal", "--noise-seed", "5"], "--noise-seed"),
    (["evaluate", "--residual-sigma", "0.3"], "--residual-sigma"),
    (["evaluate", "--residual-sigma", "0.006"], "--residual-sigma"),
    (["evaluate", "--backend", "ideal", "--noise-seed", "5", "--residual-sigma", "0.3"],
     "--residual-sigma"),
    (["evaluate", "--seed", "3"], "--seed"),
    (["evaluate", "--noise-s", "5"], "--noise-seed"),
    (["analyze", "gradient-noise", "--out", "g", "--ideal", "--shots", "10"], "--shots"),
    (["analyze", "gradient-noise", "--out", "g", "--shots", "150", "--ideal"], "--shots")])
def test_a_flag_the_ideal_backend_does_not_read_exits_2_naming_it(tmp_path, monkeypatch,
                                                                  capsys, argv, flag):
    """Given with an ideal backend, a noisy backend's flag is an error, even at
    its default value, and nothing is read or written."""
    monkeypatch.chdir(tmp_path)
    if argv[0] == "evaluate":
        argv = argv[:1] + ["--theta", "t.txt", "--data", "d.csv", "--out", "o.csv"] + argv[1:]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: not read by the ideal backend\n")
    assert list(tmp_path.iterdir()) == []


def test_the_noisy_backend_reads_the_flags_an_ideal_one_rejects(tmp_path):
    data_path, theta_path = tmp_path / "pts.csv", tmp_path / "theta.txt"
    cli.main(["gen-data", "--out", str(data_path), "--n", "10", "--seed", "3"])
    cli.write_theta(theta_path, np.full(16, 0.3))
    assert cli.main(["evaluate", "--theta", str(theta_path), "--data", str(data_path),
                     "--backend", "noisy", "--noise-seed", "5", "--residual-sigma", "0.3",
                     "--seed", "2"]) == cli.EXIT_OK
    assert cli.main(["analyze", "gradient-noise", "--out", str(tmp_path / "g"), "--steps",
                     "0.5", "--repeats", "1", "--points", "3", "--shots", "10"]) == cli.EXIT_OK


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


def test_a_nested_key_sweep_sets_that_key_in_each_cell(tmp_path, monkeypatch):
    """A mutation-rate sweep is a sweep over optimizer.mutation.rate on a base
    whose mutation kind reads a rate."""
    config = tmp_path / "config.yaml"
    config.write_text("dataset: {n: 20}\n"
                      "optimizer: {kind: ga, population_size: 4, max_generations: 1}\n")
    cells = []
    run_training = cli.run_training

    def recording(cfg):
        cells.append(cfg)
        return run_training(cfg)

    monkeypatch.setattr(cli, "run_training", recording)
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(config), "--param", "optimizer.mutation.rate",
                   "--values", "0.1,0.3", "--repeats", "1", "--out", str(out),
                   "--set", "optimizer.mutation.kind=fixed"])
    assert rc == cli.EXIT_OK
    assert [{k: c.optimizer["mutation"][k] for k in ("kind", "rate")} for c in cells] == [
        {"kind": "fixed", "rate": 0.1}, {"kind": "fixed", "rate": 0.3}]
    with open(out / "sweep.csv") as fh:
        assert [(r["param"], r["value"]) for r in csv.DictReader(fh)] == [
            ("optimizer.mutation.rate", "0.1"), ("optimizer.mutation.rate", "0.3")]


def test_a_sweep_value_that_is_not_yaml_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("dataset: {n: 20}\n")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(config), "--param", "optimizer.population_size",
                   "--values", "4,[6", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert ("config error: override 'optimizer.population_size=[6': value is not valid YAML"
            in capsys.readouterr().err)
    assert not out.exists()


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


def test_a_backend_shots_sweep_trains_each_cell_at_its_shot_count(tmp_path, capsys):
    """backend.shots reaches the noise model; a base that also sets noise.shots
    to another value is a config error, not a sweep at one shot count."""
    config = tmp_path / "config.yaml"
    config.write_text(SMALL_TRAIN_CONFIG)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(config), "--param", "backend.shots",
            "--values", "20,40", "--repeats", "1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "backend.noise.shots: 30 differs from backend.shots = 20" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(argv + ["--set", "backend.noise.shots=null"]) == cli.EXIT_OK
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["cum_shots"]) // int(r["cum_estimates"]) for r in rows] == [20, 40]


def test_sweep_jobs_do_not_change_the_outputs(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(SMALL_TRAIN_CONFIG)
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        rc = cli.main(["sweep", "--config", str(config), "--param",
                       "optimizer.population_size", "--values", "4,6", "--repeats", "2",
                       "--jobs", jobs, "--out", str(out), "--seed", "3"])
        assert rc == cli.EXIT_OK
        outputs.append([(out / name).read_bytes()
                        for name in ("sweep.csv", "sweep_summary.csv")])
    assert outputs[0] == outputs[1]


def test_a_sweep_key_under_a_non_mapping_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("seed: 3\n")
    rc = cli.main(["sweep", "--config", str(config), "--param", "seed.nested",
                   "--values", "1", "--out", str(tmp_path / "sweep")])
    assert rc == cli.EXIT_CONFIG
    assert "seed.nested: seed is not a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("param,values,twice", [
    ("optimizer.selection", "sss,tournament,SSS", "SSS"),     # kind names ignore case
    ("circuit.ansatz", "2c,2B,2C", "2C")])
def test_two_values_of_one_resolved_setting_exit_2(tmp_path, capsys, param, values, twice):
    """Values whose cells resolve to one config (the cell seed aside) would
    train one setting twice under two seeds; nothing is trained or written."""
    config = tmp_path / "config.yaml"
    config.write_text("dataset: {n: 20}\n"
                      "optimizer: {kind: ga, population_size: 4, max_generations: 1}\n")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(config), "--param", param, "--values", values,
                   "--repeats", "1", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: argument --values: {twice} is listed twice\n")
    assert not out.exists()


@pytest.mark.parametrize("param,why", [
    ("seed", "it is the master seed, which every cell's seed derives from; use --seed"),
    ("optimizer.seed", "the sweep derives it per cell"),
    ("output_dir", "no training reads it"), ("workers", "no training reads it")],
    ids=["seed", "optimizer.seed", "output_dir", "workers"])
def test_a_key_the_sweep_sets_or_no_training_reads_exits_2(tmp_path, capsys, param, why):
    """The master seed and the cell seeds are the sweep's own, and output_dir
    and workers change no training: a sweep over them would report settings
    it did not train.  Nothing is trained or written."""
    config = tmp_path / "config.yaml"
    config.write_text("dataset: {n: 20}\n"
                      "optimizer: {kind: ga, population_size: 4, max_generations: 1}\n")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(config), "--param", param, "--values", "7",
                   "--repeats", "1", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: argument --param: a sweep cannot vary {param}: {why}\n")
    assert not out.exists()


@pytest.mark.parametrize("seed,message", [("abc", "expected an integer, got 'abc'"),
                                          (-5, "must be >= 0, got -5")])
def test_a_sweep_reads_its_base_seed_as_train_does(tmp_path, capsys, seed, message):
    config = tmp_path / "config.yaml"
    config.write_text(f"seed: {seed}\ndataset: {{n: 20}}\n"
                      "optimizer: {kind: ga, population_size: 4, max_generations: 1}\n")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(config), "--param",
                   "optimizer.population_size", "--values", "4", "--repeats", "1",
                   "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert f"config error: config.seed: {message}" in capsys.readouterr().err
    assert not out.exists()
    rc = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert f"config error: config.seed: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag,minimum", [
    (["gen-data", "--out", "x.csv", "--n", "0"], "--n", 1),
    (["gen-data", "--out", "x.csv", "--seed", "-1"], "--seed", 0),
    (["train", "--workers", "0"], "--workers", 1),
    (["evaluate", "--theta", "t.txt", "--data", "d.csv", "--shots", "0"], "--shots", 1),
    (["sweep", "--config", "c.yaml", "--param", "seed", "--values", "1", "--out", "s",
      "--repeats", "0"], "--repeats", 1),
    (["analyze", "landscape", "--out", "l", "--grid-steps", "0"], "--grid-steps", 1),
    (["analyze", "landscape", "--out", "l", "--budget", "-1"], "--budget", 0),
    (["analyze", "time-budget", "--out", "t", "--population", "-1"], "--population", 1),
    (["analyze", "noise-scaling", "--out", "n", "--repeats", "1"], "--repeats", 2)])
def test_a_count_flag_below_its_minimum_exits_2_naming_the_flag(tmp_path, monkeypatch,
                                                                 capsys, argv, flag, minimum):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    value = argv[argv.index(flag) + 1]
    assert f"argument {flag}: must be >= {minimum}, got {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,flag,message", [
    (["analyze", "noise-scaling", "--out", "n", "--shots", "0,10"], "--shots",
     "must be >= 1, got 0"),
    (["analyze", "noise-scaling", "--out", "n", "--shots", "10,x"], "--shots",
     "invalid int list value: '10,x'"),
    (["analyze", "gradient-noise", "--out", "g", "--steps", "-1"], "--steps",
     "must be > 0, got -1.0"),
    (["analyze", "residuals", "--out", "r", "--residual-sigma", "-1"], "--residual-sigma",
     "must be >= 0, got -1.0"),
    (["analyze", "landscape", "--out", "l", "--radius", "-1"], "--radius",
     "must be >= 0, got -1.0"),
    (["evaluate", "--theta", "t.txt", "--data", "d.csv", "--residual-sigma", "nan"],
     "--residual-sigma", "must be >= 0, got nan"),
    (["sweep", "--config", "c.yaml", "--param", "seed", "--values", " , ", "--out", "s"],
     "--values", "empty list"),
    # two texts of one YAML value would train one setting twice, under two seeds
    (["sweep", "--config", "c.yaml", "--param", "optimizer.mutation.rate",
      "--values", "0.1,0.3,0.10", "--out", "s"], "--values", "0.1 is listed twice"),
    (["sweep", "--config", "c.yaml", "--param", "optimizer.population_size",
      "--values", "6,8,6.0", "--out", "s"], "--values", "6 is listed twice"),
    (["analyze", "noise-scaling", "--out", "n", "--shots", "10"], "--shots",
     "need at least 2 distinct values"),
    (["analyze", "noise-scaling", "--out", "n", "--shots", "10,10"], "--shots",
     "need at least 2 distinct values"),
    (["evaluate", "--theta", "t.txt", "--data", "d.csv", "--shots", "100001"], "--shots",
     "must be <= 100000, got 100001"),
    (["analyze", "residuals", "--out", "r", "--shots", "100001"], "--shots",
     "must be <= 100000, got 100001"),
    (["analyze", "noise-scaling", "--out", "n", "--shots", "10,100001"], "--shots",
     "must be <= 100000, got 100001"),
    (["analyze", "gradient-noise", "--out", "g", "--shots", "100001"], "--shots",
     "must be <= 100000, got 100001"),
    (["evaluate", "--theta", "t.txt", "--data", "d.csv", "--residual-sigma", "inf"],
     "--residual-sigma", "must be finite, got inf"),
    (["analyze", "landscape", "--out", "l", "--budget", "1", "--radius", "inf"], "--radius",
     "must be finite, got inf"),
    (["analyze", "landscape", "--out", "l", "--grid-min", "nan"], "--grid-min",
     "must be finite, got nan"),
    (["analyze", "landscape", "--out", "l", "--grid-max=-inf"], "--grid-max",
     "must be finite, got -inf"),
    (["analyze", "landscape", "--out", "l", "--grid-max", "x"], "--grid-max",
     "invalid float value: 'x'"),
    (["analyze", "gradient-noise", "--out", "g", "--steps", "0.1,inf"], "--steps",
     "must be finite, got inf")])
def test_an_out_of_range_value_flag_exits_2_naming_the_flag(tmp_path, monkeypatch, capsys,
                                                           argv, flag, message):
    """Out-of-range numbers and lists are parse errors (exit 2), not file
    problems (exit 4), and nothing is written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_circuit_and_circle_flags_are_read_like_config_blocks(tmp_path, capsys):
    # test_cli_surface.py pins that a command given neither flag receives None for both
    assert cli._circuit_from_flags(argparse.Namespace(ansatz=None, layers=None)) == CircuitSpec()
    out = tmp_path / "d.csv"
    assert cli.main(["gen-data", "--out", str(out), "--n", "5"]) == cli.EXIT_OK
    assert load(out).boundary == CircleSpec()
    assert cli.main(["gen-data", "--out", str(out), "--n", "5", "--center", "0.1", "0.2",
                     "--radius", "0.5", "--domain", "-1", "1", "-1", "1.2"]) == cli.EXIT_OK
    assert load(out).boundary == CircleSpec((0.1, 0.2), 0.5, (-1.0, 1.0, -1.0, 1.2))
    capsys.readouterr()
    for argv, message in (
            (["gen-data", "--out", str(tmp_path / "r.csv"), "--radius", "0"],
             "dataset: radius must be positive, got 0.0"),
            (["analyze", "landscape", "--out", str(tmp_path / "l"), "--ansatz", "3A"],
             "circuit.ansatz: unknown ansatz '3A'"),
            (["analyze", "ansatz-spread", "--out", str(tmp_path / "s"), "--layers", "0"],
             "circuit: layer count must be >= 1, got 0"),
            (["gen-data", "--out", str(tmp_path / "n.csv"), "--radius", "nan"],
             "dataset.radius: must be finite, got nan")):
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


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


def test_analyze_residuals_rejects_a_theta_of_the_wrong_length_as_evaluate_does(
        tmp_path, capsys, monkeypatch):
    """Before it calibrates: a wrong-size --theta is a config error, with evaluate's message."""
    from reupsim import mitigation
    theta_path, data_path = tmp_path / "theta.txt", tmp_path / "pts.csv"
    cli.write_theta(theta_path, np.zeros(3))
    cli.main(["gen-data", "--out", str(data_path), "--n", "5"])
    capsys.readouterr()
    rc = cli.main(["evaluate", "--theta", str(theta_path), "--data", str(data_path)])
    assert rc == cli.EXIT_CONFIG
    message = capsys.readouterr().err
    assert message == "config error: theta: expected 16 parameters for 2C with 4 layers, got 3\n"
    monkeypatch.setattr(mitigation, "calibrate", None)     # calling it would fail
    out = tmp_path / "res"
    rc = cli.main(["analyze", "residuals", "--theta", str(theta_path), "--points", "5",
                   "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (cli.EXIT_CONFIG, message)
    assert not out.exists()


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


def test_analyze_noise_scaling_without_a_spread_exits_4(tmp_path, capsys):
    """One point, two repeats: at seed 0 both estimates at 1 shot agree, and a
    zero spread has no logarithm for the power-law fit.  Nothing is written,
    and numpy's divide warning does not reach stderr."""
    out = tmp_path / "scaling"
    rc = cli.main(["analyze", "noise-scaling", "--points", "1", "--repeats", "2",
                   "--shots", "1,2", "--out", str(out)])
    assert rc == cli.EXIT_IO
    assert capsys.readouterr().err == (
        "invalid input: the estimates at shot count 1 have no spread to fit a power law "
        "to; use more repeats or points\n")
    assert not out.exists()


@pytest.mark.parametrize("shots", ["100000,99999", "1000,1001"])
def test_analyze_noise_scaling_with_an_overflowing_fit_exits_4(tmp_path, capsys, shots):
    """Two near shot counts, two repeats: the fitted line through the spreads'
    logarithms is too steep for its amplitude to be a float.  Nothing is
    written, and numpy's overflow warning does not reach stderr."""
    out = tmp_path / "scaling"
    rc = cli.main(["analyze", "noise-scaling", "--points", "2", "--repeats", "2",
                   "--shots", shots, "--out", str(out)])
    assert rc == cli.EXIT_IO
    assert capsys.readouterr().err == (
        f"invalid input: the power-law fit over shot counts {shots.replace(',', ', ')} "
        "overflows; spread the shot counts further apart\n")
    assert not out.exists()


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
