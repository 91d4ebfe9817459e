"""Start-up weight: no run loads scipy, noisy readout included; scipy is a
test-only dependency (the oracle of tests/test_backend.py).  Importing the
package loads none of its modules, and a training run loads neither the
analyses' `mitigation` nor the thread pool that only `sweep --jobs` uses.

Each check runs in a fresh interpreter, because this test process has
imported scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if any(m == name or m.startswith(name + ".") for name in {names!r}))))
"""


def _modules_after(code: str, cwd: Path, *names: str) -> list[str]:
    """The loaded modules that are one of `names` or inside one, after `code` runs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code + REPORT.format(names=names)], cwd=cwd,
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _scipy_modules_after(code: str, cwd: Path) -> list[str]:
    return _modules_after(code, cwd, "scipy")


def _main(argv: list[str], code: int = 0) -> str:
    return f"from reupsim import cli\nassert cli.main({argv!r}) == {code}\n"


def _train(tmp_path: Path, backend: str, optimizer: str) -> str:
    config = tmp_path / "config.yaml"
    config.write_text(f"seed: 2\ndataset: {{n: 12}}\nbackend: {backend}\n"
                      f"optimizer: {optimizer}\n")
    return _main(["train", "--config", str(config), "--out", str(tmp_path / "run")])


def test_importing_the_package_loads_neither(tmp_path):
    assert _scipy_modules_after("import reupsim", tmp_path) == []


def test_importing_the_package_loads_none_of_its_modules(tmp_path):
    assert _modules_after("import reupsim", tmp_path, "reupsim") == ["reupsim"]


def test_a_train_run_loads_neither_mitigation_nor_a_thread_pool(tmp_path):
    code = _train(tmp_path, "{kind: noisy, noise: {shots: 30}}",
                  "{kind: ga, population_size: 4, max_generations: 0}")
    assert _modules_after(code, tmp_path, "reupsim.mitigation", "concurrent.futures") == []
    assert (tmp_path / "run" / "trace.csv").exists()


@pytest.mark.parametrize("backend", ["{kind: ideal}", "{kind: noisy, noise: {shots: 30}}"])
def test_a_ga_train_run_loads_neither(tmp_path, backend):
    code = _train(tmp_path, backend, "{kind: ga, population_size: 4, max_generations: 0}")
    assert _scipy_modules_after(code, tmp_path) == []
    assert (tmp_path / "run" / "trace.csv").exists()


def test_an_analytic_bfgs_train_run_loads_no_scipy(tmp_path):
    code = _train(tmp_path, "{kind: ideal}",
                  "{kind: bfgs_standard, gradient: analytic, max_iterations: 2}")
    assert _scipy_modules_after(code, tmp_path) == []
    assert (tmp_path / "run" / "trace.csv").exists()


def test_gen_data_and_an_ideal_evaluate_load_no_scipy(tmp_path):
    data, theta = tmp_path / "d.csv", tmp_path / "theta.txt"
    theta.write_text("0.1\n" * 16)
    code = (_main(["gen-data", "--out", str(data), "--n", "12"])
            + _main(["evaluate", "--theta", str(theta), "--data", str(data)]))
    assert _scipy_modules_after(code, tmp_path) == []


def test_help_loads_no_scipy(tmp_path):
    code = ("from reupsim import cli\ntry:\n    cli.main(['--help'])\n"
            "except SystemExit as exc:\n    assert exc.code == 0\n")
    assert _scipy_modules_after(code, tmp_path) == []
