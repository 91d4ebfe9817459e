"""Start-up weight: the package must not pull in scipy.stats or scipy.spatial.

Each check runs in a fresh interpreter, because this test process has
imported both modules already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT_HEAVY = """
import sys
print(sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.spatial"))))
"""


def _heavy_modules_after(code: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code + REPORT_HEAVY], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return out.stdout.splitlines()[-1]


def test_importing_the_package_loads_neither(tmp_path):
    assert _heavy_modules_after("import reupsim", tmp_path) == "[]"


@pytest.mark.parametrize("backend", ["{kind: ideal}", "{kind: noisy, noise: {shots: 30}}"])
def test_a_ga_train_run_loads_neither(tmp_path, backend):
    config = tmp_path / "config.yaml"
    config.write_text("seed: 2\ndataset: {n: 12}\n"
                      f"backend: {backend}\n"
                      "optimizer: {kind: ga, population_size: 4, max_generations: 0}\n")
    code = ("from reupsim import cli\n"
            f"assert cli.main(['train', '--config', {str(config)!r}, "
            f"'--out', {str(tmp_path / 'run')!r}]) == 0\n")
    assert _heavy_modules_after(code, tmp_path) == "[]"
    assert (tmp_path / "run" / "trace.csv").exists()
