"""The four benchmark workloads: one op is one `reupsim train` on a config.

Every workload trains the 2C ansatz with 4 layers on the default generated
250-point dataset with the cross-entropy cost, single-threaded
(`workers: 1`).  The master seed of the config is the benchmark's `--seed`,
so the seed picks the dataset, the initial parameters and the noise stream.
"""

from __future__ import annotations

from dataclasses import dataclass

POPULATION = 50
POINTS = 250
LAYERS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    optimizer: dict
    noisy: bool

    @property
    def is_ga(self) -> bool:
        return self.optimizer["kind"] == "ga"

    @property
    def steps_key(self) -> str:
        return "max_generations" if self.is_ga else "max_iterations"

    @property
    def steps(self) -> int:
        """Generations or iterations of one op."""
        return self.optimizer[self.steps_key]

    def raw_config(self, seed: int, steps: int | None = None) -> dict:
        """The config mapping of one op; `steps` overrides the op length."""
        optimizer = dict(self.optimizer)
        if steps is not None:
            optimizer[self.steps_key] = steps
        return {
            "seed": seed,
            "workers": 1,
            "cost": "cross_entropy",
            "circuit": {"ansatz": "2C", "layers": LAYERS},
            "dataset": {"n": POINTS},
            "backend": {"kind": "noisy" if self.noisy else "ideal"},
            "optimizer": optimizer,
        }

    def expected_estimates(self, steps: int) -> int | None:
        """Closed-form ledger total of an op, where the optimizer has one."""
        if self.is_ga:
            return (steps + 1) * self.optimizer["population_size"] * POINTS
        if self.optimizer["kind"] == "sgd":
            per_gradient = (4 * LAYERS + 1) * self.optimizer["batch_size"]
            return POINTS + steps * (per_gradient + POINTS)
        return None     # BFGS: the line search decides how many trials an op makes


def ga(generations: int) -> dict:
    return {"kind": "ga", "population_size": POPULATION, "max_generations": generations}


# Why each workload exists is in BENCHMARK.json and bench/README.md.  Op sizes
# keep an op under about half a second so a run holds enough ops for a tail:
# ga-noisy runs 10 generations because a noisy generation costs about four
# ideal ones, and sgd-shift-noisy runs 50 iterations.
WORKLOADS = {w.name: w for w in (
    Workload("ga-ideal", ga(40), noisy=False),
    Workload("ga-noisy", ga(10), noisy=True),
    Workload("sgd-shift-noisy",
             {"kind": "sgd", "gradient": "parameter_shift", "batch_size": 10,
              "max_iterations": 50},
             noisy=True),
    Workload("bfgs-analytic-ideal",
             {"kind": "bfgs_standard", "gradient": "analytic",
              "line_search": {"kind": "armijo"}, "max_iterations": 50},
             noisy=False),
)}
