"""Real-valued genetic algorithm for circuit parameter search.

One generation: evaluate every chromosome's fitness through the backend,
carry the elites unchanged, pick parents with the configured selection
scheme, breed children by gene-wise crossover, mutate them, and replace the
rest of the population.  All randomness comes from a generator seeded off
the config, so a run is reproducible bit for bit.

Selection schemes operate on a fitness to MAXIMIZE; the trainer negates
loss-type objectives before handing them over.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from . import costs
from .backend import Backend, TimeBudget, estimate_time
from .circuits import CircuitSpec
from .costs import CostKind
from .data import Dataset
from .seeding import derive_seed
from .trace import TrainingError, TrainingTrace

class SelectionKind(enum.Enum):
    SSS = "sss"
    RWS = "rws"
    SUS = "sus"
    RANK = "rank"
    RANDOM = "random"
    TOURNAMENT = "tournament"

    @classmethod
    def parse(cls, name: str) -> "SelectionKind":
        try:
            return cls(str(name).lower())
        except ValueError:
            options = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown selection {name!r}; expected one of {options}") from None


class CrossoverKind(enum.Enum):
    SINGLE_POINT = "single_point"
    TWO_POINT = "two_point"
    SCATTERED = "scattered"

    @classmethod
    def parse(cls, name: str) -> "CrossoverKind":
        try:
            return cls(str(name).lower())
        except ValueError:
            options = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown crossover {name!r}; expected one of {options}") from None


@dataclass(frozen=True)
class MutationSpec:
    """Fixed: per-gene redraw with probability `rate`.  Decaying: per-gene
    perturbation with probability mask_base**t by delta * t**scale,
    delta ~ U(-delta_halfwidth, +delta_halfwidth); t**scale is taken as 1 at
    t = 0 so generation zero stays finite for negative exponents."""

    kind: str = "decaying"
    rate: float = 0.2
    mask_base: float = 0.9
    scale: float = 0.25
    delta_halfwidth: float = 0.5

    def __post_init__(self):
        if self.kind not in ("fixed", "decaying"):
            raise ValueError(f"mutation kind must be fixed or decaying, got {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"mutation rate must lie in [0, 1], got {self.rate}")
        if not 0.0 < self.mask_base <= 1.0:
            raise ValueError(f"mask_base must lie in (0, 1], got {self.mask_base}")
        if self.delta_halfwidth < 0:
            raise ValueError(f"delta_halfwidth must be >= 0, got {self.delta_halfwidth}")


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 50
    selection: SelectionKind = SelectionKind.SSS
    crossover: CrossoverKind = CrossoverKind.SCATTERED
    mutation: MutationSpec = field(default_factory=MutationSpec)
    elitism_count: int = 2
    init_range: tuple[float, float] = (-np.pi, np.pi)
    max_generations: int = 20
    target_accuracy: float | None = None
    fitness: CostKind = CostKind.CROSS_ENTROPY
    seed: int = 0
    tournament_size: int = 3
    max_estimates: int | None = None

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError(f"elitism_count must lie in [0, population_size), "
                             f"got {self.elitism_count}")
        if self.init_range[0] >= self.init_range[1]:
            raise ValueError(f"init_range is empty: {self.init_range}")
        if self.max_generations < 0:
            raise ValueError(f"max_generations must be >= 0, got {self.max_generations}")
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            raise ValueError(f"target_accuracy must lie in (0, 1], got {self.target_accuracy}")
        if self.tournament_size < 1:
            raise ValueError(f"tournament_size must be >= 1, got {self.tournament_size}")
        if self.max_estimates is not None and self.max_estimates < 1:
            raise ValueError(f"max_estimates must be >= 1, got {self.max_estimates}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _proportional_weights(fitnesses: np.ndarray) -> np.ndarray:
    """Shift fitnesses to nonnegative weights; all-equal becomes uniform."""
    w = fitnesses - fitnesses.min()
    total = w.sum()
    if total <= 0:
        return np.full(fitnesses.size, 1.0 / fitnesses.size)
    return w / total


def select_parents(population: np.ndarray, fitnesses: np.ndarray, kind: SelectionKind,
                   rng: np.random.Generator, count: int | None = None,
                   tournament_size: int = 3) -> np.ndarray:
    """Indices of `count` parents (default: population size), higher fitness
    preferred.  Steady-state selection draws parents uniformly from the top
    sixth of the population (never fewer than two), so only a few high-fitness
    individuals breed; the elitism and replace-worst parts live in ga_train
    and apply to every scheme."""
    population = np.asarray(population)
    n = population.shape[0]
    if n == 0:
        raise ValueError("population is empty")
    fitnesses = np.asarray(fitnesses, dtype=float)
    if fitnesses.shape != (n,):
        raise ValueError(f"need one fitness per individual, got {fitnesses.shape}")
    if not np.isfinite(fitnesses).all():
        raise ValueError("fitnesses must be finite")
    count = n if count is None else count

    if kind is SelectionKind.SSS:
        k = min(n, max(2, n // 6))
        pool = np.argsort(-fitnesses, kind="stable")[:k]
        return pool[rng.integers(0, k, size=count)]
    if kind is SelectionKind.RWS:
        return rng.choice(n, size=count, p=_proportional_weights(fitnesses))
    if kind is SelectionKind.SUS:
        w = _proportional_weights(fitnesses)
        edges = np.cumsum(w)
        edges[-1] = 1.0  # guard the last pointer against rounding
        step = 1.0 / count
        points = rng.uniform(0.0, step) + step * np.arange(count)
        return np.searchsorted(edges, points, side="right")
    if kind is SelectionKind.RANK:
        order = np.argsort(fitnesses, kind="stable")
        ranks = np.empty(n)
        ranks[order] = np.arange(1, n + 1)
        return rng.choice(n, size=count, p=ranks / ranks.sum())
    if kind is SelectionKind.RANDOM:
        return rng.integers(0, n, size=count)
    if kind is SelectionKind.TOURNAMENT:
        k = min(tournament_size, n)
        picks = np.empty(count, dtype=int)
        for i in range(count):
            contenders = rng.choice(n, size=k, replace=False)
            picks[i] = contenders[np.argmax(fitnesses[contenders])]
        return picks
    raise ValueError(f"unhandled selection kind {kind}")  # pragma: no cover


def crossover(parent_a: np.ndarray, parent_b: np.ndarray, kind: CrossoverKind,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two children by gene-wise swaps; no blending, so position-wise each
    child gene comes verbatim from one parent."""
    a = np.asarray(parent_a, dtype=float)
    b = np.asarray(parent_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"parents must be equal-length vectors, got {a.shape} and {b.shape}")
    n = a.size
    if kind is CrossoverKind.SINGLE_POINT:
        k = int(rng.integers(1, n))
        take_b = np.arange(n) >= k
    elif kind is CrossoverKind.TWO_POINT:
        k1, k2 = np.sort(rng.choice(np.arange(1, n), size=2, replace=False))
        take_b = (np.arange(n) >= k1) & (np.arange(n) < k2)
    elif kind is CrossoverKind.SCATTERED:
        take_b = rng.random(n) < 0.5
    else:  # pragma: no cover
        raise ValueError(f"unhandled crossover kind {kind}")
    child_a = np.where(take_b, b, a)
    child_b = np.where(take_b, a, b)
    return child_a, child_b


def mutate(genes: np.ndarray, t: int, spec: MutationSpec, rng: np.random.Generator,
           init_range: tuple[float, float] = (-np.pi, np.pi)) -> np.ndarray:
    """Mutated copy of a chromosome at generation t.

    Both branches draw the mask and the candidate values unconditionally so
    the generator advances by the same amount whatever the mask comes out as.
    """
    if t < 0:
        raise ValueError(f"generation index must be >= 0, got {t}")
    genes = np.asarray(genes, dtype=float)
    mask = rng.random(genes.size)
    if spec.kind == "fixed":
        redraw = rng.uniform(init_range[0], init_range[1], genes.size)
        return np.where(mask < spec.rate, redraw, genes)
    prob = spec.mask_base ** t
    delta = rng.uniform(-spec.delta_halfwidth, spec.delta_halfwidth, genes.size)
    step = 1.0 if t == 0 else float(t) ** spec.scale
    return genes + (mask < prob) * delta * step


def diversity(population: np.ndarray) -> float:
    """Mean pairwise Euclidean distance across the population.

    Pairs come in scipy pdist order and the squared differences are summed
    one gene at a time, as pdist does, so the value matches
    pdist(population).mean() bit for bit.
    """
    population = np.asarray(population, dtype=float)
    if population.ndim != 2 or population.shape[0] < 2:
        raise ValueError("diversity needs at least two chromosomes")
    i, j = _pair_indices(population.shape[0])
    genes = np.ascontiguousarray(population.T)
    squares = genes.take(i, axis=1)
    squares -= genes.take(j, axis=1)
    squares *= squares
    acc = np.zeros(i.size)
    for row in squares:
        acc += row
    return float(np.sqrt(acc).mean())


@functools.lru_cache(maxsize=8)
def _pair_indices(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs (i < j) in pdist order; a GA asks for the same size each generation."""
    i, j = np.triu_indices(size, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def ga_train(config: GAConfig, spec: CircuitSpec, dataset: Dataset, backend: Backend,
             workers: int = 1, budget: TimeBudget | None = None,
             ) -> tuple[np.ndarray, TrainingTrace]:
    """Evolve a population against the dataset; returns (best theta, trace).

    The trace has one row per generation, generation 0 being the random
    initial population.  Elites are re-evaluated every generation along with
    everyone else, so each generation costs population x dataset estimates.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    costs.check_workers(workers)
    budget = budget if budget is not None else TimeBudget()
    rng = np.random.default_rng(derive_seed(config.seed, "ga"))
    low, high = config.init_range
    pop = rng.uniform(low, high, size=(config.population_size, spec.n_params))
    maximize = not costs.is_loss(config.fitness)

    trace = TrainingTrace()
    best_theta = pop[0].copy()
    best_fitness = -np.inf
    best_accuracy = -np.inf
    best_value = np.nan

    for gen in range(config.max_generations + 1):
        try:
            values, accs = costs.evaluate_many_with_accuracy(
                config.fitness, spec, pop, dataset, backend)
        except Exception as exc:
            raise TrainingError(f"backend failure at generation {gen}: {exc}") from exc
        fitnesses = values if maximize else -values

        gen_best = int(np.argmax(fitnesses))
        if fitnesses[gen_best] > best_fitness:
            best_fitness = float(fitnesses[gen_best])
            best_value = float(values[gen_best])
            best_theta = pop[gen_best].copy()
        best_accuracy = max(best_accuracy, float(accs.max()))

        est, shots = backend.ledger.snapshot()
        trace.append(gen, best_accuracy, best_value, diversity(pop),
                     est, shots, estimate_time(backend.ledger, budget) * 1000.0)

        if config.target_accuracy is not None and best_accuracy >= config.target_accuracy:
            break
        if gen == config.max_generations:
            break
        if config.max_estimates is not None:
            # stop before starting a generation that would overrun the budget
            if est + config.population_size * len(dataset) > config.max_estimates:
                break

        elite_idx = np.argsort(-fitnesses, kind="stable")[:config.elitism_count]
        n_children = config.population_size - config.elitism_count
        parents = select_parents(pop, fitnesses, config.selection, rng,
                                 count=n_children + (n_children % 2),
                                 tournament_size=config.tournament_size)
        children = []
        for j in range(0, parents.size, 2):
            c1, c2 = crossover(pop[parents[j]], pop[parents[j + 1]], config.crossover, rng)
            children.append(c1)
            if len(children) < n_children:
                children.append(c2)
        children = [mutate(c, gen + 1, config.mutation, rng, config.init_range)
                    for c in children]
        pop = np.vstack([pop[elite_idx], np.array(children)])

    return best_theta, trace
