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

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import costs
from .backend import Backend
from .circuits import Choice, CircuitSpec
from .costs import CostKind
from .data import Dataset
from .seeding import derive_seed
from .trace import RunLimits, TrainingTrace, backend_failures, reject_unread


class SelectionKind(Choice, noun="selection"):
    SSS = "sss"
    RWS = "rws"
    SUS = "sus"
    RANK = "rank"
    RANDOM = "random"
    TOURNAMENT = "tournament"


class CrossoverKind(Choice, noun="crossover"):
    SINGLE_POINT = "single_point"
    TWO_POINT = "two_point"
    SCATTERED = "scattered"


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
        reject_unread(self, dict.fromkeys(("mask_base", "scale", "delta_halfwidth")
                                          if self.kind == "fixed" else ("rate",),
                                          f"{self.kind} mutation"))


@dataclass(frozen=True)
class GAConfig(RunLimits):
    population_size: int = 50
    selection: SelectionKind = SelectionKind.SSS
    crossover: CrossoverKind = CrossoverKind.SCATTERED
    mutation: MutationSpec = field(default_factory=MutationSpec)
    elitism_count: int = 2
    max_generations: int = 20
    fitness: CostKind = CostKind.CROSS_ENTROPY
    tournament_size: int = 3

    def __post_init__(self):
        super().__post_init__()
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError(f"elitism_count must lie in [0, population_size), "
                             f"got {self.elitism_count}")
        if self.max_generations < 0:
            raise ValueError(f"max_generations must be >= 0, got {self.max_generations}")
        if self.tournament_size < 1:
            raise ValueError(f"tournament_size must be >= 1, got {self.tournament_size}")
        if self.selection is not SelectionKind.TOURNAMENT:
            reject_unread(self, {"tournament_size": f"{self.selection.value} selection"})


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


def crossover(parents_a: np.ndarray, parents_b: np.ndarray, kind: CrossoverKind,
              rng: np.random.Generator) -> np.ndarray:
    """Children of the pairs (parents_a[i], parents_b[i]) as one (2 pairs, d)
    array, rows 2i and 2i + 1 from pair i, by gene-wise swaps with no blending.
    Each kind draws what one call per pair drew; two-point still draws per pair."""
    a, b = np.asarray(parents_a, dtype=float), np.asarray(parents_b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"parents must be two (pairs, d) arrays of one shape, "
                         f"got {a.shape} and {b.shape}")
    (pairs, n), genes = a.shape, np.arange(a.shape[1])
    if kind is CrossoverKind.SINGLE_POINT:
        take_b = genes >= rng.integers(1, n, size=(pairs, 1))
    elif kind is CrossoverKind.TWO_POINT:
        cuts = np.sort([rng.choice(np.arange(1, n), size=2, replace=False)
                        for _ in range(pairs)]).reshape(pairs, 2)
        take_b = (genes >= cuts[:, :1]) & (genes < cuts[:, 1:])
    elif kind is CrossoverKind.SCATTERED:
        take_b = rng.random((pairs, n)) < 0.5
    else:  # pragma: no cover
        raise ValueError(f"unhandled crossover kind {kind}")
    return np.stack([np.where(take_b, b, a), np.where(take_b, a, b)], axis=1).reshape(-1, n)


def mutate(children: np.ndarray, t: int, spec: MutationSpec, rng: np.random.Generator,
           init_range: tuple[float, float] = (-np.pi, np.pi)) -> np.ndarray:
    """Mutated copies of a generation's children (one per row) at generation t.

    Each child draws its mask and then its candidate values, whatever the
    mask comes out as, so the generator always advances by the same amount.
    One rng.random((C, 2, d)) call yields the stream that per-child
    random(d) and uniform(low, high, d) calls would, and low + (high - low) * r
    is what uniform computes from each draw r.
    """
    if t < 0:
        raise ValueError(f"generation index must be >= 0, got {t}")
    children = np.asarray(children, dtype=float)
    draws = rng.random((children.shape[0], 2, children.shape[1]))
    mask, r = draws[:, 0], draws[:, 1]
    if spec.kind == "fixed":
        low, high = init_range
        return np.where(mask < spec.rate, low + (high - low) * r, children)
    prob = spec.mask_base ** t
    low, high = -spec.delta_halfwidth, spec.delta_halfwidth
    step = 1.0 if t == 0 else float(t) ** spec.scale
    return children + (mask < prob) * (low + (high - low) * r) * step


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


def ga_train(config: GAConfig, spec: CircuitSpec, dataset: Dataset,
             backend: Backend) -> tuple[np.ndarray, TrainingTrace]:
    """Evolve a population against the dataset; returns (best theta, trace).

    The trace has one row per generation, generation 0 being the random
    initial population.  The ledger charges population x dataset estimates
    every generation, elites and repeated chromosomes included, but the
    kernel runs once per distinct chromosome.  The trace ends the run at the
    target accuracy, after max_generations, or when `max_estimates` cannot
    pay for the next generation; a budget below one generation raises
    BudgetError before anything is charged.
    """
    n = len(dataset)
    generation = config.population_size * n
    trace = TrainingTrace.start(config, config.max_generations, backend.ledger, generation,
                                f"one generation: {config.population_size} chromosomes "
                                f"x {n} points")
    rng = np.random.default_rng(derive_seed(config.seed, "ga"))
    low, high = config.init_range
    pop = rng.uniform(low, high, size=(config.population_size, spec.n_params))
    maximize = not costs.is_loss(config.fitness)

    for gen in itertools.count():
        with backend_failures(f"generation {gen}"):
            measured = costs.measured_groups(spec, [(pop, dataset, None)], backend)[0]
        values, accs = costs.row_values(config.fitness, measured), costs.row_accuracies(measured)
        fitnesses = values if maximize else -values
        if trace.record(gen, pop, values, accs, generation, diversity(pop), maximize):
            break

        elite_idx = np.argsort(-fitnesses, kind="stable")[:config.elitism_count]
        n_children = config.population_size - config.elitism_count
        parents = select_parents(pop, fitnesses, config.selection, rng,
                                 count=n_children + (n_children % 2),
                                 tournament_size=config.tournament_size)
        children = crossover(pop[parents[0::2]], pop[parents[1::2]], config.crossover, rng)
        children = mutate(children[:n_children], gen + 1, config.mutation, rng, config.init_range)
        pop = np.vstack([pop[elite_idx], children])

    return trace.best_theta, trace
