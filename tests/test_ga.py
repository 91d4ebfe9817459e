"""Genetic-algorithm operators and the training loop."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from reupsim import circuits, costs
from reupsim.backend import BudgetError, IdealBackend, NoiseModel, NoisyBackend
from reupsim.circuits import CircuitSpec
from reupsim.costs import CostKind
from reupsim.data import generate
from reupsim.ga import (CrossoverKind, GAConfig, MutationSpec, SelectionKind,
                        crossover, diversity, ga_train, mutate, select_parents)
from reupsim.trace import TrainingError

# two-point crossover needs at least two interior cut positions
GENES = st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=24)


def test_sss_breeds_only_from_the_top_slice():
    rng = np.random.default_rng(0)
    pop = np.zeros((12, 4))
    fitnesses = np.arange(12.0)        # 11 and 10 are the top sixth
    picks = select_parents(pop, fitnesses, SelectionKind.SSS, rng, count=200)
    assert set(picks) <= {10, 11}
    assert len(picks) == 200


def test_rws_prefers_fitter_individuals():
    rng = np.random.default_rng(1)
    pop = np.zeros((3, 2))
    picks = select_parents(pop, np.array([0.0, 0.0, 10.0]), SelectionKind.RWS,
                           rng, count=500)
    assert np.mean(picks == 2) > 0.95


def test_rws_flat_fitness_becomes_uniform():
    rng = np.random.default_rng(2)
    pop = np.zeros((4, 2))
    picks = select_parents(pop, np.full(4, 3.3), SelectionKind.RWS, rng, count=4000)
    counts = np.bincount(picks, minlength=4)
    assert counts.min() > 800


def test_sus_spreads_picks_evenly_for_flat_weights():
    rng = np.random.default_rng(3)
    pop = np.zeros((4, 2))
    picks = select_parents(pop, np.full(4, 1.0), SelectionKind.SUS, rng, count=4)
    assert sorted(picks) == [0, 1, 2, 3]


def test_random_selection_draws_uniform_indices_ignoring_fitness():
    pop = np.zeros((7, 2))
    picks = select_parents(pop, np.arange(7.0), SelectionKind.RANDOM,
                           np.random.default_rng(5), count=40)
    np.testing.assert_array_equal(picks, np.random.default_rng(5).integers(0, 7, 40))


def test_tournament_and_rank_prefer_high_fitness():
    rng = np.random.default_rng(4)
    pop = np.zeros((6, 2))
    fitnesses = np.arange(6.0)
    for kind in (SelectionKind.TOURNAMENT, SelectionKind.RANK):
        picks = select_parents(pop, fitnesses, kind, rng, count=600)
        assert picks.mean() > 2.5


def test_select_parents_validation():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="empty"):
        select_parents(np.empty((0, 4)), np.empty(0), SelectionKind.SSS, rng)
    with pytest.raises(ValueError, match="one fitness"):
        select_parents(np.zeros((3, 4)), np.zeros(2), SelectionKind.SSS, rng)
    with pytest.raises(ValueError, match="finite"):
        select_parents(np.zeros((2, 4)), np.array([np.nan, 1.0]),
                       SelectionKind.SSS, rng)


@given(GENES, st.integers(0, 2**32 - 1),
       st.sampled_from(list(CrossoverKind)))
@settings(max_examples=60, deadline=None)
def test_crossover_children_take_each_gene_from_a_parent(genes, seed, kind):
    a = np.array(genes)
    b = a + 100.0
    rng = np.random.default_rng(seed)
    c1, c2 = crossover(a[None], b[None], kind, rng)
    for j in range(a.size):
        assert {c1[j], c2[j]} == {a[j], b[j]}


def test_single_point_crossover_swaps_a_suffix():
    a = np.zeros(8)
    b = np.ones(8)
    c1, _ = crossover(a[None], b[None], CrossoverKind.SINGLE_POINT, np.random.default_rng(6))
    flips = np.nonzero(np.diff(c1))[0]
    assert flips.size == 1   # one contiguous boundary


def test_crossover_rejects_mismatched_parents():
    for a, b in ((np.zeros((1, 4)), np.zeros((1, 5))), (np.zeros((2, 4)), np.zeros((1, 4))),
                 (np.zeros(4), np.zeros(4))):
        with pytest.raises(ValueError, match="one shape"):
            crossover(a, b, CrossoverKind.SCATTERED, np.random.default_rng(0))


def _crossover_one_pair(a, b, kind, rng):
    """Reference: the two children of one parent pair, one draw per pair."""
    n = a.size
    if kind is CrossoverKind.SINGLE_POINT:
        take_b = np.arange(n) >= int(rng.integers(1, n))
    elif kind is CrossoverKind.TWO_POINT:
        k1, k2 = np.sort(rng.choice(np.arange(1, n), size=2, replace=False))
        take_b = (np.arange(n) >= k1) & (np.arange(n) < k2)
    else:
        take_b = rng.random(n) < 0.5
    return np.where(take_b, b, a), np.where(take_b, a, b)


@pytest.mark.parametrize("kind", list(CrossoverKind))
def test_batched_crossover_equals_one_call_per_pair(kind):
    """Rows 2i and 2i + 1 are pair i's children from a per-pair loop, bit for
    bit, and the generator is left where that loop leaves it."""
    for pairs, seed in itertools.product(range(1, 26), range(50)):
        genes = np.random.default_rng([pairs, seed]).uniform(-5, 5, (2, pairs, 3 + seed % 14))
        batched_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        children = crossover(genes[0], genes[1], kind, batched_rng)
        loop = [child for a, b in zip(*genes)
                for child in _crossover_one_pair(a, b, kind, loop_rng)]
        assert children.shape == (2 * pairs, genes.shape[2])
        np.testing.assert_array_equal(children, loop)
        assert batched_rng.random() == loop_rng.random()


def test_decaying_mutation_step_at_generation_zero():
    genes = np.zeros((100, 20))
    spec = MutationSpec(kind="decaying", mask_base=1.0, scale=0.25,
                        delta_halfwidth=0.5)
    out = mutate(genes, 0, spec, np.random.default_rng(7))
    # every gene mutates (mask_base 1.0) and t**scale counts as 1 at t = 0
    assert (out != genes).all()
    assert np.abs(out).max() <= 0.5


def test_decaying_mutation_probability_fades():
    genes = np.zeros((200, 20))
    spec = MutationSpec(kind="decaying", mask_base=0.9)
    early = (mutate(genes, 1, spec, np.random.default_rng(8)) != 0).mean()
    late = (mutate(genes, 40, spec, np.random.default_rng(8)) != 0).mean()
    assert early == pytest.approx(0.9, abs=0.03)
    assert late == pytest.approx(0.9**40, abs=0.01)


def test_decaying_mutation_rate_and_step_at_generation_four():
    genes = np.zeros((1000, 20))
    spec = MutationSpec(kind="decaying", mask_base=0.95, scale=-0.5,
                        delta_halfwidth=0.5)
    out = mutate(genes, 4, spec, np.random.default_rng(11))
    # per-gene probability 0.95**4 ~ 0.8145; perturbation at most 0.5 * 4**-0.5
    assert (out != 0).mean() == pytest.approx(0.95**4, abs=0.01)
    assert np.abs(out).max() <= 0.25


def test_fixed_mutation_redraws_inside_the_init_range():
    genes = np.full((150, 20), 50.0)
    spec = MutationSpec(kind="fixed", rate=0.5)
    out = mutate(genes, 3, spec, np.random.default_rng(9), init_range=(-1.0, 1.0))
    changed = out != 50.0
    assert 0.4 < changed.mean() < 0.6
    assert np.abs(out[changed]).max() <= 1.0


def test_mutation_consumes_the_same_draws_regardless_of_the_mask():
    """Two specs with different hit probabilities leave the generator in the
    same state, so downstream randomness cannot depend on mutation outcomes."""
    genes = np.zeros((8, 16))
    rng_a = np.random.default_rng(10)
    rng_b = np.random.default_rng(10)
    mutate(genes, 5, MutationSpec(kind="decaying", mask_base=1.0), rng_a)
    mutate(genes, 5, MutationSpec(kind="decaying", mask_base=0.01), rng_b)
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("kind", ["fixed", "decaying"])
def test_mutating_a_generation_matches_child_by_child_draws(kind):
    """One call over the (C, d) children gives, bit for bit, what mutating each
    child in row order with its own random(d) and uniform(low, high, d) draws
    gives, and leaves the generator in the same state."""
    spec = MutationSpec(kind=kind, rate=0.3) if kind == "fixed" else MutationSpec(kind=kind)
    children = np.random.default_rng(1).uniform(-3.0, 3.0, (48, 16))
    rng_ref, rng = np.random.default_rng(5), np.random.default_rng(5)
    expected = []
    for c in children:
        mask = rng_ref.random(c.size)
        if kind == "fixed":
            redraw = rng_ref.uniform(-1.0, 2.0, c.size)
            expected.append(np.where(mask < spec.rate, redraw, c))
        else:
            delta = rng_ref.uniform(-spec.delta_halfwidth, spec.delta_halfwidth, c.size)
            expected.append(c + (mask < spec.mask_base**7) * delta * 7.0**spec.scale)
    out = mutate(children, 7, spec, rng, init_range=(-1.0, 2.0))
    np.testing.assert_array_equal(out, np.array(expected))
    assert rng.random() == rng_ref.random()


def test_mutation_spec_validation():
    with pytest.raises(ValueError, match="fixed or decaying"):
        MutationSpec(kind="gaussian")
    with pytest.raises(ValueError, match="mask_base"):
        MutationSpec(mask_base=0.0)
    with pytest.raises(ValueError, match="rate"):
        MutationSpec(rate=1.5)
    with pytest.raises(ValueError, match="generation index"):
        mutate(np.zeros((1, 4)), -1, MutationSpec(), np.random.default_rng(0))


def test_diversity_is_mean_pairwise_distance():
    pop = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert diversity(pop) == pytest.approx(5.0)
    with pytest.raises(ValueError, match="two chromosomes"):
        diversity(pop[:1])


@given(st.integers(2, 80), st.integers(1, 40), st.sampled_from([1e-3, 1.0, 1e3]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_diversity_equals_pdist_bit_for_bit(size, genes, scale, seed):
    """The trace writes diversity with repr, so it must match pdist exactly."""
    pop = np.random.default_rng(seed).normal(size=(size, genes)) * scale
    assert diversity(pop) == float(pdist(pop).mean())


def test_ga_train_is_deterministic_and_traces_every_generation():
    cfg = GAConfig(population_size=8, max_generations=6, seed=3)
    spec = CircuitSpec()
    ds = generate(30, seed=3)
    theta_a, trace_a = ga_train(cfg, spec, ds, IdealBackend())
    theta_b, trace_b = ga_train(cfg, spec, ds, IdealBackend())
    np.testing.assert_array_equal(theta_a, theta_b)
    assert len(trace_a) == 7
    assert [r.best_loss for r in trace_a.rows] == [r.best_loss for r in trace_b.rows]
    # generation 0 is the initial population, each generation costs pop * points
    assert trace_a.rows[0].cum_estimates == 8 * 30
    assert trace_a.final.cum_estimates == 7 * 8 * 30


def _per_chromosome(spec, groups, backend, charged=None):
    """Reference: one measured_values call per chromosome, in order."""
    return [np.array([costs.measured_values(spec, theta, ds, backend) for theta in thetas])
            for thetas, ds, _ in groups]


@pytest.mark.parametrize("fitness", [CostKind.CROSS_ENTROPY, CostKind.ACCURACY])
def test_batched_generations_equal_a_per_chromosome_loop(monkeypatch, fitness):
    cfg = GAConfig(population_size=9, max_generations=4, seed=6, fitness=fitness)
    spec = CircuitSpec()
    ds = generate(25, seed=6)
    runs = []
    for measure in (costs.measured_groups, _per_chromosome):
        monkeypatch.setattr(costs, "measured_groups", measure)
        backend = NoisyBackend(NoiseModel(seed=2))
        theta, trace = ga_train(cfg, spec, ds, backend)
        runs.append((theta, trace.rows, backend.ledger.snapshot()))
    (theta_a, rows_a, ledger_a), (theta_b, rows_b, ledger_b) = runs
    np.testing.assert_array_equal(theta_a, theta_b)
    assert rows_a == rows_b
    assert ledger_a == ledger_b == (5 * 9 * 25, 5 * 9 * 25 * 150)


@pytest.mark.parametrize("noisy", [False, True])
def test_repeated_chromosomes_in_a_run_equal_a_per_chromosome_loop(monkeypatch, noisy):
    """With mask_base 0.05 many children go unmutated, and steady-state
    selection breeds from the top two, so populations repeat chromosomes
    (elites, and children of a parent crossed with itself); the kernel skips
    the repeats and nothing else changes."""
    cfg = GAConfig(population_size=9, max_generations=4, seed=6,
                   mutation=MutationSpec(mask_base=0.05))
    spec = CircuitSpec()
    ds = generate(25, seed=6)
    columns = []

    def spy(phi_y, phi_z, states=False):
        columns.append(phi_y.shape[1])
        return evolve(phi_y, phi_z, states)

    evolve = circuits._evolve
    monkeypatch.setattr(circuits, "_evolve", spy)
    runs = []
    for measure in (costs.measured_groups, _per_chromosome):
        monkeypatch.setattr(costs, "measured_groups", measure)
        backend = NoisyBackend(NoiseModel(seed=2)) if noisy else IdealBackend()
        theta, trace = ga_train(cfg, spec, ds, backend)
        runs.append((theta, trace.rows, backend.ledger.snapshot()))
    (theta_a, rows_a, ledger_a), (theta_b, rows_b, ledger_b) = runs
    np.testing.assert_array_equal(theta_a, theta_b)
    assert rows_a == rows_b
    assert ledger_a == ledger_b == (5 * 9 * 25, 5 * 9 * 25 * 150)
    assert len(columns) == 5 + 5 * 9 and columns[5:] == [25] * (5 * 9)
    assert columns[0] == 9 * 25 and sum(columns[:5]) < 5 * 9 * 25


def test_ga_train_best_loss_never_worsens():
    cfg = GAConfig(population_size=10, max_generations=8, seed=1)
    _, trace = ga_train(cfg, CircuitSpec(), generate(40, seed=1), IdealBackend())
    losses = [r.best_loss for r in trace.rows]
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
    accs = [r.best_accuracy for r in trace.rows]
    assert all(b >= a for a, b in zip(accs, accs[1:]))


def test_ga_train_stops_at_the_accuracy_target():
    cfg = GAConfig(population_size=10, max_generations=50, seed=2,
                   target_accuracy=0.6)
    _, trace = ga_train(cfg, CircuitSpec(), generate(40, seed=2), IdealBackend())
    assert trace.final.best_accuracy >= 0.6
    assert trace.final.iteration < 50


def test_ga_train_respects_the_estimate_budget():
    budget = 10 * 40 * 3   # three generations' worth
    cfg = GAConfig(population_size=10, max_generations=50, seed=2,
                   max_estimates=budget)
    _, trace = ga_train(cfg, CircuitSpec(), generate(40, seed=2), IdealBackend())
    assert trace.final.cum_estimates <= budget


@given(st.integers(2, 12), st.integers(1, 30), st.integers(1, 3000), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_ga_train_never_charges_more_than_the_budget(population, points, budget,
                                                     generations):
    cfg = GAConfig(population_size=population, elitism_count=1, max_generations=generations,
                   seed=budget, max_estimates=budget)
    backend = IdealBackend()
    ds = generate(points, seed=points)
    if budget < population * points:
        with pytest.raises(ValueError, match="max_estimates"):
            ga_train(cfg, CircuitSpec(layers=1), ds, backend)
        assert backend.ledger.snapshot() == (0, 0)
        return
    _, trace = ga_train(cfg, CircuitSpec(layers=1), ds, backend)
    assert backend.ledger.total_estimates == trace.final.cum_estimates <= budget
    # the run stops only at the last generation or when the next one would overrun
    assert (trace.final.iteration == generations
            or trace.final.cum_estimates + population * points > budget)


def test_a_budget_below_one_generation_is_rejected():
    ds, backend = generate(250, seed=1), IdealBackend()
    cfg = GAConfig(population_size=50, max_estimates=1000, max_generations=0)
    with pytest.raises(BudgetError, match="max_estimates=1000 is below one generation: "
                                          "50 chromosomes x 250 points = 12500 estimates"):
        ga_train(cfg, CircuitSpec(layers=1), ds, backend)
    assert backend.ledger.snapshot() == (0, 0)
    for limit in (12500, None):
        cfg = GAConfig(population_size=50, max_estimates=limit, max_generations=0)
        _, trace = ga_train(cfg, CircuitSpec(layers=1), ds, IdealBackend())
        assert trace.final.cum_estimates == 12500


def test_ga_train_maximizes_accuracy_fitness():
    cfg = GAConfig(population_size=8, max_generations=5, seed=4,
                   fitness=CostKind.ACCURACY)
    _, trace = ga_train(cfg, CircuitSpec(), generate(30, seed=4), IdealBackend())
    assert trace.final.best_loss == trace.final.best_accuracy


def test_ga_train_wraps_backend_failures():
    class ExplodingBackend(IdealBackend):
        def sample(self, p_y, y, charged=None):
            raise RuntimeError("detector offline")

    cfg = GAConfig(population_size=4, max_generations=2, seed=0)
    with pytest.raises(TrainingError, match="generation 0"):
        ga_train(cfg, CircuitSpec(), generate(10, seed=0), ExplodingBackend())


def test_ga_config_validation():
    with pytest.raises(ValueError, match="population_size"):
        GAConfig(population_size=1)
    with pytest.raises(ValueError, match="elitism_count"):
        GAConfig(population_size=4, elitism_count=4)
    with pytest.raises(ValueError, match="init_range"):
        GAConfig(init_range=(1.0, 1.0))
    with pytest.raises(ValueError, match="target_accuracy"):
        GAConfig(target_accuracy=1.5)
