"""Genetic-algorithm operators and the training loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from reupsim import costs
from reupsim.backend import IdealBackend, NoiseModel, NoisyBackend
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
    c1, c2 = crossover(a, b, kind, rng)
    for j in range(a.size):
        assert {c1[j], c2[j]} == {a[j], b[j]}


def test_single_point_crossover_swaps_a_suffix():
    a = np.zeros(8)
    b = np.ones(8)
    c1, _ = crossover(a, b, CrossoverKind.SINGLE_POINT, np.random.default_rng(6))
    flips = np.nonzero(np.diff(c1))[0]
    assert flips.size == 1   # one contiguous boundary


def test_crossover_rejects_mismatched_parents():
    with pytest.raises(ValueError, match="equal-length"):
        crossover(np.zeros(4), np.zeros(5), CrossoverKind.SCATTERED,
                  np.random.default_rng(0))


def test_decaying_mutation_step_at_generation_zero():
    genes = np.zeros(2000)
    spec = MutationSpec(kind="decaying", mask_base=1.0, scale=0.25,
                        delta_halfwidth=0.5)
    out = mutate(genes, 0, spec, np.random.default_rng(7))
    # every gene mutates (mask_base 1.0) and t**scale counts as 1 at t = 0
    assert (out != genes).all()
    assert np.abs(out).max() <= 0.5


def test_decaying_mutation_probability_fades():
    genes = np.zeros(4000)
    spec = MutationSpec(kind="decaying", mask_base=0.9)
    early = (mutate(genes, 1, spec, np.random.default_rng(8)) != 0).mean()
    late = (mutate(genes, 40, spec, np.random.default_rng(8)) != 0).mean()
    assert early == pytest.approx(0.9, abs=0.03)
    assert late == pytest.approx(0.9**40, abs=0.01)


def test_decaying_mutation_rate_and_step_at_generation_four():
    genes = np.zeros(20000)
    spec = MutationSpec(kind="decaying", mask_base=0.95, scale=-0.5,
                        delta_halfwidth=0.5)
    out = mutate(genes, 4, spec, np.random.default_rng(11))
    # per-gene probability 0.95**4 ~ 0.8145; perturbation at most 0.5 * 4**-0.5
    assert (out != 0).mean() == pytest.approx(0.95**4, abs=0.01)
    assert np.abs(out).max() <= 0.25


def test_fixed_mutation_redraws_inside_the_init_range():
    genes = np.full(3000, 50.0)
    spec = MutationSpec(kind="fixed", rate=0.5)
    out = mutate(genes, 3, spec, np.random.default_rng(9), init_range=(-1.0, 1.0))
    changed = out != 50.0
    assert 0.4 < changed.mean() < 0.6
    assert np.abs(out[changed]).max() <= 1.0


def test_mutation_consumes_the_same_draws_regardless_of_the_mask():
    """Two specs with different hit probabilities leave the generator in the
    same state, so downstream randomness cannot depend on mutation outcomes."""
    genes = np.zeros(16)
    rng_a = np.random.default_rng(10)
    rng_b = np.random.default_rng(10)
    mutate(genes, 5, MutationSpec(kind="decaying", mask_base=1.0), rng_a)
    mutate(genes, 5, MutationSpec(kind="decaying", mask_base=0.01), rng_b)
    assert rng_a.random() == rng_b.random()


def test_mutation_spec_validation():
    with pytest.raises(ValueError, match="fixed or decaying"):
        MutationSpec(kind="gaussian")
    with pytest.raises(ValueError, match="mask_base"):
        MutationSpec(mask_base=0.0)
    with pytest.raises(ValueError, match="rate"):
        MutationSpec(rate=1.5)
    with pytest.raises(ValueError, match="generation index"):
        mutate(np.zeros(4), -1, MutationSpec(), np.random.default_rng(0))


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


def _per_chromosome(kind, spec, thetas, ds, backend):
    """Reference: one evaluate_with_accuracy call per chromosome, in order."""
    pairs = [costs.evaluate_with_accuracy(kind, spec, theta, ds, backend)
             for theta in thetas]
    return np.array([v for v, _ in pairs]), np.array([a for _, a in pairs])


@pytest.mark.parametrize("fitness", [CostKind.CROSS_ENTROPY, CostKind.ACCURACY])
def test_batched_generations_equal_a_per_chromosome_loop(monkeypatch, fitness):
    cfg = GAConfig(population_size=9, max_generations=4, seed=6, fitness=fitness)
    spec = CircuitSpec()
    ds = generate(25, seed=6)
    runs = []
    for evaluate in (costs.evaluate_many_with_accuracy, _per_chromosome):
        monkeypatch.setattr(costs, "evaluate_many_with_accuracy", evaluate)
        backend = NoisyBackend(NoiseModel(seed=2))
        theta, trace = ga_train(cfg, spec, ds, backend)
        runs.append((theta, trace.rows, backend.ledger.snapshot()))
    (theta_a, rows_a, ledger_a), (theta_b, rows_b, ledger_b) = runs
    np.testing.assert_array_equal(theta_a, theta_b)
    assert rows_a == rows_b
    assert ledger_a == ledger_b == (5 * 9 * 25, 5 * 9 * 25 * 150)


def test_ga_train_best_loss_never_worsens():
    cfg = GAConfig(population_size=10, max_generations=8, seed=1)
    _, trace = ga_train(cfg, CircuitSpec(), generate(40, seed=1), IdealBackend())
    losses = trace.losses()
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
    accs = trace.accuracies()
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


def test_ga_train_maximizes_accuracy_fitness():
    cfg = GAConfig(population_size=8, max_generations=5, seed=4,
                   fitness=CostKind.ACCURACY)
    _, trace = ga_train(cfg, CircuitSpec(), generate(30, seed=4), IdealBackend())
    assert trace.final.best_loss == trace.final.best_accuracy


def test_ga_train_wraps_backend_failures():
    class ExplodingBackend(IdealBackend):
        def sample(self, p_y, y):
            raise RuntimeError("detector offline")

    cfg = GAConfig(population_size=4, max_generations=2, seed=0)
    with pytest.raises(TrainingError, match="generation 0"):
        ga_train(cfg, CircuitSpec(), generate(10, seed=0), ExplodingBackend())


def test_ga_train_validates_the_worker_count():
    with pytest.raises(ValueError, match="workers"):
        ga_train(GAConfig(population_size=4, max_generations=1), CircuitSpec(),
                 generate(10, seed=0), IdealBackend(), workers=0)


def test_ga_config_validation():
    with pytest.raises(ValueError, match="population_size"):
        GAConfig(population_size=1)
    with pytest.raises(ValueError, match="elitism_count"):
        GAConfig(population_size=4, elitism_count=4)
    with pytest.raises(ValueError, match="init_range"):
        GAConfig(init_range=(1.0, 1.0))
    with pytest.raises(ValueError, match="target_accuracy"):
        GAConfig(target_accuracy=1.5)
    assert SelectionKind.parse("rws") is SelectionKind.RWS
    with pytest.raises(ValueError, match="unknown selection"):
        SelectionKind.parse("elite")
    with pytest.raises(ValueError, match="unknown crossover"):
        CrossoverKind.parse("blend")
