"""Full-pipeline acceptance checks.

Each test prints one `criterion NN PASS/FAIL: ...` line (run with `pytest -s`
to see them) and then asserts.  The criteria pin the headline numbers of the
whole package: circuit probabilities, gradient agreement, optimizer behavior
on ideal and noisy backends, mitigation statistics, shot-noise scaling,
determinism, and the modeled hardware time.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from reupsim import cli, costs
from reupsim.backend import (IdealBackend, MeasurementLedger, NoiseModel, NoisyBackend,
                             estimate_time)
from reupsim.circuits import Ansatz, CircuitSpec, evaluate_circuit
from reupsim.costs import CostKind
from reupsim.data import DEFAULT_BOUNDARY, Dataset, generate, generate_splits
from reupsim.ga import GAConfig, ga_train
from reupsim.mitigation import (calibrate, noise_scaling, observation_pairs,
                                residual_analysis)
from reupsim.seeding import derive_seed
from reupsim.trainers import (GradConfig, GradMethod, LineSearchSpec,
                              OptimizerKind, bfgs_train, estimate_gradient,
                              sgd_train)

# A fixed, pre-trained reference parameter vector for the default 4-layer
# circuit.  Several criteria probe the loss surface at exactly this point.
THETA_REF = np.array([0.1532, 0.5374, 2.3999, -0.8025, 0.3855, 3.6122,
                      1.299, 0.1235, 1.3819, 3.3182, -2.4787, 5.4758,
                      -1.4164, 4.7989, 0.5262, 4.4542])

SPEC = CircuitSpec(Ansatz.A2C, 4)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def train250():
    train, _ = generate_splits(0)
    return train


@pytest.fixture(scope="module")
def ga_pop50(train250):
    """Five pop-50 runs on the ideal backend, shared by criteria 4-6."""
    t0 = time.perf_counter()
    runs = [ga_train(GAConfig(seed=seed), SPEC, train250, IdealBackend())
            for seed in range(5)]
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_criterion_01_circuit_reference_probability():
    x = np.array([0.0976, 0.4304])
    p1 = float(evaluate_circuit(SPEC, THETA_REF, x)[1])
    for _ in range(50):
        evaluate_circuit(SPEC, THETA_REF, x)
    t0 = time.perf_counter()
    for _ in range(200):
        evaluate_circuit(SPEC, THETA_REF, x)
    per_call_ms = (time.perf_counter() - t0) / 200 * 1e3
    ok = abs(p1 - 0.337) <= 0.001 and per_call_ms < 1.0
    _report(1, ok, f"p1 = {p1:.6f} (target 0.337 +/- 0.001), "
                   f"{per_call_ms:.3f} ms per evaluation (limit 1 ms)")


def test_criterion_02_gradient_estimator_agreement():
    backend = IdealBackend()
    rng = np.random.default_rng(derive_seed(0, "gradient-instances"))
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(-np.pi, np.pi, SPEC.n_params)
        x = rng.uniform(-1.0, 1.0, (1, 2))
        ds = Dataset(x=x, y=DEFAULT_BOUNDARY.classify(x))
        for kind in (CostKind.CROSS_ENTROPY, CostKind.CHI_SQUARED):
            g_an = estimate_gradient(GradMethod.ANALYTIC, kind, SPEC, theta,
                                     ds, backend)
            g_ps = estimate_gradient(GradMethod.PARAMETER_SHIFT, kind, SPEC,
                                     theta, ds, backend)
            g_fd = estimate_gradient(GradMethod.FINITE_DIFFERENCE, kind, SPEC,
                                     theta, ds, backend, step=1e-6)
            worst = max(worst, np.abs(g_an - g_ps).max(),
                        np.abs(g_an - g_fd).max(), np.abs(g_ps - g_fd).max())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _report(2, ok, f"max estimator disagreement {worst:.2e} over 1000 instances "
                   f"(limit 1e-6), {elapsed:.1f} s (limit 10 s)")


def test_criterion_03_vanishing_costs_changes_at_the_reference_point(train250):
    backend = IdealBackend()
    h = 0.01

    def value(kind, theta):
        return costs.evaluate(kind, SPEC, theta, train250, backend)

    t0 = time.perf_counter()
    changes = {}
    for kind in (CostKind.CROSS_ENTROPY, CostKind.CHI_SQUARED, CostKind.ACCURACY):
        f0 = value(kind, THETA_REF)
        deltas = []
        for j in range(SPEC.n_params):
            theta = THETA_REF.copy()
            theta[j] += h
            deltas.append(value(kind, theta) - f0)
        changes[kind] = np.abs(deltas).max()
    elapsed = time.perf_counter() - t0
    ce, chi = changes[CostKind.CROSS_ENTROPY], changes[CostKind.CHI_SQUARED]
    acc = changes[CostKind.ACCURACY]
    ok = ce < 0.006 and chi < 0.006 and acc == 0.0 and elapsed < 5.0
    _report(3, ok, f"step-0.01 cost changes: cross-entropy {ce:.6f}, "
                   f"chi-squared {chi:.6f} (limit 0.006), accuracy {acc} "
                   f"(must be exactly 0), {elapsed:.1f} s (limit 5 s)")


def test_criterion_04_population_50_training_accuracy(ga_pop50):
    finals = [run[1].final.best_accuracy for run in ga_pop50["runs"]]
    median = float(np.median(finals))
    elapsed = ga_pop50["elapsed"]
    ok = median >= 0.90 and elapsed < 300.0
    _report(4, ok, f"pop-50 median best accuracy {median:.3f} over 5 seeds "
                   f"(need >= 0.90 within 20 generations), {elapsed:.0f} s "
                   f"(limit 300 s)")


def test_criterion_05_small_populations_underperform(train250, ga_pop50):
    median50 = float(np.median([r[1].final.best_accuracy
                                for r in ga_pop50["runs"]]))
    t0 = time.perf_counter()
    medians = {}
    for pop in (9, 10):
        finals = [ga_train(GAConfig(population_size=pop, seed=seed), SPEC,
                           train250, IdealBackend())[1].final.best_accuracy
                  for seed in range(5)]
        medians[pop] = float(np.median(finals))
    elapsed = time.perf_counter() - t0
    ok = (medians[9] < median50 and medians[10] < median50 and elapsed < 300.0)
    _report(5, ok, f"pop-9 median {medians[9]:.3f} and pop-10 median "
                   f"{medians[10]:.3f} both below pop-50 median {median50:.3f} "
                   f"at the same generation budget, {elapsed:.0f} s (limit 300 s)")


def test_criterion_06_bfgs_matches_ga_and_plain_descent_lags(train250, ga_pop50):
    budget = 21 * 50 * 250  # the pop-50 runs' total estimate count
    ga_median = float(np.median([r[1].final.best_accuracy
                                 for r in ga_pop50["runs"]]))

    def reach_85(trace):
        for row in trace.rows:
            if row.best_accuracy >= 0.85:
                return row.cum_estimates
        return float("inf")

    t0 = time.perf_counter()
    bfgs_finals, bfgs_reach, gd_reach = [], [], []
    for seed in range(5):
        cfg = GradConfig(method=OptimizerKind.BFGS_STANDARD,
                         gradient=GradMethod.ANALYTIC, max_iterations=10_000,
                         max_estimates=budget, seed=seed)
        _, trace = bfgs_train(cfg, SPEC, train250, IdealBackend())
        bfgs_finals.append(trace.final.best_accuracy)
        bfgs_reach.append(reach_85(trace))
        cfg = replace(cfg, method=OptimizerKind.GRADIENT_DESCENT)
        _, trace = sgd_train(cfg, SPEC, train250, IdealBackend())
        gd_reach.append(reach_85(trace))
    elapsed = time.perf_counter() - t0
    bfgs_median = float(np.median(bfgs_finals))
    bfgs_cost = float(np.median(bfgs_reach))
    gd_cost = float(np.median(gd_reach))
    ok = (abs(bfgs_median - ga_median) <= 0.03 and gd_cost > bfgs_cost
          and elapsed < 600.0)
    _report(6, ok, f"BFGS median {bfgs_median:.3f} vs GA median {ga_median:.3f} "
                   f"(within 3 points), median estimates to 85%: BFGS "
                   f"{bfgs_cost:.0f} vs plain descent {gd_cost}, {elapsed:.0f} s "
                   f"(limit 600 s)")


def test_criterion_07_noisy_finite_differences_stall_but_ga_recovers(train250):
    t0 = time.perf_counter()
    plateaued = 0
    for seed in range(5):
        cfg = GradConfig(method=OptimizerKind.BFGS_STANDARD,
                         gradient=GradMethod.FINITE_DIFFERENCE, step=0.5,
                         max_iterations=25, seed=seed,
                         line_search=LineSearchSpec(kind="wolfe"))
        backend = NoisyBackend(NoiseModel(shots=150, seed=2000 + seed))
        _, trace = bfgs_train(cfg, SPEC, train250, backend)
        accs = [r.best_accuracy for r in trace.rows]
        improvement = accs[-1] - accs[min(6, len(accs) - 1)]
        plateaued += improvement <= 0.02
    ga_finals = []
    for seed in range(5):
        backend = NoisyBackend(NoiseModel(shots=150, seed=2000 + seed))
        _, trace = ga_train(GAConfig(seed=seed), SPEC, train250, backend)
        ga_finals.append(trace.final.best_accuracy)
    elapsed = time.perf_counter() - t0
    ga_median = float(np.median(ga_finals))
    ok = plateaued >= 3 and ga_median >= 0.88 and elapsed < 900.0
    _report(7, ok, f"finite-difference BFGS gained <= 2 points after iteration 6 "
                   f"in {plateaued}/5 noisy seeds (need >= 3); GA on the same "
                   f"backends reached median {ga_median:.3f} (need >= 0.88), "
                   f"{elapsed:.0f} s (limit 900 s)")


def test_criterion_08_confusion_mitigation_restores_the_regression():
    t0 = time.perf_counter()
    ds = generate(250, seed=derive_seed(0, "analyze/residuals/data"))
    noise = NoiseModel(shots=500, residual_sigma=0.006,
                       seed=derive_seed(0, "analyze/residuals/backend"))
    backend = NoisyBackend(noise)
    cal_backend = NoisyBackend(replace(
        noise, seed=derive_seed(0, "analyze/residuals/cal")))
    cal = calibrate(cal_backend, SPEC, shots=20_000)
    pairs = observation_pairs(SPEC, ds, backend, theta=None,
                              seed=derive_seed(0, "analyze/residuals/thetas"),
                              cal=cal)
    raw = residual_analysis(pairs[:, :2])
    mitigated = residual_analysis(pairs[:, [0, 2]])
    elapsed = time.perf_counter() - t0
    ok = (abs(raw.slope - 0.60) <= 0.02 and abs(raw.intercept - 0.24) <= 0.02
          and abs(mitigated.slope - 1.0) <= 0.03
          and abs(mitigated.intercept) <= 0.02 and elapsed < 60.0)
    _report(8, ok, f"raw fit slope {raw.slope:.4f} (0.60 +/- 0.02) intercept "
                   f"{raw.intercept:.4f} (0.24 +/- 0.02); mitigated slope "
                   f"{mitigated.slope:.4f} (1 +/- 0.03) intercept "
                   f"{mitigated.intercept:.4f} (0 +/- 0.02), {elapsed:.0f} s "
                   f"(limit 60 s)")


def test_criterion_09_shot_noise_square_root_law_and_floor():
    spec = CircuitSpec(Ansatz.A2A, 4)
    point = Dataset(x=np.array([[0.0, 0.0]]), y=np.array([1]))
    t0 = time.perf_counter()
    theta = np.zeros(spec.n_params)
    theta[2] = 1.0
    law = noise_scaling(spec, theta, point, [60, 100, 150, 250, 400, 600, 750],
                        residual_sigma=0.0, repeats=800, seed=0)
    theta[2] = 3.0
    floored = noise_scaling(spec, theta, point, [750, 1000],
                            residual_sigma=0.006, repeats=2000, seed=1)
    elapsed = time.perf_counter() - t0
    std_1000 = float(floored.stds[list(floored.shot_counts).index(1000)])
    ok = (abs(law.exponent + 0.5) <= 0.05
          and abs(std_1000 - 0.006) <= 0.2 * 0.006 and elapsed < 120.0)
    _report(9, ok, f"zero-floor exponent {law.exponent:.4f} (-0.5 +/- 0.05); "
                   f"with floor 0.006 the std at 1000 shots is {std_1000:.5f} "
                   f"(within 20% of 0.006), {elapsed:.0f} s (limit 120 s)")


def test_criterion_10_generalization_gap():
    train, test = generate_splits(0, train_size=500)
    backend = IdealBackend()
    t0 = time.perf_counter()
    gaps = []
    for seed in range(5):
        theta, _ = ga_train(GAConfig(seed=seed), SPEC, train, backend)
        train_acc = costs.evaluate(CostKind.ACCURACY, SPEC, theta, train, backend)
        test_acc = costs.evaluate(CostKind.ACCURACY, SPEC, theta, test, backend)
        gaps.append(abs(train_acc - test_acc))
    elapsed = time.perf_counter() - t0
    median_gap = float(np.median(gaps))
    ok = median_gap <= 0.03 and elapsed < 60.0
    _report(10, ok, f"median |train - test| accuracy gap {median_gap:.3f} over "
                    f"5 seeds on a fresh 1000-point set (limit 0.03), "
                    f"{elapsed:.0f} s (limit 60 s)")


def test_criterion_11_closed_form_costs():
    # theta_0 = pi/2 with x = (1, 0) rotates every point to M = 1/2 exactly
    n = 64
    ds = Dataset(x=np.tile([1.0, 0.0], (n, 1)), y=np.zeros(n, dtype=int))
    theta = np.zeros(SPEC.n_params)
    theta[0] = np.pi / 2
    backend = IdealBackend()
    ce = costs.evaluate(CostKind.CROSS_ENTROPY, SPEC, theta, ds, backend)
    chi = costs.evaluate(CostKind.CHI_SQUARED, SPEC, theta, ds, backend)
    rng = np.random.default_rng(derive_seed(0, "chi-squared-range"))
    in_range = all(0.0 <= costs.row_values(CostKind.CHI_SQUARED,
                                           rng.uniform(0.0, 1.0,
                                                       rng.integers(1, 50))) <= 1.0
                   for _ in range(10_000))
    ok = (abs(ce - np.log(2.0)) <= 1e-12 and abs(chi - 0.25) <= 1e-12
          and in_range)
    _report(11, ok, f"all-M=0.5 cross-entropy deviates from ln 2 by "
                    f"{abs(ce - np.log(2.0)):.1e} and chi-squared from 0.25 by "
                    f"{abs(chi - 0.25):.1e} (limits 1e-12); chi-squared stayed "
                    f"in [0, 1] on 10000 random instances: {in_range}")


def test_criterion_12_worker_count_determinism(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("seed: 7\n"
                      "dataset: {n: 60}\n"
                      "backend: {kind: noisy, noise: {shots: 150}}\n"
                      "optimizer: {kind: ga, population_size: 10, "
                      "max_generations: 5}\n")
    first = tmp_path / "first"
    assert cli.main(["train", "--config", str(config), "--out", str(first)]) == 0
    reruns = []
    for workers in (1, 8):
        out = tmp_path / f"workers{workers}"
        rc = cli.main(["train", "--config", str(first / "config.yaml"),
                       "--out", str(out), "--workers", str(workers)])
        assert rc == 0
        reruns.append(out)
    identical = all(
        (first / name).read_bytes() == (out / name).read_bytes()
        for out in reruns for name in ("trace.csv", "best_theta.txt"))
    _report(12, identical, "archived noisy-GA config re-run with 1 and 8 workers "
                           f"produced byte-identical traces and parameters: "
                           f"{identical}")


def test_criterion_13_modeled_time_budget():
    ledger = MeasurementLedger()
    ledger.reserve(1 * 50 * 250, 150)  # one pop-50 generation, 250 points
    minutes = estimate_time(*ledger.snapshot()) / 60.0
    ok = abs(minutes - 330.0) <= 10.0
    _report(13, ok, f"one pop-50 generation at 250 points x 150 shots models to "
                    f"{minutes:.2f} min (target 330 +/- 10)")
