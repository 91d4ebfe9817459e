"""Readout-error mitigation and the statistical analyses around it.

Mitigation inverts a measured confusion matrix: observed outcome frequencies
o = M^T p are mapped back to p via (M^T)^-1, clipped to [0, 1], and
renormalized.  The analyses quantify what the noise does before and after:
a regression of observed vs theoretical probabilities, the shot-count
scaling of the estimator spread (rejected where the shot counts are too close
to resolve its exponent), and the gradient-vs-noise comparison that shows why
finite-difference training stalls on noisy hardware, returned as one
GradientNoiseRow per step, cost and parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import circuits
from .backend import Backend, Confusion, IdealBackend, NoiseModel, NoisyBackend, check_confusion
from .circuits import CircuitSpec
from .costs import CostKind
from .data import Dataset
from .seeding import derive_seed
from .trainers import GradMethod, estimate_gradient

IDENTITY_CONFUSION = ((1.0, 0.0), (0.0, 1.0))

# the costs whose gradients gradient_noise_report compares, in report order
GRADIENT_NOISE_COSTS = (CostKind.ACCURACY, CostKind.CROSS_ENTROPY, CostKind.CHI_SQUARED)

# pole-0 preparation is the all-zero parameter vector; pole-1 puts pi in the
# first slot, which with calibration input x = (1, 0) turns the first layer
# into R_y(pi) under every ansatz kind while all other gates stay identity.
CALIBRATION_X = np.array([[1.0, 0.0]])


def pole_preparations(spec: CircuitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Parameter vectors that prepare |0> and |1> through the full circuit."""
    theta0, theta1 = np.zeros((2, spec.n_params))
    theta1[0] = np.pi
    return theta0, theta1


def calibrate(backend: Backend, profile: CircuitSpec | None = None,
              shots: int = 10_000) -> Confusion:
    """Estimate the confusion matrix by preparing each pole repeatedly.

    Both poles run through circuits of the same depth (`profile`), so the
    calibration sees the same per-shot timing the real workload does.  The
    number of backend estimates is chosen so each pole accumulates at least
    `shots` shots; rows are frequencies of a two-outcome measurement, hence
    row-stochastic by construction: a confusion that NoiseModel accepts.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    profile = profile if profile is not None else CircuitSpec()
    reps = max(1, math.ceil(shots / backend.shots))
    rows = []
    for theta in pole_preparations(profile):
        x, y = np.repeat(CALIBRATION_X, reps, axis=0), np.zeros(reps, dtype=int)
        estimates = backend.sample(circuits.measure_batch(profile, theta, x, y), y)
        p0 = float(estimates.mean())
        rows.append((p0, 1.0 - p0))
    if abs(np.linalg.det(rows)) < 1e-12:
        raise ValueError("calibration produced a singular matrix; the two pole "
                         "preparations are indistinguishable - try more shots")
    return tuple(rows)


def mitigate(observed: np.ndarray, confusion: Confusion) -> np.ndarray:
    """Recover true-probability pairs from observed-frequency pairs, shape (..., 2).

    Applies the inverse of the transposed confusion matrix, which must pass
    check_confusion and be invertible, to each pair, clips the result to
    [0, 1], and renormalizes it to sum to 1; a pair that clips to zero becomes
    [0.5, 0.5] and a NaN pair stays NaN.
    """
    m = check_confusion(confusion)
    if abs(np.linalg.det(m)) < 1e-12:
        raise ValueError("confusion matrix is singular and cannot be inverted")
    observed = np.asarray(observed, dtype=float)
    if observed.ndim == 0 or observed.shape[-1] != 2:
        raise ValueError(f"observed must hold probability pairs, got shape {observed.shape}")
    raw = np.linalg.solve(m.T, observed[..., None])[..., 0]
    clipped = np.clip(raw, 0.0, 1.0)
    total = clipped.sum(axis=-1, keepdims=True)
    return np.divide(clipped, total, out=np.full_like(clipped, 0.5), where=~(total <= 0))


@dataclass(frozen=True)
class ResidualReport:
    """Least-squares line through (theoretical, observed) pairs plus the
    spread of the residuals about that line."""

    slope: float
    intercept: float
    residual_mean: float
    residual_std: float
    bin_edges: np.ndarray
    bin_density: np.ndarray
    n_pairs: int


def residual_analysis(pairs: np.ndarray) -> ResidualReport:
    """Fit observed = intercept + slope * theoretical and report residuals.

    pairs: array of shape (n, 2) with columns (theoretical, observed), n >= 3.
    Residual histogram uses Freedman-Diaconis binning.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must have shape (n, 2), got {pairs.shape}")
    if pairs.shape[0] < 3:
        raise ValueError(f"need at least 3 pairs, got {pairs.shape[0]}")
    x, obs = pairs[:, 0], pairs[:, 1]
    if np.ptp(x) < 1e-15:
        raise ValueError("theoretical values are all equal; the fit is degenerate")
    slope, intercept = np.polyfit(x, obs, 1)
    residuals = obs - (intercept + slope * x)
    density, edges = np.histogram(residuals, bins="fd", density=True)
    return ResidualReport(float(slope), float(intercept),
                          float(residuals.mean()), float(residuals.std(ddof=0)),
                          edges, density, pairs.shape[0])


def observation_pairs(spec: CircuitSpec, dataset: Dataset, backend: Backend,
                      theta: np.ndarray | None = None, seed: int = 0,
                      cal: Confusion | None = None) -> np.ndarray:
    """(theoretical, observed[, mitigated]) excited-state populations.

    Every point is projected onto |1> regardless of its class label: the
    regression compares one fixed physical quantity across the whole set.
    With no theta given, each point gets its own random parameter vector so
    the theoretical probabilities spread over [0, 1] instead of clustering.
    Passing a calibrated confusion matrix appends a third, mitigated column.
    """
    n = len(dataset)
    if theta is not None:
        thetas = np.tile(circuits.check_theta(spec, theta), (n, 1))
    else:
        rng = np.random.default_rng(derive_seed(seed, "residual-thetas"))
        thetas = rng.uniform(-2 * np.pi, 2 * np.pi, size=(n, spec.n_params))
    ones = np.ones((n, 1), dtype=int)
    design = circuits.Design(spec.ansatz, dataset.x[:, None, :], ones)
    p = circuits.measure_groups(spec, [(thetas, design, None)])[0][:, 0]
    est = backend.sample(p, ones[:, 0])
    if cal is None:
        return np.column_stack([p, est])
    return np.column_stack([p, est, mitigate(np.column_stack([1.0 - est, est]), cal)[:, 1]])


@dataclass(frozen=True)
class NoiseScalingReport:
    shot_counts: np.ndarray
    stds: np.ndarray
    amplitude: float
    exponent: float


def noise_scaling(spec: CircuitSpec, theta: np.ndarray, dataset: Dataset,
                  shot_counts, residual_sigma: float = 0.0, repeats: int = 200,
                  seed: int = 0) -> NoiseScalingReport:
    """Estimator spread versus shot count, with a power-law fit std = a*N^b.

    For each N, every dataset point is estimated `repeats` times through a
    fresh backend with perfect readout (IDENTITY_CONFUSION); the reported
    std at N is the per-point repetition std averaged over points.
    """
    shot_counts = np.asarray(list(shot_counts), dtype=int)
    if shot_counts.size < 2 or np.unique(shot_counts).size < 2:
        raise ValueError("need at least 2 distinct shot counts")
    if (shot_counts < 1).any():
        raise ValueError("shot counts must be >= 1")
    if repeats < 2:
        raise ValueError(f"repeats must be >= 2 for a spread, got {repeats}")
    theta = circuits.check_theta(spec, theta)
    p = circuits.measure_batch(spec, theta, dataset.x, dataset.y)
    n = p.size
    stds = np.empty(shot_counts.size)
    for i, shots in enumerate(shot_counts):
        noise = NoiseModel(confusion=IDENTITY_CONFUSION, shots=int(shots),
                           residual_sigma=residual_sigma,
                           seed=derive_seed(seed, f"noise-scaling/{shots}"))
        est = NoisyBackend(noise).sample(np.tile(p, repeats), np.tile(dataset.y, repeats))
        stds[i] = est.reshape(repeats, n).std(axis=0, ddof=1).mean()
    if not stds.all():      # the fit takes the logarithm of every spread
        raise ValueError(f"the estimates at shot count {shot_counts[stds == 0][0]} have no spread "
                         "to fit a power law to; use more repeats or points")
    log_n = np.log(shot_counts)
    b, log_a = np.polyfit(log_n, np.log(stds), 1)
    counts = ", ".join(map(str, shot_counts))
    if not log_a < np.log(np.finfo(float).max):     # NaN fails it too
        raise ValueError(f"the power-law fit over shot counts {counts} "
                         "overflows; spread the shot counts further apart")
    # the exponent's standard error from the design alone: a log-std from
    # `repeats` draws has variance about 1 / (2 (repeats - 1)), n points average it
    stderr = 1.0 / math.sqrt(2 * (repeats - 1) * n * ((log_n - log_n.mean()) ** 2).sum())
    if stderr > 0.5:
        raise ValueError(f"the power-law fit over shot counts {counts} cannot resolve its "
                         f"exponent (standard error {stderr:.2f} > 0.5); spread the shot "
                         "counts further apart or use more repeats or points")
    return NoiseScalingReport(shot_counts, stds, float(np.exp(log_a)), float(b))


@dataclass(frozen=True)
class GradientNoiseRow:
    step: float
    cost: CostKind
    component: int
    theoretical: float
    noisy_mean: float
    noisy_std: float
    sign_agreement: float  # NaN where the theoretical component is zero


def gradient_noise_report(spec: CircuitSpec, theta: np.ndarray, dataset: Dataset,
                          noise: NoiseModel | None, steps,
                          repeats: int = 20) -> list[GradientNoiseRow]:
    """Noiseless finite-difference gradients against their noisy estimates.

    For every step size and each cost of GRADIENT_NOISE_COSTS, the exact
    finite-difference gradient is compared component-wise to `repeats`
    independent noisy measurements of the same quantity; sign agreement is
    the fraction of repeats whose sign matches the noiseless component
    (undefined where that component is 0).
    Passing noise=None runs the "noisy" leg on an ideal backend, which makes
    every defined agreement 1 by construction.
    """
    steps = list(steps)
    if not steps:
        raise ValueError("steps must be nonempty")
    theta = circuits.check_theta(spec, theta)
    rows: list[GradientNoiseRow] = []
    for step in steps:
        for kind in GRADIENT_NOISE_COSTS:
            exact = estimate_gradient(GradMethod.FINITE_DIFFERENCE, kind, spec, theta,
                                      dataset, IdealBackend(), step=step)
            reps = np.empty((repeats, theta.size))
            for r in range(repeats):
                nb = IdealBackend() if noise is None else NoisyBackend(replace(
                    noise, seed=derive_seed(noise.seed, f"grad-noise/{step}/{kind.value}/{r}")))
                reps[r] = estimate_gradient(GradMethod.FINITE_DIFFERENCE, kind, spec,
                                            theta, dataset, nb, step=step)
            mean = reps.mean(axis=0)
            std = reps.std(axis=0, ddof=1) if repeats > 1 else np.zeros(theta.size)
            agreement = np.where(exact == 0.0, np.nan,
                                 np.mean(np.sign(reps) == np.sign(exact), axis=0))
            rows += [GradientNoiseRow(float(step), kind, j, float(exact[j]), float(mean[j]),
                                      float(std[j]), float(agreement[j]))
                     for j in range(theta.size)]
    return rows
