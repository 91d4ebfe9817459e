"""Measurement backends: exact probabilities or a simulated noisy readout.

The ideal backend returns projection probabilities exactly as computed by the
state evolution.  The noisy backend pushes the true outcome distribution
through a readout confusion matrix, draws a finite number of shots, and adds
a residual Gaussian floor, mimicking trapped-ion hardware readout.

Determinism contract: the noise applied to an estimate is a pure function of
(noise seed, global estimate index).  The ledger hands out contiguous index
blocks atomically and each index keys one Philox block, so a batch gives the
same values as the same estimates drawn one call at a time, as long as the
sequence of cost evaluations is the same.  The shot count of an estimate is
the exact binomial quantile of its Philox uniform: binom_quantile inverts the
binomial CDF that scipy evaluates with boost and returns what scipy's
binom.ppf returns, bit for bit.

Also here: shot/estimate accounting and the wall-time model for a run
(per-circuit upload costs plus per-shot cycle costs), plus a Poisson
photon-count detection model for threshold readout.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri, pdtr, pdtrc
# The binomial CDF and quantile ufuncs behind scipy's binom._cdf and
# binom._ppf; importing them from scipy.special skips the slow stats import.
from scipy.special._ufuncs import _binom_cdf, _binom_ppf

from . import circuits
from .circuits import CircuitSpec
from .seeding import counter_uniforms

DEFAULT_CONFUSION = ((0.76, 0.24), (0.16, 0.84))
DEFAULT_SHOTS = 150
DEFAULT_RESIDUAL_SIGMA = 0.006

# binom_quantile hands an entry to boost's own quantile when u lies within
# _NEAR of a CDF value that decides it, which includes every u within _NEAR of
# 0 or 1.  Only there did boost's root finder settle on a neighbouring k in a
# sweep over shots 1 to 10**4: on the flat top of the CDF, and elsewhere
# within about 2.3e-13 of a step (3e-11 * c for a small CDF value c).
_NEAR = 2.0**-32


def binom_quantile(u: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """Smallest k with binomial CDF(k; n, p) >= u, for u in (0, 1).

    Equals scipy's binom.ppf(u, n, p) bit for bit, NaN for p outside
    [0, 1] included, as checked on scipy 1.17.1: the guarantee rests on the
    private boost ufuncs _binom_cdf/_binom_ppf and on the root finder behind
    the latter, so re-run tests/test_backend.py before trusting another
    scipy version.  A Cornish-Fisher guess for k is checked against
    cdf(k - 1) < u <= cdf(k), and only the entries that fail step up or down
    until they pass: about two CDF evaluations per entry instead of boost's
    root search.
    """
    u, p = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(p, dtype=float))
    z = ndtri(u)
    sd = np.sqrt(np.maximum(n * p * (1.0 - p), 0.0))
    k = np.clip(np.ceil(n * p + sd * z + (z * z - 1.0) * (1.0 - 2.0 * p) / 6.0 - 0.5),
                0, n)
    hi = _binom_cdf(k, n, p)
    lo = np.where(k > 0, _binom_cdf(k - 1, n, p), 0.0)
    todo = np.flatnonzero((u > hi) | (u <= lo))
    while todo.size:
        up = u[todo] > hi[todo]
        i, j = todo[up], todo[~up]
        k[i] += 1
        lo[i] = hi[i]
        hi[i] = _binom_cdf(k[i], n, p[i])
        k[j] -= 1
        hi[j] = lo[j]
        lo[j] = np.where(k[j] > 0, _binom_cdf(k[j] - 1, n, p[j]), 0.0)
        todo = todo[(u[todo] > hi[todo]) | (u[todo] <= lo[todo])]
    near = (np.abs(u - hi) <= _NEAR) | (np.abs(u - lo) <= _NEAR)
    k[near] = _binom_ppf(u[near], n, p[near])
    return np.where((p >= 0.0) & (p <= 1.0), k, np.nan)


class MeasurementLedger:
    """Thread-safe running totals of estimates and shots.

    One estimate is one cost-relevant probability (a single projection
    measurement repeated `shots` times).  reserve() atomically assigns the
    next block of estimate indices, which the noisy backend uses as RNG
    counters.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._estimates = 0
        self._shots = 0

    @property
    def total_estimates(self) -> int:
        return self._estimates

    @property
    def total_shots(self) -> int:
        return self._shots

    def reserve(self, n_estimates: int, shots_each: int) -> int:
        """Account for n_estimates new estimates; returns the first index."""
        if n_estimates < 0 or shots_each < 0:
            raise ValueError("counts must be nonnegative")
        with self._lock:
            start = self._estimates
            self._estimates += n_estimates
            self._shots += n_estimates * shots_each
        return start

    def snapshot(self) -> tuple[int, int]:
        with self._lock:
            return self._estimates, self._shots


@dataclass(frozen=True)
class NoiseModel:
    """Readout confusion + finite shots + residual Gaussian floor.

    confusion[i][j] = probability of observing outcome j given true state i.
    """

    confusion: tuple[tuple[float, float], tuple[float, float]] = DEFAULT_CONFUSION
    shots: int = DEFAULT_SHOTS
    residual_sigma: float = DEFAULT_RESIDUAL_SIGMA
    seed: int = 0

    def __post_init__(self):
        m = np.asarray(self.confusion, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"confusion must be 2x2, got shape {m.shape}")
        if (m < 0).any() or (m > 1).any():
            raise ValueError("confusion entries must lie in [0, 1]")
        if np.abs(m.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("confusion rows must each sum to 1 within 1e-12")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.residual_sigma < 0:
            raise ValueError(f"residual_sigma must be >= 0, got {self.residual_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.confusion, dtype=float)

    def observed_probability(self, p_y: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Expected observed frequency of outcome y given true P(outcome=y)."""
        m = self.matrix
        p_y = np.asarray(p_y, dtype=float)
        y = np.asarray(y)
        diag = m[y, y]          # stay correct
        flip = m[1 - y, y]      # misread from the other state
        return flip + (diag - flip) * p_y

    def to_config(self) -> dict:
        return {
            "confusion": [list(row) for row in self.confusion],
            "shots": self.shots,
            "residual_sigma": self.residual_sigma,
            "seed": self.seed,
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "NoiseModel":
        known = {"confusion", "shots", "residual_sigma", "seed"}
        extra = set(cfg) - known
        if extra:
            raise ValueError(f"unknown noise keys: {sorted(extra)}")
        kwargs = dict(cfg)
        if "confusion" in kwargs:
            kwargs["confusion"] = tuple(tuple(float(v) for v in row)
                                        for row in kwargs["confusion"])
        return cls(**kwargs)


class IdealBackend:
    """Exact projection probabilities; shots are tracked only for accounting."""

    def __init__(self, shots: int = DEFAULT_SHOTS):
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        self.shots = shots
        self.ledger = MeasurementLedger()
        self.is_noisy = False

    def measure(self, spec: CircuitSpec, theta: np.ndarray, x: np.ndarray,
                y: np.ndarray, shift: tuple[int, int, float] | None = None) -> np.ndarray:
        p = circuits.measure_batch(spec, theta, x, y, shift=shift)
        self.ledger.reserve(p.size, self.shots)
        return p

    def sample(self, p_y: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Accounting-only twin of NoisyBackend.sample: the values pass through."""
        p_y = np.asarray(p_y, dtype=float)
        self.ledger.reserve(p_y.size, self.shots)
        return p_y

    def estimate(self, spec: CircuitSpec, theta: np.ndarray, x: np.ndarray, y: int) -> float:
        return float(self.measure(spec, theta, np.atleast_2d(x), np.array([y]))[0])

    def charge(self, n_estimates: int) -> None:
        """Account for estimates obtained without a measure() call."""
        self.ledger.reserve(n_estimates, self.shots)


class NoisyBackend:
    """Confusion-matrix readout with binomial shot noise and a residual floor.

    Estimates target the observed frequency o_y, not the true p_y; inverting
    the confusion afterwards is the mitigation module's job.
    """

    def __init__(self, noise: NoiseModel | None = None):
        self.noise = noise if noise is not None else NoiseModel()
        self.shots = self.noise.shots
        self.ledger = MeasurementLedger()
        self.is_noisy = True

    def measure(self, spec: CircuitSpec, theta: np.ndarray, x: np.ndarray,
                y: np.ndarray, shift: tuple[int, int, float] | None = None) -> np.ndarray:
        p = circuits.measure_batch(spec, theta, x, y, shift=shift)
        return self.sample(p, np.asarray(y))

    def sample(self, p_y: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Noisy estimates for known true probabilities (one per entry)."""
        p_y = np.asarray(p_y, dtype=float)
        o = self.noise.observed_probability(p_y, y)
        start = self.ledger.reserve(p_y.size, self.noise.shots)
        u = counter_uniforms(self.noise.seed, "readout", start, p_y.size)
        k = binom_quantile(u[:, 0], self.noise.shots, o)
        est = k / self.noise.shots
        if self.noise.residual_sigma > 0:
            est = est + ndtri(u[:, 1]) * self.noise.residual_sigma
        return np.clip(est, 0.0, 1.0)

    def estimate(self, spec: CircuitSpec, theta: np.ndarray, x: np.ndarray, y: int) -> float:
        return float(self.measure(spec, theta, np.atleast_2d(x), np.array([y]))[0])

    def charge(self, n_estimates: int) -> None:
        self.ledger.reserve(n_estimates, self.noise.shots)


Backend = IdealBackend | NoisyBackend


@dataclass(frozen=True)
class PoissonDetectionSpec:
    """Photon-count statistics for threshold state discrimination.

    Counts above `threshold` are assigned to `bright_state`.  The default
    maps bright to |1> (counts <= 11 read as |0>, above as |1>).
    """

    dark_mean: float = 2.0
    bright_mean: float = 25.0
    threshold: int = 11
    bright_state: int = 1

    def __post_init__(self):
        if self.dark_mean < 0 or self.bright_mean < 0:
            raise ValueError("Poisson means must be nonnegative")
        if self.bright_state not in (0, 1):
            raise ValueError(f"bright_state must be 0 or 1, got {self.bright_state}")
        if self.bright_mean <= self.threshold:
            warnings.warn(
                f"bright mean {self.bright_mean} does not exceed threshold "
                f"{self.threshold}; bright shots will mostly be misread",
                stacklevel=2,
            )

    def misassignment(self) -> tuple[float, float]:
        """(P(dark read as bright), P(bright read as dark)) from Poisson tails."""
        eps_dark = float(pdtrc(self.threshold, self.dark_mean))
        eps_bright = float(pdtr(self.threshold, self.bright_mean))
        return eps_dark, eps_bright


@dataclass(frozen=True)
class DetectionResult:
    """Histogram of photon counts plus the thresholded state estimate."""

    histogram: np.ndarray     # bin i = number of shots with i photons
    p1_hat: float
    shots: int


def detection_histogram(p1: float, shots: int, model: PoissonDetectionSpec | None = None,
                        seed: int = 0) -> DetectionResult:
    """Simulate threshold readout of a state with excited-state probability p1."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    model = model if model is not None else PoissonDetectionSpec()
    rng = np.random.default_rng(seed)
    excited = rng.random(shots) < p1
    bright = excited if model.bright_state == 1 else ~excited
    counts = np.where(bright,
                      rng.poisson(model.bright_mean, shots),
                      rng.poisson(model.dark_mean, shots))
    read_bright = counts > model.threshold
    read_one = read_bright if model.bright_state == 1 else ~read_bright
    hist = np.bincount(counts)
    return DetectionResult(hist, float(read_one.mean()), shots)


@dataclass(frozen=True)
class TimeBudget:
    """Seconds per experimental step for wall-time estimation.

    The first three entries are paid once per estimate (circuit upload and
    hand-off); the remaining four once per shot (one cool/prepare/run/detect
    cycle).  Defaults are calibrated so one 50-individual generation over 250
    points at 150 shots lands near five and a half hours.
    """

    usb_load: float = 0.55
    dds_load: float = 0.17
    fpga_receive: float = 0.08
    cooling: float = 0.0027
    preparation: float = 0.0002
    gate: float = 0.0003
    detection: float = 0.002

    def __post_init__(self):
        for name in ("usb_load", "dds_load", "fpga_receive",
                     "cooling", "preparation", "gate", "detection"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def per_estimate(self) -> float:
        return self.usb_load + self.dds_load + self.fpga_receive

    @property
    def per_shot(self) -> float:
        return self.cooling + self.preparation + self.gate + self.detection


def estimate_time(ledger: MeasurementLedger, budget: TimeBudget | None = None,
                  shots_per_estimate: int | None = None) -> float:
    """Modeled wall-clock seconds for everything the ledger has recorded.

    If shots_per_estimate is given, the shot total is recomputed as
    estimates x shots instead of using the ledger's own shot counter.
    """
    budget = budget if budget is not None else TimeBudget()
    estimates, shots = ledger.snapshot()
    if shots_per_estimate is not None:
        if shots_per_estimate < 0:
            raise ValueError("shots_per_estimate must be >= 0")
        shots = estimates * shots_per_estimate
    return estimates * budget.per_estimate + shots * budget.per_shot
