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
binomial CDF that scipy evaluates with boost, at about one CDF evaluation per
estimate, and returns what scipy's binom.ppf returns, bit for bit.

Also here: shot/estimate accounting and the wall-time model for a run
(per-circuit upload costs plus per-shot cycle costs), plus a Poisson
photon-count detection model for threshold readout.
"""

from __future__ import annotations

import functools
import math
import threading
import warnings
from dataclasses import dataclass

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
# binom_quantile's bound on cdf(k - 1) (see its docstring) holds within
# _SLACK up to _TABLE_MAX_SHOTS shots; below _TABLE_MIN_ENTRIES entries one
# boost CDF call costs less than the table's dozen numpy calls.
_SLACK = 2.0**-32
_TABLE_MAX_SHOTS = 10_000
_TABLE_MIN_ENTRIES = 32


@functools.lru_cache(maxsize=8)
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, from math.lgamma."""
    lg = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    table = lg[n] - lg - lg[::-1]
    table.flags.writeable = False
    return table


def binom_quantile(u: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """Smallest k with binomial CDF(k; n, p) >= u, for u in (0, 1).

    Equals scipy's binom.ppf(u, n, p) bit for bit, NaN for p outside
    [0, 1] included, as checked on scipy 1.17.1: the guarantee rests on the
    private boost ufuncs _binom_cdf/_binom_ppf and on the root finder behind
    the latter, so re-run tests/test_backend.py before trusting another
    scipy version.  A Cornish-Fisher guess for k is checked against
    cdf(k - 1) < u <= cdf(k), and only the entries that fail step up or down
    until they pass: about one CDF evaluation per entry instead of boost's
    root search.

    The one evaluation is boost's cdf(k).  For cdf(k - 1) the check takes
    lo = cdf(k) - pmf(k), with the pmf from a log-binomial table.  lo is
    within _SLACK = 2**-32 (2.3e-10) of boost's cdf(k - 1): the two differ by
    at most 3.1e-14 at 150 shots and 3.6e-12 at 10**4.  So where
    u > lo + _NEAR + _SLACK, boost's cdf(k - 1) would also lie below u and
    more than _NEAR from it, and the check and the _NEAR hand-off decide as
    they would on boost's value; every other entry, and every entry whose pmf
    is not finite, gets boost's cdf(k - 1).
    """
    u, p = np.asarray(u, dtype=float), np.asarray(p, dtype=float)
    if u.shape != p.shape:
        u, p = np.broadcast_arrays(u, p)
    z = ndtri(u)
    sd = np.sqrt(np.maximum(n * p * (1.0 - p), 0.0))
    k = np.clip(np.ceil(n * p + sd * z + (z * z - 1.0) * (1.0 - 2.0 * p) / 6.0 - 0.5),
                0, n)
    hi = _binom_cdf(k, n, p)
    lo = _lower_cdf(u, k, n, p, hi)
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
    if near.any():
        k[near] = _binom_ppf(u[near], n, p[near])
    return np.where((p >= 0.0) & (p <= 1.0), k, np.nan)


def _table_pmf(k: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """Binomial pmf(k; n, p) from the log-binomial table, for n up to
    _TABLE_MAX_SHOTS; NaN where the logs meet 0 * inf or a p outside [0, 1]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = _log_binomials(n).take(k.astype(np.intp), mode="clip")
        log_pmf += k * np.log(p)
        log_pmf += (n - k) * np.log1p(-p)
    return np.exp(log_pmf, out=log_pmf)


def _lower_cdf(u: np.ndarray, k: np.ndarray, n: int, p: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
    """binom_quantile's lo: boost's cdf(k - 1) (0 at k = 0), or
    cdf(k) - pmf(k) where u lies more than _NEAR + _SLACK above that."""
    if n > _TABLE_MAX_SHOTS or k.size < _TABLE_MIN_ENTRIES:
        return np.where(k > 0, _binom_cdf(k - 1, n, p), 0.0)
    lo = _table_pmf(k, n, p)
    np.subtract(hi, lo, out=lo)
    # At p = 0 or 1 the pmf is 0, making lo = cdf(k) exact, or else it is 1
    # (k = 0 at p = 0, k = n at p = 1) and comes out NaN; a NaN lo, as from a
    # NaN k or p or a p outside [0, 1], fails the test below.
    keep = u > lo + (_NEAR + _SLACK)
    if not keep.all():
        i = np.flatnonzero(~keep)
        lo[i] = np.where(k[i] > 0, _binom_cdf(k[i] - 1, n, p[i]), 0.0)
    return lo


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

    @classmethod
    def from_config(cls, cfg: dict) -> "NoiseModel":
        """The model of a `backend.noise` config block, read by the config reader."""
        from .config import _build   # config imports this module
        return _build(cls, cfg, "backend.noise")


class BudgetError(ValueError):
    """max_estimates cannot pay for an optimizer's first charge."""


class EstimateBudget:
    """max_estimates as a hard limit on a ledger's total, checked before each charge."""

    def __init__(self, limit: int | None, ledger: MeasurementLedger):
        self.limit = limit
        self.ledger = ledger

    def allows(self, upcoming: int) -> bool:
        return self.limit is None or self.ledger.total_estimates + upcoming <= self.limit

    def require(self, upcoming: int, what: str) -> None:
        """Raise BudgetError unless the first charge, `what`, fits in the limit."""
        if not self.allows(upcoming):
            held = self.ledger.total_estimates
            raise BudgetError(f"max_estimates={self.limit} is below {what} = {upcoming} "
                              f"estimates" + (f" on top of {held} already charged" if held else ""))


class Backend:
    """A ledger and a shot count per estimate; subclasses turn true
    probabilities into estimates with sample(p_y, y)."""

    is_noisy = False

    def __init__(self, shots: int):
        self.shots = shots
        self.ledger = MeasurementLedger()

    def measure(self, spec: CircuitSpec, theta: np.ndarray, x: np.ndarray,
                y: np.ndarray) -> np.ndarray:
        p = circuits.measure_batch(spec, theta, x, y)
        return self.sample(p, np.asarray(y))

    def charge(self, n_estimates: int) -> None:
        """Account for estimates obtained without a sample() call."""
        self.ledger.reserve(n_estimates, self.shots)


class IdealBackend(Backend):
    """Exact projection probabilities; shots are tracked only for accounting."""

    def __init__(self, shots: int = DEFAULT_SHOTS):
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        super().__init__(shots)

    def sample(self, p_y: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Accounting-only twin of NoisyBackend.sample: the values pass through."""
        p_y = np.asarray(p_y, dtype=float)
        self.ledger.reserve(p_y.size, self.shots)
        return p_y


class NoisyBackend(Backend):
    """Confusion-matrix readout with binomial shot noise and a residual floor.

    Estimates target the observed frequency o_y, not the true p_y; inverting
    the confusion afterwards is the mitigation module's job.
    """

    is_noisy = True

    def __init__(self, noise: NoiseModel | None = None):
        self.noise = noise if noise is not None else NoiseModel()
        super().__init__(self.noise.shots)

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


DEFAULT_TIME_BUDGET = TimeBudget()


def estimate_time(ledger: MeasurementLedger, budget: TimeBudget | None = None) -> float:
    """Modeled wall-clock seconds for everything the ledger has recorded."""
    budget = budget if budget is not None else DEFAULT_TIME_BUDGET
    estimates, shots = ledger.snapshot()
    return estimates * budget.per_estimate + shots * budget.per_shot
