"""Measurement backends: exact probabilities or a simulated noisy readout.

The ideal backend returns projection probabilities exactly as computed by the
state evolution.  The noisy backend pushes the true outcome distribution
through a readout confusion matrix, draws a finite number of shots, and adds
a residual Gaussian floor, mimicking trapped-ion hardware readout.

Determinism contract: the noise applied to an estimate is a pure function of
(noise seed, global estimate index).  The ledger hands out contiguous index
blocks atomically and each index keys one Philox block, so a batch gives the
same values as the same estimates drawn one call at a time, as long as the
sequence of cost evaluations is the same.  Each block becomes an estimate in
the binomial module (numpy only), imported on the first noisy sample.

Also here: shot/estimate accounting and the wall-time model for a run
(per-circuit upload costs plus per-shot cycle costs).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .seeding import counter_uniforms

Confusion = tuple[tuple[float, float], tuple[float, float]]   # P(observed | true), by row
DEFAULT_CONFUSION = ((0.76, 0.24), (0.16, 0.84))
DEFAULT_SHOTS = 150
DEFAULT_RESIDUAL_SIGMA = 0.006
# The noisy sampler's ceiling: its CDF is checked against boost's up to here,
# and a block's work per estimate grows with the square root of the shots.
MAX_SHOTS = 100_000
DRAW_BLOCK = 4096   # indices a noisy backend draws at once; 2,048 to 8,192 ran alike

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


def check_confusion(confusion) -> np.ndarray:
    """The 2x2 row-stochastic P(observed | true) that `confusion` holds, as an array."""
    m = np.asarray(confusion, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"confusion must be 2x2, got shape {m.shape}")
    if not ((m >= 0) & (m <= 1)).all():         # NaN fails both comparisons
        raise ValueError("confusion entries must lie in [0, 1]")
    if np.abs(m.sum(axis=1) - 1.0).max() > 1e-12:
        raise ValueError("confusion rows must each sum to 1 within 1e-12")
    return m


@dataclass(frozen=True)
class NoiseModel:
    """Readout confusion + finite shots + residual Gaussian floor.

    confusion[i][j] = probability of observing outcome j given true state i.
    """

    confusion: Confusion = DEFAULT_CONFUSION
    shots: int = DEFAULT_SHOTS
    residual_sigma: float = DEFAULT_RESIDUAL_SIGMA
    seed: int = 0

    def __post_init__(self):
        check_confusion(self.confusion)
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.shots > MAX_SHOTS:
            raise ValueError(f"shots must be <= {MAX_SHOTS}, got {self.shots}")
        if not 0 <= self.residual_sigma < np.inf:    # NaN fails both comparisons
            raise ValueError(f"residual_sigma must be >= 0 and finite, got {self.residual_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @cached_property
    def _readout(self) -> tuple[np.ndarray, np.ndarray]:
        """By outcome y: the chance to misread y from the other state, and the
        chance to read y correctly less that."""
        m = np.asarray(self.confusion, dtype=float)
        flip = np.array([m[1, 0], m[0, 1]])
        return flip, np.array([m[0, 0], m[1, 1]]) - flip

    def observed_probability(self, p_y: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Expected observed frequency of outcome y given true P(outcome=y)."""
        flip, gain = self._readout
        y = np.asarray(y)
        return flip.take(y) + gain.take(y) * np.asarray(p_y, dtype=float)

    @classmethod
    def from_config(cls, cfg: dict) -> "NoiseModel":
        """The model of a `backend.noise` config block, read by the config reader."""
        from .config import _build   # config imports this module
        return _build(cls, cfg, "backend.noise")


class SettingError(ValueError):
    """An optimizer setting the run cannot meet; the message starts with its key."""


class BudgetError(SettingError):
    """max_estimates cannot pay for an optimizer's first charge."""


class Backend:
    """A ledger and a shot count per estimate; subclasses turn true
    probabilities into estimates with sample(p_y, y, charged), charging the
    first `charged` (all when None): the rest hold the next indices, for the
    ledger's next charge() to pay, if any.  A backend samples and charges; it
    evaluates no circuit."""

    is_noisy = False

    def __init__(self, shots: int):
        self.shots = shots
        self.ledger = MeasurementLedger()

    def charge(self, n_estimates: int) -> None:
        """Account for estimates obtained without, or past, a sample() charge."""
        self.ledger.reserve(n_estimates, self.shots)


class IdealBackend(Backend):
    """Exact projection probabilities; shots are tracked only for accounting."""

    def __init__(self, shots: int = DEFAULT_SHOTS):
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        super().__init__(shots)

    def sample(self, p_y: np.ndarray, y: np.ndarray, charged: int | None = None) -> np.ndarray:
        """Accounting-only twin of NoisyBackend.sample: the values pass through."""
        p_y = np.asarray(p_y, dtype=float)
        self.ledger.reserve(p_y.size if charged is None else charged, self.shots)
        return p_y


class NoisyBackend(Backend):
    """Confusion-matrix readout with binomial shot noise and a residual floor.

    Estimates target the observed frequency o_y, not the true p_y; inverting
    the confusion afterwards is the mitigation module's job.  The binomial.draws
    of DRAW_BLOCK indices are made at once (a larger call makes its own and keeps
    none) and kept as _kept = (first index, draws), read once and set in one
    assignment; they depend on the index alone, so racing threads at worst redraw.
    """

    is_noisy = True
    _kept = (-1, np.empty((0, 0)))

    def __init__(self, noise: NoiseModel | None = None):
        self.noise = noise if noise is not None else NoiseModel()
        super().__init__(self.noise.shots)

    def sample(self, p_y: np.ndarray, y: np.ndarray, charged: int | None = None) -> np.ndarray:
        """Noisy estimates for known true probabilities (one per entry)."""
        from . import binomial
        p_y, noise = np.asarray(p_y, dtype=float), self.noise
        o = noise.observed_probability(p_y, y)
        count, first, kept = p_y.size, *self._kept
        start = self.ledger.reserve(count if charged is None else charged, noise.shots)
        if not first <= start <= first + kept.shape[1] - count:
            first, kept = start, binomial.draws(counter_uniforms(
                noise.seed, "readout", start, max(count, DRAW_BLOCK), 2), noise.residual_sigma)
            if count < DRAW_BLOCK:
                self._kept = first, kept
        return binomial.estimates(kept[:, start - first:start - first + count], noise.shots, o)


# Seconds per ion-trap step, paid once per estimate (circuit upload and hand-off) or
# once per shot (one cool/prepare/run/detect cycle); calibrated so one 50-individual
# generation over 250 points at 150 shots lands near five and a half hours.
HARDWARE_STEPS = (("usb_load", 0.55, "estimate"), ("dds_load", 0.17, "estimate"),
                  ("fpga_receive", 0.08, "estimate"), ("cooling", 0.0027, "shot"),
                  ("preparation", 0.0002, "shot"), ("gate", 0.0003, "shot"),
                  ("detection", 0.002, "shot"))
_SECONDS_PER = {unit: sum(s for _, s, per in HARDWARE_STEPS if per == unit)
                for unit in ("estimate", "shot")}


def estimate_time(estimates: int, shots: int) -> float:
    """Modeled wall-clock seconds for `estimates` estimates of `shots` shots in all."""
    return estimates * _SECONDS_PER["estimate"] + shots * _SECONDS_PER["shot"]
