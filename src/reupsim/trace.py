"""Per-iteration training records with a fixed CSV schema.

Every optimizer emits one row per iteration/generation.  wall_ms is modeled
hardware time (from the time-budget constants and the measurement ledger),
not host wall clock, so re-running an archived experiment reproduces the
trace byte for byte.  The diversity column is populated by the population
optimizer only and left empty otherwise.

Every optimizer starts its trace with TrainingTrace.start and hands each
step's candidates to TrainingTrace.record, which keeps the incumbent it
returns and ends the run at the target, the last step or the budget.
"""

from __future__ import annotations

import csv
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .backend import BudgetError, MeasurementLedger, estimate_time
from .data import rewrite

TRACE_HEADER = ("iter", "best_accuracy", "best_loss", "diversity",
                "cum_estimates", "cum_shots", "wall_ms")


class TrainingError(RuntimeError):
    """Raised when a backend failure interrupts an optimizer loop."""


class backend_failures:
    """Context manager that re-raises a failure inside the block as
    TrainingError naming `where` (an iteration or generation); ValueError,
    bad input, passes through."""

    def __init__(self, where: str):
        self.where = where

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, Exception) and not isinstance(exc, (ValueError, TrainingError)):
            raise TrainingError(f"backend failure at {self.where}: {exc}") from exc


def reject_unread(config, unread: dict[str, str]) -> None:
    """A field of `config` named in `unread` and set away from its default is
    an error naming what does not read it; archived configs write every field,
    so one at its default passes."""
    for f in fields(config):
        default = f.default_factory() if f.default is MISSING else f.default
        if f.name in unread and getattr(config, f.name) != default:
            raise ValueError(f"{f.name} is not read by {unread[f.name]}; "
                             "leave it out or at its default")


@dataclass(frozen=True)
class RunLimits:
    """The settings every optimizer shares: where its initial parameters are
    drawn, when it stops early, and its seed."""

    init_range: tuple[float, float] = (-np.pi, np.pi)
    target_accuracy: float | None = None
    max_estimates: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.init_range[0] >= self.init_range[1]:
            raise ValueError(f"init_range is empty: {self.init_range}")
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            raise ValueError(f"target_accuracy must lie in (0, 1], got {self.target_accuracy}")
        if self.max_estimates is not None and self.max_estimates < 1:
            raise ValueError(f"max_estimates must be >= 1, got {self.max_estimates}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    best_accuracy: float
    best_loss: float
    diversity: float | None
    cum_estimates: int
    cum_shots: int
    wall_ms: float

    def as_csv(self) -> list[str]:
        return [
            str(self.iteration),
            repr(float(self.best_accuracy)),
            repr(float(self.best_loss)),
            "" if self.diversity is None else repr(float(self.diversity)),
            str(self.cum_estimates),
            str(self.cum_shots),
            repr(float(self.wall_ms)),
        ]


@dataclass
class TrainingTrace:
    """The rows of a run plus its incumbent: `best_theta`, the candidate whose
    measured cost is the last row's best_loss.  A live run's trace also holds
    its limits and the ledger it reads; traces compare by their rows alone."""

    rows: list[TraceRow] = field(default_factory=list)
    target_accuracy: float | None = field(default=None, compare=False)
    max_steps: int | None = field(default=None, compare=False)
    max_estimates: int | None = field(default=None, compare=False)
    ledger: MeasurementLedger | None = field(default=None, compare=False)
    best_theta: np.ndarray | None = field(default=None, init=False, compare=False)

    @classmethod
    def start(cls, limits: RunLimits, max_steps: int, ledger: MeasurementLedger,
              first: int, what: str) -> "TrainingTrace":
        """The trace of a run of at most `max_steps` steps that charges `ledger`;
        BudgetError unless its first charge, `what`, of `first` estimates fits."""
        trace = cls(target_accuracy=limits.target_accuracy, max_steps=max_steps,
                    max_estimates=limits.max_estimates, ledger=ledger)
        if not trace.allows(first):
            held = ledger.total_estimates
            on_top = f" on top of {held} already charged" if held else ""
            raise BudgetError(f"max_estimates={limits.max_estimates} is below {what} = "
                              f"{first} estimates{on_top}")
        return trace

    def allows(self, upcoming: int) -> bool:
        """Whether `upcoming` more estimates keep the ledger within max_estimates."""
        return (self.max_estimates is None
                or self.ledger.total_estimates + upcoming <= self.max_estimates)

    def append(self, iteration: int, best_accuracy: float, best_loss: float,
               diversity: float | None, cum_estimates: int, cum_shots: int,
               wall_ms: float) -> None:
        if self.rows:
            last = self.rows[-1]
            if cum_estimates < last.cum_estimates or cum_shots < last.cum_shots:
                raise ValueError("cumulative counters must not decrease")
        self.rows.append(TraceRow(iteration, best_accuracy, best_loss, diversity,
                                  cum_estimates, cum_shots, wall_ms))

    def record(self, iteration: int, thetas: np.ndarray, values, accuracies,
               next_step: int, diversity: float | None = None,
               maximize: bool = False) -> bool:
        """Append the row of a step that measured `thetas` (one candidate per
        row) at cost `values` and `accuracies`; True when the run ends here:
        at the target, at step max_steps, or when the `next_step` estimates
        would overrun the budget.

        The first candidate with the best cost is the incumbent, replaced only
        by a strictly better cost (higher when `maximize`).  best_accuracy is
        the largest accuracy measured on any candidate so far, returned or
        not, and the target stop compares it.
        """
        values = np.asarray(values, dtype=float)
        scores = values if maximize else -values
        i = int(scores.argmax())
        last = self.rows[-1] if self.rows else None
        best_loss = last.best_loss if last else None
        if best_loss is None or scores[i] > (best_loss if maximize else -best_loss):
            best_loss, self.best_theta = float(values[i]), np.array(thetas[i], dtype=float)
        best_accuracy = float(max(accuracies))
        if last:
            best_accuracy = max(last.best_accuracy, best_accuracy)
        est, shots = self.ledger.snapshot()
        self.append(iteration, best_accuracy, best_loss, diversity, est, shots,
                    estimate_time(est, shots) * 1000.0)
        return ((self.target_accuracy is not None and best_accuracy >= self.target_accuracy)
                or iteration == self.max_steps or not self.allows(next_step))

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def final(self) -> TraceRow:
        if not self.rows:
            raise ValueError("trace is empty")
        return self.rows[-1]

    def write_csv(self, path: str | Path) -> None:
        """The header and the rows, as csv.writer writes them: no cell needs quoting."""
        lines = [",".join(TRACE_HEADER), *(",".join(row.as_csv()) for row in self.rows), ""]
        with rewrite(path, newline="") as fh:
            fh.write("\r\n".join(lines))

    @classmethod
    def read_csv(cls, path: str | Path) -> "TrainingTrace":
        trace = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != TRACE_HEADER:
                raise ValueError(f"{path}: expected header {','.join(TRACE_HEADER)}")
            for row in reader:
                trace.append(int(row[0]), float(row[1]), float(row[2]),
                             None if row[3] == "" else float(row[3]),
                             int(row[4]), int(row[5]), float(row[6]))
        return trace
