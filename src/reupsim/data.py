"""Synthetic circle-classification dataset and CSV round-tripping.

Points are drawn uniformly from an axis-aligned box and labeled 1 when they
fall strictly inside a fixed circle.  The default boundary is the circle of
radius sqrt(2/pi) centered at the origin inside [-1, 1]^2, which splits the
box into two equal-area classes.  Boundary points (measure zero under the
uniform draw) count as outside.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import stat
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .seeding import derive_seed

TRAIN_SIZE = 250
TEST_SIZE = 1000

CSV_HEADER = ("x0", "x1", "label")


@dataclass(frozen=True)
class CircleSpec:
    """Circular decision boundary inside a rectangular sampling domain
    (x_lo, x_hi, y_lo, y_hi)."""

    center: tuple[float, float] = (0.0, 0.0)
    radius: float = float(np.sqrt(2.0 / np.pi))
    domain: tuple[float, float, float, float] = (-1.0, 1.0, -1.0, 1.0)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        x_lo, x_hi, y_lo, y_hi = self.domain
        if x_lo >= x_hi or y_lo >= y_hi:
            raise ValueError(f"domain box has no area: {self.domain}")
        cx, cy = self.center
        if (cx - self.radius < x_lo or cx + self.radius > x_hi
                or cy - self.radius < y_lo or cy + self.radius > y_hi):
            raise ValueError(f"circle (center {self.center}, radius {self.radius}) "
                             f"does not fit inside domain {self.domain}")

    def classify(self, x: np.ndarray) -> np.ndarray:
        """1 for points strictly inside the circle, 0 otherwise."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        d = x - np.asarray(self.center)
        return (np.einsum("ij,ij->i", d, d) < self.radius**2).astype(int)


DEFAULT_BOUNDARY = CircleSpec()


@dataclass(frozen=True)
class Dataset:
    """Labeled sample: coordinates (n, 2), labels (n,) in {0, 1}.

    Labels always agree with the boundary's classification of the points;
    construction fails otherwise.
    """

    x: np.ndarray
    y: np.ndarray
    boundary: CircleSpec = field(default_factory=lambda: DEFAULT_BOUNDARY)
    seed: int = 0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=int)
        if x.ndim != 2 or x.shape[1] != 2:
            raise ValueError(f"x must have shape (n, 2), got {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(f"y must have shape ({x.shape[0]},), got {y.shape}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        mismatch = np.nonzero(y != self.boundary.classify(x))[0]
        if mismatch.size:
            raise ValueError(f"label of point {mismatch[0]} disagrees with the boundary")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_designs", {})

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        """The points at `idx` and the designs this holds, sliced, unchecked (they fit)."""
        sub = object.__new__(Dataset)
        sub.__dict__.update(vars(self), x=self.x[idx], y=self.y[idx],
                            _designs={a: d.take(idx) for a, d in self._designs.items()})
        return sub

    def design(self, ansatz):
        """The circuits.Design of this dataset under `ansatz`, built once; none if empty."""
        if not len(self):
            raise ValueError("dataset is empty")
        if ansatz not in self._designs:
            from .circuits import Design
            self._designs[ansatz] = Design(ansatz, self.x, self.y)
        return self._designs[ansatz]


def generate(n: int, spec: CircleSpec = DEFAULT_BOUNDARY, seed: int = 0) -> Dataset:
    """n uniform points over the domain box with their circle labels."""
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    rng = np.random.default_rng(seed)
    x_lo, x_hi, y_lo, y_hi = spec.domain
    x = np.column_stack([rng.uniform(x_lo, x_hi, n), rng.uniform(y_lo, y_hi, n)])
    return Dataset(x, spec.classify(x), spec, seed)


def canonical_split(seed: int, split: str, n: int | None = None,
                    spec: CircleSpec = DEFAULT_BOUNDARY) -> Dataset:
    """The canonical "train" or "test" draw from `seed`: n points, TRAIN_SIZE or
    TEST_SIZE by default, from the seed derived under "data/<split>"."""
    size = {"train": TRAIN_SIZE, "test": TEST_SIZE}[split] if n is None else n
    return generate(size, spec, derive_seed(seed, f"data/{split}"))


def generate_splits(seed: int, train_size: int = TRAIN_SIZE) -> tuple[Dataset, Dataset]:
    """Independent canonical train/test draws about the default boundary."""
    return canonical_split(seed, "train", train_size), canonical_split(seed, "test")


def save(ds: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV; floats keep full round-trip precision."""
    x_lo, x_hi, y_lo, y_hi = ds.boundary.domain
    with rewrite(path, newline="") as fh:
        fh.write(f"# boundary center={ds.boundary.center[0]!r},{ds.boundary.center[1]!r}"
                 f" radius={ds.boundary.radius!r}"
                 f" domain={x_lo!r},{x_hi!r},{y_lo!r},{y_hi!r} seed={ds.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for (x0, x1), label in zip(ds.x, ds.y):
            writer.writerow([repr(float(x0)), repr(float(x1)), int(label)])


def _parse_boundary_line(line: str, path: Path) -> tuple[CircleSpec, int]:
    fields = dict(tok.split("=", 1) for tok in line.lstrip("# ").split() if "=" in tok)
    try:
        cx, cy = (float(v) for v in fields["center"].split(","))
        radius = float(fields["radius"])
        x_lo, x_hi, y_lo, y_hi = (float(v) for v in fields["domain"].split(","))
        seed = int(fields["seed"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}:1: malformed boundary line ({exc})") from None
    if not np.isfinite((cx, cy, radius, x_lo, x_hi, y_lo, y_hi)).all():
        raise ValueError(f"{path}:1: boundary line has a value that is not finite")
    try:
        return CircleSpec((cx, cy), radius, (x_lo, x_hi, y_lo, y_hi)), seed
    except ValueError as exc:
        raise ValueError(f"{path}:1: {exc}") from None


def read_utf8(path: str | Path) -> io.StringIO:
    """A UTF-8 text file, less any byte-order mark, as a stream that splits lines
    as open(newline="") does; bytes that are not UTF-8 are a ValueError naming it."""
    raw = Path(path).read_bytes()
    try:
        return io.StringIO(raw.decode("utf-8-sig"), newline="")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None


@contextlib.contextmanager
def rewrite(path: str | Path, newline: str | None = None):
    """open(path, "w", newline=newline), parents made, that overwrites the file in place
    and cuts it at the written end: truncating first makes ext4 flush and discard on close."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline=newline) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not a device or a pipe
                fh.truncate()


def load(path: str | Path) -> Dataset:
    """Read a dataset CSV written by save; load(save(d)) reproduces d exactly."""
    path = Path(path)
    with read_utf8(path) as fh:
        first = fh.readline()
        if first.startswith("#"):
            boundary, seed = _parse_boundary_line(first, path)
            header_line = 2
        else:
            boundary, seed = DEFAULT_BOUNDARY, 0
            fh.seek(0)
            header_line = 1
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise ValueError(f"{path}:{header_line}: expected header "
                             f"{','.join(CSV_HEADER)}, got {header}")
        xs, ys = [], []
        for lineno, row in enumerate(reader, start=header_line + 1):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            for name, value in zip(CSV_HEADER, row):
                kind = int if name == "label" else float
                try:
                    number = kind(value)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: field {name!r} is not a valid "
                        f"{kind.__name__}: {value!r}") from None
                if not (np.isfinite(number) if kind is float else number in (0, 1)):
                    raise ValueError(f"{path}:{lineno}: field {name!r} is not "
                                     f"{'finite' if kind is float else '0 or 1'}: {value!r}")
            xs.append([float(row[0]), float(row[1])])
            ys.append(int(row[2]))
    if not xs:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(xs), np.array(ys), boundary, seed)
