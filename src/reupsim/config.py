"""Experiment configuration: YAML in, fully-resolved YAML back out.

A config file describes one training run: circuit, dataset source, backend,
optimizer, and cost.  Resolution fills defaults and replaces every absent or
null seed with one derived from the master seed, so the archived copy
written next to the outputs is fully self-describing: re-running it
reproduces the run bit for bit.  Validation errors name the offending key
with its dotted path.  Every block backed by a dataclass is read by `_build`
through that dataclass's fields (CircuitSpec; the dataset's CircleSpec keys;
NoiseModel; GAConfig, GradConfig and their nested specs), which hold its
defaults and range checks; a range error names the block.  The CLI builds
its circuit and circle flags the same way.  Every kind name (an Enum or
Literal field) is matched by `_choose`, ignoring case.
"""

from __future__ import annotations

import enum
import functools
import math
import typing
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import yaml

from .backend import DEFAULT_SHOTS, IdealBackend, NoiseModel, NoisyBackend
from .circuits import CircuitSpec
from .costs import CostKind
from .data import TRAIN_SIZE, CircleSpec, Dataset, generate, load, rewrite
from .ga import GAConfig
from .seeding import derive_seed
from .trainers import GradConfig, OptimizerKind

GA_KIND = "ga"
OPTIMIZER_KINDS = (GA_KIND,) + tuple(k.value for k in OptimizerKind)
# trainer-config fields set from outside the optimizer block (cost, kind)
_NOT_IN_BLOCK = ("fitness", "method", "cost")


class ConfigError(ValueError):
    """Config validation failure; the message carries the dotted key path."""


def _fail(path: str, message: str) -> "ConfigError":
    return ConfigError(f"{path}: {message}")


def _as_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise _fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, known: set[str], path: str) -> None:
    extra = sorted(set(mapping) - known)
    if extra:
        raise _fail(f"{path}.{extra[0]}", "unknown key")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _choose(name: str, options: Sequence[str], path: str) -> str:
    """The option that kind name `name` matches, ignoring case, as written in
    `options`."""
    for option in options:
        if option.lower() == name.lower():
            return option
    raise _fail(path, f"expected one of {', '.join(options)}; got {name!r}")


def _coerce(kind, value, path: str):
    """A non-null `value` as the type `kind`: an int, a finite float, a
    string, a kind name (an Enum member, or a string of a Literal, matched by
    _choose), or a tuple of floats or of such tuples (a matrix)."""
    if typing.get_origin(kind) is tuple:
        items = typing.get_args(kind)
        rows = typing.get_args(items[0])     # a matrix: a tuple of tuples
        if (isinstance(value, (list, tuple)) and len(value) == len(items)
                and (rows or all(map(_is_number, value)))):
            return tuple(_coerce(item, v, path) for item, v in zip(items, value))
        expected = f"a {len(items)}x{len(rows)} matrix" if rows else f"{len(items)} numbers"
        raise _fail(path, f"expected {expected}, got {value!r}")
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is float and _is_number(value):
        try:
            number = float(value)
        except OverflowError:           # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise _fail(path, f"must be finite, got {number}")
        return number
    if kind is str and isinstance(value, str):
        return value
    if isinstance(value, str) and typing.get_origin(kind) is typing.Literal:
        return _choose(value, typing.get_args(kind), path)
    if isinstance(value, str) and issubclass(kind, enum.Enum):
        return kind(_choose(value, [member.value for member in kind], path))
    expected = {int: "an integer", float: "a number"}.get(kind, "a string")
    raise _fail(path, f"expected {expected}, got {value!r}")


def _get(mapping: dict, key: str, path: str, kind, default=None, minimum=None):
    """mapping[key] as a `kind` (read by _coerce), or `default` when the key
    is absent or null."""
    value = mapping.get(key)
    if value is None:
        return default
    path = f"{path}.{key}"
    value = _coerce(kind, value, path)
    if minimum is not None and value < minimum:
        raise _fail(path, f"must be >= {minimum}, got {value}")
    return value


@functools.cache
def _field_types(cls) -> dict:
    """The annotated type of each field of dataclass `cls`, `X | None` read
    as X: a null key takes the field's default instead."""
    out = {}
    for name, kind in typing.get_type_hints(cls).items():
        args = typing.get_args(kind)
        out[name] = next(k for k in args if k is not type(None)) if type(None) in args else kind
    return out


def _build(cls, block, path: str, **given):
    """Dataclass `cls` from a config block holding one key per field not `given`.

    Each key is read as its field's annotated type, and an absent or null key
    takes the field's default; the dataclass checks the ranges, and its
    errors name the block.
    """
    block = _as_mapping(block, path)
    names = [f.name for f in fields(cls) if f.name not in given]
    _reject_unknown(block, set(names), path)
    types = _field_types(cls)
    for name in names:
        kind = types[name]
        if is_dataclass(kind):
            given[name] = _build(kind, block.get(name), f"{path}.{name}")
        elif block.get(name) is not None:
            given[name] = _coerce(kind, block[name], f"{path}.{name}")
    try:
        return cls(**given)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def _archived(obj) -> dict:
    """The config block of a dataclass made by _build: enums by value, tuples
    (nested ones included) as lists."""
    out = {}
    for f in fields(obj):
        if f.name in _NOT_IN_BLOCK:
            continue
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = _archived(value)
        elif isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        out[f.name] = value
    return out


def _trainer_config(optimizer: dict, cost: CostKind) -> GAConfig | GradConfig:
    block = dict(optimizer)
    kind = block.pop("kind")
    if kind == GA_KIND:
        return _build(GAConfig, block, "optimizer", fitness=cost)
    return _build(GradConfig, block, "optimizer", method=OptimizerKind(kind), cost=cost)


def _circle(block: dict) -> CircleSpec:
    """The dataset boundary from the center, radius and domain keys of `block`."""
    return _build(CircleSpec, {f.name: block.get(f.name) for f in fields(CircleSpec)},
                  "dataset")


@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved experiment: every field concrete, every seed explicit.  The
    backend and optimizer blocks are kept as archived and, in `noise` and
    `trainer`, as the NoiseModel (None when ideal) and the GAConfig or
    GradConfig read from them; configs compare by their blocks."""

    seed: int
    workers: int
    output_dir: str | None
    circuit: CircuitSpec
    dataset: dict
    backend: dict
    optimizer: dict
    cost: CostKind
    noise: NoiseModel | None = field(compare=False, repr=False)
    trainer: GAConfig | GradConfig = field(compare=False, repr=False)

    @classmethod
    def from_mapping(cls, raw: dict, master_seed: int | None = None,
                     workers: int | None = None,
                     output_dir: str | None = None) -> "ExperimentConfig":
        raw = _as_mapping(raw, "config")
        _reject_unknown(raw, {"seed", "workers", "output_dir", "circuit", "dataset",
                              "backend", "optimizer", "cost"}, "config")
        seed = (master_seed if master_seed is not None
                else _get(raw, "seed", "config", int, 0, minimum=0))
        if workers is None:
            workers = _get(raw, "workers", "config", int, 1, minimum=1)
        if output_dir is None:
            output_dir = _get(raw, "output_dir", "config", str)

        circuit = _build(CircuitSpec, raw.get("circuit"), "circuit")
        dataset = cls._resolve_dataset(_as_mapping(raw.get("dataset"), "dataset"), seed)
        backend, noise = cls._resolve_backend(_as_mapping(raw.get("backend"), "backend"), seed)
        cost = _get(raw, "cost", "config", CostKind, CostKind.CROSS_ENTROPY)
        optimizer, trainer = cls._resolve_optimizer(
            _as_mapping(raw.get("optimizer"), "optimizer"), seed, cost)
        return cls(seed=seed, workers=workers, output_dir=output_dir, circuit=circuit,
                   dataset=dataset, backend=backend, optimizer=optimizer, cost=cost,
                   noise=noise, trainer=trainer)

    @staticmethod
    def _resolve_dataset(block: dict, master_seed: int) -> dict:
        _reject_unknown(block, {"source", "n", "seed", "path", "center", "radius",
                                "domain"}, "dataset")
        has_path = block.get("path") is not None
        source = _get(block, "source", "dataset", typing.Literal["generate", "load"],
                      "load" if has_path else "generate")
        if source == "generate" and has_path:
            raise _fail("dataset.path", "only valid when source is load")
        if source == "load":
            path = _get(block, "path", "dataset", str)
            if not path:
                raise _fail("dataset.path", "required when source is load")
            for key in ("n", "seed", "center", "radius", "domain"):
                if block.get(key) is not None:
                    raise _fail(f"dataset.{key}", "only valid when source is generate")
            return {"source": "load", "path": path}
        seed = _get(block, "seed", "dataset", int, minimum=0)
        n = _get(block, "n", "dataset", int, TRAIN_SIZE, minimum=1)
        circle = _archived(_circle(block))   # only the keys given are archived
        return {"source": "generate", "n": n,
                "seed": derive_seed(master_seed, "dataset") if seed is None else seed,
                **{k: v for k, v in circle.items() if block.get(k) is not None}}

    @staticmethod
    def _resolve_backend(block: dict, master_seed: int) -> tuple[dict, NoiseModel | None]:
        """The backend block with every field filled in, and its NoiseModel if noisy."""
        _reject_unknown(block, {"kind", "shots", "noise"}, "backend")
        kind = _get(block, "kind", "backend", typing.Literal["ideal", "noisy"], "ideal")
        shots = _get(block, "shots", "backend", int, DEFAULT_SHOTS, minimum=1)
        if kind == "ideal":
            if block.get("noise") is not None:
                raise _fail("backend.noise", "only valid when kind is noisy")
            return {"kind": "ideal", "shots": shots}, None
        # the two noise defaults that depend on context: backend.shots and a derived seed
        given = _as_mapping(block.get("noise"), "backend.noise")
        context = {"shots": shots, "seed": derive_seed(master_seed, "backend")}
        model = _build(NoiseModel, {**given, **{k: v for k, v in context.items()
                                                if given.get(k) is None}}, "backend.noise")
        if block.get("shots") is not None and model.shots != shots:
            raise _fail("backend.noise.shots", f"{model.shots} differs from "
                        f"backend.shots = {shots}; set one of the two")
        return {"kind": "noisy", "shots": model.shots, "noise": _archived(model)}, model

    @staticmethod
    def _resolve_optimizer(block: dict, master_seed: int,
                           cost: CostKind) -> tuple[dict, GAConfig | GradConfig]:
        """The optimizer block with every GAConfig or GradConfig field filled in,
        and that GAConfig or GradConfig."""
        kind = _get(block, "kind", "optimizer", typing.Literal[OPTIMIZER_KINDS], GA_KIND)
        seed = _get(block, "seed", "optimizer", int)
        if seed is None:
            seed = derive_seed(master_seed, "optimizer")
        trainer = _trainer_config({**block, "kind": kind, "seed": seed}, cost)
        return {"kind": kind, **_archived(trainer)}, trainer

    def to_mapping(self) -> dict:
        out = {
            "seed": self.seed,
            "workers": self.workers,
            "circuit": _archived(self.circuit),
            "dataset": self.dataset,
            "backend": self.backend,
            "optimizer": self.optimizer,
            "cost": self.cost.value,
        }
        if self.output_dir is not None:
            out["output_dir"] = str(self.output_dir)
        return out

    def build_dataset(self) -> Dataset:
        block = self.dataset
        if block["source"] == "load":
            return load(block["path"])
        return generate(block["n"], _circle(block), block["seed"])

    def build_backend(self):
        """A new backend: its ledger starts at zero."""
        if self.noise is None:
            return IdealBackend(shots=self.backend["shots"])
        return NoisyBackend(self.noise)


def read_config(path: str | Path | None, overrides: Sequence[str] = ()) -> dict:
    """The raw mapping of a YAML config file (no file: an empty one), with
    `dotted.key=value` overrides applied."""
    raw = None
    if path is not None:
        with open(path, "rb") as fh:    # bytes: PyYAML reports a bad encoding as YAMLError
            try:
                raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
            except yaml.YAMLError:
                fh.seek(0)      # the pure-Python loader words the message
                try:
                    raw = yaml.safe_load(fh)
                except yaml.YAMLError as exc:
                    raise ConfigError(f"{path}: not valid YAML ({exc})") from None
    return apply_overrides(_as_mapping(raw, "config"), overrides)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    with rewrite(path) as fh:
        yaml.dump(cfg.to_mapping(), fh, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper),
                  sort_keys=True, default_flow_style=False)


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply `dotted.key=value` pairs (values parsed as YAML) to a raw mapping."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, text = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"override {item!r} has an empty key")
        try:
            value = yaml.safe_load(text)
        except yaml.YAMLError:
            raise ConfigError(f"override {item!r}: value is not valid YAML") from None
        set_dotted(raw, key, value)
    return raw


def set_dotted(raw: dict, key: str, value) -> None:
    """Set `dotted.key` in a raw mapping, making absent or null parents."""
    node = raw
    *parents, leaf = key.split(".")
    for part in parents:
        if node.get(part) is None:
            node[part] = {}
        elif not isinstance(node[part], dict):
            raise ConfigError(f"{key}: {part} is not a mapping")
        node = node[part]
    node[leaf] = value
