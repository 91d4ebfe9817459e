"""Experiment configuration: YAML in, fully-resolved YAML back out.

A config file describes one training run: circuit, dataset source, backend,
optimizer, and cost.  Resolution fills defaults and replaces every absent or
null seed with one derived from the master seed, so the archived copy
written next to the outputs is fully self-describing: re-running it
reproduces the run bit for bit.  Validation errors name the offending key
with its dotted path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .backend import (DEFAULT_CONFUSION, DEFAULT_RESIDUAL_SIGMA, DEFAULT_SHOTS,
                      IdealBackend, NoiseModel, NoisyBackend)
from .circuits import Ansatz, CircuitSpec
from .costs import CostKind
from .data import CircleSpec, Dataset, generate, load
from .ga import CrossoverKind, GAConfig, MutationSpec, SelectionKind
from .seeding import derive_seed
from .trainers import GradConfig, GradMethod, LineSearchSpec, OptimizerKind

GA_KIND = "ga"
OPTIMIZER_KINDS = (GA_KIND,) + tuple(k.value for k in OptimizerKind)


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


def _get_int(mapping: dict, key: str, path: str, default=None, minimum=None):
    value = mapping.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _fail(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    return value


def _get_float(mapping: dict, key: str, path: str, default=None):
    value = mapping.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{path}.{key}", f"expected a number, got {value!r}")
    return float(value)


def _get_str(mapping: dict, key: str, path: str, default=None, choices=None):
    value = mapping.get(key, default)
    if value is None:
        return None
    if not isinstance(value, str):
        raise _fail(f"{path}.{key}", f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise _fail(f"{path}.{key}", f"expected one of {', '.join(choices)}; got {value!r}")
    return value


def _get_pair(mapping: dict, key: str, path: str, default):
    value = mapping.get(key, default)
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise _fail(f"{path}.{key}", f"expected a pair of numbers, got {value!r}")
    return float(value[0]), float(value[1])


@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved experiment: every field concrete, every seed explicit."""

    seed: int
    workers: int
    output_dir: str | None
    circuit: CircuitSpec
    dataset: dict
    backend: dict
    optimizer: dict
    cost: CostKind

    @classmethod
    def from_mapping(cls, raw: dict, master_seed: int | None = None,
                     workers: int | None = None,
                     output_dir: str | None = None) -> "ExperimentConfig":
        raw = _as_mapping(raw, "config")
        _reject_unknown(raw, {"seed", "workers", "output_dir", "circuit", "dataset",
                              "backend", "optimizer", "cost"}, "config")

        seed = master_seed if master_seed is not None else _get_int(raw, "seed", "config",
                                                                    default=0, minimum=0)
        if seed is None:
            seed = 0
        if workers is None:
            workers = _get_int(raw, "workers", "config", default=1, minimum=1)
        if output_dir is None:
            output_dir = _get_str(raw, "output_dir", "config")

        circuit = cls._resolve_circuit(_as_mapping(raw.get("circuit"), "circuit"))
        dataset = cls._resolve_dataset(_as_mapping(raw.get("dataset"), "dataset"), seed)
        backend = cls._resolve_backend(_as_mapping(raw.get("backend"), "backend"), seed)
        cost_name = _get_str(raw, "cost", "config", default="cross_entropy")
        try:
            cost = CostKind.parse(cost_name)
        except ValueError as exc:
            raise _fail("config.cost", str(exc)) from None
        optimizer = cls._resolve_optimizer(_as_mapping(raw.get("optimizer"), "optimizer"), seed)
        return cls(seed=seed, workers=workers, output_dir=output_dir, circuit=circuit,
                   dataset=dataset, backend=backend, optimizer=optimizer, cost=cost)

    @staticmethod
    def _resolve_circuit(block: dict) -> CircuitSpec:
        _reject_unknown(block, {"ansatz", "layers"}, "circuit")
        name = _get_str(block, "ansatz", "circuit", default="2C")
        try:
            ansatz = Ansatz.parse(name)
        except ValueError as exc:
            raise _fail("circuit.ansatz", str(exc)) from None
        layers = _get_int(block, "layers", "circuit", default=4, minimum=1)
        return CircuitSpec(ansatz, layers)

    @staticmethod
    def _resolve_dataset(block: dict, master_seed: int) -> dict:
        _reject_unknown(block, {"source", "n", "seed", "path", "center", "radius",
                                "domain"}, "dataset")
        source = _get_str(block, "source", "dataset",
                          default="load" if "path" in block else "generate",
                          choices=("generate", "load"))
        if source == "generate" and "path" in block:
            raise _fail("dataset.path", "only valid when source is load")
        if source == "load":
            path = _get_str(block, "path", "dataset")
            if not path:
                raise _fail("dataset.path", "required when source is load")
            return {"source": "load", "path": path}
        n = _get_int(block, "n", "dataset", default=250, minimum=1)
        seed = _get_int(block, "seed", "dataset", minimum=0)
        if seed is None:
            seed = derive_seed(master_seed, "dataset")
        resolved = {"source": "generate", "n": n, "seed": seed}
        if "center" in block:
            resolved["center"] = list(_get_pair(block, "center", "dataset", None))
        if "radius" in block:
            resolved["radius"] = _get_float(block, "radius", "dataset")
        if "domain" in block:
            dom = block["domain"]
            if (not isinstance(dom, (list, tuple)) or len(dom) != 4
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                               for v in dom)):
                raise _fail("dataset.domain", f"expected [x_lo, x_hi, y_lo, y_hi], got {dom!r}")
            resolved["domain"] = [float(v) for v in dom]
        return resolved

    @staticmethod
    def _resolve_backend(block: dict, master_seed: int) -> dict:
        _reject_unknown(block, {"kind", "shots", "noise"}, "backend")
        kind = _get_str(block, "kind", "backend", default="ideal",
                        choices=("ideal", "noisy"))
        shots = _get_int(block, "shots", "backend", default=DEFAULT_SHOTS, minimum=1)
        if kind == "ideal":
            return {"kind": "ideal", "shots": shots}
        noise = _as_mapping(block.get("noise"), "backend.noise")
        _reject_unknown(noise, {"confusion", "shots", "residual_sigma", "seed"},
                        "backend.noise")
        confusion = noise.get("confusion", [list(r) for r in DEFAULT_CONFUSION])
        if (not isinstance(confusion, (list, tuple)) or len(confusion) != 2
                or any(not isinstance(r, (list, tuple)) or len(r) != 2 for r in confusion)):
            raise _fail("backend.noise.confusion", f"expected a 2x2 matrix, got {confusion!r}")
        noise_shots = _get_int(noise, "shots", "backend.noise", default=shots, minimum=1)
        sigma = _get_float(noise, "residual_sigma", "backend.noise",
                           default=DEFAULT_RESIDUAL_SIGMA)
        noise_seed = _get_int(noise, "seed", "backend.noise", minimum=0)
        if noise_seed is None:
            noise_seed = derive_seed(master_seed, "backend")
        resolved_noise = {"confusion": [[float(v) for v in row] for row in confusion],
                          "shots": noise_shots, "residual_sigma": sigma, "seed": noise_seed}
        try:
            NoiseModel.from_config(resolved_noise)
        except ValueError as exc:
            raise _fail("backend.noise", str(exc)) from None
        return {"kind": "noisy", "shots": noise_shots, "noise": resolved_noise}

    @staticmethod
    def _resolve_optimizer(block: dict, master_seed: int) -> dict:
        kind = _get_str(block, "kind", "optimizer", default=GA_KIND,
                        choices=OPTIMIZER_KINDS)
        seed = _get_int(block, "seed", "optimizer", minimum=0)
        if seed is None:
            seed = derive_seed(master_seed, "optimizer")
        if kind == GA_KIND:
            known = {"kind", "seed", "population_size", "selection", "crossover",
                     "mutation", "elitism_count", "init_range", "max_generations",
                     "target_accuracy", "tournament_size", "max_estimates"}
            _reject_unknown(block, known, "optimizer")
            mutation = _as_mapping(block.get("mutation"), "optimizer.mutation")
            _reject_unknown(mutation, {"kind", "rate", "mask_base", "scale",
                                       "delta_halfwidth"}, "optimizer.mutation")
            mut_kind = _get_str(mutation, "kind", "optimizer.mutation", default="decaying",
                                choices=("fixed", "decaying"))
            resolved_mut = {
                "kind": mut_kind,
                "rate": _get_float(mutation, "rate", "optimizer.mutation", default=0.2),
                "mask_base": _get_float(mutation, "mask_base", "optimizer.mutation",
                                        default=0.9),
                "scale": _get_float(mutation, "scale", "optimizer.mutation", default=0.25),
                "delta_halfwidth": _get_float(mutation, "delta_halfwidth",
                                              "optimizer.mutation", default=0.5),
            }
            resolved = {
                "kind": GA_KIND,
                "seed": seed,
                "population_size": _get_int(block, "population_size", "optimizer",
                                            default=50, minimum=2),
                "selection": _get_str(block, "selection", "optimizer", default="sss",
                                      choices=tuple(k.value for k in SelectionKind)),
                "crossover": _get_str(block, "crossover", "optimizer", default="scattered",
                                      choices=tuple(k.value for k in CrossoverKind)),
                "mutation": resolved_mut,
                "elitism_count": _get_int(block, "elitism_count", "optimizer",
                                          default=2, minimum=0),
                "init_range": list(_get_pair(block, "init_range", "optimizer",
                                             (-np.pi, np.pi))),
                "max_generations": _get_int(block, "max_generations", "optimizer",
                                            default=20, minimum=0),
                "target_accuracy": _get_float(block, "target_accuracy", "optimizer"),
                "tournament_size": _get_int(block, "tournament_size", "optimizer",
                                            default=3, minimum=1),
                "max_estimates": _get_int(block, "max_estimates", "optimizer", minimum=1),
            }
        else:
            known = {"kind", "seed", "gradient", "step", "learning_rate", "batch_size",
                     "max_iterations", "line_search", "init_range", "target_accuracy",
                     "max_estimates"}
            _reject_unknown(block, known, "optimizer")
            ls = _as_mapping(block.get("line_search"), "optimizer.line_search")
            _reject_unknown(ls, {"kind", "c1", "c2", "alpha0", "max_halvings"},
                            "optimizer.line_search")
            resolved_ls = {
                "kind": _get_str(ls, "kind", "optimizer.line_search", default="armijo",
                                 choices=("armijo", "wolfe")),
                "c1": _get_float(ls, "c1", "optimizer.line_search", default=1e-4),
                "c2": _get_float(ls, "c2", "optimizer.line_search", default=0.9),
                "alpha0": _get_float(ls, "alpha0", "optimizer.line_search", default=1.0),
                "max_halvings": _get_int(ls, "max_halvings", "optimizer.line_search",
                                         default=25, minimum=1),
            }
            resolved = {
                "kind": kind,
                "seed": seed,
                "gradient": _get_str(block, "gradient", "optimizer", default="analytic",
                                     choices=tuple(k.value for k in GradMethod)),
                "step": _get_float(block, "step", "optimizer", default=1e-2),
                "learning_rate": _get_float(block, "learning_rate", "optimizer",
                                            default=0.5),
                "batch_size": _get_int(block, "batch_size", "optimizer", minimum=1),
                "max_iterations": _get_int(block, "max_iterations", "optimizer",
                                           default=50, minimum=0),
                "line_search": resolved_ls,
                "init_range": list(_get_pair(block, "init_range", "optimizer",
                                             (-np.pi, np.pi))),
                "target_accuracy": _get_float(block, "target_accuracy", "optimizer"),
                "max_estimates": _get_int(block, "max_estimates", "optimizer", minimum=1),
            }
        return resolved

    def to_mapping(self) -> dict:
        out = {
            "seed": self.seed,
            "workers": self.workers,
            "circuit": {"ansatz": self.circuit.ansatz.value, "layers": self.circuit.layers},
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
        kwargs = {}
        if "center" in block:
            kwargs["center"] = tuple(block["center"])
        if "radius" in block:
            kwargs["radius"] = block["radius"]
        if "domain" in block:
            d = block["domain"]
            kwargs["domain"] = ((d[0], d[1]), (d[2], d[3]))
        try:
            circle = CircleSpec(**kwargs)
        except ValueError as exc:
            raise _fail("dataset", str(exc)) from None
        return generate(block["n"], circle, block["seed"])

    def build_backend(self):
        if self.backend["kind"] == "ideal":
            return IdealBackend(shots=self.backend["shots"])
        return NoisyBackend(NoiseModel.from_config(self.backend["noise"]))

    def build_trainer_config(self):
        """The optimizer block as a GAConfig or GradConfig instance."""
        block = dict(self.optimizer)
        kind = block.pop("kind")
        try:
            if kind == GA_KIND:
                mut = block.pop("mutation")
                return GAConfig(
                    population_size=block["population_size"],
                    selection=SelectionKind.parse(block["selection"]),
                    crossover=CrossoverKind.parse(block["crossover"]),
                    mutation=MutationSpec(**mut),
                    elitism_count=block["elitism_count"],
                    init_range=tuple(block["init_range"]),
                    max_generations=block["max_generations"],
                    target_accuracy=block["target_accuracy"],
                    fitness=self.cost,
                    seed=block["seed"],
                    tournament_size=block["tournament_size"],
                    max_estimates=block["max_estimates"],
                )
            ls = block.pop("line_search")
            return GradConfig(
                method=OptimizerKind.parse(kind),
                gradient=GradMethod.parse(block["gradient"]),
                step=block["step"],
                learning_rate=block["learning_rate"],
                batch_size=block["batch_size"],
                max_iterations=block["max_iterations"],
                line_search=LineSearchSpec(**ls),
                cost=self.cost,
                init_range=tuple(block["init_range"]),
                target_accuracy=block["target_accuracy"],
                max_estimates=block["max_estimates"],
                seed=block["seed"],
            )
        except ValueError as exc:
            raise _fail("optimizer", str(exc)) from None


def load_config(path: str | Path, master_seed: int | None = None,
                workers: int | None = None,
                output_dir: str | None = None) -> ExperimentConfig:
    path = Path(path)
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML ({exc})") from None
    return ExperimentConfig.from_mapping(raw if raw is not None else {},
                                         master_seed=master_seed, workers=workers,
                                         output_dir=output_dir)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        yaml.safe_dump(cfg.to_mapping(), fh, sort_keys=True, default_flow_style=False)


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
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = {}
                node[part] = nxt
            elif not isinstance(nxt, dict):
                raise ConfigError(f"override {key!r}: {part} is not a mapping")
            node = nxt
        node[parts[-1]] = value
    return raw
