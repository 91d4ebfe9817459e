"""Experiment config resolution, round trips, and validation paths."""

import numpy as np
import pytest

from reupsim.backend import IdealBackend, NoisyBackend
from reupsim.circuits import Ansatz
from reupsim.config import (ConfigError, ExperimentConfig, apply_overrides,
                            load_config, save_config)
from reupsim.costs import CostKind
from reupsim.data import generate
from reupsim.ga import GAConfig
from reupsim.seeding import derive_seed
from reupsim.trainers import GradConfig, OptimizerKind


def test_empty_mapping_resolves_to_full_defaults():
    cfg = ExperimentConfig.from_mapping({})
    assert cfg.seed == 0
    assert cfg.workers == 1
    assert cfg.output_dir is None
    assert cfg.circuit.ansatz is Ansatz.A2C
    assert cfg.circuit.layers == 4
    assert cfg.cost is CostKind.CROSS_ENTROPY
    assert cfg.dataset == {"source": "generate", "n": 250,
                           "seed": derive_seed(0, "dataset")}
    assert cfg.backend == {"kind": "ideal", "shots": 150}
    assert cfg.optimizer["kind"] == "ga"
    assert cfg.optimizer["seed"] == derive_seed(0, "optimizer")
    assert cfg.optimizer["population_size"] == 50


def test_absent_seeds_derive_from_the_master_seed():
    cfg = ExperimentConfig.from_mapping({"seed": 9, "backend": {"kind": "noisy"}})
    assert cfg.dataset["seed"] == derive_seed(9, "dataset")
    assert cfg.backend["noise"]["seed"] == derive_seed(9, "backend")
    assert cfg.optimizer["seed"] == derive_seed(9, "optimizer")
    # explicit seeds win over derivation
    pinned = ExperimentConfig.from_mapping(
        {"seed": 9, "dataset": {"seed": 4}, "optimizer": {"seed": 5}})
    assert pinned.dataset["seed"] == 4
    assert pinned.optimizer["seed"] == 5


def test_master_seed_argument_overrides_the_file_seed():
    cfg = ExperimentConfig.from_mapping({"seed": 3, "workers": 2}, master_seed=11,
                                        workers=8, output_dir="out")
    assert cfg.seed == 11
    assert cfg.workers == 8
    assert cfg.output_dir == "out"
    assert cfg.dataset["seed"] == derive_seed(11, "dataset")


def test_unknown_keys_report_their_dotted_path():
    with pytest.raises(ConfigError, match=r"config\.shots: unknown key"):
        ExperimentConfig.from_mapping({"shots": 100})
    with pytest.raises(ConfigError, match=r"circuit\.depth: unknown key"):
        ExperimentConfig.from_mapping({"circuit": {"depth": 3}})
    with pytest.raises(ConfigError, match=r"optimizer\.mutation\.sigma: unknown key"):
        ExperimentConfig.from_mapping({"optimizer": {"mutation": {"sigma": 0.1}}})


def test_value_errors_report_their_dotted_path():
    with pytest.raises(ConfigError, match=r"circuit\.layers: must be >= 1"):
        ExperimentConfig.from_mapping({"circuit": {"layers": 0}})
    with pytest.raises(ConfigError, match=r"config\.cost"):
        ExperimentConfig.from_mapping({"cost": "hinge"})
    with pytest.raises(ConfigError, match=r"circuit\.ansatz"):
        ExperimentConfig.from_mapping({"circuit": {"ansatz": "3A"}})
    with pytest.raises(ConfigError, match=r"backend\.kind: expected one of"):
        ExperimentConfig.from_mapping({"backend": {"kind": "hardware"}})
    with pytest.raises(ConfigError, match=r"dataset\.path: required"):
        ExperimentConfig.from_mapping({"dataset": {"source": "load"}})
    with pytest.raises(ConfigError, match=r"optimizer\.init_range"):
        ExperimentConfig.from_mapping({"optimizer": {"init_range": [1, 2, 3]}})
    with pytest.raises(ConfigError, match=r"backend\.noise"):
        ExperimentConfig.from_mapping(
            {"backend": {"kind": "noisy", "noise": {"confusion": [[2, -1], [0, 1]]}}})


def test_noisy_backend_resolution_and_build():
    cfg = ExperimentConfig.from_mapping(
        {"seed": 2, "backend": {"kind": "noisy", "shots": 500,
                                "noise": {"residual_sigma": 0.01}}})
    noise = cfg.backend["noise"]
    assert noise["shots"] == 500
    assert noise["residual_sigma"] == 0.01
    assert noise["seed"] == derive_seed(2, "backend")
    backend = cfg.build_backend()
    assert isinstance(backend, NoisyBackend)
    assert backend.shots == 500

    ideal = ExperimentConfig.from_mapping({}).build_backend()
    assert isinstance(ideal, IdealBackend)


def test_build_dataset_matches_direct_generation():
    cfg = ExperimentConfig.from_mapping(
        {"dataset": {"n": 40, "seed": 12, "radius": 0.5}})
    ds = cfg.build_dataset()
    assert len(ds) == 40
    assert ds.boundary.radius == 0.5
    from reupsim.data import CircleSpec
    expected = generate(40, CircleSpec(radius=0.5), seed=12)
    np.testing.assert_array_equal(ds.x, expected.x)
    np.testing.assert_array_equal(ds.y, expected.y)


def test_build_dataset_from_a_csv_file(tmp_path):
    from reupsim.data import save
    ds = generate(15, seed=7)
    path = tmp_path / "points.csv"
    save(ds, path)
    cfg = ExperimentConfig.from_mapping({"dataset": {"source": "load",
                                                     "path": str(path)}})
    back = cfg.build_dataset()
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.y, ds.y)


def test_build_trainer_config_ga_and_gradient():
    cfg = ExperimentConfig.from_mapping(
        {"cost": "chi_squared",
         "optimizer": {"kind": "ga", "population_size": 12, "seed": 3,
                       "mutation": {"kind": "fixed", "rate": 0.4}}})
    trainer = cfg.build_trainer_config()
    assert isinstance(trainer, GAConfig)
    assert trainer.population_size == 12
    assert trainer.fitness is CostKind.CHI_SQUARED
    assert trainer.mutation.kind == "fixed"
    assert trainer.mutation.rate == 0.4

    grad_cfg = ExperimentConfig.from_mapping(
        {"optimizer": {"kind": "bfgs_standard", "gradient": "finite_difference",
                       "step": 0.5, "seed": 1,
                       "line_search": {"kind": "wolfe"}}})
    trainer = grad_cfg.build_trainer_config()
    assert isinstance(trainer, GradConfig)
    assert trainer.method is OptimizerKind.BFGS_STANDARD
    assert trainer.step == 0.5
    assert trainer.line_search.kind == "wolfe"


def test_yaml_round_trip_preserves_the_resolved_config(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"seed": 5, "workers": 4, "output_dir": "runs/a",
         "backend": {"kind": "noisy", "shots": 200},
         "optimizer": {"kind": "sgd", "batch_size": 16}})
    path = tmp_path / "config.yaml"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg


def test_load_config_rejects_invalid_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("foo: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(path)


def test_load_config_of_an_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(path)
    assert cfg.seed == 0


def test_apply_overrides_sets_nested_keys():
    raw = {"backend": {"kind": "noisy"}}
    out = apply_overrides(raw, ["optimizer.population_size=9", "seed=3",
                                "backend.noise.shots=75",
                                "optimizer.init_range=[-1.0, 1.0]"])
    assert out["optimizer"]["population_size"] == 9
    assert out["seed"] == 3
    assert out["backend"]["noise"]["shots"] == 75
    assert out["optimizer"]["init_range"] == [-1.0, 1.0]
    # the resulting mapping must still resolve
    cfg = ExperimentConfig.from_mapping(out)
    assert cfg.optimizer["population_size"] == 9


def test_apply_overrides_error_paths():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["no-equals-sign"])
    with pytest.raises(ConfigError, match="empty key"):
        apply_overrides({}, ["=5"])
    with pytest.raises(ConfigError, match="not a mapping"):
        apply_overrides({"seed": 3}, ["seed.nested=1"])
    with pytest.raises(ConfigError, match="not valid YAML"):
        apply_overrides({}, ["seed=[unclosed"])


def test_a_dataset_path_without_a_source_loads_that_file(tmp_path):
    from reupsim.data import save
    ds = generate(9, seed=3)
    path = tmp_path / "train.csv"
    save(ds, path)
    cfg = ExperimentConfig.from_mapping({"dataset": {"path": str(path)}})
    assert cfg.dataset == {"source": "load", "path": str(path)}
    back = cfg.build_dataset()
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.y, ds.y)


def test_a_dataset_path_with_the_generate_source_is_rejected():
    with pytest.raises(ConfigError, match=r"dataset\.path: only valid when source is load"):
        ExperimentConfig.from_mapping({"dataset": {"source": "generate",
                                                   "path": "train.csv"}})


@pytest.mark.parametrize("key,value", [("n", 40), ("seed", 3), ("center", [0.1, 0.0]),
                                       ("radius", 0.2), ("domain", [-1, 1, -1, 1])])
@pytest.mark.parametrize("source", [{}, {"source": "load"}])
def test_generate_only_dataset_keys_are_rejected_when_loading(key, value, source):
    block = {"path": "train.csv", key: value, **source}
    with pytest.raises(ConfigError,
                       match=rf"dataset\.{key}: only valid when source is generate"):
        ExperimentConfig.from_mapping({"dataset": block})
    # a null value still means "not given"
    cfg = ExperimentConfig.from_mapping({"dataset": {"path": "train.csv", key: None}})
    assert cfg.dataset == {"source": "load", "path": "train.csv"}


def test_a_noise_block_on_the_ideal_backend_is_rejected():
    for backend in ({"kind": "ideal", "noise": {"shots": 5}}, {"noise": {}}):
        with pytest.raises(ConfigError, match=r"backend\.noise: only valid when kind is noisy"):
            ExperimentConfig.from_mapping({"backend": backend})
    cfg = ExperimentConfig.from_mapping({"backend": {"kind": "ideal", "noise": None}})
    assert cfg.backend == {"kind": "ideal", "shots": 150}
