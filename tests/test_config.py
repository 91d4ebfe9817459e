"""Experiment config resolution, round trips, and validation paths."""

import numpy as np
import pytest
import yaml

from reupsim import cli
from reupsim.backend import IdealBackend, NoiseModel, NoisyBackend
from reupsim.circuits import Ansatz, CircuitSpec
from reupsim.config import (ConfigError, ExperimentConfig, _build, _field_types,
                            _trainer_config, apply_overrides, read_config, save_config,
                            set_dotted)
from reupsim.costs import CostKind
from reupsim.data import CircleSpec, generate
from reupsim.ga import GAConfig, MutationSpec
from reupsim.seeding import derive_seed
from reupsim.trainers import GradConfig, LineSearchSpec, OptimizerKind


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
    with pytest.raises(ConfigError, match=r"^circuit: layer count must be >= 1, got 0"):
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
    with pytest.raises(ConfigError, match=r"^backend\.noise: confusion entries must lie"):
        ExperimentConfig.from_mapping(
            {"backend": {"kind": "noisy", "noise": {"confusion": [[2, -1], [0, 1]]}}})
    for noise, message in (({"shots": 0}, r"backend\.noise: shots must be >= 1, got 0"),
                           ({"shots": 100_001},
                            r"backend\.noise: shots must be <= 100000, got 100001"),
                           ({"seed": -1}, r"backend\.noise: seed must be non-negative"),
                           ({"residual_sigma": -0.1},
                            r"backend\.noise: residual_sigma must be >= 0"),
                           ({"confusion": [[1, 0]]},
                            r"backend\.noise\.confusion: expected a 2x2 matrix"),
                           ({"shots": 2.5}, r"backend\.noise\.shots: expected an integer"),
                           ({"bogus": None}, r"backend\.noise\.bogus: unknown key")):
        with pytest.raises(ConfigError, match="^" + message):
            ExperimentConfig.from_mapping({"backend": {"kind": "noisy", "noise": noise}})


@pytest.mark.parametrize("confusion", [[["a", 1], [0, 1]], [[True, 0], [0, 1]],
                                       [[1, 0], [0, False]]])
def test_confusion_entries_must_be_numbers(confusion):
    with pytest.raises(ConfigError, match=r"backend\.noise\.confusion: expected 2 numbers"):
        ExperimentConfig.from_mapping(
            {"backend": {"kind": "noisy", "noise": {"confusion": confusion}}})


def test_backend_shots_and_noise_shots_must_agree():
    with pytest.raises(ConfigError, match=r"^backend\.noise\.shots: 200 differs from "
                                          r"backend\.shots = 100"):
        ExperimentConfig.from_mapping(
            {"backend": {"kind": "noisy", "shots": 100, "noise": {"shots": 200}}})
    for block in ({"shots": 200, "noise": {"shots": 200}}, {"noise": {"shots": 200}},
                  {"shots": 200}, {"shots": 200, "noise": {"shots": None}}):
        cfg = ExperimentConfig.from_mapping({"backend": {"kind": "noisy", **block}})
        assert (cfg.backend["shots"], cfg.backend["noise"]["shots"]) == (200, 200)
        # an archived config carries both keys, equal, and loads again
        assert ExperimentConfig.from_mapping(cfg.to_mapping()) == cfg


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


def test_the_trainer_of_ga_and_gradient_configs():
    cfg = ExperimentConfig.from_mapping(
        {"cost": "chi_squared",
         "optimizer": {"kind": "ga", "population_size": 12, "seed": 3,
                       "mutation": {"kind": "fixed", "rate": 0.4}}})
    trainer = cfg.trainer
    assert isinstance(trainer, GAConfig)
    assert trainer.population_size == 12
    assert trainer.fitness is CostKind.CHI_SQUARED
    assert trainer.mutation.kind == "fixed"
    assert trainer.mutation.rate == 0.4

    grad_cfg = ExperimentConfig.from_mapping(
        {"optimizer": {"kind": "bfgs_standard", "gradient": "finite_difference",
                       "step": 0.5, "seed": 1,
                       "line_search": {"kind": "wolfe"}}})
    trainer = grad_cfg.trainer
    assert isinstance(trainer, GradConfig)
    assert trainer.method is OptimizerKind.BFGS_STANDARD
    assert trainer.step == 0.5
    assert trainer.line_search.kind == "wolfe"


@pytest.mark.parametrize("raw", [
    {},
    {"cost": "chi_squared", "optimizer": {"population_size": 12, "init_range": [-1, 2],
                                          "mutation": {"kind": "fixed", "rate": 1}}},
    {"optimizer": {"kind": "BFGS_as_written", "gradient": "finite_difference", "step": 1,
                   "line_search": {"kind": "wolfe", "c2": 0.5}, "max_estimates": 900}},
    {"optimizer": {"kind": "sgd", "batch_size": 5, "learning_rate": 2},
     "backend": {"kind": "noisy", "shots": 20,
                 "noise": {"confusion": [[1, 0], [0.25, 0.75]], "residual_sigma": 0}}},
])
def test_the_kept_trainer_and_noise_are_those_of_the_archived_blocks(raw):
    """from_mapping keeps what it read the blocks into: a config built again
    from the archived optimizer and noise blocks is equal, field for field."""
    cfg = ExperimentConfig.from_mapping(raw)
    assert cfg.trainer == _trainer_config(cfg.optimizer, cfg.cost)
    if cfg.backend["kind"] == "noisy":
        assert cfg.noise == _build(NoiseModel, cfg.backend["noise"], "backend.noise")
        assert cfg.build_backend().noise is cfg.noise
    else:
        assert cfg.noise is None
    assert cfg.build_backend() is not cfg.build_backend()    # each with its own ledger


def test_yaml_round_trip_preserves_the_resolved_config(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"seed": 5, "workers": 4, "output_dir": "runs/a",
         "backend": {"kind": "noisy", "shots": 200},
         "optimizer": {"kind": "sgd", "batch_size": 16}})
    path = tmp_path / "config.yaml"
    save_config(cfg, path)
    back = ExperimentConfig.from_mapping(read_config(path))
    assert back == cfg


def test_load_config_rejects_invalid_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("foo: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        ExperimentConfig.from_mapping(read_config(path))


def test_an_invalid_yaml_message_is_the_pure_python_loaders(tmp_path):
    """libyaml words its errors differently; the message stays the one the
    pure-Python loader gives, with the file's path and position."""
    path = tmp_path / "broken.yaml"
    path.write_text("foo: [unclosed\n")
    with pytest.raises(ConfigError) as err:
        read_config(path)
    assert str(err.value) == (
        f"{path}: not valid YAML (while parsing a flow sequence\n"
        f'  in "{path}", line 1, column 6\n'
        "expected ',' or ']', but got '<stream end>'\n"
        f'  in "{path}", line 2, column 1)')


def test_a_config_that_is_not_utf8_is_invalid_yaml_naming_the_file(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_bytes(b"seed: \xff\n")
    with pytest.raises(ConfigError) as err:
        read_config(path)
    assert str(err.value).startswith(f"{path}: not valid YAML (")
    assert "#x00ff" in str(err.value)


def test_config_yaml_reads_and_writes_the_same_without_libyaml(tmp_path, monkeypatch):
    """The C loader and dumper give the mapping and the archived bytes that
    the pure-Python classes give; without libyaml those are used."""
    path = tmp_path / "in.yaml"
    path.write_text("seed: 5\noutput_dir: runs/a b\ncost: chi_squared\n"
                    "circuit: {ansatz: 2b, layers: 3}\n"
                    "backend:\n  kind: noisy\n  noise: {confusion: [[0.9, 0.1], [0.25, 0.75]],"
                    " residual_sigma: 1.0e-3}\n"
                    "optimizer: {kind: bfgs_standard, line_search: {kind: wolfe, c2: 0.5},"
                    " init_range: [-1, .5], target_accuracy: null}\n")

    def round_trip(name):
        raw = read_config(path, ["dataset.n=12"])
        save_config(ExperimentConfig.from_mapping(raw), tmp_path / name)
        return raw, (tmp_path / name).read_bytes()

    with_libyaml = round_trip("c.yaml")
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
    assert round_trip("python.yaml") == with_libyaml


def test_load_config_of_an_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = ExperimentConfig.from_mapping(read_config(path))
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


def _nulls(block: dict) -> dict:
    """The same keys, each null, nested blocks included."""
    return {k: _nulls(v) if isinstance(v, dict) else None for k, v in block.items()}


@pytest.mark.parametrize("kind", ["ga", "bfgs_standard", "sgd"])
def test_a_null_key_resolves_to_its_default(kind):
    defaults = ExperimentConfig.from_mapping({"optimizer": {"kind": kind}})
    nulls = {"seed": None, "workers": None, "output_dir": None, "cost": None,
             "circuit": {"ansatz": None, "layers": None},
             "dataset": {k: None for k in ("source", "n", "seed", "path", "center",
                                           "radius", "domain")},
             "backend": {"kind": None, "shots": None, "noise": None},
             "optimizer": {**_nulls(defaults.optimizer), "kind": kind}}
    assert ExperimentConfig.from_mapping(nulls) == defaults
    noisy = ExperimentConfig.from_mapping({"backend": {"kind": "noisy"}})
    assert ExperimentConfig.from_mapping(
        {"backend": {"kind": "noisy", "shots": None,
                     "noise": {k: None for k in noisy.backend["noise"]}}}) == noisy


@pytest.mark.parametrize("kind", [k.value for k in OptimizerKind])
def test_the_accuracy_cost_is_ga_only(kind):
    """A gradient optimizer minimizes its cost; on accuracy it would descend
    to the worst classifier and return it."""
    with pytest.raises(ConfigError, match=rf"^optimizer: the accuracy cost needs the ga "
                                          rf"optimizer: {kind} minimizes its cost"):
        ExperimentConfig.from_mapping({"cost": "accuracy", "optimizer": {"kind": kind}})
    cfg = ExperimentConfig.from_mapping({"cost": "accuracy", "optimizer": {"kind": "ga"}})
    assert cfg.trainer.fitness is CostKind.ACCURACY


@pytest.mark.parametrize("kind, key, value, reader", [
    ("bfgs_standard", "learning_rate", 3, "bfgs_standard"),
    ("bfgs_as_written", "batch_size", 7, "bfgs_as_written"),
    ("sgd", "line_search", {"kind": "wolfe"}, "sgd"),
    ("gradient_descent", "line_search", {"c1": 0.5}, "gradient_descent"),
    ("sgd", "step", 0.3, "the analytic gradient"),
    ("bfgs_standard", "step", 0.3, "the analytic gradient")])
def test_an_optimizer_key_the_method_does_not_read_is_an_error(kind, key, value, reader):
    with pytest.raises(ConfigError, match=rf"^optimizer: {key} is not read by {reader}"):
        ExperimentConfig.from_mapping({"optimizer": {"kind": kind, key: value}})
    # an archived block writes every key, the unread ones at their defaults
    archived = ExperimentConfig.from_mapping({"optimizer": {"kind": kind}}).optimizer
    assert key in archived
    assert ExperimentConfig.from_mapping({"optimizer": archived}).optimizer == archived


def test_an_armijo_search_rejects_c2_and_keeps_the_default_of_an_archived_block():
    """Only Wolfe reads c2; an archived Armijo block writes it at its default."""
    optimizer = {"kind": "bfgs_standard", "line_search": {"kind": "armijo", "c2": 0.5}}
    with pytest.raises(ConfigError, match=r"^optimizer\.line_search: c2 is not read by "
                                          r"armijo line search; leave it out"):
        ExperimentConfig.from_mapping({"optimizer": optimizer})
    archived = ExperimentConfig.from_mapping({"optimizer": {"kind": "bfgs_standard"}}).optimizer
    assert archived["line_search"]["c2"] == 0.9
    assert ExperimentConfig.from_mapping({"optimizer": archived}).optimizer == archived
    # c2 at its default no longer has to exceed an Armijo c1
    steep = ExperimentConfig.from_mapping(
        {"optimizer": {"kind": "bfgs_standard", "line_search": {"c1": 0.95}}})
    assert steep.trainer.line_search.c1 == 0.95


def test_out_of_range_optimizer_values_fail_at_resolve_time():
    with pytest.raises(ConfigError, match=r"^optimizer: target_accuracy must lie in"):
        ExperimentConfig.from_mapping({"optimizer": {"target_accuracy": 2}})
    with pytest.raises(ConfigError, match=r"^optimizer\.line_search: c1 must lie in"):
        ExperimentConfig.from_mapping({"optimizer": {"kind": "bfgs_standard",
                                                     "line_search": {"c1": 5}}})
    for kind in ("ga", "bfgs_standard", "sgd"):
        with pytest.raises(ConfigError, match=r"^optimizer: init_range is empty: \(1\.0, -1"):
            ExperimentConfig.from_mapping({"optimizer": {"kind": kind, "init_range": [1, -1]}})
    with pytest.raises(ConfigError, match=r"^optimizer: elitism_count must lie in"):
        ExperimentConfig.from_mapping({"optimizer": {"population_size": 4,
                                                     "elitism_count": 4}})
    with pytest.raises(ConfigError, match=r"^optimizer\.step: expected a number"):
        ExperimentConfig.from_mapping({"optimizer": {"kind": "sgd", "step": "big"}})
    with pytest.raises(ConfigError, match=r"^optimizer\.line_search\.c3: unknown key"):
        ExperimentConfig.from_mapping({"optimizer": {"kind": "sgd",
                                                     "line_search": {"c3": 1}}})
    with pytest.raises(ConfigError, match=r"^optimizer\.mutation: expected a mapping"):
        ExperimentConfig.from_mapping({"optimizer": {"mutation": 0.2}})
    with pytest.raises(ConfigError, match=r"^optimizer\.population_size: unknown key"):
        ExperimentConfig.from_mapping({"optimizer": {"kind": "sgd",
                                                     "population_size": 9}})


def test_enum_valued_keys_resolve_case_insensitively():
    cfg = ExperimentConfig.from_mapping(
        {"cost": "Chi_Squared", "circuit": {"ansatz": "2a"},
         "backend": {"kind": "NOISY"}, "dataset": {"source": "Generate"},
         "optimizer": {"kind": "GA", "selection": "SSS", "crossover": "Two_Point"}})
    assert cfg.cost is CostKind.CHI_SQUARED and cfg.circuit.ansatz is Ansatz.A2A
    assert (cfg.backend["kind"], cfg.dataset["source"]) == ("noisy", "generate")
    assert (cfg.optimizer["kind"], cfg.optimizer["selection"],
            cfg.optimizer["crossover"]) == ("ga", "sss", "two_point")
    grad = ExperimentConfig.from_mapping(
        {"optimizer": {"kind": "BFGS_As_Written", "gradient": "Parameter_Shift"}})
    assert (grad.optimizer["kind"], grad.optimizer["gradient"]) == (
        "bfgs_as_written", "parameter_shift")
    assert grad.trainer.method is OptimizerKind.BFGS_AS_WRITTEN
    with pytest.raises(ConfigError, match=r"^optimizer\.selection: expected one of sss, rws, "
                                          r"sus, rank, random, tournament; got 'elite'$"):
        ExperimentConfig.from_mapping({"optimizer": {"selection": "elite"}})


# each kind key: a name in another case, the option it resolves to, every
# option in order, and the other keys the kind needs
KIND_NAMES = {
    "cost": ("Chi_Squared", "chi_squared",
             "accuracy, cross_entropy, cross_entropy_as_written, chi_squared", {}),
    "circuit.ansatz": ("2b", "2B", "2A, 2B, 2C, 2D", {}),
    "dataset.source": ("Generate", "generate", "generate, load", {}),
    "backend.kind": ("NOISY", "noisy", "ideal, noisy", {}),
    "optimizer.kind": ("Sgd", "sgd",
                       "ga, bfgs_standard, bfgs_as_written, gradient_descent, sgd", {}),
    "optimizer.selection": ("Tournament", "tournament",
                            "sss, rws, sus, rank, random, tournament", {}),
    "optimizer.crossover": ("Two_Point", "two_point", "single_point, two_point, scattered",
                            {}),
    "optimizer.gradient": ("Parameter_SHIFT", "parameter_shift",
                           "finite_difference, parameter_shift, analytic",
                           {"optimizer.kind": "bfgs_standard"}),
    "optimizer.mutation.kind": ("Fixed", "fixed", "fixed, decaying", {}),
    "optimizer.line_search.kind": ("Wolfe", "wolfe", "armijo, wolfe",
                                   {"optimizer.kind": "bfgs_standard"}),
}


@pytest.mark.parametrize("key", KIND_NAMES)
def test_every_kind_key_ignores_case_and_words_an_unknown_name_alike(tmp_path, capsys, key):
    """Each kind name resolves to its option as written, whatever its case,
    and an unknown name is a config error (exit 2) in one wording."""
    given, archived, options, context = KIND_NAMES[key]
    raw = {}
    for dotted, value in {**context, key: given}.items():
        set_dotted(raw, dotted, value)
    node = ExperimentConfig.from_mapping(raw).to_mapping()
    for part in key.split("."):
        node = node[part]
    assert node == archived
    sets = [f"{dotted}={value}" for dotted, value in {**context, key: "nope"}.items()]
    argv = ["train", "--out", str(tmp_path / "run")] + [f"--set={s}" for s in sets]
    assert cli.main(argv) == cli.EXIT_CONFIG
    path = "config.cost" if key == "cost" else key
    assert (f"config error: {path}: expected one of {options}; got 'nope'"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_no_field_the_reader_builds_is_a_bare_string():
    """A kind field is an Enum or a Literal, so the reader matches its names
    as it matches every other kind name."""
    for cls in (CircuitSpec, CircleSpec, NoiseModel, GAConfig, MutationSpec, GradConfig,
                LineSearchSpec):
        assert [name for name, kind in _field_types(cls).items() if kind is str] == [], cls


@pytest.mark.parametrize("optimizer, message", [
    ({"max_estimates": 0}, "optimizer: max_estimates must be >= 1, got 0"),
    ({"seed": -1}, "optimizer: seed must be non-negative, got -1"),
    ({"max_generations": -1}, "optimizer: max_generations must be >= 0, got -1"),
    ({"selection": "tournament", "tournament_size": 0},
     "optimizer: tournament_size must be >= 1, got 0"),
    ({"mutation": {"delta_halfwidth": -1}},
     "optimizer.mutation: delta_halfwidth must be >= 0, got -1.0"),
    ({"kind": "bfgs_standard", "line_search": {"max_halvings": 0}},
     "optimizer.line_search: max_halvings must be >= 1, got 0"),
    ({"kind": "sgd", "max_iterations": -1}, "optimizer: max_iterations must be >= 0, got -1")])
def test_an_optimizer_value_out_of_range_exits_2_naming_the_block(tmp_path, capsys,
                                                                  optimizer, message):
    config = tmp_path / "c.yaml"
    config.write_text(yaml.safe_dump({"optimizer": optimizer}))
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == (
        cli.EXIT_CONFIG)
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
