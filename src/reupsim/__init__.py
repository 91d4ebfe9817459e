"""Deterministic simulator and experiment harness for single-qubit
data re-uploading classifiers trained with classical optimizers.

The package exports only `__version__`; callers import from its modules
(`reupsim.cli`, `reupsim.circuits`, `reupsim.trainers`, ...), so importing
the package loads none of them."""

__version__ = "0.1.0"
