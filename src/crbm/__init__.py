"""Conditional restricted Boltzmann machines for multi-asset series:
PCD training, autoregressive synthesis, and free-energy regime scoring.

Each name is imported from the module that defines it, e.g.
``from crbm.training import train``.
"""

# ``import crbm`` loads every module; the benchmark's import metrics time that
from . import data, diagnostics, dynamics, generation, model, model_io, training  # noqa: F401

__version__ = "0.1.0"
