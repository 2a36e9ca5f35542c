"""Conditional restricted Boltzmann machines for multi-asset series:
PCD training, autoregressive synthesis, and free-energy regime scoring."""

from .data import (
    BinaryCodec,
    EncodedSeries,
    RawSeries,
    ZScoreParams,
    binarize,
    chrono_split,
    decode_series,
    fit_binary_codec,
    fit_zscore,
    ingest_csv,
    standardize,
)
from .diagnostics import (
    CorrelationFidelity,
    FreeEnergySeries,
    SummaryStats,
    correlation_fidelity,
    free_energy_series,
    qq_table,
    regime_flags,
    summary_stats,
)
from .dynamics import (
    build_windows,
    conditional_free_energy,
    conditional_free_energy_terms,
    dynamic_hidden_bias,
    dynamic_visible_bias,
)
from .generation import generate
from .model import (
    ARCH_BERNOULLI,
    ARCH_GAUSSIAN,
    ModelParams,
    energy,
    exact_marginals,
    free_energy,
    free_energy_terms,
    gibbs_step,
    hidden_activation_probs,
    run_chains,
)
from .model_io import ModelFile, load_model, save_model
from .training import TrainConfig, TrainReport, TrainingDiverged, init_params, train

__version__ = "0.1.0"

__all__ = [
    "ARCH_BERNOULLI",
    "ARCH_GAUSSIAN",
    "BinaryCodec",
    "CorrelationFidelity",
    "EncodedSeries",
    "FreeEnergySeries",
    "ModelFile",
    "ModelParams",
    "RawSeries",
    "SummaryStats",
    "TrainConfig",
    "TrainReport",
    "TrainingDiverged",
    "ZScoreParams",
    "binarize",
    "build_windows",
    "chrono_split",
    "conditional_free_energy",
    "conditional_free_energy_terms",
    "correlation_fidelity",
    "decode_series",
    "dynamic_hidden_bias",
    "dynamic_visible_bias",
    "energy",
    "exact_marginals",
    "fit_binary_codec",
    "fit_zscore",
    "free_energy",
    "free_energy_series",
    "free_energy_terms",
    "generate",
    "gibbs_step",
    "hidden_activation_probs",
    "ingest_csv",
    "init_params",
    "load_model",
    "qq_table",
    "regime_flags",
    "run_chains",
    "save_model",
    "standardize",
    "summary_stats",
    "train",
]
