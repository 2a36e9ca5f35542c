"""Persistent Contrastive Divergence training of the autoregressive model.

The positive phase reads minibatches of (window, target) pairs; the
negative phase advances a fixed population of fantasy chains that persist
across updates (the defining PCD property). Each chain owns its own
derived random stream and is reassigned a window drawn from the current
batch every update, which keeps the negative phase conditioned on the data
distribution of histories.

Gradients are batch means of the sufficient statistics (data minus model),
so the learning rate does not depend on batch size. Updates use classical
momentum with L2 decay on the interaction weights only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .data import EncodedSeries, _open_text
from .dynamics import build_windows, score_rows
from .model import ARCH_BERNOULLI, ARCH_GAUSSIAN, ChainStreams, ModelParams, run_chains, \
    sigmoid

DEFAULT_LEARNING_RATE = {ARCH_GAUSSIAN: 1e-3, ARCH_BERNOULLI: 1e-2}


class TrainingDiverged(RuntimeError):
    """Raised when a gradient, parameter, or loss turns non-finite.

    The message names the first non-finite tensor; ``train`` adds the epoch
    and the batch.
    """


@dataclass
class TrainConfig:
    """Hyperparameters for PCD training; the seed must be given explicitly.

    ``learning_rate=None`` resolves per architecture (1e-3 Gaussian,
    1e-2 Bernoulli). ``holdout_fraction`` reserves a chronological tail of
    the (window, target) pairs for free-energy monitoring only; those pairs
    never enter gradient updates.
    """

    seed: int
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float | None = None
    momentum: float = 0.5
    weight_decay: float = 1e-4
    n_chains: int = 64
    gibbs_k: int = 1
    sparsity_target: float | None = None
    sparsity_cost: float = 0.0
    lag: int = 5
    n_hidden: int = 64
    holdout_fraction: float = 0.1

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate is not None and not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.gibbs_k < 1:
            raise ValueError("gibbs_k must be >= 1")
        if self.sparsity_target is not None and not 0.0 < self.sparsity_target < 1.0:
            raise ValueError("sparsity_target must lie in (0, 1)")
        if not 0.0 <= self.sparsity_cost < math.inf:
            raise ValueError("sparsity_cost must be finite and >= 0")
        if self.sparsity_target is not None and self.sparsity_cost == 0:
            raise ValueError("sparsity_target needs sparsity_cost > 0")
        if self.sparsity_target is None and self.sparsity_cost > 0:
            raise ValueError("sparsity_cost needs a sparsity_target")
        if self.lag < 0:
            raise ValueError("lag must be >= 0")
        if self.n_hidden < 1:
            raise ValueError("n_hidden must be >= 1")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must lie in [0, 1)")

    def resolve_learning_rate(self, arch: str) -> float:
        return DEFAULT_LEARNING_RATE[arch] if self.learning_rate is None else self.learning_rate

    def to_text(self) -> str:
        """key=value lines in field order; None renders as 'none'."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name}={'none' if value is None else value!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, **overrides) -> "TrainConfig":
        """Parse key=value lines ('#' comments allowed); unknown keys error."""
        known = {f.name: f for f in fields(cls)}
        values: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip().strip("'\"")
            if key not in known:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            try:
                values[key] = _parse_config_value(known[key], val)
            except ValueError as exc:
                raise ValueError(f"config line {lineno}: {key}: {exc}") from None
        values.update(overrides)
        if "seed" not in values:
            raise ValueError("config must provide a seed")
        return cls(**values)

    @classmethod
    def from_file(cls, path, **overrides) -> "TrainConfig":
        """from_text of the file at ``path``; its ValueErrors start with ``path``."""
        with _open_text(path) as fh:
            text = fh.read()
        try:
            return cls.from_text(text, **overrides)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _parse_config_value(field, val: str):
    """``val`` as the kind the field's annotation names: "int", "float" or
    "float | None" (annotations are strings in this module)."""
    if field.type.endswith("| None") and val.lower() in ("none", ""):
        return None
    return int(val) if field.type == "int" else float(val)


@dataclass
class TrainReport:
    """Per-epoch monitoring curves plus the final parameters.

    The free-energy curves average the conditional free energy over all
    (window, target) pairs of the input split and over the monitoring
    holdout; with an empty holdout the second curve mirrors the first.
    """

    recon_mse: np.ndarray
    free_energy_train: np.ndarray
    free_energy_holdout: np.ndarray
    params: ModelParams


@dataclass
class PersistentChains:
    """Fantasy-particle state: per-chain visible vector, assigned window,
    and private random stream, read ahead in blocks."""

    v: np.ndarray
    windows: np.ndarray
    rngs: ChainStreams

    @property
    def n_chains(self) -> int:
        return self.v.shape[0]


def init_params(n_visible: int, n_hidden: int, lag: int, arch: str, seed) -> ModelParams:
    """Small random interaction weights, zero biases, zero autoregression.

    W ~ Normal(0, 0.01^2); deterministic given the seed.
    """
    if n_visible < 1 or n_hidden < 1:
        raise ValueError("model dimensions must be positive")
    rng = np.random.default_rng(seed)
    W = 0.01 * rng.standard_normal((n_visible, n_hidden))
    return ModelParams(W=W, a=np.zeros(n_visible), b=np.zeros(n_hidden), arch=arch, lag=lag)


def init_chains(windows: np.ndarray, targets: np.ndarray, n_chains: int,
                seed) -> PersistentChains:
    """Start fantasy chains at randomly drawn data pairs."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    pick_seq, streams_seq = seq.spawn(2)
    picker = np.random.default_rng(pick_seq)
    idx = picker.integers(0, targets.shape[0], size=n_chains)
    return PersistentChains(v=targets[idx], windows=windows[idx],
                            rngs=ChainStreams(map(np.random.default_rng,
                                                  streams_seq.spawn(n_chains))))


def pcd_gradients(batch, chains: PersistentChains, m: ModelParams,
                  cfg: TrainConfig, rng: np.random.Generator):
    """One PCD gradient estimate; advances and returns the persistent chains.

    ``batch`` is a (windows, targets) pair of row-aligned arrays. The
    chains are first reassigned windows drawn (via ``rng``) from the
    current batch, then advanced ``cfg.gibbs_k`` block-Gibbs steps under
    their windows' dynamic biases. Gradients are data-mean minus chain-mean
    statistics and do not depend on the learning rate.

    Both phases run as one stack of rows, batch over chains, in X = [1 |
    window | v]: X[:, :1 + window] C gives all their biases, and with the
    statistics T = [visible statistic | P(h | v)] weighted +1/n_data and
    -1/n_chains, the gradients are X[:, :1 + window]' T for C and v' P for W.
    They land in ``m.like`` views of a new buffer. When a sparsity target is
    set, the b gradient gains sparsity_cost * (target - data mean of
    P(h | v)), as in Hinton's practical guide to training RBMs (2010, sec. 11).
    """
    w_batch, v_batch = batch
    w_batch = np.asarray(w_batch, dtype=np.float64)
    v_batch = np.asarray(v_batch, dtype=np.float64)
    nv, window = m.n_visible, m.window_size
    if v_batch.shape[-1] != nv or w_batch.shape[-1] != window:
        raise ValueError("batch dimensions inconsistent with model")
    n_data, n_chains = v_batch.shape[0], chains.n_chains
    pick = rng.integers(0, n_data, size=n_chains)

    X = np.empty((n_data + n_chains, 1 + window + nv))
    X[:, 0] = 1.0
    X[:n_data, 1:1 + window] = w_batch
    X[:n_data, 1 + window:] = v_batch
    X[n_data:, 1:1 + window] = w_batch[pick]
    chains.windows = X[n_data:, 1:1 + window]
    shifts = X[:, :1 + window] @ m.C
    chains.v, _ = run_chains(chains.v, m, shifts[n_data:, :nv], shifts[n_data:, nv:],
                             chains.rngs, cfg.gibbs_k)
    X[n_data:, 1 + window:] = chains.v

    v = X[:, 1 + window:]
    # the sigmoid runs on a contiguous array: on a column block of T it
    # takes about twice as long
    P = v @ m.W
    P += shifts[:, nv:]
    T = np.empty(shifts.shape)
    T[:, nv:] = sigmoid(P, out=P)
    if m.arch == ARCH_BERNOULLI:
        T[:, :nv] = v
    else:
        np.subtract(v, shifts[:, :nv], out=T[:, :nv])
    T[:n_data] *= 1.0 / n_data
    T[n_data:] *= -1.0 / n_chains
    grads = m.like(np.empty(m.buffer.shape))
    np.matmul(X[:, :1 + window].T, T, out=grads.C)
    np.matmul(v.T, T[:, nv:], out=grads.W)
    if cfg.sparsity_target is not None:
        grads.b += cfg.sparsity_cost * (cfg.sparsity_target - T[:n_data, nv:].sum(axis=0))
    name = grads.non_finite()
    if name is not None:
        raise TrainingDiverged(f"non-finite gradient of {name}")
    return grads, chains


def apply_update(m: ModelParams, grads: ModelParams, velocity: ModelParams,
                 cfg: TrainConfig) -> tuple[ModelParams, ModelParams]:
    """Momentum step: v <- mu v + lr (grad - decay W); params <- params + v.

    ``grads`` and ``velocity`` are ``m.like`` views. Weight decay touches W
    only. Each step is one pass over the buffer or the W view. Parameters
    and velocity are updated in place and returned.
    """
    lr = cfg.resolve_learning_rate(m.arch)
    velocity.buffer *= cfg.momentum
    velocity.buffer += lr * grads.buffer
    velocity.W -= (lr * cfg.weight_decay) * m.W
    m.buffer += velocity.buffer
    name = m.non_finite()
    if name is not None:
        raise TrainingDiverged(f"non-finite parameter {name} after update")
    return m, velocity


def reconstruction_mse(windows: np.ndarray, targets: np.ndarray, m: ModelParams) -> float:
    """Mean squared error of one hidden-then-visible mean-field pass."""
    return float(np.mean(score_rows(targets, windows, m, squared_error=True)[2]))


def train(encoded: EncodedSeries, cfg: TrainConfig) -> TrainReport:
    """Run PCD over shuffled minibatches of (window, target) pairs.

    The model takes the architecture of the encoding. Fully deterministic given
    (data, cfg): initialization, shuffling, chain streams, and window
    reassignment all derive from cfg.seed.
    """
    windows, targets = build_windows(encoded.matrix, cfg.lag)
    n_pairs = targets.shape[0]
    n_holdout = int(round(cfg.holdout_fraction * n_pairs))
    n_train = n_pairs - n_holdout
    if n_train < 1:
        raise ValueError("holdout fraction leaves no training pairs")

    seq = np.random.SeedSequence(cfg.seed)
    init_seq, chain_seq, shuffle_seq, assign_seq = seq.spawn(4)
    m = init_params(targets.shape[1], cfg.n_hidden, cfg.lag, encoded.arch, init_seq)
    chains = init_chains(windows[:n_train], targets[:n_train], cfg.n_chains, chain_seq)
    velocity = m.like(np.zeros(m.buffer.shape))
    shuffle_rng = np.random.default_rng(shuffle_seq)
    assign_rng = np.random.default_rng(assign_seq)

    recon_curve = np.empty(cfg.epochs)
    fe_train_curve = np.empty(cfg.epochs)
    fe_holdout_curve = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            try:
                grads, chains = pcd_gradients((windows[sel], targets[sel]), chains, m,
                                              cfg, assign_rng)
                m, velocity = apply_update(m, grads, velocity, cfg)
            except TrainingDiverged as exc:
                raise TrainingDiverged(
                    f"{exc} at epoch {epoch}, batch {start // cfg.batch_size}; "
                    "lower the learning rate or check the data") from None
        # one blocked pass gives the reconstruction error and the free energies
        visible, structural, sq_err = score_rows(targets, windows, m, squared_error=True)
        recon_curve[epoch] = float(np.mean(sq_err))
        fe_all = visible + structural
        fe_train_curve[epoch] = float(np.mean(fe_all))
        fe_holdout_curve[epoch] = (float(np.mean(fe_all[n_train:])) if n_holdout
                                   else fe_train_curve[epoch])
        if not (np.isfinite(recon_curve[epoch]) and np.isfinite(fe_train_curve[epoch])):
            what = "free energy" if np.isfinite(recon_curve[epoch]) else "reconstruction error"
            raise TrainingDiverged(f"non-finite monitor {what} at epoch {epoch}")
    return TrainReport(recon_curve, fe_train_curve, fe_holdout_curve, m)
