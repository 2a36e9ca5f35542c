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

from dataclasses import dataclass, fields

import numpy as np

from .data import EncodedSeries, MODE_BINARY
from .dynamics import build_windows, dynamic_hidden_bias, dynamic_visible_bias, score_rows
from .model import ARCH_BERNOULLI, ARCH_GAUSSIAN, ChainStreams, ModelParams, _scaled_visible, \
    run_chains, sigmoid

PARAM_NAMES = ("W", "a", "b", "A", "B")

DEFAULT_LEARNING_RATE = {ARCH_GAUSSIAN: 1e-3, ARCH_BERNOULLI: 1e-2}


class TrainingDiverged(RuntimeError):
    """Raised when a gradient, parameter, or loss turns non-finite.

    The message names the first non-finite tensor; ``train`` adds the epoch
    and the batch.
    """


def _non_finite(tensors) -> str | None:
    """Name of the first of W, a, b, A, B of ``tensors`` with a non-finite entry."""
    return next((name for name in PARAM_NAMES
                 if not np.all(np.isfinite(getattr(tensors, name)))), None)


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
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.gibbs_k < 1:
            raise ValueError("gibbs_k must be >= 1")
        if self.sparsity_target is not None and not 0.0 < self.sparsity_target < 1.0:
            raise ValueError("sparsity_target must lie in (0, 1)")
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
            values[key] = _parse_config_value(key, val)
        values.update(overrides)
        if "seed" not in values:
            raise ValueError("config must provide a seed")
        return cls(**values)

    @classmethod
    def from_file(cls, path, **overrides) -> "TrainConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read(), **overrides)


_INT_KEYS = {"seed", "epochs", "batch_size", "n_chains", "gibbs_k", "lag", "n_hidden"}
_OPTIONAL_KEYS = {"learning_rate", "sparsity_target"}


def _parse_config_value(key: str, val: str):
    if key in _OPTIONAL_KEYS and val.lower() in ("none", ""):
        return None
    return int(val) if key in _INT_KEYS else float(val)


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
class GradientBundle:
    """Log-likelihood ascent directions (data minus model statistics)."""

    W: np.ndarray
    a: np.ndarray
    b: np.ndarray
    A: np.ndarray
    B: np.ndarray
    mean_hidden: np.ndarray  # data-phase activation means, for the sparsity term

    def flat(self) -> np.ndarray:
        return np.concatenate([x.ravel() for x in (self.W, self.a, self.b, self.A, self.B)])


@dataclass
class Velocity:
    W: np.ndarray
    a: np.ndarray
    b: np.ndarray
    A: np.ndarray
    B: np.ndarray

    @classmethod
    def zeros_like(cls, m: ModelParams) -> "Velocity":
        return cls(np.zeros_like(m.W), np.zeros_like(m.a), np.zeros_like(m.b),
                   np.zeros_like(m.A), np.zeros_like(m.B))


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


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """n generators on independent derived streams of one seed."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def init_params(n_visible: int, n_hidden: int, lag: int, arch: str, seed) -> ModelParams:
    """Small random interaction weights, zero biases, zero autoregression.

    W ~ Normal(0, 0.01^2); deterministic given the seed.
    """
    if n_visible < 1 or n_hidden < 1:
        raise ValueError("model dimensions must be positive")
    rng = np.random.default_rng(seed)
    W = 0.01 * rng.standard_normal((n_visible, n_hidden))
    return ModelParams(W=W, a=np.zeros(n_visible), b=np.zeros(n_hidden),
                       sigma=np.ones(n_visible), arch=arch,
                       A=np.zeros((lag * n_visible, n_visible)),
                       B=np.zeros((lag * n_visible, n_hidden)), lag=lag)


def init_chains(windows: np.ndarray, targets: np.ndarray, n_chains: int,
                seed) -> PersistentChains:
    """Start fantasy chains at randomly drawn data pairs."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    pick_seq, streams_seq = seq.spawn(2)
    picker = np.random.default_rng(pick_seq)
    idx = picker.integers(0, targets.shape[0], size=n_chains)
    return PersistentChains(v=targets[idx].copy(), windows=windows[idx].copy(),
                            rngs=ChainStreams(spawn_rngs(streams_seq, n_chains)))


def _visible_statistic(v, abias, m: ModelParams):
    """Sufficient statistic paired with the visible bias gradient."""
    if m.arch == ARCH_BERNOULLI:
        return v
    return (v - abias) / m.sigma**2


def pcd_gradients(batch, chains: PersistentChains, m: ModelParams,
                  cfg: TrainConfig, rng: np.random.Generator):
    """One PCD gradient estimate; advances and returns the persistent chains.

    ``batch`` is a (windows, targets) pair of row-aligned arrays. The
    chains are first reassigned windows drawn (via ``rng``) from the
    current batch, then advanced ``cfg.gibbs_k`` block-Gibbs steps under
    their windows' dynamic biases. Gradients are data-mean minus chain-mean
    statistics and do not depend on the learning rate.
    """
    w_batch, v_batch = batch
    w_batch = np.asarray(w_batch, dtype=np.float64)
    v_batch = np.asarray(v_batch, dtype=np.float64)
    if v_batch.shape[-1] != m.n_visible or w_batch.shape[-1] != m.window_size:
        raise ValueError("batch dimensions inconsistent with model")

    pick = rng.integers(0, v_batch.shape[0], size=chains.n_chains)
    chains.windows = w_batch[pick].copy()

    # positive phase: data statistics under the data windows
    abias_d = dynamic_visible_bias(w_batch, m)
    bbias_d = dynamic_hidden_bias(w_batch, m)
    scaled_d = _scaled_visible(v_batch, m)
    p_d = sigmoid(bbias_d + scaled_d @ m.W)
    stat_a_d = _visible_statistic(v_batch, abias_d, m)
    n_data = v_batch.shape[0]

    # negative phase: advance the fantasy particles, then read their statistics
    abias_c = dynamic_visible_bias(chains.windows, m)
    bbias_c = dynamic_hidden_bias(chains.windows, m)
    chains.v, _ = run_chains(chains.v, m, abias_c, bbias_c, chains.rngs, cfg.gibbs_k)
    scaled_c = _scaled_visible(chains.v, m)
    p_c = sigmoid(bbias_c + scaled_c @ m.W)
    stat_a_c = _visible_statistic(chains.v, abias_c, m)
    n_model = chains.n_chains

    grads = GradientBundle(
        W=scaled_d.T @ p_d / n_data - scaled_c.T @ p_c / n_model,
        a=stat_a_d.mean(axis=0) - stat_a_c.mean(axis=0),
        b=p_d.mean(axis=0) - p_c.mean(axis=0),
        A=w_batch.T @ stat_a_d / n_data - chains.windows.T @ stat_a_c / n_model,
        B=w_batch.T @ p_d / n_data - chains.windows.T @ p_c / n_model,
        mean_hidden=p_d.mean(axis=0),
    )
    if not np.all(np.isfinite(grads.flat())):
        raise TrainingDiverged(f"non-finite gradient of {_non_finite(grads)}")
    return grads, chains


def apply_update(m: ModelParams, grads: GradientBundle, velocity: Velocity,
                 cfg: TrainConfig) -> tuple[ModelParams, Velocity]:
    """Momentum step: v <- mu v + lr (grad - decay W); params <- params + v.

    Weight decay touches W only. When a sparsity target is set, the hidden
    bias gradient gains sparsity_cost * (target - mean activation). Arrays
    are updated in place; the same objects are returned.
    """
    lr = cfg.resolve_learning_rate(m.arch)
    mu = cfg.momentum
    grad_b = grads.b
    if cfg.sparsity_target is not None:
        grad_b = grad_b + cfg.sparsity_cost * (cfg.sparsity_target - grads.mean_hidden)
    velocity.W = mu * velocity.W + lr * (grads.W - cfg.weight_decay * m.W)
    velocity.a = mu * velocity.a + lr * grads.a
    velocity.b = mu * velocity.b + lr * grad_b
    velocity.A = mu * velocity.A + lr * grads.A
    velocity.B = mu * velocity.B + lr * grads.B
    m.W += velocity.W
    m.a += velocity.a
    m.b += velocity.b
    m.A += velocity.A
    m.B += velocity.B
    name = _non_finite(m)
    if name is not None:
        raise TrainingDiverged(f"non-finite parameter {name} after update")
    return m, velocity


def reconstruction_mse(windows: np.ndarray, targets: np.ndarray, m: ModelParams) -> float:
    """Mean squared error of one hidden-then-visible mean-field pass."""
    return float(np.mean(score_rows(targets, windows, m, squared_error=True)[2]))


def train(encoded: EncodedSeries, cfg: TrainConfig) -> TrainReport:
    """Run PCD over shuffled minibatches of (window, target) pairs.

    The architecture follows the encoding: binary rows train a Bernoulli
    model, continuous rows a Gaussian one. Fully deterministic given
    (data, cfg): initialization, shuffling, chain streams, and window
    reassignment all derive from cfg.seed.
    """
    arch = ARCH_BERNOULLI if encoded.mode == MODE_BINARY else ARCH_GAUSSIAN
    windows, targets = build_windows(encoded, cfg.lag)
    n_pairs = targets.shape[0]
    n_holdout = int(round(cfg.holdout_fraction * n_pairs))
    n_train = n_pairs - n_holdout
    if n_train < 1:
        raise ValueError("holdout fraction leaves no training pairs")

    seq = np.random.SeedSequence(cfg.seed)
    init_seq, chain_seq, shuffle_seq, assign_seq = seq.spawn(4)
    m = init_params(targets.shape[1], cfg.n_hidden, cfg.lag, arch, init_seq)
    chains = init_chains(windows[:n_train], targets[:n_train], cfg.n_chains, chain_seq)
    velocity = Velocity.zeros_like(m)
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
