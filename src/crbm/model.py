"""Energy, free energy, conditionals, and Gibbs transitions for both
Bernoulli-Bernoulli and Gaussian-Bernoulli architectures.

All operations accept either a single state vector or a batch of states in
the rows of a matrix, and take effective bias vectors so the autoregressive
layer can substitute its time-dependent biases without touching this module.
An exact-enumeration marginal is provided for tiny Bernoulli models; it is
the correctness oracle for sampling and training.

Conventions:
  * visible vectors have length n_visible (bits or z-scores), hidden
    vectors length n_hidden, entries of hidden states are {0, 1};
  * the Bernoulli energy is -a.v - b.h - v.W.h, the Gaussian energy is
    sum((v - a)^2 / (2 sigma^2)) - b.h - (v / sigma).W.h;
  * free energy F(v) = -log sum_h exp(-E(v, h)), which factorizes into the
    visible term plus a softplus per hidden unit;
  * sampling is a pure function of (inputs, generator state).
"""

import math
from dataclasses import dataclass, field

import numpy as np

ARCH_BERNOULLI = "bernoulli"
ARCH_GAUSSIAN = "gaussian"

# exact_marginals enumerates 2^n_visible states; keep that cheap
ENUMERATION_LIMIT = 12


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 + 0.5 tanh(x / 2); saturates without overflow."""
    return 0.5 + 0.5 * np.tanh(0.5 * np.asarray(x, dtype=np.float64))


def logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) over all entries, shifted by the maximum."""
    shift = np.max(x)
    return shift + np.log(np.sum(np.exp(x - shift)))


def _logit(u: np.ndarray) -> np.ndarray:
    """log(u / (1 - u)) for uniforms in [0, 1); u = 0 maps to -inf.

    Callers silence the divide warning of log(0).
    """
    return np.log(u / (1.0 - u))


def softplus(x: np.ndarray) -> np.ndarray:
    """Overflow-safe log(1 + exp(x)): max(x, 0) + log1p(exp(-|x|))."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


@dataclass
class ModelParams:
    """Full CRBM parameterization.

    ``A`` and ``B`` map the flattened history window (lag * n_visible
    entries, oldest observation first) to visible and hidden bias shifts.
    With lag = 0 both are empty and the model is a static RBM. ``sigma``
    holds the Gaussian per-unit scales; inputs are z-scored so it stays at
    one and is never learned, but the energy honors whatever it contains.
    """

    W: np.ndarray
    a: np.ndarray
    b: np.ndarray
    sigma: np.ndarray
    arch: str
    A: np.ndarray = field(default=None)
    B: np.ndarray = field(default=None)
    lag: int = 0

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.arch not in (ARCH_BERNOULLI, ARCH_GAUSSIAN):
            raise ValueError(f"unknown architecture {self.arch!r}")
        nv, nh = self.W.shape
        if self.a.shape != (nv,) or self.b.shape != (nh,) or self.sigma.shape != (nv,):
            raise ValueError("bias/scale shapes inconsistent with W")
        if self.lag < 0:
            raise ValueError("lag must be >= 0")
        if self.A is None:
            self.A = np.zeros((self.lag * nv, nv))
        if self.B is None:
            self.B = np.zeros((self.lag * nv, nh))
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        if self.A.shape != (self.lag * nv, nv) or self.B.shape != (self.lag * nv, nh):
            raise ValueError("autoregressive matrix shapes inconsistent with lag")
        for name in ("W", "a", "b", "sigma", "A", "B"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite entries in {name}")
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be strictly positive")

    @property
    def n_visible(self) -> int:
        return self.W.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.W.shape[1]

    @property
    def window_size(self) -> int:
        return self.lag * self.n_visible

    def copy(self) -> "ModelParams":
        return ModelParams(self.W.copy(), self.a.copy(), self.b.copy(),
                           self.sigma.copy(), self.arch,
                           self.A.copy(), self.B.copy(), self.lag)


def _scaled_visible(v: np.ndarray, m: ModelParams) -> np.ndarray:
    """v for the Bernoulli architecture, v / sigma for the Gaussian one."""
    return v if m.arch == ARCH_BERNOULLI else v / m.sigma


def _default_biases(m: ModelParams, abias, bbias):
    return (m.a if abias is None else np.asarray(abias, dtype=np.float64),
            m.b if bbias is None else np.asarray(bbias, dtype=np.float64))


def energy(v: np.ndarray, h: np.ndarray, m: ModelParams,
           abias: np.ndarray | None = None, bbias: np.ndarray | None = None) -> np.ndarray:
    """Joint energy E(v, h) under the effective biases.

    Accepts single vectors or row-batches; biases may be shared vectors or
    per-row matrices.
    """
    abias, bbias = _default_biases(m, abias, bbias)
    v = np.asarray(v, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if v.shape[-1] != m.n_visible or h.shape[-1] != m.n_hidden:
        raise ValueError("state dimensions inconsistent with model")
    interaction = np.sum((_scaled_visible(v, m) @ m.W) * h, axis=-1)
    hidden_term = np.sum(bbias * h, axis=-1)
    if m.arch == ARCH_BERNOULLI:
        visible_term = -np.sum(abias * v, axis=-1)
    else:
        visible_term = np.sum((v - abias) ** 2 / (2.0 * m.sigma**2), axis=-1)
    return visible_term - hidden_term - interaction


def free_energy_terms(v: np.ndarray, m: ModelParams,
                      abias: np.ndarray | None = None,
                      bbias: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The two components of the free energy.

    Returns ``(visible_term, structural)`` where ``structural`` is the
    negated softplus sum over hidden units (always <= 0) and
    ``visible_term`` is the quadratic penalty sum((v - a)^2 / 2 sigma^2)
    for the Gaussian architecture or the linear term -a.v for the
    Bernoulli one. Their sum is the free energy; diagnostics read the
    components separately.
    """
    abias, bbias = _default_biases(m, abias, bbias)
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != m.n_visible:
        raise ValueError("state dimension inconsistent with model")
    pre = bbias + _scaled_visible(v, m) @ m.W
    structural = -np.sum(softplus(pre), axis=-1)
    if m.arch == ARCH_BERNOULLI:
        visible_term = -np.sum(abias * v, axis=-1)
    else:
        visible_term = np.sum((v - abias) ** 2 / (2.0 * m.sigma**2), axis=-1)
    return visible_term, structural


def free_energy(v: np.ndarray, m: ModelParams,
                abias: np.ndarray | None = None,
                bbias: np.ndarray | None = None) -> np.ndarray:
    """Closed-form F(v) = -log sum_h exp(-E(v, h))."""
    visible_term, structural = free_energy_terms(v, m, abias, bbias)
    return visible_term + structural


def hidden_activation_probs(v: np.ndarray, m: ModelParams,
                            bbias: np.ndarray | None = None) -> np.ndarray:
    """P(h_j = 1 | v) = sigmoid(bbias_j + sum_i scaled(v)_i W_ij)."""
    _, bbias = _default_biases(m, None, bbias)
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != m.n_visible:
        raise ValueError("state dimension inconsistent with model")
    return sigmoid(bbias + _scaled_visible(v, m) @ m.W)


def sample_hidden(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw h_j = 1 iff a uniform variate falls below p_j."""
    p = np.asarray(p, dtype=np.float64)
    return (rng.random(p.shape) < p).astype(np.float64)


def visible_reconstruction(h: np.ndarray, m: ModelParams,
                           abias: np.ndarray | None = None,
                           rng: np.random.Generator | None = None,
                           mode: str = "mean") -> np.ndarray:
    """Conditional of the visible layer given a hidden state.

    Gaussian: a unit-variance normal centered on abias + W h (the scales
    are fixed at one for z-scored inputs). Bernoulli: per-unit probability
    sigmoid(abias + W h). ``mode="mean"`` returns the center/probability;
    ``mode="sample"`` draws from the conditional and requires ``rng``.
    """
    abias, _ = _default_biases(m, abias, None)
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != m.n_hidden:
        raise ValueError("hidden dimension inconsistent with model")
    if mode not in ("mean", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    center = abias + h @ m.W.T
    if m.arch == ARCH_GAUSSIAN:
        if mode == "mean":
            return center
        return center + rng.standard_normal(center.shape)
    p = sigmoid(center)
    if mode == "mean":
        return p
    return (rng.random(p.shape) < p).astype(np.float64)


def _draw(rng, method: str, shape: tuple) -> np.ndarray:
    """Variates of ``shape`` from one generator, or row c from ``rng[c]``."""
    if isinstance(rng, list):
        return np.stack([getattr(g, method)(shape[1:]) for g in rng])
    return getattr(rng, method)(shape)


def _bernoulli_logits(rng, lead: tuple, n_hidden: int, n_visible: int,
                      steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Logits of the hidden and visible uniforms of ``steps`` sweeps.

    Shapes are (steps, *lead, n_hidden) and (steps, *lead, n_visible). numpy
    takes doubles from a bit stream one after another, so one draw per
    generator leaves it where per-sweep hidden-then-visible draws would.
    """
    if isinstance(rng, list):
        lu = _logit(np.stack([g.random((steps, n_hidden + n_visible)) for g in rng], axis=1))
        return lu[..., :n_hidden], lu[..., n_hidden:]
    rows = math.prod(lead)
    lu = _logit(rng.random((steps, rows * (n_hidden + n_visible))))
    return (lu[:, :rows * n_hidden].reshape((steps, *lead, n_hidden)),
            lu[:, rows * n_hidden:].reshape((steps, *lead, n_visible)))


def gibbs_sweeps(v: np.ndarray, m: ModelParams, abias: np.ndarray, bbias: np.ndarray,
                 rng, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Run ``steps`` block-Gibbs sweeps h ~ P(h|v), v' ~ P(v|h); return (v, h).

    The one kernel behind gibbs_step, run_chains and generate. It checks
    nothing: ``v`` is float64 of shape (..., n_visible), the biases are
    resolved, and ``rng`` is a generator or a list with one per row of
    ``v``. A unit turns on when its input exceeds logit(u) minus its bias,
    which is the event u < sigmoid(bias + input), so no sigmoid is computed.
    Each sweep consumes hidden uniforms, then visible uniforms (Bernoulli)
    or standard normals (Gaussian, whose ziggurat takes a variable number of
    words, so only Bernoulli sweeps are drawn ahead).
    """
    W, WT = m.W, m.W.T
    h = np.zeros(v.shape[:-1] + (m.n_hidden,))
    with np.errstate(divide="ignore"):
        if m.arch == ARCH_BERNOULLI:
            lu_h, lu_v = _bernoulli_logits(rng, v.shape[:-1], m.n_hidden,
                                           m.n_visible, steps)
            for th_h, th_v in zip(lu_h - bbias, lu_v - abias):
                h = (np.dot(v, W) > th_h).astype(np.float64)
                v = (np.dot(h, WT) > th_v).astype(np.float64)
        else:
            for _ in range(steps):
                th_h = _logit(_draw(rng, "random", h.shape)) - bbias
                h = (np.dot(v / m.sigma, W) > th_h).astype(np.float64)
                v = abias + np.dot(h, WT) + _draw(rng, "standard_normal", v.shape)
    return v, h


def gibbs_step(v: np.ndarray, m: ModelParams,
               abias: np.ndarray | None = None,
               bbias: np.ndarray | None = None,
               rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One block-Gibbs transition: sample h ~ P(h|v), then v' ~ P(v|h).

    Returns (v', h). Per step the generator is consumed in a fixed order:
    n_hidden uniforms for the hidden draw, then n_visible variates for the
    visible draw.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != m.n_visible:
        raise ValueError("state dimension inconsistent with model")
    abias, bbias = _default_biases(m, abias, bbias)
    return gibbs_sweeps(v, m, abias, bbias, rng, 1)


def run_chains(v: np.ndarray, m: ModelParams,
               abias: np.ndarray | None, bbias: np.ndarray | None,
               rngs: list[np.random.Generator], steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance a batch of independent Gibbs chains, one row per chain.

    Chain c consumes only ``rngs[c]``, in the same per-step order as
    gibbs_step, so the draws of one chain never depend on how many others
    run alongside it. Returns the final (v, h) batch.
    """
    v = np.asarray(v, dtype=np.float64)
    if len(rngs) != v.shape[0]:
        raise ValueError("need one generator per chain")
    abias, bbias = _default_biases(m, abias, bbias)
    return gibbs_sweeps(v, m, abias, bbias, list(rngs), steps)


def enumerate_states(n: int) -> np.ndarray:
    """All binary vectors of length n as a (2^n, n) matrix.

    Row i holds the bits of i with entry k equal to bit k (least
    significant bit in column 0), matching state_index.
    """
    idx = np.arange(1 << n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64)


def state_index(v: np.ndarray) -> np.ndarray:
    """Index of a binary state under the enumerate_states ordering."""
    v = np.asarray(v)
    weights = 1 << np.arange(v.shape[-1], dtype=np.int64)
    return np.rint(v @ weights).astype(np.int64)


def exact_marginals(m: ModelParams,
                    abias: np.ndarray | None = None,
                    bbias: np.ndarray | None = None) -> np.ndarray:
    """Exact P(v) over all 2^n_visible states of a tiny Bernoulli model.

    Test oracle: P(v) = exp(-F(v)) / Z with Z summed by enumeration.
    Probabilities are indexed by state_index and sum to one.
    """
    if m.arch != ARCH_BERNOULLI:
        raise ValueError("exact enumeration requires the Bernoulli architecture")
    if m.n_visible > ENUMERATION_LIMIT or m.n_hidden > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to {ENUMERATION_LIMIT} units per layer")
    states = enumerate_states(m.n_visible)
    log_weights = -free_energy(states, m, abias, bbias)
    return np.exp(log_weights - logsumexp(log_weights))
