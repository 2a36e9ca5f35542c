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
    sum((v - a)^2 / (2 sigma^2)) - b.h - (v / sigma).W.h, so given h a
    Gaussian visible unit is normal with center a + sigma (W h) and scale
    sigma;
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

# Bytes of uniforms in one read-ahead block of all persistent chains, in one
# chunk of generate's rows, and of hidden pre-activations in one block of
# scored rows; larger blocks save few calls and raise peak RSS.
READ_AHEAD_BYTES = 256 * 1024


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5 + 0.5 tanh(x / 2); saturates without overflow.

    ``out`` (float64, the shape of x, may be x itself) receives the result
    with no temporary array.
    """
    if out is None:
        out = np.empty(np.shape(x))
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out if out.ndim else out[()]


def logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) over all entries, shifted by the maximum."""
    shift = np.max(x)
    return shift + np.log(np.sum(np.exp(x - shift)))


def _logit(u: np.ndarray) -> np.ndarray:
    """log(u / (1 - u)) for uniforms in [0, 1); u = 0 maps to -inf.

    Callers silence the divide warning of log(0).
    """
    return np.log(u / (1.0 - u))


def softplus(x: np.ndarray, out: np.ndarray | None = None,
             overwrite_x: bool = False) -> np.ndarray:
    """Overflow-safe log(1 + exp(x)): max(x, 0) + log1p(exp(-|x|)).

    ``out`` (float64, the shape of x) receives the result; with
    ``overwrite_x`` the float64 array x is used as scratch, so the two
    buffers are all the call touches.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0, out=out)
    tail = x if overwrite_x else np.empty(x.shape)
    np.abs(x, out=tail)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    out += tail
    return out


@dataclass
class ModelParams:
    """Full CRBM parameterization.

    ``A`` and ``B`` map the flattened history window (lag * n_visible
    entries, oldest observation first) to visible and hidden bias shifts.
    With lag = 0 both are empty and the model is a static RBM. ``sigma``
    holds the Gaussian per-unit scales; inputs are z-scored so it stays at
    one and is never learned, but energy, sampler and gradients all honor
    whatever it contains.
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


def _visible_term(v: np.ndarray, abias: np.ndarray, m: ModelParams) -> np.ndarray:
    """The part of energy and free energy that involves v alone, per row.

    -abias.v for the Bernoulli architecture, sum((v - abias)^2 / 2 sigma^2)
    for the Gaussian one.
    """
    if m.arch == ARCH_BERNOULLI:
        return -np.sum(abias * v, axis=-1)
    return np.sum((v - abias) ** 2 / (2.0 * m.sigma**2), axis=-1)


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
    return _visible_term(v, abias, m) - hidden_term - interaction


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
    structural = -np.sum(softplus(pre, overwrite_x=True), axis=-1)
    return _visible_term(v, abias, m), structural


def free_energy(v: np.ndarray, m: ModelParams,
                abias: np.ndarray | None = None,
                bbias: np.ndarray | None = None) -> np.ndarray:
    """Closed-form F(v) = -log sum_h exp(-E(v, h))."""
    visible, structural = free_energy_terms(v, m, abias, bbias)
    return visible + structural


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

    Gaussian: per unit a normal with center abias + sigma * (W h) and
    standard deviation sigma, the conditional of the energy above.
    Bernoulli: per-unit probability sigmoid(abias + W h). ``mode="mean"``
    returns the center/probability; ``mode="sample"`` draws from the
    conditional and requires ``rng``.
    """
    abias, _ = _default_biases(m, abias, None)
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != m.n_hidden:
        raise ValueError("hidden dimension inconsistent with model")
    if mode not in ("mean", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    wh = h @ m.W.T
    if m.arch == ARCH_GAUSSIAN:
        center = abias + m.sigma * wh
        if mode == "mean":
            return center
        return center + m.sigma * rng.standard_normal(center.shape)
    p = sigmoid(abias + wh)
    if mode == "mean":
        return p
    return (rng.random(p.shape) < p).astype(np.float64)


class ChainStreams:
    """Per-chain generators, read ahead in blocks.

    ``read(n)`` returns the next n uniforms of every chain, chain c's from
    ``rngs[c]`` alone. numpy hands out doubles one after another, so a
    chain's uniforms are the same whether read ahead or drawn directly, and
    never depend on how many other chains there are. A refill draws one
    block per chain, ``block_bytes`` for all chains together but at least
    the read, so most reads call no generator; ``block_bytes=0`` draws
    exactly what each read asks for.
    """

    def __init__(self, rngs, block_bytes: int = READ_AHEAD_BYTES):
        self.rngs = list(rngs)
        self._block = block_bytes // (8 * max(len(self.rngs), 1))
        self._buf = np.empty((len(self.rngs), 0))
        self._pos = 0

    def __len__(self) -> int:
        return len(self.rngs)

    def read(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms of every chain, shape (n_chains, n)."""
        if self._pos + n > self._buf.shape[1]:
            left = self._buf.shape[1] - self._pos
            buf = np.empty((len(self.rngs), max(self._block, n)))
            buf[:, :left] = self._buf[:, self._pos:]
            for rng, row in zip(self.rngs, buf):
                rng.random(out=row[left:])
            self._buf, self._pos = buf, 0
        self._pos += n
        return self._buf[:, self._pos - n:self._pos]


def sweep_width(m: ModelParams) -> int:
    """Uniforms one row takes per Gibbs sweep.

    n_hidden for the hidden layer, then n_visible for a Bernoulli visible
    layer, or 2 n_visible for a Gaussian one, whose normals come by
    Box-Muller from the u1 of every unit followed by the u2 of every unit.
    """
    return m.n_hidden + (1 if m.arch == ARCH_BERNOULLI else 2) * m.n_visible


def sweep_variates(u: np.ndarray, m: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Hidden logits and visible variates of uniforms of shape (..., sweep_width(m)).

    The visible variates are logits for a Bernoulli layer and Box-Muller
    normals z = sqrt(-2 log1p(-u1)) cos(2 pi u2) for a Gaussian one; z is
    finite at u1 = 0, and logit(0) = -inf turns a unit on.
    """
    nh, nv = m.n_hidden, m.n_visible
    with np.errstate(divide="ignore"):
        if m.arch == ARCH_BERNOULLI:
            lu = _logit(u)
            return lu[..., :nh], lu[..., nh:]
        lu_h = _logit(u[..., :nh])
    u1, u2 = u[..., nh:nh + nv], u[..., nh + nv:]
    return lu_h, np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def gibbs_kernel(v: np.ndarray, m: ModelParams, abias: np.ndarray, bbias: np.ndarray,
                 lu_h: np.ndarray, e_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run one block-Gibbs sweep per leading entry of the variates; return (v, h).

    The one kernel behind gibbs_step, run_chains and generate. It checks
    nothing: ``v`` is float64 of shape (..., n_visible), the biases are
    resolved, and ``lu_h, e_v`` come from sweep_variates with shapes
    (steps, *v.shape[:-1], ...). A unit turns on when its input exceeds
    logit(u) minus its bias, which is the event u < sigmoid(bias + input),
    so no sigmoid is computed. A Gaussian visible row is a + sigma * (W h + z).
    """
    W, WT = m.W, m.W.T
    h = np.zeros(v.shape[:-1] + (m.n_hidden,))
    if m.arch == ARCH_BERNOULLI:
        for th_h, th_v in zip(lu_h - bbias, e_v - abias):
            h = (np.dot(v, W) > th_h).astype(np.float64)
            v = (np.dot(h, WT) > th_v).astype(np.float64)
        return v, h
    for th_h, z in zip(lu_h - bbias, e_v):
        h = (np.dot(v / m.sigma, W) > th_h).astype(np.float64)
        v = abias + m.sigma * (np.dot(h, WT) + z)
    return v, h


def gibbs_sweeps(v: np.ndarray, m: ModelParams, abias: np.ndarray, bbias: np.ndarray,
                 rng, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Run ``steps`` block-Gibbs sweeps h ~ P(h|v), v' ~ P(v|h); return (v, h).

    Draws the uniforms of all sweeps, then runs gibbs_kernel on their
    sweep_variates. From a ChainStreams, row c reads chain c's stream sweep
    after sweep. From one generator, each sweep takes the hidden uniforms of
    all rows, then their visible ones, in one draw that leaves the generator
    where per-sweep draws would.
    """
    width, nh = sweep_width(m), m.n_hidden
    if isinstance(rng, ChainStreams):
        u = rng.read(steps * width).reshape(len(rng), steps, width).swapaxes(0, 1)
    else:
        lead = v.shape[:-1]
        rows = math.prod(lead)
        u = rng.random((steps, rows * width))
        u = np.concatenate([u[:, :rows * nh].reshape((steps, *lead, nh)),
                            u[:, rows * nh:].reshape((steps, *lead, width - nh))], axis=-1)
    return gibbs_kernel(v, m, abias, bbias, *sweep_variates(u, m))


def gibbs_step(v: np.ndarray, m: ModelParams,
               abias: np.ndarray | None = None,
               bbias: np.ndarray | None = None,
               rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One block-Gibbs transition: sample h ~ P(h|v), then v' ~ P(v|h).

    Returns (v', h). The generator is consumed in a fixed order: n_hidden
    uniforms per row for the hidden draw, then n_visible (Bernoulli) or
    2 n_visible (Gaussian) uniforms per row for the visible draw.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != m.n_visible:
        raise ValueError("state dimension inconsistent with model")
    abias, bbias = _default_biases(m, abias, bbias)
    return gibbs_sweeps(v, m, abias, bbias, rng, 1)


def run_chains(v: np.ndarray, m: ModelParams,
               abias: np.ndarray | None, bbias: np.ndarray | None,
               rngs, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance a batch of independent Gibbs chains, one row per chain.

    ``rngs`` is a list of one generator per chain, from which each call
    draws exactly the uniforms it uses, or a ChainStreams that reads them
    ahead. Either way chain c consumes only its own stream, in the same
    per-step order as gibbs_step, so the draws of one chain never depend on
    how many others run alongside it. Returns the final (v, h) batch.
    """
    v = np.asarray(v, dtype=np.float64)
    if len(rngs) != v.shape[0]:
        raise ValueError("need one generator per chain")
    abias, bbias = _default_biases(m, abias, bbias)
    if not isinstance(rngs, ChainStreams):
        rngs = ChainStreams(rngs, block_bytes=0)
    return gibbs_sweeps(v, m, abias, bbias, rngs, steps)


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
