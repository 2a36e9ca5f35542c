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
    sum((v - a)^2 / 2) - b.h - v.W.h, so given h a Gaussian visible unit
    is normal with center a + W h and unit variance (inputs are z-scored);
  * free energy F(v) = -log sum_h exp(-E(v, h)), which factorizes into the
    visible term plus a softplus per hidden unit;
  * sampling is a pure function of (inputs, generator state).
"""

from __future__ import annotations

import numpy as np

ARCH_BERNOULLI = "bernoulli"
ARCH_GAUSSIAN = "gaussian"

# exact_marginals enumerates 2^n_visible states; keep that cheap
ENUMERATION_LIMIT = 12

# Bytes of uniforms in one read-ahead block of all persistent chains, of
# uniforms and variates in one chunk of generate's rows, and of hidden
# pre-activations in one block of scored rows; larger blocks save few calls
# and raise peak RSS.
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

    Callers silence the divide warning of log(0). One temporary holds
    1 - u, the ratio and its log; ``u`` is never written, because in
    training it is a ChainStreams buffer.
    """
    t = 1.0 - u
    np.divide(u, t, out=t)
    return np.log(t, out=t)


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


PARAM_NAMES = ("W", "a", "b", "A", "B")
_VIEWS = PARAM_NAMES + ("C", "buffer")


class ModelParams:
    """Full CRBM parameterization: W, a, b, A and B as views of one float64
    buffer, so that an update or a check is one array operation.

    ``buffer`` holds W, then C = [[a | b]; [A | B]], both row-major: the row
    [1 | window] times C is that window's visible and hidden biases side by
    side. ``A`` and ``B`` map the flattened history window (lag * n_visible
    entries, oldest observation first) to visible and hidden bias shifts.
    With lag = 0 both are empty and the model is a static RBM. Gaussian
    visible units have unit variance, because inputs are z-scored.

    Assigning an array to one of the seven names copies it into the buffer,
    shape-checked. ``like(buffer)`` gives the same views over another buffer,
    which is how a gradient or a momentum shares the layout; pickle and deep
    copies rebuild through the constructor and its checks.
    """

    def __init__(self, W, a, b, arch: str, A=None, B=None, lag: int = 0):
        if arch not in (ARCH_BERNOULLI, ARCH_GAUSSIAN):
            raise ValueError(f"unknown architecture {arch!r}")
        nv, nh = np.shape(W)
        if nv < 1 or nh < 1:
            raise ValueError(f"a model needs visible and hidden units, got {nv} and {nh}")
        if np.shape(a) != (nv,) or np.shape(b) != (nh,):
            raise ValueError("bias shapes inconsistent with W")
        if lag < 0:
            raise ValueError("lag must be >= 0")
        A = np.zeros((lag * nv, nv)) if A is None else A
        B = np.zeros((lag * nv, nh)) if B is None else B
        if np.shape(A) != (lag * nv, nv) or np.shape(B) != (lag * nv, nh):
            raise ValueError("autoregressive matrix shapes inconsistent with lag")
        self.__dict__.update(_views(np.empty(nv * nh + (1 + lag * nv) * (nv + nh)), nv, nh),
                             arch=arch, lag=lag)
        for name, value in zip(PARAM_NAMES, (W, a, b, A, B)):
            setattr(self, name, value)
        name = self.non_finite()
        if name is not None:
            raise ValueError(f"non-finite entries in {name}")

    def like(self, buffer: np.ndarray) -> "ModelParams":
        """These views over ``buffer``, a float64 array of the buffer's size;
        nothing is checked or copied."""
        new = object.__new__(ModelParams)
        new.__dict__.update(self.__dict__, **_views(buffer, *self.W.shape))
        return new

    def __reduce__(self):
        return ModelParams, (self.W, self.a, self.b, self.arch, self.A, self.B, self.lag)

    def __setattr__(self, name, value):
        view = self.__dict__.get(name) if name in _VIEWS else None
        if view is None:
            object.__setattr__(self, name, value)
        elif value is not view:
            value = np.asarray(value, dtype=np.float64)
            if value.shape != view.shape:
                raise ValueError(f"{name} must have shape {view.shape}, got {value.shape}")
            view[...] = value

    @property
    def n_visible(self) -> int:
        return self.W.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.W.shape[1]

    @property
    def window_size(self) -> int:
        return self.lag * self.n_visible

    def non_finite(self) -> str | None:
        """Name of the first of W, a, b, A, B with a non-finite entry, or None."""
        if np.isfinite(self.buffer).all():
            return None
        return next(name for name in PARAM_NAMES if not np.isfinite(getattr(self, name)).all())

    def copy(self) -> "ModelParams":
        return ModelParams(*self.__reduce__()[1])


def _views(buffer: np.ndarray, nv: int, nh: int) -> dict:
    C = buffer[nv * nh:].reshape(-1, nv + nh)
    return dict(buffer=buffer, W=buffer[:nv * nh].reshape(nv, nh), C=C,
                a=C[0, :nv], b=C[0, nv:], A=C[1:, :nv], B=C[1:, nv:])


def _default_biases(m: ModelParams, abias, bbias):
    return (m.a if abias is None else np.asarray(abias, dtype=np.float64),
            m.b if bbias is None else np.asarray(bbias, dtype=np.float64))


def _visible_term(v: np.ndarray, abias: np.ndarray, m: ModelParams) -> np.ndarray:
    """The part of energy and free energy that involves v alone, per row.

    -abias.v for the Bernoulli architecture, sum((v - abias)^2 / 2) for the
    Gaussian one.
    """
    if m.arch == ARCH_BERNOULLI:
        return -np.sum(abias * v, axis=-1)
    return np.sum((v - abias) ** 2 / 2.0, axis=-1)


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
    interaction = np.sum((v @ m.W) * h, axis=-1)
    hidden_term = np.sum(bbias * h, axis=-1)
    return _visible_term(v, abias, m) - hidden_term - interaction


def free_energy_terms(v: np.ndarray, m: ModelParams,
                      abias: np.ndarray | None = None,
                      bbias: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The two components of the free energy.

    Returns ``(visible_term, structural)`` where ``structural`` is the
    negated softplus sum over hidden units (always <= 0) and
    ``visible_term`` is the quadratic penalty sum((v - a)^2 / 2)
    for the Gaussian architecture or the linear term -a.v for the
    Bernoulli one. Their sum is the free energy; diagnostics read the
    components separately.
    """
    abias, bbias = _default_biases(m, abias, bbias)
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != m.n_visible:
        raise ValueError("state dimension inconsistent with model")
    pre = bbias + v @ m.W
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
    """P(h_j = 1 | v) = sigmoid(bbias_j + sum_i v_i W_ij)."""
    _, bbias = _default_biases(m, None, bbias)
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != m.n_visible:
        raise ValueError("state dimension inconsistent with model")
    return sigmoid(bbias + v @ m.W)


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
    so no sigmoid is computed. A Gaussian visible row is a + (W h + z).
    """
    W, WT = m.W, m.W.T
    h = np.zeros(v.shape[:-1] + (m.n_hidden,))
    if m.arch == ARCH_BERNOULLI:
        for th_h, th_v in zip(lu_h - bbias, e_v - abias):
            h = (np.dot(v, W) > th_h).astype(np.float64)
            v = (np.dot(h, WT) > th_v).astype(np.float64)
        return v, h
    for th_h, z in zip(lu_h - bbias, e_v):
        h = (np.dot(v, W) > th_h).astype(np.float64)
        v = abias + (np.dot(h, WT) + z)
    return v, h


def gibbs_step(v: np.ndarray, m: ModelParams,
               abias: np.ndarray | None = None,
               bbias: np.ndarray | None = None, *,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One block-Gibbs transition: sample h ~ P(h|v), then v' ~ P(v|h).

    Returns (v', h). Like every sampler here, each row reads sweep_width(m)
    consecutive uniforms, its hidden ones first, then its visible ones, and
    rows read one after another; so a batch call leaves the generator in
    the state that row-by-row calls leave it in. Its rows agree with theirs
    for a Bernoulli model except at threshold ties; a Gaussian model's may
    differ in the last bits, because numpy computes a one-row product by
    another BLAS routine. ``rng``, the generator they come from, must be
    given by keyword.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != m.n_visible:
        raise ValueError("state dimension inconsistent with model")
    abias, bbias = _default_biases(m, abias, bbias)
    u = rng.random((1, *v.shape[:-1], sweep_width(m)))
    return gibbs_kernel(v, m, abias, bbias, *sweep_variates(u, m))


def run_chains(v: np.ndarray, m: ModelParams,
               abias: np.ndarray | None, bbias: np.ndarray | None,
               rngs, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance a batch of independent Gibbs chains, one row per chain.

    ``rngs`` is a list of one generator per chain, from which each call
    draws exactly the uniforms it uses, or a ChainStreams that reads them
    ahead. Either way chain c reads only its own stream, sweep after sweep
    in gibbs_step's layout, so the draws of one chain never depend on how
    many others run alongside it. Returns the final (v, h) batch.
    """
    v = np.asarray(v, dtype=np.float64)
    if len(rngs) != v.shape[0]:
        raise ValueError("need one generator per chain")
    abias, bbias = _default_biases(m, abias, bbias)
    if not isinstance(rngs, ChainStreams):
        rngs = ChainStreams(rngs, block_bytes=0)
    width = sweep_width(m)
    u = rngs.read(steps * width).reshape(len(rngs), steps, width).swapaxes(0, 1)
    return gibbs_kernel(v, m, abias, bbias, *sweep_variates(u, m))


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
