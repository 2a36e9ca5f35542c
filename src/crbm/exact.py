"""Enumeration oracles for tiny models; tests use them; no command imports
this module."""

import numpy as np

from .model import ARCH_BERNOULLI, ModelParams, _default_biases, _visible_term, free_energy

# exact_marginals enumerates 2^n_visible states; keep that cheap
ENUMERATION_LIMIT = 12


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
    return np.exp(log_weights - np.logaddexp.reduce(log_weights))
