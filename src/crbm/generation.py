"""Autoregressive synthesis from a trained model.

Generation runs the model forward one step at a time: condition on the
window of the last N emitted rows, equilibrate a Gibbs chain under the
resulting dynamic biases, emit the final visible state, then slide the
window.
"""

from __future__ import annotations

import numpy as np

from .data import EncodedSeries
from .dynamics import dynamic_hidden_bias, dynamic_visible_bias
from .model import READ_AHEAD_BYTES, ModelParams, gibbs_kernel, sweep_variates, sweep_width


def rollout_chunks(m: ModelParams, seed_window: np.ndarray, steps: int,
                   rng: np.random.Generator, burn_in: int = 20):
    """generate's rollout as an iterator of ``(start, rows)`` chunks.

    ``rows`` holds emitted rows start, start + 1, ... in encoded units, and
    the chunks cover all ``steps`` rows in order. The arguments are checked
    when this is called, not at the first chunk. Each chunk's uniforms and
    variates take about READ_AHEAD_BYTES (a row whose sweeps take more
    draws them in slices that do), and the encoded rows live in a ring of
    max(lag, 1) + chunk rows, so memory grows with neither ``steps`` nor
    ``burn_in``: ``rows`` is a view of the ring that the next chunk
    overwrites, and a caller that keeps it must copy it.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    window = np.asarray(seed_window, dtype=np.float64).ravel()
    if window.shape[0] != m.window_size:
        raise ValueError(
            f"seed window has {window.shape[0]} values, model expects {m.window_size}")
    sweeps, width = burn_in + 1, sweep_width(m)
    # sweep_variates makes about as many doubles as the uniforms it reads
    chunk = min(steps, max(1, READ_AHEAD_BYTES // (16 * sweeps * width)))
    # a row whose sweeps overrun that (then chunk = 1) runs them in slices that fit
    part = min(sweeps, max(1, READ_AHEAD_BYTES // (16 * width)))
    # The ring's first rows hold the window before the chunk, so each window
    # is a view and each chain starts at the row before; with lag 0 a zero
    # row starts the first chain, and the chain then persists across chunks.
    first = max(m.lag, 1)
    ring = np.zeros((first + chunk, m.n_visible))
    ring[first - m.lag:first] = window.reshape(m.lag, m.n_visible)

    def chunks():
        for start in range(0, steps, chunk):
            n = min(chunk, steps - start)
            lu_h, e_v = sweep_variates(rng.random((n, part, width)), m)
            # a runaway Gaussian rollout overflows; it is reported below
            with np.errstate(over="ignore", invalid="ignore"):
                for i, t in enumerate(range(first, first + n)):
                    window = ring[t - m.lag:t].ravel()
                    abias = dynamic_visible_bias(window, m)
                    bbias = dynamic_hidden_bias(window, m)
                    v, _h = gibbs_kernel(ring[t - 1], m, abias, bbias, lu_h[i], e_v[i])
                    for done in range(part, sweeps, part):  # the rest of a sliced row
                        u = rng.random((min(part, sweeps - done), width))
                        v, _h = gibbs_kernel(v, m, abias, bbias, *sweep_variates(u, m))
                    ring[t] = v
            rows = ring[first:first + n]
            finite = np.isfinite(rows).all(axis=1)
            if not finite.all():
                raise ValueError(f"rollout went non-finite at step "
                                 f"{start + int(np.argmin(finite))} of {steps}")
            yield start, rows
            ring[:first] = ring[n:n + first]

    return chunks()


def generate(m: ModelParams, seed_window: np.ndarray, steps: int,
             rng: np.random.Generator, burn_in: int = 20,
             codec=None) -> EncodedSeries:
    """Emit ``steps`` rows, each equilibrated for ``burn_in`` extra sweeps.

    ``seed_window`` is the flat concatenation of the N rows preceding the
    first emitted one (oldest first); with lag 0 it must be empty. Each
    step freezes the window, starts the chain at its most recent row, runs
    burn_in + 1 block-Gibbs transitions, and appends the final state; row t
    is therefore a function of (window before t, generator state) only.
    Uniforms are drawn for chunks of rows whose uniforms and variates take
    about READ_AHEAD_BYTES, in the order gibbs_step would take them, and no
    more than the rows use.
    A rollout that runs away is stopped at the end of the chunk where it
    went non-finite, with a ValueError naming the first such step. The
    returned series is in encoded units; pass ``codec`` so downstream
    decoding knows the bit layout of a binary model.
    """
    chunks = rollout_chunks(m, seed_window, steps, rng, burn_in)
    out = np.empty((steps, m.n_visible))
    for start, rows in chunks:
        out[start:start + rows.shape[0]] = rows
    return EncodedSeries(matrix=out, arch=m.arch, codec=codec)
