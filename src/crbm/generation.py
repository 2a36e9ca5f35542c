"""Autoregressive synthesis from a trained model.

Generation runs the model forward one step at a time: condition on the
window of the last N emitted rows, equilibrate a Gibbs chain under the
resulting dynamic biases, emit the final visible state, then slide the
window.
"""

import numpy as np

from .data import EncodedSeries, decode_series
from .dynamics import dynamic_hidden_bias, dynamic_visible_bias
from .model import READ_AHEAD_BYTES, ModelParams, gibbs_kernel, sweep_variates, sweep_width


def generate(m: ModelParams, seed_window: np.ndarray, steps: int,
             rng: np.random.Generator, burn_in: int = 20,
             codec=None) -> EncodedSeries:
    """Emit ``steps`` rows, each equilibrated for ``burn_in`` extra sweeps.

    ``seed_window`` is the flat concatenation of the N rows preceding the
    first emitted one (oldest first); with lag 0 it must be empty. Each
    step freezes the window, starts the chain at its most recent row, runs
    burn_in + 1 block-Gibbs transitions, and appends the final state; row t
    is therefore a function of (window before t, generator state) only.
    Uniforms are drawn for chunks of rows of at most READ_AHEAD_BYTES, in
    the order gibbs_step would take them, and no more than the rows use.
    A rollout that runs away is stopped at the end of the chunk where it
    went non-finite, with a ValueError naming the first such step. The
    returned series is in encoded units; pass ``codec`` so downstream
    decoding knows the bit layout of a binary model.
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
    chunk = max(1, READ_AHEAD_BYTES // (8 * sweeps * width))
    # With no window to restart from, the chain persists across emissions.
    v = np.zeros(m.n_visible)
    out = np.empty((steps, m.n_visible))
    for start in range(0, steps, chunk):
        stop = min(start + chunk, steps)
        lu_h, e_v = sweep_variates(rng.random((stop - start, sweeps, width)), m)
        # a runaway Gaussian rollout overflows; it is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(start, stop):
                abias = dynamic_visible_bias(window, m)
                bbias = dynamic_hidden_bias(window, m)
                if m.lag:
                    v = window[-m.n_visible:]
                v, _h = gibbs_kernel(v, m, abias, bbias, lu_h[t - start], e_v[t - start])
                out[t] = v
                if m.lag:
                    window = np.concatenate([window[m.n_visible:], v])
        finite = np.isfinite(out[start:stop]).all(axis=1)
        if not finite.all():
            raise ValueError(f"rollout went non-finite at step "
                             f"{start + int(np.argmin(finite))} of {steps}")
    return EncodedSeries(matrix=out, arch=m.arch, codec=codec)


__all__ = ["generate", "decode_series"]
