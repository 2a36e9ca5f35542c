"""Autoregressive conditioning: history windows and dynamic biases.

A history window is the flattened concatenation of the previous ``lag``
observations, oldest first. Conditioning shifts the static biases by an
affine function of that window; everything downstream then behaves as a
static RBM with per-date biases. Connections from the past are directed,
so the window never depends on the target it conditions.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .data import EncodedSeries
from .model import ARCH_GAUSSIAN, READ_AHEAD_BYTES, ModelParams, _visible_term, sigmoid, \
    softplus


def build_windows(encoded, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair each target row with its flattened history window.

    ``encoded`` may be an EncodedSeries or a plain T x D' matrix. Returns
    ``(windows, targets)`` with shapes (P, lag * D') and (P, D') where
    P = T - lag: row t of the input becomes a target once rows
    t - lag .. t - 1 exist to form its window. With lag = 0 every row is a
    target and windows are empty.

    Both are read-only views of the series (of a C-ordered copy when the
    input is not C-contiguous float64): window p is the series' bytes from
    row p to row p + lag, so rows overlap and nothing grows with rows x lag.
    Writing into either raises ValueError.

    Raises ValueError when fewer than lag + 1 rows are available.
    """
    matrix = encoded.matrix if isinstance(encoded, EncodedSeries) else np.asarray(encoded, dtype=np.float64)
    if lag < 0:
        raise ValueError("lag must be >= 0")
    full = np.ascontiguousarray(matrix)
    n_rows, width = full.shape
    n_pairs = n_rows - lag
    if n_pairs < 1:
        raise ValueError(f"need more than lag={lag} rows, got {n_rows}")
    # a C-contiguous array may report any stride along a length-1 axis
    step = full.itemsize
    windows = as_strided(full, (n_pairs, lag * width), (width * step, step), writeable=False)
    targets = full[lag:]
    targets.flags.writeable = False
    return windows, targets


def _check_window(window: np.ndarray, m: ModelParams) -> None:
    if window.shape[-1] != m.window_size:
        raise ValueError(f"window length {window.shape[-1]} != lag * n_visible = {m.window_size}")


def dynamic_hidden_bias(window: np.ndarray, m: ModelParams) -> np.ndarray:
    """b + B' w for a single window or a batch of window rows.

    With no autoregressive hidden weights the static bias is returned
    as-is, which keeps the static reduction bit-identical.
    """
    if m.B.size == 0:
        return m.b
    window = np.asarray(window, dtype=np.float64)
    _check_window(window, m)
    return m.b + window @ m.B


def dynamic_visible_bias(window: np.ndarray, m: ModelParams) -> np.ndarray:
    """a + A' w, analogous to dynamic_hidden_bias."""
    if m.A.size == 0:
        return m.a
    window = np.asarray(window, dtype=np.float64)
    _check_window(window, m)
    return m.a + window @ m.A


def score_block(m: ModelParams) -> int:
    """The rows score_rows takes per block: READ_AHEAD_BYTES of hidden
    pre-activation, at least one."""
    return max(READ_AHEAD_BYTES // (8 * m.n_hidden), 1)


def score_rows(v: np.ndarray, window: np.ndarray, m: ModelParams,
               squared_error: bool = False):
    """Free-energy terms of each row at its window's dynamic biases, in one pass.

    Returns ``(visible_term, structural, sq_err)``: the terms of
    model.free_energy_terms, and, when ``squared_error`` is set, the
    per-cell squared error of the mean-field reconstruction v -> P(h | v)
    -> E[v | h] (else None). ``v`` and ``window`` are single rows or
    batches that broadcast against each other.

    Rows go through in blocks of READ_AHEAD_BYTES of hidden pre-activation,
    at least one row each. Each block first copies its windows into one
    reused contiguous buffer: build_windows' windows overlap, and older
    numpy runs matmul on such rows outside BLAS, with other rounding. It then
    computes b + B'w + v W once into a buffer that every block reuses, and
    reads both the softplus and the sigmoid from it, so memory does not
    grow with rows x hidden units or rows x lag.
    Row results equal the one-shot formula on the same BLAS build as long
    as a block's matrix products round like the full ones.
    """
    v = np.asarray(v, dtype=np.float64)
    window = np.asarray(window, dtype=np.float64)
    if v.shape[-1] != m.n_visible:
        raise ValueError("state dimension inconsistent with model")
    _check_window(window, m)
    lead = np.broadcast_shapes(v.shape[:-1], window.shape[:-1])
    n = math.prod(lead)
    v = np.broadcast_to(v, lead + v.shape[-1:]).reshape(n, m.n_visible)
    window = np.broadcast_to(window, lead + window.shape[-1:]).reshape(n, m.window_size)
    block = score_block(m)
    pre_buf = np.empty((min(block, n), m.n_hidden))
    work_buf = np.empty_like(pre_buf)
    window_buf = np.empty((pre_buf.shape[0], m.window_size))
    visible, structural = np.empty(n), np.empty(n)
    sq_err = np.empty((n, m.n_visible)) if squared_error else None
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        pre, work, x, w = pre_buf[:hi - lo], work_buf[:hi - lo], v[lo:hi], window_buf[:hi - lo]
        w[...] = window[lo:hi]
        abias = dynamic_visible_bias(w, m)
        # at lag 0 this is a product over an empty axis, which writes zeros
        np.matmul(w, m.B, out=pre)
        pre += m.b
        pre += np.matmul(x, m.W, out=work)
        visible[lo:hi] = _visible_term(x, abias, m)
        if squared_error:
            wh = sigmoid(pre, out=work) @ m.W.T
            recon = abias + wh if m.arch == ARCH_GAUSSIAN else sigmoid(abias + wh)
            np.square(np.subtract(x, recon, out=sq_err[lo:hi]), out=sq_err[lo:hi])
        np.sum(softplus(pre, out=work, overwrite_x=True), axis=-1, out=structural[lo:hi])
    np.negative(structural, out=structural)
    if squared_error:
        sq_err = sq_err.reshape(lead + (m.n_visible,))
    return visible.reshape(lead)[()], structural.reshape(lead)[()], sq_err


def conditional_free_energy(v: np.ndarray, window: np.ndarray, m: ModelParams) -> np.ndarray:
    """Free energy of v evaluated at the window's dynamic biases."""
    visible, structural, _ = score_rows(v, window, m)
    return visible + structural


def conditional_free_energy_terms(v: np.ndarray, window: np.ndarray,
                                  m: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(visible term, structural term) at the window's dynamic biases."""
    visible, structural, _ = score_rows(v, window, m)
    return visible, structural
