"""Autoregressive synthesis from a trained model plus summary statistics.

Generation runs the model forward one step at a time: condition on the
window of the last N emitted rows, equilibrate a Gibbs chain under the
resulting dynamic biases, emit the final visible state, then slide the
window. Statistics here are the ones worth comparing between a real series
and its synthetic twin: moments, tail quantiles, cross-correlations, and
the autocorrelation of squared values (volatility clustering).
"""

from dataclasses import dataclass

import numpy as np

from .data import EncodedSeries, MODE_BINARY, MODE_CONTINUOUS, decode_series
from .dynamics import dynamic_hidden_bias, dynamic_visible_bias
from .model import ARCH_BERNOULLI, ModelParams, gibbs_sweeps

QUANTILE_LEVELS = (0.001, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999)
SQ_AUTOCORR_LAGS = tuple(range(1, 21))


def generate(m: ModelParams, seed_window: np.ndarray, steps: int,
             rng: np.random.Generator, burn_in: int = 20,
             codec=None) -> EncodedSeries:
    """Emit ``steps`` rows, each equilibrated for ``burn_in`` extra sweeps.

    ``seed_window`` is the flat concatenation of the N rows preceding the
    first emitted one (oldest first); with lag 0 it must be empty. Each
    step freezes the window, starts the chain at its most recent row, runs
    burn_in + 1 block-Gibbs transitions, and appends the final state; row t
    is therefore a function of (window before t, generator state) only.
    The returned series is in encoded units; pass ``codec`` so downstream
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

    # With no window to restart from, the chain persists across emissions.
    v = np.zeros(m.n_visible)
    out = np.empty((steps, m.n_visible))
    for t in range(steps):
        abias = dynamic_visible_bias(window, m)
        bbias = dynamic_hidden_bias(window, m)
        if m.lag:
            v = window[-m.n_visible:]
        v, _h = gibbs_sweeps(v, m, abias, bbias, rng, burn_in + 1)
        out[t] = v
        if m.lag:
            window = np.concatenate([window[m.n_visible:], v])
    mode = MODE_BINARY if m.arch == ARCH_BERNOULLI else MODE_CONTINUOUS
    return EncodedSeries(matrix=out, mode=mode, codec=codec)


@dataclass
class SummaryStats:
    """Per-asset marginal statistics and cross-asset structure.

    ``quantiles`` has one row per level in ``QUANTILE_LEVELS``;
    ``sq_autocorr`` one row per lag in ``SQ_AUTOCORR_LAGS``. Correlations
    involving a constant column are NaN rather than an arbitrary number.
    """

    asset_names: list
    mean: np.ndarray
    std: np.ndarray
    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    quantile_levels: np.ndarray
    quantiles: np.ndarray
    correlation: np.ndarray
    sq_autocorr_lags: np.ndarray
    sq_autocorr: np.ndarray


def _safe_correlation(matrix: np.ndarray) -> np.ndarray:
    """Pearson matrix with NaN rows/columns for constant assets."""
    degenerate = np.ptp(matrix, axis=0) == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(matrix, rowvar=False)
    corr = np.atleast_2d(corr)
    corr[degenerate, :] = np.nan
    corr[:, degenerate] = np.nan
    np.fill_diagonal(corr, 1.0)
    return corr


def _autocorrelation(x: np.ndarray, lags) -> np.ndarray:
    """Sample autocorrelation at the given positive lags (NaN if constant)."""
    x = x - x.mean()
    denom = float(x @ x)
    out = np.empty(len(lags))
    for i, lag in enumerate(lags):
        if denom == 0.0 or lag >= x.shape[0]:
            out[i] = np.nan
        else:
            out[i] = float(x[lag:] @ x[:-lag]) / denom
    return out


def _shape_moments(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column skewness m3 / m2^1.5 and excess kurtosis m4 / m2^2 - 3.

    Central moments are population (biased) ones. A constant column gets
    NaN for both, even when its mean is off by rounding.
    """
    dev = matrix - matrix.mean(axis=0)
    m2 = np.where(np.ptp(matrix, axis=0) == 0.0, np.nan, np.mean(dev**2, axis=0))
    return (np.mean(dev**3, axis=0) / m2**1.5,
            np.mean(dev**4, axis=0) / m2**2 - 3.0)


def summary_stats(matrix: np.ndarray, asset_names=None) -> SummaryStats:
    """Describe each column of a (rows, assets) value matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least two rows")
    n_assets = matrix.shape[1]
    if asset_names is None:
        asset_names = [f"asset_{i}" for i in range(n_assets)]
    if len(asset_names) != n_assets:
        raise ValueError("asset name count does not match columns")
    levels = np.array(QUANTILE_LEVELS)
    lags = np.array(SQ_AUTOCORR_LAGS)
    sq = matrix**2
    skewness, excess_kurtosis = _shape_moments(matrix)
    return SummaryStats(
        asset_names=list(asset_names),
        mean=matrix.mean(axis=0),
        std=matrix.std(axis=0),
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        quantile_levels=levels,
        quantiles=np.quantile(matrix, levels, axis=0),
        correlation=_safe_correlation(matrix),
        sq_autocorr_lags=lags,
        sq_autocorr=np.column_stack([_autocorrelation(sq[:, j], lags)
                                     for j in range(n_assets)]),
    )


__all__ = ["generate", "decode_series", "summary_stats", "SummaryStats",
           "QUANTILE_LEVELS", "SQ_AUTOCORR_LAGS"]
