"""Free-energy surveillance and real-versus-synthetic fidelity measures.

The conditional free energy of each observation given its history is a
scalar anomaly score: rows the model finds improbable get high values. Its
two components localize the surprise. The quadratic term grows when the
observation itself sits far from the predicted center (a shock in the
values); the structural term moves when the hidden units stop recognizing
the joint pattern (a change in dependence structure). A rolling z-score
rule turns the total into regime flags.

The fidelity measures are the statistics worth comparing between a real
series and its synthetic twin: moments, tail quantiles, cross-correlations,
and the autocorrelation of squared values (volatility clustering).
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import EncodedSeries
from .dynamics import build_windows, conditional_free_energy_terms
from .model import READ_AHEAD_BYTES, ModelParams

FLAG_WINDOW = 60
FLAG_THRESHOLD = 4.0
QUANTILE_LEVELS = (0.001, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999)
SQ_AUTOCORR_LAGS = tuple(range(1, 21))


@dataclass
class FreeEnergySeries:
    """Per-row free energy and its decomposition, total = quadratic +
    structural (exactly, both are computed from the same intermediates).

    For a Bernoulli model the ``quadratic`` slot carries the linear
    visible-bias term, the only non-softplus part of its free energy; the
    name follows the Gaussian case that diagnostics target. ``labels``
    aligns rows with input dates (or row indices when dates are unknown).
    """

    labels: list
    total: np.ndarray
    quadratic: np.ndarray
    structural: np.ndarray

    def __len__(self) -> int:
        return self.total.shape[0]


def free_energy_series(encoded: EncodedSeries, m: ModelParams) -> FreeEnergySeries:
    """Score every row of an encoded series under its own history.

    The first ``m.lag`` rows only seed histories and receive no score, and
    the labels are the dates (or row indices) of the scored rows.
    """
    windows, targets = build_windows(encoded.matrix, m.lag)
    quadratic, structural = conditional_free_energy_terms(targets, windows, m)
    labels = (encoded.dates[m.lag:] if encoded.dates is not None
              else list(range(m.lag, encoded.n_rows)))
    return FreeEnergySeries(labels=labels, total=quadratic + structural,
                            quadratic=quadratic, structural=structural)


def regime_flags(total: np.ndarray, window: int = FLAG_WINDOW,
                 threshold: float = FLAG_THRESHOLD) -> np.ndarray:
    """Flag rows whose score exceeds a rolling mean + threshold * std.

    The statistics come from the ``window`` scores strictly before each
    row, so a flagged row never contaminates its own baseline. The first
    ``window`` rows have no full baseline and are never flagged; a window
    below 2 or a NaN threshold is a ValueError. Rows go through in blocks of
    READ_AHEAD_BYTES of window, so the temporaries of the standard deviation
    stay small; each row's statistics are reduced over its own window alone,
    so the block does not change them.
    """
    total = np.asarray(total, dtype=np.float64)
    if total.ndim != 1:
        raise ValueError("expected a 1-D score array")
    if window < 2:
        raise ValueError("window must be >= 2")
    if np.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    flags = np.zeros(total.shape[0], dtype=bool)
    if total.shape[0] <= window:
        return flags
    prior = sliding_window_view(total[:-1], window)
    scored, scored_flags = total[window:], flags[window:]
    step = max(1, READ_AHEAD_BYTES // (8 * window))
    for start in range(0, prior.shape[0], step):
        block = prior[start:start + step]
        # a huge finite score overflows the std to inf, and threshold=inf with
        # a zero std makes the cutoff NaN; either way the row is not flagged
        with np.errstate(over="ignore", invalid="ignore"):
            cutoff = block.mean(axis=1) + threshold * block.std(axis=1)
            scored_flags[start:start + step] = scored[start:start + step] > cutoff
    return flags


@dataclass
class CorrelationFidelity:
    """How well the synthetic series reproduces cross-asset correlations.

    ``difference`` is synthetic minus real, entrywise; ``score`` is the
    mean absolute off-diagonal difference (0.0 for a single asset, NaN
    pairs from constant columns excluded).
    """

    real: np.ndarray
    synthetic: np.ndarray
    difference: np.ndarray
    score: float


def correlation_fidelity(real: np.ndarray, synthetic: np.ndarray) -> CorrelationFidelity:
    real = np.asarray(real, dtype=np.float64)
    synthetic = np.asarray(synthetic, dtype=np.float64)
    if real.ndim != 2 or synthetic.ndim != 2:
        raise ValueError("expected 2-D value matrices")
    if real.shape[1] != synthetic.shape[1]:
        raise ValueError("real and synthetic series have different asset counts")
    return _compare_correlations(_safe_correlation(real), _safe_correlation(synthetic))


def _compare_correlations(corr_real: np.ndarray, corr_synth: np.ndarray) -> CorrelationFidelity:
    """The fidelity of two Pearson matrices of the same assets."""
    diff = corr_synth - corr_real
    off = ~np.eye(diff.shape[0], dtype=bool)
    valid = off & np.isfinite(diff)
    score = float(np.mean(np.abs(diff[valid]))) if np.any(valid) else 0.0
    return CorrelationFidelity(corr_real, corr_synth, diff, score)


@dataclass
class QQTable:
    """Matched quantiles of a real and a synthetic sample, for Q-Q plots."""

    levels: np.ndarray
    real: np.ndarray
    synthetic: np.ndarray


def qq_table(real: np.ndarray, synthetic: np.ndarray, n_quantiles: int = 99) -> QQTable:
    """Quantiles at levels k / (n_quantiles + 1), k = 1..n_quantiles."""
    real = np.asarray(real, dtype=np.float64).ravel()
    synthetic = np.asarray(synthetic, dtype=np.float64).ravel()
    if n_quantiles < 1:
        raise ValueError("n_quantiles must be >= 1")
    if real.shape[0] < n_quantiles or synthetic.shape[0] < n_quantiles:
        raise ValueError("need at least n_quantiles values in each sample")
    levels = _qq_levels(n_quantiles)
    return QQTable(levels=levels, real=_quantile(real, levels),
                   synthetic=_quantile(synthetic, levels))


def _qq_levels(n_quantiles: int) -> np.ndarray:
    return np.arange(1, n_quantiles + 1) / (n_quantiles + 1)


def _quantile(x: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """np.quantile(x, levels) of a 1-D array, with the same arithmetic and
    bits, without the numpy.ma import that np.quantile's np.unique costs.

    Linear interpolation between the order statistics around each virtual
    index (n - 1) * level, from one partitioned copy of ``x``, partitioned
    at the indexes np.quantile asks for; with a NaN in ``x``, that NaN at
    every level.
    """
    n = x.shape[0]
    virtual = (n - 1) * np.asarray(levels, dtype=np.float64)
    prev = np.floor(virtual)
    nxt = prev + 1
    above = virtual >= n - 1
    prev[above] = -1
    nxt[above] = -1
    gamma = virtual - prev
    lo, hi = prev.astype(np.intp), nxt.astype(np.intp)
    kth = np.sort(np.concatenate(([0, -1], lo, hi)))
    part = np.partition(x, kth[np.diff(kth, prepend=-2) != 0])
    a, b = part[lo], part[hi]
    diff = b - a
    result = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    if np.isnan(part[-1]):
        result[:] = part[-1]
    return result


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


def _center_and_correlate(x: np.ndarray, mean: np.ndarray, constant: np.ndarray) -> np.ndarray:
    """Pearson matrix of the columns of ``x``, with NaN rows and columns for
    the ``constant`` ones, centering ``x`` in place about its axis-0 ``mean``.

    This is np.corrcoef's arithmetic (np.cov's centering, product and
    scaling) on the memory layout np.cov would copy ``x`` into, so the bits
    are np.corrcoef's; only its (rows, assets) copy is gone.
    """
    x -= mean
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.dot(x.T, x)
        corr *= np.true_divide(1, x.shape[0] - 1)
        sd = np.sqrt(np.diag(corr))
        corr /= sd[:, None]
        corr /= sd[None, :]
    np.clip(corr, -1, 1, out=corr)
    corr[constant, :] = np.nan
    corr[:, constant] = np.nan
    np.fill_diagonal(corr, 1.0)
    return corr


def _safe_correlation(matrix: np.ndarray) -> np.ndarray:
    """Pearson matrix with NaN rows/columns for constant assets."""
    x = np.array(matrix, dtype=np.float64)
    return _center_and_correlate(x, x.mean(axis=0), np.ptp(x, axis=0) == 0.0)


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


def _column_moments(column: np.ndarray, mean: float,
                    constant: bool) -> tuple[float, float, float]:
    """Population (biased) std, skewness m3 / m2^1.5 and excess kurtosis
    m4 / m2^2 - 3 of one column about its mean.

    A ``constant`` column gets NaN skewness and kurtosis, even when its mean
    is off by rounding.
    """
    dev = column - mean
    d2 = dev * dev
    m2 = d2.mean()
    if constant:
        return np.sqrt(m2), np.nan, np.nan
    dev *= d2
    d2 *= d2
    return np.sqrt(m2), dev.mean() / m2**1.5, d2.mean() / m2**2 - 3.0


def summary_stats(matrix: np.ndarray, asset_names=None) -> SummaryStats:
    """Describe each column of a (rows, assets) value matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least two rows")
    if asset_names is None:
        asset_names = [f"asset_{i}" for i in range(matrix.shape[1])]
    if len(asset_names) != matrix.shape[1]:
        raise ValueError("asset name count does not match columns")
    return _summarize(np.array(matrix), asset_names)[0]


def _summarize(x: np.ndarray, asset_names, qq_levels=()) -> tuple[SummaryStats, np.ndarray]:
    """summary_stats of a float64 matrix ``x`` that the caller gives up, and
    each column's quantiles at ``qq_levels`` (one row per level).

    Columns are reduced one at a time, so their temporaries are rows long,
    not rows x assets; each gets one _quantile call for both sets of
    levels, since a level's value does not depend on the others asked for.
    The correlation comes last and centers ``x`` in place.
    """
    n_qq = len(qq_levels)
    levels = np.concatenate([qq_levels, QUANTILE_LEVELS])
    lags = np.array(SQ_AUTOCORR_LAGS)
    n_assets = x.shape[1]
    mean = x.mean(axis=0)
    constant = np.ptp(x, axis=0) == 0.0
    moments = np.empty((3, n_assets))
    quantiles = np.empty((levels.shape[0], n_assets))
    sq_autocorr = np.empty((lags.shape[0], n_assets))
    for j in range(n_assets):
        column = x[:, j]
        moments[:, j] = _column_moments(column, mean[j], constant[j])
        quantiles[:, j] = _quantile(column, levels)
        sq_autocorr[:, j] = _autocorrelation(column * column, lags)
    stats = SummaryStats(
        asset_names=list(asset_names),
        mean=mean,
        std=moments[0],
        skewness=moments[1],
        excess_kurtosis=moments[2],
        quantile_levels=levels[n_qq:],
        quantiles=quantiles[n_qq:],
        correlation=_center_and_correlate(x, mean, constant),
        sq_autocorr_lags=lags,
        sq_autocorr=sq_autocorr,
    )
    return stats, quantiles[:n_qq]
