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
    aligns rows with input dates (or step indices when dates are unknown).
    """

    labels: list
    total: np.ndarray
    quadratic: np.ndarray
    structural: np.ndarray

    def __len__(self) -> int:
        return self.total.shape[0]


def free_energy_series(encoded: EncodedSeries, m: ModelParams,
                       labels=None) -> FreeEnergySeries:
    """Score every row of an encoded series under its own history.

    The first ``m.lag`` rows only seed histories and receive no score.
    ``labels`` (optional) must cover the full series; the first lag entries
    are dropped to stay aligned.
    """
    windows, targets = build_windows(encoded, m.lag)
    quadratic, structural = conditional_free_energy_terms(targets, windows, m)
    quadratic = np.atleast_1d(quadratic)
    structural = np.atleast_1d(structural)
    if labels is None:
        if encoded.dates is not None:
            labels = list(encoded.dates)
        else:
            labels = list(range(encoded.n_rows))
    if len(labels) != encoded.n_rows:
        raise ValueError("label count does not match series length")
    return FreeEnergySeries(labels=list(labels[m.lag:]), total=quadratic + structural,
                            quadratic=quadratic, structural=structural)


def regime_flags(total: np.ndarray, window: int = FLAG_WINDOW,
                 threshold: float = FLAG_THRESHOLD) -> np.ndarray:
    """Flag rows whose score exceeds a rolling mean + threshold * std.

    The statistics come from the ``window`` scores strictly before each
    row, so a flagged row never contaminates its own baseline. The first
    ``window`` rows have no full baseline and are never flagged. Rows go
    through in blocks of READ_AHEAD_BYTES of window, so the temporaries of
    the standard deviation stay small; each row's statistics are reduced
    over its own window alone, so the block does not change them.
    """
    total = np.asarray(total, dtype=np.float64)
    if total.ndim != 1:
        raise ValueError("expected a 1-D score array")
    if window < 2:
        raise ValueError("window must be >= 2")
    flags = np.zeros(total.shape[0], dtype=bool)
    if total.shape[0] <= window:
        return flags
    prior = sliding_window_view(total[:-1], window)
    scored, scored_flags = total[window:], flags[window:]
    step = max(1, READ_AHEAD_BYTES // (8 * window))
    for start in range(0, prior.shape[0], step):
        block = prior[start:start + step]
        cutoff = block.mean(axis=1) + threshold * block.std(axis=1)
        # threshold=inf with a zero std makes the cutoff NaN; treat as no flag
        with np.errstate(invalid="ignore"):
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
    corr_real = _safe_correlation(real)
    corr_synth = _safe_correlation(synthetic)
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
    levels = np.arange(1, n_quantiles + 1) / (n_quantiles + 1)
    return QQTable(levels=levels, real=np.quantile(real, levels),
                   synthetic=np.quantile(synthetic, levels))


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
    d2 = dev * dev
    m2 = np.where(np.ptp(matrix, axis=0) == 0.0, np.nan, np.mean(d2, axis=0))
    dev *= d2
    d2 *= d2
    return (np.mean(dev, axis=0) / m2**1.5,
            np.mean(d2, axis=0) / m2**2 - 3.0)


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
