"""Seeded multi-asset return series for the benchmark.

Returns follow a GARCH(1,1) volatility per asset driven by correlated
multivariate Student-t(4) shocks scaled to unit variance. Rows carry
consecutive ISO dates. The same (seed, rows, assets) always gives the same
bytes on the same numpy version, because every variate comes from one
PCG64 stream in a fixed order and every cell is written with a fixed format.
"""

import datetime

import numpy as np

START_DATE = datetime.date(1950, 1, 2)
DOF = 4.0
# GARCH(1,1): sigma2_t = OMEGA + ALPHA * r_{t-1}^2 + BETA * sigma2_{t-1}
OMEGA, ALPHA, BETA = 0.02, 0.08, 0.90


def correlation_matrix(rng: np.random.Generator, n_assets: int) -> np.ndarray:
    """Random correlation matrix with one common factor (pairwise 0.2 to 0.7)."""
    loadings = rng.uniform(0.45, 0.85, size=n_assets)
    corr = np.outer(loadings, loadings)
    np.fill_diagonal(corr, 1.0)
    return corr


def returns(seed: int, n_rows: int, n_assets: int) -> np.ndarray:
    """(n_rows, n_assets) daily returns in percent."""
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(correlation_matrix(rng, n_assets))
    gauss = rng.standard_normal((n_rows, n_assets)) @ chol.T
    mix = np.sqrt(rng.chisquare(DOF, size=(n_rows, 1)) / DOF)
    shocks = gauss / mix / np.sqrt(DOF / (DOF - 2.0))
    sigma2 = np.full(n_assets, OMEGA / (1.0 - ALPHA - BETA))
    out = np.empty((n_rows, n_assets))
    for t in range(n_rows):
        out[t] = np.sqrt(sigma2) * shocks[t]
        sigma2 = OMEGA + ALPHA * out[t] ** 2 + BETA * sigma2
    return out


def csv_text(values: np.ndarray, names=None) -> str:
    """Dated CSV: header ``date,<names>``, one row per day, six decimals."""
    n_rows, n_assets = values.shape
    names = names or [f"asset{j}" for j in range(n_assets)]
    cell = ",%.6f" * n_assets
    lines = ["date," + ",".join(names)]
    ordinal = START_DATE.toordinal()
    for t in range(n_rows):
        day = datetime.date.fromordinal(ordinal + t).isoformat()
        lines.append(day + cell % tuple(values[t]))
    return "\n".join(lines) + "\n"


def write_csv(path, seed: int, n_rows: int, n_assets: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(returns(seed, n_rows, n_assets)))
