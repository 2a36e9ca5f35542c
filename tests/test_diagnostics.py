"""Free-energy scoring, decomposition, regime flags, and fidelity measures."""

import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from crbm.data import EncodedSeries
from crbm.diagnostics import (
    QUANTILE_LEVELS,
    _safe_correlation,
    _summarize,
    correlation_fidelity,
    free_energy_series,
    qq_table,
    regime_flags,
    summary_stats,
)
from crbm.model import ARCH_BERNOULLI, ARCH_GAUSSIAN, ModelParams, softplus
from helpers import naive_safe_correlation, naive_window, random_bernoulli_model, \
    random_gaussian_model


def crbm(rng, nv=2, nh=3, lag=2):
    m = random_gaussian_model(rng, nv, nh, lag=lag)
    m.A = rng.normal(size=(lag * nv, nv)) * 0.3
    m.B = rng.normal(size=(lag * nv, nh)) * 0.3
    return m


class TestFreeEnergySeries:
    def test_terms_recomputed_by_hand(self):
        rng = np.random.default_rng(100)
        m = crbm(rng)
        matrix = rng.normal(size=(10, 2))
        fe = free_energy_series(EncodedSeries(matrix, ARCH_GAUSSIAN), m)
        assert len(fe) == 8
        for p, t in enumerate(range(2, 10)):
            w = naive_window(matrix, t, 2)
            abias = m.a + w @ m.A
            bbias = m.b + w @ m.B
            quad = float(np.sum((matrix[t] - abias) ** 2 / 2.0))
            struct = -float(np.sum(softplus(bbias + matrix[t] @ m.W)))
            assert fe.quadratic[p] == pytest.approx(quad, abs=1e-12)
            assert fe.structural[p] == pytest.approx(struct, abs=1e-12)

    def test_identity_total_equals_sum_of_terms(self):
        rng = np.random.default_rng(101)
        m = crbm(rng)
        fe = free_energy_series(
            EncodedSeries(rng.normal(size=(40, 2)), ARCH_GAUSSIAN), m)
        np.testing.assert_array_equal(fe.total, fe.quadratic + fe.structural)
        assert np.all(fe.structural <= 0.0)

    def test_zero_params_zero_rows(self):
        m = ModelParams(W=np.zeros((2, 4)), a=np.zeros(2), b=np.zeros(4),
                        arch=ARCH_GAUSSIAN)
        fe = free_energy_series(EncodedSeries(np.zeros((6, 2)), ARCH_GAUSSIAN), m)
        np.testing.assert_allclose(fe.quadratic, 0.0, atol=1e-15)
        np.testing.assert_allclose(fe.structural, -4.0 * np.log(2.0), atol=1e-12)

    def test_bernoulli_linear_term_in_quadratic_slot(self):
        rng = np.random.default_rng(102)
        m = random_bernoulli_model(rng, 3, 2)
        rows = (rng.random((5, 3)) < 0.5).astype(float)
        fe = free_energy_series(EncodedSeries(rows, ARCH_BERNOULLI), m)
        np.testing.assert_allclose(fe.quadratic, -(rows @ m.a), atol=1e-12)
        np.testing.assert_array_equal(fe.total, fe.quadratic + fe.structural)

    def test_labels_from_dates_drop_lag_rows(self):
        rng = np.random.default_rng(103)
        m = crbm(rng)
        d0 = date(2021, 3, 1)
        dates = [d0 + timedelta(days=i) for i in range(7)]
        enc = EncodedSeries(rng.normal(size=(7, 2)), ARCH_GAUSSIAN, dates=dates)
        fe = free_energy_series(enc, m)
        assert fe.labels == dates[2:]

    def test_labels_default_to_indices(self):
        rng = np.random.default_rng(104)
        m = crbm(rng)
        fe = free_energy_series(
            EncodedSeries(rng.normal(size=(6, 2)), ARCH_GAUSSIAN), m)
        assert fe.labels == [2, 3, 4, 5]

    def test_dated_series_holds_one_label_list(self):
        # the three score arrays and one list of the scored rows' dates take
        # 4 x 8 bytes a row; copying the date list twice more peaked at 5 x
        n = 100_000
        rng = np.random.default_rng(105)
        m = crbm(rng)
        dates = [date(1800, 1, 1) + timedelta(days=i) for i in range(n)]
        enc = EncodedSeries(rng.normal(size=(n, 2)), ARCH_GAUSSIAN, dates=dates)
        tracemalloc.start()
        try:
            fe = free_energy_series(enc, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fe.labels == dates[2:] and fe.labels[0] is dates[2]
        assert peak < 4.5 * 8 * n

    def test_memory_does_not_grow_with_rows_times_hidden(self):
        # one-shot scoring of 20,000 rows x 64 hidden units peaks near 60 MiB
        rng = np.random.default_rng(106)
        m = crbm(rng, nv=3, nh=64, lag=2)
        enc = EncodedSeries(rng.normal(size=(20_000, 3)), ARCH_GAUSSIAN)
        tracemalloc.start()
        try:
            fe = free_energy_series(enc, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fe) == 19_998
        assert peak < 8 << 20

    def test_memory_does_not_grow_with_rows_times_lag(self):
        # copying every (window, target) pair of 20,000 rows x 8 assets at
        # lag 5 peaked at 8.7 MiB; the windows are views of the series now
        rng = np.random.default_rng(107)
        m = crbm(rng, nv=8, nh=64, lag=5)
        enc = EncodedSeries(rng.normal(size=(20_000, 8)), ARCH_GAUSSIAN)
        tracemalloc.start()
        try:
            fe = free_energy_series(enc, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fe) == 19_995
        assert peak < 2.5 * 2**20


class TestRegimeFlags:
    def test_constant_series_never_flags(self):
        assert not regime_flags(np.full(200, 3.0), window=60, threshold=4.0).any()

    def test_single_spike_flagged_exactly_once(self):
        rng = np.random.default_rng(110)
        total = rng.normal(size=300)
        total[200] += 10.0 * total[:200].std()
        flags = regime_flags(total, window=60, threshold=4.0)
        assert flags[200]
        assert flags.sum() == 1

    def test_infinite_threshold_never_flags(self):
        rng = np.random.default_rng(111)
        total = rng.normal(size=100)
        total[80] += 100.0
        assert not regime_flags(total, window=10, threshold=np.inf).any()

    def test_zero_variance_baseline_flags_any_rise(self):
        total = np.zeros(50)
        total[30] = 0.5
        flags = regime_flags(total, window=10, threshold=4.0)
        assert flags[30] and flags.sum() == 1

    def test_first_window_rows_unflagged(self):
        total = np.concatenate([np.full(5, 100.0), np.zeros(20)])
        flags = regime_flags(total, window=5, threshold=0.5)
        assert not flags[:5].any()

    def test_baseline_excludes_current_row(self):
        # a step change flags at the step, using only prior rows
        total = np.concatenate([np.zeros(20), np.full(1, 5.0), np.zeros(5)])
        rng = np.random.default_rng(112)
        total[:20] += rng.normal(size=20) * 0.1
        flags = regime_flags(total, window=20, threshold=4.0)
        assert flags[20]

    @pytest.mark.parametrize("window", [2, 60, 5000])
    def test_blocks_match_one_pass_over_all_windows(self, window):
        # 60 takes 546 rows a block, so 50,000 rows span 92 blocks
        rng = np.random.default_rng(113)
        total = rng.standard_t(3, size=50_000)
        prior = np.lib.stride_tricks.sliding_window_view(total[:-1], window)
        cutoff = prior.mean(axis=1) + 2.5 * prior.std(axis=1)
        flags = regime_flags(total, window=window, threshold=2.5)
        assert not flags[:window].any()
        np.testing.assert_array_equal(flags[window:], total[window:] > cutoff)
        assert flags.sum() > 100

    def test_memory_does_not_grow_with_rows_times_window(self):
        # one pass over 50,000 rows of 60-row windows peaked at 24 MiB
        total = np.random.default_rng(114).normal(size=50_000)
        tracemalloc.start()
        try:
            regime_flags(total, window=60, threshold=4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_short_series_and_validation(self):
        assert not regime_flags(np.zeros(3), window=10).any()
        with pytest.raises(ValueError, match="window"):
            regime_flags(np.zeros(5), window=1)
        with pytest.raises(ValueError, match="1-D"):
            regime_flags(np.zeros((5, 2)))


class TestCorrelationFidelity:
    def test_identical_inputs_score_zero(self):
        rng = np.random.default_rng(120)
        x = rng.normal(size=(500, 3))
        out = correlation_fidelity(x, x)
        np.testing.assert_allclose(out.difference, 0.0, atol=1e-12)
        assert out.score == pytest.approx(0.0, abs=1e-12)

    def test_shuffling_destroys_known_correlation(self):
        # one rho=0.8 pair among three assets; independent shuffles zero it,
        # so the mean off-diagonal difference is 0.8 * (2 affected / 6)
        rng = np.random.default_rng(121)
        n = 20_000
        L = np.linalg.cholesky([[1.0, 0.8], [0.8, 1.0]])
        pair = rng.standard_normal((n, 2)) @ L.T
        real = np.column_stack([pair, rng.standard_normal(n)])
        synth = np.column_stack([rng.permutation(real[:, j]) for j in range(3)])
        out = correlation_fidelity(real, synth)
        assert out.score == pytest.approx(0.8 * 2 / 6, abs=0.03)

    def test_score_symmetric_in_argument_order(self):
        rng = np.random.default_rng(122)
        a = rng.normal(size=(300, 2))
        b = rng.normal(size=(400, 2))
        assert correlation_fidelity(a, b).score == pytest.approx(
            correlation_fidelity(b, a).score, abs=1e-12)

    def test_degenerate_column_excluded_not_poisoning(self):
        rng = np.random.default_rng(123)
        real = np.column_stack([rng.normal(size=200), np.full(200, 2.0)])
        synth = rng.normal(size=(200, 2))
        out = correlation_fidelity(real, synth)
        assert np.isnan(out.real[0, 1])
        assert np.isfinite(out.score)

    def test_single_asset_scores_zero(self):
        rng = np.random.default_rng(124)
        out = correlation_fidelity(rng.normal(size=(50, 1)),
                                   rng.normal(size=(60, 1)))
        assert out.score == 0.0

    def test_asset_count_mismatch(self):
        with pytest.raises(ValueError, match="asset counts"):
            correlation_fidelity(np.zeros((10, 2)), np.zeros((10, 3)))


def correlated_t(rng, rows, assets, offset=0.0):
    """Student-t(4) rows with a random correlation, per-asset scales from
    0.01 to 30 and an offset, as the monitor benchmark's returns."""
    mix = rng.normal(size=(assets, assets)) + 2.0 * np.eye(assets)
    scale = np.geomspace(0.01, 30.0, assets)
    return rng.standard_t(4, size=(rows, assets)) @ mix * scale + offset


# matrices on which the in-place correlation must give np.corrcoef's bits
CORRELATION_INPUTS = {
    "returns_50000x8": lambda rng: correlated_t(rng, 50_000, 8),
    "offset_50000x8": lambda rng: correlated_t(rng, 50_000, 8, offset=0.7),
    "123457x5": lambda rng: correlated_t(rng, 123_457, 5),
    "1000x3": lambda rng: correlated_t(rng, 1_000, 3),
    "7x2": lambda rng: correlated_t(rng, 7, 2),
    "2x4": lambda rng: correlated_t(rng, 2, 4),
    "fortran": lambda rng: np.asfortranarray(correlated_t(rng, 5_000, 6)),
    "column_slice": lambda rng: correlated_t(rng, 5_000, 7)[:, 1::2],
    "constant_columns": lambda rng: correlated_t(rng, 5_000, 4) * [1.0, 0.0, 1.0, 0.0]
    + [0.0, 0.1, 0.0, -3.0],
    "one_asset": lambda rng: correlated_t(rng, 5_000, 1),
}


class TestInPlaceCorrelation:
    @pytest.mark.parametrize("case", list(CORRELATION_INPUTS))
    def test_equals_corrcoef_and_leaves_inputs_unchanged(self, case):
        x = CORRELATION_INPUTS[case](np.random.default_rng(140))
        y = CORRELATION_INPUTS[case](np.random.default_rng(141))
        before = x.copy(order="A"), y.copy(order="A")
        want_x, want_y = naive_safe_correlation(x), naive_safe_correlation(y)
        assert np.array_equal(_safe_correlation(x), want_x, equal_nan=True)
        fidelity = correlation_fidelity(x, y)
        assert np.array_equal(fidelity.real, want_x, equal_nan=True)
        assert np.array_equal(fidelity.synthetic, want_y, equal_nan=True)
        if x.shape[0] >= 2:
            assert np.array_equal(summary_stats(x).correlation, want_x, equal_nan=True)
        for got, want in zip((x, y), before):
            assert got.tobytes(order="A") == want.tobytes(order="A")
            assert got.flags.f_contiguous == want.flags.f_contiguous

    def test_summary_of_an_owned_matrix_adds_the_qq_quantiles(self):
        x = correlated_t(np.random.default_rng(142), 3_001, 3)
        levels = np.arange(1, 100) / 100
        stats, qq = _summarize(x.copy(), ["a", "b", "c"], levels)
        want = summary_stats(x, ["a", "b", "c"])
        for field in ("mean", "std", "skewness", "excess_kurtosis", "quantile_levels",
                      "quantiles", "correlation", "sq_autocorr"):
            assert getattr(stats, field).tobytes() == getattr(want, field).tobytes(), field
        # one np.quantile call per column gives each level the bits of its own call
        for j in range(3):
            assert qq[:, j].tobytes() == np.quantile(x[:, j], levels).tobytes()
            assert stats.quantiles[:, j].tobytes() == np.quantile(
                x[:, j], QUANTILE_LEVELS).tobytes()


class TestQQTable:
    def test_identical_samples_lie_on_diagonal(self):
        rng = np.random.default_rng(130)
        x = rng.normal(size=500)
        qq = qq_table(x, x, n_quantiles=19)
        np.testing.assert_array_equal(qq.real, qq.synthetic)

    def test_levels_exclude_endpoints(self):
        rng = np.random.default_rng(131)
        qq = qq_table(rng.normal(size=100), rng.normal(size=100), n_quantiles=9)
        np.testing.assert_allclose(qq.levels, np.arange(1, 10) / 10.0)

    def test_single_quantile_is_median(self):
        x = np.arange(101.0)
        qq = qq_table(x, x + 1.0, n_quantiles=1)
        assert qq.levels.tolist() == [0.5]
        assert qq.real[0] == 50.0
        assert qq.synthetic[0] == 51.0

    def test_heavy_tail_shows_in_extreme_ratio(self):
        rng = np.random.default_rng(132)
        heavy = rng.standard_t(3, size=200_000)
        normal = rng.standard_normal(200_000)
        qq = qq_table(heavy, normal, n_quantiles=999)
        level_idx = 0  # level 1/1000
        assert abs(qq.real[level_idx] / qq.synthetic[level_idx]) > 1.0

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="n_quantiles"):
            qq_table(np.zeros(5), np.zeros(100), n_quantiles=10)
