"""Autoregressive synthesis and the summary statistics block."""

import tracemalloc
import warnings

import numpy as np
import pytest

from crbm import generation
from crbm.data import BinaryCodec
from crbm.diagnostics import QUANTILE_LEVELS, SQ_AUTOCORR_LAGS, _autocorrelation, \
    summary_stats
from crbm.dynamics import dynamic_hidden_bias, dynamic_visible_bias
from crbm.generation import generate
from crbm.model import (ARCH_BERNOULLI, ARCH_GAUSSIAN, READ_AHEAD_BYTES, ModelParams,
                        gibbs_step, sweep_width)
from helpers import random_bernoulli_model, random_gaussian_model, runaway_gaussian_model


def zero_gaussian(nv=2, nh=3, lag=0):
    return ModelParams(W=np.zeros((nv, nh)), a=np.zeros(nv), b=np.zeros(nh),
                       arch=ARCH_GAUSSIAN, lag=lag)


class TestGenerate:
    def test_row_count_and_mode(self):
        m = random_gaussian_model(np.random.default_rng(0), 3, 2)
        out = generate(m, np.zeros(0), 17, np.random.default_rng(1), burn_in=1)
        assert out.matrix.shape == (17, 3)
        assert out.arch == ARCH_GAUSSIAN

    def test_deterministic_given_seed(self):
        m = random_bernoulli_model(np.random.default_rng(2), 4, 3, lag=1)
        m.B = np.random.default_rng(3).normal(size=(4, 3))
        seed_w = (np.random.default_rng(4).random(4) < 0.5).astype(float)
        a = generate(m, seed_w, 25, np.random.default_rng(7), burn_in=2)
        b = generate(m, seed_w, 25, np.random.default_rng(7), burn_in=2)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_binary_mode_and_codec_passthrough(self):
        m = random_bernoulli_model(np.random.default_rng(5), 4, 2)
        codec = BinaryCodec([0.0, 0.0], [1.0, 1.0], bits_per_asset=2)
        out = generate(m, np.zeros(0), 10, np.random.default_rng(6), codec=codec)
        assert out.arch == ARCH_BERNOULLI
        assert out.codec is codec
        assert set(np.unique(out.matrix)) <= {0.0, 1.0}

    def test_zero_model_emits_iid_standard_normal(self):
        # no weights, no history: every emission is a + unit noise
        out = generate(zero_gaussian(), np.zeros(0), 10_000,
                       np.random.default_rng(8), burn_in=0)
        assert np.all(np.abs(out.matrix.mean(axis=0)) < 0.05)
        assert np.all(np.abs(out.matrix.var(axis=0) - 1.0) < 0.1)

    def test_window_autoregression_produces_ar1(self):
        # a = 0, W = 0, A = 0.9 I with lag 1 makes v_t = 0.9 v_{t-1} + noise
        nv = 1
        m = zero_gaussian(nv=nv, nh=2, lag=1)
        m.A = np.eye(nv) * 0.9
        out = generate(m, np.zeros(nv), 8000, np.random.default_rng(9), burn_in=0)
        x = out.matrix[:, 0]
        x = x - x.mean()
        rho = float(x[1:] @ x[:-1] / (x @ x))
        assert 0.85 < rho < 0.95

    def test_suffix_depends_only_on_window_and_generator(self):
        # regenerating from an intermediate window snapshot, with the
        # generator threaded through, reproduces the suffix exactly
        rng = np.random.default_rng(10)
        m = random_gaussian_model(rng, 2, 3, lag=2)
        m.A = rng.normal(size=(4, 2)) * 0.3
        m.B = rng.normal(size=(4, 3)) * 0.3
        seed_w = rng.normal(size=4)

        full = generate(m, seed_w, 30, np.random.default_rng(55), burn_in=3)

        gen = np.random.default_rng(55)
        head = generate(m, seed_w, 12, gen, burn_in=3)
        snapshot = np.concatenate([head.matrix[-2], head.matrix[-1]])
        tail = generate(m, snapshot, 18, gen, burn_in=3)
        np.testing.assert_array_equal(
            np.vstack([head.matrix, tail.matrix]), full.matrix)

    @staticmethod
    def lagged_model(make, lag):
        rng = np.random.default_rng(11)
        nv, nh = 3, 4
        m = make(rng, nv, nh, lag=lag)
        m.A = rng.normal(size=(lag * nv, nv)) * 0.3
        m.B = rng.normal(size=(lag * nv, nh)) * 0.3
        seed_w = ((rng.random(lag * nv) < 0.5).astype(float)
                  if m.arch == ARCH_BERNOULLI else rng.normal(size=lag * nv))
        return m, seed_w

    @staticmethod
    def assert_loop_of_gibbs_steps(m, seed_w, steps, burn_in):
        # generate equals, bit for bit, burn_in + 1 gibbs_step calls per row
        # under the sliding window's dynamic biases, and leaves the generator
        # in the same state: drawing chunks of rows consumes nothing extra.
        # With lag 0 the window is empty and one chain runs from a zero row.
        gen = np.random.default_rng(56)
        out = generate(m, seed_w, steps, gen, burn_in=burn_in)

        hand = np.random.default_rng(56)
        nv = m.n_visible
        window, v, rows = seed_w, np.zeros(nv), []
        for _ in range(steps):
            abias = dynamic_visible_bias(window, m)
            bbias = dynamic_hidden_bias(window, m)
            if m.lag:
                v = window[-nv:]
            for _ in range(burn_in + 1):
                v, _h = gibbs_step(v, m, abias, bbias, rng=hand)
            rows.append(v)
            window = np.concatenate([window, v])[nv:]
        np.testing.assert_array_equal(out.matrix, np.array(rows))
        assert gen.bit_generator.state == hand.bit_generator.state

    @pytest.mark.parametrize("make, lag, steps, burn_in, boundaries", [
        pytest.param(random_bernoulli_model, 2, 30, 4, 0, id="random_bernoulli_model"),
        pytest.param(random_gaussian_model, 2, 30, 4, 0, id="random_gaussian_model"),
        pytest.param(random_bernoulli_model, 2, 100, 99, 2, id="bernoulli_across_chunks"),
        pytest.param(random_gaussian_model, 2, 100, 99, 2, id="gaussian_across_chunks"),
        # one sweep per row: over 100 sweeps on the same uniforms a restarted
        # lag-0 chain would meet the persistent one and hide the restart
        pytest.param(random_bernoulli_model, 0, 10_000, 0, 2, id="bernoulli_lag0_across_chunks"),
        pytest.param(random_gaussian_model, 0, 10_000, 0, 2, id="gaussian_lag0_across_chunks"),
    ])
    def test_lagged_rollout_is_a_loop_of_gibbs_steps(self, make, lag, steps, burn_in,
                                                     boundaries):
        m, seed_w = self.lagged_model(make, lag)
        chunk = READ_AHEAD_BYTES // (16 * (burn_in + 1) * sweep_width(m))
        assert (steps - 1) // chunk >= boundaries
        self.assert_loop_of_gibbs_steps(m, seed_w, steps, burn_in)

    @pytest.mark.parametrize("lag", [0, 1, 2])
    @pytest.mark.parametrize("steps", [59, 60, 61])
    def test_steps_around_a_multiple_of_the_chunk(self, monkeypatch, lag, steps):
        # 3-row chunks: the last one is short, full, or a single row; with
        # 3 visible bits one wrong boundary can match by chance, 19 cannot
        m, seed_w = self.lagged_model(random_bernoulli_model, lag)
        monkeypatch.setattr(generation, "READ_AHEAD_BYTES", 3 * 16 * sweep_width(m))
        self.assert_loop_of_gibbs_steps(m, seed_w, steps, burn_in=0)

    def test_runaway_rollout_names_first_non_finite_step(self):
        m = runaway_gaussian_model()
        with pytest.raises(ValueError, match="non-finite") as err:
            generate(m, np.ones(2), 5000, np.random.default_rng(12), burn_in=2)
        step = int(str(err.value).split("step ")[1].split()[0])
        # the same stream reproduces the rows before it, all finite, and
        # fails at that step again when it is the last one asked for
        head = generate(m, np.ones(2), step, np.random.default_rng(12), burn_in=2)
        assert np.all(np.isfinite(head.matrix))
        with pytest.raises(ValueError, match=f"step {step} of {step + 1}"):
            generate(m, np.ones(2), step + 1, np.random.default_rng(12), burn_in=2)

    def test_argument_validation(self):
        m = zero_gaussian(lag=1)
        with pytest.raises(ValueError, match="steps"):
            generate(m, np.zeros(2), 0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="burn_in"):
            generate(m, np.zeros(2), 5, np.random.default_rng(0), burn_in=-1)
        with pytest.raises(ValueError, match="seed window"):
            generate(m, np.zeros(3), 5, np.random.default_rng(0))


class TestSummaryStats:
    def test_moments_and_quantiles(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(100_000, 2))
        s = summary_stats(x, ["a", "b"])
        assert np.all(np.abs(s.mean) < 0.02)
        assert np.all(np.abs(s.std - 1.0) < 0.02)
        assert np.all(np.abs(s.skewness) < 0.05)
        assert np.all(np.abs(s.excess_kurtosis) < 0.1)
        assert np.all(np.abs(s.correlation[0, 1]) < 0.02)
        np.testing.assert_array_equal(s.quantile_levels, QUANTILE_LEVELS)
        np.testing.assert_allclose(s.quantiles, np.quantile(x, QUANTILE_LEVELS,
                                                            axis=0), atol=1e-12)

    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(21)
        col = rng.normal(size=1000)
        s = summary_stats(np.column_stack([col, col]))
        assert s.correlation[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_constant_column_flags_undefined_correlation(self):
        x = np.column_stack([np.ones(100), np.arange(100.0)])
        s = summary_stats(x)
        assert np.isnan(s.correlation[0, 1]) and np.isnan(s.correlation[1, 0])
        assert s.correlation[1, 1] == 1.0

    def test_sq_autocorr_lags_and_iid_near_zero(self):
        rng = np.random.default_rng(22)
        s = summary_stats(rng.normal(size=(50_000, 1)))
        np.testing.assert_array_equal(s.sq_autocorr_lags, SQ_AUTOCORR_LAGS)
        assert s.sq_autocorr.shape == (20, 1)
        assert np.all(np.abs(s.sq_autocorr) < 0.03)

    def test_volatility_clustering_detected(self):
        # alternating calm/wild blocks give squared values positive
        # autocorrelation at short lags
        rng = np.random.default_rng(23)
        scale = np.repeat(np.tile([0.5, 3.0], 50), 100)
        x = rng.normal(size=scale.size) * scale
        s = summary_stats(x[:, None])
        assert s.sq_autocorr[0, 0] > 0.1

    def test_shape_moments_match_closed_form(self):
        # {0, 0, 0, 1} is a Bernoulli(1/4) sample: skewness 2 / sqrt(3),
        # excess kurtosis -2/3; {-1, 1, -1, 1} is symmetric with m4 = m2^2
        x = np.column_stack([[0.0, 0.0, 0.0, 1.0], [-1.0, 1.0, -1.0, 1.0]])
        s = summary_stats(x)
        np.testing.assert_allclose(s.skewness, [2.0 / np.sqrt(3.0), 0.0],
                                   rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(s.excess_kurtosis, [-2.0 / 3.0, -2.0], rtol=1e-14)

    def test_constant_column_moments_are_nan_without_warning(self):
        x = np.column_stack([np.full(50, 0.1), np.zeros(50), np.arange(50.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = summary_stats(x)
        assert np.all(np.isnan(s.skewness[:2])) and np.all(np.isnan(s.excess_kurtosis[:2]))
        assert np.isfinite(s.skewness[2]) and np.isfinite(s.excess_kurtosis[2])
        assert np.all(np.isnan(s.correlation[:2, 2])) and s.correlation[0, 0] == 1.0

    def test_sq_autocorr_matches_squaring_the_whole_matrix(self):
        x = np.random.default_rng(24).standard_t(4, size=(5_000, 3))
        want = np.column_stack([_autocorrelation((x**2)[:, j], SQ_AUTOCORR_LAGS)
                                for j in range(3)])
        assert summary_stats(x).sq_autocorr.tobytes() == want.tobytes()

    def test_peak_memory_holds_no_squared_matrix(self):
        # squaring all 50,000 x 8 values at once peaked at 3.0 x the input,
        # whole-matrix moments and quantiles at 2.0 x; what is left is the
        # one copy that summary_stats reduces and centers for the correlation
        x = np.random.default_rng(25).standard_t(4, size=(50_000, 8))
        summary_stats(x[:10])  # first-call imports and caches
        tracemalloc.start()
        try:
            summary_stats(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * x.nbytes

    def test_column_reductions_match_whole_matrix_ones(self):
        x = np.random.default_rng(26).standard_t(4, size=(5_000, 3)) * [1.0, 30.0, 0.01]
        s = summary_stats(x)
        # the mean and the quantiles keep the bits of the axis-0 reductions
        assert s.mean.tobytes() == x.mean(axis=0).tobytes()
        assert s.quantiles.tobytes() == np.quantile(x, QUANTILE_LEVELS, axis=0).tobytes()
        # the std and the shape moments only sum in another order
        dev = x - x.mean(axis=0)
        m2 = np.mean(dev**2, axis=0)
        np.testing.assert_allclose(s.std, x.std(axis=0), rtol=1e-13)
        np.testing.assert_allclose(s.skewness, np.mean(dev**3, axis=0) / m2**1.5, rtol=1e-11)
        np.testing.assert_allclose(s.excess_kurtosis, np.mean(dev**4, axis=0) / m2**2 - 3.0,
                                   rtol=1e-11)

    def test_validation(self):
        with pytest.raises(ValueError, match="two rows"):
            summary_stats(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="name count"):
            summary_stats(np.zeros((5, 2)), ["only_one"])
