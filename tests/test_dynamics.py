"""History windows and the time-dependent bias layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crbm import dynamics
from crbm.dynamics import (
    build_windows,
    conditional_free_energy,
    conditional_free_energy_terms,
    dynamic_hidden_bias,
    dynamic_visible_bias,
    score_rows,
)
from crbm.model import ARCH_BERNOULLI, ARCH_GAUSSIAN, READ_AHEAD_BYTES, free_energy, \
    free_energy_terms, sigmoid
from helpers import naive_window, random_bernoulli_model, random_gaussian_model


def crbm_model(rng, nv=3, nh=4, lag=2):
    m = random_gaussian_model(rng, nv, nh, lag=lag)
    m.A = rng.normal(size=(lag * nv, nv)) * 0.3
    m.B = rng.normal(size=(lag * nv, nh)) * 0.3
    return m


class TestBuildWindows:
    def test_contents_match_naive(self):
        rng = np.random.default_rng(61)
        matrix = rng.normal(size=(9, 3))
        windows, targets = build_windows(matrix, lag=4)
        assert windows.shape == (5, 12)
        assert targets.shape == (5, 3)
        for p, t in enumerate(range(4, 9)):
            np.testing.assert_array_equal(windows[p], naive_window(matrix, t, 4))
            np.testing.assert_array_equal(targets[p], matrix[t])

    @pytest.mark.parametrize("lag", [0, 3])
    def test_views_share_memory_with_the_series(self, lag):
        matrix = np.arange(24.0).reshape(8, 3)
        windows, targets = build_windows(matrix, lag=lag)
        assert np.shares_memory(targets, matrix)
        if lag:
            assert np.shares_memory(windows, matrix)
            assert np.shares_memory(windows, targets)
        # successive windows start one series row apart
        assert windows.strides == targets.strides[:1] + (8,)

    @pytest.mark.parametrize("lag", [0, 2])
    def test_views_are_read_only(self, lag):
        matrix = np.arange(15.0).reshape(5, 3)
        windows, targets = build_windows(matrix, lag=lag)
        for view in (windows, targets):
            assert not view.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[...] = 0.0
        assert matrix.flags.writeable
        np.testing.assert_array_equal(matrix, np.arange(15.0).reshape(5, 3))

    @pytest.mark.parametrize("layout", ["fortran", "reversed", "column_slice", "one_column"])
    @pytest.mark.parametrize("lag", [1, 3])
    def test_any_input_layout_matches_naive(self, layout, lag):
        base = np.random.default_rng(60).normal(size=(9, 4))
        matrix = {"fortran": np.asfortranarray(base),
                  "reversed": base[::-1],
                  "column_slice": base[:, 1:3],
                  # C-contiguous with a zero stride along its length-1 axis
                  "one_column": np.arange(9.0)[:, None]}[layout]
        windows, targets = build_windows(matrix, lag=lag)
        for p, t in enumerate(range(lag, 9)):
            np.testing.assert_array_equal(windows[p], naive_window(matrix, t, lag))
            np.testing.assert_array_equal(targets[p], matrix[t])

    def test_lag_zero(self):
        matrix = np.arange(12.0).reshape(4, 3)
        windows, targets = build_windows(matrix, lag=0)
        assert windows.shape == (4, 0)
        np.testing.assert_array_equal(targets, matrix)

    def test_short_series_error(self):
        with pytest.raises(ValueError):
            build_windows(np.zeros((3, 2)), lag=3)


class TestDynamicBiases:
    def test_matches_manual_affine_shift(self):
        rng = np.random.default_rng(63)
        m = crbm_model(rng)
        w = rng.normal(size=6)
        np.testing.assert_allclose(dynamic_hidden_bias(w, m), m.b + w @ m.B,
                                   atol=1e-15)
        np.testing.assert_allclose(dynamic_visible_bias(w, m), m.a + w @ m.A,
                                   atol=1e-15)

    def test_batch_of_windows(self):
        rng = np.random.default_rng(64)
        m = crbm_model(rng)
        w = rng.normal(size=(5, 6))
        out = dynamic_hidden_bias(w, m)
        assert out.shape == (5, 4)
        np.testing.assert_allclose(out[2], dynamic_hidden_bias(w[2], m), atol=1e-15)

    def test_static_model_returns_bias_object(self):
        # the N=0 reduction must be bit-identical, not merely close
        m = random_gaussian_model(np.random.default_rng(65), 3, 4, lag=0)
        w = np.zeros(0)
        assert dynamic_hidden_bias(w, m) is m.b
        assert dynamic_visible_bias(w, m) is m.a

    def test_window_length_validated(self):
        m = crbm_model(np.random.default_rng(66))
        with pytest.raises(ValueError, match="window length"):
            dynamic_hidden_bias(np.zeros(5), m)


class TestConditionalFreeEnergy:
    def test_equals_free_energy_at_shifted_biases(self):
        rng = np.random.default_rng(67)
        m = crbm_model(rng)
        v = rng.normal(size=(8, 3))
        w = rng.normal(size=(8, 6))
        want = free_energy(v, m, m.a + w @ m.A, m.b + w @ m.B)
        np.testing.assert_allclose(conditional_free_energy(v, w, m), want,
                                   atol=1e-12)

    def test_terms_sum_to_conditional_total(self):
        rng = np.random.default_rng(68)
        m = crbm_model(rng)
        v = rng.normal(size=(8, 3))
        w = rng.normal(size=(8, 6))
        quad, struct = conditional_free_energy_terms(v, w, m)
        np.testing.assert_array_equal(quad + struct, conditional_free_energy(v, w, m))

    def test_empty_window_reduces_to_static(self):
        rng = np.random.default_rng(69)
        m = random_gaussian_model(rng, 3, 4, lag=0)
        v = rng.normal(size=(6, 3))
        w = np.zeros((6, 0))
        np.testing.assert_array_equal(conditional_free_energy(v, w, m),
                                      free_energy(v, m))
        for got, want in zip(conditional_free_energy_terms(v, w, m),
                             free_energy_terms(v, m)):
            np.testing.assert_array_equal(got, want)


def block_rows(n_hidden):
    return max(READ_AHEAD_BYTES // (8 * n_hidden), 1)


def scoring_case(rng, arch, n_rows, n_hidden, lag, nv=3):
    """A model with autoregressive weights and (v, window) rows to score."""
    make = random_bernoulli_model if arch == ARCH_BERNOULLI else random_gaussian_model
    m = make(rng, nv, n_hidden, scale=0.3, lag=lag)
    m.A = rng.normal(size=(lag * nv, nv)) * 0.3
    m.B = rng.normal(size=(lag * nv, n_hidden)) * 0.3
    if arch == ARCH_GAUSSIAN:
        v = rng.normal(size=(n_rows, nv))
    else:
        v = (rng.random((n_rows, nv)) < 0.5).astype(float)
    return m, v, rng.normal(size=(n_rows, lag * nv))


def one_shot(v, w, m):
    """Free-energy terms and mean-field squared error over the full arrays at once."""
    abias, bbias = dynamic_visible_bias(w, m), dynamic_hidden_bias(w, m)
    visible, structural = free_energy_terms(v, m, abias, bbias)
    wh = sigmoid(bbias + v @ m.W) @ m.W.T
    recon = abias + wh if m.arch == ARCH_GAUSSIAN else sigmoid(abias + wh)
    return visible, structural, (v - recon) ** 2


def assert_matches_one_shot(v, w, m):
    got = score_rows(v, w, m, squared_error=True)
    for g, want in zip(got, one_shot(v, w, m)):
        assert np.shape(g) == np.shape(want)
        np.testing.assert_allclose(g, want, rtol=1e-12)


class TestBlockedScoring:
    # 256 hidden units make 128-row blocks
    N_HIDDEN = 256
    BLOCK = block_rows(N_HIDDEN)

    @pytest.mark.parametrize("arch", [ARCH_BERNOULLI, ARCH_GAUSSIAN])
    @pytest.mark.parametrize("lag", [0, 2])
    @pytest.mark.parametrize("n_rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_blocks_match_one_shot(self, arch, lag, n_rows):
        assert self.BLOCK == 128
        rng = np.random.default_rng(1000 + n_rows + 7 * lag)
        m, v, w = scoring_case(rng, arch, n_rows, self.N_HIDDEN, lag)
        assert_matches_one_shot(v, w, m)

    @pytest.mark.parametrize("arch", [ARCH_BERNOULLI, ARCH_GAUSSIAN])
    @pytest.mark.parametrize("lag", [0, 2])
    def test_single_window(self, arch, lag):
        rng = np.random.default_rng(71 + lag)
        m, v, w = scoring_case(rng, arch, 1, self.N_HIDDEN, lag)
        visible, structural, sq_err = score_rows(v[0], w[0], m, squared_error=True)
        assert np.ndim(visible) == np.ndim(structural) == 0
        assert sq_err.shape == (m.n_visible,)
        assert_matches_one_shot(v[0], w[0], m)
        want = conditional_free_energy(v, w, m)[0]
        assert conditional_free_energy(v[0], w[0], m) == pytest.approx(want, rel=1e-12)

    def test_block_holds_at_least_one_row(self):
        # 40,000 hidden units would leave less than one row per block
        rng = np.random.default_rng(72)
        m, v, w = scoring_case(rng, ARCH_GAUSSIAN, 3, 40_000, 1, nv=2)
        assert READ_AHEAD_BYTES // (8 * m.n_hidden) == 0
        assert_matches_one_shot(v, w, m)

    def test_rows_broadcast_against_one_window(self):
        rng = np.random.default_rng(73)
        m, v, w = scoring_case(rng, ARCH_GAUSSIAN, 5, 6, 2)
        one = np.broadcast_to(w[0], w.shape)
        for got, want in zip(conditional_free_energy_terms(v, w[0], m),
                             conditional_free_energy_terms(v, one, m)):
            np.testing.assert_array_equal(got, want)

    def test_window_length_validated(self):
        m, v, w = scoring_case(np.random.default_rng(74), ARCH_GAUSSIAN, 4, 5, 2)
        with pytest.raises(ValueError, match="window length"):
            score_rows(v, w[:, :-1], m)

    @pytest.mark.parametrize("arch", [ARCH_BERNOULLI, ARCH_GAUSSIAN])
    @pytest.mark.parametrize("nv,nh,lag", [(1, 1, 1), (3, 4, 2), (4, 16, 5), (2, 7, 0)])
    def test_overlapping_windows_score_like_a_copy(self, monkeypatch, arch, nv, nh, lag):
        # blocks of 13 rows split the 50-row series mid-way, several times
        monkeypatch.setattr(dynamics, "READ_AHEAD_BYTES", 8 * nh * 13)
        rng = np.random.default_rng(2000 + 10 * nv + nh + lag)
        m, series, _ = scoring_case(rng, arch, 50, nh, lag, nv=nv)
        windows, targets = build_windows(series, lag)
        for got, want in zip(score_rows(targets, windows, m, squared_error=True),
                             score_rows(np.array(targets), np.array(windows), m,
                                        squared_error=True)):
            assert got.tobytes() == want.tobytes()

    def test_blocks_hand_matmul_contiguous_windows(self, monkeypatch):
        # older numpy multiplies overlapping rows outside BLAS; 2.4 copies them itself
        monkeypatch.setattr(dynamics, "READ_AHEAD_BYTES", 8 * 5 * 7)
        rng = np.random.default_rng(2100)
        m, series, _ = scoring_case(rng, ARCH_GAUSSIAN, 30, 5, 3)
        windows, targets = build_windows(series, 3)
        seen, visible_bias = [], dynamics.dynamic_visible_bias
        monkeypatch.setattr(dynamics, "dynamic_visible_bias",
                            lambda w, m: seen.append(w.flags.c_contiguous) or visible_bias(w, m))
        score_rows(targets, windows, m)
        assert len(seen) == 4 and all(seen)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data(), n_hidden=st.integers(1, 300), lag=st.integers(0, 3),
           arch=st.sampled_from([ARCH_BERNOULLI, ARCH_GAUSSIAN]), seed=st.integers(0, 2**32 - 1))
    def test_property_blocks_match_one_shot(self, data, n_hidden, lag, arch, seed):
        n_rows = data.draw(st.integers(1, 3 * block_rows(n_hidden)), label="n_rows")
        rng = np.random.default_rng(seed)
        m, v, w = scoring_case(rng, arch, n_rows, n_hidden, lag, nv=int(rng.integers(1, 5)))
        assert_matches_one_shot(v, w, m)
