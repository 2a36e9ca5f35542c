"""Energies, conditionals, Gibbs transitions, and the enumeration oracle."""

import math
import warnings

import numpy as np
import pytest

from crbm.model import (
    ARCH_BERNOULLI,
    ARCH_GAUSSIAN,
    ModelParams,
    energy,
    enumerate_states,
    exact_marginals,
    free_energy,
    free_energy_terms,
    gibbs_step,
    gibbs_sweeps,
    hidden_activation_probs,
    logsumexp,
    run_chains,
    sample_hidden,
    sigmoid,
    softplus,
    state_index,
    visible_reconstruction,
)
from helpers import (
    naive_energy,
    naive_free_energy,
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


class TestLogSumExp:
    def test_matches_naive_sum_far_from_zero(self):
        # exp(1e3) overflows, so only the shifted form can reach the answer
        x = np.array([0.3, -1.2, 2.0, 0.0, -7.5])
        naive = math.log(sum(math.exp(t) for t in x))
        assert logsumexp(x + 1e3) == pytest.approx(1e3 + naive, rel=0, abs=1e-12)
        assert logsumexp(x - 1e3) == pytest.approx(naive - 1e3, rel=0, abs=1e-12)


class TestModelParams:
    def test_lag_zero_empties_autoregression(self):
        m = random_bernoulli_model(np.random.default_rng(0), 3, 2)
        assert m.A.shape == (0, 3)
        assert m.B.shape == (0, 2)
        assert m.window_size == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shapes"):
            ModelParams(W=np.zeros((3, 2)), a=np.zeros(2), b=np.zeros(2),
                        sigma=np.ones(3), arch=ARCH_BERNOULLI)
        with pytest.raises(ValueError, match="autoregressive"):
            ModelParams(W=np.zeros((3, 2)), a=np.zeros(3), b=np.zeros(2),
                        sigma=np.ones(3), arch=ARCH_BERNOULLI,
                        A=np.zeros((5, 3)), B=np.zeros((6, 2)), lag=2)

    def test_sigma_and_finiteness_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            ModelParams(W=np.zeros((2, 2)), a=np.zeros(2), b=np.zeros(2),
                        sigma=np.zeros(2), arch=ARCH_GAUSSIAN)
        with pytest.raises(ValueError, match="non-finite"):
            ModelParams(W=np.full((2, 2), np.nan), a=np.zeros(2), b=np.zeros(2),
                        sigma=np.ones(2), arch=ARCH_GAUSSIAN)

    def test_unknown_arch(self):
        with pytest.raises(ValueError, match="architecture"):
            ModelParams(W=np.zeros((2, 2)), a=np.zeros(2), b=np.zeros(2),
                        sigma=np.ones(2), arch="quantum")

    def test_copy_is_deep(self):
        m = random_bernoulli_model(np.random.default_rng(1), 3, 2)
        c = m.copy()
        c.W[0, 0] += 1.0
        assert m.W[0, 0] != c.W[0, 0]


class TestEnergy:
    def test_matches_naive_bernoulli(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_bernoulli_model(rng, 4, 3)
            v = (rng.random(4) < 0.5).astype(float)
            h = (rng.random(3) < 0.5).astype(float)
            assert energy(v, h, m) == pytest.approx(
                naive_energy(v, h, m.W, m.a, m.b, m.sigma, m.arch), abs=1e-12)

    def test_matches_naive_gaussian(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = random_gaussian_model(rng, 4, 3)
            m.sigma = rng.uniform(0.5, 2.0, 4)  # exercise non-unit scales
            v = rng.normal(size=4)
            h = (rng.random(3) < 0.5).astype(float)
            assert energy(v, h, m) == pytest.approx(
                naive_energy(v, h, m.W, m.a, m.b, m.sigma, m.arch), abs=1e-12)

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
                        b=np.zeros(2), sigma=np.ones(3), arch=ARCH_GAUSSIAN)
        h = np.zeros(2)
        assert energy(m.a, h, m) == 0.0

    def test_effective_bias_override(self):
        rng = np.random.default_rng(10)
        m = random_bernoulli_model(rng, 3, 2)
        v = np.array([1.0, 0.0, 1.0])
        h = np.array([0.0, 1.0])
        abias = rng.normal(size=3)
        bbias = rng.normal(size=2)
        want = naive_energy(v, h, m.W, abias, bbias, m.sigma, m.arch)
        assert energy(v, h, m, abias, bbias) == pytest.approx(want, abs=1e-12)


class TestFreeEnergy:
    def test_matches_enumeration_both_archs(self):
        rng = np.random.default_rng(21)
        for make in (random_bernoulli_model, random_gaussian_model):
            for _ in range(10):
                m = make(rng, 3, 4)
                v = ((rng.random(3) < 0.5).astype(float)
                     if m.arch == ARCH_BERNOULLI else rng.normal(size=3))
                want = naive_free_energy(v, m.W, m.a, m.b, m.sigma, m.arch)
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
                        sigma=np.ones(3), arch=ARCH_GAUSSIAN)
        visible, structural = free_energy_terms(np.zeros(3), m)
        assert visible == 0.0
        assert structural == pytest.approx(-5.0 * np.log(2.0), abs=1e-12)


class TestConditionals:
    def test_hidden_probs_match_naive(self):
        rng = np.random.default_rng(31)
        m = random_bernoulli_model(rng, 4, 3)
        v = (rng.random(4) < 0.5).astype(float)
        np.testing.assert_allclose(hidden_activation_probs(v, m),
                                   naive_hidden_probs(v, m.W, m.b, m.sigma, m.arch),
                                   atol=1e-12)

    def test_sample_hidden_frequency(self):
        rng = np.random.default_rng(32)
        p = np.array([0.1, 0.5, 0.9])
        draws = sample_hidden(np.tile(p, (200_000, 1)), rng)
        np.testing.assert_allclose(draws.mean(axis=0), p, atol=5e-3)
        assert set(np.unique(draws)) <= {0.0, 1.0}

    def test_gaussian_reconstruction_moments(self):
        # sample mode: mean within 0.02 and unit variance within 0.03
        rng = np.random.default_rng(33)
        m = random_gaussian_model(rng, 3, 2)
        h = np.array([1.0, 0.0])
        center = visible_reconstruction(h, m, mode="mean")
        draws = visible_reconstruction(np.tile(h, (100_000, 1)), m, rng=rng,
                                       mode="sample")
        np.testing.assert_allclose(draws.mean(axis=0), center, atol=0.02)
        np.testing.assert_allclose(draws.var(axis=0), 1.0, atol=0.03)

    def test_bernoulli_reconstruction_is_sigmoid(self):
        rng = np.random.default_rng(34)
        m = random_bernoulli_model(rng, 3, 2)
        h = np.array([1.0, 1.0])
        p = visible_reconstruction(h, m, mode="mean")
        np.testing.assert_allclose(p, 1.0 / (1.0 + np.exp(-(m.a + m.W @ h))),
                                   atol=1e-12)

    def test_unknown_mode_error(self):
        m = random_bernoulli_model(np.random.default_rng(35), 2, 2)
        with pytest.raises(ValueError, match="mode"):
            visible_reconstruction(np.zeros(2), m, mode="map")


class TestGibbs:
    def test_deterministic_given_seed(self):
        m = random_bernoulli_model(np.random.default_rng(41), 4, 3)
        v0 = np.zeros(4)
        a = gibbs_step(v0, m, rng=np.random.default_rng(99))
        b = gibbs_step(v0, m, rng=np.random.default_rng(99))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_run_chains_matches_sequential_gibbs(self):
        # one chain advanced by run_chains consumes its generator exactly
        # like repeated gibbs_step calls
        m = random_gaussian_model(np.random.default_rng(42), 3, 4)
        v0 = np.array([[0.3, -0.1, 0.8]])
        got, _ = run_chains(v0, m, None, None, [np.random.default_rng(5)], steps=7)
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
        wide, _ = run_chains(v0, m, None, None, rngs6, steps=11)
        narrow, _ = run_chains(v0[:3], m, None, None, rngs3, steps=11)
        np.testing.assert_array_equal(wide[:3], narrow)

    def test_generator_count_mismatch(self):
        m = random_bernoulli_model(np.random.default_rng(44), 2, 2)
        with pytest.raises(ValueError, match="one generator per chain"):
            run_chains(np.zeros((3, 2)), m, None, None,
                       [np.random.default_rng(0)], steps=1)


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
        _, h = gibbs_sweeps(v, m, m.a, m.b, np.random.default_rng(47), 1)
        np.testing.assert_allclose(h.mean(axis=0), hidden_activation_probs(v[0], m),
                                   atol=5e-3)


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
