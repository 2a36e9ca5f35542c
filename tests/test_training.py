"""Configuration, gradient estimator structure, updates, and the training loop."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbm.data import EncodedSeries
from crbm.dynamics import build_windows, dynamic_hidden_bias, dynamic_visible_bias
from crbm.model import ARCH_BERNOULLI, ARCH_GAUSSIAN, PARAM_NAMES, READ_AHEAD_BYTES, \
    free_energy, sigmoid
from crbm.training import (
    TrainConfig,
    TrainingDiverged,
    apply_update,
    init_chains,
    init_params,
    pcd_gradients,
    reconstruction_mse,
    train,
)
from helpers import naive_hidden_probs, random_bernoulli_model, random_gaussian_model


def loop_statistics(m, vs, ws):
    """Batch means of the PCD statistics (W, a, b, A, B), one row at a time,
    with scalar-loop hidden probabilities; the b entry is the mean hidden
    activation."""
    n, nv, nh = len(vs), m.n_visible, m.n_hidden
    gW = np.zeros((nv, nh)); ga = np.zeros(nv); gb = np.zeros(nh)
    gA = np.zeros((m.window_size, nv)); gB = np.zeros((m.window_size, nh))
    for v, w in zip(vs, ws):
        bbias = m.b + w @ m.B
        abias = m.a + w @ m.A
        p = np.array(naive_hidden_probs(v, m.W, bbias))
        stat_a = v if m.arch == ARCH_BERNOULLI else v - abias
        gW += np.outer(v, p) / n
        ga += stat_a / n
        gb += p / n
        gA += np.outer(w, stat_a) / n
        gB += np.outer(w, p) / n
    return gW, ga, gb, gA, gB


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig(seed=1)
        assert (cfg.epochs, cfg.batch_size, cfg.momentum) == (200, 64, 0.5)
        assert (cfg.weight_decay, cfg.n_chains, cfg.gibbs_k) == (1e-4, 64, 1)
        assert (cfg.lag, cfg.n_hidden, cfg.holdout_fraction) == (5, 64, 0.1)
        assert cfg.learning_rate is None

    def test_learning_rate_resolves_per_arch(self):
        cfg = TrainConfig(seed=1)
        assert cfg.resolve_learning_rate(ARCH_GAUSSIAN) == 1e-3
        assert cfg.resolve_learning_rate(ARCH_BERNOULLI) == 1e-2
        assert TrainConfig(seed=1, learning_rate=0.5).resolve_learning_rate(
            ARCH_GAUSSIAN) == 0.5

    @pytest.mark.parametrize("bad", [
        {"epochs": 0}, {"batch_size": 0}, {"learning_rate": -1.0},
        {"momentum": 1.0}, {"momentum": -0.1}, {"weight_decay": -1e-4},
        {"n_chains": 0}, {"gibbs_k": 0}, {"sparsity_target": 1.5},
        {"lag": -1}, {"n_hidden": 0}, {"holdout_fraction": 1.0},
        {"learning_rate": math.inf}, {"learning_rate": math.nan},
        {"weight_decay": math.inf}, {"weight_decay": math.nan},
        {"sparsity_cost": -3.0}, {"sparsity_cost": math.inf}, {"sparsity_cost": math.nan},
        # a target without a cost, or a cost without a target, would train
        # with no sparsity term
        {"sparsity_target": 0.1}, {"sparsity_cost": 0.5},
    ])
    def test_validation(self, bad):
        # the message names the refused key
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(seed=1, **bad)

    def test_negative_seed_refused(self):
        # numpy's seeding would refuse it only once training starts
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            TrainConfig(seed=-1)

    def test_text_roundtrip(self):
        cfg = TrainConfig(seed=42, learning_rate=3e-3, sparsity_target=0.1,
                          sparsity_cost=0.9, epochs=7)
        again = TrainConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_from_text_parses_comments_and_none(self):
        cfg = TrainConfig.from_text(
            "seed=5\n# a comment\nepochs=3   # trailing\n\nlearning_rate=none\n")
        assert (cfg.seed, cfg.epochs, cfg.learning_rate) == (5, 3, None)

    def test_from_text_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            TrainConfig.from_text("seed=1\ntemperature=4\n")

    def test_from_text_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig.from_text("epochs=3\n")

    def test_overrides_beat_file_values(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed=1\nepochs=9\nlag=2\n")
        cfg = TrainConfig.from_file(path, seed=7, lag=4)
        assert (cfg.seed, cfg.epochs, cfg.lag) == (7, 9, 4)

    # numbers that parse, or not, at the edges of int(), float() and validation
    CONFIG_NUMBERS = st.sampled_from([
        "nan", "-NaN", "inf", "1e999", "-1e999", "", "none", "None", "'none'", "1_000", "1__0",
        "_1", "\u0663", "\uff11\uff12", "0", "-1", "0.5", "1e-3", "2", "3.0", "0x10", "1" * 5000])
    CONFIG_KEYS = st.sampled_from([f.name for f in fields(TrainConfig)])
    CONFIG_LINES = st.one_of(
        st.builds("{}={}".format, CONFIG_KEYS, CONFIG_NUMBERS),
        st.builds("{}={}".format, CONFIG_KEYS, st.integers(-2, 10**20) | st.floats()),
        st.builds("{}={}".format, CONFIG_KEYS | st.text(max_size=4), st.text(max_size=6)),
        st.text(max_size=8))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.booleans(), st.lists(CONFIG_LINES, max_size=6))
    def test_any_text_is_a_config_or_a_one_line_value_error(self, seeded, lines):
        text = "\n".join(["seed=1"] * seeded + lines)
        try:
            cfg = TrainConfig.from_text(text)
        except ValueError as exc:
            assert len(str(exc).splitlines()) == 1, repr(str(exc))
        else:
            assert isinstance(cfg, TrainConfig)


class TestInitParams:
    def test_deterministic_and_shaped(self):
        m1 = init_params(6, 4, 3, ARCH_GAUSSIAN, seed=11)
        m2 = init_params(6, 4, 3, ARCH_GAUSSIAN, seed=11)
        np.testing.assert_array_equal(m1.W, m2.W)
        assert m1.W.shape == (6, 4)
        assert m1.A.shape == (18, 6)
        assert m1.B.shape == (18, 4)

    def test_biases_zero_weights_small(self):
        m = init_params(50, 40, 0, ARCH_BERNOULLI, seed=3)
        assert not m.a.any() and not m.b.any()
        assert 0.005 < m.W.std() < 0.02  # ~N(0, 0.01^2)


class TestPcdGradients:
    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(71)
        m = random_gaussian_model(rng, 3, 4, lag=2)
        m.A = rng.normal(size=(6, 3)) * 0.2
        m.B = rng.normal(size=(6, 4)) * 0.2
        data = rng.normal(size=(30, 3))
        windows, targets = build_windows(data, lag=2)
        cfg = TrainConfig(seed=1, lag=2, n_chains=8)
        chains = init_chains(windows, targets, 8, seed=5)
        return m, windows, targets, cfg, chains

    def test_estimator_is_data_minus_chain_statistics(self, setup):
        # recompute both phases from the returned chain state with loops
        m, windows, targets, cfg, chains = setup
        grads, chains = pcd_gradients((windows, targets), chains, m, cfg,
                                      np.random.default_rng(2))
        pos = loop_statistics(m, targets, windows)
        neg = loop_statistics(m, chains.v, chains.windows)
        for got, p, q in zip((grads.W, grads.a, grads.b, grads.A, grads.B), pos, neg):
            np.testing.assert_allclose(got, p - q, atol=1e-10)

    @pytest.mark.parametrize("n_batch", [5, 40])
    @pytest.mark.parametrize("sparsity", [None, 0.1], ids=["no_sparsity", "sparsity"])
    @pytest.mark.parametrize("lag", [0, 2])
    @pytest.mark.parametrize("arch", [ARCH_BERNOULLI, ARCH_GAUSSIAN])
    def test_stacked_update_matches_loop_oracle(self, arch, lag, sparsity, n_batch):
        # a batch of 5 or 40 pairs, both short of batch_size 64, over 8 chains;
        # the sparsity pressure on the data's mean activation is part of the b
        # gradient; then the update lands in every view as the per-tensor
        # formula says
        rng = np.random.default_rng(73)
        nv, nh = 3, 4
        if arch == ARCH_BERNOULLI:
            m = random_bernoulli_model(rng, nv, nh, lag=lag)
            series = (rng.random((n_batch + lag, nv)) < 0.5).astype(float)
        else:
            m = random_gaussian_model(rng, nv, nh, lag=lag)
            series = rng.normal(size=(n_batch + lag, nv))
        m.A = rng.normal(size=(lag * nv, nv)) * 0.2
        m.B = rng.normal(size=(lag * nv, nh)) * 0.2
        windows, targets = build_windows(series, lag)
        cfg = TrainConfig(seed=1, lag=lag, n_chains=8, batch_size=64, learning_rate=0.05,
                          sparsity_target=sparsity,
                          sparsity_cost=0.0 if sparsity is None else 0.5)
        assert targets.shape[0] == n_batch < cfg.batch_size
        chains = init_chains(windows, targets, cfg.n_chains, seed=5)
        grads, chains = pcd_gradients((windows, targets), chains, m, cfg,
                                      np.random.default_rng(2))
        pos = loop_statistics(m, targets, windows)
        neg = loop_statistics(m, chains.v, chains.windows)
        want = [p - q for p, q in zip(pos, neg)]
        if sparsity is not None:
            want[2] = want[2] + cfg.sparsity_cost * (sparsity - pos[2])
        for name, g in zip(PARAM_NAMES, want):
            np.testing.assert_allclose(getattr(grads, name), g, atol=1e-10)
            assert getattr(grads, name).base is grads.buffer

        before = m.copy()
        apply_update(m, grads, m.like(np.zeros(m.buffer.shape)), cfg)
        lr = cfg.resolve_learning_rate(arch)
        for name, g in zip(PARAM_NAMES, want):
            step = lr * g
            if name == "W":
                step -= lr * cfg.weight_decay * before.W
            np.testing.assert_allclose(getattr(m, name), getattr(before, name) + step,
                                       atol=1e-10)
            assert getattr(m, name).base is m.buffer

    def test_deterministic_given_streams(self, setup):
        m, windows, targets, cfg, _ = setup
        runs = []
        for _ in range(2):
            chains = init_chains(windows, targets, 8, seed=5)
            grads, _ = pcd_gradients((windows, targets), chains, m, cfg,
                                     np.random.default_rng(2))
            runs.append(grads.buffer)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_chain_windows_reassigned_from_batch(self, setup):
        m, windows, targets, cfg, chains = setup
        batch = (windows[:4], targets[:4])
        _, chains = pcd_gradients(batch, chains, m, cfg, np.random.default_rng(0))
        for w in chains.windows:
            assert any(np.array_equal(w, cand) for cand in windows[:4])

    def test_dimension_mismatch_error(self, setup):
        m, windows, targets, cfg, chains = setup
        with pytest.raises(ValueError, match="batch"):
            pcd_gradients((windows[:, :3], targets), chains, m, cfg,
                          np.random.default_rng(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_raises(self, setup):
        # batch sums overflow to inf, which must surface as an error
        m, windows, targets, cfg, chains = setup
        with pytest.raises(TrainingDiverged):
            pcd_gradients((windows, targets * 1e308), chains, m, cfg,
                          np.random.default_rng(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_names_the_tensor(self, setup):
        m, windows, targets, cfg, chains = setup
        with pytest.raises(TrainingDiverged, match=r"^non-finite gradient of [WabAB]$"):
            pcd_gradients((windows, targets * 1e308), chains, m, cfg,
                          np.random.default_rng(0))


class TestApplyUpdate:
    def make(self, rng):
        m = random_gaussian_model(rng, 3, 2, lag=1)
        grads = m.like(rng.normal(size=m.buffer.shape))
        return m, grads, m.like(np.zeros(m.buffer.shape))

    def test_momentum_accumulates(self):
        rng = np.random.default_rng(81)
        m, grads, vel = self.make(rng)
        cfg = TrainConfig(seed=1, learning_rate=0.1, momentum=0.5, weight_decay=0.0)
        b0 = m.b.copy()
        apply_update(m, grads, vel, cfg)
        apply_update(m, grads, vel, cfg)
        # velocity after two steps: lr g, then 0.5 lr g + lr g
        np.testing.assert_allclose(m.b, b0 + 0.1 * grads.b + 0.15 * grads.b,
                                   atol=1e-12)

    def test_weight_decay_only_on_W(self):
        rng = np.random.default_rng(82)
        m, grads, vel = self.make(rng)
        grads.buffer[:] = 0.0
        cfg = TrainConfig(seed=1, learning_rate=0.1, momentum=0.0, weight_decay=0.01)
        W0, a0, A0 = m.W.copy(), m.a.copy(), m.A.copy()
        apply_update(m, grads, vel, cfg)
        np.testing.assert_allclose(m.W, W0 - 0.1 * 0.01 * W0, atol=1e-15)
        np.testing.assert_array_equal(m.a, a0)
        np.testing.assert_array_equal(m.A, A0)

    def test_non_finite_parameter_is_named(self):
        rng = np.random.default_rng(85)
        m, grads, vel = self.make(rng)
        grads.A[1, 2] = np.inf
        with pytest.raises(TrainingDiverged, match="^non-finite parameter A after update$"):
            apply_update(m, grads, vel, TrainConfig(seed=1, learning_rate=0.1))

    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_each_view_is_named(self, name):
        # the buffer is checked as one; the name comes from the view that holds
        # the bad entry
        rng = np.random.default_rng(86)
        m, grads, vel = self.make(rng)
        getattr(grads, name)[-1] = np.nan
        assert grads.non_finite() == name
        with pytest.raises(TrainingDiverged, match=f"^non-finite parameter {name} after update$"):
            apply_update(m, grads, vel, TrainConfig(seed=1, learning_rate=0.1))

    def test_in_place_update(self):
        rng = np.random.default_rng(84)
        m, grads, vel = self.make(rng)
        cfg = TrainConfig(seed=1, learning_rate=0.1)
        W_ref = m.W
        m2, _ = apply_update(m, grads, vel, cfg)
        assert m2 is m and m2.W is W_ref


class TestTrain:
    def gaussian_series(self, n=400, seed=90):
        rng = np.random.default_rng(seed)
        return EncodedSeries(rng.normal(size=(n, 2)) * 2.0, ARCH_GAUSSIAN)

    def test_bitwise_deterministic(self):
        cfg = TrainConfig(seed=4, epochs=3, lag=2, n_hidden=6, n_chains=8,
                          batch_size=32)
        r1 = train(self.gaussian_series(), cfg)
        r2 = train(self.gaussian_series(), cfg)
        for name in ("W", "a", "b", "A", "B"):
            np.testing.assert_array_equal(getattr(r1.params, name),
                                          getattr(r2.params, name))
        np.testing.assert_array_equal(r1.free_energy_train, r2.free_energy_train)

    def test_curves_shaped_and_finite(self):
        cfg = TrainConfig(seed=4, epochs=5, lag=1, n_hidden=4, n_chains=8,
                          batch_size=32)
        rep = train(self.gaussian_series(n=200), cfg)
        for curve in (rep.recon_mse, rep.free_energy_train, rep.free_energy_holdout):
            assert curve.shape == (5,)
            assert np.all(np.isfinite(curve))
        assert rep.params.arch == ARCH_GAUSSIAN
        assert rep.params.lag == 1

    def test_gaussian_reconstruction_center(self):
        # the mean-field visible center is a + A w + W p, as in the sampler
        rng = np.random.default_rng(91)
        m = random_gaussian_model(rng, 3, 4, lag=1)
        m.A = rng.normal(size=(3, 3)) * 0.2
        m.B = rng.normal(size=(3, 4)) * 0.2
        windows, targets = build_windows(rng.normal(size=(20, 3)), lag=1)
        total = 0.0
        for w, v in zip(windows, targets):
            p = naive_hidden_probs(v, m.W, m.b + w @ m.B)
            for i in range(3):
                center = m.a[i] + w @ m.A[:, i] + sum(m.W[i, j] * p[j] for j in range(4))
                total += (v[i] - center) ** 2
        assert reconstruction_mse(windows, targets, m) == pytest.approx(
            total / targets.size, rel=1e-12)

    def test_reconstruction_error_improves(self):
        cfg = TrainConfig(seed=4, epochs=25, lag=0, n_hidden=8, n_chains=16,
                          batch_size=32)
        rep = train(self.gaussian_series(n=600), cfg)
        assert rep.recon_mse[-1] < rep.recon_mse[0]

    def test_binary_mode_trains_bernoulli(self):
        rng = np.random.default_rng(91)
        enc = EncodedSeries((rng.random((120, 4)) < 0.4).astype(float), ARCH_BERNOULLI)
        cfg = TrainConfig(seed=2, epochs=2, lag=1, n_hidden=3, n_chains=4,
                          batch_size=16)
        rep = train(enc, cfg)
        assert rep.params.arch == ARCH_BERNOULLI

    def test_zero_holdout_mirrors_train_curve(self):
        cfg = TrainConfig(seed=4, epochs=2, lag=1, n_hidden=4, n_chains=4,
                          batch_size=32, holdout_fraction=0.0)
        rep = train(self.gaussian_series(n=100), cfg)
        np.testing.assert_array_equal(rep.free_energy_holdout, rep.free_energy_train)

    def test_holdout_consuming_all_pairs_errors(self):
        cfg = TrainConfig(seed=4, epochs=1, lag=1, holdout_fraction=0.75)
        with pytest.raises(ValueError, match="holdout"):
            train(self.gaussian_series(n=3), cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_tensor_epoch_and_batch(self):
        cfg = TrainConfig(seed=4, epochs=50, lag=1, n_hidden=4, n_chains=4,
                          batch_size=16, learning_rate=1e100, momentum=0.9)
        with pytest.raises(TrainingDiverged, match=r"^non-finite (gradient of|parameter) "
                                                   r"[WabAB]\b.* at epoch \d+, batch \d+;"):
            train(self.gaussian_series(n=100), cfg)

    def test_curves_equal_one_shot_monitor(self):
        # 256 hidden units make 128-row blocks; 448 pairs span four of them
        n_hidden = 256
        assert READ_AHEAD_BYTES // (8 * n_hidden) == 128
        series = self.gaussian_series(n=450)
        cfg = TrainConfig(seed=4, epochs=2, lag=2, n_hidden=n_hidden, n_chains=8,
                          batch_size=64)
        rep = train(series, cfg)
        m = rep.params
        windows, targets = build_windows(series.matrix, cfg.lag)
        assert targets.shape[0] >= 3 * 128
        abias, bbias = dynamic_visible_bias(windows, m), dynamic_hidden_bias(windows, m)
        recon = abias + sigmoid(bbias + targets @ m.W) @ m.W.T
        assert rep.recon_mse[-1] == pytest.approx(np.mean((targets - recon) ** 2), rel=1e-12)
        assert reconstruction_mse(windows, targets, m) == rep.recon_mse[-1]
        fe = free_energy(targets, m, abias, bbias)
        n_train = targets.shape[0] - int(round(cfg.holdout_fraction * targets.shape[0]))
        assert rep.free_energy_train[-1] == pytest.approx(np.mean(fe), rel=1e-12)
        assert rep.free_energy_holdout[-1] == pytest.approx(np.mean(fe[n_train:]), rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_absurd_learning_rate_diverges(self):
        cfg = TrainConfig(seed=4, epochs=50, lag=0, n_hidden=4, n_chains=4,
                          batch_size=16, learning_rate=1e18, momentum=0.9)
        with pytest.raises(TrainingDiverged):
            train(self.gaussian_series(n=100), cfg)
