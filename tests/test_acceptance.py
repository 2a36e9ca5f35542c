"""The ten acceptance criteria, one test per criterion.

Each test prints a PASS line with its measured quantity and elapsed time
(run with ``pytest -s`` to see them) and pins the tolerance stated in the
criterion. Heavyweight artifacts (the correlation-recovery model) are
module-scoped fixtures shared across criteria.
"""

import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from crbm.cli import main as cli_main
from crbm.data import EncodedSeries, fit_binary_codec, RawSeries, binarize, decode_series
from crbm.diagnostics import free_energy_series
from crbm.dynamics import build_windows, conditional_free_energy, \
    conditional_free_energy_terms, dynamic_hidden_bias, dynamic_visible_bias
from crbm.exact import enumerate_states, exact_marginals, state_index
from crbm.generation import generate
from crbm.model import (
    ARCH_BERNOULLI,
    ARCH_GAUSSIAN,
    free_energy,
    free_energy_terms,
    gibbs_step,
    hidden_activation_probs,
)
from crbm.training import TrainConfig, init_chains, pcd_gradients, train
from helpers import naive_free_energy, random_bernoulli_model, random_gaussian_model

FIXTURE = Path(__file__).parent / "data" / "toy.csv"


def elapsed_since(t0):
    return time.monotonic() - t0


@pytest.fixture(scope="module")
def corr_training():
    """10,000 rows of bivariate noise, cross-correlation 0.8.

    The amplitude (per-column std 3) keeps the target covariance
    representable: the visible units carry unit conditional variance, so
    the model's covariance is I + S with S positive semidefinite, and
    matching correlation 0.8 needs column std >= sqrt(5).
    """
    rng = np.random.default_rng(123)
    L = np.linalg.cholesky(np.array([[1.0, 0.8], [0.8, 1.0]]))
    return 3.0 * (rng.standard_normal((10_000, 2)) @ L.T)


@pytest.fixture(scope="module")
def corr_model(corr_training):
    cfg = TrainConfig(seed=7, epochs=200, lag=5, n_hidden=16, batch_size=64)
    report = train(EncodedSeries(corr_training, ARCH_GAUSSIAN), cfg)
    return report.params


def test_criterion_1_free_energy_oracle_equivalence():
    """Closed-form free energy equals brute-force hidden enumeration."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        nv = int(rng.integers(1, 5))
        nh = int(rng.integers(1, 5))
        m = random_bernoulli_model(rng, nv, nh, scale=float(rng.uniform(0.3, 1.5)))
        states = enumerate_states(nv)
        got = free_energy(states, m)
        want = [naive_free_energy(s, m.W, m.a, m.b, m.arch)
                for s in states]
        worst = max(worst, float(np.max(np.abs(got - want))))
    dt = elapsed_since(t0)
    assert worst <= 1e-9
    assert dt < 10.0
    print(f"\nPASS criterion 1: free-energy oracle equivalence "
          f"(max deviation {worst:.2e}, {dt:.1f}s)")


def test_criterion_2_gibbs_stationarity():
    """Long-run Gibbs visit frequencies match exact marginals."""
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    m = random_bernoulli_model(rng, 3, 2, scale=0.6)
    p_true = exact_marginals(m)

    n_chains, burn, keep = 100, 1000, 20_000  # 100 x 20k = 2e6 kept steps
    chain_rng = np.random.default_rng(1234)
    v = (chain_rng.random((n_chains, 3)) < 0.5).astype(float)
    counts = np.zeros(8)
    for step in range(burn + keep):
        v, _ = gibbs_step(v, m, rng=chain_rng)
        if step >= burn:
            counts += np.bincount(state_index(v), minlength=8)
    freq = counts / counts.sum()
    tv = 0.5 * float(np.abs(freq - p_true).sum())
    dt = elapsed_since(t0)
    assert counts.sum() == 2_000_000
    assert tv < 0.01
    assert dt < 60.0
    print(f"\nPASS criterion 2: Gibbs stationarity (TV {tv:.4f} over 2e6 steps, "
          f"{dt:.1f}s)")


def test_criterion_3_pcd_matches_exact_gradient():
    """Averaged PCD gradients align with the exact log-likelihood gradient."""
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    m = random_bernoulli_model(rng, 4, 4, scale=0.7)
    data_model = random_bernoulli_model(rng, 4, 4, scale=1.0)
    states = enumerate_states(4)
    data = states[rng.choice(16, size=2000, p=exact_marginals(data_model))]

    # exact gradient: data statistics minus exact model expectations
    p_data = hidden_activation_probs(data, m)
    marginals = exact_marginals(m)
    p_states = hidden_activation_probs(states, m)
    exact = np.concatenate([
        (data.T @ p_data / len(data) - (states * marginals[:, None]).T @ p_states).ravel(),
        data.mean(axis=0) - marginals @ states,
        p_data.mean(axis=0) - marginals @ p_states,
    ])

    cfg = TrainConfig(seed=3, lag=0, n_chains=64, gibbs_k=1)
    windows = np.zeros((len(data), 0))
    chains = init_chains(windows, data, cfg.n_chains, seed=77)
    assign = np.random.default_rng(88)
    total = np.zeros_like(exact)
    n_updates, warmup = 3000, 200
    for step in range(n_updates):
        grads, chains = pcd_gradients((windows, data), chains, m, cfg, assign)
        if step >= warmup:
            total += np.concatenate([grads.W.ravel(), grads.a, grads.b])
    avg = total / (n_updates - warmup)
    cosine = float(avg @ exact / (np.linalg.norm(avg) * np.linalg.norm(exact)))
    dt = elapsed_since(t0)
    assert cosine > 0.95
    assert dt < 120.0
    print(f"\nPASS criterion 3: PCD vs exact gradient (cosine {cosine:.5f}, "
          f"{dt:.1f}s)")


def test_criterion_4_model_recovery():
    """Training on samples from a known tiny model recovers its marginals."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    generator = random_bernoulli_model(rng, 4, 3, scale=0.8)
    p_true = exact_marginals(generator)
    states = enumerate_states(4)
    data = states[rng.choice(p_true.size, size=50_000, p=p_true)]

    cfg = TrainConfig(seed=11, epochs=40, lag=0, n_hidden=8, batch_size=256,
                      n_chains=128)
    report = train(EncodedSeries(data, ARCH_BERNOULLI), cfg)
    tv = 0.5 * float(np.abs(exact_marginals(report.params) - p_true).sum())
    dt = elapsed_since(t0)
    assert tv < 0.05
    assert dt < 300.0
    print(f"\nPASS criterion 4: model recovery from 50k samples (TV {tv:.4f}, "
          f"{dt:.1f}s)")


def test_criterion_5_correlation_fidelity(corr_model, corr_training):
    """Generated series reproduces the training cross-correlation."""
    t0 = time.monotonic()
    seed_window = corr_training[-5:].ravel()
    out = generate(corr_model, seed_window, 5000, np.random.default_rng(99),
                   burn_in=20)
    corr = float(np.corrcoef(out.matrix, rowvar=False)[0, 1])
    dt = elapsed_since(t0)
    assert 0.7 <= corr <= 0.9
    assert dt < 300.0
    print(f"\nPASS criterion 5: correlation fidelity (generated corr {corr:.3f} "
          f"vs 0.8 target, {dt:.1f}s)")


def test_criterion_6_thin_tail_signature():
    """The Gaussian model underestimates heavy tails, as documented."""
    t0 = time.monotonic()
    rng = np.random.default_rng(55)
    real = 2.0 * rng.standard_t(3, size=(10_000, 2))
    cfg = TrainConfig(seed=21, epochs=100, lag=5, n_hidden=16, batch_size=64)
    report = train(EncodedSeries(real, ARCH_GAUSSIAN), cfg)
    out = generate(report.params, real[-5:].ravel(), 5000,
                   np.random.default_rng(77), burn_in=20)
    real_q = np.abs(np.quantile(real, 0.001, axis=0))
    synth_q = np.abs(np.quantile(out.matrix, 0.001, axis=0))
    dt = elapsed_since(t0)
    assert np.all(synth_q < real_q)
    print(f"\nPASS criterion 6: thin-tail signature (|q0.1%| generated "
          f"{synth_q.round(2)} < real {real_q.round(2)}, {dt:.1f}s)")


def test_criterion_7_decomposition_identity_and_shock(corr_model, corr_training):
    """total = quadratic + structural everywhere; a x10 deviation spikes
    the quadratic term."""
    t0 = time.monotonic()
    m = corr_model
    enc = EncodedSeries(corr_training, ARCH_GAUSSIAN)
    fe = free_energy_series(enc, m)
    identity_gap = float(np.max(np.abs(fe.total - (fe.quadratic + fe.structural))))
    assert identity_gap <= 1e-9

    # also on a Bernoulli model, where the linear term fills the slot
    rng = np.random.default_rng(222)
    mb = random_bernoulli_model(rng, 4, 3, lag=2)
    mb.A = rng.normal(size=(8, 4)) * 0.1
    mb.B = rng.normal(size=(8, 3)) * 0.1
    rows = (rng.random((300, 4)) < 0.5).astype(float)
    feb = free_energy_series(EncodedSeries(rows, ARCH_BERNOULLI), mb)
    gap_b = float(np.max(np.abs(feb.total - (feb.quadratic + feb.structural))))
    assert gap_b <= 1e-9

    # shock: scale one date's deviation from its conditional mean by 10
    shock_t = 7_000
    windows, targets = build_windows(corr_training, m.lag)
    p = shock_t - m.lag
    abias = dynamic_visible_bias(windows[p], m)
    shocked = corr_training.copy()
    shocked[shock_t] = abias + 10.0 * (shocked[shock_t] - abias)
    fe_shocked = free_energy_series(EncodedSeries(shocked, ARCH_GAUSSIAN), m)
    others = np.delete(fe_shocked.quadratic, p)
    cutoff = float(np.quantile(others, 0.99))
    dt = elapsed_since(t0)
    assert fe_shocked.quadratic[p] > cutoff
    print(f"\nPASS criterion 7: decomposition identity (max gap "
          f"{max(identity_gap, gap_b):.1e}) and shock response (quadratic "
          f"{fe_shocked.quadratic[p]:.1f} > 99th pct {cutoff:.1f}, {dt:.1f}s)")


def test_criterion_8_static_reduction_bit_identical():
    """With no autoregressive weights and lag 0, conditional scoring and
    sampling reproduce the static model bit for bit."""
    t0 = time.monotonic()
    rng = np.random.default_rng(888)
    for make in (random_bernoulli_model, random_gaussian_model):
        m = make(rng, 4, 3, lag=0)
        assert m.A.size == 0 and m.B.size == 0
        v = ((rng.random((50, 4)) < 0.5).astype(float)
             if m.arch == ARCH_BERNOULLI else rng.normal(size=(50, 4)))
        empty = np.zeros((50, 0))

        np.testing.assert_array_equal(conditional_free_energy(v, empty, m),
                                      free_energy(v, m))
        for got, want in zip(conditional_free_energy_terms(v, empty, m),
                             free_energy_terms(v, m)):
            np.testing.assert_array_equal(got, want)
        window = np.zeros(0)
        assert dynamic_visible_bias(window, m) is m.a
        assert dynamic_hidden_bias(window, m) is m.b

        # sampling path: generate() versus a hand-rolled static chain
        out = generate(m, np.zeros(0), 40, np.random.default_rng(31), burn_in=2)
        manual_rng = np.random.default_rng(31)
        chain_v = np.zeros(4)
        manual = np.empty((40, 4))
        for t in range(40):
            for _ in range(3):
                chain_v, _h = gibbs_step(chain_v, m, rng=manual_rng)
            manual[t] = chain_v
        np.testing.assert_array_equal(out.matrix, manual)
    dt = elapsed_since(t0)
    print(f"\nPASS criterion 8: static reduction bit-identical "
          f"(both architectures, {dt:.1f}s)")


def test_criterion_9_binary_codec_roundtrip():
    """Quantization error bounded by half a bin; bit order is MSB-first."""
    t0 = time.monotonic()
    rng = np.random.default_rng(999)
    lo = np.array([-5.0, 0.0, 100.0])
    hi = np.array([5.0, 0.25, 250.0])
    dates = [date(2020, 1, 1), date(2020, 1, 2)]
    train_rows = RawSeries(dates, np.vstack([lo, hi]), ["a", "b", "c"])
    worst_ratio = 0.0
    for bits in (1, 4, 8, 16):
        codec = fit_binary_codec(train_rows, bits=bits)
        half_bin = (hi - lo) / (codec.n_bins - 1) / 2.0
        values = rng.uniform(lo, hi, size=(10_000, 3))
        days = [date(2021, 1, 1) + timedelta(days=int(i)) for i in range(10_000)]
        series = RawSeries(days, values, ["a", "b", "c"])
        back = decode_series(binarize(series, codec))
        err = np.abs(back - values)
        assert np.all(err <= half_bin + 1e-9)
        worst_ratio = max(worst_ratio, float(np.max(err / half_bin)))

        # MSB monotonicity: along a sorted value sweep, bit strings read
        # most-significant-first are lexicographically non-decreasing
        sweep = np.linspace(lo, hi, 4096)
        sweep_days = [date(2021, 1, 1) + timedelta(days=int(i))
                      for i in range(4096)]
        enc = binarize(RawSeries(sweep_days, sweep, ["a", "b", "c"]), codec)
        bits_3d = enc.matrix.reshape(4096, 3, bits).astype(int)
        for asset in range(3):
            rows = [tuple(r) for r in bits_3d[:, asset, :]]
            assert rows == sorted(rows)
            top_half = sweep[:, asset] > (lo[asset] + hi[asset]) / 2.0
            np.testing.assert_array_equal(bits_3d[top_half, asset, 0], 1)
    dt = elapsed_since(t0)
    assert dt < 60.0
    print(f"\nPASS criterion 9: binary codec roundtrip (worst error "
          f"{worst_ratio:.3f} half-bins, MSB order monotone, {dt:.1f}s)")


def test_criterion_10_cli_train_determinism(tmp_path):
    """Two identical train invocations write byte-identical model files."""
    t0 = time.monotonic()
    config = tmp_path / "cfg.txt"
    config.write_text("epochs=4\nn_hidden=8\nlag=3\nn_chains=16\nbatch_size=32\n")
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main(["train", "--input", str(FIXTURE), "--arch", "gaussian",
                         "--seed", "42", "--output-dir", str(out),
                         "--config", str(config)])
        assert code == 0
        blobs.append((out / "model.crbm").read_bytes())
    dt = elapsed_since(t0)
    assert blobs[0] == blobs[1]
    print(f"\nPASS criterion 10: train determinism ({len(blobs[0])} byte model "
          f"files identical, {dt:.1f}s)")
