"""Train a Gaussian conditional RBM on correlated noise, then sample from it.

Takes about half a minute. The generated series should land near the
training cross-correlation of 0.8 and show roughly unit-scale marginals
after decoding.
"""

import numpy as np

from crbm.data import EncodedSeries
from crbm.diagnostics import correlation_fidelity, summary_stats
from crbm.generation import generate
from crbm.model import ARCH_GAUSSIAN
from crbm.training import TrainConfig, train

rng = np.random.default_rng(42)
T = 6000
L = np.linalg.cholesky(np.array([[1.0, 0.8], [0.8, 1.0]]))
data = 3.0 * (rng.standard_normal((T, 2)) @ L.T)

cfg = TrainConfig(seed=7, epochs=120, lag=5, n_hidden=16, batch_size=64)
report = train(EncodedSeries(data, ARCH_GAUSSIAN), cfg)
print(f"trained {cfg.epochs} epochs; final reconstruction mse "
      f"{report.recon_mse[-1]:.4f}")
print(f"free energy train/holdout at last epoch: "
      f"{report.free_energy_train[-1]:.2f} / {report.free_energy_holdout[-1]:.2f}")

out = generate(report.params, data[-cfg.lag:].ravel(), 3000,
               np.random.default_rng(99))

fid = correlation_fidelity(data, out.matrix)
print(f"\nreal corr    {fid.real[0, 1]:.3f}")
print(f"synth corr   {fid.synthetic[0, 1]:.3f}")
print(f"fidelity score (mean abs off-diagonal gap) {fid.score:.4f}")

stats = summary_stats(out.matrix)
print(f"\ngenerated means {stats.mean.round(3)}  stds {stats.std.round(3)}")
print(f"excess kurtosis {stats.excess_kurtosis.round(3)} "
      f"(Gaussian visibles keep tails thin)")
