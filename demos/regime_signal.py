"""Free energy as an unsupervised regime monitor.

Train on calm correlated noise, then inject a burst of amplified,
decorrelated rows into a held-out continuation and watch the per-date
free energy cross the rolling flag threshold exactly there.
"""

import numpy as np

from crbm.data import EncodedSeries
from crbm.diagnostics import free_energy_series, regime_flags
from crbm.model import ARCH_GAUSSIAN
from crbm.training import TrainConfig, train

rng = np.random.default_rng(3)
L = np.linalg.cholesky(np.array([[1.0, 0.7], [0.7, 1.0]]))

calm = 2.0 * (rng.standard_normal((4000, 2)) @ L.T)
cfg = TrainConfig(seed=11, epochs=80, lag=5, n_hidden=16)
report = train(EncodedSeries(calm, ARCH_GAUSSIAN), cfg)

# continuation: 600 calm rows, then a 15-row stress burst, then calm again
cont = 2.0 * (rng.standard_normal((900, 2)) @ L.T)
burst = slice(600, 615)
cont[burst] = 6.0 * rng.standard_normal((15, 2))  # wider and uncorrelated

fe = free_energy_series(EncodedSeries(cont, ARCH_GAUSSIAN), report.params)
flags = regime_flags(fe.total, window=120, threshold=4.0)

flagged = np.flatnonzero(flags)
print(f"scored {len(fe)} rows; {flags.sum()} flagged")
print(f"flagged row indices (series offset {report.params.lag}): "
      f"{(flagged + report.params.lag).tolist()}")

q_burst = fe.quadratic[600 - report.params.lag: 615 - report.params.lag]
q_rest = np.delete(fe.quadratic, np.arange(600, 615) - report.params.lag)
print(f"\nmean quadratic term inside burst {q_burst.mean():8.2f}")
print(f"mean quadratic term elsewhere    {q_rest.mean():8.2f}")
print("the quadratic share of the decomposition carries the spike; the")
print("structural term moves much less:")
s_burst = fe.structural[600 - report.params.lag: 615 - report.params.lag]
s_rest = np.delete(fe.structural, np.arange(600, 615) - report.params.lag)
print(f"mean structural inside burst {s_burst.mean():8.2f} vs elsewhere "
      f"{s_rest.mean():8.2f}")
