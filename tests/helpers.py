"""Independent oracles for the test suite.

Everything here recomputes model quantities with scalar loops and explicit
enumeration, deliberately avoiding the library's vectorized or factorized
forms, so agreement between the two is evidence and not tautology.
"""

import csv
import itertools
import math
import struct
from datetime import date, timedelta

import numpy as np

from crbm.model import ARCH_BERNOULLI, ARCH_GAUSSIAN, ModelParams
from crbm.model_io import FORMAT_VERSION, MAGIC, save_model


def naive_energy(v, h, W, a, b, sigma, arch):
    """Scalar-loop joint energy."""
    nv, nh = len(a), len(b)
    inter = 0.0
    for i in range(nv):
        scaled = v[i] if arch == ARCH_BERNOULLI else v[i] / sigma[i]
        for j in range(nh):
            inter += scaled * W[i][j] * h[j]
    hidden = sum(b[j] * h[j] for j in range(nh))
    if arch == ARCH_BERNOULLI:
        visible = -sum(a[i] * v[i] for i in range(nv))
    else:
        visible = sum((v[i] - a[i]) ** 2 / (2.0 * sigma[i] ** 2) for i in range(nv))
    return visible - hidden - inter


def naive_free_energy(v, W, a, b, sigma, arch):
    """-log sum over all hidden states of exp(-E), by brute enumeration."""
    nh = len(b)
    energies = [naive_energy(v, h, W, a, b, sigma, arch)
                for h in itertools.product((0.0, 1.0), repeat=nh)]
    m = min(energies)
    return m - math.log(sum(math.exp(m - e) for e in energies))


def naive_hidden_probs(v, W, b, sigma, arch):
    nv, nh = len(v), len(b)
    probs = []
    for j in range(nh):
        pre = b[j]
        for i in range(nv):
            scaled = v[i] if arch == ARCH_BERNOULLI else v[i] / sigma[i]
            pre += scaled * W[i][j]
        probs.append(1.0 / (1.0 + math.exp(-pre)))
    return probs


def naive_marginals(W, a, b):
    """Exact Bernoulli P(v) for every visible state, indexed LSB-first."""
    nv = len(a)
    sigma = [1.0] * nv
    states = [list(bits) for bits in itertools.product((0.0, 1.0), repeat=nv)]
    # column k carries weight 2^k regardless of enumeration order
    weights = []
    for bits in states:
        idx = sum(int(bit) << k for k, bit in enumerate(bits))
        weights.append((idx, math.exp(-naive_free_energy(
            bits, W, a, b, sigma, ARCH_BERNOULLI))))
    total = sum(w for _, w in weights)
    out = [0.0] * (1 << nv)
    for idx, w in weights:
        out[idx] = w / total
    return np.array(out)


def naive_gaussian_hidden_marginals(W, a, b, sigma):
    """Exact Gaussian-Bernoulli P(h) for every hidden state, indexed LSB-first.

    Integrating v out of exp(-E(v, h)) leaves, per visible unit, a Gaussian
    integral, so P(h) is proportional to
    exp(b.h + sum_i a_i (W h)_i / sigma_i + |W h|^2 / 2).
    """
    nv, nh = len(a), len(b)
    weights = [0.0] * (1 << nh)
    for bits in itertools.product((0, 1), repeat=nh):
        log_w = sum(b[j] * bits[j] for j in range(nh))
        for i in range(nv):
            wh = sum(W[i][j] * bits[j] for j in range(nh))
            log_w += a[i] * wh / sigma[i] + 0.5 * wh * wh
        weights[sum(bit << k for k, bit in enumerate(bits))] = math.exp(log_w)
    total = sum(weights)
    return np.array([w / total for w in weights])


def naive_window(matrix, t, lag):
    """Flat history for row t: rows t-lag .. t-1, oldest first."""
    flat = []
    for s in range(t - lag, t):
        flat.extend(float(x) for x in matrix[s])
    return np.array(flat)


def naive_quantize(value, lo, hi, bits):
    """Bin index of a clipped value under the uniform codec."""
    top = (1 << bits) - 1
    unit = (value - lo) / (hi - lo)
    idx = math.floor(unit * top + 0.5)
    return min(max(idx, 0), top)


def naive_bits(index, bits):
    """Most-significant-first bit list of an index."""
    return [(index >> (bits - 1 - k)) & 1 for k in range(bits)]


def naive_unquantize(index, lo, hi, bits):
    return lo + index / ((1 << bits) - 1) * (hi - lo)


def random_bernoulli_model(rng, nv, nh, scale=0.8, lag=0):
    return ModelParams(W=rng.standard_normal((nv, nh)) * scale,
                       a=rng.uniform(-0.5, 0.5, nv),
                       b=rng.uniform(-0.5, 0.5, nh),
                       arch=ARCH_BERNOULLI, lag=lag)


def random_gaussian_model(rng, nv, nh, scale=0.8, lag=0):
    return ModelParams(W=rng.standard_normal((nv, nh)) * scale,
                       a=rng.uniform(-0.5, 0.5, nv),
                       b=rng.uniform(-0.5, 0.5, nh),
                       arch=ARCH_GAUSSIAN, lag=lag)


def runaway_gaussian_model(nv=2, nh=3):
    """A lag-1 Gaussian model with A = 3 I, so v_t = 3 v_(t-1) + noise grows
    without bound and overflows after some 650 rows."""
    m = ModelParams(W=np.zeros((nv, nh)), a=np.zeros(nv), b=np.zeros(nh),
                    arch=ARCH_GAUSSIAN, lag=1)
    m.A = 3.0 * np.eye(nv)
    return m


def write_dated_csv(path, values, start=date(2020, 1, 1), names=None):
    """Write a (T, D) matrix as a dated CSV with consecutive days."""
    values = np.asarray(values, dtype=np.float64)
    if names is None:
        names = [f"A{j}" for j in range(values.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + list(names))
        for t in range(values.shape[0]):
            writer.writerow([(start + timedelta(days=t)).isoformat()]
                            + [repr(float(x)) for x in values[t]])


def reserved_slot_offset(mf):
    """Byte offset of the reserved n_visible doubles that follow a and b in a
    saved model file, from the documented layout."""
    m = mf.params
    offset = len(MAGIC) + 4 + 1 + 16 + 8
    offset += sum(2 + len(name.encode("utf-8")) for name in mf.asset_names)
    offset += 1 + (4 if m.arch == ARCH_BERNOULLI else 0) + 16 * len(mf.asset_names)
    return offset + 8 * (m.n_visible + m.n_hidden)


def write_model_with_slot(path, mf, value):
    """Save ``mf``, then overwrite the first reserved double with ``value``."""
    save_model(mf, path)
    blob = bytearray(path.read_bytes())
    offset = reserved_slot_offset(mf)
    blob[offset:offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(blob))


def write_forged_model(path, n_hidden=2**30):
    """A 45-byte model file whose header declares ``n_hidden`` hidden units.

    No assets, one visible unit, lag 0 and a z-score codec: the header and
    the visible bias are well formed, then the hidden bias would need
    8 * n_hidden bytes where three remain.
    """
    header = (MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<B", 0)
              + struct.pack("<IIII", 0, 1, n_hidden, 0) + struct.pack("<q", 0))
    payload = header + struct.pack("<B", 1) + struct.pack("<d", 0.0) + b"\0" * 3
    assert len(payload) == 45
    with open(path, "wb") as fh:
        fh.write(payload)
