"""Independent oracles for the test suite.

Everything here recomputes model quantities with scalar loops and explicit
enumeration, deliberately avoiding the library's vectorized or factorized
forms, so agreement between the two is evidence and not tautology.
"""

import contextlib
import csv
import itertools
import math
import os
import struct
from datetime import date, timedelta

import numpy as np

from crbm.data import BinaryCodec, _bin_indices, _bits_msb_first
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


def naive_safe_correlation(matrix):
    """np.corrcoef's Pearson matrix with NaN rows and columns for constant
    assets and a unit diagonal."""
    degenerate = np.ptp(matrix, axis=0) == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(matrix, rowvar=False)
    corr = np.atleast_2d(corr)
    corr[degenerate, :] = np.nan
    corr[:, degenerate] = np.nan
    np.fill_diagonal(corr, 1.0)
    return corr


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


def encode_binary(value: float, asset: int, codec: BinaryCodec) -> np.ndarray:
    """Encode one value for one asset as its MSB-first bit vector, through
    the quantizer that ``binarize`` uses."""
    idx = _bin_indices(np.float64(value), codec.minimum[asset], codec.maximum[asset],
                       codec.bits_per_asset)
    return _bits_msb_first(idx, codec.bits_per_asset).astype(np.uint8)


def decode_binary(bits: np.ndarray, asset: int, codec: BinaryCodec) -> float:
    """Invert encode_binary: return the center of the encoded bin."""
    bits = np.asarray(bits)
    nbits = codec.bits_per_asset
    if bits.shape != (nbits,):
        raise ValueError(f"expected {nbits} bits, got shape {bits.shape}")
    weights = 1 << np.arange(nbits - 1, -1, -1, dtype=np.int64)
    idx = int(np.dot(bits.astype(np.int64), weights))
    lo = codec.minimum[asset]
    hi = codec.maximum[asset]
    return float(lo + idx / ((1 << nbits) - 1) * (hi - lo))


def naive_read_rows(path, parse_label, label_kind: str, label_column: str | None = None):
    """Read a headered CSV one ``csv`` row at a time under the drop rule.

    Returns ``(labels, values, asset_names, n_dropped)`` like
    ``crbm.data._read_rows``: a row with the wrong cell count, a label or
    cell that does not parse, or a non-finite cell is dropped and counted.
    A ``csv`` error is a ValueError naming the line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file, header row required") from None
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        if len(header) < 2:
            raise ValueError(f"{path}: need a {label_kind} column plus at least one asset column")
        if label_column is None:
            label_idx = 0
        elif label_column in header:
            label_idx = header.index(label_column)
        else:
            raise ValueError(f"{path}: no column named {label_column!r}")
        asset_names = header[:label_idx] + header[label_idx + 1:]
        labels = []
        values = []
        n_dropped = 0
        try:
            for row in reader:
                if len(row) != len(header):
                    n_dropped += 1
                    continue
                try:
                    label = parse_label(row.pop(label_idx))
                    vals = [float(cell) for cell in row]
                except ValueError:
                    n_dropped += 1
                    continue
                if not all(math.isfinite(v) for v in vals):
                    n_dropped += 1
                    continue
                labels.append(label)
                values.extend(vals)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not labels:
        raise ValueError(f"{path}: no parseable rows")
    return labels, np.array(values).reshape(len(labels), -1), asset_names, n_dropped


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


@contextlib.contextmanager
def piped(text):
    """A path that reads ``text`` through an os.pipe, as a shell's ``<(cmd)``
    does; ``text`` must fit the pipe's buffer (64 KiB on Linux)."""
    read_end, write_end = os.pipe()
    try:
        with os.fdopen(write_end, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)


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


def write_model_without_hidden(path):
    """A complete Gaussian model file whose header declares no hidden units.

    One asset ``x`` with a z-score codec, one visible unit and lag 0: every
    array holds the count the header declares, and b, W, A, B and the seed
    window are empty.
    """
    header = (MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<B", 1)
              + struct.pack("<IIII", 1, 1, 0, 0) + struct.pack("<q", 0))
    names_and_codec = struct.pack("<H", 1) + b"x" + struct.pack("<Bdd", 1, 0.0, 1.0)
    # the visible bias, the reserved slot's one, and an empty config text
    payload = header + names_and_codec + struct.pack("<ddI", 0.0, 1.0, 0)
    with open(path, "wb") as fh:
        fh.write(payload)
