"""Binary serialization of trained models.

One self-contained little-endian file carries everything generation and
scoring need: architecture, parameters, the encoding fitted on the
training split (bit codec or z-score), asset names, the training seed, the
final history window of the training data (the default generation seed),
and an echo of the training configuration. Writing is deterministic:
identical contents produce identical bytes.
"""

import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .data import BinaryCodec, MODE_BINARY, MODE_CONTINUOUS, ZScoreParams
from .model import ARCH_BERNOULLI, ARCH_GAUSSIAN, ModelParams

MAGIC = b"CRBM"
FORMAT_VERSION = 1

_ARCH_CODE = {ARCH_BERNOULLI: 0, ARCH_GAUSSIAN: 1}
_ARCH_NAME = {code: name for name, code in _ARCH_CODE.items()}
_CODEC_BINARY = 0
_CODEC_ZSCORE = 1


@dataclass
class ModelFile:
    """A trained model and the context needed to use it on raw values."""

    params: ModelParams
    codec: BinaryCodec | ZScoreParams
    asset_names: list
    seed: int
    seed_window: np.ndarray
    config_text: str = ""

    def __post_init__(self):
        self.seed_window = np.asarray(self.seed_window, dtype=np.float64).ravel()
        if self.seed_window.shape[0] != self.params.window_size:
            raise ValueError("seed window length does not match lag * n_visible")
        expected = (ARCH_BERNOULLI if isinstance(self.codec, BinaryCodec)
                    else ARCH_GAUSSIAN)
        if self.params.arch != expected:
            raise ValueError(f"{type(self.codec).__name__} cannot feed a "
                             f"{self.params.arch} model")
        n_assets = len(self.asset_names)
        per_asset = self.codec.bits_per_asset if isinstance(self.codec, BinaryCodec) else 1
        if self.codec.n_assets != n_assets:
            raise ValueError("codec and asset name counts differ")
        if self.params.n_visible != n_assets * per_asset:
            raise ValueError("model width does not match codec output width")

    @property
    def n_assets(self) -> int:
        return len(self.asset_names)

    @property
    def mode(self) -> str:
        return MODE_BINARY if self.params.arch == ARCH_BERNOULLI else MODE_CONTINUOUS


def _pack_array(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _pack_str(text: str, width: str) -> bytes:
    data = text.encode("utf-8")
    return struct.pack(f"<{width}", len(data)) + data


def save_model(mf: ModelFile, path) -> None:
    m = mf.params
    parts = [
        MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        struct.pack("<B", _ARCH_CODE[m.arch]),
        struct.pack("<IIII", mf.n_assets, m.n_visible, m.n_hidden, m.lag),
        struct.pack("<q", mf.seed),
    ]
    for name in mf.asset_names:
        parts.append(_pack_str(str(name), "H"))
    if isinstance(mf.codec, BinaryCodec):
        parts.append(struct.pack("<BI", _CODEC_BINARY, mf.codec.bits_per_asset))
        parts.append(_pack_array(mf.codec.minimum))
        parts.append(_pack_array(mf.codec.maximum))
    else:
        parts.append(struct.pack("<B", _CODEC_ZSCORE))
        parts.append(_pack_array(mf.codec.mu))
        parts.append(_pack_array(mf.codec.sigma))
    for arr in (m.a, m.b, m.sigma, m.W, m.A, m.B, mf.seed_window):
        parts.append(_pack_array(arr))
    parts.append(_pack_str(mf.config_text, "I"))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _read_exact(fh, n: int) -> bytes:
    """Read n bytes, refusing sizes beyond the end of the file before reading.

    Sizes come from the file itself, so this keeps a forged header from
    asking for an allocation the file cannot back.
    """
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > remaining:
        raise ValueError(f"truncated model file: {n} bytes declared, {remaining} left")
    data = fh.read(n)
    if len(data) != n:
        raise ValueError("truncated model file")
    return data


def _read_struct(fh, fmt: str):
    values = struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))
    return values[0] if len(values) == 1 else values


def _read_array(fh, shape) -> np.ndarray:
    count = math.prod(shape) if isinstance(shape, tuple) else shape
    arr = np.frombuffer(_read_exact(fh, 8 * count), dtype="<f8")
    return arr.reshape(shape).astype(np.float64)


def _read_str(fh, width: str) -> str:
    length = _read_struct(fh, f"<{width}")
    return _read_exact(fh, length).decode("utf-8")


def load_model(path) -> ModelFile:
    with open(path, "rb") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            raise ValueError(f"{path}: not a regular file")
        if _read_exact(fh, 4) != MAGIC:
            raise ValueError(f"{path}: not a model file (bad magic)")
        version = _read_struct(fh, "<I")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported model format version {version}")
        arch_code = _read_struct(fh, "<B")
        if arch_code not in _ARCH_NAME:
            raise ValueError(f"{path}: unknown architecture code {arch_code}")
        arch = _ARCH_NAME[arch_code]
        n_assets, n_visible, n_hidden, lag = _read_struct(fh, "<IIII")
        seed = _read_struct(fh, "<q")
        asset_names = [_read_str(fh, "H") for _ in range(n_assets)]
        codec_code = _read_struct(fh, "<B")
        if codec_code == _CODEC_BINARY:
            bits = _read_struct(fh, "<I")
            codec = BinaryCodec(minimum=_read_array(fh, n_assets),
                                maximum=_read_array(fh, n_assets),
                                bits_per_asset=bits)
        elif codec_code == _CODEC_ZSCORE:
            codec = ZScoreParams(mu=_read_array(fh, n_assets),
                                 sigma=_read_array(fh, n_assets))
        else:
            raise ValueError(f"{path}: unknown codec code {codec_code}")
        a = _read_array(fh, n_visible)
        b = _read_array(fh, n_hidden)
        sigma = _read_array(fh, n_visible)
        W = _read_array(fh, (n_visible, n_hidden))
        A = _read_array(fh, (lag * n_visible, n_visible))
        B = _read_array(fh, (lag * n_visible, n_hidden))
        seed_window = _read_array(fh, lag * n_visible)
        config_text = _read_str(fh, "I")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after model payload")
    params = ModelParams(W=W, a=a, b=b, sigma=sigma, arch=arch, A=A, B=B, lag=lag)
    return ModelFile(params=params, codec=codec, asset_names=asset_names,
                     seed=seed, seed_window=seed_window, config_text=config_text)
