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

from .data import BinaryCodec, ZScoreParams
from .model import ARCH_BERNOULLI, ARCH_GAUSSIAN, READ_AHEAD_BYTES, ModelParams

MAGIC = b"CRBM"
FORMAT_VERSION = 1

_ARCH_CODE = {ARCH_BERNOULLI: 0, ARCH_GAUSSIAN: 1}
_ARCH_NAME = {code: name for name, code in _ARCH_CODE.items()}
_CODEC_BINARY = 0
_CODEC_ZSCORE = 1


@dataclass
class ModelFile:
    """A trained model and what it needs to be used on raw values."""

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
        if self.params.arch != self.codec.arch:
            raise ValueError(f"{type(self.codec).__name__} cannot feed a "
                             f"{self.params.arch} model")
        n_assets = len(self.asset_names)
        per_asset = self.codec.bits_per_asset if self.codec.arch == ARCH_BERNOULLI else 1
        if self.codec.n_assets != n_assets:
            raise ValueError("codec and asset name counts differ")
        if self.params.n_visible != n_assets * per_asset:
            raise ValueError("model width does not match codec output width")
        check_storable(self.seed, self.asset_names)

    @property
    def n_assets(self) -> int:
        return len(self.asset_names)


def check_storable(seed: int, asset_names) -> None:
    """Refuse a seed or an asset name that the model file's fields cannot hold."""
    if not -2**63 <= seed < 2**63:
        raise ValueError(f"seed {seed} does not fit the model file's signed 64-bit "
                         f"field ({-2**63} to {2**63 - 1})")
    for name in asset_names:
        size = len(str(name).encode("utf-8"))
        if size > 0xFFFF:
            raise ValueError(f"asset name {str(name)[:20]!r}... has {size} UTF-8 bytes; "
                             "a model file holds at most 65535")


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
    if mf.codec.arch == ARCH_BERNOULLI:
        parts.append(struct.pack("<BI", _CODEC_BINARY, mf.codec.bits_per_asset))
        parts.append(_pack_array(mf.codec.minimum))
        parts.append(_pack_array(mf.codec.maximum))
    else:
        parts.append(struct.pack("<B", _CODEC_ZSCORE))
        parts.append(_pack_array(mf.codec.mu))
        parts.append(_pack_array(mf.codec.sigma))
    # reserved slot: ones, where v1 files kept the Gaussian scales
    for arr in (m.a, m.b, np.ones(m.n_visible), m.W, m.A, m.B, mf.seed_window):
        parts.append(_pack_array(arr))
    parts.append(_pack_str(mf.config_text, "I"))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    """A regular model file and its bytes left, counted from one fstat: a
    read past the end, whose size a forged header may set, is refused before
    anything is read or allocated."""

    def __init__(self, fh):
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise ValueError("not a regular file")
        self.fh, self.left = fh, st.st_size

    def refuse_beyond_end(self, *sizes) -> None:
        """Refuse consecutive reads of ``sizes`` bytes that would pass the end."""
        left = self.left
        for n in sizes:
            if n > left:
                raise ValueError(f"truncated model file: {n} bytes declared, {left} left")
            left -= n

    def exact(self, n: int) -> bytes:
        self.refuse_beyond_end(n)
        data = self.fh.read(n)
        if len(data) != n:
            raise ValueError("truncated model file")
        self.left -= n
        return data

    def unpack(self, fmt: str):
        values = struct.unpack(fmt, self.exact(struct.calcsize(fmt)))
        return values[0] if len(values) == 1 else values

    def array(self, *shape) -> np.ndarray:
        """A read-only view of the next float64 values in the file."""
        return np.frombuffer(self.exact(8 * math.prod(shape)), dtype="<f8").reshape(shape)

    def into(self, dest: np.ndarray) -> None:
        """Fill the rows of the 2-D float64 view ``dest`` with the next values,
        READ_AHEAD_BYTES of rows at a time: no copy of the whole array exists."""
        step = max(1, READ_AHEAD_BYTES // (8 * dest.shape[1]))
        for start in range(0, dest.shape[0], step):
            block = dest[start:start + step]
            block[...] = self.array(*block.shape)

    def text(self, width: str) -> str:
        return self.exact(self.unpack(f"<{width}")).decode("utf-8")


def load_model(path) -> ModelFile:
    """Read the model file at ``path``. A ValueError, for a file that is not a
    model file or is damaged, is one line that starts with ``path``."""
    try:
        with open(path, "rb") as fh:
            return _read_model(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_model(fh) -> ModelFile:
    r = _Reader(fh)
    if r.exact(4) != MAGIC:
        raise ValueError("not a model file (bad magic)")
    version = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    arch_code = r.unpack("<B")
    if arch_code not in _ARCH_NAME:
        raise ValueError(f"unknown architecture code {arch_code}")
    arch = _ARCH_NAME[arch_code]
    n_assets, n_visible, n_hidden, lag = r.unpack("<IIII")
    seed = r.unpack("<q")
    asset_names = [r.text("H") for _ in range(n_assets)]
    codec_code = r.unpack("<B")
    if codec_code == _CODEC_BINARY:
        bits = r.unpack("<I")
        codec = BinaryCodec(minimum=r.array(n_assets).copy(),
                            maximum=r.array(n_assets).copy(), bits_per_asset=bits)
    elif codec_code == _CODEC_ZSCORE:
        codec = ZScoreParams(mu=r.array(n_assets).copy(), sigma=r.array(n_assets).copy())
    else:
        raise ValueError(f"unknown codec code {codec_code}")
    nv, nh, window = n_visible, n_hidden, lag * n_visible
    # a, b, the reserved slot, W, A and B, in file order
    r.refuse_beyond_end(*(8 * n for n in (nv, nh, nv, nv * nh, window * nv, window * nh)))
    # zero-stride zeros give the model its shapes, and the file's values
    # then go straight into its buffer: each parameter is held once
    W, a, b, A, B = (np.broadcast_to(0.0, shape) for shape in
                     ((nv, nh), (nv,), (nh,), (window, nv), (window, nh)))
    params = ModelParams(W=W, a=a, b=b, arch=arch, A=A, B=B, lag=lag)
    r.into(params.C[:1])  # a | b
    if np.any(r.array(nv) != 1.0):
        raise ValueError("reserved sigma slot must hold ones")
    for dest in (params.W, params.A, params.B):
        r.into(dest)
    name = params.non_finite()
    if name is not None:
        raise ValueError(f"non-finite entries in {name}")
    seed_window = r.array(window).copy()
    config_text = r.text("I")
    if fh.read(1):
        raise ValueError("trailing bytes after model payload")
    return ModelFile(params=params, codec=codec, asset_names=asset_names,
                     seed=seed, seed_window=seed_window, config_text=config_text)
