"""CSV ingestion, chronological splitting, and the two model encodings.

Raw multi-asset series enter as dated CSV rows. Two invertible encodings
feed the models: a per-asset binary quantization (16 bits by default) for
the Bernoulli architecture, and z-score standardization for the Gaussian
one. Both are fitted on the training split only, so out-of-sample values
may fall outside the fitted range; binary encoding clips them.
"""

import csv
import itertools
from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .model import ARCH_BERNOULLI, ARCH_GAUSSIAN, READ_AHEAD_BYTES


@dataclass
class RawSeries:
    """Dated observation matrix with one column per asset.

    Rows are strictly increasing in date and contain no missing cells;
    ``n_dropped`` counts input rows discarded during ingestion.
    """

    dates: list
    values: np.ndarray
    asset_names: list[str]
    n_dropped: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be a T x D matrix")
        if self.values.shape[1] < 1:
            raise ValueError("need at least one asset column")
        if len(self.dates) != self.values.shape[0]:
            raise ValueError("dates and values disagree on row count")
        if len(self.asset_names) != self.values.shape[1]:
            raise ValueError("asset_names and values disagree on column count")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values contain non-finite entries")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if not prev < cur:
                raise ValueError("dates must be strictly increasing")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]


@dataclass
class BinaryCodec:
    """Uniform linear quantizer: per-asset [min, max] split into 2^bits bins.

    The minimum encodes to all-zero bits and the maximum to all-one bits;
    bits are emitted most-significant-first.
    """

    minimum: np.ndarray
    maximum: np.ndarray
    bits_per_asset: int = 16

    def __post_init__(self):
        self.minimum = np.asarray(self.minimum, dtype=np.float64)
        self.maximum = np.asarray(self.maximum, dtype=np.float64)
        if self.minimum.shape != self.maximum.shape or self.minimum.ndim != 1:
            raise ValueError("minimum/maximum must be matching 1-D arrays")
        if not (1 <= int(self.bits_per_asset) <= 48):
            raise ValueError("bits_per_asset must be in [1, 48]")
        if np.any(self.minimum >= self.maximum):
            raise ValueError("each asset needs minimum < maximum")

    @property
    def n_assets(self) -> int:
        return self.minimum.shape[0]

    @property
    def n_bins(self) -> int:
        return 1 << int(self.bits_per_asset)


@dataclass
class ZScoreParams:
    """Per-asset mean and standard deviation fitted on the training split."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.mu.shape != self.sigma.shape or self.mu.ndim != 1:
            raise ValueError("mu/sigma must be matching 1-D arrays")
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be strictly positive per asset")

    @property
    def n_assets(self) -> int:
        return self.mu.shape[0]


@dataclass
class EncodedSeries:
    """Model-ready observation matrix plus the codec needed to invert it.

    ``arch`` is the architecture the rows feed: ``matrix`` is T x D' where
    D' = n_assets * bits of 0/1 entries for ARCH_BERNOULLI and D' = n_assets
    z-scores for ARCH_GAUSSIAN. ``dates`` is optional provenance
    carried along for diagnostics output. ``n_clipped`` counts the input
    cells that binary encoding clipped to the codec's fitted range.
    """

    matrix: np.ndarray
    arch: str
    codec: object = None
    dates: list | None = None
    n_clipped: int = 0

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if self.arch not in (ARCH_BERNOULLI, ARCH_GAUSSIAN):
            raise ValueError(f"unknown architecture {self.arch!r}")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matrix contains non-finite entries")
        if self.arch == ARCH_BERNOULLI and not np.all(np.isin(self.matrix, (0.0, 1.0))):
            raise ValueError("Bernoulli entries must be 0 or 1")
        if self.dates is not None and len(self.dates) != self.matrix.shape[0]:
            raise ValueError("dates and matrix disagree on row count")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_visible(self) -> int:
        return self.matrix.shape[1]


def _parse_block(lines, parse_label, label_idx: int, n_cols: int):
    """Parse lines of one label cell and numeric cells with one C call.

    Returns ``(labels, values)`` for the rows, with empty lines skipped.
    Raises ValueError when any row is ragged or has a label or cell that
    does not parse; the caller then reads the lines row by row.
    """
    labels = []

    def label(cell):
        labels.append(parse_label(cell))
        return 0.0

    block = np.loadtxt(lines, delimiter=",", comments=None, converters={label_idx: label},
                       ndmin=2)
    if block.shape[1] != n_cols or len(labels) != block.shape[0]:
        raise ValueError("ragged block")
    return labels, np.delete(block, label_idx, axis=1)


def _parse_rows(reader, parse_label, label_idx: int, n_cols: int, labels, values) -> int:
    """Append the label and cells of each csv row to ``labels`` and ``values``.

    A row with the wrong cell count or a label or cell that does not parse
    is dropped; returns how many were. Non-finite cells are kept.
    """
    n_dropped = 0
    for row in reader:
        if len(row) != n_cols:
            n_dropped += 1
            continue
        try:
            label = parse_label(row.pop(label_idx))
            values.extend([float(cell) for cell in row])
        except ValueError:
            n_dropped += 1
            continue
        labels.append(label)
    return n_dropped


def _read_rows(path, parse_label, label_kind: str, label_column: str | None = None):
    """Read the rows of a headered CSV of one label column and numeric cells.

    Returns ``(labels, values, asset_names, n_dropped)`` in file order, with
    ``values`` a (rows, assets) matrix. ``label_column`` names the label
    column (default: the first); ``parse_label`` turns its cell into the
    label. A row with the wrong cell count, a label or cell that does not
    parse, or a non-finite cell is dropped and counted; so is an empty line.

    The file is read in blocks of about READ_AHEAD_BYTES of lines, and each
    block is parsed with one ``np.loadtxt`` call. A block that call rejects,
    or whose text it would read differently from ``csv``, is read row by row
    with ``csv`` instead: a line longer than the csv field limit, a NUL
    (which ``csv`` refuses before Python 3.11), or one of the separators
    \\x1c-\\x1f (which ``loadtxt`` strips as whitespace and ``float`` does
    not). A quoted cell may span lines, so from the first block that holds
    a ``"`` the rest of the file is read row by row. What ``csv`` refuses,
    such as a cell over its field limit, is a ValueError naming the line.
    """
    # a lazy import: the extension adds about 0.1 MiB of RSS to commands
    # that read no CSV, such as generate
    from array import array

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
        n_cols = len(header)
        labels, values, n_dropped = [], array("d"), 0
        line = reader.line_num
        while lines := fh.readlines(READ_AHEAD_BYTES):
            text = "".join(lines)
            if '"' in text:
                lines = itertools.chain(lines, fh)
            # loadtxt warns on a block of empty lines only, which holds no row
            elif (text.strip("\r\n") and max(map(len, lines)) <= csv.field_size_limit()
                  and not any(c in text for c in "\x00\x1c\x1d\x1e\x1f")):
                try:
                    block_labels, block = _parse_block(lines, parse_label, label_idx, n_cols)
                except ValueError:
                    pass
                else:
                    labels += block_labels
                    values.frombytes(memoryview(block).cast("B"))
                    n_dropped += len(lines) - len(block_labels)
                    line += len(lines)
                    continue
            reader = csv.reader(lines)
            try:
                n_dropped += _parse_rows(reader, parse_label, label_idx, n_cols, labels, values)
            except csv.Error as exc:
                raise ValueError(f"{path}: line {line + reader.line_num}: {exc}") from None
            line += reader.line_num
    values = np.frombuffer(values).reshape(len(labels), n_cols - 1)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        n_dropped += int(np.count_nonzero(~finite))
        labels = list(itertools.compress(labels, finite))
        values = values[finite]
    if not labels:
        raise ValueError(f"{path}: no parseable rows")
    return labels, values, asset_names, n_dropped


def _iso_date(text: str) -> Date:
    return Date.fromisoformat(text.strip())


def ingest_csv(path, date_column: str | None = None) -> RawSeries:
    """Read a dated multi-asset CSV into a RawSeries.

    The header row is required; ``date_column`` names the date column
    (default: the first column). Dates must be ISO-8601. Any row with an
    unparseable date, a missing cell, or a non-finite value is dropped and
    counted in ``n_dropped``. Rows are sorted ascending by date.

    Raises FileNotFoundError for a missing file and ValueError when no
    parseable rows remain or two rows share a date.
    """
    dates, values, asset_names, n_dropped = _read_rows(path, _iso_date, "date", date_column)
    order = sorted(range(len(dates)), key=dates.__getitem__)
    dates = [dates[i] for i in order]
    for d1, d2 in zip(dates, dates[1:]):
        if d1 == d2:
            raise ValueError(f"{path}: duplicate date {d1.isoformat()}")
    return RawSeries(dates, values[order], asset_names, n_dropped=n_dropped)


def chrono_split(series: RawSeries, boundary: Date) -> tuple[RawSeries, RawSeries]:
    """Split into (dates <= boundary, dates > boundary) preserving order.

    Raises ValueError when either side would be empty.
    """
    n_left = sum(1 for d in series.dates if d <= boundary)
    if n_left == 0:
        raise ValueError(f"boundary {boundary} precedes the first date; training side empty")
    if n_left == series.n_rows:
        raise ValueError(f"boundary {boundary} is at or after the last date; test side empty")
    left = RawSeries(series.dates[:n_left], series.values[:n_left].copy(), list(series.asset_names))
    right = RawSeries(series.dates[n_left:], series.values[n_left:].copy(), list(series.asset_names))
    return left, right


def fit_binary_codec(train: RawSeries, bits: int = 16) -> BinaryCodec:
    """Fit per-asset min/max on the training split.

    Raises ValueError for a constant column (min equals max).
    """
    if train.n_rows < 2:
        raise ValueError("need at least 2 rows to fit a codec")
    lo = train.values.min(axis=0)
    hi = train.values.max(axis=0)
    flat = np.flatnonzero(lo == hi)
    if flat.size:
        names = ", ".join(train.asset_names[i] for i in flat)
        raise ValueError(f"constant column(s) cannot be binary-encoded: {names}")
    return BinaryCodec(lo, hi, bits_per_asset=bits)


def _bin_indices(values: np.ndarray, lo, hi, bits: int) -> np.ndarray:
    """Map values to bin indices in [0, 2^bits - 1]; out-of-range values clip."""
    top = float((1 << bits) - 1)
    unit = (np.clip(values, lo, hi) - lo) / (hi - lo)
    return np.floor(unit * top + 0.5).astype(np.int64)


def _bits_msb_first(indices: np.ndarray, bits: int) -> np.ndarray:
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    return (indices[..., None] >> shifts) & 1


def binarize(series: RawSeries, codec: BinaryCodec) -> EncodedSeries:
    """Encode a whole series: T x (D * bits) matrix, bits grouped per asset.

    Cells outside the codec's [minimum, maximum] clip to the nearest end
    and are counted in ``n_clipped``.
    """
    if series.n_assets != codec.n_assets:
        raise ValueError("series and codec disagree on asset count")
    idx = _bin_indices(series.values, codec.minimum, codec.maximum, codec.bits_per_asset)
    bits = _bits_msb_first(idx, codec.bits_per_asset)
    matrix = bits.reshape(series.n_rows, -1).astype(np.float64)
    n_clipped = int(np.count_nonzero((series.values < codec.minimum)
                                     | (series.values > codec.maximum)))
    return EncodedSeries(matrix, ARCH_BERNOULLI, codec=codec, dates=list(series.dates),
                         n_clipped=n_clipped)


def fit_zscore(train: RawSeries) -> ZScoreParams:
    """Fit per-asset mean and population standard deviation on the training split."""
    if train.n_rows < 2:
        raise ValueError("need at least 2 rows to fit z-score parameters")
    mu = train.values.mean(axis=0)
    sigma = train.values.std(axis=0)  # population std, ddof=0
    flat = np.flatnonzero(sigma == 0)
    if flat.size:
        names = ", ".join(train.asset_names[i] for i in flat)
        raise ValueError(f"constant column(s) have zero standard deviation: {names}")
    return ZScoreParams(mu, sigma)


def standardize(series: RawSeries, params: ZScoreParams) -> EncodedSeries:
    """Columnwise (x - mu) / sigma."""
    if series.n_assets != params.n_assets:
        raise ValueError("series and z-score params disagree on asset count")
    matrix = (series.values - params.mu) / params.sigma
    return EncodedSeries(matrix, ARCH_GAUSSIAN, codec=params, dates=list(series.dates))


def destandardize(encoded: EncodedSeries) -> np.ndarray:
    """Invert standardize: x = v * sigma + mu."""
    if encoded.arch != ARCH_GAUSSIAN:
        raise ValueError("destandardize requires a continuous (Gaussian) series")
    if not isinstance(encoded.codec, ZScoreParams):
        raise ValueError("encoded series carries no z-score parameters")
    return encoded.matrix * encoded.codec.sigma + encoded.codec.mu


def decode_series(encoded: EncodedSeries) -> np.ndarray:
    """Map an encoded matrix back to raw units (T x n_assets).

    Bernoulli rows group columns per asset MSB-first and decode to bin
    centers; Gaussian rows take the affine z-score inverse.
    """
    if encoded.arch == ARCH_GAUSSIAN:
        return destandardize(encoded)
    codec = encoded.codec
    if not isinstance(codec, BinaryCodec):
        raise ValueError("binary series carries no binary codec")
    nbits = codec.bits_per_asset
    if encoded.n_visible != codec.n_assets * nbits:
        raise ValueError(
            f"bit-group misalignment: {encoded.n_visible} columns is not "
            f"{codec.n_assets} assets x {nbits} bits")
    bits = encoded.matrix.reshape(encoded.n_rows, codec.n_assets, nbits)
    weights = (1 << np.arange(nbits - 1, -1, -1, dtype=np.int64)).astype(np.float64)
    idx = bits @ weights
    top = float((1 << nbits) - 1)
    return codec.minimum + idx / top * (codec.maximum - codec.minimum)


@dataclass
class TableData:
    """Order-preserving CSV payload for fidelity comparisons.

    Unlike ingest_csv the first column is kept as an opaque label (synthetic
    output uses step indices there), rows are not sorted, and no date parsing
    is attempted.
    """

    labels: list[str]
    values: np.ndarray
    asset_names: list[str]
    n_dropped: int = 0


def read_values_csv(path) -> TableData:
    """Read a CSV of labeled numeric rows, preserving file order."""
    return TableData(*_read_rows(path, str, "label"))
