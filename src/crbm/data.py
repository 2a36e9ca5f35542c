"""CSV ingestion, chronological splitting, and the two model encodings.

Raw multi-asset series enter as dated CSV rows. Two invertible encodings
feed the models: a per-asset binary quantization (16 bits by default) for
the Bernoulli architecture, and z-score standardization for the Gaussian
one. Both are fitted on the training split only, so out-of-sample values
may fall outside the fitted range; binary encoding clips them.
"""

import bisect
import contextlib
import csv
import itertools
import operator
import os
import re
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
        if not all(map(operator.lt, self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]


MAX_BITS = 48  # the most bits per asset a BinaryCodec takes


@dataclass
class BinaryCodec:
    """Uniform linear quantizer: per-asset [min, max] split into 2^bits bins.

    The minimum encodes to all-zero bits and the maximum to all-one bits;
    bits are emitted most-significant-first.
    """

    arch = ARCH_BERNOULLI  # the architecture it feeds: a class attribute, not a field
    minimum: np.ndarray
    maximum: np.ndarray
    bits_per_asset: int = 16

    def __post_init__(self):
        self.minimum = np.asarray(self.minimum, dtype=np.float64)
        self.maximum = np.asarray(self.maximum, dtype=np.float64)
        if self.minimum.shape != self.maximum.shape or self.minimum.ndim != 1:
            raise ValueError("minimum/maximum must be matching 1-D arrays")
        if not (1 <= int(self.bits_per_asset) <= MAX_BITS):
            raise ValueError(f"bits_per_asset must be in [1, {MAX_BITS}]")
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

    arch = ARCH_GAUSSIAN
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
    z-scores for ARCH_GAUSSIAN. ``dates`` (optional) is the date list of the
    encoded series, shared, not copied. ``n_clipped`` counts the input
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


def _parse_block(lines, text: str, parse_label, label_idx: int, n_cols: int):
    """Parse lines of one label cell and numeric cells with one C call.

    Returns ``(labels, values)`` for the rows, with empty lines skipped;
    ``labels`` is None when ``parse_label`` is. Raises ValueError when any
    row is ragged or has a label or cell that does not parse; the caller
    then reads the lines row by row.
    """
    if parse_label is None:
        # loadtxt skips the first column and ignores cells past the last one
        # but rejects a row that lacks one, so a row is ragged only if the
        # lines hold more commas than rows x (n_cols - 1)
        block = np.loadtxt(lines, delimiter=",", comments=None, usecols=range(1, n_cols),
                           ndmin=2)
        if text.count(",") != (n_cols - 1) * block.shape[0]:
            raise ValueError("ragged block")
        return None, block
    labels = []

    def label(cell):
        labels.append(parse_label(cell))
        return 0.0

    block = np.loadtxt(lines, delimiter=",", comments=None, converters={label_idx: label},
                       ndmin=2)
    if block.shape[1] != n_cols or len(labels) != block.shape[0]:
        raise ValueError("ragged block")
    return labels, np.delete(block, label_idx, axis=1)


def _parse_rows(reader, n_lines: int, parse_label, label_idx: int, n_cols: int, labels,
                values) -> int:
    """Append the label and cells of each csv row to ``labels`` and ``values``,
    up to the row during which the reader reaches line ``n_lines``.

    An empty line is skipped. A row with the wrong cell count or a label or
    cell that does not parse is dropped; returns how many were. Non-finite
    cells are kept. With no ``parse_label`` the label is not read and
    ``labels`` is not touched.
    """
    n_dropped = 0
    while reader.line_num < n_lines and (row := next(reader, None)) is not None:
        if not row:
            continue
        if len(row) != n_cols:
            n_dropped += 1
            continue
        try:
            label_cell = row.pop(label_idx)
            label = None if parse_label is None else parse_label(label_cell)
            values.extend([float(cell) for cell in row])
        except ValueError:
            n_dropped += 1
            continue
        if parse_label is not None:
            labels.append(label)
    return n_dropped


def _read_blocks(path, fh, parse_label, label_kind: str, label_column: str | None = None):
    """Read a headered CSV of one label column and numeric cells a block at a time.

    Reads the text handle ``fh`` from where it stands; ``path`` names the
    input in errors. Yields the asset names first, then ``(labels, values,
    n_dropped)`` for each block of rows in file order, with ``values`` a
    (rows, assets) matrix that may have no rows. ``label_column`` names the
    label column (default: the first); ``parse_label`` turns its cell into
    the label. With ``parse_label`` None the label is the first column, and
    it is neither parsed nor kept: ``labels`` is None. A row with the wrong
    cell count, a label or cell that does not parse, or a non-finite cell
    is dropped and counted; an empty line is skipped, and not counted.
    Raises ValueError when the file holds no parseable row.

    A block is about READ_AHEAD_BYTES / 4 of lines (larger ones kept more
    RSS and were no faster), parsed with one ``np.loadtxt`` call. A block
    that call rejects, or whose text it would read differently from
    ``csv``, is read row by row with ``csv`` instead: a line longer than
    the csv field limit, a NUL (which ``csv`` refuses before Python 3.11),
    or one of the separators \\x1c-\\x1f (which ``loadtxt`` strips as
    whitespace and ``float`` does not). A quoted cell may span lines, so a
    block that holds a ``"`` is read row by row, on past its last line to
    the end of the row it is in. What ``csv`` refuses, such as a cell over
    its field limit, is a ValueError naming the line.
    """
    # a lazy import: the extension adds about 0.1 MiB of RSS to commands
    # that read no CSV, such as generate
    from array import array

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
    yield header[:label_idx] + header[label_idx + 1:]
    n_cols = len(header)
    line, n_rows = reader.line_num, 0
    while lines := fh.readlines(max(READ_AHEAD_BYTES // 4, 1)):
        text, n_lines = "".join(lines), len(lines)
        labels, values = None, None
        if '"' in text:
            lines = itertools.chain(lines, fh)
        # loadtxt warns on a block of empty lines only, which holds no row
        elif (text.strip("\r\n") and max(map(len, lines)) <= csv.field_size_limit()
              and not any(c in text for c in "\x00\x1c\x1d\x1e\x1f")):
            try:
                labels, values = _parse_block(lines, text, parse_label, label_idx, n_cols)
            except ValueError:
                pass
            else:
                # loadtxt skips the empty lines and drops no other
                n_dropped = 0
                line += len(lines)
        if values is None:
            reader = csv.reader(lines)
            labels = None if parse_label is None else []
            cells = array("d")
            try:
                n_dropped = _parse_rows(reader, n_lines, parse_label, label_idx, n_cols, labels,
                                        cells)
            except csv.Error as exc:
                raise ValueError(f"{path}: line {line + reader.line_num}: {exc}") from None
            line += reader.line_num
            values = np.frombuffer(cells).reshape(-1, n_cols - 1)
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            n_dropped += int(np.count_nonzero(~finite))
            if labels is not None:
                labels = list(itertools.compress(labels, finite))
            values = values[finite]
        n_rows += values.shape[0]
        yield labels, values, n_dropped
    if not n_rows:
        raise ValueError(f"{path}: no parseable rows")


def _count_lines(fh) -> int | None:
    """The lines of the text handle ``fh``, counted through its binary buffer
    as ``csv`` ends them, with ``fh`` rewound; None if it cannot seek."""
    if not fh.seekable():
        return None
    n_lines = 1 + sum(chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
                      for chunk in iter(lambda: fh.buffer.read(READ_AHEAD_BYTES), b""))
    fh.seek(0)
    return n_lines


def _read_rows(path, fh, parse_label, label_kind: str, label_column: str | None = None):
    """The whole of ``_read_blocks``: ``(labels, values, asset_names, n_dropped)``.

    The values go into one array with a row for each line of the file,
    counted before the read, so no value is copied or held twice; growing a
    buffer block by block copied it each time the allocator could not extend
    it in place, which raised the peak RSS by up to the size of the values.
    A kept row holds a comma and a character for each value column, so a
    file of n bytes has at most n // (2 * columns) + 1 of them, however many
    empty lines it holds, and the array has no more rows than that. Input
    that cannot be counted ahead, such as a pipe, or a file that grows while
    it is read, grows the array instead. ``labels`` is None with no
    ``parse_label``.
    """
    n_lines = _count_lines(fh)
    blocks = _read_blocks(path, fh, parse_label, label_kind, label_column)
    asset_names = next(blocks)
    if n_lines is not None:
        n_lines = min(n_lines, os.fstat(fh.fileno()).st_size // (2 * len(asset_names)) + 1)
    values = np.empty((n_lines or 0, len(asset_names)))
    labels = None if parse_label is None else []
    n_rows = n_dropped = 0
    for block_labels, block, block_dropped in blocks:
        end = n_rows + block.shape[0]
        if end > values.shape[0]:
            grown = np.empty((max(end, 2 * values.shape[0]), values.shape[1]))
            grown[:n_rows] = values[:n_rows]
            values = grown
        if labels is not None:
            labels += block_labels
        values[n_rows:end] = block
        n_rows = end
        n_dropped += block_dropped
    return labels, values[:n_rows], asset_names, n_dropped


@contextlib.contextmanager
def _open_text(path):
    """The file at ``path`` as text, a leading byte-order mark skipped; a
    byte that is not UTF-8 is a ValueError naming the path."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _iso_date(text: str) -> Date:
    """The date of an ASCII ``YYYY-MM-DD`` string, surrounding whitespace
    ignored; the same on every Python (3.11 took 20200105 and 2020-W01-1)."""
    text = text.strip()
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"{text!r} is not a YYYY-MM-DD date")
    return Date.fromisoformat(text)


def ingest_csv(path, date_column: str | None = None) -> RawSeries:
    """Read a dated multi-asset CSV into a RawSeries.

    The header row is required; ``date_column`` names the date column
    (default: the first column). Dates must be ``YYYY-MM-DD``. Any row with an
    unparseable date, a missing cell, or a non-finite value is dropped and
    counted in ``n_dropped``. Rows are sorted ascending by date; when the
    file's dates already ascend, ``values`` is the parsed matrix itself, not
    a reordered copy.

    Raises FileNotFoundError for a missing file and ValueError when no
    parseable rows remain or two rows share a date.
    """
    with _open_text(path) as fh:
        return _ingest(path, fh, date_column)


def _ingest(path, fh, date_column: str | None) -> RawSeries:
    """ingest_csv of the text handle ``fh``; ``path`` names it in errors."""
    dates, values, asset_names, n_dropped = _read_rows(path, fh, _iso_date, "date", date_column)
    if not all(map(operator.lt, dates, dates[1:])):
        order = sorted(range(len(dates)), key=dates.__getitem__)
        dates = [dates[i] for i in order]
        for d1, d2 in zip(dates, dates[1:]):
            if d1 == d2:
                raise ValueError(f"{path}: duplicate date {d1.isoformat()}")
        values = values[order]
    return RawSeries(dates, values, asset_names, n_dropped=n_dropped)


class DatesNotAscending(Exception):
    """ingest_blocks met a date that does not strictly ascend."""


def ingest_blocks(path, date_column: str | None = None):
    """Read a dated multi-asset CSV a block at a time, in file order.

    Yields the asset names, then ``(dates, values, n_dropped)`` for each
    block, read and dropped by ingest_csv's rules; a block may have no rows
    and ``n_dropped`` counts the rows it dropped. Raises
    DatesNotAscending at the first date that does not strictly ascend,
    within a block or across blocks; ingest_csv then reads and sorts the
    file. Input that cannot seek, such as a pipe, cannot be read again, so
    it is read whole and sorted by ingest_csv's rules and comes as one block.
    """
    with _open_text(path) as fh:
        if not fh.seekable():
            series = _ingest(path, fh, date_column)
            yield series.asset_names
            yield series.dates, series.values, series.n_dropped
            return
        blocks = _read_blocks(path, fh, _iso_date, "date", date_column)
        yield next(blocks)
        last = None
        for dates, values, n_dropped in blocks:
            if dates:
                if ((last is not None and dates[0] <= last)
                        or not all(map(operator.lt, dates, dates[1:]))):
                    raise DatesNotAscending(path)
                last = dates[-1]
            yield dates, values, n_dropped


def chrono_split(series: RawSeries, boundary: Date) -> tuple[RawSeries, RawSeries]:
    """Split into (dates <= boundary, dates > boundary): views of the values.

    Both share the asset names. Raises ValueError when either side is empty.
    """
    n_left = bisect.bisect_right(series.dates, boundary)
    if n_left == 0:
        raise ValueError(f"boundary {boundary} precedes the first date; training side empty")
    if n_left == series.n_rows:
        raise ValueError(f"boundary {boundary} is at or after the last date; test side empty")
    left = RawSeries(series.dates[:n_left], series.values[:n_left], series.asset_names)
    right = RawSeries(series.dates[n_left:], series.values[n_left:], series.asset_names)
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


def _bits_msb_first(indices: np.ndarray, bits: int, out=None) -> np.ndarray:
    """The bits of each index along a new last axis, most significant first;
    into ``out`` when given, cast to its dtype."""
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    return np.bitwise_and(np.right_shift(indices[..., None], shifts), 1, out=out,
                          casting="unsafe")


def binarize(series: RawSeries, codec: BinaryCodec) -> EncodedSeries:
    """Encode a whole series: T x (D * bits) matrix, bits grouped per asset.

    Cells outside the codec's [minimum, maximum] clip to the nearest end
    and are counted in ``n_clipped``.
    """
    if series.n_assets != codec.n_assets:
        raise ValueError("series and codec disagree on asset count")
    nbits = codec.bits_per_asset
    idx = _bin_indices(series.values, codec.minimum, codec.maximum, nbits)
    matrix = np.empty((series.n_rows, series.n_assets * nbits))
    # one asset's bits at a time, straight into the float64 matrix: no
    # integer bit array of the whole output
    for j in range(series.n_assets):
        _bits_msb_first(idx[:, j], nbits, out=matrix[:, j * nbits:(j + 1) * nbits])
    n_clipped = int(np.count_nonzero((series.values < codec.minimum)
                                     | (series.values > codec.maximum)))
    return EncodedSeries(matrix, ARCH_BERNOULLI, codec=codec, dates=series.dates,
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
    """Columnwise (x - mu) / sigma, in one new array."""
    if series.n_assets != params.n_assets:
        raise ValueError("series and z-score params disagree on asset count")
    matrix = series.values - params.mu
    matrix /= params.sigma
    return EncodedSeries(matrix, ARCH_GAUSSIAN, codec=params, dates=series.dates)


def decode_series(encoded: EncodedSeries) -> np.ndarray:
    """Map an encoded matrix back to raw units (T x n_assets).

    Bernoulli rows group columns per asset MSB-first and decode to bin
    centers; Gaussian rows take the affine z-score inverse.
    """
    codec = encoded.codec
    if getattr(codec, "arch", None) != encoded.arch:
        raise ValueError(f"{encoded.arch} series carries no {encoded.arch} codec")
    if encoded.arch == ARCH_BERNOULLI and (
            encoded.n_visible != codec.n_assets * codec.bits_per_asset):
        raise ValueError(
            f"bit-group misalignment: {encoded.n_visible} columns is not "
            f"{codec.n_assets} assets x {codec.bits_per_asset} bits")
    return _decode(encoded.matrix, codec)


def _decode(matrix: np.ndarray, codec) -> np.ndarray:
    """decode_series of the rows ``matrix`` in the units of ``codec``, a
    BinaryCodec or ZScoreParams, unchecked."""
    if codec.arch == ARCH_GAUSSIAN:
        return matrix * codec.sigma + codec.mu
    nbits = codec.bits_per_asset
    bits = matrix.reshape(matrix.shape[0], codec.n_assets, nbits)
    weights = (1 << np.arange(nbits - 1, -1, -1, dtype=np.int64)).astype(np.float64)
    idx = bits @ weights
    top = float((1 << nbits) - 1)
    return codec.minimum + idx / top * (codec.maximum - codec.minimum)


@dataclass
class TableData:
    """Order-preserving CSV payload for fidelity comparisons.

    Unlike ingest_csv the first column is an opaque label, read but not
    kept (synthetic output uses step indices there), and rows are not sorted.
    """

    values: np.ndarray
    asset_names: list[str]
    n_dropped: int = 0


def read_values_csv(path) -> TableData:
    """Read the values of a CSV of labeled numeric rows, preserving file order."""
    with _open_text(path) as fh:
        _, values, asset_names, n_dropped = _read_rows(path, fh, None, "label")
    return TableData(values, asset_names, n_dropped)
