"""CSV ingestion, splitting, and the two encodings against naive oracles."""

import tracemalloc
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbm import data

from crbm.data import (
    BinaryCodec,
    EncodedSeries,
    RawSeries,
    ZScoreParams,
    binarize,
    chrono_split,
    decode_series,
    destandardize,
    fit_binary_codec,
    fit_zscore,
    ingest_csv,
    read_values_csv,
    standardize,
)
from crbm.model import ARCH_BERNOULLI, ARCH_GAUSSIAN
from helpers import decode_binary, encode_binary, naive_bits, naive_quantize, \
    naive_read_rows, naive_unquantize, write_dated_csv


@pytest.fixture
def toy_series():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(40, 3)) * [1.0, 5.0, 0.2] + [0.0, -2.0, 10.0]
    dates = [date(2021, 1, 1 + t) if t < 31 else date(2021, 2, t - 30)
             for t in range(40)]
    return RawSeries(dates, values, ["x", "y", "z"])


class TestIngest:
    def test_reads_sorted_rows(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("date,B,A\n2020-01-03,3.0,30\n2020-01-01,1.0,10\n"
                        "2020-01-02,2.0,20\n")
        s = ingest_csv(path)
        assert s.asset_names == ["B", "A"]
        assert [d.isoformat() for d in s.dates] == ["2020-01-01", "2020-01-02",
                                                    "2020-01-03"]
        np.testing.assert_array_equal(s.values, [[1, 10], [2, 20], [3, 30]])
        assert s.n_dropped == 0

    def test_drops_malformed_rows(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("date,A\n"
                        "2020-01-01,1.0\n"
                        "not-a-date,2.0\n"      # bad date
                        "2020-01-03,oops\n"     # bad float
                        "2020-01-04,nan\n"      # non-finite
                        "2020-01-05\n"          # short row
                        "2020-01-06,6.0\n")
        s = ingest_csv(path)
        assert s.n_rows == 2
        assert s.n_dropped == 4
        np.testing.assert_array_equal(s.values.ravel(), [1.0, 6.0])

    def test_duplicate_dates_error(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("date,A\n2020-01-01,1.0\n2020-01-01,2.0\n")
        with pytest.raises(ValueError, match="duplicate date"):
            ingest_csv(path)

    def test_no_parseable_rows_error(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("date,A\nnope,1.0\n")
        with pytest.raises(ValueError, match="no parseable rows"):
            ingest_csv(path)

    def test_empty_file_error(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            ingest_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_csv(tmp_path / "absent.csv")

    def test_date_column_by_name(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("A,when,B\n1.0,2020-01-01,2.0\n")
        s = ingest_csv(path, date_column="when")
        assert s.asset_names == ["A", "B"]
        np.testing.assert_array_equal(s.values, [[1.0, 2.0]])
        with pytest.raises(ValueError, match="no column named"):
            ingest_csv(path, date_column="missing")


class TestChronoSplit:
    def test_boundary_inclusive_left(self, toy_series):
        left, right = chrono_split(toy_series, date(2021, 1, 20))
        assert left.n_rows == 20
        assert right.n_rows == 20
        assert left.dates[-1] == date(2021, 1, 20)
        assert right.dates[0] == date(2021, 1, 21)
        np.testing.assert_array_equal(
            np.vstack([left.values, right.values]), toy_series.values)

    def test_empty_side_errors(self, toy_series):
        with pytest.raises(ValueError, match="training side empty"):
            chrono_split(toy_series, date(2020, 12, 31))
        with pytest.raises(ValueError, match="test side empty"):
            chrono_split(toy_series, date(2021, 2, 9))


class TestBinaryCodec:
    def test_fit_uses_train_extremes(self, toy_series):
        codec = fit_binary_codec(toy_series, bits=8)
        np.testing.assert_array_equal(codec.minimum, toy_series.values.min(axis=0))
        np.testing.assert_array_equal(codec.maximum, toy_series.values.max(axis=0))
        assert codec.n_bins == 256

    def test_constant_column_error(self):
        s = RawSeries([date(2020, 1, 1), date(2020, 1, 2)],
                      [[1.0, 5.0], [2.0, 5.0]], ["ok", "flat"])
        with pytest.raises(ValueError, match="flat"):
            fit_binary_codec(s)

    def test_encode_matches_naive_quantizer(self):
        rng = np.random.default_rng(11)
        codec = BinaryCodec([-2.0], [3.0], bits_per_asset=6)
        for value in rng.uniform(-3.0, 4.0, size=200):  # includes out-of-range
            bits = encode_binary(value, 0, codec)
            idx = naive_quantize(value, -2.0, 3.0, 6)
            assert bits.tolist() == naive_bits(idx, 6)

    def test_decode_matches_naive(self):
        codec = BinaryCodec([-2.0], [3.0], bits_per_asset=6)
        for idx in range(64):
            bits = np.array(naive_bits(idx, 6), dtype=np.float64)
            assert decode_binary(bits, 0, codec) == pytest.approx(
                naive_unquantize(idx, -2.0, 3.0, 6), abs=1e-12)

    def test_extremes_map_to_all_zero_and_all_one(self):
        codec = BinaryCodec([-1.0, 0.0], [1.0, 10.0], bits_per_asset=4)
        assert encode_binary(-1.0, 0, codec).tolist() == [0, 0, 0, 0]
        assert encode_binary(1.0, 0, codec).tolist() == [1, 1, 1, 1]
        assert encode_binary(10.0, 1, codec).tolist() == [1, 1, 1, 1]

    def test_out_of_range_clips(self):
        codec = BinaryCodec([0.0], [1.0], bits_per_asset=3)
        assert encode_binary(-5.0, 0, codec).tolist() == [0, 0, 0]
        assert encode_binary(7.0, 0, codec).tolist() == [1, 1, 1]

    def test_roundtrip_within_half_bin(self, toy_series):
        codec = fit_binary_codec(toy_series, bits=10)
        enc = binarize(toy_series, codec)
        back = decode_series(enc)
        half_bin = (codec.maximum - codec.minimum) / (codec.n_bins - 1) / 2.0
        assert np.all(np.abs(back - toy_series.values) <= half_bin + 1e-12)

    def test_all_zero_row_decodes_to_minimum(self):
        codec = BinaryCodec([-3.0, 2.0], [4.0, 9.0], bits_per_asset=5)
        enc = EncodedSeries(np.zeros((1, 10)), ARCH_BERNOULLI, codec=codec)
        np.testing.assert_allclose(decode_series(enc)[0], [-3.0, 2.0])

    def test_misaligned_bit_groups_error(self):
        codec = BinaryCodec([0.0], [1.0], bits_per_asset=4)
        enc = EncodedSeries(np.zeros((2, 6)), ARCH_BERNOULLI, codec=codec)
        with pytest.raises(ValueError, match="misalignment"):
            decode_series(enc)

    def test_binarize_shape_and_dates(self, toy_series):
        codec = fit_binary_codec(toy_series, bits=7)
        enc = binarize(toy_series, codec)
        assert enc.arch == ARCH_BERNOULLI
        assert enc.matrix.shape == (40, 21)
        assert enc.dates == toy_series.dates

    def test_binarize_counts_clipped_cells(self):
        codec = BinaryCodec([0.0, -1.0], [1.0, 1.0], bits_per_asset=3)
        days = [date(2020, 1, d) for d in (1, 2, 3)]
        # the ends of the range encode exactly; only cells beyond them clip
        values = [[0.0, 1.0], [1.0, -1.5], [7.0, 2.0]]
        enc = binarize(RawSeries(days, values, ["x", "y"]), codec)
        assert enc.n_clipped == 3
        assert binarize(RawSeries(days, np.zeros((3, 2)), ["x", "y"]), codec).n_clipped == 0


class TestZScore:
    def test_population_std(self, toy_series):
        params = fit_zscore(toy_series)
        np.testing.assert_allclose(params.mu, toy_series.values.mean(axis=0))
        np.testing.assert_allclose(params.sigma,
                                   toy_series.values.std(axis=0))  # ddof=0

    def test_zero_std_error(self):
        s = RawSeries([date(2020, 1, 1), date(2020, 1, 2)],
                      [[1.0, 5.0], [2.0, 5.0]], ["ok", "flat"])
        with pytest.raises(ValueError, match="flat"):
            fit_zscore(s)

    def test_mu_plus_sigma_encodes_to_one(self, toy_series):
        params = fit_zscore(toy_series)
        probe = RawSeries([date(2022, 1, 1)], [params.mu + params.sigma],
                          list(toy_series.asset_names))
        enc = standardize(probe, params)
        np.testing.assert_allclose(enc.matrix, 1.0, atol=1e-12)

    def test_roundtrip_identity(self, toy_series):
        params = fit_zscore(toy_series)
        enc = standardize(toy_series, params)
        np.testing.assert_allclose(destandardize(enc), toy_series.values,
                                   atol=1e-12)
        np.testing.assert_allclose(decode_series(enc), toy_series.values,
                                   atol=1e-12)

    def test_destandardize_mode_guard(self):
        enc = EncodedSeries(np.zeros((1, 2)), ARCH_BERNOULLI,
                            codec=BinaryCodec([0, 0], [1, 1], bits_per_asset=1))
        with pytest.raises(ValueError, match="continuous"):
            destandardize(enc)


class TestEncodedSeries:
    def test_binary_entries_validated(self):
        with pytest.raises(ValueError, match="0 or 1"):
            EncodedSeries(np.full((2, 2), 0.5), ARCH_BERNOULLI)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="architecture"):
            EncodedSeries(np.zeros((1, 1)), "fancy")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            EncodedSeries(np.array([[np.inf, 0.0]]), ARCH_GAUSSIAN)


class TestValuesCsv:
    def test_preserves_order_and_labels(self, tmp_path):
        path = tmp_path / "vals.csv"
        path.write_text("step,A,B\n0,5.0,1.0\n1,4.0,2.0\n2,3.0,3.0\n")
        table = read_values_csv(path)
        assert table.labels == ["0", "1", "2"]
        assert table.asset_names == ["A", "B"]
        np.testing.assert_array_equal(table.values[:, 0], [5.0, 4.0, 3.0])

    def test_roundtrips_dated_csv(self, tmp_path):
        values = np.arange(8.0).reshape(4, 2)
        path = tmp_path / "dated.csv"
        write_dated_csv(path, values)
        table = read_values_csv(path)
        np.testing.assert_array_equal(table.values, values)
        assert table.labels[0] == "2020-01-01"

    def test_drops_malformed_rows_and_keeps_labels_verbatim(self, tmp_path):
        path = tmp_path / "vals.csv"
        path.write_text("step,A\n"
                        " x ,1.0\n"
                        "b,oops\n"       # bad float
                        "c,inf\n"        # non-finite
                        "d,4.0,5.0\n"    # long row
                        "e,6.0\n")
        table = read_values_csv(path)
        assert table.labels == [" x ", "e"]
        assert table.n_dropped == 3
        np.testing.assert_array_equal(table.values, [[1.0], [6.0]])
        path.write_text("step\n0\n")
        with pytest.raises(ValueError, match="need a label column"):
            read_values_csv(path)
        path.write_text("step,A\n0,nan\n")
        with pytest.raises(ValueError, match="no parseable rows"):
            read_values_csv(path)


class TestStreamingRead:
    @pytest.fixture(scope="class")
    def wide_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("wide") / "wide.csv"
        write_dated_csv(path, np.random.default_rng(5).normal(size=(50_000, 8)))
        return path

    @pytest.mark.parametrize("reader", [ingest_csv, read_values_csv])
    def test_peak_memory_stays_small(self, wide_csv, reader):
        # the values are 3.2 MB as float64; holding every row as lists of
        # strings and of floats before converting took over 50 MiB
        tracemalloc.start()
        try:
            table = reader(wide_csv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.values.shape == (50_000, 8)
        assert peak < 40 * 2**20


CLEAN_CELL = st.one_of(st.floats(-1e6, 1e6).map(repr), st.integers(-999, 999).map(str))
NON_FINITE_CELL = st.sampled_from(["inf", "-inf", "nan", "-nan", "1e400", "-1e400"])
HOSTILE_CELL = st.sampled_from([
    "", " ", "x", " 1.5 ", "+2", "1.", ".5", "-0.0", "1e-320", "1_0", "\u0661\u0662",
    "0x10", "1 2", "\u30001\u3000", "1\x0c", "1\x00", "\ufeff1", '"1,5"', '"2.5"', '""'])
ISO_DATE = st.dates(date(1900, 1, 1), date(2099, 12, 31)).map(date.isoformat)
GOOD_LABEL = st.one_of(ISO_DATE, ISO_DATE, ISO_DATE.map(" {} ".format),
                       ISO_DATE.map(lambda d: d.replace("-", "")))
BAD_LABEL = st.sampled_from(["2020-02-30", "nope", "", "\u0661", '"2020-01-06"', '"a,b"'])


def row(label, cells):
    return st.tuples(label, st.lists(cells, min_size=2, max_size=2))


# Each kind of line is one branch, so every file mixes clean rows, which
# the bulk parse takes, with the lines that must not change its outcome.
LINE = st.one_of(
    row(GOOD_LABEL, CLEAN_CELL),
    row(GOOD_LABEL, CLEAN_CELL),
    row(GOOD_LABEL, st.one_of(CLEAN_CELL, NON_FINITE_CELL)),
    row(GOOD_LABEL, st.one_of(CLEAN_CELL, HOSTILE_CELL)),
    row(BAD_LABEL, CLEAN_CELL),
    row(GOOD_LABEL, st.one_of(CLEAN_CELL, st.sampled_from(["\x1c1", "1\x1d", "\x1e", "2\x1f"]))),
    row(GOOD_LABEL, st.one_of(CLEAN_CELL, st.sampled_from(['"a\nb"', '"1\r\n"']))),
    st.tuples(GOOD_LABEL, st.lists(CLEAN_CELL, max_size=3).filter(lambda c: len(c) != 2)),
    st.sampled_from(["", "", " ", "\t", "\x0c", "\x1c"]),
)


@st.composite
def hostile_csv(draw):
    """CSV text of a label column and two asset columns, with the line
    endings, a BOM and the position of the label column drawn too."""
    label_idx = draw(st.sampled_from([0, 0, 1, 2]))
    header = ['"B,b"', "C "]
    header.insert(label_idx, "date")
    lines = [",".join(header)]
    for line in draw(st.lists(LINE, max_size=40)):
        if isinstance(line, str):
            lines.append(line)
        else:
            label, cells = line
            lines.append(",".join(cells[:label_idx] + [label] + cells[label_idx:]))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    return text, label_idx


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


class TestReaderMatchesOracle:
    """Both readers give exactly what the row-by-row csv oracle gives, with
    blocks from one line each up to the default size."""

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(case=hostile_csv(), block_bytes=st.sampled_from([1, 24, 90, 1 << 18]))
    def test_readers_match_row_by_row_oracle(self, tmp_path_factory, case, block_bytes):
        text, label_idx = case
        path = tmp_path_factory.mktemp("csv") / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        date_column = None if label_idx == 0 else "date"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "READ_AHEAD_BYTES", block_bytes)
            series = outcome(ingest_csv, path, date_column=date_column)
            table = outcome(read_values_csv, path)

        want = outcome(naive_read_rows, path, data._iso_date, "date", date_column)
        if not isinstance(want, str):
            dates, values, names, n_dropped = want
            order = sorted(range(len(dates)), key=dates.__getitem__)
            dates = [dates[i] for i in order]
            dup = [d for d, nxt in zip(dates, dates[1:]) if d == nxt]
            want = (f"{path}: duplicate date {dup[0].isoformat()}" if dup
                    else (dates, values[order].tobytes(), names, n_dropped))
        if not isinstance(series, str):
            series = (series.dates, series.values.tobytes(), series.asset_names,
                      series.n_dropped)
        assert series == want

        want = outcome(naive_read_rows, path, str, "label")
        if not isinstance(want, str):
            want = (want[0], want[1].tobytes(), want[2], want[3])
        if not isinstance(table, str):
            table = (table.labels, table.values.tobytes(), table.asset_names, table.n_dropped)
        assert table == want

    @pytest.mark.parametrize("quote", ['"', ""], ids=["quoted", "unquoted"])
    def test_cell_over_the_csv_field_limit_is_the_oracles_error(self, tmp_path, quote):
        # np.loadtxt has no field limit, so the bulk parse must not take the line
        path = tmp_path / "long.csv"
        path.write_text(f"date,A\n2020-01-01,1.0\n2020-01-02,{quote}{'1' * 200_000}{quote}\n")
        want = f"{path}: line 3: field larger than field limit (131072)"
        assert outcome(naive_read_rows, path, str, "label") == want
        assert outcome(read_values_csv, path) == want
        assert outcome(ingest_csv, path) == want
