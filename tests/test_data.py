"""CSV ingestion, splitting, and the two encodings against naive oracles."""

import codecs
import tracemalloc
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbm import data

from crbm.data import (
    BinaryCodec,
    DatesNotAscending,
    EncodedSeries,
    RawSeries,
    ZScoreParams,
    binarize,
    chrono_split,
    decode_series,
    fit_binary_codec,
    fit_zscore,
    ingest_blocks,
    ingest_csv,
    read_values_csv,
    standardize,
)
from crbm.model import ARCH_BERNOULLI, ARCH_GAUSSIAN
from helpers import decode_binary, encode_binary, naive_bits, naive_quantize, \
    naive_read_rows, naive_unquantize, piped, write_dated_csv


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

    def test_duplicate_dates_out_of_order_error(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("date,A\n2020-01-03,1.0\n2020-01-01,2.0\n2020-01-03,3.0\n")
        with pytest.raises(ValueError, match="duplicate date 2020-01-03"):
            ingest_csv(path)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_ascending_dates_keep_the_parsed_matrix(self, tmp_path, monkeypatch, ascending):
        # only input out of date order is reordered, which copies the matrix
        values = np.random.default_rng(6).normal(size=(300, 3))
        path = tmp_path / "in.csv"
        write_dated_csv(path, values)
        if not ascending:
            header, *rows = path.read_text().splitlines()
            path.write_text("\n".join([header, *rows[::-1]]) + "\n")
        parsed, read_rows = [], data._read_rows

        def spy(*args):
            result = read_rows(*args)
            parsed.append(result[1])
            return result

        monkeypatch.setattr(data, "_read_rows", spy)
        s = ingest_csv(path)
        assert (s.values is parsed[0]) == ascending
        assert s.values.tobytes() == values.tobytes()
        assert s.dates == sorted(s.dates)

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

    @pytest.mark.parametrize("label", [
        "20200105", "2020-W01-1", "2020-W01", "2020-005", "2020-1-05", "2020-01-05T00",
        "\uff12\uff10\uff12\uff10-01-05",                  # fullwidth digits
        "\u0662\u0660\u0662\u0660-\u0660\u0661-\u0660\u0665",  # Arabic-Indic digits
    ])
    def test_only_ascii_year_month_day_dates(self, tmp_path, label):
        # date.fromisoformat takes the first three from Python 3.11 on, not on
        # 3.10; every supported Python must drop the same rows
        path = tmp_path / "in.csv"
        path.write_text(f"date,A\n 2020-01-04 ,1.0\n{label},2.0\n", encoding="utf-8")
        s = ingest_csv(path)
        assert s.dates == [date(2020, 1, 4)]
        assert s.n_dropped == 1
        with pytest.raises(ValueError, match="YYYY-MM-DD"):
            data._iso_date(label)

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

    def test_sides_are_views_that_share_the_names(self, toy_series):
        left, right = chrono_split(toy_series, date(2021, 1, 20))
        for side, rows in ((left, slice(0, 20)), (right, slice(20, 40))):
            assert np.shares_memory(side.values, toy_series.values)
            assert side.asset_names is toy_series.asset_names
            assert side.dates == toy_series.dates[rows]
            assert side.values.tobytes() == toy_series.values[rows].tobytes()

    def test_boundary_between_dates(self):
        days = [date(2021, 1, d) for d in (2, 4, 6, 8)]
        series = RawSeries(days, np.arange(8.0).reshape(4, 2), ["x", "y"])
        for day, n_left in ((2, 1), (3, 1), (4, 2), (5, 2), (7, 3)):
            left, right = chrono_split(series, date(2021, 1, day))
            assert left.dates == days[:n_left] and right.dates == days[n_left:]

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
        assert enc.dates is toy_series.dates

    def test_binarize_counts_clipped_cells(self):
        codec = BinaryCodec([0.0, -1.0], [1.0, 1.0], bits_per_asset=3)
        days = [date(2020, 1, d) for d in (1, 2, 3)]
        # the ends of the range encode exactly; only cells beyond them clip
        values = [[0.0, 1.0], [1.0, -1.5], [7.0, 2.0]]
        enc = binarize(RawSeries(days, values, ["x", "y"]), codec)
        assert enc.n_clipped == 3
        assert binarize(RawSeries(days, np.zeros((3, 2)), ["x", "y"]), codec).n_clipped == 0

    @staticmethod
    def wide_series(rows, assets, bits):
        """t(4) values, some beyond a [-2, 2] codec of ``bits`` bits."""
        values = np.random.default_rng(12).standard_t(4, size=(rows, assets))
        days = [date(2020, 1, 1) + timedelta(days=t) for t in range(rows)]
        codec = BinaryCodec(np.full(assets, -2.0), np.full(assets, 2.0), bits_per_asset=bits)
        return RawSeries(days, values, [f"a{j}" for j in range(assets)]), codec

    @pytest.mark.parametrize("bits", [1, 7, 16, 48])
    def test_binarize_matches_the_whole_bit_array(self, bits):
        series, codec = self.wide_series(300, 3, bits)
        idx = data._bin_indices(series.values, codec.minimum, codec.maximum, bits)
        shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
        want = ((idx[..., None] >> shifts) & 1).reshape(300, -1).astype(np.float64)
        enc = binarize(series, codec)
        assert enc.matrix.tobytes() == want.tobytes()
        assert enc.n_clipped == np.count_nonzero(np.abs(series.values) > 2.0) > 0

    def test_binarize_peak_memory_holds_no_integer_bit_array(self):
        # the int64 bit array and its float64 copy peaked at 2.3 x the output
        series, codec = self.wide_series(20_000, 8, 16)
        tracemalloc.start()
        try:
            enc = binarize(series, codec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * enc.matrix.nbytes


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

    def test_standardize_shares_the_date_list(self, toy_series):
        assert standardize(toy_series, fit_zscore(toy_series)).dates is toy_series.dates

    def test_roundtrip_identity(self, toy_series):
        params = fit_zscore(toy_series)
        enc = standardize(toy_series, params)
        np.testing.assert_allclose(decode_series(enc), toy_series.values,
                                   atol=1e-12)

    def test_standardize_is_one_array_with_the_same_bits(self):
        rng = np.random.default_rng(7)
        values = rng.standard_t(4, size=(20_000, 8)) * rng.uniform(0.1, 9.0, 8)
        series = RawSeries([date(2000, 1, 1) + timedelta(days=t) for t in range(20_000)],
                           values, [f"A{j}" for j in range(8)])
        params = fit_zscore(series)
        tracemalloc.start()
        try:
            enc = standardize(series, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert enc.matrix.tobytes() == ((values - params.mu) / params.sigma).tobytes()
        # the matrix and the finiteness mask; a second (rows, assets)
        # temporary would add another 1.0
        assert peak < 1.5 * values.nbytes

    @pytest.mark.parametrize("arch, codec", [
        (ARCH_GAUSSIAN, BinaryCodec([0, 0], [1, 1], bits_per_asset=1)),
        (ARCH_BERNOULLI, ZScoreParams([0, 0], [1, 1])),
        (ARCH_GAUSSIAN, None),
    ], ids=["gaussian_binary", "bernoulli_zscore", "no_codec"])
    def test_decode_series_needs_the_codec_of_its_arch(self, arch, codec):
        enc = EncodedSeries(np.zeros((1, 2)), arch, codec=codec)
        with pytest.raises(ValueError, match=f"^{arch} series carries no {arch} codec$"):
            decode_series(enc)


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
        assert table.values.shape == (3, 2)  # the label column is read, not kept
        assert table.asset_names == ["A", "B"]
        np.testing.assert_array_equal(table.values[:, 0], [5.0, 4.0, 3.0])

    def test_roundtrips_dated_csv(self, tmp_path):
        values = np.arange(8.0).reshape(4, 2)
        path = tmp_path / "dated.csv"
        write_dated_csv(path, values)
        table = read_values_csv(path)
        np.testing.assert_array_equal(table.values, values)
        assert ingest_csv(path).dates[0] == date(2020, 1, 1)

    def test_drops_malformed_rows_and_keeps_labels_verbatim(self, tmp_path):
        path = tmp_path / "vals.csv"
        path.write_text("step,A\n"
                        " x ,1.0\n"
                        "b,oops\n"       # bad float
                        "c,inf\n"        # non-finite
                        "d,4.0,5.0\n"    # long row
                        "e,6.0\n")
        table = read_values_csv(path)  # " x " is a label as it stands
        assert table.n_dropped == 3
        np.testing.assert_array_equal(table.values, [[1.0], [6.0]])
        path.write_text("step\n0\n")
        with pytest.raises(ValueError, match="need a label column"):
            read_values_csv(path)
        path.write_text("step,A\n0,nan\n")
        with pytest.raises(ValueError, match="no parseable rows"):
            read_values_csv(path)


    @pytest.mark.parametrize("rows, want, n_dropped", [
        ("0,1.0,2.0\n1,3.0,4.0,\n2,5.0,6.0\n", [[1, 2], [5, 6]], 1),
        ("0,1.0,2.0\n1,3.0\n2,5.0,6.0\n", [[1, 2], [5, 6]], 1),
        # as many commas as three good rows: the short row must still show
        ("0,1.0,2.0\n1,3.0,4.0,9\n2,5.0\n3,7.0,8.0\n", [[1, 2], [7, 8]], 2),
        ("0,1.0,2.0\n\n \n\t\n\r\n2,5.0,6.0\n", [[1, 2], [5, 6]], 2),
        ('0,1.0,2.0\n"1",3.0,4.0\n2,"5.0",6.0\n', [[1, 2], [3, 4], [5, 6]], 0),
    ], ids=["trailing_comma", "short_row", "long_and_short_row", "blank_lines", "quoted"])
    def test_ragged_and_blank_lines_as_the_row_reader(self, tmp_path, rows, want, n_dropped):
        # without labels, raggedness is a comma count over the whole block
        path = tmp_path / "vals.csv"
        path.write_text("step,A,B\n" + rows, newline="")
        table = read_values_csv(path)
        np.testing.assert_array_equal(table.values, want)
        assert table.n_dropped == n_dropped
        _, values, names, dropped = naive_read_rows(path, str, "label")
        assert (table.values.tobytes(), table.asset_names, table.n_dropped) == (
            values.tobytes(), names, dropped)


    def test_rows_past_the_line_count_grow_the_values(self, tmp_path, monkeypatch):
        # as a file that grows while it is read: more rows than lines counted
        path = tmp_path / "vals.csv"
        write_dated_csv(path, np.random.default_rng(8).normal(size=(300, 2)))
        want = read_values_csv(path)
        monkeypatch.setattr(data, "READ_AHEAD_BYTES", 400)
        monkeypatch.setattr(data, "_count_lines", lambda fh: 3)
        got = read_values_csv(path)
        assert (got.values.tobytes(), got.n_dropped) == (want.values.tobytes(), want.n_dropped)


class TestPipedInput:
    """A pipe is read once, through one handle, and gives what the file gives."""

    @pytest.fixture
    def dated(self, tmp_path, monkeypatch):
        """A dated CSV of 400 rows (about 20 KB, one pipe buffer), read in
        blocks of a few lines."""
        path = tmp_path / "in.csv"
        write_dated_csv(path, np.random.default_rng(9).normal(size=(400, 2)))
        monkeypatch.setattr(data, "READ_AHEAD_BYTES", 400)
        return path

    @staticmethod
    def reverse(path):
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *rows[::-1]]) + "\n")

    @pytest.mark.parametrize("ascending", [True, False])
    def test_pipe_reads_as_the_file(self, dated, ascending):
        if not ascending:
            self.reverse(dated)
        want_series, want_table = ingest_csv(dated), read_values_csv(dated)
        with piped(dated.read_text()) as path:
            series = ingest_csv(path)
        with piped(dated.read_text()) as path:
            table = read_values_csv(path)
        assert (series.dates, series.values.tobytes(), series.n_dropped) == (
            want_series.dates, want_series.values.tobytes(), want_series.n_dropped)
        assert (table.values.tobytes(), table.n_dropped) == (
            want_table.values.tobytes(), want_table.n_dropped)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_blocks_of_a_pipe_are_the_sorted_rows(self, dated, ascending):
        # a pipe cannot be read again, so it comes whole and sorted
        if not ascending:
            self.reverse(dated)
        want = ingest_csv(dated)
        with piped(dated.read_text()) as path:
            names, *blocks = ingest_blocks(path)
        assert names == want.asset_names and len(blocks) == 1
        assert (blocks[0][0], blocks[0][1].tobytes(), blocks[0][2]) == (
            want.dates, want.values.tobytes(), want.n_dropped)

    def test_a_byte_order_mark_is_skipped(self, dated, tmp_path):
        marked = tmp_path / "bom.csv"
        marked.write_bytes(codecs.BOM_UTF8 + dated.read_bytes())
        # the line count reads the bytes, mark and all, then seeks back to
        # 0, and the text read after that seek skips the mark again
        with data._open_text(marked) as fh:
            assert data._count_lines(fh) is not None
            assert fh.readline() == "date,A0,A1\r\n"
        want = ingest_csv(dated)
        with piped(codecs.BOM_UTF8.decode() + dated.read_text()) as path:
            from_pipe = ingest_csv(path)
        for series in (ingest_csv(marked), from_pipe):
            assert (series.asset_names, series.dates, series.values.tobytes()) == (
                want.asset_names, want.dates, want.values.tobytes())
        assert read_values_csv(marked).values.tobytes() == want.values.tobytes()
        assert next(ingest_blocks(marked)) == want.asset_names

    def test_blocks_of_a_file_are_its_rows(self, dated):
        want = ingest_csv(dated)
        names, *blocks = ingest_blocks(dated)
        assert names == want.asset_names and len(blocks) > 1
        assert [d for dates, _, _ in blocks for d in dates] == want.dates
        assert np.concatenate([v for _, v, _ in blocks]).tobytes() == want.values.tobytes()

    def test_blocks_count_the_rows_they_drop(self, dated):
        # 20 short bad rows in a row fill a block of their own, which still counts
        header, *rows = dated.read_text().splitlines()
        for i in (5, *range(100, 120), 399):
            rows[i] = rows[i].split(",")[0] + ",x,1.0"
        dated.write_text("\n".join([header, *rows]) + "\n")
        assert ingest_csv(dated).n_dropped == 22
        names, *blocks = ingest_blocks(dated)
        assert sum(n for _, _, n in blocks) == 22
        assert any(n and not dates for dates, _, n in blocks)

    def test_blocks_stop_at_a_date_out_of_order(self, dated):
        header, *rows = dated.read_text().splitlines()
        rows[300], rows[301] = rows[301], rows[300]
        dated.write_text("\n".join([header, *rows]) + "\n")
        blocks = ingest_blocks(dated)
        next(blocks)
        seen = []
        with pytest.raises(DatesNotAscending):
            for dates, _, _ in blocks:
                seen += dates
        assert 0 < len(seen) <= 300


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

    def test_values_reader_keeps_no_label_text(self, tmp_path):
        # crbm stats never reads the labels; 20,000 labels of 100 characters
        # would hold about 3 MB
        path = tmp_path / "long_labels.csv"
        path.write_text("step,A\n" + "".join(f"{i:0>100},{i}.5\n" for i in range(20_000)))
        tracemalloc.start()
        try:
            table = read_values_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.values[-1, 0] == 19_999.5
        assert peak < 2**20

    @pytest.mark.parametrize("reader", [ingest_csv, read_values_csv])
    def test_empty_lines_do_not_size_the_array(self, tmp_path, reader):
        # a 10,000-column header over 100,000 empty lines, about 159 KB:
        # sized by its line count, the array would take 7.45 GiB
        path = tmp_path / "hollow.csv"
        path.write_text(",".join(f"c{j}" for j in range(10_000)) + "\n" * 100_001)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="no parseable rows"):
                reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * path.stat().st_size

    def test_quoted_cell_ends_its_block_at_the_end_of_its_row(self, tmp_path, monkeypatch):
        # every 7th row has a cell quoted across two lines, so some of them
        # span the end of a block; none may make the rest of the file a block
        path = tmp_path / "quoted.csv"
        write_dated_csv(path, np.random.default_rng(10).normal(size=(400, 2)))
        header, *rows = path.read_text().splitlines()
        for i in range(0, len(rows), 7):
            date_cell, a, b = rows[i].split(",")
            rows[i] = f'{date_cell},"{a}\n",{b}'
        path.write_text("\n".join([header, *rows]) + "\n")
        dates, values, _, n_dropped = naive_read_rows(path, data._iso_date, "date")
        assert len(dates) == 400 and n_dropped == 0
        monkeypatch.setattr(data, "READ_AHEAD_BYTES", 400)  # blocks of 2 to 4 lines
        names, *blocks = ingest_blocks(path)
        assert names == ["A0", "A1"] and max(len(d) for d, _, _ in blocks) <= 4
        assert [d for block_dates, _, _ in blocks for d in block_dates] == dates
        assert np.concatenate([v for _, v, _ in blocks]).tobytes() == values.tobytes()


CLEAN_CELL = st.one_of(st.floats(-1e6, 1e6).map(repr), st.integers(-999, 999).map(str))
NON_FINITE_CELL = st.sampled_from(["inf", "-inf", "nan", "-nan", "1e400", "-1e400"])
HOSTILE_CELL = st.sampled_from([
    "", " ", "x", " 1.5 ", "+2", "1.", ".5", "-0.0", "1e-320", "1_0", "\u0661\u0662",
    "0x10", "1 2", "\u30001\u3000", "1\x0c", "1\x00", "\ufeff1", '"1,5"', '"2.5"', '""'])
ISO_DATE = st.dates(date(1900, 1, 1), date(2099, 12, 31)).map(date.isoformat)
GOOD_LABEL = st.one_of(ISO_DATE, ISO_DATE, ISO_DATE.map(" {} ".format))
BAD_LABEL = st.one_of(
    st.sampled_from(["2020-02-30", "nope", "", "\u0661", '"2020-01-06"', '"a,b"', "2020-W01-1"]),
    ISO_DATE.map(lambda d: d.replace("-", "")))


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
        with mock.patch.object(data, "READ_AHEAD_BYTES", block_bytes):
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
            want = (want[1].tobytes(), want[2], want[3])
        if not isinstance(table, str):
            table = (table.values.tobytes(), table.asset_names, table.n_dropped)
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
