"""CSV ingestion, splitting, and the two encodings against naive oracles."""

from datetime import date

import numpy as np
import pytest

from crbm.data import (
    BinaryCodec,
    EncodedSeries,
    MODE_BINARY,
    MODE_CONTINUOUS,
    RawSeries,
    ZScoreParams,
    binarize,
    chrono_split,
    decode_binary,
    decode_series,
    destandardize,
    encode_binary,
    fit_binary_codec,
    fit_zscore,
    ingest_csv,
    read_values_csv,
    standardize,
)
from helpers import naive_bits, naive_quantize, naive_unquantize, write_dated_csv


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
        enc = EncodedSeries(np.zeros((1, 10)), MODE_BINARY, codec=codec)
        np.testing.assert_allclose(decode_series(enc)[0], [-3.0, 2.0])

    def test_misaligned_bit_groups_error(self):
        codec = BinaryCodec([0.0], [1.0], bits_per_asset=4)
        enc = EncodedSeries(np.zeros((2, 6)), MODE_BINARY, codec=codec)
        with pytest.raises(ValueError, match="misalignment"):
            decode_series(enc)

    def test_binarize_shape_and_dates(self, toy_series):
        codec = fit_binary_codec(toy_series, bits=7)
        enc = binarize(toy_series, codec)
        assert enc.mode == MODE_BINARY
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
        enc = EncodedSeries(np.zeros((1, 2)), MODE_BINARY,
                            codec=BinaryCodec([0, 0], [1, 1], bits_per_asset=1))
        with pytest.raises(ValueError, match="continuous"):
            destandardize(enc)


class TestEncodedSeries:
    def test_binary_entries_validated(self):
        with pytest.raises(ValueError, match="0 or 1"):
            EncodedSeries(np.full((2, 2), 0.5), MODE_BINARY)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            EncodedSeries(np.zeros((1, 1)), "fancy")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            EncodedSeries(np.array([[np.inf, 0.0]]), MODE_CONTINUOUS)


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
