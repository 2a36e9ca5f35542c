"""Binary model container: roundtrip fidelity and format guards."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from crbm.data import BinaryCodec, ZScoreParams
from crbm.model_io import FORMAT_VERSION, MAGIC, ModelFile, load_model, save_model
from helpers import random_bernoulli_model, random_gaussian_model, reserved_slot_offset, \
    write_forged_model, write_model_with_slot


def gaussian_file(rng, lag=2):
    nv = 3
    m = random_gaussian_model(rng, nv, 4, lag=lag)
    m.A = rng.normal(size=(lag * nv, nv))
    m.B = rng.normal(size=(lag * nv, 4))
    codec = ZScoreParams(rng.normal(size=nv), rng.uniform(0.5, 2.0, nv))
    return ModelFile(params=m, codec=codec, asset_names=["x", "y", "z"],
                     seed=77, seed_window=rng.normal(size=lag * nv),
                     config_text="seed=77\nepochs=2\n")


def bernoulli_file(rng):
    codec = BinaryCodec([-1.0, 0.0], [1.0, 5.0], bits_per_asset=3)
    m = random_bernoulli_model(rng, 6, 4, lag=1)
    m.B = rng.normal(size=(6, 4))
    m.A = rng.normal(size=(6, 6))
    return ModelFile(params=m, codec=codec, asset_names=["u", "v"], seed=-3,
                     seed_window=(rng.random(6) < 0.5).astype(float))


class TestRoundtrip:
    @pytest.mark.parametrize("make", [gaussian_file, bernoulli_file])
    def test_arrays_and_metadata_survive(self, tmp_path, make):
        mf = make(np.random.default_rng(200))
        path = tmp_path / "m.crbm"
        save_model(mf, path)
        back = load_model(path)
        assert back.asset_names == mf.asset_names
        assert back.seed == mf.seed
        assert back.config_text == mf.config_text
        assert back.params.arch == mf.params.arch
        assert back.params.lag == mf.params.lag
        for name in ("W", "a", "b", "A", "B"):
            np.testing.assert_array_equal(getattr(back.params, name),
                                          getattr(mf.params, name))
        np.testing.assert_array_equal(back.seed_window, mf.seed_window)

    @pytest.mark.parametrize("make", [gaussian_file, bernoulli_file])
    def test_parameter_buffer_survives_exactly(self, tmp_path, make):
        mf = make(np.random.default_rng(203))
        path = tmp_path / "m.crbm"
        save_model(mf, path)
        back = load_model(path).params
        assert back.buffer.tobytes() == mf.params.buffer.tobytes()
        np.testing.assert_array_equal(back.C, mf.params.C)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        mf = gaussian_file(np.random.default_rng(201))
        p1, p2 = tmp_path / "a.crbm", tmp_path / "b.crbm"
        save_model(mf, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_codec_fields_survive(self, tmp_path):
        mf = bernoulli_file(np.random.default_rng(202))
        path = tmp_path / "m.crbm"
        save_model(mf, path)
        back = load_model(path)
        assert isinstance(back.codec, BinaryCodec)
        assert back.codec.bits_per_asset == 3
        np.testing.assert_array_equal(back.codec.minimum, mf.codec.minimum)
        np.testing.assert_array_equal(back.codec.maximum, mf.codec.maximum)

    @pytest.mark.parametrize("make", [gaussian_file, bernoulli_file])
    def test_parameters_land_in_the_buffer_and_the_rest_stays_writable(self, tmp_path, make):
        path = tmp_path / "m.crbm"
        save_model(make(np.random.default_rng(204)), path)
        back = load_model(path)
        for name in ("W", "a", "b", "A", "B"):
            view = getattr(back.params, name)
            assert view.base is back.params.buffer and view.flags.writeable
        codec_arrays = [a for a in vars(back.codec).values() if isinstance(a, np.ndarray)]
        assert len(codec_arrays) == 2
        for arr in codec_arrays + [back.seed_window]:
            assert arr.flags.writeable and arr.dtype == np.float64


def test_load_holds_each_parameter_once(tmp_path):
    # the parameters are read into the model's buffer a block at a time;
    # the file's bytes of A or B held whole would add 0.4 x the buffer, and
    # of every parameter, beside the buffer, 1.0 x (2.13 x in all)
    rng = np.random.default_rng(213)
    nv, nh, lag = 400, 400, 2
    m = random_gaussian_model(rng, nv, nh, lag=lag)
    m.A = rng.normal(size=(lag * nv, nv))
    m.B = rng.normal(size=(lag * nv, nh))
    path = tmp_path / "big.crbm"
    save_model(ModelFile(params=m, codec=ZScoreParams(np.zeros(nv), np.ones(nv)),
                         asset_names=[f"x{i}" for i in range(nv)], seed=1,
                         seed_window=np.zeros(lag * nv)), path)
    tracemalloc.start()
    try:
        back = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.params.buffer.tobytes() == m.buffer.tobytes()
    assert peak < 1.3 * m.buffer.nbytes


class TestFormatGuards:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.crbm"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_version_bump_rejected(self, tmp_path):
        mf = gaussian_file(np.random.default_rng(203))
        path = tmp_path / "m.crbm"
        save_model(mf, path)
        blob = bytearray(path.read_bytes())
        assert blob[:4] == MAGIC
        blob[4] = FORMAT_VERSION + 1
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        mf = gaussian_file(np.random.default_rng(204))
        path = tmp_path / "m.crbm"
        save_model(mf, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        mf = gaussian_file(np.random.default_rng(205))
        path = tmp_path / "m.crbm"
        save_model(mf, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)

    def test_forged_size_is_refused_before_reading(self, tmp_path):
        # the header asks for 8 GiB of hidden biases; the loader must see
        # that 3 bytes remain without allocating what the header declares
        path = tmp_path / "forged.crbm"
        write_forged_model(path, n_hidden=2**30)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated.*8589934592 bytes declared, 3 left"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_non_finite_parameter_is_named(self, tmp_path):
        mf = gaussian_file(np.random.default_rng(212))
        path = tmp_path / "m.crbm"
        save_model(mf, path)
        blob = bytearray(path.read_bytes())
        nv = mf.params.n_visible
        # W starts right after the reserved slot's n_visible doubles
        offset = reserved_slot_offset(mf) + 8 * nv
        blob[offset:offset + 8] = struct.pack("<d", np.inf)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="non-finite entries in W"):
            load_model(path)

    @pytest.mark.parametrize("make", [gaussian_file, bernoulli_file])
    def test_reserved_slot_holds_ones(self, tmp_path, make):
        # the n_visible doubles after a and b, where the Gaussian scales were
        mf = make(np.random.default_rng(210))
        path = tmp_path / "m.crbm"
        save_model(mf, path)
        blob, offset = path.read_bytes(), reserved_slot_offset(mf)
        nv, nh = mf.params.n_visible, mf.params.n_hidden
        before = np.frombuffer(blob[offset - 8 * (nv + nh):offset], dtype="<f8")
        np.testing.assert_array_equal(before, np.concatenate([mf.params.a, mf.params.b]))
        slot = np.frombuffer(blob[offset:offset + 8 * nv], dtype="<f8")
        np.testing.assert_array_equal(slot, np.ones(nv))

    @pytest.mark.parametrize("value", [2.0, 0.0, np.nan])
    def test_reserved_slot_other_than_ones_rejected(self, tmp_path, value):
        path = tmp_path / "m.crbm"
        write_model_with_slot(path, gaussian_file(np.random.default_rng(211)), value)
        with pytest.raises(ValueError, match="sigma") as err:
            load_model(path)
        assert "\n" not in str(err.value)

    def test_non_regular_file_rejected(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(write_end)
        try:
            with pytest.raises(ValueError, match="not a regular file"):
                load_model(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)


class TestModelFileValidation:
    def test_seed_window_length(self):
        rng = np.random.default_rng(206)
        mf = gaussian_file(rng)
        with pytest.raises(ValueError, match="seed window"):
            ModelFile(params=mf.params, codec=mf.codec, asset_names=mf.asset_names,
                      seed=0, seed_window=np.zeros(2))

    def test_codec_arch_consistency(self):
        rng = np.random.default_rng(207)
        m = random_gaussian_model(rng, 2, 2, lag=0)
        codec = BinaryCodec([0.0, 0.0], [1.0, 1.0], bits_per_asset=1)
        with pytest.raises(ValueError, match="BinaryCodec"):
            ModelFile(params=m, codec=codec, asset_names=["a", "b"], seed=0,
                      seed_window=np.zeros(0))

    @pytest.mark.parametrize("make_model, codec, message", [
        (random_gaussian_model, BinaryCodec([0.0, 0.0], [1.0, 1.0], bits_per_asset=1),
         "BinaryCodec cannot feed a gaussian model"),
        (random_bernoulli_model, ZScoreParams([0.0, 0.0], [1.0, 1.0]),
         "ZScoreParams cannot feed a bernoulli model"),
    ], ids=["binary_gaussian", "zscore_bernoulli"])
    def test_codec_feeds_only_its_arch(self, make_model, codec, message):
        m = make_model(np.random.default_rng(210), 2, 2, lag=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModelFile(params=m, codec=codec, asset_names=["a", "b"], seed=0,
                      seed_window=np.zeros(0))

    @pytest.mark.parametrize("seed, name, match", [
        (2**63, "x", "seed 9223372036854775808 does not fit"),
        (-2**63 - 1, "x", "seed -9223372036854775809 does not fit"),
        (0, "\u00e9" * 32768, "has 65536 UTF-8 bytes; a model file holds at most 65535")])
    def test_values_the_file_cannot_hold(self, seed, name, match):
        mf = bernoulli_file(np.random.default_rng(209))
        with pytest.raises(ValueError, match=match):
            ModelFile(params=mf.params, codec=mf.codec, asset_names=["u", name], seed=seed,
                      seed_window=mf.seed_window)

    def test_width_consistency(self):
        rng = np.random.default_rng(208)
        m = random_bernoulli_model(rng, 5, 2, lag=0)  # 5 != 2 assets * 3 bits
        codec = BinaryCodec([0.0, 0.0], [1.0, 1.0], bits_per_asset=3)
        with pytest.raises(ValueError, match="width"):
            ModelFile(params=m, codec=codec, asset_names=["a", "b"], seed=0,
                      seed_window=np.zeros(0))


def small_gaussian_file(rng):
    m = random_gaussian_model(rng, 2, 2, lag=1)
    m.A, m.B = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    return ModelFile(params=m, codec=ZScoreParams(rng.normal(size=2), rng.uniform(0.5, 2.0, 2)),
                     asset_names=["x", "été"], seed=11,
                     seed_window=rng.normal(size=2), config_text="seed=11\n")


def small_bernoulli_file(rng):
    m = random_bernoulli_model(rng, 2, 2, lag=1)
    m.A, m.B = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    return ModelFile(params=m, codec=BinaryCodec([-1.0, 0.0], [1.0, 2.0], bits_per_asset=1),
                     asset_names=["u", "v"], seed=-4, seed_window=np.array([1.0, 0.0]))


def hostile_variants(blob):
    """Every prefix of a model file, the file plus one byte, and every
    single-bit flip of it."""
    for end in range(len(blob)):
        yield blob[:end]
    yield blob + b"\x00"
    for i in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[i // 8] ^= 1 << (i % 8)
        yield bytes(flipped)


@pytest.mark.parametrize("make", [small_gaussian_file, small_bernoulli_file])
def test_every_truncation_and_bit_flip_is_refused_or_round_trips(tmp_path, make):
    # a damaged file is one ValueError line that names the file once, or a
    # model that saves back to the same bytes: nothing in between, and no
    # other exception
    path, again = tmp_path / "m.crbm", tmp_path / "again.crbm"
    save_model(make(np.random.default_rng(214)), path)
    original, refused, loaded = path.read_bytes(), 0, 0
    for blob in hostile_variants(original):
        path.write_bytes(blob)
        try:
            mf = load_model(path)
        except ValueError as err:
            message = str(err)
            assert "\n" not in message
            assert message.startswith(f"{path}: ") and message.count(str(path)) == 1
            refused += 1
            continue
        save_model(mf, again)
        assert again.read_bytes() == blob
        loaded += 1
    assert refused > len(original) and loaded > 0
