"""Binary model container: roundtrip fidelity and format guards."""

import os
import tracemalloc

import numpy as np
import pytest

from crbm.data import BinaryCodec, ZScoreParams
from crbm.model import ARCH_BERNOULLI
from crbm.model_io import FORMAT_VERSION, MAGIC, ModelFile, load_model, save_model
from helpers import random_bernoulli_model, random_gaussian_model, write_forged_model


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
        for name in ("W", "a", "b", "sigma", "A", "B"):
            np.testing.assert_array_equal(getattr(back.params, name),
                                          getattr(mf.params, name))
        np.testing.assert_array_equal(back.seed_window, mf.seed_window)

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

    def test_width_consistency(self):
        rng = np.random.default_rng(208)
        m = random_bernoulli_model(rng, 5, 2, lag=0)  # 5 != 2 assets * 3 bits
        codec = BinaryCodec([0.0, 0.0], [1.0, 1.0], bits_per_asset=3)
        with pytest.raises(ValueError, match="width"):
            ModelFile(params=m, codec=codec, asset_names=["a", "b"], seed=0,
                      seed_window=np.zeros(0))

    def test_mode_property(self):
        rng = np.random.default_rng(209)
        assert gaussian_file(rng).mode == "continuous"
        assert bernoulli_file(rng).mode == "binary"
        assert bernoulli_file(rng).params.arch == ARCH_BERNOULLI
