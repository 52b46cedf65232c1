"""Tests for repro.utils: config container, RNG handling and numerics helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils import (
    Config,
    channels_to_complex,
    complex_to_channels,
    cosine_similarity,
    get_rng,
    normalized_l2,
    seed_everything,
)
from repro.utils.lru import BoundedLru
from repro.utils.numerics import resample_bilinear, vector_norm


# --------------------------------------------------------------------------- #
# Config
# --------------------------------------------------------------------------- #
class TestConfig:
    def test_attribute_access(self):
        cfg = Config(a=1, nested=Config(b=2))
        assert cfg.a == 1
        assert cfg.nested.b == 2

    def test_missing_attribute_raises(self):
        with pytest.raises(AttributeError):
            _ = Config().missing

    def test_set_and_delete_attribute(self):
        cfg = Config()
        cfg.x = 5
        assert cfg["x"] == 5
        del cfg.x
        assert "x" not in cfg

    def test_from_dict_recursive(self):
        cfg = Config.from_dict({"model": {"name": "fno", "inner": {"modes": 8}}})
        assert isinstance(cfg.model, Config)
        assert cfg.model.inner.modes == 8

    def test_to_dict_roundtrip(self):
        original = {"a": 1, "b": {"c": [1, 2, 3]}}
        assert Config.from_dict(original).to_dict() == original

    def test_merged_does_not_mutate(self):
        base = Config.from_dict({"model": {"width": 16, "depth": 4}})
        merged = base.merged({"model": {"width": 32}})
        assert merged.model.width == 32
        assert merged.model.depth == 4
        assert base.model.width == 16

    def test_json_roundtrip(self):
        cfg = Config.from_dict({"a": 1, "b": {"c": "x"}})
        assert Config.from_json(cfg.to_json()) == cfg

    def test_flat_items(self):
        cfg = Config.from_dict({"a": 1, "b": {"c": 2}})
        assert dict(cfg.flat_items()) == {"a": 1, "b.c": 2}


# --------------------------------------------------------------------------- #
# RNG
# --------------------------------------------------------------------------- #
class TestRng:
    def test_same_seed_same_stream(self):
        assert get_rng(7).normal() == get_rng(7).normal()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert get_rng(gen) is gen

    def test_seed_everything_sets_default(self):
        seed_everything(11)
        first = get_rng().normal()
        seed_everything(11)
        assert get_rng().normal() == first


# --------------------------------------------------------------------------- #
# numerics
# --------------------------------------------------------------------------- #
class TestNormalizedL2:
    def test_zero_for_identical(self):
        x = np.arange(12.0).reshape(3, 4)
        assert normalized_l2(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_one_for_zero_prediction(self):
        target = np.ones((4, 4))
        assert normalized_l2(np.zeros_like(target), target) == pytest.approx(1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            normalized_l2(np.zeros(3), np.zeros(4))

    def test_complex_input(self):
        target = np.ones((3, 3)) * (1 + 1j)
        assert normalized_l2(target, target) == pytest.approx(0.0, abs=1e-9)

    @given(
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
        st.floats(0.1, 5.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, target, scale):
        pred = target * 0.5
        if np.linalg.norm(target) < 1e-6:
            return
        assert normalized_l2(pred * scale, target * scale) == pytest.approx(
            normalized_l2(pred, target), rel=1e-6
        )


class TestVectorNorm:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.complex64])
    def test_matches_linalg_norm(self, dtype):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 9))
        if np.dtype(dtype).kind == "c":
            x = x + 1j * rng.standard_normal((7, 9))
        x = x.astype(dtype)
        expected = float(np.linalg.norm(x.ravel()))
        rel = 1e-6 if dtype == np.complex64 else 1e-14
        assert vector_norm(x) == pytest.approx(expected, rel=rel)
        assert vector_norm(np.zeros(3, dtype=dtype)) == 0.0


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_opposite_vectors(self):
        v = np.array([1.0, -2.0, 0.5])
        assert cosine_similarity(v, -v) == pytest.approx(-1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_zero_vector_returns_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    @given(hnp.arrays(np.float64, (10,), elements=st.floats(-5, 5)), st.floats(0.01, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_positive_scaling_invariance(self, v, scale):
        if np.linalg.norm(v) < 1e-6:
            return
        w = np.roll(v, 1) + 0.1
        assert cosine_similarity(v * scale, w) == pytest.approx(cosine_similarity(v, w), abs=1e-8)


class TestComplexChannels:
    @given(hnp.arrays(np.complex128, (5, 6), elements=st.complex_numbers(max_magnitude=10)))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, field):
        channels = complex_to_channels(field)
        assert channels.shape == (2, 5, 6)
        np.testing.assert_allclose(channels_to_complex(channels), field)

    def test_channels_to_complex_requires_two_channels(self):
        with pytest.raises(ValueError):
            channels_to_complex(np.zeros((3, 4, 4)))


class TestResampleBilinear:
    def test_identity_when_same_shape(self):
        x = np.random.default_rng(0).normal(size=(7, 5))
        np.testing.assert_allclose(resample_bilinear(x, (7, 5)), x)

    def test_constant_preserved(self):
        x = np.full((6, 6), 3.5)
        np.testing.assert_allclose(resample_bilinear(x, (11, 4)), 3.5)

    def test_upsample_shape(self):
        assert resample_bilinear(np.ones((4, 5)), (8, 10)).shape == (8, 10)

    def test_complex_resampling(self):
        x = np.ones((4, 4)) + 1j * np.ones((4, 4))
        out = resample_bilinear(x, (8, 8))
        assert np.iscomplexobj(out)
        np.testing.assert_allclose(out, 1 + 1j)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            resample_bilinear(np.zeros((2, 2, 2)), (4, 4))


# --------------------------------------------------------------------------- #
# BoundedLru
# --------------------------------------------------------------------------- #
class TestBoundedLru:
    def test_evicts_least_recently_used(self):
        cache = BoundedLru(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # touch: "b" is now the oldest
        cache.put("c", 3)
        assert cache.keys() == ["a", "c"]
        assert cache.get("b") is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_put_existing_key_refreshes_without_duplicate(self):
        cache = BoundedLru(maxsize=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.keys() == ["b", "a"]
        assert len(cache) == 2
        assert cache.get("a") == 10

    def test_maxsize_zero_keeps_one_entry(self):
        cache = BoundedLru(maxsize=0)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.keys() == ["b"]

    def test_clear_zeroes_counters(self):
        cache = BoundedLru(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)
