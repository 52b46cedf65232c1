"""Tests for the array-namespace seam (repro.utils.backend).

The suite must pass on a NumPy-only machine: optional backends (cupy, torch)
are exercised only through the detection contract — never imported directly.
"""

import importlib.util

import numpy as np
import pytest

from repro.utils import backend as array_backend


@pytest.fixture(autouse=True)
def _reset_default():
    """Every test starts and ends with env/NumPy default resolution."""
    array_backend.set_default_backend(None)
    yield
    array_backend.set_default_backend(None)


class TestResolution:
    def test_numpy_always_known_and_available(self):
        assert "numpy" in array_backend.backend_names()
        assert "numpy" in array_backend.available_backends()

    def test_default_is_numpy(self):
        backend = array_backend.get_backend()
        assert backend.name == "numpy"
        assert backend.xp is np
        assert not backend.is_gpu
        assert array_backend.default_namespace() is np

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            array_backend.get_backend("tpu")
        with pytest.raises(ValueError):
            array_backend.set_default_backend("tpu")

    def test_names_are_case_insensitive(self):
        assert array_backend.get_backend("NumPy").name == "numpy"

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", "numpy")
        assert array_backend.get_backend().name == "numpy"

    def test_set_default_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", "definitely-not-a-backend")
        # An explicit default short-circuits env resolution entirely.
        array_backend.set_default_backend("numpy")
        assert array_backend.get_backend().name == "numpy"

    def test_missing_optional_backend_fails_loudly(self):
        """Asking for an uninstalled stack raises; detection never does."""
        for name in ("cupy", "torch"):
            if importlib.util.find_spec(name) is not None:
                continue  # installed here: the loud-failure path is moot
            with pytest.raises(ImportError):
                array_backend.get_backend(name)
            assert name not in array_backend.available_backends()

    def test_backend_caching(self):
        assert array_backend.get_backend("numpy") is array_backend.get_backend("numpy")


class TestNumpyBackend:
    def test_asarray_and_to_numpy_are_identity(self):
        backend = array_backend.get_backend("numpy")
        data = np.arange(6.0).reshape(2, 3)
        assert backend.asarray(data) is data
        out = backend.to_numpy(backend.asarray(data, dtype=np.complex128))
        assert out.dtype == np.complex128
        np.testing.assert_array_equal(out, data)

