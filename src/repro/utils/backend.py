"""Thin array-namespace seam: NumPy by default, CuPy/torch when present.

Everything numerical in this repository is written against the NumPy API.
This module is the single place that decides *which* array namespace actually
executes that API — the seam the dense residual/axpy work of
:func:`~repro.fdfd.engine.mixed_precision_refine` (the
:class:`~repro.fdfd.engine.RefinedEngine` tier) sits on top of:

* ``numpy`` — always available, always the default.  Nothing in the test
  suite or the benchmarks requires anything else.
* ``cupy`` — auto-detected when importable *and* a CUDA device answers; the
  namespace is NumPy-compatible, so dense kernels offload unchanged.
* ``torch`` — auto-detected when importable; arrays are bridged through
  ``torch.from_numpy`` / ``Tensor.numpy()`` (zero-copy on CPU).

Detection never raises and optional backends are never imported unless asked
for: ``available_backends()`` on a NumPy-only machine is ``["numpy"]`` and
every default path costs one dict lookup.  Select a non-default backend
explicitly (``get_backend("cupy")``, ``set_default_backend``) or process-wide
via ``REPRO_ARRAY_BACKEND=<name>``; asking for a backend whose import fails
raises with the import error attached rather than silently falling back, so a
mis-provisioned GPU job fails loudly at configuration time.

The sparse factorizations themselves stay on SciPy/CPU for now — the seam
covers the dense array math around them, which is exactly the split the
mixed-precision ``refined`` tier needs and the future ``gpu`` tier widens.
"""

from __future__ import annotations

import importlib
import os
import threading

import numpy as np

__all__ = [
    "ArrayBackend",
    "available_backends",
    "backend_names",
    "default_namespace",
    "get_backend",
    "set_default_backend",
]

#: Registry order doubles as auto-detection preference (numpy always first).
_BACKEND_NAMES = ("numpy", "cupy", "torch")

_lock = threading.Lock()
_backends: dict[str, "ArrayBackend"] = {}
_default_name: str | None = None


class ArrayBackend:
    """One array namespace plus the conversions in and out of NumPy.

    ``xp`` is the NumPy-compatible module to write kernels against
    (``backend.xp.add(...)``); ``asarray``/``to_numpy`` move data across
    the host boundary (both are identity for the NumPy backend, so CPU-only
    code pays nothing for being written against the seam).
    """

    __slots__ = ("name", "xp", "is_gpu", "_to_numpy")

    def __init__(self, name: str, xp, is_gpu: bool, to_numpy=None):
        self.name = name
        self.xp = xp
        self.is_gpu = bool(is_gpu)
        self._to_numpy = to_numpy

    def asarray(self, array, dtype=None):
        """Bring ``array`` into this backend's namespace."""
        if dtype is None:
            return self.xp.asarray(array)
        return self.xp.asarray(array, dtype=dtype)

    def to_numpy(self, array) -> np.ndarray:
        """Bring an array of this namespace back to host NumPy."""
        if self._to_numpy is not None:
            return self._to_numpy(array)
        return np.asarray(array)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayBackend({self.name!r}, gpu={self.is_gpu})"


def _build_backend(name: str) -> ArrayBackend:
    """Construct a backend, raising ImportError when its stack is absent."""
    if name == "numpy":
        return ArrayBackend("numpy", np, is_gpu=False)
    if name == "cupy":
        cupy = importlib.import_module("cupy")
        # A CUDA runtime without a device raises here, not mid-solve.
        cupy.cuda.runtime.getDeviceCount()
        return ArrayBackend("cupy", cupy, is_gpu=True, to_numpy=cupy.asnumpy)
    if name == "torch":
        torch = importlib.import_module("torch")

        class _TorchNamespace:
            """``torch`` with NumPy-flavoured ``asarray`` dtype handling."""

            def __getattr__(self, attr):
                return getattr(torch, attr)

            @staticmethod
            def asarray(array, dtype=None):
                tensor = torch.as_tensor(np.asarray(array))
                if dtype is not None:
                    tensor = tensor.to(_torch_dtype(torch, dtype))
                return tensor

        def to_numpy(tensor):
            return tensor.detach().cpu().numpy()

        return ArrayBackend(
            "torch",
            _TorchNamespace(),
            is_gpu=bool(torch.cuda.is_available()),
            to_numpy=to_numpy,
        )
    raise ValueError(f"unknown array backend {name!r}; known: {list(_BACKEND_NAMES)}")


def _torch_dtype(torch, dtype):
    """Map a NumPy dtype spec onto the torch dtype enum."""
    mapping = {
        "float32": torch.float32,
        "float64": torch.float64,
        "complex64": torch.complex64,
        "complex128": torch.complex128,
        "int64": torch.int64,
        "int32": torch.int32,
        "bool": torch.bool,
    }
    key = np.dtype(dtype).name
    if key not in mapping:  # pragma: no cover - exotic dtype
        raise TypeError(f"no torch equivalent for dtype {dtype!r}")
    return mapping[key]


def backend_names() -> list[str]:
    """Every name :func:`get_backend` understands (installed or not)."""
    return list(_BACKEND_NAMES)


def available_backends() -> list[str]:
    """Backends that actually import on this machine (``numpy`` always).

    Optional stacks are probed at most once per process; a probe failure is
    cached as "unavailable", never raised.
    """
    names = []
    for name in _BACKEND_NAMES:
        try:
            get_backend(name)
        except Exception:
            continue
        names.append(name)
    return names


def get_backend(name: str | None = None) -> ArrayBackend:
    """Resolve an array backend by name (cached per process).

    ``None`` resolves the process default: an explicit
    :func:`set_default_backend` wins, then a non-empty
    ``REPRO_ARRAY_BACKEND``, then ``numpy``.  Unknown names raise
    ``ValueError``; known-but-unimportable ones re-raise the import error.
    """
    if name is None:
        name = _default_name or os.environ.get("REPRO_ARRAY_BACKEND", "") or "numpy"
    name = name.lower().strip()
    if name not in _BACKEND_NAMES:
        raise ValueError(f"unknown array backend {name!r}; known: {list(_BACKEND_NAMES)}")
    with _lock:
        backend = _backends.get(name)
        if backend is None:
            _backends[name] = backend = _build_backend(name)
        return backend


def set_default_backend(name: str | None) -> None:
    """Fix the process-default backend (``None`` restores env/NumPy resolution).

    Resolves eagerly so a bad name or a missing stack fails here — at
    configuration time — rather than inside the first worker solve.
    """
    global _default_name
    if name is not None:
        get_backend(name)
        name = name.lower().strip()
    _default_name = name


def default_namespace():
    """The default backend's array namespace (``numpy`` unless configured).

    CPU-only installs get literally ``numpy`` back.
    """
    return get_backend().xp
