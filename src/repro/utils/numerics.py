"""Shared numerical helpers used by the solver, metrics and surrogates."""

from __future__ import annotations

import numpy as np


def vector_norm(x: np.ndarray) -> float:
    """L2 norm of a (real or complex) array as an explicit ``sqrt(sum |x|^2)``.

    ``np.linalg.norm`` of a complex vector dispatches two strided BLAS dot
    products; threaded BLAS builds can take milliseconds for what this
    reduction does in well under one.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return float(np.sqrt(np.sum(x.real**2) + np.sum(x.imag**2)))
    return float(np.sqrt(np.sum(x * x)))


def normalized_l2(pred: np.ndarray, target: np.ndarray, eps: float = 1e-12) -> float:
    """Normalized L2 norm ``||pred - target|| / ||target||``.

    This is the field-prediction metric reported throughout the MAPS paper
    ("N-L2norm").  Works on real or complex arrays of any shape.
    """
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    num = np.linalg.norm((pred - target).ravel())
    den = np.linalg.norm(target.ravel())
    return float(num / (den + eps))


def cosine_similarity(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> float:
    """Cosine similarity between two flattened real vectors.

    Used as the "gradient similarity" metric: the alignment between an
    adjoint gradient computed from predicted fields and the ground-truth
    gradient from the numerical solver.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < eps or nb < eps:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def complex_to_channels(field: np.ndarray) -> np.ndarray:
    """Stack a complex array into two real channels (real, imaginary).

    ``(H, W)`` complex → ``(2, H, W)`` float.  Surrogate models operate on real
    tensors, so complex fields are carried as channel pairs.
    """
    field = np.asarray(field)
    return np.stack([field.real, field.imag], axis=0).astype(np.float64)


def channels_to_complex(channels: np.ndarray) -> np.ndarray:
    """Inverse of :func:`complex_to_channels`: ``(2, H, W)`` → complex ``(H, W)``."""
    channels = np.asarray(channels)
    if channels.shape[0] != 2:
        raise ValueError(f"expected leading dimension 2, got {channels.shape}")
    return channels[0] + 1j * channels[1]


def soft_clip(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Clip values into ``[lo, hi]`` (simple wrapper kept for readability)."""
    return np.clip(x, lo, hi)


def resample_bilinear(array: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Resample a 2-D array to ``shape`` with bilinear interpolation.

    Used to map between coarse (low-fidelity) and fine (high-fidelity) grids
    and to feed coarse designs into models trained at a different resolution.
    Handles real and complex input.
    """
    array = np.asarray(array)
    if array.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {array.shape}")
    if np.iscomplexobj(array):
        real = resample_bilinear(array.real, shape)
        imag = resample_bilinear(array.imag, shape)
        return real + 1j * imag

    src_h, src_w = array.shape
    dst_h, dst_w = shape
    if (src_h, src_w) == (dst_h, dst_w):
        return array.copy()

    # Coordinates of destination pixel centres in source pixel units.
    ys = (np.arange(dst_h) + 0.5) * src_h / dst_h - 0.5
    xs = (np.arange(dst_w) + 0.5) * src_w / dst_w - 0.5
    ys = np.clip(ys, 0, src_h - 1)
    xs = np.clip(xs, 0, src_w - 1)

    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]

    top = array[np.ix_(y0, x0)] * (1 - wx) + array[np.ix_(y0, x1)] * wx
    bot = array[np.ix_(y1, x0)] * (1 - wx) + array[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bot * wy
