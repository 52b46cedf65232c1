"""Full-FFT reference implementation of the FNO spectral convolutions.

``repro.autograd.functional`` evaluates the retained corner modes with
truncated DFT matrices.  This module keeps the textbook formulation those
kernels replaced — a full ``np.fft`` transform, a gather of the corner modes,
the channel mix, a scatter into a zero spectrum and a full inverse transform —
as an independent oracle for the tests in ``test_autograd_functional.py`` and
as the baseline of the ratio gate in ``benchmarks/bench_training.py``.

Both functions take plain arrays and return ``(out, grads)``: ``out`` is the
forward value and ``grads`` is ``None`` or, when ``grad_out`` (the cotangent
of ``out``) is given, the tuple ``(dL/dx, dL/dw_real, dL/dw_imag)``.
"""

from __future__ import annotations

import numpy as np


def corner_indices(size: int, modes: int) -> np.ndarray:
    """Indices of the lowest ``modes`` positive and negative frequencies."""
    return np.concatenate([np.arange(modes), np.arange(size - modes, size)])


def spectral_conv2d_ref(x, w_real, w_imag, modes, grad_out=None):
    """``Re(IFFT2(W ⊙ FFT2(x)))`` on the corner modes, with its cotangents."""
    m1, m2 = modes
    batch, c_in, height, width = x.shape
    c_out = w_real.shape[1]
    rows = corner_indices(height, m1)[:, None]
    cols = corner_indices(width, m2)[None, :]

    x_modes = np.fft.fft2(x)[:, :, rows, cols]
    weight = w_real + 1j * w_imag
    full = np.zeros((batch, c_out, height, width), dtype=complex)
    full[:, :, rows, cols] = np.einsum("bimn,iomn->bomn", x_modes, weight)
    out = np.real(np.fft.ifft2(full)).astype(x.dtype)
    if grad_out is None:
        return out, None

    g_p = np.fft.fft2(grad_out)[:, :, rows, cols] / (height * width)
    grad_weight = np.einsum("bimn,bomn->iomn", np.conj(x_modes), g_p)
    g_x_full = np.zeros((batch, c_in, height, width), dtype=complex)
    g_x_full[:, :, rows, cols] = np.einsum("bomn,iomn->bimn", g_p, np.conj(weight))
    grad_x = (height * width) * np.real(np.fft.ifft2(g_x_full))
    return out, (grad_x.astype(x.dtype), np.real(grad_weight), np.imag(grad_weight))


def spectral_conv1d_ref(x, w_real, w_imag, modes, axis, grad_out=None):
    """The 1-D corner-mode convolution along ``axis`` (-1 or -2), with cotangents."""
    size = x.shape[axis]
    idx = corner_indices(size, modes)
    indexer = [slice(None)] * 4
    indexer[axis] = idx
    indexer = tuple(indexer)
    mix = "bimw,iom->bomw" if axis == -2 else "bihm,iom->bohm"
    mix_back = "bomw,iom->bimw" if axis == -2 else "bohm,iom->bihm"
    grad_mix = "bimw,bomw->iom" if axis == -2 else "bihm,bohm->iom"

    x_modes = np.fft.fft(x, axis=axis)[indexer]
    weight = w_real + 1j * w_imag
    out_shape = list(x.shape)
    out_shape[1] = w_real.shape[1]
    full = np.zeros(out_shape, dtype=complex)
    full[indexer] = np.einsum(mix, x_modes, weight)
    out = np.real(np.fft.ifft(full, axis=axis)).astype(x.dtype)
    if grad_out is None:
        return out, None

    g_p = np.fft.fft(grad_out, axis=axis)[indexer] / size
    grad_weight = np.einsum(grad_mix, np.conj(x_modes), g_p)
    g_x_full = np.zeros(x.shape, dtype=complex)
    g_x_full[indexer] = np.einsum(mix_back, g_p, np.conj(weight))
    grad_x = size * np.real(np.fft.ifft(g_x_full, axis=axis))
    return out, (grad_x.astype(x.dtype), np.real(grad_weight), np.imag(grad_weight))
