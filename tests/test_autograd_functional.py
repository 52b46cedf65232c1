"""Gradient checks for the fused primitives: convolution, pooling, FFT operators."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradient, functional as F
from tests.helpers.spectral_ref import spectral_conv1d_ref, spectral_conv2d_ref


def tensor_of(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(scale * rng.normal(size=shape), requires_grad=True)


class TestPadCrop:
    def test_pad_values(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        out = F.pad2d(x, (1, 1, 2, 2), value=5.0)
        assert out.shape == (1, 1, 4, 6)
        assert out.data[0, 0, 0, 0] == 5.0
        assert out.data[0, 0, 1, 2] == 1.0

    def test_pad_gradient(self):
        x = tensor_of((2, 3, 4, 5), seed=1)
        assert check_gradient(lambda x: F.pad2d(x, (1, 0, 2, 1)), [x]) < 1e-6

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError):
            F.pad2d(Tensor(np.ones((1, 1, 2, 2))), (-1, 0, 0, 0))

    def test_crop(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.crop2d(x, (2, 3))
        assert out.shape == (1, 1, 2, 3)

    def test_crop_too_large_rejected(self):
        with pytest.raises(ValueError):
            F.crop2d(Tensor(np.ones((1, 1, 2, 2))), (3, 2))


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_gradients(self, stride, padding):
        x = tensor_of((2, 3, 6, 7), seed=0)
        w = tensor_of((4, 3, 3, 3), seed=1)
        b = tensor_of((4,), seed=2)
        err = check_gradient(
            lambda x, w, b: F.conv2d(x, w, b, stride=stride, padding=padding), [x, w, b]
        )
        assert err < 1e-4

    def test_output_shape(self):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        w = Tensor(np.zeros((5, 2, 3, 3)))
        assert F.conv2d(x, w, None, stride=2, padding=1).shape == (1, 5, 4, 4)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        np.testing.assert_allclose(F.conv2d(x, w).data, x.data)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_kernel_larger_than_input_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))


class TestPoolingAndUpsampling:
    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradient(self):
        x = tensor_of((2, 3, 4, 6), seed=3)
        assert check_gradient(lambda x: F.avg_pool2d(x, 2), [x]) < 1e-6

    def test_avg_pool_indivisible_raises(self):
        with pytest.raises(ValueError):
            F.avg_pool2d(Tensor(np.zeros((1, 1, 5, 4))), 2)

    def test_upsample_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = F.upsample_nearest(x, 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out.data[0, 0, :2, :2], 1.0)

    def test_upsample_gradient(self):
        x = tensor_of((1, 2, 3, 3), seed=4)
        assert check_gradient(lambda x: F.upsample_nearest(x, 3), [x]) < 1e-6

    def test_pool_then_upsample_preserves_mean(self):
        x = tensor_of((1, 1, 4, 4), seed=5)
        out = F.upsample_nearest(F.avg_pool2d(x, 2), 2)
        assert out.data.mean() == pytest.approx(x.data.mean())


class TestSpectralConv:
    def test_spectral2d_gradient(self):
        x = tensor_of((2, 2, 8, 8), seed=0)
        wr = tensor_of((2, 3, 4, 4), seed=1, scale=0.1)
        wi = tensor_of((2, 3, 4, 4), seed=2, scale=0.1)
        err = check_gradient(lambda x, wr, wi: F.spectral_conv2d(x, wr, wi, (2, 2)), [x, wr, wi])
        assert err < 1e-4

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_spectral1d_gradient(self, axis):
        x = tensor_of((2, 2, 8, 6), seed=0)
        wr = tensor_of((2, 3, 4), seed=1, scale=0.1)
        wi = tensor_of((2, 3, 4), seed=2, scale=0.1)
        err = check_gradient(
            lambda x, wr, wi: F.spectral_conv1d(x, wr, wi, 2, axis=axis), [x, wr, wi]
        )
        assert err < 1e-4

    def test_spectral2d_output_shape(self):
        x = Tensor(np.zeros((1, 3, 10, 12)))
        wr = Tensor(np.zeros((3, 5, 6, 4)))
        wi = Tensor(np.zeros((3, 5, 6, 4)))
        assert F.spectral_conv2d(x, wr, wi, (3, 2)).shape == (1, 5, 10, 12)

    def test_spectral2d_identity_weight_low_pass(self):
        """Identity weights on all retained modes act as a spectral low-pass filter."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 1, 16, 16)))
        modes = (8, 8)
        wr = np.zeros((1, 1, 16, 16))
        wr[0, 0] = 1.0
        out = F.spectral_conv2d(x, Tensor(wr), Tensor(np.zeros_like(wr)), modes)
        # With all modes retained and unit weights the operation is the identity.
        np.testing.assert_allclose(out.data, x.data, atol=1e-10)

    def test_too_many_modes_rejected(self):
        x = Tensor(np.zeros((1, 1, 8, 8)))
        wr = Tensor(np.zeros((1, 1, 10, 10)))
        with pytest.raises(ValueError):
            F.spectral_conv2d(x, wr, wr, (5, 5))

    def test_weight_shape_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        wr = Tensor(np.zeros((2, 2, 4, 2)))
        with pytest.raises(ValueError):
            F.spectral_conv2d(x, wr, wr, (2, 2))


def relative_error(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


def spectral_case(x_shape, w_shape, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=x_shape), requires_grad=True, dtype=dtype)
    w_real = Tensor(0.1 * rng.normal(size=w_shape), requires_grad=True)
    w_imag = Tensor(0.1 * rng.normal(size=w_shape), requires_grad=True)
    return rng, x, w_real, w_imag


def assert_matches_reference(op, reference, x, w_real, w_imag, rng, rtol=1e-12):
    """Forward value and all three cotangents against the full-FFT oracle."""
    out = op(x, w_real, w_imag)
    grad_out = rng.normal(size=out.shape)
    out.backward(grad_out)
    ref_out, ref_grads = reference(x.data, w_real.data, w_imag.data, grad_out)
    assert relative_error(out.data, ref_out) <= rtol
    for actual, expected in zip((x.grad, w_real.grad, w_imag.grad), ref_grads):
        assert relative_error(actual, expected) <= rtol


class TestSpectralConvReference:
    """The truncated-DFT kernels against the ``np.fft`` formulation they replaced."""

    @pytest.mark.parametrize(
        "size, modes",
        [
            ((16, 16), (3, 3)),  # even
            ((15, 15), (4, 4)),  # odd
            ((12, 21), (5, 7)),  # non-square
            ((16, 10), (8, 5)),  # 2m = N on both axes
            ((56, 56), (6, 6)),  # the benchmark scale
        ],
    )
    def test_spectral2d_matches_fft(self, size, modes):
        rng, x, wr, wi = spectral_case((2, 3) + size, (3, 4, 2 * modes[0], 2 * modes[1]), 0)
        assert_matches_reference(
            lambda x, wr, wi: F.spectral_conv2d(x, wr, wi, modes),
            lambda x, wr, wi, g: spectral_conv2d_ref(x, wr, wi, modes, grad_out=g),
            x, wr, wi, rng,
        )

    @pytest.mark.parametrize("axis", [-1, -2])
    @pytest.mark.parametrize(
        "size, modes",
        [((16, 16), 3), ((15, 15), 4), ((12, 21), 5), ((10, 10), 5)],
    )
    def test_spectral1d_matches_fft(self, size, modes, axis):
        rng, x, wr, wi = spectral_case((2, 3) + size, (3, 4, 2 * modes), 1)
        assert_matches_reference(
            lambda x, wr, wi: F.spectral_conv1d(x, wr, wi, modes, axis=axis),
            lambda x, wr, wi, g: spectral_conv1d_ref(x, wr, wi, modes, axis, grad_out=g),
            x, wr, wi, rng,
        )

    def test_float32_input_keeps_its_precision(self):
        """A float32 input yields float32-rounded values and a float32 gradient.

        Tensor wraps every op output in float64, so the op's dtype contract is
        visible as values that round-trip through float32 exactly.  The
        oracle runs on the same input in float64: its own float32 FFT path
        rounds in complex64, so the comparison is at float32 precision.
        """
        rng, x, wr, wi = spectral_case((2, 3, 14, 9), (3, 4, 6, 4), 2, dtype=np.float32)
        out = F.spectral_conv2d(x, wr, wi, (3, 2))
        grad_out = rng.normal(size=out.shape)
        out.backward(grad_out)
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(out.data, out.data.astype(np.float32))
        ref_out, ref_grads = spectral_conv2d_ref(
            x.data.astype(np.float64), wr.data, wi.data, (3, 2), grad_out=grad_out
        )
        assert relative_error(out.data, ref_out) <= 1e-6
        for actual, expected in zip((x.grad, wr.grad, wi.grad), ref_grads):
            assert relative_error(actual, expected) <= 1e-6


class TestGelu:
    """``gelu`` against the tanh formula evaluated with ``np.power``."""

    @staticmethod
    def reference(x):
        c = np.sqrt(2.0 / np.pi)
        t = np.tanh(c * (x + 0.044715 * np.power(x, 3)))
        value = 0.5 * x * (1.0 + t)
        grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - np.power(t, 2)) * c * (
            1.0 + 3 * 0.044715 * np.power(x, 2)
        )
        return value, grad

    def test_value_and_gradient_match_formula(self):
        """Relative to ``max(|ref|, 1)``: for x << 0 both sides cancel in ``1 + tanh``.

        There ``gelu`` is ~1e-7 or less and one ulp of ``tanh`` near -1 moves
        it by ~1e-12 relative in either formulation, so the far tail is pinned
        to 1e-14 absolute instead.
        """
        x = np.concatenate([np.linspace(-30.0, 30.0, 6001), [0.0, -1e-8, 1e-8]])
        tensor = Tensor(x, requires_grad=True)
        out = tensor.gelu()
        out.backward(np.ones_like(x))
        ref_value, ref_grad = self.reference(x)
        for actual, expected in ((out.data, ref_value), (tensor.grad, ref_grad)):
            scale = np.maximum(np.abs(expected), 1.0)
            assert (np.abs(actual - expected) / scale).max() <= 1e-14

    def test_fixed_points(self):
        out = Tensor(np.array([0.0, -30.0, 30.0])).gelu()
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 30.0])


class TestDropoutSoftplus:
    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = F.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((2000,)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.1)

    def test_dropout_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True, rng=np.random.default_rng(0))

    def test_softplus_gradient(self):
        x = tensor_of((3, 3), seed=6)
        assert check_gradient(lambda x: F.softplus(x), [x]) < 1e-5

    def test_softplus_positive(self):
        out = F.softplus(Tensor(np.linspace(-10, 10, 21)))
        assert (out.data > 0).all()
