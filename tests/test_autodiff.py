import numpy as np
import pytest

from rseg import autodiff as ad
from rseg.gradcheck import max_rel_error, numeric_grad

from _opchecks import OP_CASES


def t(data, rg=False):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestElementwise:
    def test_add_values(self):
        out = ad.add(t([1.0, 2.0]), t([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_log_of_one(self):
        np.testing.assert_array_equal(ad.log(t([1.0])).data, [0.0])

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ad.log(t([1.0, 0.0]))
        with pytest.raises(ValueError):
            ad.log(t([-0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ad.add(t([1.0, 2.0]), t([[1.0], [2.0]]))
        with pytest.raises(ValueError):
            ad.mul(t([1.0, 2.0]), t([1.0, 2.0, 3.0]))

    def test_mul_gradient_matches_finite_difference(self):
        a = np.array([2.0])
        b = np.array([3.0])
        ta, tb = t(a, rg=True), t(b, rg=True)
        ad.backward(ad.reduce_sum(ad.mul(ta, tb)))
        assert ta.grad[0] == pytest.approx(3.0)
        num = numeric_grad(lambda: float((a * b).sum()), a, h=1e-5)
        assert max_rel_error(ta.grad, num) <= 1e-6

    def test_relu_values(self):
        np.testing.assert_array_equal(ad.relu(t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_relu_all_negative_zero_gradient(self):
        x = t([-3.0, -1.0, -0.5], rg=True)
        ad.backward(ad.reduce_sum(ad.relu(x)))
        np.testing.assert_array_equal(ad.relu(x).data, np.zeros(3))
        np.testing.assert_array_equal(x.grad, np.zeros(3))


class TestSigmoid:
    def test_midpoint(self):
        assert ad.sigmoid(t([0.0])).data[0] == pytest.approx(0.5)

    def test_derivative_at_zero(self):
        x = t([0.0], rg=True)
        ad.backward(ad.reduce_sum(ad.sigmoid(x)))
        assert x.grad[0] == pytest.approx(0.25)

    def test_extreme_negative_input_stays_positive(self):
        v = ad.sigmoid(t([-1000.0])).data[0]
        assert 0.0 < v <= 1e-300
        assert np.isfinite(v)

    def test_extreme_positive_input_stays_below_one(self):
        v = ad.sigmoid(t([1000.0])).data[0]
        assert v < 1.0
        assert np.isfinite(v)

    @pytest.mark.parametrize("scale", [1.0, 50.0, 1e4])
    def test_output_strictly_inside_unit_interval(self, scale):
        rng = np.random.default_rng(3)
        x = rng.normal(size=64) * scale
        s = ad.sigmoid(t(x)).data
        assert np.all(s > 0.0) and np.all(s < 1.0)
        assert not np.any(np.isnan(s))


class TestConv2d:
    def test_identity_kernel_scales(self):
        x = t(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        w = t(np.array([[2.0]]).reshape(1, 1, 1, 1))
        out = ad.conv2d(x, w, t([0.0]), (1, 1), (0, 0))
        np.testing.assert_array_equal(out.data.reshape(2, 2), [[2.0, 4.0], [6.0, 8.0]])

    def test_full_window_stride_two(self):
        x = t(np.ones((1, 1, 2, 2)))
        w = t(np.ones((1, 1, 2, 2)))
        out = ad.conv2d(x, w, t([0.0]), (2, 2), (0, 0))
        np.testing.assert_array_equal(out.data, np.full((1, 1, 1, 1), 4.0))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ad.conv2d(t(np.ones((1, 2, 4, 4))), t(np.ones((1, 3, 3, 3))), t([0.0]))

    def test_non_positive_output_extent_rejected(self):
        with pytest.raises(ValueError):
            ad.conv2d(t(np.ones((1, 1, 2, 2))), t(np.ones((1, 1, 5, 5))), t([0.0]))

    @pytest.mark.parametrize("pad", [(3, 3), (0, 4)])
    def test_pad_not_smaller_than_kernel_rejected(self, pad):
        with pytest.raises(ValueError, match="padding"):
            ad.conv2d(t(np.ones((1, 1, 4, 4))), t(np.ones((1, 1, 3, 3))), t([0.0]), (1, 1), pad)

    def test_gradients_match_finite_differences(self):
        assert OP_CASES["conv2d"][0](np.random.default_rng(11)) <= 1e-5

    # side 16 takes the shift form, side 5 im2col
    @pytest.mark.parametrize("side", [16, 5])
    def test_no_bias_is_the_biased_call_less_its_bias(self, side):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(1, 4, side, side))
        w = rng.normal(size=(4, 4, 3, 3))
        b = rng.normal(size=(4,))
        coef = t(rng.normal(size=(1, 4, side, side)))
        outs, grads = [], []
        for bias in (t(b), None):
            tx, tw = t(x, rg=True), t(w, rg=True)
            out = ad.conv2d(tx, tw, bias, (1, 1), (1, 1))
            ad.backward(ad.reduce_sum(ad.mul(out, coef)))
            outs.append(out.data)
            grads.append(tx.grad.tobytes() + tw.grad.tobytes())
        assert outs[0].tobytes() == (outs[1] + b.reshape(1, 4, 1, 1)).tobytes()
        assert grads[0] == grads[1]

    def test_forward_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        a1 = ad.conv2d(t(x), t(w), t(b), (1, 1), (1, 1)).data
        a2 = ad.conv2d(t(x), t(w), t(b), (1, 1), (1, 1)).data
        np.testing.assert_array_equal(a1, a2)

    # <conv(x), z> = <x, backward(z)>: the input gradient is the adjoint of
    # the forward map; at h=8, stride 2 and no padding the last row is unread
    @pytest.mark.parametrize(
        "stride,pad,h",
        [((1, 1), (0, 0), 6), ((2, 2), (0, 0), 7), ((2, 2), (1, 1), 7), ((2, 2), (0, 0), 8)],
    )
    def test_input_gradient_adjoint(self, stride, pad, h):
        rng = np.random.default_rng(17)
        cin, cout = 3, 2
        x = rng.normal(size=(1, cin, h, h))
        w = rng.normal(size=(cout, cin, 3, 3))
        tx = t(x, rg=True)
        fwd = ad.conv2d(tx, t(w), t(np.zeros(cout)), stride, pad)
        z = rng.normal(size=fwd.shape)
        ad.backward(ad.reduce_sum(ad.mul(fwd, t(z))))
        lhs = float((fwd.data * z).sum())
        rhs = float((x * tx.grad).sum())
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs))


class TestWeightGradientAccumulation:
    """An incoming gradient is kept and never written; a conv weight owns its
    first product, any other tensor its first sum, and later contributions
    add into that buffer in place."""

    # 24 -> 24 channels, 3x3, pad 1: weight-bound while N*ho*wo < 12
    W_SHAPE = (24, 24, 3, 3)

    def test_shared_weight_adds_into_one_buffer(self):
        rng = np.random.default_rng(67)
        w_data = rng.normal(size=self.W_SHAPE)
        # replayed last first: weight-bound, pixel-bound, then N = 2 and N = 1
        shapes = [(1, 24, 2, 2), (2, 24, 2, 2), (1, 24, 6, 6), (1, 24, 2, 2)]
        w = t(w_data, rg=True)
        loss, xs, zs, seen = None, [], [], []
        for shape in shapes:
            xs.append(rng.normal(size=shape))
            out = ad.conv2d(t(xs[-1]), w, t(np.zeros(24)), (1, 1), (1, 1))
            out._backward = lambda g, _f=out._backward: _f(g) or seen.append(w.grad)
            zs.append(rng.normal(size=out.shape))
            term = ad.reduce_sum(ad.mul(out, t(zs[-1])))
            loss = term if loss is None else ad.add(loss, term)
        ad.backward(loss)
        # the first call's product is the buffer every later call writes
        assert seen[0] is seen[1] is seen[2] is seen[3] is w.grad is w._own
        # each call's gradient on its own, and the magnitudes of its products
        total = sum(self._one_call(w_data, x, z) for x, z in zip(xs, zs))
        magnitude = sum(self._one_call(w_data, np.abs(x), np.abs(z)) for x, z in zip(xs, zs))
        terms = sum(z[:, 0].size for z in zs) + len(zs)
        bound = 2 * terms * np.finfo(np.float64).eps * magnitude
        assert np.all(np.abs(w.grad - total) <= bound)

    @staticmethod
    def _one_call(w_data, x, z):
        w = t(w_data, rg=True)
        out = ad.conv2d(t(x), w, t(np.zeros(w.shape[0])), (1, 1), (1, 1))
        ad.backward(ad.reduce_sum(ad.mul(out, t(z))))
        return w.grad

    def test_weight_made_by_an_op_passes_gradcheck(self):
        # 4 -> 4 channels with one output pixel per call: weight-bound
        rng = np.random.default_rng(71)
        w0 = rng.normal(size=(4, 4, 3, 3))
        xs = [rng.normal(size=(1, 4, 3, 3)), rng.normal(size=(1, 4, 1, 1)),
              rng.normal(size=(1, 4, 1, 1))]
        pads = [(0, 0), (1, 1), (1, 1)]
        cs = [rng.normal(size=(1, 4, 1, 1)) for _ in xs]

        def build():
            leaf = ad.Tensor(w0, requires_grad=True)
            w = ad.scale(leaf, 1.5)
            loss = None
            for x, pad, c in zip(xs, pads, cs):
                out = ad.conv2d(t(x, rg=True), w, t(np.zeros(4)), (1, 1), pad)
                term = ad.reduce_sum(ad.mul(out, t(c)))
                loss = term if loss is None else ad.add(loss, term)
            return loss, leaf

        loss, leaf = build()
        ad.backward(loss)
        num = numeric_grad(lambda: float(build()[0].data), w0, h=1e-5)
        assert max_rel_error(leaf.grad, num) <= 1e-6

    def test_gradient_shared_with_another_tensor_is_never_written(self):
        rng = np.random.default_rng(73)
        w = t(rng.normal(size=self.W_SHAPE), rg=True)
        v = t(rng.normal(size=self.W_SHAPE), rg=True)
        c = rng.normal(size=self.W_SHAPE)
        loss = None
        for _ in range(3):
            out = ad.conv2d(t(rng.normal(size=(1, 24, 2, 2))), w, t(np.zeros(24)), (1, 1), (1, 1))
            term = ad.reduce_sum(ad.mul(out, t(rng.normal(size=out.shape))))
            loss = term if loss is None else ad.add(loss, term)
        # created last, so run first: w and v both receive the add's gradient
        shared = ad.add(w, v)
        seen = []
        shared._backward = lambda g, _f=shared._backward: seen.append(g) or _f(g)
        ad.backward(ad.add(loss, ad.reduce_sum(ad.mul(shared, t(c)))))
        assert v.grad is seen[0]
        np.testing.assert_array_equal(v.grad, c)
        assert not np.array_equal(w.grad, c)

    # f16 data is cast to f32, which the GEMMs and the in-place adds compute in
    @pytest.mark.parametrize("dtype, working", [(np.float16, np.float32), (np.float32, np.float32),
                                                (np.float64, np.float64)])
    def test_gradients_keep_the_working_dtype(self, dtype, working):
        rng = np.random.default_rng(79)
        w = ad.Tensor(rng.normal(size=(8, 8, 3, 3)).astype(dtype), requires_grad=True)
        wt = ad.Tensor(rng.normal(size=(8, 4, 2, 2)).astype(dtype), requires_grad=True)
        b = ad.Tensor(np.zeros(8, dtype=dtype), requires_grad=True)
        loss = None
        for _ in range(3):
            x = ad.Tensor(rng.normal(size=(1, 8, 2, 2)).astype(dtype))
            up = ad.conv2d_transpose(ad.conv2d(x, w, b, (1, 1), (1, 1)), wt)
            term = ad.reduce_sum(up)
            loss = term if loss is None else ad.add(loss, term)
        ad.backward(loss)
        for tens in (w, wt, b):
            assert tens.grad is tens._own and tens.grad.dtype == working

class TestConv2dTranspose:
    def test_single_pixel_scatter(self):
        x = t(np.array([[1.0]]).reshape(1, 1, 1, 1))
        w = t(np.ones((1, 1, 2, 2)))
        out = ad.conv2d_transpose(x, w)
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 2, 2)))

    def test_adjoint_identity(self):
        rng = np.random.default_rng(17)
        cin, cout, h = 3, 2, 6
        x = rng.normal(size=(1, cin, h, h))
        w = rng.normal(size=(cout, cin, 2, 2))
        fwd = ad.conv2d(t(x), t(w), t(np.zeros(cout)), (2, 2), (0, 0)).data
        z = rng.normal(size=fwd.shape)
        # the (Cout, Cin, kh, kw) conv kernel reads directly as a
        # (Cin, Cout, kh, kw) transpose kernel
        back = ad.conv2d_transpose(t(z), t(w)).data
        lhs = float((fwd * z).sum())
        rhs = float((x * back).sum())
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs))

    def test_gradients_match_finite_differences(self):
        assert OP_CASES["conv2d_transpose"][0](np.random.default_rng(23)) <= 1e-5


class TestPooling:
    def test_argmax_value_and_index(self):
        x = t(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out, idx = ad.maxpool2d(x)
        assert out.data.reshape(()) == 4.0
        assert idx.reshape(()) == 3  # flat position of (1,1) in a 2x2 plane

    def test_tie_breaks_to_first_in_row_major_order(self):
        x = t(np.full((1, 1, 4, 4), 7.0))
        out, idx = ad.maxpool2d(x)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 7.0))
        np.testing.assert_array_equal(idx.reshape(2, 2), [[0, 2], [8, 10]])

    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError):
            ad.maxpool2d(t(np.zeros((1, 1, 3, 4))))

    def test_gradient_routes_to_argmax(self):
        assert OP_CASES["maxpool2d"][0](np.random.default_rng(29)) <= 1e-6

    def test_unpool_places_single_value(self):
        x = t(np.array([[[[5.0]]]]))
        idx = np.zeros((1, 1, 1, 1), dtype=np.int64)
        out = ad.maxunpool2d(x, idx, (2, 2))
        np.testing.assert_array_equal(out.data.reshape(2, 2), [[5.0, 0.0], [0.0, 0.0]])

    def test_unpool_after_pool_hits_argmax_cells(self):
        rng = np.random.default_rng(31)
        x = rng.permutation(16).astype(np.float64).reshape(1, 1, 4, 4)
        pooled, idx = ad.maxpool2d(t(x))
        restored = ad.maxunpool2d(pooled, idx, (4, 4)).data.reshape(16)
        nz = np.flatnonzero(restored)
        np.testing.assert_array_equal(np.sort(nz), np.sort(idx.reshape(-1)))
        np.testing.assert_allclose(restored[nz], np.sort(pooled.data.reshape(-1))[np.argsort(np.argsort(restored[nz]))])

    def test_unpool_index_out_of_bounds_rejected(self):
        idx = np.full((1, 1, 1, 1), 4, dtype=np.int64)
        with pytest.raises(ValueError):
            ad.maxunpool2d(t(np.ones((1, 1, 1, 1))), idx, (2, 2))

    def test_unpool_gradient_is_gather(self):
        assert OP_CASES["maxunpool2d"][0](np.random.default_rng(37)) <= 1e-6


class TestConcat:
    def test_shape_rule(self):
        out = ad.concat_channels(t(np.zeros((1, 2, 4, 4))), t(np.zeros((1, 3, 4, 4))))
        assert out.shape == (1, 5, 4, 4)

    def test_slices_recover_inputs(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(1, 2, 4, 4))
        b = rng.normal(size=(1, 3, 4, 4))
        out = ad.concat_channels(t(a), t(b)).data
        np.testing.assert_array_equal(out[:, :2], a)
        np.testing.assert_array_equal(out[:, 2:], b)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ad.concat_channels(t(np.zeros((1, 2, 4, 4))), t(np.zeros((1, 2, 5, 4))))

    def test_gradient_split(self):
        assert OP_CASES["concat_channels"][0](np.random.default_rng(43)) <= 1e-6


class TestBatchNorm:
    def test_constant_input_normalizes_to_zero(self):
        x = t(np.full((2, 3, 4, 4), 5.0))
        out = ad.batchnorm2d(x, t(np.ones(3)), t(np.zeros(3)))
        assert np.max(np.abs(out.data)) <= 1e-2  # zero-variance case, eps-limited

    def test_two_point_input(self):
        # normalized to -1/sqrt(1 + eps) and 1/sqrt(1 + eps); the relu clips the first
        x = np.zeros((1, 1, 1, 2))
        x[..., 0] = -1.0
        x[..., 1] = 1.0
        out = ad.batchnorm2d(t(x), t(np.ones(1)), t(np.zeros(1)))
        expected = 1.0 / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.data.reshape(2), [0.0, expected], rtol=1e-12)
        assert not np.signbit(out.data).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_output_bytes_with_and_without_a_tape(self, dtype):
        rng = np.random.default_rng(53)
        x = rng.normal(loc=1.0, scale=2.0, size=(1, 3, 6, 5)).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, size=3).astype(dtype)
        beta = rng.normal(size=3).astype(dtype)
        taped = ad.batchnorm2d(*(ad.Tensor(a, requires_grad=True) for a in (x, gamma, beta)))
        with ad.no_grad():
            untaped = ad.batchnorm2d(ad.Tensor(x), ad.Tensor(gamma), ad.Tensor(beta))
        assert taped.requires_grad and not untaped.requires_grad
        assert taped.data.dtype == dtype
        assert taped.data.tobytes() == untaped.data.tobytes()

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ad.batchnorm2d(t(np.zeros((1, 3, 2, 2))), t(np.ones(2)), t(np.zeros(3)))

    def test_train_gradient_matches_finite_differences(self):
        assert OP_CASES["batchnorm2d"][0](np.random.default_rng(59)) <= 1e-4


class TestReduceAndBackward:
    def test_sum_values(self):
        assert ad.reduce_sum(t([1.0, 2.0, 3.0])).item() == 6.0
        assert ad.reduce_sum(t(np.zeros((4, 4)))).item() == 0.0

    def test_per_item_sums_and_their_gradient(self):
        x = t(np.arange(12.0).reshape(3, 2, 2), rg=True)
        sums = ad.reduce_sum(x, items=3)
        np.testing.assert_array_equal(sums.data, [6.0, 22.0, 38.0])
        ad.backward(ad.reduce_sum(ad.mul(sums, t([1.0, 2.0, 3.0]))))
        np.testing.assert_array_equal(x.grad, np.repeat([1.0, 2.0, 3.0], 4).reshape(3, 2, 2))

    def test_vector_sums_left_to_right(self):
        # in a chain each 1 vanishes beside 2^24 (sum 0); numpy's pairwise sum gives 4
        v = np.array([2.0 ** 24, 1.0, 1.0, -(2.0 ** 24)] * 3, dtype=np.float32)
        chain = v[0]
        for x in v[1:]:
            chain = chain + x
        assert ad.reduce_sum(ad.Tensor(v)).data.tobytes() == np.float32(chain).tobytes()

    def test_sum_gradient_is_ones(self):
        x = t(np.arange(6.0).reshape(2, 3), rg=True)
        ad.backward(ad.reduce_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_gradient(self):
        x = t([1.0, 2.0], rg=True)
        ad.backward(ad.reduce_sum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=1e-12)

    def test_composite_net_matches_finite_differences(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(1, 1, 6, 6))
        w = rng.normal(size=(2, 1, 3, 3))
        b = rng.normal(size=(2,))
        coef = rng.normal(size=(1, 2, 6, 6))

        def build():
            tx = ad.Tensor(x, requires_grad=True)
            tw = ad.Tensor(w, requires_grad=True)
            tb = ad.Tensor(b, requires_grad=True)
            h = ad.sigmoid(ad.relu(ad.conv2d(tx, tw, tb, (1, 1), (1, 1))))
            return ad.reduce_sum(ad.mul(h, ad.Tensor(coef))), (tx, tw, tb)

        loss, tensors = build()
        ad.backward(loss)
        for arr, tens in zip((x, w, b), tensors):
            num = numeric_grad(lambda: float(build()[0].data), arr, h=1e-5)
            assert max_rel_error(tens.grad, num) <= 1e-4

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            ad.backward(t([1.0, 2.0], rg=True))

    def test_disconnected_branch_keeps_no_gradient(self):
        x = t([1.0, 2.0], rg=True)
        y = t([3.0, 4.0], rg=True)
        ad.mul(y, y)  # never feeds the loss
        ad.backward(ad.reduce_sum(x))
        assert x.grad is not None
        assert y.grad is None

    def test_fanout_accumulates(self):
        x = t([3.0], rg=True)
        # x*x + x: gradient 2x + 1
        ad.backward(ad.reduce_sum(ad.add(ad.mul(x, x), x)))
        np.testing.assert_allclose(x.grad, [7.0], rtol=1e-12)

    def test_repeated_argument_accumulates(self):
        x = t([5.0], rg=True)
        ad.backward(ad.reduce_sum(ad.add(x, x)))
        np.testing.assert_allclose(x.grad, [2.0], rtol=1e-12)

    def test_no_grad_blocks_recording(self):
        x = t([1.0], rg=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert y._backward is None and not y.requires_grad

    def test_detach_cuts_graph(self):
        x = t([2.0], rg=True)
        y = ad.mul(x, x).detach()
        z = ad.mul(y, y)
        ad.backward(ad.reduce_sum(z))
        assert x.grad is None
        assert z.data[0] == pytest.approx(16.0)

    def test_schedule_respects_creation_order(self):
        x = t([1.0, 2.0], rg=True)
        a = ad.mul(x, x)
        b = ad.add(a, x)
        loss = ad.reduce_sum(b)
        order = ad.schedule(loss)
        assert order == [a, b, loss]

    def test_backward_consumes_the_graph(self):
        x = t([1.0, 2.0], rg=True)
        v = t([0.5, -1.0], rg=True)
        m = ad.add(x, v)
        loss = ad.reduce_sum(ad.add(ad.mul(m, t([1.0, 2.0])), ad.mul(m, t([3.0, 5.0]))))
        nodes = ad.schedule(loss)
        ad.backward(loss)
        assert ad.schedule(loss) == []
        for node in nodes:
            assert node.grad is None and node._backward is None and node._inputs == ()
        grads = [x.grad, v.grad]
        for grad in grads:
            np.testing.assert_array_equal(grad, [4.0, 7.0])
        with pytest.raises(ValueError, match="consumed"):
            ad.backward(loss)
        assert x.grad is grads[0] and v.grad is grads[1]
        for grad in grads:
            np.testing.assert_array_equal(grad, [4.0, 7.0])

    def test_a_graph_over_a_consumed_node_is_rejected(self):
        x = t([1.0, 2.0], rg=True)
        m = ad.mul(x, x)
        ad.backward(ad.reduce_sum(m))
        grad = x.grad
        with pytest.raises(ValueError, match="consumed"):
            ad.backward(ad.reduce_sum(ad.scale(m, 2.0)))
        assert x.grad is grad
        np.testing.assert_array_equal(grad, [2.0, 4.0])


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradcheck_ten_seeds(name):
    fn, tol = OP_CASES[name]
    worst = max(fn(np.random.default_rng(seed)) for seed in range(10))
    assert worst <= tol, f"{name}: worst rel error {worst:.3e} > {tol}"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_max_rel_error_scores_non_finite_as_infinite(bad):
    # max(worst, nan) keeps worst, so a NaN score would pass every gradcheck
    good = np.ones(3)
    broken = np.array([1.0, bad, 1.0])
    assert max_rel_error(broken, good) == np.inf
    assert max_rel_error(good, broken) == np.inf
