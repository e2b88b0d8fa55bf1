import numpy as np
import pytest

from rseg import autodiff as ad
from rseg.autodiff import Tensor
from rseg.gradcheck import max_rel_error
from rseg.loss import (
    LossWeights,
    bce_loss,
    combined_loss,
    dice_loss,
    grad_loss_wrt_pred,
    sequence_loss,
)


def random_pair(rng, shape=(8, 8), frac=0.3):
    """Prediction in the open unit interval, nonempty binary target."""
    pred = rng.uniform(0.01, 0.99, size=shape)
    target = (rng.uniform(size=shape) < frac).astype(np.float64)
    if target.sum() == 0:
        target.flat[rng.integers(target.size)] = 1.0
    return Tensor(pred, requires_grad=True), Tensor(target)


class TestWeights:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(-0.1, 0.5)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(0.0, 0.0)


class TestBce:
    def test_uniform_half_gives_ln2(self):
        rng = np.random.default_rng(0)
        y = Tensor((rng.uniform(size=(8, 8)) < 0.5).astype(np.float64))
        p = Tensor(np.full((8, 8), 0.5))
        assert bce_loss(p, y).item() == pytest.approx(np.log(2.0), rel=1e-12)

    def test_perfect_prediction_near_zero(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert bce_loss(Tensor(y.copy()), Tensor(y)).item() <= 1e-6

    def test_single_pixel(self):
        out = bce_loss(Tensor(np.array([[0.9]])), Tensor(np.array([[1.0]])))
        assert out.item() == pytest.approx(0.105361, abs=1e-6)

    def test_non_binary_target_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(Tensor(np.full((2, 2), 0.5)), Tensor(np.full((2, 2), 0.5)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p, y = random_pair(rng)
            assert bce_loss(p, y).item() >= 0.0

    def test_moving_toward_target_never_increases(self):
        rng = np.random.default_rng(2)
        p, y = random_pair(rng)
        before = bce_loss(p, y).item()
        closer = p.data + 0.5 * (y.data - p.data)
        after = bce_loss(Tensor(closer), y).item()
        assert after <= before + 1e-12


class TestDice:
    def test_perfect_overlap(self):
        y = np.zeros((4, 4))
        y[1:3, 1:3] = 1.0
        assert dice_loss(Tensor(y.copy()), Tensor(y)).item() <= 1e-6

    def test_disjoint_supports(self):
        y = np.zeros((4, 4))
        y[0, :] = 1.0
        p = np.zeros((4, 4))
        p[3, :] = 1.0
        assert dice_loss(Tensor(p), Tensor(y)).item() == pytest.approx(1.0, abs=1e-6)

    def test_half_overlap(self):
        y = np.zeros((4, 4))
        y[0, :4] = 1.0
        p = np.zeros((4, 4))
        p[0, 2:4] = 1.0
        p[1, 0:2] = 1.0
        assert dice_loss(Tensor(p), Tensor(y)).item() == pytest.approx(0.5, abs=1e-6)

    def test_empty_empty_is_zero_loss(self):
        z = np.zeros((4, 4))
        assert dice_loss(Tensor(z.copy()), Tensor(z)).item() == pytest.approx(0.0, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p, y = random_pair(rng)
            v = dice_loss(p, y).item()
            assert 0.0 <= v <= 1.0 + 1e-6


class TestCombined:
    def test_degenerate_weights_reduce_exactly(self):
        rng = np.random.default_rng(4)
        p, y = random_pair(rng)
        assert combined_loss(p, y, LossWeights(1.0, 0.0)).item() == bce_loss(p, y).item()
        assert combined_loss(p, y, LossWeights(0.0, 1.0)).item() == dice_loss(p, y).item()

    def test_half_half_all_ones_target(self):
        y = Tensor(np.ones((8, 8)))
        p = Tensor(np.full((8, 8), 0.5))
        out = combined_loss(p, y, LossWeights(0.5, 0.5))
        assert out.item() == pytest.approx(0.513240, abs=1e-5)

    def test_monotone_in_each_weight(self):
        rng = np.random.default_rng(5)
        p, y = random_pair(rng)
        base = combined_loss(p, y, LossWeights(0.5, 0.5)).item()
        assert combined_loss(p, y, LossWeights(0.8, 0.5)).item() >= base
        assert combined_loss(p, y, LossWeights(0.5, 0.8)).item() >= base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        p, y = random_pair(rng)
        perm = rng.permutation(p.data.size)
        pp = Tensor(p.data.reshape(-1)[perm].reshape(p.shape))
        yp = Tensor(y.data.reshape(-1)[perm].reshape(y.shape))
        assert combined_loss(pp, yp).item() == pytest.approx(combined_loss(p, y).item(), rel=1e-12)


class TestSequence:
    def test_sum_of_known_steps(self):
        rng = np.random.default_rng(7)
        preds, targets = [], []
        per_step = []
        for _ in range(3):
            p, y = random_pair(rng)
            preds.append(p)
            targets.append(y)
            per_step.append(combined_loss(p, y).item())
        total = sequence_loss(preds, targets).item()
        assert total == pytest.approx(sum(per_step), rel=1e-12)

    def test_single_step_equals_combined(self):
        rng = np.random.default_rng(8)
        p, y = random_pair(rng)
        assert sequence_loss([p], [y]).item() == combined_loss(p, y).item()

    def test_length_mismatch_rejected(self):
        p = Tensor(np.full((2, 2), 0.5))
        y = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            sequence_loss([p, p], [y])

    def test_total_gradient_per_step_equals_isolated(self):
        rng = np.random.default_rng(9)
        preds, targets = [], []
        for _ in range(3):
            p, y = random_pair(rng)
            preds.append(p)
            targets.append(y)
        ad.backward(sequence_loss(preds, targets))
        seq_grads = [p.grad.copy() for p in preds]
        for p, y, g in zip(preds, targets, seq_grads):
            solo = Tensor(p.data, requires_grad=True)
            ad.backward(combined_loss(solo, y))
            assert max_rel_error(g, solo.grad) <= 1e-6


class TestClosedFormGradient:
    def test_single_pixel_hand_value(self):
        p = Tensor(np.array([[0.5]]))
        y = Tensor(np.array([[1.0]]))
        g = grad_loss_wrt_pred(p, y, LossWeights(0.5, 0.5), smoothing=0.0)
        assert g.data[0, 0] == pytest.approx(-1.444444, abs=1e-6)
        # BCE contributes -1, Dice contributes -4/9
        assert g.data[0, 0] == pytest.approx(-1.0 - 4.0 / 9.0, rel=1e-12)

    def test_all_zero_target_is_positive(self):
        rng = np.random.default_rng(10)
        p = Tensor(rng.uniform(0.1, 0.9, size=(4, 4)))
        y = Tensor(np.zeros((4, 4)))
        g = grad_loss_wrt_pred(p, y, LossWeights(0.5, 0.5), smoothing=0.0)
        assert np.all(g.data > 0.0)
        np.testing.assert_allclose(g.data, (0.5 / 16) / (1.0 - p.data), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_autodiff_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        p, y = random_pair(rng)
        w = LossWeights(0.5, 0.5)
        closed = grad_loss_wrt_pred(p, y, w, smoothing=0.0)
        ad.backward(combined_loss(p, y, w, smoothing=0.0))
        assert max_rel_error(closed.data, p.grad) <= 1e-6

    def test_matches_autodiff_with_smoothing(self):
        rng = np.random.default_rng(11)
        p, y = random_pair(rng)
        closed = grad_loss_wrt_pred(p, y, smoothing=1e-6)
        ad.backward(combined_loss(p, y, smoothing=1e-6))
        assert max_rel_error(closed.data, p.grad) <= 1e-6


class TestPerItem:
    """``items`` scores each slice of a stack as the slice alone, byte for byte."""

    @staticmethod
    def _stack(rng, dtype, n=9):
        preds = rng.uniform(0.01, 0.99, size=(n, 1, 20, 20)).astype(dtype)
        preds[0, 0, 0, :2] = (0.0, 1.0)  # inside the BCE clamp's flat part
        targets = (rng.uniform(size=preds.shape) < 0.3).astype(dtype)
        targets[1] = 0.0  # an empty slice: Dice rests on the smoothing alone
        return preds, targets

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_item_losses_and_gradients_are_the_slice_ones(self, dtype):
        preds, targets = self._stack(np.random.default_rng(12), dtype)
        stack = Tensor(preds, requires_grad=True)
        losses = combined_loss(stack, Tensor(targets), items=len(preds))
        assert losses.shape == (len(preds),) and losses.dtype == dtype
        ad.backward(ad.reduce_sum(losses))
        for t in range(len(preds)):
            solo = Tensor(preds[t:t + 1].copy(), requires_grad=True)
            loss = combined_loss(solo, Tensor(targets[t:t + 1]))
            ad.backward(loss)
            assert losses.data[t].tobytes() == loss.data.tobytes(), t
            assert stack.grad[t:t + 1].tobytes() == solo.grad.tobytes(), t

    def test_one_item_loss_is_a_python_float(self):
        preds, targets = self._stack(np.random.default_rng(14), np.float32)
        pred, target = Tensor(preds[:1]), Tensor(targets[:1])
        loss = combined_loss(pred, target, items=1)
        assert loss.shape == (1,)
        assert loss.item() == float(combined_loss(pred, target).data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sequence_total_is_the_chain_of_slice_losses(self, dtype):
        preds, targets = self._stack(np.random.default_rng(13), dtype)
        chain = combined_loss(Tensor(preds[:1]), Tensor(targets[:1]))
        for t in range(1, len(preds)):
            chain = ad.add(chain, combined_loss(Tensor(preds[t:t + 1]), Tensor(targets[t:t + 1])))
        stacked = sequence_loss(Tensor(preds), Tensor(targets))
        listed = sequence_loss([Tensor(p[None]) for p in preds], [Tensor(y[None]) for y in targets])
        assert stacked.data.tobytes() == chain.data.tobytes()
        assert listed.data.tobytes() == chain.data.tobytes()

    def test_slices_of_several_shapes_rejected(self):
        p = Tensor(np.full((2, 2), 0.5))
        q = Tensor(np.full((1, 4), 0.5))
        with pytest.raises(ValueError, match="one shape"):
            sequence_loss([p, q], [Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 4)))])
