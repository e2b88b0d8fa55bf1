import tracemalloc

import numpy as np
import pytest

from rseg import autodiff as ad
from rseg.autodiff import Tensor
from rseg.backbones import ModelConfig, build_model
from rseg.data import PhantomSpec, SliceSequence, generate_phantom, normalize_intensity, to_sequence
from rseg.gradcheck import max_rel_error, numeric_grad_sampled, sample_indices
from rseg.loss import LossWeights, combined_loss, sequence_loss
from rseg.recurrent import segment_volume, step, unroll_forward


def make_seq(rng, n, hw=16, dtype=np.float32, with_labels=True):
    frames = rng.normal(size=(n, 1, hw, hw)).astype(dtype)
    labels = None
    if with_labels:
        labels = (rng.uniform(size=(n, 1, hw, hw)) < 0.3).astype(dtype)
    return SliceSequence(frames=frames, labels=labels,
                         orig_hw=(hw, hw), pad_offset=(0, 0), spacing_mm=(1.0, 1.0, 1.0))


def item_losses(preds, seq, w=LossWeights()):
    """The combined loss of each slice of an unrolled stack, as one vector."""
    return combined_loss(preds, Tensor(seq.labels), w, items=len(seq))


def item_loss(preds, seq, t, w=LossWeights()):
    """Slice t's loss, picked out of ``item_losses`` by a one-hot weighted sum."""
    losses = item_losses(preds, seq, w)
    pick = np.zeros(losses.shape, dtype=losses.dtype)
    pick[t] = 1.0
    return ad.reduce_sum(ad.mul(losses, Tensor(pick)))


def zero_head(store):
    store["head.w"].data[...] = 0.0
    store["head.b"].data[...] = 0.0
    return store


def crafted_copy_net(k=4.0):
    """Recurrent tiny unet whose output follows y_prev, pixelwise.

    Every conv weight is zeroed, then a single center tap per stage relays
    input channel 1 (the fed-back prediction) straight to the head. Each
    batch norm standardizes the relayed map over the slice and its relu keeps
    the part above the mean, so the output is sigma(k * r) with r >= 0
    non-decreasing in y_prev. A 0/1 prior whose ones fill half of every
    sampled grid stays 0/1 through each stage: sigma(k) on the ones, 1/2
    elsewhere.
    """
    cfg = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=True)
    store = build_model(cfg, seed=0)
    for name, t in store.items():
        if name.endswith(".w"):
            t.data[...] = 0.0
    store["enc0.conv_a.w"].data[0, 1, 1, 1] = 1.0
    store["enc0.conv_b.w"].data[0, 0, 1, 1] = 1.0
    store["enc1.conv_a.w"].data[0, 0, 1, 1] = 1.0
    store["enc1.conv_b.w"].data[0, 0, 1, 1] = 1.0
    store["dec1.up.w"].data[0, 0, :, :] = 1.0
    store["dec1.conv.w"].data[0, 0, 1, 1] = 1.0
    store["dec0.up.w"].data[0, 0, :, :] = 1.0
    store["dec0.conv.w"].data[0, 0, 1, 1] = 1.0
    store["head.w"].data[0, 0, 0, 0] = k
    return store


class TestStep:
    def test_zero_head_ignores_everything(self):
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=True)
        store = zero_head(build_model(cfg, seed=1))
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 1, 16, 16)).astype(np.float32))
        for fill in (0.0, 1.0):
            prev = Tensor(np.full((1, 1, 16, 16), fill, dtype=np.float32))
            out = step(store, x, prev)
            np.testing.assert_array_equal(out.data, np.full((1, 1, 16, 16), 0.5))

    def test_non_recurrent_ignores_previous(self):
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=False)
        store = build_model(cfg, seed=2)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 1, 16, 16)).astype(np.float32))
        a = step(store, x, Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32)))
        b = step(store, x, Tensor(np.ones((1, 1, 16, 16), dtype=np.float32)))
        np.testing.assert_array_equal(a.data, b.data)

    def test_crafted_net_is_monotone_in_previous(self):
        # batch norm removes a prior that is constant over the slice, so
        # each prior varies across it, here along the columns
        store = crafted_copy_net(k=4.0)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 1, 16, 16)).astype(np.float32))
        ramp = np.broadcast_to(np.linspace(0.0, 1.0, 16, dtype=np.float32), (1, 1, 16, 16))
        out = step(store, x, Tensor(ramp.copy())).data[0, 0]
        assert np.all(np.diff(out, axis=1) >= 0)
        assert out[:, -1].min() > out[:, 0].max()
        half = np.zeros((1, 1, 16, 16), dtype=np.float32)
        half[..., :8] = 1.0
        out = step(store, x, Tensor(half)).data[0, 0]
        np.testing.assert_allclose(out[:, :8], 1.0 / (1.0 + np.exp(-4.0)), atol=1e-3)
        np.testing.assert_allclose(out[:, 8:], 0.5, atol=1e-3)

    def test_missing_previous_rejected(self):
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=True)
        store = build_model(cfg, seed=0)
        with pytest.raises(ValueError):
            step(store, Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32)))

    def test_extent_mismatch_rejected(self):
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=True)
        store = build_model(cfg, seed=0)
        x = Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32))
        with pytest.raises(ValueError):
            step(store, x, Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32)))


class TestUnroll:
    def test_length_and_shape_contract(self):
        vol, mask = generate_phantom(PhantomSpec(seed=1))
        seq = to_sequence(normalize_intensity(vol), mask, pad_to=4)
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=True)
        store = build_model(cfg, seed=3)
        preds = unroll_forward(store, seq)
        assert preds.shape == (vol.dims[0], 1, 48, 48)
        assert np.all(preds.data > 0.0) and np.all(preds.data < 1.0)

    def test_empty_sequence_rejected(self):
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=4)
        store = build_model(cfg, seed=0)
        empty = SliceSequence(frames=np.zeros((0, 1, 16, 16), np.float32), labels=None,
                              orig_hw=(16, 16), pad_offset=(0, 0), spacing_mm=(1, 1, 1))
        with pytest.raises(ValueError):
            unroll_forward(store, empty)

    def test_bad_mode_rejected(self):
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=4)
        store = build_model(cfg, seed=0)
        seq = make_seq(np.random.default_rng(3), 2)
        with pytest.raises(ValueError):
            unroll_forward(store, seq, mode="truncated")

    def test_teacher_forcing_needs_labels(self):
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=True)
        store = build_model(cfg, seed=0)
        seq = make_seq(np.random.default_rng(4), 2, with_labels=False)
        with pytest.raises(ValueError):
            unroll_forward(store, seq, teacher_forcing=True)

    def test_non_recurrent_step_independence(self):
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=False)
        store = build_model(cfg, seed=5)
        rng = np.random.default_rng(5)
        seq = make_seq(rng, 5)
        preds = unroll_forward(store, seq)
        perm = [3, 0, 4, 2, 1]
        shuffled = SliceSequence(frames=seq.frames[perm], labels=None,
                                 orig_hw=seq.orig_hw,
                                 pad_offset=seq.pad_offset, spacing_mm=seq.spacing_mm)
        preds_shuffled = unroll_forward(store, shuffled)
        for j, i in enumerate(perm):
            np.testing.assert_array_equal(preds_shuffled.data[j], preds.data[i])

    def test_causality(self):
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=True)
        store = build_model(cfg, seed=6)
        rng = np.random.default_rng(6)
        seq = make_seq(rng, 4)
        preds = unroll_forward(store, seq)
        frames2 = seq.frames.copy()
        frames2[3] += 1.0
        seq2 = SliceSequence(frames=frames2, labels=None,
                             orig_hw=seq.orig_hw, pad_offset=seq.pad_offset,
                             spacing_mm=seq.spacing_mm)
        preds2 = unroll_forward(store, seq2)
        np.testing.assert_array_equal(preds.data[:3], preds2.data[:3])
        assert not np.array_equal(preds.data[3], preds2.data[3])

    def test_teacher_forcing_changes_the_feed(self):
        store = crafted_copy_net(k=4.0)
        rng = np.random.default_rng(7)
        seq = make_seq(rng, 3)
        free = unroll_forward(store, seq)
        forced = unroll_forward(store, seq, teacher_forcing=True)
        np.testing.assert_array_equal(free.data[0], forced.data[0])  # both start from y0
        assert not np.array_equal(free.data[1], forced.data[1])
        # with the copying net, the forced step-2 output on the grid that both
        # strided convs sample reads the step-1 label: above 1/2 on its ones,
        # 1/2 on its zeros
        grid = forced.data[1, 0, ::4, ::4]
        ones = seq.labels[0, 0, ::4, ::4] == 1.0
        assert ones.any() and (~ones).any()
        assert np.all(grid[ones] > 0.5 + 1e-3)
        np.testing.assert_allclose(grid[~ones], 0.5, atol=1e-3)


class TestGradientModes:
    def test_both_modes_match_their_oracles_and_differ(self):
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=True)
        store = build_model(cfg, seed=0, dtype=np.float64)
        rng = np.random.default_rng(0)
        seq = make_seq(rng, 2, hw=16, dtype=np.float64)
        w = LossWeights(0.5, 0.5)
        y2 = Tensor(seq.labels[1:2])

        def loss2(mode):
            return item_loss(unroll_forward(store, seq, mode=mode), seq, 1, w)

        store.zero_grads()
        ad.backward(loss2("full"))
        full_grads = {n: t.grad.copy() for n, t in store.items()}
        store.zero_grads()
        ad.backward(loss2("detach"))
        detach_grads = {n: t.grad.copy() for n, t in store.items()}
        store.zero_grads()

        # the recurrent edge must carry gradient in full mode only
        diff = max(
            np.max(np.abs(full_grads[n] - detach_grads[n])) for n in full_grads
        )
        assert diff > 1e-6

        # detach oracle: the isolated step-2 loss with the realized feed frozen
        with ad.no_grad():
            frozen_prev = unroll_forward(store, seq).data[:1].copy()

        def f_detach():
            out = step(store, Tensor(seq.frames[1:2]), Tensor(frozen_prev))
            return float(combined_loss(out, y2, w).data)

        def f_full():
            preds = unroll_forward(store, seq, mode="full")
            return float(item_losses(preds, seq, w).data[1])

        for name, tens in store.items():
            idxs = sample_indices(rng, tens.data.size, 3)
            num_d = numeric_grad_sampled(f_detach, tens.data, idxs)
            num_f = numeric_grad_sampled(f_full, tens.data, idxs)
            assert max_rel_error(detach_grads[name].reshape(-1)[idxs], num_d, floor=1e-4) <= 1e-3, name
            assert max_rel_error(full_grads[name].reshape(-1)[idxs], num_f, floor=1e-4) <= 1e-3, name

    def test_full_bptt_backward_frees_the_tape(self):
        cfg = ModelConfig(backbone="attunet", levels=2, base_channels=4, recurrent=True)
        store = build_model(cfg, seed=2)
        seq = make_seq(np.random.default_rng(2), 8, hw=32)
        labels = Tensor(seq.labels)
        # warm-up: the first backward makes the weights' gradient buffers and
        # first-call caches, which the measured backward keeps
        ad.backward(sequence_loss(unroll_forward(store, seq, mode="full"), labels))
        tracemalloc.start()
        try:
            preds = unroll_forward(store, seq, mode="full")
            loss = sequence_loss(preds, labels)
            taped = tracemalloc.get_traced_memory()[0]
            ad.backward(loss)
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # preds and loss are still held here; the tape is gone
        assert left < taped

    def test_detach_gradient_equals_isolated_step_gradient(self):
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=True)
        store = build_model(cfg, seed=1, dtype=np.float64)
        rng = np.random.default_rng(1)
        seq = make_seq(rng, 3, hw=16, dtype=np.float64)
        y3 = Tensor(seq.labels[2:3])

        preds = unroll_forward(store, seq, mode="detach")
        store.zero_grads()
        ad.backward(item_loss(preds, seq, 2))
        unroll_grads = {n: t.grad.copy() for n, t in store.items()}
        store.zero_grads()

        iso = step(store, Tensor(seq.frames[2:3]), Tensor(preds.data[1:2].copy()))
        ad.backward(combined_loss(iso, y3))
        for n, t in store.items():
            np.testing.assert_array_equal(unroll_grads[n], t.grad)
        store.zero_grads()


def record_gradient_magnitudes(monkeypatch) -> dict:
    """id(parameter) -> (f64 sum of |products| its gradient sums, number of products).

    Wraps conv2d, conv2d_transpose and batchnorm2d so that each backward also
    sums the absolute values of the products its parameter gradients add up:
    the conv itself run on |x| with |upstream|, and |g x-hat| and |g| for batch
    norm. A gradient summed in two orders differs by at most 2 K eps times that.
    """
    mags = {}
    real = {name: getattr(ad, name) for name in ("conv2d", "conv2d_transpose", "batchnorm2d")}

    def add(param, magnitude, terms):
        m, k = mags.get(id(param), (0.0, 0))
        mags[id(param)] = (m + magnitude, k + terms)

    def after_backward(out, fn):
        inner = out._backward

        def backward_fn(g):
            inner(g)
            fn(np.abs(g.astype(np.float64)), g.shape[0] * g.shape[2] * g.shape[3])

        out._backward = backward_fn
        return out

    def leaf(shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def conv2d(x, w, b=None, stride=(1, 1), pad=(0, 0)):
        def fn(g, terms):
            tw, tb = leaf(w.shape), None if b is None else leaf(b.shape)
            out = real["conv2d"](Tensor(np.abs(x.data.astype(np.float64))), tw, tb, stride, pad)
            ad.backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
            add(w, tw.grad, terms)
            if b is not None:
                add(b, tb.grad, terms)

        return after_backward(real["conv2d"](x, w, b, stride, pad), fn)

    def conv2d_transpose(x, w):
        def fn(g, terms):
            tw = leaf(w.shape)
            out = real["conv2d_transpose"](Tensor(np.abs(x.data.astype(np.float64))), tw)
            ad.backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
            add(w, tw.grad, x.shape[0] * x.shape[2] * x.shape[3])

        return after_backward(real["conv2d_transpose"](x, w), fn)

    def batchnorm2d(x, gamma, beta):
        out = real["batchnorm2d"](x, gamma, beta)

        def fn(g, terms):
            xd = x.data.astype(np.float64)
            xhat = xd - xd.mean(axis=(2, 3), keepdims=True)
            xhat /= np.sqrt(xd.var(axis=(2, 3), keepdims=True) + ad.BN_EPS)
            g = g * (out.data > 0)
            add(gamma, (g * np.abs(xhat)).sum(axis=(0, 2, 3)), terms)
            add(beta, g.sum(axis=(0, 2, 3)), terms)

        return after_backward(out, fn)

    for name, fn in (("conv2d", conv2d), ("conv2d_transpose", conv2d_transpose),
                     ("batchnorm2d", batchnorm2d)):
        monkeypatch.setattr(ad, name, fn)
    return mags


class TestBatchedUnroll:
    """A taped unroll whose steps take no earlier output runs as one batch.

    The oracle is the loop it replaced: one ``step`` per slice, fed zeros
    and then each previous label. Every item's values go through the same
    arithmetic, so predictions and loss match byte for byte; only the
    parameter gradients sum the slices in another order.
    """

    @staticmethod
    def _per_slice(store, seq):
        feed = np.zeros_like(seq.frames[:1])
        preds = []
        for t in range(len(seq)):
            prev = Tensor(feed) if store.config.recurrent else None
            preds.append(step(store, Tensor(seq.frames[t:t + 1]), prev))
            feed = seq.labels[t:t + 1]
        return preds

    @pytest.mark.parametrize("backbone", ["unet", "segunet", "attunet"])
    @pytest.mark.parametrize("recurrent", [True, False], ids=["teacher-forced", "plain"])
    def test_batch_matches_the_per_slice_loop(self, backbone, recurrent, monkeypatch):
        cfg = ModelConfig(backbone=backbone, levels=2, base_channels=4, recurrent=recurrent)
        store = build_model(cfg, seed=11)
        seq = make_seq(np.random.default_rng(11), 5)
        targets = [Tensor(seq.labels[t:t + 1]) for t in range(len(seq))]
        preds = unroll_forward(store, seq, teacher_forcing=recurrent)
        assert preds.op == "sigmoid" and preds.shape == (5, 1, 16, 16)
        loss = sequence_loss(preds, Tensor(seq.labels))
        store.zero_grads()
        ad.backward(loss)
        batched = {n: t.grad.copy() for n, t in store.items()}
        store.zero_grads()

        mags = record_gradient_magnitudes(monkeypatch)
        ref = self._per_slice(store, seq)
        ref_loss = sequence_loss(ref, targets)
        ad.backward(ref_loss)
        monkeypatch.undo()
        assert preds.data.tobytes() == np.concatenate([r.data for r in ref]).tobytes()
        assert loss.data.tobytes() == ref_loss.data.tobytes()
        with ad.no_grad():
            untaped = unroll_forward(store, seq, teacher_forcing=recurrent)
        assert untaped.op == "leaf" and untaped.data.tobytes() == preds.data.tobytes()
        eps = np.finfo(np.float32).eps
        for name, t in store.items():
            magnitude, terms = mags[id(t)]
            diff = np.abs(batched[name].astype(np.float64) - t.grad)
            assert np.all(diff <= 2 * terms * eps * magnitude), name
        store.zero_grads()

    def test_free_running_and_a_full_mode_y0_gradient_keep_the_loop(self):
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=True)
        store = build_model(cfg, seed=12)
        seq = make_seq(np.random.default_rng(12), 3)
        assert unroll_forward(store, seq).op == "concat_batch"
        y0 = Tensor(np.full((1, 1, 16, 16), 0.5, dtype=np.float32), requires_grad=True)
        preds = unroll_forward(store, seq, y0=y0, mode="full", teacher_forcing=True)
        assert preds.op == "concat_batch"
        ad.backward(item_loss(preds, seq, 0))
        assert y0.grad is not None and np.abs(y0.grad).max() > 0.0
        store.zero_grads()


class TestSegmentVolume:
    def _store(self, seed=0, levels=2, recurrent=True):
        cfg = ModelConfig(backbone="unet", levels=levels, base_channels=4, recurrent=recurrent)
        return build_model(cfg, seed=seed)

    def test_zero_head_gives_empty_mask(self):
        store = zero_head(self._store())
        vol, _ = generate_phantom(PhantomSpec(seed=1))
        mask = segment_volume(store, normalize_intensity(vol), threshold=0.5)
        assert mask.count() == 0  # sigma(0) = 0.5 is not strictly above 0.5

    def test_mask_shape_matches_volume_even_with_padding(self):
        store = self._store(levels=3)
        vol, _ = generate_phantom(PhantomSpec(dims=(8, 45, 50), seed=2))
        mask = segment_volume(store, normalize_intensity(vol))
        assert mask.dims == vol.dims
        assert mask.spacing_mm == vol.spacing_mm

    def test_lower_threshold_is_superset(self):
        store = self._store(seed=7)
        vol, _ = generate_phantom(PhantomSpec(seed=3))
        loose = segment_volume(store, normalize_intensity(vol), threshold=0.2)
        tight = segment_volume(store, normalize_intensity(vol), threshold=0.8)
        assert np.all(loose.voxels >= tight.voxels)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_threshold_range_enforced(self, bad):
        store = self._store()
        vol, _ = generate_phantom(PhantomSpec(seed=1))
        with pytest.raises(ValueError):
            segment_volume(store, normalize_intensity(vol), threshold=bad)
