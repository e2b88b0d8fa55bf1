import re
import struct
import zlib

import numpy as np
import pytest

from rseg import autodiff as ad
from rseg import recurrent
from rseg.autodiff import Tensor
from rseg.backbones import ModelConfig, ParamStore, build_model
from rseg.data import (PhantomSpec, SliceSequence, generate_phantom, normalize_intensity,
                       to_sequence)
from rseg.loss import combined_loss
from rseg.metrics import dice_coefficient
from rseg.recurrent import segment_volume, step, unroll_forward
from rseg.trainer import (AdamState, TrainConfig, adam_step, load_checkpoint,
                          save_checkpoint, sequence_gradients, train, train_step,
                          validation_stats)


def make_seq(rng, n, hw=16, dtype=np.float32, labels="random"):
    frames = rng.normal(size=(n, 1, hw, hw)).astype(dtype)
    if labels == "random":
        lbl = (rng.uniform(size=(n, 1, hw, hw)) < 0.3).astype(dtype)
    elif labels == "ones":
        lbl = np.ones((n, 1, hw, hw), dtype=dtype)
    elif labels == "zeros":
        lbl = np.zeros((n, 1, hw, hw), dtype=dtype)
    else:
        lbl = None
    return SliceSequence(frames=frames, labels=lbl,
                         orig_hw=(hw, hw), pad_offset=(0, 0), spacing_mm=(1.0, 1.0, 1.0))


def tiny_store(seed=0, recurrent=True, dtype=np.float32):
    cfg = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=recurrent)
    return build_model(cfg, seed=seed, dtype=dtype)


def flat_store(values):
    store = ParamStore(ModelConfig(backbone="unet", levels=2, base_channels=4))
    for name, val in values.items():
        store.add(name, np.asarray(val, dtype=np.float64))
    return store


def resealed(raw: bytes) -> bytes:
    """A checkpoint body followed by its own CRC-32, so the file fails only on its content."""
    return raw + struct.pack("<I", zlib.crc32(raw))


def set_grads(store, grads):
    for name, g in grads.items():
        store[name].grad = np.asarray(g)


class TestAdamStep:
    def test_zero_gradient_leaves_params_bitwise(self):
        store = tiny_store(seed=1)
        before = {n: t.data.copy() for n, t in store.items()}
        set_grads(store, {n: np.zeros_like(t.data) for n, t in store.items()})
        adam_step(store, AdamState(store), lr=1e-2)
        for n, t in store.items():
            np.testing.assert_array_equal(t.data, before[n])

    def test_consumed_gradient_buffer_is_released(self):
        store = flat_store({"w": [0.5]})
        w = store["w"]
        ad.backward(ad.reduce_sum(ad.add(w, w)))  # two contributions: w owns their sum
        assert w.grad is w._own
        adam_step(store, AdamState(store), lr=1e-3)
        assert w._own is None

    def test_unreached_tensor_counts_as_zero_gradient(self):
        store = flat_store({"w": [0.5], "u": [0.25]})
        state = AdamState(store)
        set_grads(store, {"w": np.ones(1)})
        adam_step(store, state, lr=1e-3)
        assert store["u"].data[0] == 0.25
        np.testing.assert_array_equal(state.m["u"], [0.0])
        assert store["w"].data[0] < 0.5
        # both gradients are consumed, so the next step sees none
        assert store["w"].grad is None and store["u"].grad is None
        adam_step(store, state, lr=1e-3)
        assert state.step_count == 2
        assert state.m["w"][0] == pytest.approx(0.1 * 0.9, rel=1e-12)

    def test_zero_lr_leaves_params_bitwise(self):
        store = tiny_store(seed=2)
        rng = np.random.default_rng(0)
        before = {n: t.data.copy() for n, t in store.items()}
        set_grads(store, {n: rng.normal(size=t.data.shape).astype(t.data.dtype)
                          for n, t in store.items()})
        state = AdamState(store)
        adam_step(store, state, lr=0.0)
        for n, t in store.items():
            np.testing.assert_array_equal(t.data, before[n])
        assert state.step_count == 1  # moments still advance

    def test_first_step_closed_form(self):
        store = flat_store({"w": [0.5]})
        state = AdamState(store)
        set_grads(store, {"w": np.ones(1)})
        adam_step(store, state, lr=1e-3)
        # m_hat = v_hat = 1 after bias correction, so the step is -lr/(1+eps)
        expected = 0.5 - 1e-3 / (1.0 + 1e-8)
        assert store["w"].data[0] == pytest.approx(expected, rel=1e-12)

    def test_constant_gradient_keeps_unit_step(self):
        store = flat_store({"w": [0.0]})
        state = AdamState(store)
        for _ in range(3):
            set_grads(store, {"w": np.ones(1)})
            adam_step(store, state, lr=1e-3)
        assert store["w"].data[0] == pytest.approx(-3e-3, rel=1e-6)

    def test_gradient_scaling_preserves_sign_pattern(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=8)
        updates = []
        for c in (1.0, 100.0):
            store = flat_store({"w": np.zeros(8)})
            set_grads(store, {"w": c * g})
            adam_step(store, AdamState(store), lr=1e-3)
            updates.append(store["w"].data.copy())
        np.testing.assert_array_equal(np.sign(updates[0]), np.sign(updates[1]))

    def test_misaligned_gradients_rejected(self):
        store = tiny_store(seed=0)
        store["head.w"].grad = np.zeros((2, 2))
        with pytest.raises(ValueError):
            adam_step(store, AdamState(store), lr=1e-3)


class TestTrainStep:
    @pytest.mark.parametrize("seed", range(5))
    def test_one_step_decreases_sequence_loss(self, seed):
        store = tiny_store(seed=seed)
        tconfig = TrainConfig(lr=1e-3, epochs=1)
        rng = np.random.default_rng(seed)
        seq = make_seq(rng, 2)
        state = AdamState(store)
        loss_before, _ = train_step(store, tconfig, state, seq)
        loss_after, _ = sequence_gradients(store, tconfig, seq)
        assert loss_after < loss_before

    def test_detach_gradient_is_sum_of_per_step_gradients(self):
        store = tiny_store(seed=4, dtype=np.float64)
        tconfig = TrainConfig(lr=1e-3, bptt_mode="detach")
        rng = np.random.default_rng(4)
        seq = make_seq(rng, 2, dtype=np.float64)

        sequence_gradients(store, tconfig, seq)
        seq_grads = {n: t.grad.copy() for n, t in store.items()}

        with ad.no_grad():
            realized = unroll_forward(store, seq, mode="detach")
        per_step = []
        for t, frozen_prev in enumerate([np.zeros_like(realized.data[:1]), realized.data[:1]]):
            out = step(store, Tensor(seq.frames[t:t + 1]), Tensor(frozen_prev.copy()))
            store.zero_grads()
            ad.backward(combined_loss(out, Tensor(seq.labels[t:t + 1])))
            per_step.append({n: g.grad.copy() for n, g in store.items()})
            store.zero_grads()
        for name in seq_grads:
            total = per_step[0][name] + per_step[1][name]
            np.testing.assert_allclose(seq_grads[name], total, rtol=1e-6, atol=1e-12)

    def test_teacher_forcing_feeds_labels_across_chunks(self, monkeypatch):
        # 16 slices in two 8-slice chunks, each one batched feed: slice 8, the
        # second chunk's first, must be fed label 7 like every other slice,
        # not chunk 1's last prediction
        fed = []

        def spy(params, x_t, y_prev=None):
            fed.append(y_prev.data.copy())
            return step(params, x_t, y_prev)

        monkeypatch.setattr(recurrent, "step", spy)
        seq = make_seq(np.random.default_rng(12), 16)
        tconfig = TrainConfig(lr=1e-3, epochs=1, teacher_forcing=True, max_seq_len=8)
        train(tiny_store(seed=12), tconfig, [seq], [make_seq(np.random.default_rng(13), 2)])
        # then validation's free-running slices, one per call
        assert [f.shape[0] for f in fed] == [8, 8, 1, 1]
        per_slice = np.concatenate(fed[:2])
        np.testing.assert_array_equal(per_slice[:1], np.zeros_like(seq.labels[:1]))
        for t in range(1, 16):
            np.testing.assert_array_equal(per_slice[t : t + 1], seq.labels[t - 1 : t])

    def test_unlabeled_sequence_rejected(self):
        store = tiny_store(seed=0)
        tconfig = TrainConfig()
        seq = make_seq(np.random.default_rng(0), 2, labels=None)
        with pytest.raises(ValueError):
            train_step(store, tconfig, AdamState(store), seq)


class TestTrainLoop:
    def test_patience_stops_on_worsening_validation(self):
        # same frames, contradictory labels: fitting all-ones training labels
        # drives the all-zeros validation loss upward
        store = tiny_store(seed=0)
        rng = np.random.default_rng(5)
        frames_seq = make_seq(rng, 2, labels="ones")
        val_seq = SliceSequence(frames=frames_seq.frames, labels=np.zeros_like(frames_seq.labels),
                                orig_hw=frames_seq.orig_hw,
                                pad_offset=frames_seq.pad_offset, spacing_mm=frames_seq.spacing_mm)
        tconfig = TrainConfig(lr=0.1, epochs=10, patience=1, seed=0)
        history = train(store, tconfig, [frames_seq], [val_seq])
        assert len(history) == 2
        assert history[1].val_loss > history[0].val_loss
        # params were restored to the epoch-0 snapshot
        val_loss, _ = validation_stats(store, tconfig, [val_seq])
        assert val_loss == pytest.approx(history[0].val_loss, rel=1e-12)

    def test_val_dice_matches_segment_on_padded_volume(self):
        # 40x36 pads to 40x40 at L3; the history's Dice must be counted on
        # the cropped volume, as segment_volume + dice_coefficient count it
        vol, mask = generate_phantom(PhantomSpec(dims=(8, 40, 36), seed=0))
        vol = normalize_intensity(vol)
        store = build_model(ModelConfig(backbone="unet", levels=3, base_channels=4,
                                        recurrent=True), seed=0)
        tconfig = TrainConfig()
        seq = to_sequence(vol, mask, pad_to=8)
        assert seq.frames.shape[2:] != mask.dims[1:]
        _, val_dice = validation_stats(store, tconfig, [seq])
        seg = segment_volume(store, vol, threshold=tconfig.threshold)
        assert val_dice == dice_coefficient(seg, mask)

    def test_fixed_seed_reproduces_history_and_params(self):
        rng = np.random.default_rng(6)
        train_set = [make_seq(rng, 3), make_seq(rng, 3)]
        val_set = [make_seq(rng, 2)]
        runs = []
        for _ in range(2):
            store = tiny_store(seed=6)
            tconfig = TrainConfig(lr=1e-3, epochs=3, seed=9)
            history = train(store, tconfig, train_set, val_set)
            runs.append((history, {n: t.data.copy() for n, t in store.items()}))
        assert runs[0][0] == runs[1][0]
        for n in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][n], runs[1][1][n])

    def test_restored_params_hit_best_validation_loss(self):
        rng = np.random.default_rng(7)
        train_set = [make_seq(rng, 3)]
        val_set = [make_seq(rng, 2)]
        store = tiny_store(seed=7)
        tconfig = TrainConfig(lr=5e-3, epochs=6, patience=10, seed=1)
        history = train(store, tconfig, train_set, val_set)
        val_loss, _ = validation_stats(store, tconfig, val_set)
        assert val_loss == pytest.approx(min(h.val_loss for h in history), rel=1e-12)
        assert [h.epoch for h in history] == list(range(len(history)))

    def test_single_step_chunks_make_modes_agree(self):
        rng = np.random.default_rng(8)
        train_set = [make_seq(rng, 3)]
        val_set = [make_seq(rng, 2)]
        histories = []
        for mode in ("detach", "full"):
            store = tiny_store(seed=8)
            tconfig = TrainConfig(lr=1e-3, epochs=2, seed=2, bptt_mode=mode, max_seq_len=1)
            histories.append(train(store, tconfig, train_set, val_set))
        assert histories[0] == histories[1]

    def test_empty_sets_rejected(self):
        store = tiny_store(seed=0)
        seq = make_seq(np.random.default_rng(9), 2)
        with pytest.raises(ValueError):
            train(store, TrainConfig(), [], [seq])
        with pytest.raises(ValueError):
            train(store, TrainConfig(), [seq], [])

    def test_empty_sequence_rejected(self):
        store = tiny_store(seed=0)
        seq, empty = make_seq(np.random.default_rng(9), 2), make_seq(np.random.default_rng(9), 0)
        for train_set, val_set in (([seq, empty], [seq]), ([seq], [empty])):
            with pytest.raises(ValueError, match="at least one slice"):
                train(store, TrainConfig(epochs=1), train_set, val_set)

    def test_nan_aborts_with_diagnostic(self):
        store = tiny_store(seed=0)
        store["head.w"].data[...] = np.nan
        seq = make_seq(np.random.default_rng(10), 2)
        with pytest.raises(FloatingPointError, match="epoch 0"):
            train(store, TrainConfig(epochs=1), [seq], [seq])

    def test_config_validation(self):
        for lr in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                TrainConfig(lr=lr)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(bptt_mode="loop")
        with pytest.raises(ValueError):
            TrainConfig(threshold=1.0)
        with pytest.raises(ValueError):
            TrainConfig(max_seq_len=0)
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=-1)


class TestCheckpoint:
    def _trained_store(self):
        cfg = ModelConfig(backbone="attunet", levels=2, base_channels=4, recurrent=True)
        store = build_model(cfg, seed=11)
        # move every array off its initial value, BN's constant fills included
        rng = np.random.default_rng(11)
        for _, t in store.items():
            t.data += rng.normal(scale=0.1, size=t.shape).astype(t.dtype)
        return store

    def test_round_trip_is_bit_exact(self, tmp_path):
        store = self._trained_store()
        path = tmp_path / "model.rsck"
        save_checkpoint(store, path)
        loaded = load_checkpoint(path)
        assert loaded.config == store.config
        assert loaded.names() == store.names()
        for n, t in store.items():
            np.testing.assert_array_equal(loaded[n].data, t.data)
            assert loaded[n].requires_grad == t.requires_grad

    def test_save_load_save_is_byte_identical(self, tmp_path):
        store = self._trained_store()
        p1 = tmp_path / "a.rsck"
        p2 = tmp_path / "b.rsck"
        save_checkpoint(store, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_temp_file_left_behind(self, tmp_path):
        store = self._trained_store()
        save_checkpoint(store, tmp_path / "m.rsck")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.rsck"]

    def test_bad_magic_rejected(self, tmp_path):
        store = self._trained_store()
        path = tmp_path / "m.rsck"
        save_checkpoint(store, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        store = self._trained_store()
        path = tmp_path / "m.rsck"
        save_checkpoint(store, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        store = self._trained_store()
        path = tmp_path / "m.rsck"
        save_checkpoint(store, path)
        path.write_bytes(resealed(path.read_bytes()[:-14]))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        store = self._trained_store()
        path = tmp_path / "m.rsck"
        save_checkpoint(store, path)
        path.write_bytes(resealed(path.read_bytes()[:-4] + b"\x00"))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: trailing"):
            load_checkpoint(path)

    def test_damaged_payload_fails_the_checksum(self, tmp_path):
        store = self._trained_store()
        path = tmp_path / "m.rsck"
        save_checkpoint(store, path)
        blob = bytearray(path.read_bytes())
        blob[-8] ^= 0x01  # the lowest mantissa bit of the last stored value
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: checksum mismatch"):
            load_checkpoint(path)

    def test_unknown_parameter_name_rejected(self, tmp_path):
        store = self._trained_store()
        path = tmp_path / "m.rsck"
        save_checkpoint(store, path)
        path.write_bytes(resealed(path.read_bytes()[:-4].replace(b"head.w", b"head.q")))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*head.q"):
            load_checkpoint(path)

    def _save_edited(self, path, edit):
        """Save the trained store after ``edit(name, array)`` -> array or None (drop)."""
        store = self._trained_store()
        edited = ParamStore(store.config)
        for name, t in store.items():
            arr = edit(name, t.data)
            if arr is not None:
                edited.add(name, arr)
        save_checkpoint(edited, path)

    def test_missing_parameter_rejected(self, tmp_path):
        path = tmp_path / "m.rsck"
        self._save_edited(path, lambda n, a: None if n == "head.b" else a)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: checkpoint is missing parameters: ['head.b']...")):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.rsck"
        self._save_edited(path, lambda n, a: a.reshape(4, 1, 1, 1) if n == "head.w" else a)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: parameter 'head.w' has shape (4, 1, 1, 1) in file, "
                "expected (1, 4, 1, 1)")):
            load_checkpoint(path)

    def test_duplicate_parameter_rejected(self, tmp_path):
        store = self._trained_store()
        path = tmp_path / "m.rsck"
        save_checkpoint(store, path)
        # the names have equal length, so the file stays well formed but now
        # holds head.w twice
        path.write_bytes(resealed(path.read_bytes()[:-4].replace(b"head.b", b"head.w")))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: duplicate parameter 'head.w' in checkpoint")):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        path = tmp_path / "m.rsck"
        self._save_edited(path, lambda n, a: np.full_like(a, bad) if n == "head.b" else a)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: parameter 'head.b' "
                                             "has non-finite values"):
            load_checkpoint(path)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        store = self._trained_store()
        path = tmp_path / "m.rsck"
        save_checkpoint(store, path)
        monkeypatch.setattr(np.random, "Philox", None)  # any draw would fail
        assert load_checkpoint(path).names() == store.names()

    def test_default_config_checkpoint_is_small(self, tmp_path):
        store = build_model(ModelConfig(), seed=0)
        path = tmp_path / "m.rsck"
        save_checkpoint(store, path)
        assert path.stat().st_size < 20 * 1024 * 1024
