import os

import numpy as np
import pytest

from rseg import data
from rseg.data import (
    BACKGROUND_INTENSITY,
    DECOY_INTENSITY,
    MASK_COUNT_BOUNDS,
    OBJECT_INTENSITY,
    STREAK_INTENSITY,
    PhantomSpec,
    Volume,
    derive_seed,
    generate_phantom,
    load_volume,
    normalize_intensity,
    save_volume,
    to_sequence,
)
from rseg.metrics import VolumeMask
from rseg.trainer import _chunks


class TestPhantomSpec:
    def test_too_small_dims_rejected(self):
        with pytest.raises(ValueError):
            PhantomSpec(dims=(4, 48, 48))
        with pytest.raises(ValueError):
            PhantomSpec(dims=(16, 48, 16))

    def test_voxel_bound_is_inclusive(self):
        PhantomSpec(dims=(64, 512, 512))  # MAX_PHANTOM_VOXELS exactly; nothing is drawn
        with pytest.raises(ValueError, match="voxels"):
            PhantomSpec(dims=(65, 512, 512))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            PhantomSpec(noise_sigma=-1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            PhantomSpec(seed=-1)


class TestGenerator:
    def test_same_seed_bit_identical(self):
        spec = PhantomSpec(seed=123, decoys=True, artifact_streaks=True)
        v1, m1 = generate_phantom(spec)
        v2, m2 = generate_phantom(spec)
        np.testing.assert_array_equal(v1.intensities, v2.intensities)
        np.testing.assert_array_equal(m1.voxels, m2.voxels)

    def test_different_seeds_differ(self):
        v1, _ = generate_phantom(PhantomSpec(seed=1))
        v2, _ = generate_phantom(PhantomSpec(seed=2))
        assert not np.array_equal(v1.intensities, v2.intensities)

    def test_clean_phantom_uses_configured_intensities_only(self):
        spec = PhantomSpec(seed=5, noise_sigma=0.0, decoys=False, artifact_streaks=False)
        vol, _ = generate_phantom(spec)
        values = set(np.unique(vol.intensities).tolist())
        assert values <= {BACKGROUND_INTENSITY, OBJECT_INTENSITY, DECOY_INTENSITY}

    @pytest.mark.parametrize("seed", range(10))
    def test_mask_count_within_frozen_bounds(self, seed):
        _, mask = generate_phantom(PhantomSpec(seed=seed))
        lo, hi = MASK_COUNT_BOUNDS
        assert lo <= mask.count() <= hi

    def test_mask_voxels_carry_object_intensity_before_noise(self):
        spec = PhantomSpec(seed=9, noise_sigma=0.0, decoys=True, artifact_streaks=True)
        vol, mask = generate_phantom(spec)
        fg = mask.voxels == 1
        assert fg.any()
        assert np.all(vol.intensities[fg] == OBJECT_INTENSITY)

    def test_minimum_dims_still_fit_the_arc(self):
        vol, mask = generate_phantom(PhantomSpec(dims=(8, 32, 32), seed=3))
        assert mask.count() > 0
        assert vol.dims == (8, 32, 32)

    def test_every_slice_has_object(self):
        _, mask = generate_phantom(PhantomSpec(seed=11))
        per_slice = mask.voxels.reshape(mask.dims[0], -1).sum(axis=1)
        assert np.all(per_slice > 0)


class TestDecoys:
    def test_decoy_matches_object_footprint(self):
        # same-slice decoy area stays close to the object's: locally
        # indistinguishable by size
        spec = PhantomSpec(seed=4, decoys=True, noise_sigma=0.0)
        vol, mask = generate_phantom(spec)
        found = 0
        for z in range(vol.dims[0]):
            obj = int(mask.voxels[z].sum())
            dec = int(((vol.intensities[z] == DECOY_INTENSITY) & (mask.voxels[z] == 0)).sum())
            if dec > 20:
                found += 1
                assert 0.7 * obj <= dec <= 1.4 * obj
        assert found >= vol.dims[0] // 2

    def test_decoy_positions_jump_between_slices(self):
        spec = PhantomSpec(seed=6, decoys=True, noise_sigma=0.0)
        vol, mask = generate_phantom(spec)
        centroids = []
        for z in range(vol.dims[0]):
            pts = np.argwhere((vol.intensities[z] == DECOY_INTENSITY) & (mask.voxels[z] == 0))
            if len(pts) > 20:
                centroids.append(pts.mean(axis=0))
        jumps = [np.linalg.norm(a - b) for a, b in zip(centroids, centroids[1:])]
        # the object drifts by ~1 voxel per slice; the decoy teleports
        assert max(jumps) > 5.0

    def test_object_centroid_moves_smoothly(self):
        _, mask = generate_phantom(PhantomSpec(seed=6, decoys=True, noise_sigma=0.0))
        centroids = [np.argwhere(mask.voxels[z]).mean(axis=0) for z in range(mask.dims[0])]
        jumps = [np.linalg.norm(a - b) for a, b in zip(centroids, centroids[1:])]
        assert max(jumps) < 3.0

    def test_decoys_never_overlap_object(self):
        spec = PhantomSpec(seed=8, decoys=True, noise_sigma=0.0)
        vol, mask = generate_phantom(spec)
        assert np.all(vol.intensities[mask.voxels == 1] == OBJECT_INTENSITY)


def _reference_paint_decoy(rng, vol_z, mask_z, yy, xx, h, w,
                           cy, cx, radius, tube, gamma, dtheta):
    """The decoy search that scored candidates over a (72, 72, 2) array of point pairs."""

    def arc_points(py, px, theta0):
        t = theta0 + dtheta * np.linspace(0.0, 1.0, 72)
        return np.stack([py + radius * np.sin(t), px + radius * np.cos(t)], axis=1)

    obj_pts = arc_points(cy, cx, gamma)
    m = radius + tube + 1.0
    want = 2.0 * tube + 1.5
    best = None
    best_d = -1.0
    for _ in range(80):
        dcy = rng.uniform(m, h - 1 - m)
        dcx = rng.uniform(m, w - 1 - m)
        dth = rng.uniform(0.0, 2.0 * np.pi)
        cand = arc_points(dcy, dcx, dth)
        dist = float(np.sqrt(((cand[:, None, :] - obj_pts[None, :, :]) ** 2).sum(axis=2).min()))
        if dist > best_d:
            best, best_d = (dcy, dcx, dth), dist
        if dist >= want:
            break
    if best_d >= 2.0 * tube + 0.5:
        dcy, dcx, dth = best
        fg = data._arc_distance(yy, xx, dcy, dcx, radius, dth, dtheta) <= tube
        vol_z[fg & (mask_z == 0)] = DECOY_INTENSITY


def _decoy_calls(monkeypatch, spec):
    """(generator state, arguments) of each ``_paint_decoy`` call of ``generate_phantom(spec)``."""
    calls = []
    paint = data._paint_decoy

    def record(rng, vol_z, mask_z, *rest):
        calls.append((rng.bit_generator.state, (vol_z.copy(), mask_z.copy(), *rest)))
        paint(rng, vol_z, mask_z, *rest)

    monkeypatch.setattr(data, "_paint_decoy", record)
    generate_phantom(spec)
    monkeypatch.setattr(data, "_paint_decoy", paint)
    return calls


def _generator(state):
    rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = state
    return rng


def _state(rng):
    """``rng.bit_generator.state`` with its arrays as lists, so that states compare by ``==``."""
    state = rng.bit_generator.state
    return {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
            "buffer": state["buffer"].tolist()}


class TestDecoySearchOracle:
    # 8x32x32 runs all 80 tries in most slices; the rest are the default spec,
    # the train-small and the infer-eval benchmark shapes
    @pytest.mark.parametrize("dims", [(8, 32, 32), (16, 48, 48), (8, 48, 48), (8, 53, 55),
                                      (9, 50, 46), (10, 45, 47), (11, 41, 43), (12, 37, 39),
                                      (8, 33, 61)])
    def test_same_bytes_as_the_pair_array_search(self, dims, monkeypatch):
        specs = [PhantomSpec(dims=dims, decoys=True, artifact_streaks=streaks, seed=seed)
                 for streaks in (False, True) for seed in (0, 1, 2)]
        got = [generate_phantom(spec) for spec in specs]
        monkeypatch.setattr(data, "_paint_decoy", _reference_paint_decoy)
        for spec, (vol, mask) in zip(specs, got):
            ref_vol, ref_mask = generate_phantom(spec)
            assert vol.intensities.tobytes() == ref_vol.intensities.tobytes(), spec
            assert mask.voxels.tobytes() == ref_mask.voxels.tobytes(), spec

    # one slice that tries all 80 poses, one that stops part-way, one that
    # stops at the first candidate
    @pytest.mark.parametrize("dims, seed, z, tries", [((8, 32, 32), 2, 0, 80),
                                                      ((8, 48, 48), 1, 1, 15),
                                                      ((8, 48, 48), 0, 0, 1)])
    def test_generator_ends_where_the_pair_array_search_leaves_it(self, monkeypatch, dims,
                                                                  seed, z, tries):
        state, (vol_z, mask_z, *rest) = _decoy_calls(
            monkeypatch, PhantomSpec(dims=dims, decoys=True, seed=seed))[z]
        ends = []
        for paint in (data._paint_decoy, _reference_paint_decoy):
            rng, vol = _generator(state), vol_z.copy()
            paint(rng, vol, mask_z, *rest)
            ends.append((_state(rng), vol.tobytes()))
        assert ends[0] == ends[1]
        # three draws for each pose tried
        drawn = _generator(state)
        drawn.random(3 * tries)
        assert ends[1][0] == _state(drawn)


class TestStreaks:
    def test_streaks_present_and_avoid_mask(self):
        spec = PhantomSpec(seed=2, artifact_streaks=True, noise_sigma=0.0)
        vol, mask = generate_phantom(spec)
        streak = vol.intensities == STREAK_INTENSITY
        assert streak.any()
        assert not np.any(streak & (mask.voxels == 1))


class TestVolume:
    def test_non_positive_spacing_rejected(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="spacing"):
                Volume(np.zeros((2, 2, 2), dtype=np.float32), (1.0, 1.0, bad))


class TestVolumeIO:
    def test_volume_round_trip_bit_exact(self, tmp_path):
        vol, _ = generate_phantom(PhantomSpec(seed=1))
        path = tmp_path / "v.mvf"
        save_volume(vol, path)
        back = load_volume(path)
        assert isinstance(back, Volume)
        np.testing.assert_array_equal(back.intensities, vol.intensities)
        assert back.spacing_mm == pytest.approx(vol.spacing_mm)

    def test_mask_round_trip_bit_exact(self, tmp_path):
        _, mask = generate_phantom(PhantomSpec(seed=1))
        path = tmp_path / "m.mvf"
        save_volume(mask, path)
        back = load_volume(path)
        assert isinstance(back, VolumeMask)
        np.testing.assert_array_equal(back.voxels, mask.voxels)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.mvf"
        save_volume(VolumeMask(np.zeros((2, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0)), path)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated"):
            save_volume(VolumeMask(np.ones((2, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0)), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.mvf"]

    def test_file_size_formula(self, tmp_path):
        vol = Volume(np.zeros((32, 64, 64), dtype=np.float32), (1.0, 1.0, 1.0))
        path = tmp_path / "v.mvf"
        save_volume(vol, path)
        assert path.stat().st_size == 4 + 1 + 12 + 12 + 32 * 64 * 64 * 4

    # the header ends at byte 29: magic (4) plus <B3I3f (25)
    @pytest.mark.parametrize("keep, match", [
        (6, "truncated header"),
        (28, "truncated header"),
        (29, "payload length"),
        (-10, "payload length"),
    ], ids=["header_6", "header_28", "payload_0", "payload_minus_10"])
    def test_truncated_payload_rejected(self, tmp_path, keep, match):
        vol = Volume(np.zeros((8, 8, 8), dtype=np.float32), (1.0, 1.0, 1.0))
        path = tmp_path / "v.mvf"
        save_volume(vol, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:keep])
        with pytest.raises(ValueError, match=match):
            load_volume(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mvf"
        path.write_bytes(b"XXXX" + bytes(100))
        with pytest.raises(ValueError, match="magic"):
            load_volume(path)

    def test_unknown_dtype_code_rejected(self, tmp_path):
        vol = Volume(np.zeros((8, 8, 8), dtype=np.float32), (1.0, 1.0, 1.0))
        path = tmp_path / "v.mvf"
        save_volume(vol, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="dtype code"):
            load_volume(path)


class TestNormalize:
    def test_window_endpoints(self):
        v = Volume(np.array([[[300.0, 2000.0, 100.0, 2500.0]]], dtype=np.float32), (1, 1, 1))
        out = normalize_intensity(v).intensities[0, 0]
        assert out[0] == 0.0
        assert out[1] == 1.0
        assert out[2] == 0.0  # clamped below
        assert out[3] == 1.0  # clamped above

    def test_monotone_inside_window(self):
        rng = np.random.default_rng(0)
        vals = np.sort(rng.uniform(300.0, 2000.0, size=32)).astype(np.float32)
        v = Volume(vals.reshape(1, 1, 32), (1, 1, 1))
        out = normalize_intensity(v).intensities.reshape(-1)
        assert np.all(np.diff(out) >= 0)

    def test_default_window_puts_object_above_half(self):
        spec = PhantomSpec(seed=3, noise_sigma=0.0)
        vol, mask = generate_phantom(spec)
        out = normalize_intensity(vol).intensities
        assert np.all(out[mask.voxels == 1] > 0.5)


class TestToSequence:
    def test_slice_count(self):
        vol, mask = generate_phantom(PhantomSpec(seed=1))
        seq = to_sequence(vol, mask)
        assert len(seq) == vol.dims[0]
        assert seq.labels is not None and len(seq.labels) == vol.dims[0]

    def test_pad_then_crop_restores_labels_bit_exact(self):
        vol, mask = generate_phantom(PhantomSpec(dims=(8, 45, 50), seed=2))
        seq = to_sequence(vol, mask, pad_to=8)
        assert seq.frames[:1].shape == (1, 1, 48, 56)
        restored = seq.restore(seq.labels)
        np.testing.assert_array_equal(restored, mask.voxels.astype(np.float32))

    def test_padding_adds_only_zeros(self):
        vol, mask = generate_phantom(PhantomSpec(dims=(8, 45, 50), seed=2))
        seq = to_sequence(vol, mask, pad_to=8)
        h, w = seq.orig_hw
        top, left = seq.pad_offset
        frame = seq.frames[0, 0]
        border = np.ones_like(frame, dtype=bool)
        border[top : top + h, left : left + w] = False
        assert np.all(frame[border] == 0.0)

    def test_frames_and_labels_are_c_ordered_f32_stacks(self):
        vol, mask = generate_phantom(PhantomSpec(dims=(9, 45, 50), seed=2))
        seq = to_sequence(vol, mask, pad_to=8)
        for stack in (seq.frames, seq.labels):
            assert isinstance(stack, np.ndarray)
            assert stack.shape == (9, 1, 48, 56)
            assert stack.dtype == np.float32 and stack.flags.c_contiguous
        assert to_sequence(vol, pad_to=8).labels is None

    def test_chunks_are_views_of_the_stacks(self):
        vol, mask = generate_phantom(PhantomSpec(dims=(9, 32, 32), seed=2))
        seq = to_sequence(vol, mask)
        chunks = list(_chunks(seq, 4))
        assert [len(c) for c in chunks] == [4, 4, 1]
        for chunk in chunks:
            assert np.shares_memory(chunk.frames, seq.frames)
            assert np.shares_memory(chunk.labels, seq.labels)
            assert chunk.frames.flags.c_contiguous

    def test_non_power_of_two_pad_rejected(self):
        vol, _ = generate_phantom(PhantomSpec(seed=1))
        with pytest.raises(ValueError):
            to_sequence(vol, pad_to=3)

    def test_restore_length_mismatch_rejected(self):
        vol, mask = generate_phantom(PhantomSpec(seed=1))
        seq = to_sequence(vol, mask)
        for stack in (seq.labels[:-1], np.concatenate([seq.labels, seq.labels[:1]])):
            with pytest.raises(ValueError, match="restore"):
                seq.restore(stack)


class TestDeriveSeed:
    def test_distinct_for_dataset_indices(self):
        seeds = {derive_seed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_seed(7, 0) != derive_seed(8, 0)
