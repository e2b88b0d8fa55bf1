"""Synthetic phantom generation, volume I/O and slicing into sequences.

Phantoms are horseshoe-shaped tubes swept through the slice axis with
smoothly drifting center, radius and orientation. The optional decoy is a
rigid copy of the object's current-slice arc dropped at a fresh random
position and rotation: within one slice it is indistinguishable from the
object, and only cross-slice continuity tells the two apart. A slice gets a
decoy only when one of 80 random poses keeps the two tubes 2*tube + 0.5
apart, so the smallest frames skip it in most slices: over the 18 phantoms
of seeds derive_seed(5, 0..17) it was painted in 45 of 144 slices at
8x32x32, 137 of 144 at 8x48x48 and 271 of 288 at the default 16x48x48. All
randomness comes from a counter-based Philox generator so the same spec and
seed reproduce bit-identical data on any platform.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .metrics import VolumeMask, check_spacing

BACKGROUND_INTENSITY = 0.0
OBJECT_INTENSITY = 1400.0
DECOY_INTENSITY = 1400.0
STREAK_INTENSITY = 2600.0
INTENSITY_WINDOW = (300.0, 2000.0)

# MVF1: magic, u8 dtype code, 3 x u32 dims (D,H,W), 3 x f32 spacing (z,y,x),
# then the row-major little-endian payload
_MAGIC = b"MVF1"
_DTYPE_F32 = 0
_DTYPE_U8 = 1
_HEADER = struct.Struct("<B3I3f")

# observed mask voxel counts for the default 16x48x48 spec over seeds 0..49
# were 1979..3636; frozen with headroom
MASK_COUNT_BOUNDS = (1300, 5500)

# voxels of one phantom, D*H*W: 64x512x512 at most. Generation holds a f64
# volume and its f64 noise draw, about 36 bytes a voxel (600 MB at the bound)
MAX_PHANTOM_VOXELS = 2 ** 24

_ARC_STEPS = np.linspace(0.0, 1.0, 72)  # where the decoy search samples each arc


@dataclass(frozen=True)
class Volume:
    """(D, H, W) f32 intensity grid with per-axis spacing in mm."""

    intensities: np.ndarray
    spacing_mm: tuple

    def __post_init__(self):
        arr = np.asarray(self.intensities, dtype=np.float32)
        object.__setattr__(self, "intensities", arr)
        if arr.ndim != 3 or 0 in arr.shape:
            raise ValueError(f"volume must be 3-d with no zero extent, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("volume intensities must be finite")
        check_spacing(self.spacing_mm)

    @property
    def dims(self) -> tuple:
        return self.intensities.shape


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple = (16, 48, 48)
    noise_sigma: float = 30.0
    decoys: bool = False
    artifact_streaks: bool = False
    seed: int = 0

    def __post_init__(self):
        d, h, w = self.dims
        if d < 8 or h < 32 or w < 32:
            raise ValueError(f"dims {self.dims} too small, need at least (8, 32, 32)")
        if d * h * w > MAX_PHANTOM_VOXELS:
            raise ValueError(f"dims {self.dims} hold {d * h * w} voxels, "
                             f"at most {MAX_PHANTOM_VOXELS} allowed")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def derive_seed(base_seed: int, index: int) -> int:
    """Per-volume seed for dataset generation; injective for index < 100003."""
    return base_seed * 100003 + index


def _arc_distance(yy, xx, cy, cx, radius, theta0, dtheta):
    """Distance from each pixel to a circular arc with rounded caps."""
    dy = yy - cy
    dx = xx - cx
    rho = np.hypot(dy, dx)
    rel = np.mod(np.arctan2(dy, dx) - theta0, 2.0 * np.pi)
    d_ring = np.abs(rho - radius)
    t1 = theta0 + dtheta
    d_end = np.minimum(
        np.hypot(yy - (cy + radius * np.sin(theta0)), xx - (cx + radius * np.cos(theta0))),
        np.hypot(yy - (cy + radius * np.sin(t1)), xx - (cx + radius * np.cos(t1))),
    )
    return np.where(rel <= dtheta, d_ring, d_end)


def _arc_points(cy, cx, radius, theta0, dtheta):
    t = theta0 + dtheta * _ARC_STEPS
    return cy + radius * np.sin(t), cx + radius * np.cos(t)


def generate_phantom(spec: PhantomSpec):
    """Deterministic (Volume, VolumeMask) pair; mask covers the object only."""
    d, h, w = spec.dims
    rng = np.random.Generator(np.random.Philox(spec.seed))
    ext = float(min(h, w))

    tube0 = rng.uniform(2.0, 2.8)
    radius0 = rng.uniform(0.16, 0.21) * ext
    dtheta = rng.uniform(3.4, 4.4)
    gamma0 = rng.uniform(0.0, 2.0 * np.pi)
    drift_amp = rng.uniform(0.5, 1.5, size=2)
    drift_phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
    drift_freq = rng.integers(1, 3, size=2)
    wobble_phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
    # worst-case extent of the wobbled arc plus drift stays inside the frame
    margin = radius0 * 1.08 + tube0 * 1.1 + float(drift_amp.max()) + 1.5
    cy0 = rng.uniform(margin, h - 1 - margin)
    cx0 = rng.uniform(margin, w - 1 - margin)

    vol = np.full((d, h, w), BACKGROUND_INTENSITY, dtype=np.float64)
    mask = np.zeros((d, h, w), dtype=np.uint8)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)

    for z in range(d):
        ph = 2.0 * np.pi * z / d
        cy = cy0 + drift_amp[0] * np.sin(drift_freq[0] * ph + drift_phase[0])
        cx = cx0 + drift_amp[1] * np.sin(drift_freq[1] * ph + drift_phase[1])
        radius = radius0 * (1.0 + 0.08 * np.sin(ph + wobble_phase[1]))
        tube = tube0 * (1.0 + 0.10 * np.sin(ph + wobble_phase[2]))
        gamma = gamma0 + 0.15 * np.sin(ph + wobble_phase[0])

        fg = _arc_distance(yy, xx, cy, cx, radius, gamma, dtheta) <= tube
        mask[z][fg] = 1
        vol[z][fg] = OBJECT_INTENSITY

        if spec.decoys:
            _paint_decoy(rng, vol[z], mask[z], yy, xx, h, w,
                         cy, cx, radius, tube, gamma, dtheta)

        if spec.artifact_streaks and rng.uniform() < 0.35:
            for _ in range(int(rng.integers(1, 3))):
                ang = rng.uniform(0.0, np.pi)
                offset = rng.uniform(-0.3, 0.3) * ext
                py = (h - 1) / 2.0 + offset * np.cos(ang)
                px = (w - 1) / 2.0 - offset * np.sin(ang)
                chord = np.abs((yy - py) * np.cos(ang) - (xx - px) * np.sin(ang)) <= 0.7
                vol[z][chord & (mask[z] == 0)] = STREAK_INTENSITY

    if spec.noise_sigma > 0:
        vol += rng.normal(0.0, spec.noise_sigma, size=vol.shape)

    return Volume(vol.astype(np.float32), (1.0, 1.0, 1.0)), VolumeMask(mask, (1.0, 1.0, 1.0))


def _paint_decoy(rng, vol_z, mask_z, yy, xx, h, w,
                 cy, cx, radius, tube, gamma, dtheta):
    """Same-shape arc at a fresh random pose, kept clear of the object."""
    oy, ox = _arc_points(cy, cx, radius, gamma, dtheta)
    m = radius + tube + 1.0
    want = 2.0 * tube + 1.5
    # exactly three draws per candidate, in this order: the noise drawn after
    # the decoys depends on how many draws the search took. All 80 candidates
    # are drawn at once, each pose by Generator.uniform's own arithmetic
    # (low + (high - low) * u), and the draws of untried ones are given back
    state = rng.bit_generator.state
    low = np.array([m, m, 0.0])
    high = np.array([h - 1 - m, w - 1 - m, 2.0 * np.pi])
    poses = low + (high - low) * rng.random(240).reshape(80, 3)
    py, px = _arc_points(poses[:, :1], poses[:, 1:2], radius, poses[:, 2:], dtheta)
    # every 8th point of both arcs: a subset of the pairs, so an upper bound
    dy, dx = py[:, ::8, None] - oy[::8], px[:, ::8, None] - ox[::8]
    bound = np.sqrt((dy * dy + dx * dx).min(axis=(1, 2)))
    best, best_d = 0, -1.0
    for i in range(80):
        # best_d < want here, so a candidate bounded by best_d can neither
        # beat it nor stop the search
        if bound[i] <= best_d:
            continue
        dy, dx = py[i, :, None] - oy, px[i, :, None] - ox
        dist = float(np.sqrt((dy * dy + dx * dx).min()))
        if dist > best_d:
            best, best_d = i, dist
        if dist >= want:
            rng.bit_generator.state = state
            rng.random(3 * (i + 1))
            break
    # only draw if the tubes stay disjoint; teleporting is the point, touching is not
    if best_d >= 2.0 * tube + 0.5:
        dcy, dcx, dth = poses[best]
        fg = _arc_distance(yy, xx, dcy, dcx, radius, dth, dtheta) <= tube
        vol_z[fg & (mask_z == 0)] = DECOY_INTENSITY


# ---------------------------------------------------------------------------
# volume file I/O


def _write_atomic(path, data: bytes) -> None:
    """Write a temp file beside ``path``, rename it over ``path``; on failure remove the temp."""
    target = os.fspath(path)
    tmp = target + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_volume(obj, path) -> None:
    """Atomic write of a Volume (f32) or VolumeMask (u8) in the MVF1 layout."""
    if isinstance(obj, Volume):
        code = _DTYPE_F32
        payload = np.ascontiguousarray(obj.intensities, dtype="<f4").tobytes()
    elif isinstance(obj, VolumeMask):
        code = _DTYPE_U8
        payload = np.ascontiguousarray(obj.voxels, dtype=np.uint8).tobytes()
    else:
        raise TypeError(f"save_volume: expected Volume or VolumeMask, got {type(obj)!r}")
    d, h, w = (obj.intensities.shape if code == _DTYPE_F32 else obj.voxels.shape)
    sz, sy, sx = obj.spacing_mm
    _write_atomic(path, _MAGIC + _HEADER.pack(code, d, h, w, sz, sy, sx) + payload)


def load_volume(path):
    """Read an MVF1 file back as a Volume or VolumeMask."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}, expected {_MAGIC!r}")
    offset = 4 + _HEADER.size
    if len(raw) < offset:
        raise ValueError(f"{path}: truncated header, {len(raw)} bytes, expected at least {offset}")
    code, d, h, w, sz, sy, sx = _HEADER.unpack_from(raw, 4)
    if code not in (_DTYPE_F32, _DTYPE_U8):
        raise ValueError(f"{path}: unknown dtype code {code}")
    kind, dtype = (Volume, np.dtype("<f4")) if code == _DTYPE_F32 else (VolumeMask, np.dtype("u1"))
    size = dtype.itemsize * d * h * w
    if len(raw) - offset != size:
        raise ValueError(f"{path}: payload length {len(raw) - offset}, expected {size}")
    arr = np.frombuffer(raw, dtype=dtype, count=d * h * w, offset=offset).reshape(d, h, w)
    try:
        return kind(arr.copy(), (sz, sy, sx))
    except ValueError as exc:  # a zero extent, bad voxels or bad spacing
        raise ValueError(f"{path}: {exc}") from None


def normalize_intensity(v: Volume) -> Volume:
    """Clamp to ``INTENSITY_WINDOW`` = [lo, hi] then map affinely onto [0, 1]."""
    lo, hi = INTENSITY_WINDOW
    arr = (np.clip(v.intensities, lo, hi) - lo) / (hi - lo)
    return Volume(arr.astype(np.float32), v.spacing_mm)


# ---------------------------------------------------------------------------
# slicing


@dataclass(frozen=True)
class SliceSequence:
    """C-ordered (T, 1, H, W) f32 frames in slice order, labels alike or None, crop records."""

    frames: np.ndarray
    labels: np.ndarray | None
    orig_hw: tuple
    pad_offset: tuple
    spacing_mm: tuple

    def __len__(self) -> int:
        return len(self.frames)

    def restore(self, stack) -> np.ndarray:
        """Crop a (T, 1, H, W) stack back to the volume's (D, h, w) extent."""
        if len(stack) != len(self.frames):
            raise ValueError(f"restore: {len(stack)} slices for a {len(self)}-slice sequence")
        h, w = self.orig_hw
        top, left = self.pad_offset
        return np.ascontiguousarray(stack[:, 0, top : top + h, left : left + w])


def to_sequence(v: Volume, labels: VolumeMask = None, pad_to: int = 1) -> SliceSequence:
    """Split along the slice axis, zero-padding H and W to a multiple of pad_to."""
    if pad_to < 1 or (pad_to & (pad_to - 1)) != 0:
        raise ValueError(f"pad_to must be a power of two, got {pad_to}")
    if labels is not None and labels.dims != v.dims:
        raise ValueError(f"labels dims {labels.dims} != volume dims {v.dims}")
    d, h, w = v.dims
    hp = -(-h // pad_to) * pad_to
    wp = -(-w // pad_to) * pad_to
    top = (hp - h) // 2
    left = (wp - w) // 2

    def pad(volume):
        out = np.zeros((d, 1, hp, wp), dtype=np.float32)
        out[:, 0, top : top + h, left : left + w] = volume
        return out

    return SliceSequence(
        frames=pad(v.intensities),
        labels=None if labels is None else pad(labels.voxels),
        orig_hw=(h, w),
        pad_offset=(top, left),
        spacing_mm=v.spacing_mm,
    )
