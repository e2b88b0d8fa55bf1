"""Volumetric overlap and surface-distance metrics with physical spacing.

Surfaces are foreground voxels with at least one background 6-neighbor
(out-of-bounds counts as background), emitted as voxel centers scaled by
the (z, y, x) spacing in mm. A surface voxel that both surfaces share is
0 mm from the other surface; every other one takes its nearest neighbor
from a k-d tree. The brute-force pairwise computation is the test oracle
and must agree to 1e-9 mm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EmptyMaskError(ValueError):
    """Distance metrics are undefined when a mask has no surface."""


def check_spacing(spacing_mm) -> None:
    """Voxel spacing must be three positive, finite reals (mm)."""
    if len(spacing_mm) != 3 or not all(np.isfinite(s) and s > 0 for s in spacing_mm):
        raise ValueError(f"spacing must be 3 positive finite reals, got {spacing_mm}")


@dataclass(frozen=True)
class VolumeMask:
    """Binary (D, H, W) voxel grid with per-axis spacing in mm."""

    voxels: np.ndarray
    spacing_mm: tuple

    def __post_init__(self):
        v = self.voxels
        if v.ndim != 3 or 0 in v.shape:
            raise ValueError(f"mask must be 3-d with no zero extent, got shape {v.shape}")
        if not np.all((v == 0) | (v == 1)):
            raise ValueError("mask voxels must be binary")
        check_spacing(self.spacing_mm)

    @property
    def dims(self) -> tuple:
        return self.voxels.shape

    def count(self) -> int:
        return int(np.count_nonzero(self.voxels))


@dataclass(frozen=True)
class MetricsReport:
    scan_id: str
    dice: float
    asd_mm: float
    hd95_mm: float
    hd_mm: float


def _check_dims(a: VolumeMask, b: VolumeMask, op: str) -> None:
    if a.dims != b.dims:
        raise ValueError(f"{op}: dims mismatch {a.dims} vs {b.dims}")


def dice_coefficient(a: VolumeMask, b: VolumeMask) -> float:
    """2|A n B| / (|A| + |B|), exact integer counts; both empty -> 1.0."""
    _check_dims(a, b, "dice_coefficient")
    av = a.voxels != 0
    bv = b.voxels != 0
    na, nb = int(av.sum()), int(bv.sum())
    if na + nb == 0:
        return 1.0
    inter = int(np.count_nonzero(av & bv))
    return 2.0 * inter / (na + nb)


def _surface_grid(m: VolumeMask) -> np.ndarray:
    """Boolean grid of the foreground voxels with a background 6-neighbor."""
    v = m.voxels != 0
    if not v.any():
        raise EmptyMaskError("extract_surface: empty mask")
    p = np.pad(v, 1, constant_values=False)
    all_neighbors_fg = (
        p[:-2, 1:-1, 1:-1]
        & p[2:, 1:-1, 1:-1]
        & p[1:-1, :-2, 1:-1]
        & p[1:-1, 2:, 1:-1]
        & p[1:-1, 1:-1, :-2]
        & p[1:-1, 1:-1, 2:]
    )
    return v & ~all_neighbors_fg


def _points(grid: np.ndarray, spacing_mm) -> np.ndarray:
    """(K, 3) float64 mm coordinates of the set voxels of ``grid``, in argwhere order."""
    return np.argwhere(grid).astype(np.float64) * np.asarray(spacing_mm, dtype=np.float64)


def extract_surface(m: VolumeMask) -> np.ndarray:
    """(K, 3) float64 mm coordinates of boundary voxel centers."""
    return _points(_surface_grid(m), m.spacing_mm)


def _nearest(src_grid, src_pts, other_grid, other_pts) -> np.ndarray:
    """Each source surface point's distance to the other surface, in argwhere order.

    A voxel on both surfaces is 0.0, the k-d query's own answer for it; only
    the rest are queried, against a tree built only when some are left.
    """
    dist = np.zeros(len(src_pts))
    rest = ~other_grid[src_grid]
    if rest.any():
        # imported here: scipy.spatial takes about 0.1 s to load and only this needs it
        from scipy.spatial import cKDTree

        tree = cKDTree(other_pts, balanced_tree=False, compact_nodes=False)
        dist[rest] = tree.query(src_pts[rest], k=1)[0]
    return dist


def evaluate(pred: VolumeMask, gt: VolumeMask, scan_id: str) -> MetricsReport:
    """All four metrics from one surface grid per mask."""
    _check_dims(pred, gt, "evaluate")
    if tuple(pred.spacing_mm) != tuple(gt.spacing_mm):
        raise ValueError(
            f"evaluate: spacing mismatch {pred.spacing_mm} vs {gt.spacing_mm}"
        )
    dice = dice_coefficient(pred, gt)
    # _surface_grid raises on an empty mask, so both point sets are nonempty
    gp, gg = _surface_grid(pred), _surface_grid(gt)
    sp, sg = _points(gp, pred.spacing_mm), _points(gg, gt.spacing_mm)
    dab = _nearest(gp, sp, gg, sg)
    dba = _nearest(gg, sg, gp, sp)
    return MetricsReport(
        scan_id=scan_id,
        dice=dice,
        asd_mm=0.5 * (float(np.mean(dab)) + float(np.mean(dba))),
        hd95_mm=max(
            float(np.percentile(dab, 95, method="linear")),
            float(np.percentile(dba, 95, method="linear")),
        ),
        hd_mm=max(float(np.max(dab)), float(np.max(dba))),
    )


def write_report_csv(reports, path) -> None:
    """scan_id,dice,asd_mm,hd95_mm,hd_mm rows with 6 decimals, LF endings; atomic.

    A scan_id holding a comma, a quote or a line break is quoted, its quotes
    doubled (RFC 4180); any other is written as it is.
    """
    from .data import _write_atomic  # data imports this module

    lines = ["scan_id,dice,asd_mm,hd95_mm,hd_mm"]
    for r in reports:
        scan_id = r.scan_id
        if any(c in scan_id for c in ',"\r\n'):
            scan_id = '"' + scan_id.replace('"', '""') + '"'
        lines.append(f"{scan_id},{r.dice:.6f},{r.asd_mm:.6f},{r.hd95_mm:.6f},{r.hd_mm:.6f}")
    _write_atomic(path, ("\n".join(lines) + "\n").encode())
