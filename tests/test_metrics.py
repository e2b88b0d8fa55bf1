import csv

import numpy as np
import pytest

from rseg.metrics import (
    EmptyMaskError,
    MetricsReport,
    VolumeMask,
    dice_coefficient,
    evaluate,
    extract_surface,
    write_report_csv,
)

from rseg.data import PhantomSpec, generate_phantom

from _oracle import brute_force_metrics, random_structured_mask

UNIT = (1.0, 1.0, 1.0)


def mask_from_indices(shape, indices, spacing=UNIT):
    v = np.zeros(shape, dtype=np.uint8)
    for idx in indices:
        v[idx] = 1
    return VolumeMask(v, spacing)


class TestVolumeMask:
    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            VolumeMask(np.full((2, 2, 2), 0.5), UNIT)

    def test_non_positive_spacing_rejected(self):
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                VolumeMask(np.zeros((2, 2, 2), dtype=np.uint8), (1.0, bad, 1.0))

    def test_non_3d_rejected(self):
        with pytest.raises(ValueError):
            VolumeMask(np.zeros((2, 2), dtype=np.uint8), UNIT)


class TestDice:
    def test_identical_nonempty(self):
        m = mask_from_indices((4, 4, 4), [(1, 1, 1), (2, 2, 2)])
        assert dice_coefficient(m, m) == 1.0

    def test_disjoint(self):
        a = mask_from_indices((4, 4, 4), [(0, 0, 0)])
        b = mask_from_indices((4, 4, 4), [(3, 3, 3)])
        assert dice_coefficient(a, b) == 0.0

    def test_half_overlap_squares(self):
        a = VolumeMask(np.zeros((1, 4, 4), dtype=np.uint8), UNIT)
        a.voxels[0, 0:2, 0:2] = 1
        b = VolumeMask(np.zeros((1, 4, 4), dtype=np.uint8), UNIT)
        b.voxels[0, 0:2, 1:3] = 1
        assert dice_coefficient(a, b) == 0.5

    def test_empty_empty_is_one(self):
        e = VolumeMask(np.zeros((3, 3, 3), dtype=np.uint8), UNIT)
        assert dice_coefficient(e, e) == 1.0

    def test_empty_vs_nonempty_is_zero(self):
        e = VolumeMask(np.zeros((3, 3, 3), dtype=np.uint8), UNIT)
        m = mask_from_indices((3, 3, 3), [(1, 1, 1)])
        assert dice_coefficient(e, m) == 0.0

    def test_dims_mismatch_rejected(self):
        a = VolumeMask(np.zeros((2, 2, 2), dtype=np.uint8), UNIT)
        b = VolumeMask(np.zeros((3, 2, 2), dtype=np.uint8), UNIT)
        with pytest.raises(ValueError):
            dice_coefficient(a, b)


class TestSurface:
    def test_single_voxel(self):
        m = mask_from_indices((4, 4, 4), [(1, 2, 3)], spacing=(2.0, 1.0, 0.5))
        pts = extract_surface(m)
        assert pts.shape == (1, 3)
        np.testing.assert_allclose(pts[0], [2.0, 2.0, 1.5])

    def test_solid_cube_sheds_center(self):
        v = np.zeros((5, 5, 5), dtype=np.uint8)
        v[1:4, 1:4, 1:4] = 1
        pts = extract_surface(VolumeMask(v, UNIT))
        assert len(pts) == 26

    def test_hollow_shape_keeps_inner_boundary(self):
        v = np.zeros((7, 7, 7), dtype=np.uint8)
        v[1:6, 1:6, 1:6] = 1
        v[3, 3, 3] = 0  # cavity
        pts = extract_surface(VolumeMask(v, UNIT))
        pts_set = {tuple(p) for p in pts}
        assert (2.0, 3.0, 3.0) in pts_set  # cavity wall
        assert (1.0, 1.0, 1.0) in pts_set  # outer shell

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyMaskError):
            extract_surface(VolumeMask(np.zeros((3, 3, 3), dtype=np.uint8), UNIT))


def distances(a, b):
    """(asd, hd95, hd) in mm from the library's one surface-distance path."""
    r = evaluate(a, b, "s")
    return r.asd_mm, r.hd95_mm, r.hd_mm


class TestDirectedDistance:
    # single voxels are their own surfaces, so masks stand in for point sets
    def test_identical_sets(self):
        m = mask_from_indices((4, 4, 4), [(0, 0, 0), (1, 2, 3)])
        assert distances(m, m) == (0.0, 0.0, 0.0)

    def test_single_points(self):
        a = mask_from_indices((1, 1, 4), [(0, 0, 0)])
        b = mask_from_indices((1, 1, 4), [(0, 0, 3)])
        assert distances(a, b) == pytest.approx((3.0, 3.0, 3.0), abs=1e-12)

    def test_asymmetry(self):
        # A -> B averages 0, B -> A averages 5; ASD is the mean of the two
        a = mask_from_indices((1, 1, 11), [(0, 0, 0)])
        b = mask_from_indices((1, 1, 11), [(0, 0, 0), (0, 0, 10)])
        asd_v, _, hd_v = distances(a, b)
        assert asd_v == pytest.approx(2.5, abs=1e-12)
        assert hd_v == pytest.approx(10.0, abs=1e-12)


class TestAsd:
    def test_identical_masks(self):
        m = mask_from_indices((4, 4, 4), [(1, 1, 1), (2, 3, 2)])
        assert distances(m, m)[0] == 0.0

    def test_single_voxels_three_mm_apart(self):
        a = mask_from_indices((6, 3, 3), [(0, 1, 1)])
        b = mask_from_indices((6, 3, 3), [(3, 1, 1)])
        assert distances(a, b)[0] == pytest.approx(3.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(12)
        a = VolumeMask(random_structured_mask(rng, (10, 10, 10)), UNIT)
        b = VolumeMask(random_structured_mask(rng, (10, 10, 10)), UNIT)
        assert distances(a, b)[0] == distances(b, a)[0]

    def test_empty_mask_is_an_error(self):
        e = VolumeMask(np.zeros((3, 3, 3), dtype=np.uint8), UNIT)
        m = mask_from_indices((3, 3, 3), [(1, 1, 1)])
        with pytest.raises(EmptyMaskError):
            evaluate(e, m, "s")
        with pytest.raises(EmptyMaskError):
            evaluate(m, e, "s")


class TestHausdorff:
    def test_identical_masks(self):
        m = mask_from_indices((4, 4, 4), [(1, 1, 1), (2, 3, 2)])
        assert distances(m, m)[1:] == (0.0, 0.0)

    def test_single_voxels_three_mm_apart(self):
        a = mask_from_indices((6, 3, 3), [(0, 1, 1)])
        b = mask_from_indices((6, 3, 3), [(3, 1, 1)])
        _, hd95_v, hd_v = distances(a, b)
        assert hd_v == pytest.approx(3.0, abs=1e-12)
        assert hd95_v == pytest.approx(3.0, abs=1e-12)

    def test_outlier_robustness(self):
        # a 100-voxel line vs the same line plus one voxel 50 mm away:
        # HD sees the outlier, 95HD does not
        line = [(0, 0, x) for x in range(100)]
        a = mask_from_indices((1, 60, 160), line)
        b = mask_from_indices((1, 60, 160), line + [(0, 50, 0)])
        _, hd95_v, hd_v = distances(a, b)
        assert hd_v == pytest.approx(50.0, abs=1e-12)
        assert hd95_v < 5.0

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        a = VolumeMask(random_structured_mask(rng, (12, 12, 12)), UNIT)
        b = VolumeMask(random_structured_mask(rng, (12, 12, 12)), UNIT)
        assert distances(a, b)[1:] == distances(b, a)[1:]


class TestEvaluate:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(14)
        m = VolumeMask(random_structured_mask(rng, (10, 10, 10)), (2.0, 0.5, 0.5))
        r = evaluate(m, m, "scan0")
        assert (r.dice, r.asd_mm, r.hd95_mm, r.hd_mm) == (1.0, 0.0, 0.0, 0.0)

    def test_spacing_mismatch_rejected(self):
        v = np.ones((2, 2, 2), dtype=np.uint8)
        with pytest.raises(ValueError):
            evaluate(VolumeMask(v, UNIT), VolumeMask(v, (1.0, 1.0, 2.0)), "s")

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        shape = tuple(rng.integers(8, 20, size=3))
        spacing = tuple(rng.uniform(0.5, 3.0, size=3))
        a = random_structured_mask(rng, shape)
        b = random_structured_mask(rng, shape)
        r = evaluate(VolumeMask(a, spacing), VolumeMask(b, spacing), "s")
        dice, asd_v, hd95_v, hd_v = brute_force_metrics(a, b, spacing)
        assert r.dice == pytest.approx(dice, abs=1e-12)
        assert r.asd_mm == pytest.approx(asd_v, abs=1e-9)
        assert r.hd95_mm == pytest.approx(hd95_v, abs=1e-9)
        assert r.hd_mm == pytest.approx(hd_v, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_metric_ordering_per_trial(self, seed):
        rng = np.random.default_rng(200 + seed)
        a = random_structured_mask(rng, (14, 14, 14))
        b = random_structured_mask(rng, (14, 14, 14))
        r = evaluate(VolumeMask(a, UNIT), VolumeMask(b, UNIT), "s")
        assert r.asd_mm <= r.hd_mm + 1e-12
        assert r.hd95_mm <= r.hd_mm + 1e-12
        assert r.asd_mm <= r.hd95_mm + 1e-9  # holds for these trials

    def test_translation_invariance(self):
        rng = np.random.default_rng(15)
        a = random_structured_mask(rng, (10, 10, 10))
        b = random_structured_mask(rng, (10, 10, 10))
        big = (16, 16, 16)
        pad_a, pad_b = np.zeros(big, np.uint8), np.zeros(big, np.uint8)
        pad_a[:10, :10, :10] = a
        pad_b[:10, :10, :10] = b
        sh_a, sh_b = np.zeros(big, np.uint8), np.zeros(big, np.uint8)
        sh_a[3:13, 2:12, 5:15] = a
        sh_b[3:13, 2:12, 5:15] = b
        r0 = evaluate(VolumeMask(pad_a, UNIT), VolumeMask(pad_b, UNIT), "s")
        r1 = evaluate(VolumeMask(sh_a, UNIT), VolumeMask(sh_b, UNIT), "s")
        assert r0.dice == r1.dice
        assert r0.asd_mm == pytest.approx(r1.asd_mm, abs=1e-12)
        assert r0.hd95_mm == pytest.approx(r1.hd95_mm, abs=1e-12)
        assert r0.hd_mm == pytest.approx(r1.hd_mm, abs=1e-12)

    def test_spacing_linearity(self):
        rng = np.random.default_rng(16)
        a = random_structured_mask(rng, (10, 10, 10))
        b = random_structured_mask(rng, (10, 10, 10))
        c = 2.5
        r1 = evaluate(VolumeMask(a, UNIT), VolumeMask(b, UNIT), "s")
        rc = evaluate(
            VolumeMask(a, (c, c, c)), VolumeMask(b, (c, c, c)), "s"
        )
        assert rc.dice == r1.dice
        assert rc.asd_mm == pytest.approx(c * r1.asd_mm, rel=1e-12)
        assert rc.hd95_mm == pytest.approx(c * r1.hd95_mm, rel=1e-12)
        assert rc.hd_mm == pytest.approx(c * r1.hd_mm, rel=1e-12)


class TestCsv:
    def test_layout(self, tmp_path):
        rng = np.random.default_rng(17)
        m = VolumeMask(random_structured_mask(rng, (8, 8, 8)), UNIT)
        path = tmp_path / "report.csv"
        write_report_csv([evaluate(m, m, "case_01")], path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "scan_id,dice,asd_mm,hd95_mm,hd_mm"
        assert lines[1] == "case_01,1.000000,0.000000,0.000000,0.000000"

    def test_scan_ids_round_trip_through_csv_reader(self, tmp_path):
        ids = ["p,x", 'say "hi"', "two\nlines", "cr\rid", 'a,"b"\r\n', "plain", "sp ace", ""]
        path = tmp_path / "report.csv"
        write_report_csv([MetricsReport(i, 0.5, 1.0, 2.0, 3.0) for i in ids], path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["scan_id", "dice", "asd_mm", "hd95_mm", "hd_mm"]
        assert rows[1:] == [[i, "0.500000", "1.000000", "2.000000", "3.000000"] for i in ids]

    def test_only_an_id_that_needs_quotes_is_quoted(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv([MetricsReport(i, 1.0, 0.0, 0.0, 0.0) for i in ("p x'y", 'p,"x"')], path)
        assert path.read_bytes().decode().splitlines()[1:] == [
            "p x'y,1.000000,0.000000,0.000000,0.000000",
            '"p,""x""",1.000000,0.000000,0.000000,0.000000',
        ]


def _reference_evaluate(pred, gt, scan_id):
    """The evaluate that queried every surface voxel against a k-d tree of the other surface."""
    from scipy.spatial import cKDTree

    dice = dice_coefficient(pred, gt)
    sp = extract_surface(pred)
    sg = extract_surface(gt)
    dab = cKDTree(sg).query(sp, k=1)[0]
    dba = cKDTree(sp).query(sg, k=1)[0]
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


# the volume shapes of the benchmark's workloads: train-small, train-wide, infer-eval
PERFBENCH_SHAPES = [(8, 48, 48), (8, 32, 32), (8, 53, 55), (9, 50, 46), (10, 45, 47),
                    (11, 41, 43), (12, 37, 39), (8, 33, 61)]
# the benchmark's intensity band of the threshold mask it scores
THRESHOLD_BAND = (700.0, 2100.0)


class TestSharedSurfaceOracle:
    """evaluate skips the k-d query for voxels on both surfaces and gives the same report."""

    @pytest.mark.parametrize("dims", PERFBENCH_SHAPES)
    def test_threshold_masks_of_decoy_phantoms(self, dims):
        lo, hi = THRESHOLD_BAND
        for seed in range(3):
            vol, gt = generate_phantom(PhantomSpec(dims=dims, decoys=True,
                                                   artifact_streaks=True, seed=seed))
            thr = VolumeMask(((vol.intensities > lo) & (vol.intensities < hi)).astype(np.uint8),
                             vol.spacing_mm)
            assert evaluate(thr, gt, "p") == _reference_evaluate(thr, gt, "p"), (dims, seed)

    @staticmethod
    def _pair(case, rng, shape):
        b = random_structured_mask(rng, shape)
        if case == "subset":  # a: b without its voxels in the lower half of z
            a = b.copy()
            a[shape[0] // 2:] = 0
        elif case == "union":
            a, b = b, b | random_structured_mask(rng, shape)
        elif case == "equal":
            a = b.copy()
        else:  # a: b moved one voxel along y, zero-filled
            a = np.zeros_like(b)
            a[:, 1:] = b[:, :-1]
        assert a.any()
        return a, b

    @pytest.mark.parametrize("spacing", [UNIT, (2.5, 0.7, 1.3)])
    @pytest.mark.parametrize("case", ["subset", "union", "equal", "shift"])
    def test_structured_masks(self, case, spacing):
        rng = np.random.default_rng(300 + len(case))
        for _ in range(4):
            shape = tuple(rng.integers(8, 18, size=3))
            a, b = self._pair(case, rng, shape)
            ma, mb = VolumeMask(a, spacing), VolumeMask(b, spacing)
            r = evaluate(ma, mb, "s")
            assert r == _reference_evaluate(ma, mb, "s")
            assert evaluate(mb, ma, "s") == _reference_evaluate(mb, ma, "s")
            dice, asd_v, hd95_v, hd_v = brute_force_metrics(a, b, spacing)
            assert r.dice == pytest.approx(dice, abs=1e-12)
            assert r.asd_mm == pytest.approx(asd_v, abs=1e-9)
            assert r.hd95_mm == pytest.approx(hd95_v, abs=1e-9)
            assert r.hd_mm == pytest.approx(hd_v, abs=1e-9)

    def test_equal_masks_build_no_tree(self, monkeypatch):
        import scipy.spatial

        def no_tree(*args, **kwargs):
            raise AssertionError("a k-d tree was built")

        monkeypatch.setattr(scipy.spatial, "cKDTree", no_tree)
        rng = np.random.default_rng(18)
        a = random_structured_mask(rng, (12, 12, 12))
        m = VolumeMask(a, (2.0, 0.5, 0.5))
        r = evaluate(m, VolumeMask(a.copy(), (2.0, 0.5, 0.5)), "s")
        assert (r.dice, r.asd_mm, r.hd95_mm, r.hd_mm) == (1.0, 0.0, 0.0, 0.0)
        # the spy is live: masks that differ query a tree
        b = a.copy()
        b[np.unravel_index(np.argmax(a), a.shape)] = 0
        with pytest.raises(AssertionError, match="k-d tree"):
            evaluate(m, VolumeMask(b, (2.0, 0.5, 0.5)), "s")
