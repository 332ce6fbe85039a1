import numpy as np
import pytest

from nuclei3d import (
    Detection,
    LabelVolume,
    NmsConfig,
    Volume,
    centroids_from_labels,
    encode_gauss,
    nms_detect,
)

from oracles import com_oracle, window_max_oracle
from test_targets import ball_labels


class TestNms:
    def test_single_center_one_detection(self):
        lab = np.zeros((11, 11, 11), dtype=np.int32)
        lab[5, 5, 5] = 1
        pred = encode_gauss(LabelVolume(lab), sigma=2.0)
        dets = nms_detect(pred, NmsConfig(gauss_threshold=0.25, nms_distance=3))
        assert len(dets) == 1
        assert (dets[0].z, dets[0].y, dets[0].x, dets[0].score) == (5.0, 5.0, 5.0, 1.0)

    def test_uniform_zero_empty(self):
        pred = Volume(np.zeros((1, 5, 5, 5)))
        assert nms_detect(pred, NmsConfig(0.25, 3)) == []

    def test_close_peaks_suppressed(self):
        vals = np.zeros((1, 1, 1, 7))
        vals[0, 0, 0, 2] = 0.8
        vals[0, 0, 0, 3] = 0.9
        dets = nms_detect(Volume(vals), NmsConfig(0.5, 2))
        assert len(dets) == 1 and dets[0].x == 3.0

    def test_tied_plateau_raster_first(self):
        vals = np.zeros((1, 1, 1, 7))
        vals[0, 0, 0, 2] = vals[0, 0, 0, 3] = 0.9
        dets = nms_detect(Volume(vals), NmsConfig(0.5, 2))
        assert len(dets) == 1 and dets[0].x == 2.0

    def test_matches_window_scan_oracle(self, rng):
        for _ in range(10):
            vals = np.round(rng.random((8, 8, 8)), 1)
            cfg = NmsConfig(gauss_threshold=0.6, nms_distance=int(rng.integers(1, 4)))
            dets = nms_detect(Volume(vals[np.newaxis]), cfg)
            got = [(int(d.z), int(d.y), int(d.x)) for d in dets]
            assert got == window_max_oracle(vals, cfg.gauss_threshold, cfg.nms_distance)

    def test_plateaus_match_window_scan_oracle(self, rng):
        # three levels only: a quarter of the voxels tie at the top, most of them suppressed
        for shape in ((9, 12, 7), (6, 5, 14), (11, 8, 10)):
            for radius in (1, 2, 3):
                vals = np.round(rng.random(shape) * 2) / 2
                candidates = int((vals == 1.0).sum())
                cfg = NmsConfig(gauss_threshold=0.5, nms_distance=radius)
                dets = nms_detect(Volume(vals[np.newaxis]), cfg)
                got = [(int(d.z), int(d.y), int(d.x)) for d in dets]
                assert got == window_max_oracle(vals, cfg.gauss_threshold, radius)
                assert candidates > 2 * len(got)
        flat = np.full((5, 7, 9), 0.75)
        got = nms_detect(Volume(flat[np.newaxis]), NmsConfig(0.5, 2))
        assert [(d.z, d.y, d.x) for d in got] == [
            tuple(map(float, k)) for k in window_max_oracle(flat, 0.5, 2)
        ]
        assert len(got) == 2 * 3 * 3

    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_window_max_at_candidates_matches_oracle(self, rng, radius):
        """Maxima on faces and corners, negative values, thresholds below every value."""
        for shape in ((5, 9, 7), (1, 6, 11), (9, 1, 1), (4, 4, 4)):
            vals = np.round(rng.normal(size=shape), 1)  # negative values and ties
            vals[0, 0, 0] = vals[-1, -1, -1] = 5.0  # corners
            vals[shape[0] // 2, 0, shape[2] // 2] = 5.0  # middle of a face
            vals[shape[0] - 1, shape[1] // 2, 0] = 4.0  # an edge
            plateau = np.full(shape, -0.25)
            for v, threshold in ((vals, float(vals.min()) - 1.0), (vals, 0.0), (vals, 4.5),
                                 (plateau, -1.0), (-vals, -0.5)):
                dets = nms_detect(Volume(v[np.newaxis]), NmsConfig(threshold, radius))
                got = [(int(d.z), int(d.y), int(d.x)) for d in dets]
                assert got == window_max_oracle(v, threshold, radius)
                assert [d.score for d in dets] == [v[k] for k in got]

    def test_no_two_detections_within_window(self, rng):
        vals = rng.random((10, 10, 10))
        cfg = NmsConfig(gauss_threshold=0.2, nms_distance=2)
        dets = nms_detect(Volume(vals[np.newaxis]), cfg)
        assert all(d.score >= cfg.gauss_threshold for d in dets)
        for i, a in enumerate(dets):
            for b in dets[i + 1:]:
                assert max(abs(a.z - b.z), abs(a.y - b.y), abs(a.x - b.x)) > cfg.nms_distance

    def test_well_separated_instances_one_peak_each(self):
        lab = np.zeros((9, 9, 30), dtype=np.int32)
        centers = [(4, 4, 4), (4, 4, 15), (4, 4, 25)]
        for i, c in enumerate(centers, start=1):
            lab[c] = i
        pred = encode_gauss(LabelVolume(lab), sigma=2.0)
        dets = nms_detect(pred, NmsConfig(0.25, 3))
        assert [(d.z, d.y, d.x) for d in dets] == [tuple(map(float, c)) for c in centers]

    def test_requires_single_channel(self, rng):
        from nuclei3d.errors import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            nms_detect(Volume(rng.random((2, 3, 3, 3))), NmsConfig(0.5, 1))

    def test_config_validation(self):
        for distance in (0, -1, float("nan"), 2.0, 1.5, True, "3"):
            with pytest.raises(ValueError, match="nms_distance must be an integer >= 1"):
                NmsConfig(0.5, distance)

    @pytest.mark.parametrize(
        "threshold", [True, False, np.True_, "0.5", None, float("nan"), float("inf"), -np.inf, 1j]
    )
    def test_gauss_threshold_must_be_a_finite_number(self, threshold):
        with pytest.raises(ValueError, match="gauss_threshold must be a finite number"):
            NmsConfig(threshold, 3)

    @pytest.mark.parametrize("threshold", [0, 0.5, -1.5, np.float32(0.25), np.int64(1)])
    def test_gauss_threshold_numbers_accepted(self, threshold):
        assert NmsConfig(threshold, 3).gauss_threshold == threshold

    def test_numpy_integer_distance_accepted(self):
        assert NmsConfig(0.5, np.int64(2)).nms_distance == 2


class TestCentroids:
    def test_empty_segmentation(self):
        seg = LabelVolume(np.zeros((3, 3, 3), dtype=np.int32))
        assert centroids_from_labels(seg) == []

    def test_cube_geometric_center(self):
        lab = np.zeros((6, 6, 6), dtype=np.int32)
        lab[1:4, 1:4, 1:4] = 2
        dets = centroids_from_labels(LabelVolume(lab))
        assert dets == [Detection(2.0, 2.0, 2.0, 27.0)]

    def test_crescent_centroid_left_unmoved(self):
        # hollow shell: centroid falls in the removed interior
        lv = ball_labels(r=3.0)
        lab = lv.labels.copy()
        lab[4, 4, 4] = 0
        inner = ball_labels(r=1.5).labels
        lab[inner > 0] = 0
        dets = centroids_from_labels(LabelVolume(lab))
        assert len(dets) == 1
        c = com_oracle(lab, 1)
        np.testing.assert_allclose((dets[0].z, dets[0].y, dets[0].x), c, atol=1e-12)
        d = dets[0]
        assert lab[int(round(d.z)), int(round(d.y)), int(round(d.x))] == 0

    def test_scores_are_instance_sizes(self, blobs):
        dets = centroids_from_labels(blobs)
        sizes = {i: int((blobs.labels == i).sum()) for i in blobs.ids()}
        assert [d.score for d in dets] == [float(sizes[i]) for i in sorted(sizes)]
