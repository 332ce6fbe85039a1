import functools
import re

import numpy as np
import pytest

from nuclei3d import (
    IOU_THRESHOLDS,
    Detection,
    LabelVolume,
    aggregate_reports,
    detection_ap,
    evaluate,
    iou_matrix,
    segmentation_ap,
    write_detections,
)
from nuclei3d.errors import ShapeMismatchError

from conftest import ball_labels, random_blob_labels
from oracles import (
    detection_counts_oracle, greedy_match_counts, iou_pairs_oracle, optimal_match_count,
)


def labels_from(arr):
    return LabelVolume(np.asarray(arr, dtype=np.int32))


class TestIouMatrix:
    def test_identical_instance(self):
        lab = np.zeros((3, 3, 3), dtype=np.int32)
        lab[1, 1, 1] = 1
        assert iou_matrix(labels_from(lab), labels_from(lab)) == {(1, 1): 1.0}

    def test_disjoint_no_entry(self):
        a = np.zeros((3, 3, 3), dtype=np.int32)
        b = np.zeros((3, 3, 3), dtype=np.int32)
        a[0, 0, 0] = 1
        b[2, 2, 2] = 1
        assert iou_matrix(labels_from(a), labels_from(b)) == {}

    def test_counting_example(self):
        gt = np.zeros((2, 4, 4), dtype=np.int32)
        pred = np.zeros((2, 4, 4), dtype=np.int32)
        gt[:, 0:2, 0:2] = 1  # 8 voxels
        pred[:, 1:3, 0:2] = 1  # 8 voxels, overlap 2x2x1... checked below
        got = iou_matrix(labels_from(gt), labels_from(pred))
        assert got == {(1, 1): pytest.approx(4 / 12)}

    def test_matches_set_oracle(self, rng):
        for _ in range(5):
            gt = random_blob_labels(rng, (7, 7, 7), 3)
            pred = random_blob_labels(rng, (7, 7, 7), 3)
            got = iou_matrix(labels_from(gt), labels_from(pred))
            expected = iou_pairs_oracle(gt, pred)
            assert got.keys() == expected.keys()
            for k in got:
                assert got[k] == pytest.approx(expected[k], abs=1e-12)

    def test_sparse_large_ids(self):
        # sizes come from the sorted IDs, not from arrays indexed by ID, which
        # would need 16 GiB for the largest int32 ID
        big = 2**31 - 1
        gt = np.zeros((1, 1, 6), dtype=np.int32)
        pred = np.zeros((1, 1, 6), dtype=np.int32)
        gt[0, 0, :2], gt[0, 0, 2:5] = 1, big
        pred[0, 0, :3], pred[0, 0, 3:6] = big, 1
        assert iou_matrix(LabelVolume(gt), LabelVolume(gt)) == {(1, 1): 1.0, (big, big): 1.0}
        assert iou_matrix(LabelVolume(gt), LabelVolume(pred)) == {
            (1, big): 2 / 3, (big, big): 1 / 5, (big, 1): 2 / 4,
        }

    def test_ids_up_to_int32_max_match_set_oracle(self, rng):
        # each pair is keyed by its raw IDs, the gt ID shifted above the pred ID;
        # the largest int32 IDs, in both volumes, must neither overflow nor collide
        top = 2**31 - 1
        rest = np.array([1, 2, 2**16 + 1, 2**30, 2**31 - 3, top - 1])

        def large_ids(lab):
            # blob 1 becomes the largest int32 ID, the others distinct IDs of ``rest``
            ids = np.concatenate(([0, top], rng.permutation(rest)))
            return ids[lab].astype(np.int32)

        for _ in range(5):
            gt = large_ids(random_blob_labels(rng, (6, 7, 8), 6))
            pred = large_ids(random_blob_labels(rng, (6, 7, 8), 6))
            got = iou_matrix(LabelVolume(gt), LabelVolume(pred))
            expected = iou_pairs_oracle(gt, pred)
            assert got == expected
            assert list(got) == sorted(expected)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            iou_matrix(
                labels_from(np.zeros((2, 2, 2))), labels_from(np.zeros((3, 2, 2)))
            )


class TestSegmentationAp:
    def test_perfect_segmentation(self, rng):
        lab = random_blob_labels(rng, (8, 8, 8), 5)
        lv = labels_from(lab)
        for t in (0.3, 0.5, 0.9):
            ap, tp, fp, fn = segmentation_ap(lv, lv, t)
            assert ap == 1.0 and fp == fn == 0 and tp == len(lv.ids())

    def test_formula(self):
        # 2 matches, 1 extra prediction, 1 missed instance -> AP 0.5
        gt = np.zeros((1, 1, 9), dtype=np.int32)
        pred = np.zeros((1, 1, 9), dtype=np.int32)
        gt[0, 0, 0:2] = 1
        pred[0, 0, 0:2] = 1
        gt[0, 0, 3:5] = 2
        pred[0, 0, 3:5] = 2
        gt[0, 0, 6:8] = 3  # missed
        pred[0, 0, 8] = 4  # spurious
        ap, tp, fp, fn = segmentation_ap(labels_from(gt), labels_from(pred), 0.5)
        assert (ap, tp, fp, fn) == (0.5, 2, 1, 1)

    def test_iou_strictly_greater_than_threshold(self):
        gt = np.zeros((1, 1, 4), dtype=np.int32)
        pred = np.zeros((1, 1, 4), dtype=np.int32)
        gt[0, 0, :2] = 1
        pred[0, 0, 1:3] = 1  # IoU exactly 1/3
        third = 1 / 3
        ap, tp, _, _ = segmentation_ap(labels_from(gt), labels_from(pred), third)
        assert tp == 0 and ap == 0.0

    def test_monotone_in_threshold(self, rng):
        gt = random_blob_labels(rng, (8, 8, 8), 4)
        pred = np.roll(gt, 1, axis=2)
        aps = [
            segmentation_ap(labels_from(gt), labels_from(pred), t)[0]
            for t in IOU_THRESHOLDS
        ]
        assert all(a >= b for a, b in zip(aps, aps[1:]))

    def test_relabeling_invariance(self, rng):
        gt = random_blob_labels(rng, (8, 8, 8), 4)
        pred = np.roll(gt, 1, axis=1)
        permuted = np.zeros_like(pred)
        ids = [int(i) for i in np.unique(pred) if i > 0]
        for new, old in enumerate(reversed(ids), start=1):
            permuted[pred == old] = new
        a = segmentation_ap(labels_from(gt), labels_from(pred), 0.3)
        b = segmentation_ap(labels_from(gt), labels_from(permuted), 0.3)
        assert a == b

    def test_greedy_equals_exhaustive_on_random_layouts(self, rng):
        """Also: each threshold's ``segmentation_ap`` is that row of ``evaluate``'s table."""
        for _ in range(30):
            gt = random_blob_labels(rng, (7, 7, 7), int(rng.integers(1, 5)))
            pred = np.roll(gt, tuple(rng.integers(-1, 2, size=3)), axis=(0, 1, 2))
            gtv, prv = labels_from(gt), labels_from(pred)
            for t in (0.3, 0.5, 0.7):
                _, tp, fp, fn = segmentation_ap(gtv, prv, t)
                best = optimal_match_count(iou_pairs_oracle(gt, pred), gtv.ids(), t)
                assert tp == best
                assert fp == len(prv.ids()) - best and fn == len(gtv.ids()) - best
            report = evaluate(gtv, seg=prv)
            for t in IOU_THRESHOLDS:
                assert segmentation_ap(gtv, prv, t) == (report.ap_per_iou[t], *report.seg_counts[t])

    def test_empty_gt_and_pred_is_one(self):
        empty = labels_from(np.zeros((2, 2, 2)))
        ap, tp, fp, fn = segmentation_ap(empty, empty, 0.5)
        assert ap == 1.0 and tp == fp == fn == 0

    def test_threshold_domain(self, rng):
        lv = labels_from(random_blob_labels(rng, (4, 4, 4), 1))
        with pytest.raises(ValueError):
            segmentation_ap(lv, lv, 0.0)

    @pytest.mark.parametrize("threshold", [None, "x", float("nan"), True])
    def test_non_number_threshold_names_the_key(self, threshold):
        lv = labels_from(np.ones((2, 2, 2)))
        expected = f"iou_threshold must be a finite number > 0 and < 1, got {threshold!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            segmentation_ap(lv, lv, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 2, 1.5])
    def test_threshold_outside_the_open_interval_is_refused(self, threshold):
        lv = labels_from(np.ones((2, 2, 2)))
        expected = f"iou_threshold must be a finite number > 0 and < 1, got {threshold!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            segmentation_ap(lv, lv, threshold)


def _row_layout(rng):
    """Short runs of IDs along rows: small-integer IoUs, so ties and k/10 values abound."""
    shape = (1, int(rng.integers(1, 4)), 16)
    out = []
    for _ in range(2):
        lab = np.zeros(shape, dtype=np.int32)
        next_id = 1
        for row in range(shape[1]):
            x = int(rng.integers(0, 3))
            while x < shape[2]:
                n = int(rng.integers(1, 6))
                lab[0, row, x:x + n] = next_id
                next_id += 1
                x += n + int(rng.integers(0, 3))
        out.append(lab)
    return out


def _mirrored_layout(rng):
    """Blobs and their mirror images under fresh IDs, in both gt and pred: tied IoUs."""
    out = []
    for _ in range(2):
        half = random_blob_labels(rng, (6, 6, 5), int(rng.integers(1, 4)))
        mirror = np.where(half > 0, half + half.max(), 0)
        out.append(np.concatenate((half, np.flip(mirror, axis=2)), axis=2))
    return out


class TestOnePassMatching:
    def test_counts_match_per_threshold_greedy_oracle(self, rng):
        """``evaluate`` and ``segmentation_ap`` against a fresh greedy pass per threshold."""
        seen = set()
        for k in range(60):
            gt, pred = (_row_layout, _mirrored_layout)[k % 2](rng)
            gtv, prv = labels_from(gt), labels_from(pred)
            ious = iou_pairs_oracle(gt, pred)
            n_gt, n_pred = len(set(gt[gt > 0].tolist())), len(set(pred[pred > 0].tolist()))
            report = evaluate(gtv, seg=prv)
            for t in IOU_THRESHOLDS:
                expected = greedy_match_counts(ious, n_gt, n_pred, t)
                assert segmentation_ap(gtv, prv, t) == expected
                assert (report.ap_per_iou[t], *report.seg_counts[t]) == expected
            if any(iou in IOU_THRESHOLDS for iou in ious.values()):
                seen.add("iou on a threshold")
            pairs = [(g, p, iou) for (g, p), iou in ious.items()]
            if any(a != b and a[2] == b[2] and (a[0] == b[0] or a[1] == b[1])
                   for a in pairs for b in pairs):
                seen.add("tie sharing an instance")
        assert seen == {"iou on a threshold", "tie sharing an instance"}

    def test_tie_order_decides_the_count(self):
        # (gt, pred) pairs (1, 1), (1, 2) and (2, 2) all have IoU 1/3; taking
        # (1, 1) first leaves pred 2 for gt 2, taking (1, 2) first matches once
        gt = np.array([[[1] * 6 + [2] * 6]], dtype=np.int32)
        pred = np.array([[[1, 1, 0, 2, 2, 2, 2, 2, 2, 0, 0, 0]]], dtype=np.int32)
        gtv, prv = labels_from(gt), labels_from(pred)
        assert set(iou_matrix(gtv, prv).values()) == {1 / 3}
        report = evaluate(gtv, seg=prv)
        assert segmentation_ap(gtv, prv, 0.3)[1:] == report.seg_counts[0.3] == (2, 0, 0)
        assert report.seg_counts[0.4] == (0, 2, 2)


class TestDetectionAp:
    def make_gt(self):
        lab = np.zeros((5, 5, 12), dtype=np.int32)
        lab[1:4, 1:4, 1:4] = 1
        lab[1:4, 1:4, 7:10] = 2
        return labels_from(lab)

    def test_one_detection_per_instance(self):
        gt = self.make_gt()
        dets = [Detection(2, 2, 2, 1.0), Detection(2, 2, 8, 0.9)]
        assert detection_ap(gt, dets) == (1.0, 2, 0, 0)

    def test_two_in_one_counts_once(self):
        lab = np.zeros((5, 5, 5), dtype=np.int32)
        lab[1:4, 1:4, 1:4] = 1
        dets = [Detection(2, 2, 2, 1.0), Detection(2, 2, 3, 0.8)]
        assert detection_ap(labels_from(lab), dets) == (0.5, 1, 1, 0)

    def test_background_only(self):
        lab = np.zeros((5, 5, 5), dtype=np.int32)
        lab[1:4, 1:4, 1:4] = 1
        dets = [Detection(4, 4, 4, 1.0)]
        assert detection_ap(labels_from(lab), dets) == (0.0, 0, 1, 1)

    def test_out_of_bounds_is_fp(self):
        gt = self.make_gt()
        dets = [Detection(-3.0, 2, 2, 1.0)]
        ap, tp, fp, fn = detection_ap(gt, dets)
        assert (tp, fp, fn) == (0, 1, 2)

    def test_rounding_half_away_from_zero(self):
        lab = np.zeros((3, 3, 3), dtype=np.int32)
        lab[1, 1, 2] = 1
        # x = 1.5 rounds to 2 (inside), not to 1 (outside)
        assert detection_ap(labels_from(lab), [Detection(1.0, 1.0, 1.5, 1.0)])[1] == 1

    def test_count_identities(self, rng):
        gt = labels_from(random_blob_labels(rng, (8, 8, 8), 4))
        dets = [
            Detection(float(rng.integers(0, 8)), float(rng.integers(0, 8)), float(rng.integers(0, 8)), float(s))
            for s in rng.random(10)
        ]
        _, tp, fp, fn = detection_ap(gt, dets)
        assert tp + fn == len(gt.ids())
        assert tp + fp == len(dets)

    @staticmethod
    def random_detections(rng, shape, lab):
        """Detections mixing every case: out of bounds, background, several per
        instance, coordinates exactly on a +-0.5 rounding boundary."""
        dets = []
        fg = np.argwhere(lab > 0)
        for _ in range(int(rng.integers(0, 25))):
            kind = rng.integers(0, 5)
            if kind == 0:  # out of bounds on one axis, possibly far away
                p = rng.uniform(0, shape).tolist()
                axis = int(rng.integers(0, 3))
                p[axis] = float(rng.choice([-0.5, -0.51, shape[axis] - 0.5, -3.0, 1e300, -1e300]))
            elif kind == 1 and fg.size:  # a foreground voxel center
                p = fg[rng.integers(0, len(fg))].astype(float).tolist()
            elif kind == 2 and dets:  # a repeat of an earlier detection, nudged
                p = [v + float(rng.choice([0.0, 0.25, -0.25])) for v in dets[-1][:3]]
            elif kind == 3:  # a voxel center shifted by exactly +-0.5 per axis
                p = (rng.integers(0, shape) + rng.choice([-0.5, 0.0, 0.5], size=3)).tolist()
            else:  # anywhere in the volume, background included
                p = rng.uniform(-0.5, shape).tolist()
            dets.append(Detection(*p, float(rng.random())))
        return dets

    def test_matches_loop_oracle_on_random_layouts(self, rng):
        shape = (6, 7, 8)
        seen_empty = False
        for trial in range(80):
            lab = random_blob_labels(rng, shape, int(rng.integers(0, 6)))
            dets = [] if trial == 0 else self.random_detections(rng, shape, lab)
            seen_empty |= not dets
            got = detection_ap(labels_from(lab), dets)
            assert got == detection_counts_oracle(lab, dets)
            assert all(type(v) is int for v in got[1:])
        assert seen_empty

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_coordinates_rejected(self, bad, axis):
        p = [1.0, 1.0, 1.0]
        p[axis] = bad
        with pytest.raises(ValueError, match="detections must be finite"):
            detection_ap(self.make_gt(), [Detection(2, 2, 2, 1.0), Detection(*p, 0.5)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_score_rejected_as_by_the_csv_writer(self, tmp_path, bad):
        dets = [Detection(2, 2, 2, 1.0), Detection(1.0, 1.0, 1.0, bad)]
        with pytest.raises(ValueError, match="^detections must be finite$"):
            detection_ap(self.make_gt(), dets)
        with pytest.raises(ValueError, match="^detections must be finite$"):
            write_detections(tmp_path / "d.csv", dets)

    def test_rows_of_an_array_or_tuples_count_as_detections(self):
        dets = [Detection(2, 2, 2, 1.0), Detection(2, 2, 8, 0.9), Detection(0, 0, 0, 0.5)]
        want = detection_ap(self.make_gt(), dets)
        assert want == (2 / 3, 2, 1, 0)
        assert detection_ap(self.make_gt(), np.array(dets)) == want
        assert detection_ap(self.make_gt(), [tuple(d) for d in dets]) == want
        assert detection_ap(self.make_gt(), np.zeros((0, 4))) == detection_ap(self.make_gt(), [])

    @pytest.mark.parametrize(
        "value,message",
        [
            ([2, 2, 2, 1, 0, 0, 0, 1], "detections must be (z, y, x, score) rows, got shape (8,)"),
            (np.full((1, 2, 4), 2.0), "detections must be (z, y, x, score) rows, got shape (1, 2, 4)"),
            # values numpy cannot turn into float64 rows
            ((d for d in [Detection(2, 2, 2, 1.0)]), "detections must be (z, y, x, score) rows of real numbers"),
            ([[1, 2, 3, {}]], "detections must be (z, y, x, score) rows of real numbers"),
            ([[2, 2, 2, 1.0], [2, 2, 2]], "detections must be (z, y, x, score) rows of real numbers"),
            ("a", "detections must be (z, y, x, score) rows of real numbers"),
        ],
        ids=["flat", "3d", "generator", "dict-value", "ragged", "str"],
    )
    def test_detections_of_other_shapes_refused(self, value, message):
        with pytest.raises(ValueError) as info:
            detection_ap(self.make_gt(), value)
        assert str(info.value) == message

    def test_centroids_of_convex_instances_are_perfect(self, rng):
        from nuclei3d import centroids_from_labels

        lv = ball_labels()
        assert detection_ap(lv, centroids_from_labels(lv))[0] == 1.0


class TestEvaluateAndAggregate:
    def test_perfect_inputs(self, rng):
        lab = labels_from(random_blob_labels(rng, (8, 8, 8), 4))
        from nuclei3d import centroids_from_labels

        report = evaluate(lab, seg=lab, detections=centroids_from_labels(lab))
        assert report.av_ap == 1.0 and report.detection_ap == 1.0
        assert all(report.ap_per_iou[t] == 1.0 for t in IOU_THRESHOLDS)

    def test_empty_prediction(self, rng):
        lab = labels_from(random_blob_labels(rng, (8, 8, 8), 4))
        empty = labels_from(np.zeros((8, 8, 8)))
        report = evaluate(lab, seg=empty)
        assert report.av_ap == 0.0
        n = len(lab.ids())
        assert all(report.seg_counts[t] == (0, 0, n) for t in IOU_THRESHOLDS)

    def test_av_ap_is_mean_and_formula_holds(self, rng):
        gt = random_blob_labels(rng, (9, 9, 9), 5)
        pred = np.roll(gt, 1, axis=2)
        report = evaluate(labels_from(gt), seg=labels_from(pred))
        assert report.av_ap == pytest.approx(
            np.mean([report.ap_per_iou[t] for t in IOU_THRESHOLDS]), abs=1e-12
        )
        for t in IOU_THRESHOLDS:
            tp, fp, fn = report.seg_counts[t]
            expected = tp / (tp + fp + fn) if tp + fp + fn else 1.0
            assert report.ap_per_iou[t] == pytest.approx(expected, abs=1e-12)

    def test_counts_match_segmentation_ap_from_one_iou_pass(self, rng, monkeypatch):
        import nuclei3d.metrics

        calls = []
        real = nuclei3d.metrics.iou_matrix
        monkeypatch.setattr(
            nuclei3d.metrics, "iou_matrix", lambda g, p: calls.append(1) or real(g, p)
        )
        for _ in range(20):
            gt = random_blob_labels(rng, (8, 8, 8), int(rng.integers(1, 6)))
            if rng.random() < 0.5:
                pred = np.roll(gt, tuple(rng.integers(-1, 2, size=3)), axis=(0, 1, 2))
            else:
                pred = random_blob_labels(rng, (8, 8, 8), int(rng.integers(1, 6)))
            gtv, prv = labels_from(gt), labels_from(pred)
            calls.clear()
            report = evaluate(gtv, seg=prv)
            assert len(calls) == 1
            for t in IOU_THRESHOLDS:
                ap, tp, fp, fn = segmentation_ap(gtv, prv, t)
                assert report.seg_counts[t] == (tp, fp, fn)
                assert report.ap_per_iou[t] == ap

    def test_evaluate_sorts_each_volume_once(self, rng, monkeypatch):
        seen = []
        real = LabelVolume.__dict__["id_counts"].func

        def counting(volume):
            seen.append(volume.labels)
            return real(volume)

        hooked = functools.cached_property(counting)
        hooked.__set_name__(LabelVolume, "id_counts")
        monkeypatch.setattr(LabelVolume, "id_counts", hooked)
        gt = labels_from(random_blob_labels(rng, (8, 8, 8), 4))
        seg = labels_from(np.roll(gt.labels, 1, axis=2))
        first = evaluate(gt, seg=seg)
        assert len(seen) <= 2
        seen.clear()
        seg2 = labels_from(np.roll(gt.labels, 1, axis=1))
        evaluate(gt, seg=seg2)
        assert len(seen) <= 1 and not any(lab is gt.labels for lab in seen)
        assert evaluate(gt, seg=seg) == first

    def test_omitted_inputs_stay_none(self, rng):
        lab = labels_from(random_blob_labels(rng, (6, 6, 6), 2))
        report = evaluate(lab, seg=lab)
        assert report.detection_ap is None and report.detection_counts is None
        report = evaluate(lab, detections=[])
        assert report.ap_per_iou is None and report.av_ap is None

    def test_aggregate_single_report_is_itself(self, rng):
        lab = labels_from(random_blob_labels(rng, (6, 6, 6), 3))
        report = evaluate(lab, seg=lab)
        agg = aggregate_reports([report])
        assert agg.ap_per_iou == report.ap_per_iou and agg.av_ap == report.av_ap

    def test_aggregate_means_and_sums(self):
        a = type(evaluate(labels_from(np.zeros((2, 2, 2)))))  # EvalReport class
        r1 = a(
            ap_per_iou={t: 0.4 for t in IOU_THRESHOLDS},
            seg_counts={t: (4, 3, 3) for t in IOU_THRESHOLDS},
            av_ap=0.4,
            detection_ap=0.5,
            detection_counts=(1, 1, 0),
        )
        r2 = a(
            ap_per_iou={t: 0.6 for t in IOU_THRESHOLDS},
            seg_counts={t: (6, 2, 2) for t in IOU_THRESHOLDS},
            av_ap=0.6,
            detection_ap=0.7,
            detection_counts=(3, 1, 0),
        )
        agg = aggregate_reports([r1, r2])
        assert agg.av_ap == pytest.approx(0.5, abs=1e-15)
        assert agg.ap_per_iou[0.3] == pytest.approx(0.5, abs=1e-15)
        assert agg.seg_counts[0.5] == (10, 5, 5)
        assert agg.detection_ap == pytest.approx(0.6, abs=1e-15)
        assert agg.detection_counts == (4, 2, 0)

    def test_aggregate_three_matches_manual_mean(self, rng):
        reports = []
        for shift in (1, 2, 3):
            gt = random_blob_labels(rng, (8, 8, 8), 4)
            pred = np.roll(gt, shift, axis=0)
            reports.append(evaluate(labels_from(gt), seg=labels_from(pred)))
        agg = aggregate_reports(reports)
        for t in IOU_THRESHOLDS:
            manual = sum(r.ap_per_iou[t] for r in reports) / 3
            assert agg.ap_per_iou[t] == pytest.approx(manual, abs=1e-15)

    @pytest.mark.parametrize(
        "inputs,expected",
        [
            ((), "cannot aggregate an empty report list"),
            (("seg", "dets"), "reports carry different fields; cannot aggregate"),
            (("seg", "both"), "reports carry different fields; cannot aggregate"),
        ],
        ids=["empty", "seg-and-detection-only", "seg-and-both"],
    )
    def test_aggregate_refusal_names_the_fault(self, inputs, expected):
        lab = labels_from(np.ones((2, 2, 2)))
        given = {"seg": {"seg": lab}, "dets": {"detections": []},
                 "both": {"seg": lab, "detections": []}}
        with pytest.raises(ValueError) as info:
            aggregate_reports([evaluate(lab, **given[k]) for k in inputs])
        assert str(info.value) == expected

    def test_report_mapping_field_order(self, rng):
        lab = labels_from(random_blob_labels(rng, (6, 6, 6), 2))
        from nuclei3d import centroids_from_labels

        report = evaluate(lab, seg=lab, detections=centroids_from_labels(lab))
        mapping = report.to_mapping()
        assert list(mapping) == ["segmentation", "detection"]
        assert list(mapping["segmentation"]) == ["av_ap", "ap", "counts"]
        assert list(mapping["segmentation"]["ap"]) == [f"{t:.2f}" for t in IOU_THRESHOLDS]
