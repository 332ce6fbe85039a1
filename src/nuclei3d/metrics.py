"""Segmentation AP over IoU thresholds and the center-point detection AP.

AP is TP / (TP + FP + FN) throughout. Segmentation matching is one-to-one,
greedy by descending IoU among pairs with IoU strictly above the threshold;
a detection is a true positive iff it lies within a ground-truth instance,
at most one per instance.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    LabelVolume, check_number, check_same_shape, check_volume, pair_counts, voxel_indices,
)
from .io import check_detections

__all__ = [
    "IOU_THRESHOLDS",
    "EvalReport",
    "iou_matrix",
    "segmentation_ap",
    "detection_ap",
    "evaluate",
    "aggregate_reports",
]

IOU_THRESHOLDS = tuple(t / 10 for t in range(1, 10))


@dataclass(frozen=True)
class EvalReport:
    """AP per IoU threshold, their mean, detection AP, and the raw counts.

    Fields belonging to an input that was not supplied stay None.
    """

    ap_per_iou: dict = None
    seg_counts: dict = None
    av_ap: float = None
    detection_ap: float = None
    detection_counts: tuple = None

    def to_mapping(self):
        """Stable-order mapping for the YAML report format."""
        out = {}
        if self.ap_per_iou is not None:
            seg = {"av_ap": self.av_ap, "ap": {}, "counts": {}}
            for t in IOU_THRESHOLDS:
                key = f"{t:.2f}"
                seg["ap"][key] = self.ap_per_iou[t]
                tp, fp, fn = self.seg_counts[t]
                seg["counts"][key] = {"tp": tp, "fp": fp, "fn": fn}
            out["segmentation"] = seg
        if self.detection_ap is not None:
            tp, fp, fn = self.detection_counts
            out["detection"] = {"ap": self.detection_ap, "counts": {"tp": tp, "fp": fp, "fn": fn}}
        return out


def iou_matrix(gt, pred):
    """IoU per overlapping (gt_id, pred_id) pair, as a sparse dict."""
    g = check_volume("gt", gt, LabelVolume).labels
    p = check_volume("pred", pred, LabelVolume).labels
    check_same_shape("gt", g.shape, "pred", p.shape)
    both = (g > 0) & (p > 0)
    g_ids, g_size = gt.id_counts
    p_ids, p_size = pred.id_counts
    gi, pi, inter = pair_counts(g[both], p[both])
    union = g_size[np.searchsorted(g_ids, gi)] + p_size[np.searchsorted(p_ids, pi)] - inter
    # exact integer counts, so each quotient is the correctly rounded float64 IoU
    return dict(zip(zip(gi.tolist(), pi.tolist()), (inter / union).tolist()))


def segmentation_ap(gt, pred, iou_threshold):
    """Greedy one-to-one matching above an IoU threshold.

    Pairs with IoU strictly greater than the threshold are matched in order
    of descending IoU, ties broken by (smaller gt id, smaller pred id).

    Returns
    -------
    (ap, tp, fp, fn)
    """
    check_number("iou_threshold", iou_threshold, gt=0, lt=1)
    matched = _matched_ious(iou_matrix(gt, pred))
    return _ap_counts(sum(iou > iou_threshold for iou in matched), gt.ids().size, pred.ids().size)


def _matched_ious(ious):
    """IoU of each greedy one-to-one match over all ``iou_matrix`` pairs.

    Pairs are visited by (descending IoU, gt id, pred id). The pairs above
    any threshold are a prefix of that order and a greedy decision depends
    only on earlier pairs, so the matches of the greedy pass restricted to
    IoU > t are exactly the matches here with IoU > t.
    """
    matched_gt, matched_pred = set(), set()
    matched = []
    for (g, p), iou in sorted(ious.items(), key=lambda kv: (-kv[1], kv[0])):
        if g not in matched_gt and p not in matched_pred:
            matched_gt.add(g)
            matched_pred.add(p)
            matched.append(iou)
    return matched


def _ap_counts(tp, n_gt, n_pred):
    """(ap, tp, fp, fn) from the true positives and the gt and prediction totals."""
    fp = n_pred - tp
    fn = n_gt - tp
    denom = tp + fp + fn
    return (float(tp) / denom if denom else 1.0), tp, fp, fn


def detection_ap(gt, detections):
    """Center-point detection AP with the one-detection-per-instance rule.

    Each detection is assigned to the instance containing its rounded
    coordinate (half away from zero). Per instance the highest-scoring
    contained detection is the TP, ties going to the earliest detection in
    the list; every other detection, including out-of-bounds and background
    hits, is a FP. Instances containing no detection are FN.

    Returns
    -------
    (ap, tp, fp, fn)
    """
    lab = check_volume("gt", gt, LabelVolume).labels
    rows = check_detections(detections)
    at, _ = voxel_indices(rows[:, :3].T, lab.shape)
    hit = lab.ravel()[at]
    # one TP per distinct instance hit; every other detection is a FP
    tp = np.unique(hit[hit > 0], return_counts=True)[0].size
    return _ap_counts(tp, gt.ids().size, len(rows))


def evaluate(gt, seg=None, detections=None):
    """Fill an EvalReport for whichever predictions are supplied."""
    check_volume("gt", gt, LabelVolume)
    ap_per_iou = seg_counts = av_ap = None
    det_ap = det_counts = None
    if seg is not None:
        matched = _matched_ious(iou_matrix(gt, seg))
        n_gt, n_seg = gt.ids().size, seg.ids().size
        matches = {
            t: _ap_counts(sum(iou > t for iou in matched), n_gt, n_seg) for t in IOU_THRESHOLDS
        }
        ap_per_iou = {t: m[0] for t, m in matches.items()}
        seg_counts = {t: m[1:] for t, m in matches.items()}
        av_ap = sum(ap_per_iou[t] for t in IOU_THRESHOLDS) / len(IOU_THRESHOLDS)
    if detections is not None:
        det_ap, tp, fp, fn = detection_ap(gt, detections)
        det_counts = (tp, fp, fn)
    return EvalReport(ap_per_iou, seg_counts, av_ap, det_ap, det_counts)


def aggregate_reports(reports):
    """Field-wise mean of AP values; counts are summed."""
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    for r in reports:
        check_volume("", r, EvalReport)
    has_seg = reports[0].ap_per_iou is not None
    has_det = reports[0].detection_ap is not None
    if any((r.ap_per_iou is not None) != has_seg for r in reports) or any(
        (r.detection_ap is not None) != has_det for r in reports
    ):
        raise ValueError("reports carry different fields; cannot aggregate")

    ap_per_iou = seg_counts = av_ap = None
    det_ap = det_counts = None
    if has_seg:
        ap_per_iou = {
            t: sum(r.ap_per_iou[t] for r in reports) / len(reports) for t in IOU_THRESHOLDS
        }
        seg_counts = {
            t: tuple(sum(r.seg_counts[t][i] for r in reports) for i in range(3))
            for t in IOU_THRESHOLDS
        }
        av_ap = sum(ap_per_iou[t] for t in IOU_THRESHOLDS) / len(IOU_THRESHOLDS)
    if has_det:
        det_ap = sum(r.detection_ap for r in reports) / len(reports)
        det_counts = tuple(sum(r.detection_counts[i] for r in reports) for i in range(3))
    return EvalReport(ap_per_iou, seg_counts, av_ap, det_ap, det_counts)
