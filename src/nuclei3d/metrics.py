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
        def counts(row):
            return dict(zip(("tp", "fp", "fn"), row))

        out = {}
        if self.ap_per_iou is not None:
            out["segmentation"] = {
                "av_ap": self.av_ap,
                "ap": {f"{t:.2f}": self.ap_per_iou[t] for t in IOU_THRESHOLDS},
                "counts": {f"{t:.2f}": counts(self.seg_counts[t]) for t in IOU_THRESHOLDS},
            }
        if self.detection_ap is not None:
            out["detection"] = {"ap": self.detection_ap, "counts": counts(self.detection_counts)}
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
    return _seg_table(gt, pred, (iou_threshold,))[iou_threshold]


def _seg_table(gt, pred, thresholds):
    """``{t: (ap, tp, fp, fn)}`` for each IoU threshold ``t``, from one greedy pass.

    The pass matches one-to-one over all ``iou_matrix`` pairs, visited by
    (descending IoU, gt id, pred id). The pairs above any threshold are a
    prefix of that order and a greedy decision depends only on earlier
    pairs, so the matches of the greedy pass restricted to IoU > t are
    exactly the matches here with IoU > t.
    """
    matched_gt, matched_pred = set(), set()
    matched = []
    for (g, p), iou in sorted(iou_matrix(gt, pred).items(), key=lambda kv: (-kv[1], kv[0])):
        if g not in matched_gt and p not in matched_pred:
            matched_gt.add(g)
            matched_pred.add(p)
            matched.append(iou)
    n_gt, n_pred = gt.ids().size, pred.ids().size
    return {t: _ap_counts(sum(iou > t for iou in matched), n_gt, n_pred) for t in thresholds}


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
    table = None if seg is None else _seg_table(gt, seg, IOU_THRESHOLDS)
    det = None if detections is None else detection_ap(gt, detections)
    return _report(table, det)


def aggregate_reports(reports):
    """Per IoU threshold the mean AP and the summed counts; detection AP and counts likewise.

    avAP is the mean over thresholds of these per-threshold mean APs, taken
    by the same builder as ``evaluate``'s.
    """
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    for r in reports:
        check_volume("", r, EvalReport)
    kinds = {(r.ap_per_iou is not None, r.detection_ap is not None) for r in reports}
    if len(kinds) != 1:
        raise ValueError("reports carry different fields; cannot aggregate")
    [(has_seg, has_det)] = kinds

    def pooled(rows):
        aps, *counts = zip(*rows)
        return (sum(aps) / len(reports), *map(sum, counts))

    table = {
        t: pooled((r.ap_per_iou[t], *r.seg_counts[t]) for r in reports) for t in IOU_THRESHOLDS
    } if has_seg else None
    det = pooled((r.detection_ap, *r.detection_counts) for r in reports) if has_det else None
    return _report(table, det)


def _report(table, det):
    """The EvalReport of a ``{t: (ap, tp, fp, fn)}`` table over ``IOU_THRESHOLDS``, whose
    mean AP is the avAP, and a detection ``(ap, tp, fp, fn)`` row; either may be None."""
    ap_per_iou = seg_counts = av_ap = det_ap = det_counts = None
    if table is not None:
        ap_per_iou = {t: table[t][0] for t in IOU_THRESHOLDS}
        seg_counts = {t: table[t][1:] for t in IOU_THRESHOLDS}
        av_ap = sum(ap_per_iou.values()) / len(IOU_THRESHOLDS)
    if det is not None:
        det_ap, det_counts = det[0], det[1:]
    return EvalReport(ap_per_iou, seg_counts, av_ap, det_ap, det_counts)
