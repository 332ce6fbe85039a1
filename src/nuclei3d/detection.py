"""Center-point detection: NMS on blob maps, centroids of segmentations."""

from dataclasses import dataclass

import numpy as np

from .core import check_number, face_neighbours, instance_centers
from .errors import ShapeMismatchError
from .io import Detection

__all__ = ["NmsConfig", "nms_detect", "centroids_from_labels"]


@dataclass(frozen=True)
class NmsConfig:
    """Detection threshold plus the cube window radius for suppression."""

    gauss_threshold: float
    nms_distance: int

    def __post_init__(self):
        check_number("nms_distance", self.nms_distance, integer=True, ge=1)
        check_number("gauss_threshold", self.gauss_threshold)


def nms_detect(pred, cfg):
    """Window-local maxima of a blob map, at or above the score threshold.

    A voxel is a detection iff its value reaches ``gauss_threshold`` and no
    voxel in the Chebyshev cube of radius ``nms_distance`` around it is
    larger. Candidates are visited in raster order and dropped when an
    already-accepted detection lies within the window radius, so a tied
    plateau inside one window emits exactly its raster-first voxel.

    The window maximum is taken only at candidates: voxels at or above the
    threshold that no face neighbour exceeds, and only once no accepted
    detection blocks them. A voxel that fails it neither is accepted nor
    blocks, so the order of the two checks does not change the result.
    """
    if pred.channels != 1:
        raise ShapeMismatchError(f"nms expects a single channel, got {pred.channels}")
    vals = pred.channel(0).astype(np.float64, copy=False)
    flat = vals.ravel()
    at = np.flatnonzero(flat >= cfg.gauss_threshold)
    # a face neighbour outside the volume is the voxel itself, which never exceeds it
    at = at[(flat[face_neighbours(at, vals.shape)] <= flat[at, None]).all(axis=1)]

    detections = []
    # True within Chebyshev distance r of an accepted detection
    blocked = np.zeros(vals.shape, dtype=bool)
    r = cfg.nms_distance
    for z, y, x in zip(*(c.tolist() for c in np.unravel_index(at, vals.shape))):
        if blocked[z, y, x]:
            continue
        window = (
            slice(max(0, z - r), z + r + 1), slice(max(0, y - r), y + r + 1),
            slice(max(0, x - r), x + r + 1),
        )
        v = vals[z, y, x]
        if vals[window].max() > v:
            continue
        blocked[window] = True
        detections.append(Detection(float(z), float(y), float(x), float(v)))
    return detections


def centroids_from_labels(seg):
    """One detection per instance at its center of mass, scored by size.

    Lets segmentation outputs be scored under the detection metric. The
    centroid of a non-convex instance may fall outside its own voxels; it is
    emitted unmoved and may then count as a false positive.
    """
    _, counts, centers = instance_centers(seg)
    return [
        Detection(float(z), float(y), float(x), float(n))
        for (z, y, x), n in zip(centers, counts)
    ]
