"""Encode ground-truth labels into the five training-target representations.

Encoders return float64 volumes (uint8 for the 3-label class map); cast to
float32 before writing to disk. Channel layouts of the bundled targets are
normative for files on disk:

    sdt         [sdt]
    3label      [p_background, p_interior, p_boundary]   (one-hot)
    affinities  [aff_z, aff_y, aff_x, foreground]
    gauss       [gauss]
    +cpv        ... followed by [vz, vy, vx]

The 3-label class map itself uses 0 = background, 1 = interior,
2 = boundary; the one-hot channels follow that class order.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage as ndi

from .core import (
    LabelVolume, Volume, boundary_mask, check_choice, check_number, check_volume, erode_instances,
    face_slices,
)
from .errors import ChannelCountError

__all__ = [
    "VARIANTS",
    "MAIN_CHANNELS",
    "BACKGROUND",
    "INTERIOR",
    "BOUNDARY",
    "TargetBundle",
    "signed_boundary_distance",
    "encode_sdt",
    "encode_three_label",
    "encode_affinities",
    "encode_cpv",
    "encode_gauss",
    "encode_bundle",
]

VARIANTS = ("sdt", "3label", "affinities", "gauss")
MAIN_CHANNELS = {"sdt": 1, "3label": 3, "affinities": 4, "gauss": 1}

BACKGROUND, INTERIOR, BOUNDARY = 0, 1, 2

_GAUSS_BLOCK = 16  # edge of the voxel blocks encode_gauss takes its minimum over


@dataclass(frozen=True)
class TargetBundle:
    """Encoded training target for one model variant.

    ``volume`` holds the variant's main channels, followed by the three
    center-point-vector channels when ``with_cpv`` is set.
    """

    volume: Volume
    variant: str
    with_cpv: bool

    def __post_init__(self):
        object.__setattr__(self, "variant", check_choice("variant", self.variant, VARIANTS))
        check_choice("with_cpv", self.with_cpv, (True, False))
        check_volume("target", self.volume)
        main = MAIN_CHANNELS[self.variant]
        if self.volume.channels != main + (3 if self.with_cpv else 0):
            raise ChannelCountError(
                f"variant {self.variant!r} expects {main} channels, or {main + 3} with CPV, "
                f"got {self.volume.channels}"
            )

    @property
    def main_channels(self):
        return MAIN_CHANNELS[self.variant]


def signed_boundary_distance(labels, anisotropic=False):
    """Signed Euclidean distance to the nearest boundary voxel.

    Boundary voxels are the foreground voxels adjacent (6-connected) to
    background or to a different instance; they get distance 0. Values are
    negative strictly inside instances, positive in the background. If no
    boundary voxel exists the result is ±inf.

    Parameters
    ----------
    labels : LabelVolume
    anisotropic : bool
        Measure distance in physical units using the label volume's voxel
        size instead of voxel units.
    """
    lab = check_volume("labels", labels, LabelVolume).labels
    check_choice("anisotropic", anisotropic, (True, False))
    fg = lab > 0
    boundary = boundary_mask(lab)
    if not boundary.any():
        dist = np.full(lab.shape, np.inf)
    else:
        sampling = labels.voxel_size.as_tuple() if anisotropic else None
        dist = ndi.distance_transform_edt(~boundary, sampling=sampling)
    return np.where(fg, -dist, dist)


def encode_sdt(labels, scale=5.0, anisotropic=False):
    """Tanh-capped signed boundary distance, negative inside instances.

    ``scale`` divides the distance before the tanh; with no boundary at all
    the output saturates to ±1.
    """
    check_number("scale", scale, gt=0)
    signed = signed_boundary_distance(labels, anisotropic=anisotropic)
    with np.errstate(over="ignore"):  # a tiny scale overflows to ±inf, whose tanh is ±1 exactly
        return Volume(np.tanh(signed / scale)[np.newaxis], labels.voxel_size)


def encode_three_label(labels):
    """Classify voxels into background (0), interior (1), boundary (2).

    Boundary is every foreground voxel with a 6-connected in-bounds neighbor
    that is background or belongs to a different instance.
    """
    lab = check_volume("labels", labels, LabelVolume).labels
    out = np.zeros(lab.shape, dtype=np.uint8)
    out[lab > 0] = INTERIOR
    out[boundary_mask(lab)] = BOUNDARY
    return Volume(out[np.newaxis], labels.voxel_size)


def encode_affinities(labels):
    """Direct-neighbor affinities plus foreground mask, on eroded labels.

    Instances are eroded once before encoding so that touching instances are
    separated by more than one voxel. Channel c in (0, 1, 2) is 1 where the
    voxel and its +z/+y/+x neighbor carry the same positive ID; the last
    slice along each axis stays 0. Channel 3 is the eroded foreground.
    """
    er = erode_instances(labels, 1).labels
    out = np.zeros((4,) + er.shape, dtype=np.float64)
    for axis in range(3):
        lo, hi = face_slices(axis)
        out[axis][lo] = (er[lo] == er[hi]) & (er[lo] > 0)
    out[3] = er > 0
    return Volume(out, labels.voxel_size)


def encode_cpv(labels):
    """Per-voxel vector from each foreground voxel to its instance center.

    Channels are (vz, vy, vx) in voxel units; background voxels carry the
    zero vector. Centers are computed on the un-eroded labels.
    """
    out = np.zeros((3,) + check_volume("labels", labels, LabelVolume).shape, dtype=np.float64)
    _fill_cpv(labels, out)
    return Volume(out, labels.voxel_size)


def _fill_cpv(labels, out):
    """Write :func:`encode_cpv`'s foreground vectors into the zeroed ``(3, *shape)`` ``out``."""
    fg, rank = labels._fg_rank
    per_voxel = labels.centers[rank]
    for k, c in enumerate(np.unravel_index(fg, labels.shape)):
        out[k].flat[fg] = per_voxel[:, k] - c


def encode_gauss(labels, sigma=2.0):
    """Gaussian blobs around instance centers, combined by per-voxel maximum.

    The value at voxel p is max over centers c of exp(-|p - c|^2 / (2 sigma^2)),
    so isolated centers peak at 1 regardless of how many instances exist.

    It is computed as exp(min_c |p - c|^2 / (-2 sigma^2)) with one exp call.
    Division by a fixed negative number is correctly rounded and therefore
    non-increasing, so the smallest d^2 gives the largest quotient, and exp
    is monotone, so that quotient gives the largest value: the two forms are
    bit-identical, ties included. With no instances d^2 stays +inf and the
    target is all +0.0.

    The minimum is taken per block of 16^3 voxels over candidate centers
    only. A block with midpoint m and half-diagonal h holds no voxel farther
    than h from m, so if the nearest center to m lies at distance d, every
    voxel of the block has a center within d + h, and each of its nearest
    centers lies within d + 2h of m. The candidates are the centers within
    d + 2h + 1 of m: the extra voxel covers the rounding of the float d^2
    and of this test, so every center whose float d^2 is least at a voxel
    is a candidate. The minimum over such a superset is the same float, ties
    included, because each d^2 is the same expression of the same numbers.
    """
    check_number("sigma", sigma, gt=0)
    centers = check_volume("labels", labels, LabelVolume).centers
    d2 = np.full(labels.shape, np.inf)
    if len(centers):
        axes = [np.arange(n, dtype=np.float64) for n in labels.shape]
        for start in itertools.product(*(range(0, n, _GAUSS_BLOCK) for n in labels.shape)):
            block = tuple(slice(a, a + _GAUSS_BLOCK) for a in start)
            z, y, x = (ax[sl] for ax, sl in zip(axes, block))
            end = np.array([z[-1], y[-1], x[-1]])
            half = np.linalg.norm(end - start) / 2
            dist = np.linalg.norm(centers - (end + start) / 2, axis=1)
            cz, cy, cx = centers[dist <= dist.min() + 2 * half + 1].T[:, :, None, None, None]
            d2[block] = (((z[:, None, None] - cz) ** 2 + (y[:, None] - cy) ** 2)
                         + (x - cx) ** 2).min(axis=0)
    # only d^2 > 0 is divided, so an underflowed 2 sigma^2 gives -inf (exp +0.0), never 0 / -0.0
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(d2, -2.0 * sigma * sigma, out=d2, where=d2 > 0)
    np.exp(d2, out=d2)
    return Volume(d2[np.newaxis], labels.voxel_size)


def encode_bundle(labels, variant, with_cpv=False, tanh_scale=5.0, sigma=2.0):
    """Encode one variant's training target, optionally with CPV channels.

    The 3-label variant is bundled as three one-hot probability channels in
    class order (background, interior, boundary) so the result is shaped
    like the matching model output and feeds post-processing directly. With
    CPV, the main channels and the vectors are written into one array.
    """
    if check_choice("variant", variant, VARIANTS) == "sdt":
        main = encode_sdt(labels, scale=tanh_scale).data
    elif variant == "3label":
        cls = encode_three_label(labels).channel(0)
        main = (cls[np.newaxis] == np.arange(3)[:, None, None, None]).astype(np.float64)
    elif variant == "affinities":
        main = encode_affinities(labels).data
    else:
        main = encode_gauss(labels, sigma=sigma).data
    if with_cpv:
        m = len(main)
        out = np.empty((m + 3,) + labels.shape)
        out[:m] = main
        out[m:] = 0.0
        _fill_cpv(labels, out[m:])
        main = out
    return TargetBundle(Volume(main, labels.voxel_size), variant, with_cpv)
