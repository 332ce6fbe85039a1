"""Dense 3d volume containers and basic instance morphology.

Conventions used throughout the toolkit:

* scalar data is indexed ``(c, z, y, x)``, instance labels ``(z, y, x)``
* all coordinates are in voxel units; :class:`VoxelSize` travels along as
  metadata and is consulted only where physical distance matters
* morphology and adjacency use the 6-connected (face adjacency)
  structuring element unless stated otherwise
"""

import math
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral, Real

import numpy as np
from scipy import ndimage as ndi

from .errors import ShapeMismatchError

__all__ = [
    "VoxelSize",
    "Volume",
    "LabelVolume",
    "instance_centers",
    "erode_instances",
    "dilate_instances",
    "connected_components",
]


def check_number(key, value, integer=False, ge=None, gt=None):
    """Return ``value`` if it is a finite real number (an integer if asked) within the bound.

    Refuses ``bool``, ``str``, ``None``, complex, non-finite values and a value
    below ``ge`` or at or below ``gt`` with a ``ValueError`` naming ``key``.
    """
    try:
        ok = (
            not isinstance(value, bool)
            and isinstance(value, Integral if integer else Real)
            and (integer or math.isfinite(value))
            and (ge is None or value >= ge)
            and (gt is None or value > gt)
        )
    except OverflowError:  # math.isfinite of an int too large for a float
        ok = False
    if not ok:
        bound = f" >= {ge}" if ge is not None else f" > {gt}" if gt is not None else ""
        what = "an integer" if integer else "a finite number"
        raise ValueError(f"{key} must be {what}{bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class VoxelSize:
    """Physical voxel edge lengths ``(dz, dy, dx)`` in micrometers."""

    dz: float = 1.0
    dy: float = 1.0
    dx: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            check_number(f"voxel size {f.name}", getattr(self, f.name), gt=0)

    def as_tuple(self):
        return (self.dz, self.dy, self.dx)


def _readonly(arr):
    view = arr.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class Volume:
    """Dense multi-channel scalar grid.

    ``data`` is indexed ``(c, z, y, x)``; a 3d array is accepted and treated
    as a single channel. The stored array is exposed read-only; callers must
    not mutate the array they passed in afterwards.
    """

    data: np.ndarray
    voxel_size: VoxelSize = VoxelSize()

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim == 3:
            data = data[np.newaxis]
        if data.ndim != 4 or data.size == 0:
            raise ShapeMismatchError(
                f"volume data must be a non-empty (c, z, y, x) array, got shape {data.shape}"
            )
        if np.issubdtype(data.dtype, np.floating) and not np.isfinite(data).all():
            raise ValueError("volume values must be finite")
        object.__setattr__(self, "data", _readonly(data))

    @property
    def channels(self):
        return self.data.shape[0]

    @property
    def shape(self):
        """Spatial shape ``(nz, ny, nx)``."""
        return self.data.shape[1:]

    def channel(self, c):
        """Read-only 3d view of channel ``c``."""
        return self.data[c]

    def astype(self, dtype):
        return Volume(self.data.astype(dtype), self.voxel_size)

    def __eq__(self, other):
        if not isinstance(other, Volume):
            return NotImplemented
        return (
            self.data.dtype == other.data.dtype
            and self.data.shape == other.data.shape
            and np.array_equal(self.data, other.data)
            and self.voxel_size == other.voxel_size
        )

    __hash__ = None


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """Dense 3d grid of instance IDs; 0 is background.

    IDs need not be contiguous. The stored array is exposed read-only, and
    its IDs and voxel counts are computed once; callers must not mutate the
    array they passed in afterwards.
    """

    labels: np.ndarray
    voxel_size: VoxelSize = VoxelSize()

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 3 or labels.size == 0:
            raise ShapeMismatchError(
                f"labels must be a non-empty (z, y, x) array, got shape {labels.shape}"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integer, got dtype {labels.dtype}")
        if labels.min() < 0:
            raise ValueError("labels must be non-negative")
        object.__setattr__(self, "labels", _readonly(labels))

    @property
    def shape(self):
        return self.labels.shape

    @cached_property
    def id_counts(self):
        """Read-only sorted positive IDs, in the labels' dtype, and their voxel counts."""
        return tuple(map(_readonly, id_counts(self.labels)))

    def ids(self):
        """Sorted array of the positive instance IDs present, in the labels' dtype."""
        return self.id_counts[0]

    def foreground(self):
        """Boolean mask of all foreground voxels."""
        return self.labels > 0

    def __eq__(self, other):
        if not isinstance(other, LabelVolume):
            return NotImplemented
        return (
            self.labels.dtype == other.labels.dtype
            and self.labels.shape == other.labels.shape
            and np.array_equal(self.labels, other.labels)
            and self.voxel_size == other.voxel_size
        )

    __hash__ = None


def run_starts(ids):
    """Index of the first element of each run of equal values in sorted positive ``ids``."""
    # a zero of the IDs' own dtype: a Python 0 would turn uint64 IDs into float64
    return np.flatnonzero(np.diff(ids, prepend=ids.dtype.type(0)))


def id_counts(lab):
    """Sorted positive IDs of a label array, in its dtype, and their voxel counts.

    The foreground IDs are sorted and the first of each run is kept. A bare
    ``np.unique`` takes a hash path on numpy >= 2.3, which is several times
    slower than this sort on label volumes.
    """
    ids = lab[lab > 0]
    ids.sort()
    starts = run_starts(ids)
    return ids[starts], np.diff(starts, append=ids.size)


def instance_centers(labels):
    """Sorted positive IDs, their voxel counts and ``(n, 3)`` centers of mass.

    One pass over the volume. Each center is bit-identical to
    ``np.nonzero(labels.labels == i)[k].mean()``.
    """
    lab = labels.labels
    coords = np.nonzero(lab)
    ids = lab[coords]
    order = np.argsort(ids)
    ids = ids[order]
    starts = run_starts(ids)
    counts = np.diff(starts, append=ids.size)
    if not starts.size:
        return ids, counts, np.zeros((0, 3))
    # integer coordinates sum exactly in float64 (below 2**53) in any order; .mean() is sum / n
    sums = [np.add.reduceat(c[order], starts, dtype=np.float64) for c in coords]
    return ids[starts], counts, np.stack(sums, axis=1) / counts[:, None]


def face_slices(axis):
    """Index pair ``(lo, hi)`` of every voxel and its +1 face neighbor along ``axis``."""
    lo = [slice(None)] * 3
    hi = [slice(None)] * 3
    lo[axis], hi[axis] = slice(0, -1), slice(1, None)
    return tuple(lo), tuple(hi)


def face_neighbours(idx, shape):
    """Flat indices of the six face neighbours of each flat index in ``idx``.

    Returns an ``(idx.size, 6)`` array in the order -z, +z, -y, +y, -x, +x.
    A neighbour outside the volume is replaced by the voxel itself.
    """
    nz, ny, nx = shape
    z, y, x = np.unravel_index(idx, shape)
    inside = (z > 0, z < nz - 1, y > 0, y < ny - 1, x > 0, x < nx - 1)
    steps = (-ny * nx, ny * nx, -nx, nx, -1, 1)
    out = np.empty((idx.size, 6), dtype=np.intp)
    for k, (step, ok) in enumerate(zip(steps, inside)):
        np.add(idx, ok * step, out=out[:, k])
    return out


def round_half_away(v):
    """Round to the nearest integer, halves away from zero; the result stays float."""
    return np.copysign(np.floor(np.abs(v) + 0.5), v)


def erode_instances(labels, iterations):
    """Erode every instance independently with the 6-connected element.

    A foreground voxel survives one iteration iff all six face neighbors
    carry the same ID; neighbors outside the volume count as background.
    Instances may vanish entirely.
    """
    check_number("iterations", iterations, integer=True, ge=0)
    lab = labels.labels.copy()
    for _ in range(iterations):
        if not lab.any():
            break
        keep = lab > 0
        for axis in range(3):
            lo, hi = face_slices(axis)
            same = lab[lo] == lab[hi]
            keep[lo] &= same
            keep[hi] &= same
            # the neighbour outside the volume is background
            np.moveaxis(keep, axis, 0)[[0, -1]] = False
        lab = np.where(keep, lab, 0)
    return LabelVolume(lab, labels.voxel_size)


def dilate_instances(labels, iterations):
    """Grow every instance by the 6-connected element.

    Existing foreground is never overwritten. A background voxel adjacent
    to several distinct instances is claimed by the smallest ID.
    """
    check_number("iterations", iterations, integer=True, ge=0)
    lab = labels.labels.copy()
    sentinel = np.iinfo(np.int64).max
    for _ in range(iterations):
        # background reads as the sentinel, so the minimum over neighbours skips it
        src = np.where(lab > 0, lab.astype(np.int64, copy=False), sentinel)
        candidate = np.full(lab.shape, sentinel, dtype=np.int64)
        for axis in range(3):
            lo, hi = face_slices(axis)
            np.minimum(candidate[hi], src[lo], out=candidate[hi])
            np.minimum(candidate[lo], src[hi], out=candidate[lo])
        claim = (lab == 0) & (candidate != sentinel)
        lab[claim] = candidate[claim].astype(lab.dtype)
    return LabelVolume(lab, labels.voxel_size)


def connected_components(mask):
    """Label the 6-connected foreground regions of a single-channel bool ``Volume``.

    IDs are assigned in deterministic raster-scan first-encounter order,
    starting at 1.
    """
    if mask.channels != 1:
        raise ShapeMismatchError("connected_components expects a single channel")
    lab, n = ndi.label(mask.channel(0), structure=ndi.generate_binary_structure(3, 1))
    lab = lab.astype(np.int32)
    if n > 0:
        lab = _relabel_raster_order(lab, n)
    return LabelVolume(lab, mask.voxel_size)


def _relabel_raster_order(lab, n):
    # scipy does not document its ID ordering; enforce first-encounter order.
    # Every ID 1..n occurs; its first raster index is the least foreground index.
    flat = lab.ravel()
    fg = np.flatnonzero(flat)
    first = np.full(n + 1, flat.size)
    np.minimum.at(first, flat[fg], fg)
    remap = np.zeros(n + 1, dtype=np.int32)
    remap[np.argsort(first[1:]) + 1] = np.arange(1, n + 1)
    return remap[lab]
