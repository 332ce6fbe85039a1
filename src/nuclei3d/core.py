"""Dense 3d volume containers and basic instance morphology.

Conventions used throughout the toolkit:

* scalar data is indexed ``(c, z, y, x)``, instance labels ``(z, y, x)``
* all coordinates are in voxel units; :class:`VoxelSize` travels along as
  metadata and is consulted only where physical distance matters
* morphology and adjacency use 6-connectivity (face adjacency) unless
  stated otherwise; :func:`components` numbers the 6-connected components
  of a mask in O(foreground), for seed regions and watershed pockets alike
"""

import math
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .errors import ChannelCountError, ShapeMismatchError

__all__ = [
    "VoxelSize",
    "Volume",
    "LabelVolume",
    "erode_instances",
    "dilate_instances",
    "connected_components",
]

def check_number(key, value, integer=False, ge=None, gt=None, lt=None):
    """Return ``value`` if it is a finite real number (an integer if asked) within the bounds.

    Refuses ``bool``, ``str``, ``None``, complex, non-finite values, a value
    below ``ge`` or at or below ``gt``, and one at or above ``lt``, with a
    ``ValueError`` naming ``key`` and the bounds.
    """
    try:
        ok = (
            not isinstance(value, bool)
            and isinstance(value, Integral if integer else Real)
            and (integer or math.isfinite(value))
            and (ge is None or value >= ge)
            and (gt is None or value > gt)
            and (lt is None or value < lt)
        )
    except OverflowError:  # math.isfinite of an int too large for a float
        ok = False
    if not ok:
        bounds = [f" {op} {b}" for op, b in ((">=", ge), (">", gt), ("<", lt)) if b is not None]
        what = "an integer" if integer else "a finite number"
        raise ValueError(f"{key} must be {what}{' and'.join(bounds)}, got {value!r}")
    return value


def check_choice(key, value, choices):
    """Return the one of ``choices`` that ``value`` equals and is of the type of, hashing nothing
    (``np.str_("sdt")`` gives ``"sdt"``; ``1``, ``np.True_`` and a 0-d array match no choice);
    else refuse it, naming ``key``."""
    for c in choices:
        if isinstance(value, type(c)) and value == c:
            return c
    raise ValueError(f"{key} must be {' or '.join(map(repr, choices))}, got {value!r}")


def check_finite(what, values):
    """Return ``values`` if bool, integer or finite floating; else refuse it, naming ``what``."""
    if values.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real numbers, got dtype {values.dtype}")
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")
    return values


def check_same_shape(a_name, a_shape, b_name, b_shape):
    """Refuse (``ShapeMismatchError``) two shapes that differ, naming both sides."""
    if a_shape != b_shape:
        raise ShapeMismatchError(f"{a_name} shape {a_shape} vs {b_name} shape {b_shape}")


def check_keys(what, mapping, keys, required):
    """Refuse (``ValueError``) all but a mapping of only ``keys`` with every ``required`` key."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{what} must be a mapping, got {type(mapping).__name__}")
    unknown = sorted(map(str, set(mapping) - set(keys)))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    for key in required:
        if key not in mapping:
            raise ValueError(f"missing {what} key {key!r}")


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
        check_volume("voxel size", self.voxel_size, VoxelSize)
        data = np.asarray(self.data)
        if data.ndim == 3:
            data = data[np.newaxis]
        if data.ndim != 4 or data.size == 0:
            raise ShapeMismatchError(
                f"volume data must be a non-empty (c, z, y, x) array, got shape {data.shape}"
            )
        object.__setattr__(self, "data", _readonly(check_finite("volume values", data)))

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
        """This volume cast to ``dtype``; a value outside an integer dtype's range is refused."""
        dtype = np.dtype(dtype)
        if dtype.kind in "iu":
            info = np.iinfo(dtype)
            # as Python numbers the comparison is exact: 2.0**63 lies above int64's maximum
            for value in (self.data.min().item(), self.data.max().item()):
                if not info.min <= value <= info.max:
                    raise ValueError(
                        f"volume values must be in the {dtype} range [{info.min}, {info.max}], "
                        f"got {value!r}"
                    )
        # a narrowing float cast that overflows gives inf, which the finiteness check refuses
        with np.errstate(over="ignore"):
            return Volume(self.data.astype(dtype), self.voxel_size)

    def __eq__(self, other):
        if not isinstance(other, Volume):
            return NotImplemented
        return (
            self.data.dtype == other.data.dtype
            and np.array_equal(self.data, other.data)
            and self.voxel_size == other.voxel_size
        )

    __hash__ = None


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """Dense 3d grid of int32 instance IDs; 0 is background.

    Any integer array is accepted whose IDs fit into int32, and is converted
    to int32 unless it is int32 already. IDs need not be contiguous. The
    stored array is exposed read-only, and its IDs, voxel counts and centers
    are computed once; callers must not mutate the array they passed in
    afterwards.
    """

    labels: np.ndarray
    voxel_size: VoxelSize = VoxelSize()

    def __post_init__(self):
        check_volume("voxel size", self.voxel_size, VoxelSize)
        labels = np.asarray(self.labels)
        if labels.ndim != 3 or labels.size == 0:
            raise ShapeMismatchError(
                f"labels must be a non-empty (z, y, x) array, got shape {labels.shape}"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integer, got dtype {labels.dtype}")
        if labels.min() < 0:
            raise ValueError("labels must be non-negative")
        if labels.dtype != np.int32:
            top = labels.max()
            if top > np.iinfo(np.int32).max:
                raise ValueError(f"label ID {top} exceeds the int32 range")
            labels = labels.astype(np.int32)
        object.__setattr__(self, "labels", _readonly(labels))

    @property
    def shape(self):
        return self.labels.shape

    @cached_property
    def id_counts(self):
        """Read-only sorted positive IDs (int32) and their voxel counts."""
        return tuple(map(_readonly, np.unique(self.labels[self.labels > 0], return_counts=True)))

    def ids(self):
        """Sorted int32 array of the positive instance IDs present."""
        return self.id_counts[0]

    @cached_property
    def _fg_rank(self):
        """Flat indices of the foreground voxels and the rank of each one's ID in ``ids()``."""
        flat = self.labels.ravel()
        fg = np.flatnonzero(flat != 0)  # numpy scans a bool mask faster than an int32 one
        return _readonly(fg), _readonly(np.searchsorted(self.ids(), flat[fg]))

    @cached_property
    def centers(self):
        """Read-only ``(n, 3)`` centers of mass, one row per ID of ``ids()``.

        Each row is bit-identical to ``np.nonzero(labels == i)[k].mean()``:
        integer coordinates sum exactly in float64 (below 2**53) in any order,
        and ``.mean()`` is sum / n.
        """
        ids, counts = self.id_counts
        fg, rank = self._fg_rank
        coords = np.unravel_index(fg, self.shape)
        sums = [np.bincount(rank, weights=c, minlength=ids.size) for c in coords]
        return _readonly(np.stack(sums, axis=1) / counts[:, None])

    def foreground(self):
        """Boolean mask of all foreground voxels."""
        return self.labels > 0

    def __eq__(self, other):
        if not isinstance(other, LabelVolume):
            return NotImplemented
        return (
            np.array_equal(self.labels, other.labels)
            and self.voxel_size == other.voxel_size
        )

    __hash__ = None


def check_volume(name, value, kind=Volume, channels=None):
    """Return ``value`` if a ``kind`` with ``channels`` channels (any if None); else refuse it."""
    is_kind = isinstance(value, kind)
    if not is_kind or (channels is not None and value.channels != channels):
        want = " ".join(filter(None, (name, channels and f"{channels}-channel", kind.__name__)))
        got = f"{value.channels} channels" if is_kind else type(value).__name__
        raise ChannelCountError(f"expected a {want}, got {got}")
    return value


def run_starts(values):
    """Index of the first element of each run of equal values in sorted ``values``."""
    start = np.empty(values.size, dtype=bool)
    start[:1] = True
    np.not_equal(values[1:], values[:-1], out=start[1:])
    return np.flatnonzero(start)


def pair_counts(a, b):
    """The ``a``, ``b`` (int64) and count of each distinct pair of two arrays of values
    in ``[0, 2**31)``, sorted by ``(a, b)``: each pair is one int64 key, ``a`` above ``b``."""
    pairs, counts = np.unique(a.astype(np.int64) << 31 | b, return_counts=True)
    return pairs >> 31, pairs & (2**31 - 1), counts


def face_slices(axis):
    """Index pair ``(lo, hi)`` of every voxel and its +1 face neighbor along ``axis``."""
    lo = [slice(None)] * 3
    hi = [slice(None)] * 3
    lo[axis], hi[axis] = slice(0, -1), slice(1, None)
    return tuple(lo), tuple(hi)


def face_neighbours(idx, shape):
    """Flat indices of the six face neighbours of each flat index in ``idx``.

    Returns an ``(idx.size, 6)`` array in the order -z, +z, -y, +y, -x, +x.
    A neighbour outside the volume is replaced by the voxel itself. The
    array is the transpose of a ``(6, idx.size)`` one, filled a direction at
    a time: an add into a contiguous row is several times faster than into
    a strided column.
    """
    nz, ny, nx = shape
    z, y, x = np.unravel_index(idx, shape)
    inside = (z > 0, z < nz - 1, y > 0, y < ny - 1, x > 0, x < nx - 1)
    steps = (-ny * nx, ny * nx, -nx, nx, -1, 1)
    out = np.empty((6, idx.size), dtype=np.intp)
    for row, step, ok in zip(out, steps, inside):
        np.add(idx, ok * step, out=row)
    return out.T


def round_half_away(v):
    """Round to the nearest integer, halves away from zero; the result stays float."""
    return np.copysign(np.floor(np.abs(v) + 0.5), v)


def voxel_indices(coords, shape):
    """Flat indices of the voxels in ``shape`` that points fall in, and which points fall inside.

    ``coords`` holds one coordinate array per axis. Each coordinate is rounded
    half away from zero; the indices are those of the inside points, in order.
    """
    rounded = [round_half_away(c) for c in coords]
    # bounds are tested on the rounded floats: the int cast of a huge coordinate overflows
    inside = np.logical_and.reduce([(r >= 0) & (r < n) for r, n in zip(rounded, shape)])
    return np.ravel_multi_index([r[inside].astype(np.intp) for r in rounded], shape), inside


def boundary_mask(lab):
    """Foreground voxels with an in-bounds face neighbor of different label."""
    diff = np.zeros(lab.shape, dtype=bool)
    for axis in range(3):
        lo, hi = face_slices(axis)
        ne = lab[lo] != lab[hi]
        diff[lo] |= ne
        diff[hi] |= ne
    return (lab > 0) & diff


def erode_instances(labels, iterations):
    """Erode every instance independently with the 6-connected element.

    A foreground voxel survives one iteration iff all six face neighbors
    carry the same ID; neighbors outside the volume count as background.
    Instances may vanish entirely.
    """
    check_number("iterations", iterations, integer=True, ge=0)
    lab = check_volume("labels", labels, LabelVolume).labels
    # voxels whose six face neighbours all lie inside the volume
    inner = np.zeros(lab.shape, dtype=bool)
    inner[1:-1, 1:-1, 1:-1] = True
    for _ in range(iterations):
        lab = np.where(inner & ~boundary_mask(lab), lab, 0)
    return LabelVolume(lab, labels.voxel_size)


def dilate_instances(labels, iterations):
    """Grow every instance by the 6-connected element.

    Existing foreground is never overwritten. A background voxel adjacent
    to several distinct instances is claimed by the smallest ID.
    """
    check_number("iterations", iterations, integer=True, ge=0)
    lab = check_volume("labels", labels, LabelVolume).labels
    for _ in range(iterations):
        # ID - 1 viewed as uint32: background (0 - 1) wraps to the largest value,
        # above every ID, so the minimum over neighbours skips it
        src = (lab - 1).view(np.uint32)
        candidate = np.full_like(src, np.iinfo(np.uint32).max)
        for axis in range(3):
            lo, hi = face_slices(axis)
            np.minimum(candidate[hi], src[lo], out=candidate[hi])
            np.minimum(candidate[lo], src[hi], out=candidate[lo])
        # next to no instance the candidate stays the largest value, and + 1 wraps it to 0
        lab = np.where(lab > 0, lab, (candidate + 1).view(np.int32))
    return LabelVolume(lab, labels.voxel_size)


def connected_components(mask):
    """Label the 6-connected foreground regions of a single-channel bool ``Volume``.

    IDs are assigned in raster-scan first-encounter order, starting at 1.
    """
    data = check_volume("mask", mask, channels=1).channel(0)
    at, number = components(data)
    lab = np.zeros(data.size, dtype=np.int32)
    lab[at] = number
    return LabelVolume(lab.reshape(data.shape), mask.voxel_size)


def components(mask):
    """6-connected components of the nonzero voxels of a 3d array, in O(foreground).

    Returns ``at = np.flatnonzero(mask)`` and each voxel's component number,
    int32 from 1 in raster first-encounter order.

    The voxels are split into runs along x, and each voxel with a +y or +z
    face neighbour in the mask joins the two voxels' runs by one edge. A
    union-find over the runs then hooks, each round, the larger root of every
    edge to its smallest neighbouring root and pointer-jumps to the roots.
    Every root with an edge merges in each round, so the rounds are
    logarithmic in the runs. A parent never exceeds its run, so each root is
    its component's raster-first run, and numbering the roots in run order
    gives first-encounter order.
    """
    nz, ny, nx = mask.shape
    plane = ny * nx
    flat = mask.ravel()
    at = np.flatnonzero(flat)
    # a run starts where the index skips or at x == 0
    start = np.empty(at.size, dtype=bool)
    start[:1] = True
    np.not_equal(at[1:], at[:-1] + 1, out=start[1:])
    start |= at % nx == 0
    run = np.cumsum(start, dtype=np.int32)
    run -= 1
    # the run of each voxel, written and read only at foreground indices
    run_at = np.empty(flat.size, dtype=np.int32)
    run_at[at] = run
    heads, tails = [], []
    for step, inside in ((nx, at % plane < plane - nx), (plane, at < flat.size - plane)):
        nbr = at[inside] + step
        hit = flat[nbr] != 0
        heads.append(run[inside][hit])
        tails.append(run_at[nbr[hit]])
    # edges (a, b) between runs, a < b: the neighbour comes later in raster order
    a, b = np.concatenate(heads), np.concatenate(tails)
    parent = np.arange(run[-1] + 1 if run.size else 0, dtype=np.int32)
    while a.size:
        np.minimum.at(parent, b, a)
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
        a, b = parent[a], parent[b]
        keep = a != b
        a, b = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
    number = np.cumsum(parent == np.arange(parent.size), dtype=np.int32)
    return at, number[parent][run]
