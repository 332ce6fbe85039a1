"""From predicted maps to instance segmentations: topography, seeds, watershed.

Per variant the topographic map (low floods first), foreground and main seeds are:

    sdt         map = prediction;              fg = pred <= fg_threshold;
                seeds = pred < seed_threshold (a negative threshold)
    3label      map = 1 - P(interior);         fg = 1 - P(background) >= fg_threshold;
                seeds = P(interior) >= seed_threshold
    affinities  map = 1 - mean(3 affinities);  fg = fg channel >= fg_threshold;
                seeds = at least two of the three affinities >= seed_threshold

Alternatively seeds come from center-point-vector vote accumulation.
Predictions may be probabilities (default) or logits, activated by softmax
(3label) or sigmoid (affinities); sdt has no activation. :func:`segment`
reads its prediction once: one check, one float64 cast and one activation of
the main channels give its map, foreground and main seeds. The seeds grow
into the foreground by the deterministic priority flood of :func:`watershed`.
"""

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import (
    LabelVolume, Volume, VoxelSize, check_choice, check_finite, check_number, check_same_shape,
    check_volume, components, connected_components, dilate_instances, face_neighbours,
    pair_counts, run_starts, voxel_indices,
)
from .errors import ShapeMismatchError
from .targets import BACKGROUND, INTERIOR, MAIN_CHANNELS, TargetBundle

__all__ = [
    "PostprocConfig",
    "TopographicMap",
    "build_topography",
    "extract_seeds_main",
    "extract_seeds_cpv",
    "accumulate_votes",
    "watershed",
    "segment",
]

SEG_VARIANTS = ("sdt", "3label", "affinities")
SEED_SOURCES = ("main", "cpv")


@dataclass(frozen=True)
class PostprocConfig:
    """One post-processing recipe: variant, thresholds, seed source."""

    variant: str
    seed_source: str = "main"
    seed_threshold: float = 0.0
    foreground_threshold: float = 0.0
    cpv_seed_threshold: float = 0.0
    dilate_result: bool = False

    def __post_init__(self):
        for key, choices in (("variant", SEG_VARIANTS), ("seed_source", SEED_SOURCES)):
            object.__setattr__(self, key, check_choice(key, getattr(self, key), choices))
        for key, ge in (
            ("seed_threshold", None), ("foreground_threshold", None), ("cpv_seed_threshold", 0)
        ):
            object.__setattr__(self, key, float(check_number(key, getattr(self, key), ge=ge)))
        check_choice("dilate_result", self.dilate_result, (True, False))


@dataclass(frozen=True)
class TopographicMap:
    """Scalar field flooded lowest-first plus the mask it may flood.

    ``values`` is a 3d array. ``foreground`` is stored as a bool array, so a
    nonzero voxel of any dtype is foreground.
    """

    values: np.ndarray
    foreground: np.ndarray
    voxel_size: VoxelSize = VoxelSize()

    def __post_init__(self):
        check_volume("voxel size", self.voxel_size, VoxelSize)
        if not isinstance(self.values, np.ndarray) or self.values.ndim != 3:
            got = getattr(self.values, "shape", type(self.values).__name__)
            raise ShapeMismatchError(f"topography values must be a 3d array, got {got}")
        fg = np.asarray(self.foreground, dtype=bool)
        check_same_shape("topography values", self.values.shape, "foreground", fg.shape)
        object.__setattr__(self, "foreground", fg)
        check_finite("topography values", self.values)


def _read(pred, cfg, logits, main_seeds=None):
    """Check ``cfg`` and ``pred`` and read the main channels of ``pred`` once, by the variant
    table above: the map values, foreground, main-seed mask (None unless ``main_seeds``,
    which defaults to ``cfg`` seeding from main) and prediction volume."""
    check_volume("", cfg, PostprocConfig)
    if isinstance(pred, TargetBundle):
        if pred.variant != cfg.variant:
            raise ValueError(f"a {pred.variant!r} prediction bundle cannot be read as {cfg.variant!r}")
    else:
        check_volume("prediction", pred)
        pred = TargetBundle(pred, cfg.variant, pred.channels > MAIN_CHANNELS[cfg.variant])
    check_choice("logits", logits, (True, False))
    if main_seeds is None:
        main_seeds = cfg.seed_source == "main"
    vol = pred.volume
    data = vol.data[:pred.main_channels].astype(np.float64, copy=False)
    fg_t, seed_t = cfg.foreground_threshold, cfg.seed_threshold
    if cfg.variant == "sdt":
        values, fg = data[0], data[0] <= fg_t
        mask = (data[0] < seed_t) if main_seeds else None
    elif cfg.variant == "3label":
        if logits:
            data = np.exp(data - data.max(axis=0, keepdims=True))
            data /= data.sum(axis=0, keepdims=True)
        values, fg = 1.0 - data[INTERIOR], (1.0 - data[BACKGROUND]) >= fg_t
        mask = (data[INTERIOR] >= seed_t) if main_seeds else None
    else:
        if logits:
            data = expit(data)
        values, fg = 1.0 - data[:3].mean(axis=0), data[3] >= fg_t
        mask = ((data[:3] >= seed_t).sum(axis=0) >= 2) if main_seeds else None
    return values, fg, mask, vol


def build_topography(pred, cfg, logits=False):
    """Build the watershed map and foreground mask for one variant."""
    values, fg, _, vol = _read(pred, cfg, logits, False)
    return TopographicMap(values, fg, vol.voxel_size)


def extract_seeds_main(pred, cfg, logits=False):
    """Seed regions from the main prediction channels, labeled 6-connected."""
    _, _, mask, vol = _read(pred, cfg, logits, True)
    return connected_components(Volume(mask, vol.voxel_size))


def accumulate_votes(cpv_pred, fg_mask):
    """Count, per voxel, how many foreground vectors point at it.

    Each foreground voxel p casts one vote at round(p + v(p)), rounding
    half away from zero per component; votes leaving the volume are
    discarded. The counter total therefore equals the number of foreground
    voxels whose vote lands in bounds.
    """
    vec = check_volume("cpv", cpv_pred, channels=3).data.astype(np.float64, copy=False)
    fg = np.asarray(fg_mask, dtype=bool)
    check_same_shape("cpv channels", vec.shape[1:], "foreground mask", fg.shape)

    f = np.flatnonzero(fg)
    at = np.unravel_index(f, fg.shape)
    votes, _ = voxel_indices([c + v for c, v in zip(at, vec.reshape(3, -1)[:, f])], fg.shape)
    return np.bincount(votes, minlength=fg.size).reshape(fg.shape)


def extract_seeds_cpv(cpv_pred, fg_mask, cpv_seed_threshold):
    """Seed regions from center-point-vector vote accumulation."""
    check_number("cpv_seed_threshold", cpv_seed_threshold, ge=0)
    counts = accumulate_votes(cpv_pred, fg_mask)
    mask = counts >= cpv_seed_threshold
    return connected_components(Volume(mask, cpv_pred.voxel_size))


def watershed(topo, seeds):
    """Priority-flood the topography from seed regions.

    Seeds are clipped to the foreground mask; each claimed voxel takes its
    claiming seed's ID. Pending claims are ordered by (map value at the
    claimed voxel, insertion sequence number), which makes the result fully
    deterministic. Foreground voxels unreachable from any seed stay
    background.

    A claim only moves from a labelled voxel to an unseeded face neighbour,
    so a flood never leaves its *pocket*: a 6-connected component of
    unseeded foreground. ``core.components`` numbers the pockets from the
    indices of the unseeded foreground voxels, and only those voxels are
    written. A pocket next to seeds of one ID is filled with that ID and a
    pocket next to none stays background. Only pockets next to two
    or more IDs are flooded. Dropping the other pockets' claims keeps the
    relative (value, sequence) order of each pocket's own claims, so the
    labels are those of one flood over the whole volume.

    One gather of the face neighbours of the unseeded foreground voxels
    gives every (unseeded voxel, seed voxel) pair of face neighbours, and so
    each pocket's IDs. A seed voxel only ever queues claims on unseeded
    neighbours not yet claimed, and a voxel once claimed stays claimed, so a
    seed that touches no flooded pocket never queues one. Skipping it uses no
    sequence number and keeps every (value, sequence) order. The seeds next
    to a flooded pocket pop before any claim, in raster order, each claiming
    its free neighbours in table order. A seed reaches its neighbour through
    the direction opposite to the one the neighbour reaches it by, ``col ^ 1``
    in the -z, +z, -y, +y, -x, +x order. So the claim on a flooded voxel that
    holds is the least ``seed * 6 + (col ^ 1)`` over its pairs, and those
    first claims are made in numpy in that order; the heap then holds only
    the flooded pockets' voxels.
    """
    shape = check_volume("", topo, TopographicMap).values.shape
    check_same_shape("seeds", check_volume("seed", seeds, LabelVolume).shape, "topography", shape)
    labels = np.where(topo.foreground, seeds.labels, 0)
    # the unseeded foreground voxels and their pockets, numbered from 1
    u, pocket_of_u = components(topo.foreground & (labels == 0))
    n_pocket = int(pocket_of_u.max(initial=0))
    labels = labels.ravel()

    # (unseeded voxel row, direction) of each face-adjacent seed voxel, sorted by row;
    # a flat nonzero and divmod is several times faster than a 2d nonzero. A neighbour
    # outside the volume is the voxel itself, which is unseeded and so never pairs.
    nbr = face_neighbours(u, shape)
    row, col = np.divmod(np.flatnonzero(labels[nbr] != 0), 6)
    pair_seed = nbr[row, col]
    owner, ids, _ = pair_counts(pocket_of_u[row], labels[pair_seed])
    n_ids = np.bincount(owner, minlength=n_pocket + 1)
    # per pocket: its one ID, 0 next to no ID, -1 when contested
    fill = np.where(n_ids >= 2, -1, 0).astype(np.int32)
    single = n_ids[owner] == 1
    fill[owner[single]] = ids[single]
    # seeds keep their IDs and each pocket voxel takes its pocket's fill; only
    # pocket voxels are written, so the seed IDs read from ``labels`` below hold
    out = labels
    fill_u = fill[pocket_of_u]
    out[u] = fill_u
    contested = np.flatnonzero(fill_u < 0)
    flooded = u[contested]

    if flooded.size:
        m = flooded.size
        # flooded voxels are numbered from 0; -1 marks a neighbour that is never
        # free: a seed, background or a voxel of a pocket filled above
        pos = np.full(labels.size, -1, dtype=np.intp)
        pos[flooded] = np.arange(m)

        # The first claim on each flooded voxel next to a seed, as seed * 6 + the
        # seed's direction to it; the n-th in that order takes sequence number n.
        hit = fill_u[row] < 0
        row, first = row[hit], pair_seed[hit] * 6 + (col[hit] ^ 1)
        starts = run_starts(row)
        first = np.minimum.reduceat(first, starts)
        order = first.argsort()
        claimed = pos[u[row[starts[order]]]]
        # The trailing 1 is the entry that neighbour -1 reads; 0 marks a free voxel.
        result = np.zeros(m + 1, dtype=labels.dtype)
        result[m] = 1
        result[claimed] = labels[first[order] // 6]

        # One int per heap entry, rank * m + seq with pushed[seq] = voxel: a claim
        # ranks its map value densely from 0, equal values (-0.0 and 0.0 too)
        # sharing a rank, so pops follow (value, seq). All claims on a voxel share
        # its value and sequence numbers only grow, so the first claim queued for
        # a voxel is the one resolved: it is labelled when queued and never queued
        # again, and at most m claims are queued.
        rank = np.unique(topo.values.ravel()[flooded], return_inverse=True)[1]
        key = rank * m
        heap = (key[claimed] + np.arange(claimed.size)).tolist()
        heapq.heapify(heap)
        # A neighbour outside the volume is the voxel itself, which is labelled by
        # the time its row is read.
        table = pos[nbr[contested]].tolist()
        del nbr, pos  # not held through the flood
        result, key, pushed = result.tolist(), key.tolist(), claimed.tolist()
        push, pop, append = heapq.heappush, heapq.heappop, pushed.append  # local names: hot loop
        while heap:
            i = pushed[pop(heap) % m]
            lab = result[i]
            for a in table[i]:
                if not result[a]:
                    result[a] = lab
                    push(heap, key[a] + len(pushed))
                    append(a)
        out[flooded] = result[:-1]

    return LabelVolume(out.reshape(shape), topo.voxel_size)


def segment(pred, cfg, logits=False):
    """Full pipeline: topography, seeds (main or cpv), watershed, dilation.

    With ``seed_source == 'cpv'`` the prediction must carry the three vector
    channels after the variant's main channels.
    """
    values, fg, mask, vol = _read(pred, cfg, logits)
    topo = TopographicMap(values, fg, vol.voxel_size)
    if cfg.seed_source == "main":
        seeds = connected_components(Volume(mask, vol.voxel_size))
    else:
        main = MAIN_CHANNELS[cfg.variant]
        check_volume(f"cpv-seeded {cfg.variant}", vol, channels=main + 3)
        cpv = Volume(vol.data[main:], vol.voxel_size)
        seeds = extract_seeds_cpv(cpv, topo.foreground, cfg.cpv_seed_threshold)
    del mask  # not held through the flood
    out = watershed(topo, seeds)
    if cfg.dilate_result:
        out = dilate_instances(out, 1)
    return out
