"""From predicted maps to instance segmentations: topography, seeds, watershed.

Per variant the topographic map (low floods first) and foreground are:

    sdt         map = prediction;                 fg = pred <= fg_threshold
    3label      map = 1 - P(interior);            fg = 1 - P(background) >= fg_threshold
    affinities  map = 1 - mean(3 affinities);     fg = fg channel >= fg_threshold

Seed rules: sdt thresholds the map strictly below the (negative) seed
threshold; 3label keeps P(interior) >= threshold; affinities keeps voxels
where at least two of the three affinity channels reach the threshold.
Alternatively seeds come from center-point-vector vote accumulation.
Predictions may be probabilities (default) or logits. The seeds grow into
the foreground by the deterministic priority flood of :func:`watershed`.
"""

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import (
    LabelVolume, Volume, VoxelSize, check_finite, check_number, check_same_shape, check_volume,
    components, connected_components, dilate_instances, face_neighbours, pair_counts,
    round_half_away, run_starts,
)
from .errors import ShapeMismatchError
from .targets import MAIN_CHANNELS, TargetBundle

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
        if self.variant not in SEG_VARIANTS:
            raise ValueError(f"unknown segmentation variant {self.variant!r}")
        if self.seed_source not in SEED_SOURCES:
            choices = " or ".join(map(repr, SEED_SOURCES))
            raise ValueError(f"seed_source must be {choices}, got {self.seed_source!r}")
        for key, ge in (
            ("seed_threshold", None), ("foreground_threshold", None), ("cpv_seed_threshold", 0)
        ):
            object.__setattr__(self, key, float(check_number(key, getattr(self, key), ge=ge)))
        if not isinstance(self.dilate_result, bool):
            raise ValueError(f"dilate_result must be true or false, got {self.dilate_result!r}")


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
        if not isinstance(self.values, np.ndarray) or self.values.ndim != 3:
            got = getattr(self.values, "shape", type(self.values).__name__)
            raise ShapeMismatchError(f"topography values must be a 3d array, got {got}")
        fg = np.asarray(self.foreground, dtype=bool)
        check_same_shape("topography values", self.values.shape, "foreground", fg.shape)
        object.__setattr__(self, "foreground", fg)
        check_finite("topography values", self.values)


def _prediction(pred, cfg):
    """``pred`` as a bundle of ``cfg``'s variant; its kind is checked before ``cfg`` is read."""
    if not isinstance(pred, TargetBundle):
        check_volume("prediction", pred)
        return TargetBundle(pred, cfg.variant, pred.channels > MAIN_CHANNELS[cfg.variant])
    if pred.variant != cfg.variant:
        raise ValueError(f"a {pred.variant!r} prediction bundle cannot be read as {cfg.variant!r}")
    return pred


def _main_data(pred, cfg, logits):
    """Main channels as float64 probabilities, and the prediction volume."""
    vol = _prediction(pred, cfg).volume
    data = vol.data[:MAIN_CHANNELS[cfg.variant]].astype(np.float64, copy=False)
    if logits and cfg.variant == "3label":
        shifted = data - data.max(axis=0, keepdims=True)
        data = np.exp(shifted)
        data /= data.sum(axis=0, keepdims=True)
    elif logits and cfg.variant == "affinities":
        data = expit(data)
    return data, vol


def build_topography(pred, cfg, logits=False):
    """Build the watershed map and foreground mask for one variant."""
    data, vol = _main_data(pred, cfg, logits)
    if cfg.variant == "sdt":
        values = data[0]
        fg = values <= cfg.foreground_threshold
    elif cfg.variant == "3label":
        values = 1.0 - data[1]
        fg = (1.0 - data[0]) >= cfg.foreground_threshold
    else:
        values = 1.0 - data[:3].mean(axis=0)
        fg = data[3] >= cfg.foreground_threshold
    return TopographicMap(values, fg, vol.voxel_size)


def extract_seeds_main(pred, cfg, logits=False):
    """Seed regions from the main prediction channels, labeled 6-connected."""
    data, vol = _main_data(pred, cfg, logits)
    if cfg.variant == "sdt":
        mask = data[0] < cfg.seed_threshold
    elif cfg.variant == "3label":
        mask = data[1] >= cfg.seed_threshold
    else:
        mask = (data[:3] >= cfg.seed_threshold).sum(axis=0) >= 2
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
    targets = [round_half_away(c + v) for c, v in zip(at, vec.reshape(3, -1)[:, f])]
    # bounds are tested on the rounded floats: the int cast of a huge vector overflows
    ok = np.logical_and.reduce([(t >= 0) & (t < n) for t, n in zip(targets, fg.shape)])
    z, y, x = (t[ok].astype(np.int64) for t in targets)
    _, ny, nx = fg.shape
    return np.bincount((z * ny + y) * nx + x, minlength=fg.size).reshape(fg.shape)


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

    The (pocket, seed voxel) pairs of face neighbours come from one gather
    over the smaller side: the neighbours of the unseeded foreground voxels,
    or those of the seed voxels. The pairs give each pocket's IDs and the
    *border seeds*, the seed voxels next to a flooded pocket. A seed voxel
    only ever queues claims on unseeded neighbours not yet claimed, and a
    voxel once claimed stays claimed, so a seed that touches no flooded
    pocket never queues one. Skipping it uses no sequence number and keeps
    every (value, sequence) order. The border seeds pop before any claim,
    in raster order, and their claims are made in numpy; the heap then
    holds only the flooded pockets' voxels.
    """
    shape = check_volume("", topo, TopographicMap).values.shape
    check_same_shape("seeds", check_volume("seed", seeds, LabelVolume).shape, "topography", shape)
    labels = np.where(topo.foreground, seeds.labels, 0)
    # the unseeded foreground voxels and their pockets, numbered from 1
    u, pocket_of_u = components(topo.foreground & (labels == 0))
    n_pocket = int(pocket_of_u.max(initial=0))
    n_seeded = np.count_nonzero(topo.foreground) - u.size
    labels = labels.ravel()

    # (pocket, seed voxel) of each face-adjacent pair, gathered from the smaller
    # side: the unseeded side alone is slower where seeds are few, as CPV seeds
    # are. A neighbour outside the volume is the voxel itself, which is on the
    # gathered side and so never pairs.
    if u.size <= n_seeded:
        nbr = face_neighbours(u, shape)
        row, col = np.nonzero(labels[nbr] != 0)
        pair_pocket, pair_seed = pocket_of_u[row], nbr[row, col]
    else:
        pocket = np.zeros(labels.size, dtype=np.intp)  # 0 off the pockets
        pocket[u] = pocket_of_u
        at = np.flatnonzero(labels != 0)
        nbr = pocket[face_neighbours(at, shape)]
        del pocket
        row, col = np.nonzero(nbr != 0)
        pair_pocket, pair_seed = nbr[row, col], at[row]
    del nbr
    owner, ids, _ = pair_counts(pair_pocket, labels[pair_seed])
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
    flooded = u[fill_u < 0]

    if flooded.size:
        m = flooded.size
        border = pair_seed[fill[pair_pocket] < 0]
        border.sort()
        border = border[run_starts(border)]
        # flooded voxels are numbered from 0; -1 marks a neighbour that is never
        # free: a seed, background or a voxel of a pocket filled above
        pos = np.full(labels.size, -1, dtype=np.intp)
        pos[flooded] = np.arange(m)

        # The border seeds pop first, in raster order, and each claims its free
        # neighbours in table order. So of the claims on a flooded voxel, in
        # (border seed, neighbour) order, the first holds, and the n-th holding
        # claim takes sequence number n.
        near = pos[face_neighbours(border, shape)].ravel()
        hit = np.flatnonzero(near >= 0)
        first = np.unique(near[hit], return_index=True)[1]
        first.sort()
        hit = hit[first]
        claimed = near[hit]
        # The trailing 1 is the entry that neighbour -1 reads; 0 marks a free voxel.
        result = np.zeros(m + 1, dtype=labels.dtype)
        result[m] = 1
        result[claimed] = labels[border[hit // 6]]  # six neighbours per border seed

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
        table = pos[face_neighbours(flooded, shape)].tolist()
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
    bundle = _prediction(pred, cfg)
    topo = build_topography(bundle, cfg, logits=logits)
    if cfg.seed_source == "main":
        seeds = extract_seeds_main(bundle, cfg, logits=logits)
    else:
        vol, main = bundle.volume, bundle.main_channels
        check_volume(f"cpv-seeded {cfg.variant}", vol, channels=main + 3)
        cpv = Volume(vol.data[main:], vol.voxel_size)
        seeds = extract_seeds_cpv(cpv, topo.foreground, cfg.cpv_seed_threshold)
    out = watershed(topo, seeds)
    if cfg.dilate_result:
        out = dilate_instances(out, 1)
    return out
