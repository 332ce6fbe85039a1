"""From predicted maps to instance segmentations: topography, seeds, watershed.

Per variant the topographic map (low floods first) and foreground are:

    sdt         map = prediction;                 fg = pred <= fg_threshold
    3label      map = 1 - P(interior);            fg = 1 - P(background) >= fg_threshold
    affinities  map = 1 - mean(3 affinities);     fg = fg channel >= fg_threshold

Seed rules: sdt thresholds the map strictly below the (negative) seed
threshold; 3label keeps P(interior) >= threshold; affinities keeps voxels
where at least two of the three affinity channels reach the threshold.
Alternatively seeds come from center-point-vector vote accumulation.

The watershed is a deterministic priority flood: claims are queued with key
(map value, insertion sequence number) and resolved lowest-first, so ties
are FIFO. A claim cannot leave its pocket, a 6-connected component of
unseeded foreground, so pockets next to one seed ID are filled with it in
numpy, and only pockets next to two or more IDs are flooded. The flood
indexes just those pockets' voxels and the seed voxels next to them, and
keys its heap by one int per claim. Predictions may be probabilities
(default) or logits.
"""

import heapq
from dataclasses import dataclass

import numpy as np
from scipy import ndimage as ndi
from scipy.special import expit

from .core import (
    LabelVolume, Volume, VoxelSize, check_number, connected_components, dilate_instances,
    face_neighbours, round_half_away, run_starts,
)
from .errors import ChannelCountError, ShapeMismatchError
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

_SEG_VARIANTS = ("sdt", "3label", "affinities")


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
        if self.variant not in _SEG_VARIANTS:
            raise ValueError(f"unknown segmentation variant {self.variant!r}")
        if self.seed_source not in ("main", "cpv"):
            raise ValueError(f"seed_source must be 'main' or 'cpv', got {self.seed_source!r}")
        for key, ge in (
            ("seed_threshold", None), ("foreground_threshold", None), ("cpv_seed_threshold", 0)
        ):
            object.__setattr__(self, key, float(check_number(key, getattr(self, key), ge=ge)))
        if not isinstance(self.dilate_result, bool):
            raise ValueError(f"dilate_result must be true or false, got {self.dilate_result!r}")


@dataclass(frozen=True)
class TopographicMap:
    """Scalar field flooded lowest-first plus the mask it may flood."""

    values: np.ndarray
    foreground: np.ndarray
    voxel_size: VoxelSize = VoxelSize()

    def __post_init__(self):
        if self.values.shape != self.foreground.shape:
            raise ShapeMismatchError("topography values and foreground shapes differ")
        if not np.isfinite(self.values).all():
            raise ValueError("topography values must be finite")


def _pred_volume(pred):
    vol = pred.volume if isinstance(pred, TargetBundle) else pred
    if isinstance(vol, LabelVolume):
        raise ChannelCountError("expected a prediction Volume, got a label volume")
    return vol


def _main_data(pred, variant, logits):
    """Main channels as float64 probabilities, validating channel count."""
    vol = _pred_volume(pred)
    main = MAIN_CHANNELS[variant]
    if vol.channels not in (main, main + 3):
        raise ChannelCountError(
            f"variant {variant!r} expects {main} or {main + 3} channels, got {vol.channels}"
        )
    data = vol.data[:main].astype(np.float64, copy=False)
    if logits and variant == "3label":
        shifted = data - data.max(axis=0, keepdims=True)
        data = np.exp(shifted)
        data /= data.sum(axis=0, keepdims=True)
    elif logits and variant == "affinities":
        data = expit(data)
    return data, vol


def build_topography(pred, cfg, logits=False):
    """Build the watershed map and foreground mask for one variant."""
    data, vol = _main_data(pred, cfg.variant, logits)
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
    data, vol = _main_data(pred, cfg.variant, logits)
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
    if not isinstance(cpv_pred, Volume) or cpv_pred.channels != 3:
        got = getattr(cpv_pred, "channels", type(cpv_pred).__name__)
        raise ChannelCountError(f"cpv prediction must be a 3-channel Volume, got {got}")
    vec = cpv_pred.data.astype(np.float64, copy=False)
    fg = np.asarray(fg_mask, dtype=bool)
    if vec.shape[1:] != fg.shape:
        raise ShapeMismatchError("cpv channels and foreground mask shapes differ")

    counts = np.zeros(fg.shape, dtype=np.int64)
    at = np.nonzero(fg)
    targets = [round_half_away(c + v[at]) for c, v in zip(at, vec)]
    # bounds are tested on the rounded floats: the int cast of a huge vector overflows
    ok = np.logical_and.reduce([(t >= 0) & (t < n) for t, n in zip(targets, fg.shape)])
    np.add.at(counts, tuple(t[ok].astype(np.intp) for t in targets), 1)
    return counts


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
    unseeded foreground. A pocket next to seeds of one ID is filled with that
    ID and a pocket next to none stays background. Only pockets next to two
    or more IDs are flooded. Dropping the other pockets' claims keeps the
    relative (value, sequence) order of each pocket's own claims, so the
    labels are those of one flood over the whole volume.

    Seed labels are written straight into the output. The flood indexes the
    seed voxels next to a flooded pocket, in raster order, followed by the
    flooded pockets' voxels. A seed voxel only ever queues claims on unseeded
    neighbours not yet claimed, and a voxel once claimed stays claimed, so a
    seed that touches no flooded pocket never queues one. Skipping it uses no
    sequence number and keeps every (value, sequence) order.
    """
    if seeds.shape != topo.values.shape:
        raise ShapeMismatchError("seeds and topography shapes differ")
    shape = topo.values.shape
    labels = np.where(topo.foreground, seeds.labels, 0)
    max_id = int(labels.max())
    if max_id > np.iinfo(np.int32).max:
        raise ValueError(f"seed ID {max_id} exceeds the int32 label range")
    labels = labels.astype(np.int32, copy=False)
    # intp pocket numbers index the per-pocket tables below without a cast
    pocket = np.empty(shape, dtype=np.intp)
    face = ndi.generate_binary_structure(3, 1)
    n_pocket = ndi.label(topo.foreground & (labels == 0), structure=face, output=pocket)
    pocket = pocket.ravel()
    labels = labels.ravel()

    # distinct (pocket, seed ID) pairs over the seeds' face neighbours, one key
    # each; a neighbour outside the volume is the seed itself, in pocket 0
    at = np.flatnonzero(labels != 0)
    nbr = pocket[face_neighbours(at, shape)]
    row, col = np.nonzero(nbr)
    base = max_id + 1
    keys = nbr[row, col] * base + labels[at[row]]
    keys.sort()
    owner, ids = np.divmod(keys[run_starts(keys)], base)
    n_ids = np.bincount(owner, minlength=n_pocket + 1)
    # per pocket: its one ID, 0 next to no ID, -1 when contested
    fill = np.where(n_ids >= 2, -1, 0).astype(np.int32)
    single = n_ids[owner] == 1
    fill[owner[single]] = ids[single]
    out = fill[pocket]
    out += labels
    flooded = np.flatnonzero(out < 0)
    del pocket  # the largest array, gone before the flood's index arrays

    if flooded.size:
        border = at[(fill[nbr] < 0).any(axis=1)]
        n_border = border.size
        idx = np.concatenate((border, flooded))
        m = idx.size
        pos = np.full(labels.size, -1, dtype=np.intp)
        pos[flooded] = np.arange(n_border, m)
        # -1 marks a neighbour that is never free: a seed, background or a voxel of a
        # pocket filled above. A neighbour outside the volume is the voxel itself,
        # which is labelled by the time its row is read.
        table = pos[face_neighbours(idx, shape)].tolist()
        # The trailing 1 is the entry that neighbour -1 reads; 0 marks a free voxel.
        result = labels[border].tolist() + [0] * flooded.size + [1]

        # One int per heap entry, rank * m + seq with pushed[seq] = index: the
        # border seeds take rank 0 and seq 0.., so they pop first in raster
        # order, and a claim ranks its map value densely from 1, equal values
        # (-0.0 and 0.0 too) sharing a rank. Pops thus follow (value, seq).
        # All claims on a voxel share its value and sequence numbers only grow,
        # so the first claim queued for a voxel is the one resolved: it is
        # labelled when queued and never queued again.
        rank = np.unique(topo.values.ravel()[flooded], return_inverse=True)[1]
        key = [0] * n_border + ((rank + 1) * m).tolist()
        heap = list(range(n_border))  # sorted, so already a heap
        pushed = list(range(n_border))
        push, pop, append = heapq.heappush, heapq.heappop, pushed.append  # local names: hot loop
        while heap:
            i = pushed[pop(heap) % m]
            lab = result[i]
            for a in table[i]:
                if not result[a]:
                    result[a] = lab
                    push(heap, key[a] + len(pushed))
                    append(a)
        out[flooded] = result[n_border:-1]

    return LabelVolume(out.reshape(shape), topo.voxel_size)


def segment(pred, cfg, logits=False):
    """Full pipeline: topography, seeds (main or cpv), watershed, dilation.

    With ``seed_source == 'cpv'`` the prediction must carry the three vector
    channels after the variant's main channels.
    """
    vol = _pred_volume(pred)
    topo = build_topography(pred, cfg, logits=logits)
    if cfg.seed_source == "main":
        seeds = extract_seeds_main(pred, cfg, logits=logits)
    else:
        main = MAIN_CHANNELS[cfg.variant]
        if vol.channels != main + 3:
            raise ChannelCountError(
                f"cpv seeding for {cfg.variant!r} needs {main + 3} channels, got {vol.channels}"
            )
        cpv = Volume(vol.data[main:], vol.voxel_size)
        seeds = extract_seeds_cpv(cpv, topo.foreground, cfg.cpv_seed_threshold)
    out = watershed(topo, seeds)
    if cfg.dilate_result:
        out = dilate_instances(out, 1)
    return out
