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
are FIFO. A flood cannot leave its 6-connected foreground component, so
components holding one seed ID are filled with it in numpy, and only
components holding two or more IDs are flooded. There the flood indexes just
the unseeded voxels and the seed voxels next to one of them: a seed with no
unseeded neighbour never queues a claim. Predictions may be probabilities
(default) or logits.
"""

import heapq
import itertools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage as ndi
from scipy.special import expit

from .core import (
    LabelVolume, Volume, VoxelSize, check_number, connected_components, dilate_instances,
    face_slices, round_half_away, run_starts,
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
    zz, yy, xx = np.nonzero(fg)
    if zz.size:
        targets = []
        for coords, v in zip((zz, yy, xx), vec):
            t = coords + v[zz, yy, xx]
            targets.append(round_half_away(t).astype(np.int64))
        tz, ty, tx = targets
        ok = (
            (tz >= 0) & (tz < fg.shape[0])
            & (ty >= 0) & (ty < fg.shape[1])
            & (tx >= 0) & (tx < fg.shape[2])
        )
        np.add.at(counts, (tz[ok], ty[ok], tx[ok]), 1)
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

    A flood never leaves its 6-connected foreground component, so a
    component holding one seed ID is filled with that ID and a component
    holding none stays background. Only components holding two or more IDs
    are flooded. Dropping the other components' claims keeps the relative
    (value, sequence) order of each component's own claims, so the labels
    are those of one flood over the whole volume.

    Seed labels are written straight into the output. The flood indexes the
    seed voxels that have an unseeded neighbour in a flooded component, in
    raster order, followed by those unseeded voxels. A seed voxel only ever
    queues claims on unseeded neighbours not yet claimed, and a voxel once
    claimed stays claimed, so a seed without an unseeded neighbour never
    queues one. Skipping it uses no sequence number and keeps every
    (value, sequence) order.
    """
    if seeds.shape != topo.values.shape:
        raise ShapeMismatchError("seeds and topography shapes differ")
    labels = np.where(topo.foreground, seeds.labels, 0)
    max_id = int(labels.max())
    if max_id > np.iinfo(np.int32).max:
        raise ValueError(f"seed ID {max_id} exceeds the int32 label range")
    labels = labels.astype(np.int32, copy=False).ravel()
    comp, n_comp = ndi.label(topo.foreground, structure=ndi.generate_binary_structure(3, 1))
    comp = comp.ravel()

    # distinct (component, seed ID) pairs, one key each; every key is >= base > 0
    at = np.flatnonzero(labels)
    base = max_id + 1
    keys = np.sort(comp[at].astype(np.int64) * base + labels[at])
    owner, ids = np.divmod(keys[run_starts(keys)], base)
    n_ids = np.bincount(owner, minlength=n_comp + 1)
    fill = np.zeros(n_comp + 1, dtype=np.int32)
    single = n_ids[owner] == 1
    fill[owner[single]] = ids[single]
    out = fill[comp]
    out[at] = labels[at]

    # unseeded voxels of components holding two or more IDs
    unseeded = (n_ids >= 2)[comp] & (labels == 0)
    if unseeded.any():
        shape = topo.values.shape
        nz, ny, nx = shape
        # seeds with an unseeded face neighbour (which shares their component),
        # the only seeds that queue claims, in raster order
        touch = np.zeros(shape, dtype=bool)
        grid = unseeded.reshape(shape)
        for axis in range(3):
            lo, hi = face_slices(axis)
            touch[hi] |= grid[lo]
            touch[lo] |= grid[hi]
        border = np.flatnonzero(touch.ravel() & (labels != 0))
        idx = np.concatenate((border, np.flatnonzero(unseeded)))
        n_border = border.size
        pos = np.full(comp.size, -1, dtype=np.intp)
        pos[idx[n_border:]] = np.arange(n_border, idx.size)
        z, y, x = np.unravel_index(idx, shape)
        # -1 marks a neighbour that is never free: out of bounds, a seed or background
        nbr = np.full((idx.size, 6), -1, dtype=np.intp)
        steps = (-ny * nx, ny * nx, -nx, nx, -1, 1)
        inside = (z > 0, z < nz - 1, y > 0, y < ny - 1, x > 0, x < nx - 1)
        for k, (step, ok) in enumerate(zip(steps, inside)):
            nbr[ok, k] = pos[idx[ok] + step]
        del pos, touch, grid, unseeded, z, y, x  # whole-volume arrays gone before the lists below

        values = topo.values.ravel()[idx].tolist()
        result = labels[idx].tolist()
        # the trailing False is the entry that neighbour -1 reads
        free = [False] * n_border + [True] * (idx.size - n_border) + [False]
        table = nbr.tolist()

        # All claims on a voxel share its map value and sequence numbers only
        # grow, so the first claim queued for a voxel is the one resolved: it
        # is labelled when queued and never queued again.
        heap = []
        seq = itertools.count()

        def pops():
            while heap:
                yield heapq.heappop(heap)[2]

        for i in itertools.chain(range(n_border), pops()):
            lab = result[i]
            for a in table[i]:
                if free[a]:
                    free[a] = False
                    result[a] = lab
                    heapq.heappush(heap, (values[a], next(seq), a))
        out[idx] = result

    return LabelVolume(out.reshape(topo.values.shape), topo.voxel_size)


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
