"""Joint selection of checkpoint and post-processing thresholds.

A sweep spec names surrogate "checkpoints" (alternative prediction volumes
for the same validation ground truths), a grid over post-processing
parameters, and an objective. Every (checkpoint x grid point) combination
is scored as the mean objective over the validation pairs, and the argmax
wins; ties keep the earliest candidate in enumeration order (checkpoints in
listed order, then the grid expanded over seed_source, seed_threshold,
foreground_threshold, cpv_seed_threshold, dilate, each in listed order).

Spec files are YAML::

    variant: 3label
    objective: seg_avap          # or seg_ap@0.5 / det_ap
    checkpoints:
      - name: iter_60k
        pairs:
          - {gt: gt_0.v3dr, pred: iter60k_0.v3dr}
    grid:
      seed_source: [main]
      seed_threshold: [0.7, 0.8]
      foreground_threshold: [0.95]
      cpv_seed_threshold: [0]
      dilate: [false]

Relative paths are resolved against the spec file's directory.
"""

import itertools
from dataclasses import dataclass
from pathlib import Path

from .core import LabelVolume, Volume
from .detection import centroids_from_labels
from .errors import FormatError
from .io import read_report, read_volume
from .metrics import detection_ap, evaluate, segmentation_ap
from .postproc import PostprocConfig, segment

__all__ = ["SweepSpec", "SweepResult", "load_sweep_spec", "run_sweep"]


@dataclass(frozen=True)
class SweepSpec:
    variant: str
    objective: str
    checkpoints: tuple  # of (name, ((gt_path, pred_path), ...))
    seed_sources: tuple
    seed_thresholds: tuple
    foreground_thresholds: tuple
    cpv_seed_thresholds: tuple
    dilate: tuple

    def __post_init__(self):
        _parse_objective(self.objective)
        if not self.checkpoints or any(not pairs for _, pairs in self.checkpoints):
            raise ValueError("sweep needs at least one checkpoint with validation pairs")
        for grid in (
            self.seed_sources,
            self.seed_thresholds,
            self.foreground_thresholds,
            self.cpv_seed_thresholds,
            self.dilate,
        ):
            if not grid:
                raise ValueError("sweep grids must be nonempty")

    def grid_points(self):
        """Grid combinations in the normative enumeration order."""
        return itertools.product(
            self.seed_sources,
            self.seed_thresholds,
            self.foreground_thresholds,
            self.cpv_seed_thresholds,
            self.dilate,
        )


@dataclass(frozen=True)
class SweepResult:
    selected: dict
    table: list

    def to_mapping(self):
        return {"selected": dict(self.selected), "table": [dict(r) for r in self.table]}


def _parse_objective(objective):
    if objective in ("seg_avap", "det_ap"):
        return objective, None
    if objective.startswith("seg_ap@"):
        t = float(objective.split("@", 1)[1])
        if not 0 < t < 1:
            raise ValueError(f"objective IoU threshold out of range: {objective!r}")
        return "seg_ap", t
    raise ValueError(f"unknown objective {objective!r}")


def load_sweep_spec(path):
    """Load a sweep spec YAML file, resolving paths relative to it."""
    base = Path(path).parent
    raw = read_report(path)
    try:
        checkpoints = tuple(
            (ck["name"], tuple((str(base / p["gt"]), str(base / p["pred"])) for p in ck["pairs"]))
            for ck in raw["checkpoints"]
        )
        grid = raw["grid"]
        return SweepSpec(
            variant=raw["variant"],
            objective=raw["objective"],
            checkpoints=checkpoints,
            seed_sources=tuple(grid["seed_source"]),
            seed_thresholds=tuple(float(v) for v in grid["seed_threshold"]),
            foreground_thresholds=tuple(float(v) for v in grid["foreground_threshold"]),
            cpv_seed_thresholds=tuple(float(v) for v in grid["cpv_seed_threshold"]),
            dilate=tuple(bool(v) for v in grid["dilate"]),
        )
    except KeyError as exc:
        raise FormatError(f"{path}: sweep spec is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed sweep spec: {exc}") from None


def _score(spec, pairs, cfg, volumes):
    kind, iou_t = _parse_objective(spec.objective)
    total = 0.0
    for gt_path, pred_path in pairs:
        gt, pred = volumes[gt_path], volumes[pred_path]
        seg = segment(pred, cfg)
        if kind == "seg_avap":
            total += evaluate(gt, seg=seg).av_ap
        elif kind == "seg_ap":
            total += segmentation_ap(gt, seg, iou_t)[0]
        else:
            total += detection_ap(gt, centroids_from_labels(seg))[0]
    return total / len(pairs)


def run_sweep(spec):
    """Score every candidate and return the argmax plus the full table."""
    # each distinct file is read once, in first-listed order, as the kind its role needs
    roles = (zip(pair, (LabelVolume, Volume)) for _, pairs in spec.checkpoints for pair in pairs)
    volumes = {p: read_volume(p, kind) for p, kind in dict.fromkeys(itertools.chain(*roles))}

    table = []
    best = None
    for name, pairs in spec.checkpoints:
        for seed_source, seed_t, fg_t, cpv_t, dilate in spec.grid_points():
            cfg = PostprocConfig(
                variant=spec.variant,
                seed_source=seed_source,
                seed_threshold=seed_t,
                foreground_threshold=fg_t,
                cpv_seed_threshold=cpv_t,
                dilate_result=dilate,
            )
            score = _score(spec, pairs, cfg, volumes)
            row = {
                "checkpoint": name,
                "seed_source": seed_source,
                "seed_threshold": seed_t,
                "foreground_threshold": fg_t,
                "cpv_seed_threshold": cpv_t,
                "dilate": dilate,
                "score": score,
            }
            table.append(row)
            if best is None or score > best["score"]:
                best = row
    selected = dict(best)
    selected["objective"] = spec.objective
    return SweepResult(selected, table)
