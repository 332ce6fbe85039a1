"""Joint selection of checkpoint and post-processing thresholds.

A sweep spec names surrogate "checkpoints" (alternative prediction volumes
for the same validation ground truths), a grid over post-processing
parameters, and an objective. Every (checkpoint x grid point) combination
is scored as the mean objective over the validation pairs, and the argmax
wins; ties keep the earliest candidate in enumeration order (checkpoints in
listed order, then the grid expanded over seed_source, seed_threshold,
foreground_threshold, cpv_seed_threshold, dilate, each in listed order).

Per validation pair, ``segment`` runs once per distinct stage key, without
dilation: (seed_source, foreground_threshold, and seed_threshold under main
or cpv_seed_threshold under cpv). Topography, seeds and the watershed run
inside each such call, so topography is not shared between seed thresholds.
Dilation is applied to the undilated result where a grid point asks for it,
and the objective is scored once per (pair, stage key, dilate).

A grid point's score is the same float as running ``segment`` and the
objective for every grid point and pair: the floods are deterministic,
dilation is the call ``segment`` makes, and each total is summed in pair
order.

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
from dataclasses import dataclass, field, replace
from pathlib import Path

from .core import LabelVolume, Volume, dilate_instances
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
    configs: tuple = field(init=False, repr=False, compare=False)  # one per grid point

    def __post_init__(self):
        _parse_objective(self.objective)
        if not self.checkpoints or any(not pairs for _, pairs in self.checkpoints):
            raise ValueError("sweep needs at least one checkpoint with validation pairs")
        # PostprocConfig checks every grid value; the product is empty iff a grid is
        configs = tuple(PostprocConfig(self.variant, *point) for point in self.grid_points())
        if not configs:
            raise ValueError("sweep grids must be nonempty")
        object.__setattr__(self, "configs", configs)

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
    if isinstance(objective, str) and objective.startswith("seg_ap@"):
        t = float(objective.split("@", 1)[1])
        if not 0 < t < 1:
            raise ValueError(f"objective IoU threshold out of range: {objective!r}")
        return "seg_ap", t
    raise ValueError(f"unknown objective {objective!r}")


def _grid_list(grid, key):
    """One grid entry as a tuple; it must be a list. ``PostprocConfig`` checks the values."""
    values = grid[key]
    if not isinstance(values, list):
        raise ValueError(f"grid {key} must be a list, got {values!r}")
    return tuple(values)


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
            seed_sources=_grid_list(grid, "seed_source"),
            seed_thresholds=_grid_list(grid, "seed_threshold"),
            foreground_thresholds=_grid_list(grid, "foreground_threshold"),
            cpv_seed_thresholds=_grid_list(grid, "cpv_seed_threshold"),
            dilate=_grid_list(grid, "dilate"),
        )
    except KeyError as exc:
        raise FormatError(f"{path}: sweep spec is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed sweep spec: {exc}") from None


def _stage_key(cfg):
    """The parameters the undilated segmentation under ``cfg`` reads."""
    seed_t = cfg.seed_threshold if cfg.seed_source == "main" else cfg.cpv_seed_threshold
    return cfg.seed_source, cfg.foreground_threshold, seed_t


def _objective(kind, iou_t, gt, seg):
    if kind == "seg_avap":
        return evaluate(gt, seg=seg).av_ap
    if kind == "seg_ap":
        return segmentation_ap(gt, seg, iou_t)[0]
    return detection_ap(gt, centroids_from_labels(seg))[0]


def run_sweep(spec):
    """Score every candidate and return the argmax plus the full table."""
    # each distinct file is read once, in first-listed order, as the kind its role needs
    roles = (zip(pair, (LabelVolume, Volume)) for _, pairs in spec.checkpoints for pair in pairs)
    volumes = {p: read_volume(p, kind) for p, kind in dict.fromkeys(itertools.chain(*roles))}
    kind, iou_t = _parse_objective(spec.objective)

    scores = {}  # (pair, stage key, dilate) -> objective score
    table = []
    for name, pairs in spec.checkpoints:
        totals = [0.0] * len(spec.configs)
        for pair in pairs:
            gt, pred = (volumes[p] for p in pair)
            undilated = None  # (stage key, labels) of the latest segment call
            for i, cfg in enumerate(spec.configs):
                stage = _stage_key(cfg)
                key = (pair, stage, cfg.dilate_result)
                if key not in scores:
                    if undilated is None or undilated[0] != stage:
                        undilated = stage, segment(pred, replace(cfg, dilate_result=False))
                    seg = undilated[1]
                    if cfg.dilate_result:
                        seg = dilate_instances(seg, 1)
                    scores[key] = _objective(kind, iou_t, gt, seg)
                totals[i] += scores[key]
        for cfg, total in zip(spec.configs, totals):
            table.append({
                "checkpoint": name,
                "seed_source": cfg.seed_source,
                "seed_threshold": cfg.seed_threshold,
                "foreground_threshold": cfg.foreground_threshold,
                "cpv_seed_threshold": cfg.cpv_seed_threshold,
                "dilate": cfg.dilate_result,
                "score": total / len(pairs),
            })
    # max keeps the first of equal scores: ties go to the earliest candidate
    selected = dict(max(table, key=lambda row: row["score"]), objective=spec.objective)
    return SweepResult(selected, table)
