"""Joint selection of checkpoint and post-processing thresholds.

A sweep spec names surrogate "checkpoints" (alternative prediction volumes
for the same validation ground truths), a grid over post-processing
parameters, and an objective. Every (checkpoint x grid point) combination
is scored as the mean objective over the validation pairs, and the argmax
wins; ties keep the earliest candidate in enumeration order: checkpoints in
listed order, then the grid expanded over ``GRID_KEYS``, each in listed
order. The grid keys are also the table's columns, between ``checkpoint``
and ``score``, read back from ``PostprocConfig``'s fields after ``variant``,
which follow the same order (``dilate`` is ``dilate_result``).

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

Spec files are YAML with exactly these keys at every level::

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
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path

from .core import (
    LabelVolume, Volume, check_keys, check_number, check_same_shape, check_volume, dilate_instances,
)
from .detection import centroids_from_labels
from .io import names_file, read_report, read_volume
from .metrics import detection_ap, evaluate, segmentation_ap
from .postproc import PostprocConfig, segment

__all__ = ["SweepSpec", "SweepResult", "load_sweep_spec", "run_sweep"]

GRID_KEYS = ("seed_source", "seed_threshold", "foreground_threshold", "cpv_seed_threshold", "dilate")


@dataclass(frozen=True)
class SweepSpec:
    variant: str
    objective: str
    checkpoints: tuple  # of (name, ((gt_path, pred_path), ...))
    grid: dict  # GRID_KEYS -> values; kept as tuples in GRID_KEYS order
    scorer: object = field(init=False, repr=False, compare=False)  # (gt, seg) -> float
    configs: tuple = field(init=False, repr=False, compare=False)  # one per grid point

    def __post_init__(self):
        object.__setattr__(self, "scorer", _scorer(self.objective))
        if not self.checkpoints or any(not pairs for _, pairs in self.checkpoints):
            raise ValueError("sweep needs at least one checkpoint with validation pairs")
        check_keys("grid", self.grid, GRID_KEYS, GRID_KEYS)
        for key, values in self.grid.items():
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"grid {key} must be a list, got {values!r}")
        object.__setattr__(self, "grid", {key: tuple(self.grid[key]) for key in GRID_KEYS})
        # PostprocConfig checks every grid value; the product is empty iff a grid is
        configs = tuple(PostprocConfig(self.variant, *point) for point in self.grid_points())
        if not configs:
            raise ValueError("sweep grids must be nonempty")
        object.__setattr__(self, "configs", configs)

    def grid_points(self):
        """Grid combinations in the normative enumeration order, valued in ``GRID_KEYS`` order."""
        return itertools.product(*(self.grid[key] for key in GRID_KEYS))


@dataclass(frozen=True)
class SweepResult:
    selected: dict
    table: list

    def to_mapping(self):
        return {"selected": dict(self.selected), "table": [dict(r) for r in self.table]}


def _scorer(objective):
    """The ``(gt, seg) -> float`` score that ``objective`` names."""
    if objective == "seg_avap":
        return lambda gt, seg: evaluate(gt, seg=seg).av_ap
    if objective == "det_ap":
        return lambda gt, seg: detection_ap(gt, centroids_from_labels(seg))[0]
    unknown = ValueError(f"unknown objective {objective!r}")
    if isinstance(objective, str) and objective.startswith("seg_ap@"):
        try:
            t = float(objective.split("@", 1)[1])
        except ValueError:
            raise unknown from None
        check_number("objective IoU threshold", t, gt=0, lt=1)
        return lambda gt, seg: segmentation_ap(gt, seg, t)[0]
    raise unknown


def _values(what, mapping, keys):
    """The values of ``mapping``, which must have exactly ``keys``, in ``keys`` order."""
    check_keys(what, mapping, keys, keys)
    return [mapping[key] for key in keys]


def load_sweep_spec(path):
    """Load a sweep spec YAML file, resolving paths relative to it."""
    base = Path(path).parent
    with names_file(path, "malformed sweep spec: "):
        variant, objective, entries, grid = _values(
            "sweep spec", read_report(path), ("variant", "objective", "checkpoints", "grid")
        )
        checkpoints = tuple(
            (name, tuple(tuple(str(base / p) for p in _values("pair", pair, ("gt", "pred")))
                         for pair in pairs))
            for name, pairs in (_values("checkpoint", ck, ("name", "pairs")) for ck in entries)
        )
        return SweepSpec(variant, objective, checkpoints, grid)


def run_sweep(spec):
    """Score every candidate and return the argmax plus the full table."""
    check_volume("", spec, SweepSpec)
    # each distinct file is read once, in first-listed order, as the kind its role needs
    roles = (zip(pair, (LabelVolume, Volume)) for _, pairs in spec.checkpoints for pair in pairs)
    volumes = {p: read_volume(p, kind) for p, kind in dict.fromkeys(itertools.chain(*roles))}
    for _, pairs in spec.checkpoints:
        for gt_path, pred_path in pairs:
            check_same_shape(gt_path, volumes[gt_path].shape, pred_path, volumes[pred_path].shape)

    scores = {}  # (pair, stage key, dilate) -> objective score
    table = []
    for name, pairs in spec.checkpoints:
        totals = [0.0] * len(spec.configs)
        for pair in pairs:
            gt, pred = (volumes[p] for p in pair)
            undilated = None  # (stage key, labels) of the latest segment call
            for i, cfg in enumerate(spec.configs):
                seed_t = cfg.seed_threshold if cfg.seed_source == "main" else cfg.cpv_seed_threshold
                stage = cfg.seed_source, cfg.foreground_threshold, seed_t
                key = (pair, stage, cfg.dilate_result)
                if key not in scores:
                    if undilated is None or undilated[0] != stage:
                        undilated = stage, segment(pred, replace(cfg, dilate_result=False))
                    seg = undilated[1]
                    if cfg.dilate_result:
                        seg = dilate_instances(seg, 1)
                    scores[key] = spec.scorer(gt, seg)
                totals[i] += scores[key]
        for cfg, total in zip(spec.configs, totals):
            grid_values = dict(zip(GRID_KEYS, astuple(cfg)[1:]))
            table.append({"checkpoint": name, **grid_values, "score": total / len(pairs)})
    # max keeps the first of equal scores: ties go to the earliest candidate
    selected = dict(max(table, key=lambda row: row["score"]), objective=spec.objective)
    return SweepResult(selected, table)
