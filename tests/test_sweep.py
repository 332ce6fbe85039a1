import re

import numpy as np
import pytest

from nuclei3d import (
    LabelVolume,
    PhantomConfig,
    encode_bundle,
    generate_phantom,
    load_sweep_spec,
    perturb_target,
    read_report,
    run_sweep,
    write_report,
    write_volume,
)
from nuclei3d.errors import ShapeMismatchError
from nuclei3d.sweep import GRID_KEYS, SweepSpec
from oracles import naive_sweep

ONE_POINT = {
    "seed_source": ["main"], "seed_threshold": [0.7], "foreground_threshold": [0.95],
    "cpv_seed_threshold": [0], "dilate": [False],
}


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """Two validation phantoms, three perturbation levels as checkpoints."""
    root = tmp_path_factory.mktemp("sweep")
    pairs_by_ckpt = {name: [] for name in ("good", "medium", "bad")}
    for idx, seed in enumerate((21, 22)):
        cfg = PhantomConfig(
            shape=(20, 36, 36), n_instances=5, radius_range=(2.5, 4.0),
            min_gap=2.0, rng_seed=seed,
        )
        labels, _ = generate_phantom(cfg)
        gt_name = f"gt_{idx}.v3dr"
        write_volume(root / gt_name, labels)
        bundle = encode_bundle(labels, "3label")
        for name, noise in (("good", 0.01), ("medium", 0.2), ("bad", 0.8)):
            pred = perturb_target(bundle, noise, 0.5, rng_seed=idx)
            pred_name = f"{name}_{idx}.v3dr"
            write_volume(root / pred_name, pred.volume.astype(np.float32))
            pairs_by_ckpt[name].append({"gt": gt_name, "pred": pred_name})
    spec = {
        "variant": "3label",
        "objective": "seg_avap",
        "checkpoints": [
            {"name": name, "pairs": pairs} for name, pairs in pairs_by_ckpt.items()
        ],
        "grid": {
            "seed_source": ["main"],
            "seed_threshold": [0.5, 0.7],
            "foreground_threshold": [0.5, 0.95],
            "cpv_seed_threshold": [0],
            "dilate": [False],
        },
    }
    write_report(root / "spec.yaml", spec)
    return root


def test_selected_is_argmax_of_table(sweep_dir):
    result = run_sweep(load_sweep_spec(sweep_dir / "spec.yaml"))
    assert len(result.table) == 3 * 4
    best = result.selected["score"]
    assert all(best >= row["score"] for row in result.table)
    match = [r for r in result.table if r["score"] == best]
    assert result.selected["checkpoint"] == match[0]["checkpoint"]


def test_low_noise_checkpoint_wins(sweep_dir):
    result = run_sweep(load_sweep_spec(sweep_dir / "spec.yaml"))
    assert result.selected["checkpoint"] == "good"
    assert result.selected["score"] > 0.5


def test_single_candidate_selected(sweep_dir):
    spec = load_sweep_spec(sweep_dir / "spec.yaml")
    single = SweepSpec(
        variant=spec.variant,
        objective="seg_ap@0.5",
        checkpoints=spec.checkpoints[:1],
        grid=ONE_POINT,
    )
    result = run_sweep(single)
    assert len(result.table) == 1
    assert result.selected["checkpoint"] == "good"
    assert result.selected["objective"] == "seg_ap@0.5"


def test_detection_objective_runs(sweep_dir):
    spec = load_sweep_spec(sweep_dir / "spec.yaml")
    det_spec = SweepSpec(
        variant=spec.variant,
        objective="det_ap",
        checkpoints=spec.checkpoints,
        grid=ONE_POINT,
    )
    result = run_sweep(det_spec)
    assert result.selected["score"] > 0.5


def test_tie_breaks_keep_first_candidate(sweep_dir):
    spec = load_sweep_spec(sweep_dir / "spec.yaml")
    tied = SweepSpec(
        variant=spec.variant,
        objective="seg_avap",
        checkpoints=(("dup_a",) + spec.checkpoints[0][1:], ("dup_b",) + spec.checkpoints[0][1:]),
        grid=ONE_POINT,
    )
    result = run_sweep(tied)
    assert result.selected["checkpoint"] == "dup_a"


def test_np_str_choices_are_stored_as_plain_str(sweep_dir, tmp_path):
    spec = load_sweep_spec(sweep_dir / "spec.yaml")
    grid = dict(ONE_POINT, seed_source=[np.str_("main")])
    spec = SweepSpec(np.str_(spec.variant), "seg_avap", spec.checkpoints[:1], grid)
    assert all(type(c.variant) is type(c.seed_source) is str for c in spec.configs)
    result = run_sweep(spec).to_mapping()
    assert type(result["table"][0]["seed_source"]) is str
    write_report(tmp_path / "result.yaml", result)
    assert read_report(tmp_path / "result.yaml") == result


def test_each_file_is_read_once(sweep_dir, monkeypatch):
    import nuclei3d.sweep

    reads = []
    real = nuclei3d.sweep.read_volume
    monkeypatch.setattr(
        nuclei3d.sweep, "read_volume", lambda p, kind=None: reads.append(p) or real(p, kind)
    )
    spec = load_sweep_spec(sweep_dir / "spec.yaml")
    one_point = SweepSpec(
        variant=spec.variant,
        objective=spec.objective,
        checkpoints=spec.checkpoints,
        grid=ONE_POINT,
    )
    run_sweep(one_point)
    # three checkpoints share the two ground truths: 8 distinct files in 12 path slots
    distinct = {p for _, pairs in spec.checkpoints for pair in pairs for p in pair}
    assert len(distinct) == 8
    assert sorted(reads) == sorted(distinct)


def test_enumeration_order_is_normative(sweep_dir):
    result = run_sweep(load_sweep_spec(sweep_dir / "spec.yaml"))
    rows = [(r["checkpoint"], r["seed_threshold"], r["foreground_threshold"]) for r in result.table]
    expected = [
        (ck, st, ft)
        for ck in ("good", "medium", "bad")
        for st in (0.5, 0.7)
        for ft in (0.5, 0.95)
    ]
    assert rows == expected


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(
            variant="3label", objective="seg_avap", checkpoints=(),
            grid=ONE_POINT,
        )
    with pytest.raises(ValueError):
        SweepSpec(
            variant="3label", objective="avap", checkpoints=(("a", (("g", "p"),)),),
            grid=ONE_POINT,
        )
    with pytest.raises(ValueError):
        SweepSpec(
            variant="3label", objective="seg_avap", checkpoints=(("a", (("g", "p"),)),),
            grid={**ONE_POINT, "seed_threshold": []},
        )


@pytest.mark.parametrize(
    "objective,expected",
    [
        ("seg_ap@1.5", "objective IoU threshold must be a finite number > 0 and < 1, got 1.5"),
        ("seg_ap@0", "objective IoU threshold must be a finite number > 0 and < 1, got 0.0"),
        ("seg_ap@nan", "objective IoU threshold must be a finite number > 0 and < 1, got nan"),
        ("seg_ap@inf", "objective IoU threshold must be a finite number > 0 and < 1, got inf"),
        ("seg_ap@-inf", "objective IoU threshold must be a finite number > 0 and < 1, got -inf"),
    ],
)
def test_objective_iou_threshold_outside_the_open_interval_is_refused(objective, expected):
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        SweepSpec(
            variant="3label", objective=objective, checkpoints=(("a", (("g", "p"),)),),
            grid=ONE_POINT,
        )


def test_table_rows_are_checkpoint_then_grid_keys_then_score(sweep_dir):
    result = run_sweep(load_sweep_spec(sweep_dir / "spec.yaml"))
    assert all(tuple(row) == ("checkpoint", *GRID_KEYS, "score") for row in result.table)
    assert tuple(result.selected) == ("checkpoint", *GRID_KEYS, "score", "objective")
    # values are read back from each row's PostprocConfig: the YAML 0 is a float
    assert all(type(row["cpv_seed_threshold"]) is float for row in result.table)


@pytest.mark.parametrize(
    "grid,expected",
    [
        ({k: v for k, v in ONE_POINT.items() if k != "dilate"}, "missing grid key 'dilate'"),
        ({**ONE_POINT, "dilate_result": [True]}, "unknown grid key(s): dilate_result"),
        ([("dilate", [False])], "grid must be a mapping, got list"),
    ],
    ids=["missing", "extra", "not-a-mapping"],
)
def test_spec_refuses_grid_keys_other_than_grid_keys(grid, expected):
    with pytest.raises(ValueError, match=re.escape(expected)):
        SweepSpec("3label", "seg_avap", (("a", (("g", "p"),)),), grid)


MEMO_GRIDS = {
    "sdt": {"seed_threshold": [-0.15, -0.25, -0.15], "foreground_threshold": [0.0, 0.1]},
    "3label": {"seed_threshold": [0.6, 0.8, 0.6], "foreground_threshold": [0.5, 0.9]},
    "affinities": {"seed_threshold": [0.6, 0.8, 0.6], "foreground_threshold": [0.5, 0.9]},
}


@pytest.mark.parametrize("objective", ["det_ap", "seg_avap"])
def test_pair_of_different_shapes_is_refused_before_segmenting(tmp_path, monkeypatch, objective):
    import nuclei3d.sweep

    gt = np.zeros((8, 8, 8), dtype=np.int32)
    gt[2:5, 2:5, 2:5] = 1
    wider = np.zeros((8, 8, 9), dtype=np.int32)
    wider[2:5, 2:5, 2:5] = 1
    write_volume(tmp_path / "gt.v3dr", LabelVolume(gt))
    pred = encode_bundle(LabelVolume(wider), "3label").volume.astype(np.float32)
    write_volume(tmp_path / "pred.v3dr", pred)
    monkeypatch.setattr(nuclei3d.sweep, "segment", lambda *a, **k: pytest.fail("segment ran"))
    spec = SweepSpec(
        variant="3label",
        objective=objective,
        checkpoints=(("only", ((str(tmp_path / "gt.v3dr"), str(tmp_path / "pred.v3dr")),)),),
        grid=ONE_POINT,
    )
    expected = f"{tmp_path / 'gt.v3dr'} shape (8, 8, 8) vs {tmp_path / 'pred.v3dr'} shape (8, 8, 9)"
    with pytest.raises(ShapeMismatchError, match=re.escape(expected)):
        run_sweep(spec)


@pytest.fixture(scope="module")
def memo_dir(tmp_path_factory):
    """Predictions with cpv channels for every variant, for checkpoints that share files."""
    root = tmp_path_factory.mktemp("memo")
    for idx, seed in enumerate((31, 32)):
        cfg = PhantomConfig(
            shape=(12, 24, 24), n_instances=4, radius_range=(2.5, 3.5),
            allow_touching=True, rng_seed=seed,
        )
        labels, _ = generate_phantom(cfg)
        write_volume(root / f"gt_{idx}.v3dr", labels)
        for variant in MEMO_GRIDS:
            bundle = encode_bundle(labels, variant, with_cpv=True)
            for noise in (0.1, 0.3):
                pred = perturb_target(bundle, noise, 0.5, rng_seed=idx)
                write_volume(root / f"{variant}_{noise}_{idx}.v3dr", pred.volume.astype(np.float32))
    return root


def _memo_spec(root, variant, objective):
    def pair(noise, idx, gt_idx=None):
        gt_idx = idx if gt_idx is None else gt_idx
        return str(root / f"gt_{gt_idx}.v3dr"), str(root / f"{variant}_{noise}_{idx}.v3dr")

    return SweepSpec(
        variant=variant,
        objective=objective,
        checkpoints=(
            ("low", (pair(0.1, 0), pair(0.1, 1))),
            ("shared", (pair(0.1, 1),)),
            ("high", (pair(0.3, 0), pair(0.3, 1))),
            ("swapped", (pair(0.1, 0, gt_idx=1),)),
        ),
        grid={"seed_source": ["main", "cpv"], **MEMO_GRIDS[variant], "cpv_seed_threshold": [4, 8],
              "dilate": [True, False]},
    )


@pytest.mark.parametrize(
    "variant,objective", [("3label", "seg_avap"), ("sdt", "seg_ap@0.5"), ("affinities", "det_ap")]
)
def test_memoised_sweep_equals_naive_sweep(memo_dir, variant, objective):
    spec = _memo_spec(memo_dir, variant, objective)
    result = run_sweep(spec)
    selected, table = naive_sweep(spec)

    def bits(row):
        return {**row, "score": row["score"].hex()}

    assert len(result.table) == len(table) == 4 * 2 * 3 * 2 * 2 * 2
    assert [bits(r) for r in result.table] == [bits(r) for r in table]
    assert bits(result.selected) == bits(selected)
    assert len({r["score"] for r in table}) > 1


def test_segment_runs_once_per_distinct_stage_input(memo_dir, monkeypatch):
    import nuclei3d.sweep

    calls = []
    real = nuclei3d.sweep.segment

    def counting(pred, cfg, **kwargs):
        calls.append((id(pred), cfg))
        return real(pred, cfg, **kwargs)

    monkeypatch.setattr(nuclei3d.sweep, "segment", counting)
    spec = _memo_spec(memo_dir, "3label", "seg_avap")
    run_sweep(spec)

    pairs = {pair for _, ck_pairs in spec.checkpoints for pair in ck_pairs}
    grid = spec.grid
    keys = {("main", f, s) for f in grid["foreground_threshold"] for s in grid["seed_threshold"]}
    keys |= {("cpv", f, c) for f in grid["foreground_threshold"] for c in grid["cpv_seed_threshold"]}
    assert not any(cfg.dilate_result for _, cfg in calls)
    seen = [
        (cfg.seed_source, cfg.foreground_threshold,
         cfg.seed_threshold if cfg.seed_source == "main" else cfg.cpv_seed_threshold)
        for _, cfg in calls
    ]
    # four distinct pred volumes, one of them also scored against the other gt
    assert len({pred for pred, _ in calls}) == 4
    assert len(calls) == len(pairs) * len(keys)
    assert set(seen) == keys
