import numpy as np
import pytest

from nuclei3d import (
    PhantomConfig,
    encode_bundle,
    generate_phantom,
    load_sweep_spec,
    perturb_target,
    run_sweep,
    write_report,
    write_volume,
)
from nuclei3d.sweep import SweepSpec


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
        seed_sources=("main",),
        seed_thresholds=(0.7,),
        foreground_thresholds=(0.95,),
        cpv_seed_thresholds=(0,),
        dilate=(False,),
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
        seed_sources=("main",),
        seed_thresholds=(0.7,),
        foreground_thresholds=(0.95,),
        cpv_seed_thresholds=(0,),
        dilate=(False,),
    )
    result = run_sweep(det_spec)
    assert result.selected["score"] > 0.5


def test_tie_breaks_keep_first_candidate(sweep_dir):
    spec = load_sweep_spec(sweep_dir / "spec.yaml")
    tied = SweepSpec(
        variant=spec.variant,
        objective="seg_avap",
        checkpoints=(("dup_a",) + spec.checkpoints[0][1:], ("dup_b",) + spec.checkpoints[0][1:]),
        seed_sources=("main",),
        seed_thresholds=(0.7,),
        foreground_thresholds=(0.95,),
        cpv_seed_thresholds=(0,),
        dilate=(False,),
    )
    result = run_sweep(tied)
    assert result.selected["checkpoint"] == "dup_a"


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
        seed_sources=("main",),
        seed_thresholds=(0.7,),
        foreground_thresholds=(0.95,),
        cpv_seed_thresholds=(0,),
        dilate=(False,),
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
            seed_sources=("main",), seed_thresholds=(0.7,),
            foreground_thresholds=(0.95,), cpv_seed_thresholds=(0,), dilate=(False,),
        )
    with pytest.raises(ValueError):
        SweepSpec(
            variant="3label", objective="avap", checkpoints=(("a", (("g", "p"),)),),
            seed_sources=("main",), seed_thresholds=(0.7,),
            foreground_thresholds=(0.95,), cpv_seed_thresholds=(0,), dilate=(False,),
        )
    with pytest.raises(ValueError):
        SweepSpec(
            variant="3label", objective="seg_avap", checkpoints=(("a", (("g", "p"),)),),
            seed_sources=("main",), seed_thresholds=(),
            foreground_thresholds=(0.95,), cpv_seed_thresholds=(0,), dilate=(False,),
        )
