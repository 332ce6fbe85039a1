import math
import struct

import numpy as np
import pytest

from nuclei3d import (
    LabelVolume,
    NmsConfig,
    PhantomConfig,
    PostprocConfig,
    Volume,
    encode_bundle,
    evaluate,
    generate_phantom,
    nms_detect,
    read_detections,
    read_volume,
    segment,
    write_detections,
    write_report,
    write_volume,
)
from nuclei3d.cli import main
from nuclei3d.targets import signed_boundary_distance


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = PhantomConfig(
        shape=(20, 36, 36), n_instances=5, radius_range=(3.0, 4.5),
        min_gap=2.0, rng_seed=17,
    )
    write_report(root / "phantom.yaml", cfg.to_mapping())
    labels, _ = generate_phantom(cfg)
    write_volume(root / "gt.v3dr", labels)
    return root


def test_phantom_command(workdir):
    assert main(["phantom", str(workdir / "phantom.yaml"), str(workdir / "ph_")]) == 0
    labels = read_volume(workdir / "ph_labels.v3dr")
    raw = read_volume(workdir / "ph_raw.v3dr")
    assert len(labels.ids()) == 5
    assert raw.data.dtype == np.float32


def test_phantom_rerun_is_byte_identical(workdir):
    main(["phantom", str(workdir / "phantom.yaml"), str(workdir / "a_")])
    main(["phantom", str(workdir / "phantom.yaml"), str(workdir / "b_")])
    assert (workdir / "a_labels.v3dr").read_bytes() == (workdir / "b_labels.v3dr").read_bytes()
    assert (workdir / "a_raw.v3dr").read_bytes() == (workdir / "b_raw.v3dr").read_bytes()


def test_phantom_placement_failure_exit_2(workdir, capsys):
    bad = PhantomConfig(shape=(10, 10, 10), n_instances=80, radius_range=(3.0, 3.0))
    write_report(workdir / "bad.yaml", bad.to_mapping())
    assert main(["phantom", str(workdir / "bad.yaml"), str(workdir / "x_")]) == 2
    assert "placement-failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "variant,with_cpv,channels",
    [("sdt", False, 1), ("3label", True, 6), ("affinities", True, 7), ("gauss", False, 1)],
)
def test_encode_channels_and_byte_identity(workdir, variant, with_cpv, channels):
    out = workdir / f"enc_{variant}_{with_cpv}.v3dr"
    argv = ["encode", str(workdir / "gt.v3dr"), str(out), "--variant", variant]
    if with_cpv:
        argv.append("--with-cpv")
    assert main(argv) == 0
    vol = read_volume(out)
    assert vol.channels == channels

    labels = read_volume(workdir / "gt.v3dr")
    expected = encode_bundle(labels, variant, with_cpv=with_cpv).volume.astype(np.float32)
    ref = workdir / "ref.v3dr"
    write_volume(ref, expected)
    assert out.read_bytes() == ref.read_bytes()


def test_encode_gauss_peaks_near_one(workdir):
    out = workdir / "gauss.v3dr"
    main(["encode", str(workdir / "gt.v3dr"), str(out), "--variant", "gauss", "--sigma", "2.0"])
    vol = read_volume(out)
    assert vol.channels == 1
    # fractional centers sit up to sqrt(3)/2 voxels from the nearest voxel
    sigma = 2.0
    assert 1.0 >= vol.data.max() >= np.exp(-0.75 / (2 * sigma**2))


def test_segment_matches_library(workdir):
    enc = workdir / "enc_sdt.v3dr"
    main(["encode", str(workdir / "gt.v3dr"), str(enc), "--variant", "sdt"])
    out = workdir / "seg.v3dr"
    assert main([
        "segment", str(enc), str(out), "--variant", "sdt",
        "--seed-threshold", "-0.14", "--fg-threshold", "0.0", "--dilate",
    ]) == 0
    cfg = PostprocConfig("sdt", seed_threshold=-0.14, foreground_threshold=0.0, dilate_result=True)
    expected = segment(read_volume(enc), cfg)
    ref = workdir / "seg_ref.v3dr"
    write_volume(ref, expected)
    assert out.read_bytes() == ref.read_bytes()


def test_segment_3label_flags(workdir):
    enc = workdir / "enc_3l.v3dr"
    main(["encode", str(workdir / "gt.v3dr"), str(enc), "--variant", "3label"])
    out = workdir / "seg3.v3dr"
    assert main([
        "segment", str(enc), str(out), "--variant", "3label",
        "--seed-threshold", "0.7", "--fg-threshold", "0.95",
    ]) == 0
    assert len(read_volume(out).ids()) == 5


@pytest.mark.parametrize("variant", ["sdt", "3label"])
def test_segment_without_options_takes_library_defaults(workdir, variant):
    pred = workdir / f"defaults_{variant}.v3dr"
    labels = read_volume(workdir / "gt.v3dr")
    write_volume(pred, encode_bundle(labels, variant).volume.astype(np.float32))
    out = workdir / f"defaults_{variant}_seg.v3dr"
    assert main(["segment", str(pred), str(out), "--variant", variant]) == 0
    ref = workdir / f"defaults_{variant}_ref.v3dr"
    write_volume(ref, segment(read_volume(pred), PostprocConfig(variant)))
    assert out.read_bytes() == ref.read_bytes()


def test_segment_cpv_source_validates_channels(workdir, capsys):
    enc_plain = workdir / "enc_sdt.v3dr"
    out = workdir / "seg_cpv.v3dr"
    assert main([
        "segment", str(enc_plain), str(out), "--variant", "sdt",
        "--seed-source", "cpv", "--cpv-seed-threshold", "70",
    ]) == 1
    assert "channels" in capsys.readouterr().err

    enc_cpv = workdir / "enc_sdt_cpv.v3dr"
    main(["encode", str(workdir / "gt.v3dr"), str(enc_cpv), "--variant", "sdt", "--with-cpv"])
    assert main([
        "segment", str(enc_cpv), str(out), "--variant", "sdt",
        "--seed-source", "cpv", "--cpv-seed-threshold", "20", "--dilate",
    ]) == 0


def test_detect_matches_library_and_handles_threshold_above_peak(workdir):
    enc = workdir / "gauss.v3dr"
    out = workdir / "dets.csv"
    assert main(["detect", str(enc), str(out), "--gauss-threshold", "0.25", "--nms-distance", "3"]) == 0
    expected = nms_detect(read_volume(enc), NmsConfig(0.25, 3))
    ref = workdir / "dets_ref.csv"
    write_detections(ref, expected)
    assert out.read_bytes() == ref.read_bytes()
    assert len(read_detections(out)) == 5

    empty = workdir / "none.csv"
    main(["detect", str(enc), str(empty), "--gauss-threshold", "1.1", "--nms-distance", "2"])
    assert read_detections(empty) == []


def test_evaluate_matches_library(workdir, capsys):
    out = workdir / "report.yaml"
    assert main([
        "evaluate", str(workdir / "gt.v3dr"), str(out),
        "--seg", str(workdir / "seg3.v3dr"), "--dets", str(workdir / "dets.csv"),
    ]) == 0
    printed = capsys.readouterr().out
    assert "avAP: 1" in printed and "detection AP: 1" in printed

    gt = read_volume(workdir / "gt.v3dr")
    report = evaluate(gt, seg=read_volume(workdir / "seg3.v3dr"), detections=read_detections(workdir / "dets.csv"))
    ref = workdir / "report_ref.yaml"
    write_report(ref, report.to_mapping())
    assert out.read_bytes() == ref.read_bytes()


def test_evaluate_gt_vs_empty(workdir, capsys):
    empty = workdir / "empty.v3dr"
    write_volume(empty, read_volume(workdir / "gt.v3dr").__class__(
        np.zeros((20, 36, 36), dtype=np.int32)
    ))
    out = workdir / "report0.yaml"
    assert main(["evaluate", str(workdir / "gt.v3dr"), str(out), "--seg", str(empty)]) == 0
    assert "avAP: 0" in capsys.readouterr().out


def test_sweep_command(workdir):
    spec = {
        "variant": "sdt",
        "objective": "seg_avap",
        "checkpoints": [
            {"name": "only", "pairs": [{"gt": "gt.v3dr", "pred": "enc_sdt.v3dr"}]}
        ],
        "grid": {
            "seed_source": ["main"],
            "seed_threshold": [-0.14, -0.12],
            "foreground_threshold": [0.0],
            "cpv_seed_threshold": [0],
            "dilate": [True, False],
        },
    }
    write_report(workdir / "sweep.yaml", spec)
    out = workdir / "sweep_result.yaml"
    assert main(["sweep", str(workdir / "sweep.yaml"), str(out)]) == 0
    from nuclei3d import read_report

    result = read_report(out)
    assert len(result["table"]) == 4
    assert all(result["selected"]["score"] >= row["score"] for row in result["table"])


def test_missing_file_exit_1(workdir, capsys):
    assert main(["encode", str(workdir / "nope.v3dr"), str(workdir / "o.v3dr"), "--variant", "sdt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_errors_go_to_stderr_not_report_stream(workdir, capsys):
    out = workdir / "never.yaml"
    code = main(["evaluate", str(workdir / "nope.v3dr"), str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error:" in captured.err
    assert not out.exists()


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_segment_on_label_volume_is_typed_error(workdir, capsys):
    args = ["segment", str(workdir / "gt.v3dr"), str(workdir / "o.v3dr"), "--variant", "sdt"]
    assert main(args) == 1
    assert "label volume" in _one_line_error(capsys)


def test_segment_nan_cpv_seed_threshold_is_one_line_error(workdir, capsys):
    pred = workdir / "nan_pred.v3dr"
    labels = read_volume(workdir / "gt.v3dr")
    write_volume(pred, encode_bundle(labels, "sdt", with_cpv=True).volume.astype(np.float32))
    out = workdir / "nan_seg.v3dr"
    args = ["segment", str(pred), str(out), "--variant", "sdt", "--seed-source", "cpv",
            "--cpv-seed-threshold", "nan"]
    assert main(args) == 1
    assert "cpv_seed_threshold must be a finite number >= 0, got nan" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "variant,flag,value",
    [("gauss", "--sigma", "inf"), ("gauss", "--sigma", "nan"), ("sdt", "--tanh-scale", "inf"),
     ("sdt", "--tanh-scale", "-1.0")],
)
def test_bad_encoder_parameter_is_one_line_error(workdir, capsys, variant, flag, value):
    out = workdir / "bad_param.v3dr"
    args = ["encode", str(workdir / "gt.v3dr"), str(out), "--variant", variant, f"{flag}={value}"]
    name = "sigma" if flag == "--sigma" else "scale"
    expected = f"{name} must be a finite number > 0, got {value}"
    assert main(args) == 1
    assert expected in _one_line_error(capsys)
    assert not out.exists()


# 2 sigma^2 underflows to 0 at sigma 1e-200 and is subnormal at 1e-160, where the
# quotient overflows; so does distance / scale at scale 1e-320. The limits are exact,
# and a numpy RuntimeWarning fails the test (pyproject.toml turns it into an error).
@pytest.mark.parametrize(
    "variant,flag,value",
    [("gauss", "--sigma", "1e-200"), ("gauss", "--sigma", "1e-160"),
     ("sdt", "--tanh-scale", "1e-320")],
)
def test_tiny_encoder_parameter_encodes_its_limit_silently(workdir, capsys, variant, flag, value):
    cube = np.zeros((11, 11, 11), dtype=np.int32)
    cube[4:7, 4:7, 4:7] = 1  # centred on voxel (5, 5, 5)
    labels = workdir / "cube.v3dr"
    write_volume(labels, LabelVolume(cube))
    out = workdir / f"tiny_{variant}.v3dr"
    assert main(["encode", str(labels), str(out), "--variant", variant, flag, value]) == 0
    assert capsys.readouterr().err == ""
    if variant == "gauss":
        expected = np.zeros(cube.shape)
        expected[5, 5, 5] = 1.0
    else:
        expected = np.sign(signed_boundary_distance(LabelVolume(cube)))
    assert np.array_equal(read_volume(out).data[0], expected)


# Both requests are refused at allocation: 3.55 PiB of labels, and a smoothing
# kernel of 8e15 taps. Neither fits any address space, so no memory is touched.
@pytest.mark.parametrize(
    "name,text",
    [
        ("huge_shape.yaml", "shape: [100000, 100000, 100000]\nn_instances: 0\nradius_range: [2, 3]\n"),
        ("huge_blur.yaml",
         "shape: [16, 24, 24]\nn_instances: 1\nradius_range: [2, 3]\nsmoothing_sigma: 1.0e+15\n"),
    ],
)
def test_unallocatable_phantom_is_one_line_error(workdir, capsys, name, text):
    (workdir / name).write_text(text)
    assert main(["phantom", str(workdir / name), str(workdir / "huge_")]) == 1
    assert "out of memory" in _one_line_error(capsys)
    assert not (workdir / "huge_labels.v3dr").exists()


@pytest.mark.parametrize("sigma", ["1.0e+308", "1.0e+300"])
def test_unsizable_smoothing_kernel_is_one_line_error_naming_the_key(workdir, capsys, sigma):
    name = "huge_kernel.yaml"
    (workdir / name).write_text(
        f"shape: [16, 24, 24]\nn_instances: 1\nradius_range: [2, 3]\nsmoothing_sigma: {sigma}\n"
    )
    assert main(["phantom", str(workdir / name), str(workdir / "huge_")]) == 1
    err = _one_line_error(capsys)
    bound = "a finite number >= 0 and < 72057594037927936"
    assert name in err and f"smoothing_sigma must be {bound}, got {float(sigma)!r}" in err
    assert not (workdir / "huge_labels.v3dr").exists()


@pytest.mark.parametrize(
    "name,text,expected",
    [
        ("malformed.yaml", "shape: [10, 20\nn_instances: 1\n", "malformed YAML"),
        ("unknown.yaml", "shape: [10, 20, 20]\nn_instances: 1\nradius_range: [2, 3]\nbogus: 1\n",
         "bogus"),
        ("list.yaml", "- 1\n- 2\n", "must be a mapping"),
        ("count_float.yaml", "shape: [10, 20, 20]\nn_instances: 2.5\nradius_range: [2, 3]\n",
         "n_instances"),
        ("seed_float.yaml",
         "shape: [10, 20, 20]\nn_instances: 1\nradius_range: [2, 3]\nrng_seed: 1.5\n", "rng_seed"),
        ("seed_negative.yaml",
         "shape: [10, 20, 20]\nn_instances: 1\nradius_range: [2, 3]\nrng_seed: -1\n", "rng_seed"),
        ("extent_scalar.yaml", "shape: 5\nn_instances: 1\nradius_range: [2, 3]\n", "shape"),
        ("radii_scalar.yaml", "shape: [10, 20, 20]\nn_instances: 1\nradius_range: 4\n",
         "radius_range"),
        ("extent_float.yaml", "shape: [12.7, 24, 24]\nn_instances: 1\nradius_range: [2, 3]\n",
         "shape"),
        ("extent_string.yaml", "shape: \"999\"\nn_instances: 1\nradius_range: [2, 3]\n", "shape"),
        ("radii_string.yaml", "shape: [10, 20, 20]\nn_instances: 1\nradius_range: \"23\"\n",
         "radius_range"),
        ("radii_text.yaml", "shape: [10, 20, 20]\nn_instances: 1\nradius_range: [2, x]\n",
         "radius_range"),
        ("noise_negative.yaml",
         "shape: [10, 20, 20]\nn_instances: 1\nradius_range: [2, 3]\nnoise_sigma: -0.1\n",
         "noise_sigma"),
        ("blur_negative.yaml",
         "shape: [10, 20, 20]\nn_instances: 1\nradius_range: [2, 3]\nsmoothing_sigma: -1\n",
         "smoothing_sigma"),
        ("count_bool.yaml", "shape: [10, 20, 20]\nn_instances: true\nradius_range: [2, 3]\n",
         "n_instances must be an integer >= 0, got True"),
        ("seed_bool.yaml",
         "shape: [10, 20, 20]\nn_instances: 1\nradius_range: [2, 3]\nrng_seed: false\n",
         "rng_seed must be an integer >= 0, got False"),
        ("touching_int.yaml",
         "shape: [10, 20, 20]\nn_instances: 1\nradius_range: [2, 3]\nallow_touching: 5\n",
         "allow_touching must be True or False, got 5"),
        ("extent_bool.yaml", "shape: [true, 20, 20]\nn_instances: 1\nradius_range: [2, 3]\n",
         "shape"),
        ("no_shape.yaml", "n_instances: 1\nradius_range: [2, 3]\n",
         "missing phantom config key 'shape'"),
    ],
)
def test_bad_phantom_config_names_file_and_key(workdir, capsys, name, text, expected):
    (workdir / name).write_text(text)
    assert main(["phantom", str(workdir / name), str(workdir / "bad_")]) == 1
    err = _one_line_error(capsys)
    assert name in err and expected in err


def test_sweep_spec_missing_key_names_file_and_key(workdir, capsys):
    write_report(workdir / "nogrid.yaml", {
        "variant": "sdt",
        "objective": "seg_avap",
        "checkpoints": [{"name": "only", "pairs": [{"gt": "gt.v3dr", "pred": "gt.v3dr"}]}],
    })
    assert main(["sweep", str(workdir / "nogrid.yaml"), str(workdir / "o.yaml")]) == 1
    err = _one_line_error(capsys)
    assert "nogrid.yaml" in err and "'grid'" in err


def test_sweep_spec_non_number_names_file(workdir, capsys):
    (workdir / "nonnumber.yaml").write_text(
        "variant: sdt\nobjective: seg_avap\n"
        "checkpoints: [{name: only, pairs: [{gt: gt.v3dr, pred: gt.v3dr}]}]\n"
        "grid: {seed_source: [main], seed_threshold: [x], foreground_threshold: [0],"
        " cpv_seed_threshold: [0], dilate: [false]}\n"
    )
    assert main(["sweep", str(workdir / "nonnumber.yaml"), str(workdir / "o.yaml")]) == 1
    err = _one_line_error(capsys)
    assert "nonnumber.yaml" in err and "'x'" in err


def _spec_mapping():
    return {
        "variant": "sdt",
        "objective": "seg_avap",
        "checkpoints": [{"name": "only", "pairs": [{"gt": "gt.v3dr", "pred": "gt.v3dr"}]}],
        "grid": {
            "seed_source": ["main"], "seed_threshold": [-0.14], "foreground_threshold": [0.0],
            "cpv_seed_threshold": [0], "dilate": [False],
        },
    }


SPEC_LEVELS = {
    "sweep spec": lambda spec: spec,
    "grid": lambda spec: spec["grid"],
    "checkpoint": lambda spec: spec["checkpoints"][0],
    "pair": lambda spec: spec["checkpoints"][0]["pairs"][0],
}


@pytest.mark.parametrize("level", SPEC_LEVELS)
@pytest.mark.parametrize("fault", ["unknown", "missing"])
def test_sweep_spec_key_fault_at_each_level_names_file_and_key(workdir, capsys, level, fault):
    spec = _spec_mapping()
    mapping = SPEC_LEVELS[level](spec)
    if fault == "unknown":
        mapping["dilate_result"] = [True]
        expected = f"unknown {level} key(s): dilate_result"
    else:
        key = list(mapping)[-1]
        del mapping[key]
        expected = f"missing {level} key {key!r}"
    write_report(workdir / "keyfault.yaml", spec)
    assert main(["sweep", str(workdir / "keyfault.yaml"), str(workdir / "o.yaml")]) == 1
    err = _one_line_error(capsys)
    assert "keyfault.yaml: malformed sweep spec: " + expected in err


@pytest.mark.parametrize(
    "field,value,expected",
    [
        ("dilate", '["false"]', "dilate"),
        ("dilate", "[2]", "dilate"),
        ("seed_source", "[foo]", "seed_source must be 'main' or 'cpv', got 'foo'"),
        ("cpv_seed_threshold", "[-1]", "cpv_seed_threshold must be a finite number >= 0, got -1"),
        ("cpv_seed_threshold", "[.nan]",
         "cpv_seed_threshold must be a finite number >= 0, got nan"),
        ("seed_threshold", '["-0.1"]', "seed_threshold must be a finite number, got '-0.1'"),
        ("seed_threshold", "[true]", "seed_threshold must be a finite number, got True"),
        ("foreground_threshold", "0", "grid foreground_threshold must be a list"),
        ("seed_source", "main", "grid seed_source must be a list, got 'main'"),
        ("dilate", "false", "grid dilate must be a list"),
        ("variant", "sdtx",
         "variant must be 'sdt' or '3label' or 'affinities', got 'sdtx'"),
        ("objective", "5", "unknown objective 5"),
        ("objective", "seg_ap@abc", "unknown objective 'seg_ap@abc'"),
        ("objective", "seg_ap@1.5",
         "objective IoU threshold must be a finite number > 0 and < 1, got 1.5"),
    ],
)
def test_bad_sweep_spec_value_names_file_before_reading_volumes(
    workdir, capsys, field, value, expected
):
    top = {"variant": "sdt", "objective": "seg_avap"}
    grid = {
        "seed_source": "[main]", "seed_threshold": "[-0.14]", "foreground_threshold": "[0]",
        "cpv_seed_threshold": "[0]", "dilate": "[false]",
    }
    (top if field in top else grid)[field] = value
    # the pair names missing files: the spec value must be refused before any read
    (workdir / "badvalue.yaml").write_text(
        "".join(f"{k}: {v}\n" for k, v in top.items())
        + "checkpoints: [{name: only, pairs: [{gt: missing.v3dr, pred: missing.v3dr}]}]\n"
        + "grid: {" + ", ".join(f"{k}: {v}" for k, v in grid.items()) + "}\n"
    )
    assert main(["sweep", str(workdir / "badvalue.yaml"), str(workdir / "o.yaml")]) == 1
    err = _one_line_error(capsys)
    assert "badvalue.yaml" in err and expected in err and "missing.v3dr" not in err


@pytest.mark.parametrize(
    "argv,wrong,expected",
    [
        (["encode", "{raw}", "{out}", "--variant", "sdt"], "raw", "expected a label volume"),
        (["evaluate", "{raw}", "{out}"], "raw", "expected a label volume"),
        (["evaluate", "{gt}", "{out}", "--seg", "{raw}"], "raw", "expected a label volume"),
        (["evaluate", "{raw}", "{out}", "--dets", "{dets}"], "raw", "expected a label volume"),
        (["detect", "{gt}", "{out}", "--gauss-threshold", "0.5", "--nms-distance", "2"], "gt",
         "expected a scalar volume"),
        (["sweep", "{spec}", "{out}"], "raw", "expected a label volume"),
    ],
    ids=["encode", "evaluate-gt", "evaluate-seg", "evaluate-dets", "detect", "sweep-gt"],
)
def test_volume_of_wrong_kind_is_one_line_error(workdir, capsys, argv, wrong, expected):
    paths = {
        "gt": workdir / "gt.v3dr",
        "raw": workdir / "kind_raw.v3dr",
        "dets": workdir / "kind_dets.csv",
        "spec": workdir / "kind_spec.yaml",
        "out": workdir / "kind_out",
    }
    write_volume(paths["raw"], Volume(np.zeros((1, 20, 36, 36), dtype=np.float32)))
    write_detections(paths["dets"], [])
    write_report(paths["spec"], {
        "variant": "sdt",
        "objective": "seg_avap",
        "checkpoints": [{"name": "only", "pairs": [{"gt": "kind_raw.v3dr", "pred": "kind_raw.v3dr"}]}],
        "grid": {
            "seed_source": ["main"], "seed_threshold": [-0.14], "foreground_threshold": [0.0],
            "cpv_seed_threshold": [0], "dilate": [False],
        },
    })
    assert main([a.format(**paths) for a in argv]) == 1
    err = _one_line_error(capsys)
    assert paths[wrong].name in err and expected in err


def _wider_cube():
    """One cube in a label volume one voxel wider than ``gt.v3dr`` (20 x 36 x 36)."""
    cube = np.zeros((20, 36, 37), dtype=np.int32)
    cube[2:5, 2:5, 2:5] = 1
    return LabelVolume(cube)


def _shape_mismatch_sweep(path):
    """Writer of a det_ap sweep spec pairing ``gt.v3dr`` with a wider 3label prediction."""
    pred = encode_bundle(_wider_cube(), "3label").volume.astype(np.float32)
    write_volume(path.with_suffix(".pred"), pred)
    path.write_text(
        "variant: 3label\nobjective: det_ap\n"
        f"checkpoints: [{{name: only, pairs: [{{gt: gt.v3dr, pred: {path.stem}.pred}}]}}]\n"
        "grid: {seed_source: [main], seed_threshold: [0.5], foreground_threshold: [0.5],"
        " cpv_seed_threshold: [0], dilate: [false]}\n"
    )


def _sweep_spec(path, **grid):
    grid = {
        "seed_source": "[main]", "seed_threshold": "[-0.14]", "foreground_threshold": "[0]",
        "cpv_seed_threshold": "[0]", "dilate": "[false]", **grid,
    }
    path.write_text(
        "variant: sdt\nobjective: seg_avap\n"
        "checkpoints: [{name: only, pairs: [{gt: gt.v3dr, pred: gt.v3dr}]}]\n"
        "grid: {" + ", ".join(f"{k}: {v}" for k, v in grid.items()) + "}\n"
    )


def _cpv_pred(path):
    labels = read_volume(path.parent / "gt.v3dr")
    write_volume(path, encode_bundle(labels, "sdt", with_cpv=True).volume.astype(np.float32))


def _inf_voxel_size(path):
    header = bytearray((path.parent / "gt.v3dr").read_bytes())
    header[28:36] = struct.pack("<d", math.inf)  # dz
    path.write_bytes(header)


def _first_voxel(value):
    """Writer of a label (int ``value``) or f32 volume file whose first voxel is ``value``."""
    def write(path):
        label = isinstance(value, int)
        zeros = np.zeros((2, 3, 4), np.int32 if label else np.float32)
        write_volume(path, LabelVolume(zeros) if label else Volume(zeros))
        raw = bytearray(path.read_bytes())
        raw[52:56] = struct.pack("<i" if label else "<f", value)
        path.write_bytes(bytes(raw))
    return write


@pytest.mark.parametrize(
    "write,argv,expected",
    [
        (lambda p: p.write_text("shape: [10, 20, 20]\nn_instances: 1\nradius_range: [2, .inf]\n"),
         ["phantom", "{input}", "{out}"], "radius_range[1] must be a finite number >= 1, got inf"),
        (_cpv_pred,
         ["segment", "{input}", "{out}", "--variant", "sdt", "--seed-source", "cpv",
          "--cpv-seed-threshold", "inf"],
         "cpv_seed_threshold must be a finite number >= 0, got inf"),
        (lambda p: _sweep_spec(p, seed_threshold='["-0.1", true]'),
         ["sweep", "{input}", "{out}"], "seed_threshold must be a finite number, got '-0.1'"),
        (lambda p: _sweep_spec(p, seed_source="main"),
         ["sweep", "{input}", "{out}"], "grid seed_source must be a list, got 'main'"),
        (lambda p: None,
         ["encode", "{gt}", "{out}", "--variant", "gauss", "--sigma", "nan"],
         "sigma must be a finite number > 0, got nan"),
        (_inf_voxel_size,
         ["evaluate", "{input}", "{out}"], "voxel size dz must be a finite number > 0, got inf"),
        # a payload fault names the file: the input path ends in .in
        (_first_voxel(-1),
         ["evaluate", "{gt}", "{out}", "--seg", "{input}"], ".in: labels must be non-negative"),
        (_first_voxel(math.nan),
         ["segment", "{input}", "{out}", "--variant", "sdt"], ".in: volume values must be finite"),
        (_first_voxel(math.inf),
         ["detect", "{input}", "{out}", "--gauss-threshold", "0.5", "--nms-distance", "2"],
         ".in: volume values must be finite"),
        # the cast of the noisy raw image overflows to inf; no numpy warning may print
        (lambda p: p.write_text("shape: [16, 32, 32]\nn_instances: 2\nradius_range: [2.0, 3.0]\n"
                                "noise_sigma: 1.0e+300\n"),
         ["phantom", "{input}", "{out}"], "{input}: volume values must be finite"),
        (lambda p: p.write_text("shape: [10, 20, 20]\nn_instances: 1\nradius_range: [2, 3]\n"
                                '"bo\\ngus": 1\n'),
         ["phantom", "{input}", "{out}"], "{input}: unknown phantom config key(s): bo gus"),
        (lambda p: p.write_bytes(b"z,y,x,score\n1,2,3,0.5\xe9\n"),
         ["evaluate", "{gt}", "{out}", "--dets", "{input}"],
         "{input}: 'ascii' codec can't decode byte 0xe9"),
        (lambda p: write_volume(p, _wider_cube()), ["evaluate", "{gt}", "{out}", "--seg", "{input}"],
         "{gt} shape (20, 36, 36) vs {input} shape (20, 36, 37)"),
        (_shape_mismatch_sweep, ["sweep", "{input}", "{out}"],
         "{gt} shape (20, 36, 36) vs {pred} shape (20, 36, 37)"),
    ],
    ids=["phantom-radius-inf", "segment-cpv-threshold-inf", "sweep-threshold-text",
         "sweep-scalar-source", "encode-sigma-nan", "evaluate-voxel-size-inf",
         "evaluate-seg-negative-label", "segment-nan-payload", "detect-inf-payload",
         "phantom-noise-overflow", "phantom-key-line-break", "evaluate-dets-non-ascii",
         "evaluate-seg-shape-mismatch", "sweep-shape-mismatch"],
)
def test_refused_value_is_one_line_error(workdir, capsys, request, write, argv, expected):
    case = request.node.callspec.id
    paths = {"input": workdir / f"refused_{case}.in", "gt": workdir / "gt.v3dr",
             "out": workdir / f"refused_{case}.out", "pred": workdir / f"refused_{case}.pred"}
    write(paths["input"])
    assert main([a.format(**paths) for a in argv]) == 1
    assert expected.format(**paths) in _one_line_error(capsys)
    assert not list(workdir.glob(f"refused_{case}.out*"))
