"""The three benchmark workloads: inputs made from a seed, and one op each.

Every workload is three functions. ``setup(seed, workdir)`` builds the
inputs (phantoms, encoded and perturbed predictions, files on disk) and
returns them; ``op(inputs)`` performs one operation and returns its outputs
as an ordered list of ``(part_name, value)`` pairs, which ``digest_parts``
turns into one SHA-256 per part for the golden check; ``sane(outputs)``
lists what is implausible about them, which ``record_golden.py`` checks
before it records a digest.

There are ``INPUT_SETS`` input sets per workload, made from seeds
``0 .. INPUT_SETS - 1``; ``golden.json`` holds the digests of each.

Library functions are always reached through the ``nuclei3d`` package
attribute at call time (``n3.segment``, not a name bound at import), so the
traced run sees every call after it has wrapped the package attributes.
"""

import hashlib
from pathlib import Path

import numpy as np

import nuclei3d as n3
import nuclei3d.cli  # noqa: F401  the package does not import its cli module

# ---------------------------------------------------------------- inputs


def derived_seed(seed, *stream):
    """Independent, platform-stable integer seed for one input stream."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


INPUT_SETS = 32
PLACEMENT_ATTEMPTS = 8


def _phantom(seed, stream, **kwargs):
    """Labels of one phantom; a placement failure retries with the next draw.

    Rejection sampling gives up on a few percent of draws at these
    densities. Retrying with a deterministic sequence of draws keeps every
    seed usable and its inputs reproducible.
    """
    for attempt in range(PLACEMENT_ATTEMPTS):
        try:
            labels, _ = n3.generate_phantom(
                n3.PhantomConfig(rng_seed=derived_seed(seed, stream, attempt), **kwargs)
            )
            return labels
        except n3.errors.PlacementError:
            continue
    raise RuntimeError(f"no phantom placed for seed {seed} after {PLACEMENT_ATTEMPTS} draws")


# ------------------------------------------------------------ infer-dense

DENSE_PHANTOM = dict(
    shape=(32, 128, 128), n_instances=300, radius_range=(3.0, 6.0), allow_touching=True
)
DENSE_NOISE = (0.05, 0.5)  # noise sigma, smoothing sigma of the simulated network
DENSE_CPV_SEED_THRESHOLD = 20.0  # about 5% of the median instance volume
DENSE_RECIPES = (
    ("3label_main", "3label", n3.PostprocConfig(
        "3label", seed_threshold=0.7, foreground_threshold=0.95)),
    ("3label_cpv", "3label", n3.PostprocConfig(
        "3label", seed_source="cpv", foreground_threshold=0.95,
        cpv_seed_threshold=DENSE_CPV_SEED_THRESHOLD)),
    ("sdt_main_dilate", "sdt", n3.PostprocConfig(
        "sdt", seed_threshold=-0.14, foreground_threshold=0.0, dilate_result=True)),
    ("affinities_main", "affinities", n3.PostprocConfig(
        "affinities", seed_threshold=0.99, foreground_threshold=0.99, dilate_result=True)),
)
DENSE_NMS = n3.NmsConfig(gauss_threshold=0.25, nms_distance=3)


def setup_infer_dense(seed, workdir):
    labels = _phantom(seed, 0, **DENSE_PHANTOM)
    preds = {}
    for stream, (variant, with_cpv) in enumerate(
        (("3label", True), ("sdt", True), ("affinities", False), ("gauss", False)), start=1
    ):
        bundle = n3.encode_bundle(labels, variant, with_cpv=with_cpv)
        preds[variant] = n3.perturb_target(
            bundle, *DENSE_NOISE, rng_seed=derived_seed(seed, stream)
        )
    return {"labels": labels, "preds": preds}


def op_infer_dense(inputs):
    labels, preds = inputs["labels"], inputs["preds"]
    out = []
    segs = {}
    for name, variant, cfg in DENSE_RECIPES:
        segs[name] = n3.segment(preds[variant], cfg)
        out.append((f"segment.{name}", segs[name]))
    for name, _, _ in DENSE_RECIPES:
        out.append((f"evaluate.{name}", n3.evaluate(labels, seg=segs[name])))
    centroids = n3.centroids_from_labels(segs["3label_cpv"])
    out.append(("centroids.3label_cpv", centroids))
    out.append(("detection_ap.centroids", n3.detection_ap(labels, centroids)))
    dets = n3.nms_detect(preds["gauss"].volume, DENSE_NMS)
    out.append(("nms_detect.gauss", dets))
    out.append(("detection_ap.nms", n3.detection_ap(labels, dets)))
    return out


def sane_infer_dense(outputs):
    out = dict(outputs)
    problems = [f"{name}: empty segmentation" for name, _, _ in DENSE_RECIPES
                if not out[f"segment.{name}"].labels.any()]
    problems += [f"{name}: avAP {out[f'evaluate.{name}'].av_ap}" for name, _, _ in DENSE_RECIPES
                 if not 0 < out[f"evaluate.{name}"].av_ap <= 1]
    problems += [f"{key}: AP {out[key][0]}" for key in ("detection_ap.centroids", "detection_ap.nms")
                 if not 0.5 <= out[key][0] <= 1]
    return problems


# ---------------------------------------------------------- train-targets

SPARSE_PHANTOM = dict(
    shape=(32, 128, 128), n_instances=100, radius_range=(3.5, 6.0), min_gap=2.0
)
TRAIN_NOISE = (0.1, 1.0)
TRAIN_ENCODINGS = (  # variant, with_cpv
    ("sdt", True),
    ("3label", True),
    ("affinities", False),
    ("gauss", False),
)


def setup_train_targets(seed, workdir):
    labels = _phantom(seed, 0, **SPARSE_PHANTOM)
    path = Path(workdir) / "labels.v3dr"
    n3.write_volume(path, labels)
    fg = n3.Volume(labels.foreground().astype(np.float64)[np.newaxis])
    return {"labels_path": str(path), "workdir": str(workdir), "fg": fg, "seed": seed}


def _split(volume, main):
    data = volume.data
    return n3.Volume(data[:main], volume.voxel_size), n3.Volume(data[main:], volume.voxel_size)


def _train_loss(variant, target, pred, fg):
    """The variant's loss; with CPV channels, combined with the vector loss."""
    if variant == "affinities":
        return n3.sigmoid_bce_loss(pred, target)
    if variant == "gauss":
        return n3.ssd_loss(pred, target)
    t_main, t_cpv = _split(target, n3.MAIN_CHANNELS[variant])
    p_main, p_cpv = _split(pred, n3.MAIN_CHANNELS[variant])
    if variant == "sdt":
        main_loss = n3.ssd_loss(p_main, t_main)
    else:
        classes = np.argmax(t_main.data, axis=0).astype(np.uint8)
        main_loss = n3.softmax_ce_loss(p_main, n3.Volume(classes[np.newaxis]))
    return n3.combined_loss(main_loss, p_cpv, t_cpv, fg, n3.main_loss_weight(variant))


def op_train_targets(inputs):
    out = []
    for stream, (variant, with_cpv) in enumerate(TRAIN_ENCODINGS, start=1):
        target_path = str(Path(inputs["workdir"]) / f"target_{variant}.v3dr")
        argv = ["encode", inputs["labels_path"], target_path, "--variant", variant]
        if with_cpv:
            argv.append("--with-cpv")
        status = n3.cli.main(argv)
        target = n3.read_volume(target_path)
        out.append((f"encode.{variant}", (status, target)))
        pred = n3.perturb_target(
            n3.TargetBundle(target, variant, with_cpv),
            *TRAIN_NOISE,
            rng_seed=derived_seed(inputs["seed"], stream),
        )
        out.append((f"perturb.{variant}", pred.volume))
        out.append((f"loss.{variant}", _train_loss(variant, target, pred.volume, inputs["fg"])))
    return out


def sane_train_targets(outputs):
    out = dict(outputs)
    problems = []
    for variant, with_cpv in TRAIN_ENCODINGS:
        status, target = out[f"encode.{variant}"]
        channels = n3.MAIN_CHANNELS[variant] + (3 if with_cpv else 0)
        if status != 0 or target.data.dtype != np.float32 or target.channels != channels:
            problems.append(f"encode {variant}: status {status}, {target.data.dtype}, "
                            f"{target.channels} channels")
        if not 0 < out[f"loss.{variant}"].value < np.inf:
            problems.append(f"loss {variant}: {out[f'loss.{variant}'].value}")
    return problems


# ----------------------------------------------------------- sweep-select

SWEEP_PHANTOM = dict(
    shape=(16, 48, 48), n_instances=24, radius_range=(2.5, 4.5), allow_touching=True
)
SWEEP_CHECKPOINTS = (("noise_0.10", 0.1), ("noise_0.25", 0.25))
SWEEP_SMOOTHING = 1.0
SWEEP_PAIRS = 2
SWEEP_GRID = {
    "seed_source": ["main", "cpv"],
    "seed_threshold": [0.6, 0.8],
    "foreground_threshold": [0.5, 0.9],
    "cpv_seed_threshold": [8, 16],
    "dilate": [False, True],
}


def setup_sweep_select(seed, workdir):
    workdir = Path(workdir)
    checkpoints = {name: [] for name, _ in SWEEP_CHECKPOINTS}
    for pair in range(SWEEP_PAIRS):
        labels = _phantom(seed, pair, **SWEEP_PHANTOM)
        n3.write_volume(workdir / f"gt_{pair}.v3dr", labels)
        bundle = n3.encode_bundle(labels, "3label", with_cpv=True)
        for k, (name, noise) in enumerate(SWEEP_CHECKPOINTS):
            pred = n3.perturb_target(
                bundle, noise, SWEEP_SMOOTHING,
                rng_seed=derived_seed(seed, 100 + SWEEP_PAIRS * k + pair),
            )
            pred_name = f"pred_{name}_{pair}.v3dr"
            n3.write_volume(workdir / pred_name, pred.volume.astype(np.float32))
            checkpoints[name].append({"gt": f"gt_{pair}.v3dr", "pred": pred_name})
    spec = {
        "variant": "3label",
        "objective": "seg_avap",
        "checkpoints": [{"name": n, "pairs": p} for n, p in checkpoints.items()],
        "grid": SWEEP_GRID,
    }
    spec_path = workdir / "sweep.yaml"
    n3.write_report(spec_path, spec)
    return {"spec_path": str(spec_path)}


def op_sweep_select(inputs):
    result = n3.run_sweep(n3.load_sweep_spec(inputs["spec_path"]))
    return [("sweep", result.to_mapping())]


def sane_sweep_select(outputs):
    result = dict(outputs)["sweep"]
    rows = len(SWEEP_CHECKPOINTS) * int(np.prod([len(v) for v in SWEEP_GRID.values()]))
    problems = []
    if len(result["table"]) != rows:
        problems.append(f"{len(result['table'])} table rows, expected {rows}")
    if not 0 < result["selected"]["score"] <= 1:
        problems.append(f"selected score {result['selected']['score']}")
    return problems


# name: (setup, op, sanity check of one op's outputs -> list of problems)
WORKLOADS = {
    "infer-dense": (setup_infer_dense, op_infer_dense, sane_infer_dense),
    "train-targets": (setup_train_targets, op_train_targets, sane_train_targets),
    "sweep-select": (setup_sweep_select, op_sweep_select, sane_sweep_select),
}

# ---------------------------------------------------------------- digests


def canonical(value):
    """Byte string that identifies a value exactly, independent of repr quirks.

    Arrays contribute dtype, shape and raw bytes; floats their hex form, so
    one changed bit in any output changes the digest.
    """
    if isinstance(value, n3.LabelVolume):
        return b"L" + canonical(value.labels) + canonical(value.voxel_size.as_tuple())
    if isinstance(value, n3.Volume):
        return b"V" + canonical(value.data) + canonical(value.voxel_size.as_tuple())
    if isinstance(value, n3.EvalReport):
        return b"R" + canonical(value.to_mapping())
    if isinstance(value, n3.LossResult):
        return b"S" + canonical(value.value) + canonical(value.gradient)
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return f"A{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()
    if isinstance(value, (bool, np.bool_)):
        return b"T" if value else b"F"
    if isinstance(value, (int, np.integer)):
        return b"I" + str(int(value)).encode()
    if isinstance(value, (float, np.floating)):
        return b"D" + float(value).hex().encode()
    if isinstance(value, str):
        return b"U" + value.encode() + b"\0"
    if value is None:
        return b"N"
    if isinstance(value, dict):
        return b"{" + b"".join(canonical(k) + canonical(v) for k, v in value.items()) + b"}"
    if isinstance(value, (list, tuple)):
        return b"[" + b"".join(canonical(v) for v in value) + b"]"
    raise TypeError(f"no canonical form for {type(value)!r}")


def digest_parts(outputs):
    """SHA-256 hex digest per named op output, in op order."""
    return {name: hashlib.sha256(canonical(value)).hexdigest() for name, value in outputs}
