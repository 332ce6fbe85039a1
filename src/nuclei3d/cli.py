"""Command-line entry point: phantom, encode, segment, detect, evaluate, sweep.

Each command is a thin shell over the library; output files are exactly
what the corresponding library calls produce, and an option left unset
takes the library's default. Errors go to stderr as one line, with a
nonzero exit code (2 for phantom placement failures, 1 otherwise).
"""

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import io
from .core import LabelVolume, Volume, check_same_shape
from .detection import NmsConfig, nms_detect
from .errors import Nuclei3dError, PlacementError
from .metrics import evaluate
from .phantom import PhantomConfig, generate_phantom
from .postproc import SEED_SOURCES, SEG_VARIANTS, PostprocConfig, segment
from .sweep import load_sweep_spec, run_sweep
from .targets import VARIANTS, encode_bundle

__all__ = ["main"]


def _given(args, *names):
    """The options among ``names`` that the command line set, by name."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _cmd_phantom(args):
    with io.names_file(args.config):
        labels, raw = generate_phantom(PhantomConfig.from_mapping(io.read_report(args.config)))
    io.write_volume(args.out_prefix + "labels.v3dr", labels)
    io.write_volume(args.out_prefix + "raw.v3dr", raw)
    return 0


def _cmd_encode(args):
    labels = io.read_volume(args.labels, LabelVolume)
    bundle = encode_bundle(labels, args.variant, **_given(args, "with_cpv", "tanh_scale", "sigma"))
    io.write_volume(args.out, bundle.volume.astype(np.float32))
    return 0


def _cmd_segment(args):
    pred = io.read_volume(args.pred, Volume)
    cfg = PostprocConfig(**_given(args, *(f.name for f in fields(PostprocConfig))))
    io.write_volume(args.out, segment(pred, cfg, **_given(args, "logits")))
    return 0


def _cmd_detect(args):
    pred = io.read_volume(args.pred, Volume)
    cfg = NmsConfig(gauss_threshold=args.gauss_threshold, nms_distance=args.nms_distance)
    io.write_detections(args.out, nms_detect(pred, cfg))
    return 0


def _cmd_evaluate(args):
    gt = io.read_volume(args.gt, LabelVolume)
    seg = io.read_volume(args.seg, LabelVolume) if args.seg else None
    if seg is not None:
        check_same_shape(args.gt, gt.shape, args.seg, seg.shape)
    dets = io.read_detections(args.dets) if args.dets else None
    report = evaluate(gt, seg=seg, detections=dets)
    io.write_report(args.out, report.to_mapping())
    if report.av_ap is not None:
        print(f"avAP: {report.av_ap:.17g}")
    if report.detection_ap is not None:
        print(f"detection AP: {report.detection_ap:.17g}")
    return 0


def _cmd_sweep(args):
    result = run_sweep(load_sweep_spec(args.spec))
    io.write_report(args.out, result.to_mapping())
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nuclei3d",
        description="3d nuclei instance segmentation toolkit: targets, watershed, metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic labeled volume")
    p.add_argument("config", help="phantom config YAML")
    p.add_argument("out_prefix", help="output prefix; writes <prefix>labels.v3dr and <prefix>raw.v3dr")
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("encode", help="encode ground-truth labels into training targets",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("labels", help="label volume (.v3dr)")
    p.add_argument("out", help="output target volume (.v3dr, f32)")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--with-cpv", action="store_true", help="append center-point-vector channels")
    p.add_argument("--tanh-scale", type=float, help="sdt tanh scale in voxels")
    p.add_argument("--sigma", type=float, help="gauss blob sigma in voxels")
    p.set_defaults(func=_cmd_encode)

    # option dests are PostprocConfig field names, plus logits
    p = sub.add_parser("segment", help="watershed instance segmentation of a prediction",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("pred", help="prediction volume (.v3dr)")
    p.add_argument("out", help="output label volume (.v3dr)")
    p.add_argument("--variant", required=True, choices=SEG_VARIANTS)
    p.add_argument("--seed-source", choices=SEED_SOURCES)
    p.add_argument("--seed-threshold", type=float)
    p.add_argument("--fg-threshold", type=float, dest="foreground_threshold", metavar="FG_THRESHOLD")
    p.add_argument("--cpv-seed-threshold", type=float)
    p.add_argument("--dilate", action="store_true", dest="dilate_result",
                   help="dilate resulting instances once")
    p.add_argument("--logits", action="store_true",
                   help="apply softmax (3label) or sigmoid (affinities); no effect for sdt")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("detect", help="non-maximum suppression on a blob map")
    p.add_argument("pred", help="single-channel blob volume (.v3dr)")
    p.add_argument("out", help="output detection CSV")
    p.add_argument("--gauss-threshold", type=float, required=True)
    p.add_argument("--nms-distance", type=int, required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("evaluate", help="score a segmentation and/or detections against ground truth")
    p.add_argument("gt", help="ground-truth label volume (.v3dr)")
    p.add_argument("out", help="output report YAML")
    p.add_argument("--seg", help="predicted label volume (.v3dr)")
    p.add_argument("--dets", help="detection CSV")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="joint checkpoint/threshold selection on validation pairs")
    p.add_argument("spec", help="sweep spec YAML")
    p.add_argument("out", help="output report YAML")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    # MemoryError: numpy refuses an array too large to allocate
    except (Nuclei3dError, OSError, ValueError, MemoryError) as exc:
        oom = "out of memory: " if isinstance(exc, MemoryError) else ""
        print("error:", oom + " ".join(str(exc).split()), file=sys.stderr)
        return 2 if isinstance(exc, PlacementError) else 1


if __name__ == "__main__":
    sys.exit(main())
