"""Command-line entry point: phantom, encode, segment, detect, evaluate, sweep.

Each command is a thin shell over the library; output files are exactly
what the corresponding library calls produce. Errors go to stderr with a
nonzero exit code (2 for phantom placement failures, 1 otherwise).
"""

import argparse
import sys

import numpy as np

from . import io
from .core import LabelVolume, Volume
from .detection import NmsConfig, nms_detect
from .errors import Nuclei3dError, PlacementError
from .metrics import evaluate
from .phantom import PhantomConfig, generate_phantom
from .postproc import SEG_VARIANTS, PostprocConfig, segment
from .sweep import load_sweep_spec, run_sweep
from .targets import VARIANTS, encode_bundle

__all__ = ["main"]


def _cmd_phantom(args):
    try:
        cfg = PhantomConfig.from_mapping(io.read_report(args.config))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    labels, raw = generate_phantom(cfg)
    io.write_volume(args.out_prefix + "labels.v3dr", labels)
    io.write_volume(args.out_prefix + "raw.v3dr", raw)
    return 0


def _cmd_encode(args):
    labels = io.read_volume(args.labels, LabelVolume)
    bundle = encode_bundle(
        labels,
        args.variant,
        with_cpv=args.with_cpv,
        tanh_scale=args.tanh_scale,
        sigma=args.sigma,
    )
    io.write_volume(args.out, bundle.volume.astype(np.float32))
    return 0


def _cmd_segment(args):
    pred = io.read_volume(args.pred, Volume)
    cfg = PostprocConfig(
        variant=args.variant,
        seed_source=args.seed_source,
        seed_threshold=args.seed_threshold,
        foreground_threshold=args.fg_threshold,
        cpv_seed_threshold=args.cpv_seed_threshold,
        dilate_result=args.dilate,
    )
    io.write_volume(args.out, segment(pred, cfg, logits=args.logits))
    return 0


def _cmd_detect(args):
    pred = io.read_volume(args.pred, Volume)
    cfg = NmsConfig(gauss_threshold=args.gauss_threshold, nms_distance=args.nms_distance)
    io.write_detections(args.out, nms_detect(pred, cfg))
    return 0


def _cmd_evaluate(args):
    gt = io.read_volume(args.gt, LabelVolume)
    seg = io.read_volume(args.seg, LabelVolume) if args.seg else None
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

    p = sub.add_parser("encode", help="encode ground-truth labels into training targets")
    p.add_argument("labels", help="label volume (.v3dr)")
    p.add_argument("out", help="output target volume (.v3dr, f32)")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--with-cpv", action="store_true", help="append center-point-vector channels")
    p.add_argument("--tanh-scale", type=float, default=5.0, help="sdt tanh scale in voxels")
    p.add_argument("--sigma", type=float, default=2.0, help="gauss blob sigma in voxels")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("segment", help="watershed instance segmentation of a prediction")
    p.add_argument("pred", help="prediction volume (.v3dr)")
    p.add_argument("out", help="output label volume (.v3dr)")
    p.add_argument("--variant", required=True, choices=SEG_VARIANTS)
    p.add_argument("--seed-source", choices=("main", "cpv"), default="main")
    p.add_argument("--seed-threshold", type=float, default=0.0)
    p.add_argument("--fg-threshold", type=float, default=0.0)
    p.add_argument("--cpv-seed-threshold", type=float, default=0.0)
    p.add_argument("--dilate", action="store_true", help="dilate resulting instances once")
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
    except PlacementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (Nuclei3dError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy refuses an array too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
