"""Volumetric toolkit for 3d nuclei instance segmentation and detection.

Covers ground-truth target encoding (signed distance, 3-label, affinities,
Gaussian blobs, center-point vectors), the matching losses with analytic
gradients, watershed-based instance extraction, detection NMS, AP metrics,
hyper-parameter sweeps, and a synthetic phantom generator.
"""

from .core import (
    LabelVolume,
    Volume,
    VoxelSize,
    connected_components,
    dilate_instances,
    erode_instances,
)
from .detection import NmsConfig, centroids_from_labels, nms_detect
from .io import (
    Detection,
    read_detections,
    read_report,
    read_volume,
    write_detections,
    write_report,
    write_volume,
)
from .losses import (
    LossResult,
    combined_loss,
    main_loss_weight,
    sigmoid_bce_loss,
    softmax_ce_loss,
    ssd_loss,
)
from .metrics import (
    IOU_THRESHOLDS,
    EvalReport,
    aggregate_reports,
    detection_ap,
    evaluate,
    iou_matrix,
    segmentation_ap,
)
from .phantom import PhantomConfig, generate_phantom, perturb_target
from .postproc import (
    PostprocConfig,
    TopographicMap,
    accumulate_votes,
    build_topography,
    extract_seeds_cpv,
    extract_seeds_main,
    segment,
    watershed,
)
from .sweep import SweepResult, SweepSpec, load_sweep_spec, run_sweep
from .targets import (
    MAIN_CHANNELS,
    VARIANTS,
    TargetBundle,
    encode_affinities,
    encode_bundle,
    encode_cpv,
    encode_gauss,
    encode_sdt,
    encode_three_label,
    signed_boundary_distance,
)

__version__ = "0.1.0"
