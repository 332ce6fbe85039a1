"""Synthetic nuclei-like phantoms for desk-scale end-to-end verification.

Instances are axis-aligned ellipsoids placed by rejection sampling with a
seeded numpy PCG64 generator (``np.random.default_rng``), whose output
stream is stable across platforms, so phantom volumes are bit-reproducible
from their config alone.
"""

from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy import ndimage as ndi

from .core import LabelVolume, Volume, check_number
from .errors import PlacementError
from .targets import TargetBundle

__all__ = ["PhantomConfig", "generate_phantom", "perturb_target"]

_MAX_ATTEMPTS = 400


@dataclass(frozen=True)
class PhantomConfig:
    """Geometry, separation and noise parameters for one phantom."""

    shape: tuple
    n_instances: int
    radius_range: tuple
    allow_touching: bool = False
    min_gap: float = 2.0
    rng_seed: int = 0
    noise_sigma: float = 0.0
    smoothing_sigma: float = 0.0

    def __post_init__(self):
        for key, size, integer in (("shape", 3, True), ("radius_range", 2, False)):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)) or len(value) != size:
                raise ValueError(f"{key} must be a list of length {size}, got {value!r}")
            checked = (check_number(f"{key}[{i}]", v, integer, ge=1) for i, v in enumerate(value))
            object.__setattr__(self, key, tuple(map(int if integer else float, checked)))
        if self.radius_range[0] > self.radius_range[1]:
            raise ValueError(f"radius_range must have min <= max, got {list(self.radius_range)}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is bool and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be true or false, got {value!r}")
            if f.type in (int, float):
                # numpy scalars become Python numbers, which the YAML report can write
                value = f.type(check_number(f.name, value, integer=f.type is int, ge=0))
                object.__setattr__(self, f.name, value)

    def to_mapping(self):
        m = asdict(self)
        m["shape"] = list(self.shape)
        m["radius_range"] = list(self.radius_range)
        return m

    @classmethod
    def from_mapping(cls, mapping):
        """Build a config from a YAML mapping; unknown keys raise ValueError."""
        if not isinstance(mapping, dict):
            raise ValueError(f"phantom config must be a mapping, got {type(mapping).__name__}")
        unknown = sorted(map(str, set(mapping) - {f.name for f in fields(cls)}))
        if unknown:
            raise ValueError(f"unknown phantom config key(s): {', '.join(unknown)}")
        return cls(**mapping)


def _ellipsoid_voxels(shape, center, semi):
    """Voxel coordinates inside the ellipsoid, limited to its bounding box."""
    slices = []
    for dim, c, r in zip(shape, center, semi):
        lo = max(0, int(np.floor(c - r)))
        hi = min(dim - 1, int(np.ceil(c + r)))
        slices.append((lo, hi))
    (z0, z1), (y0, y1), (x0, x1) = slices
    z = np.arange(z0, z1 + 1, dtype=np.float64)[:, None, None]
    y = np.arange(y0, y1 + 1, dtype=np.float64)[None, :, None]
    x = np.arange(x0, x1 + 1, dtype=np.float64)[None, None, :]
    inside = (
        ((z - center[0]) / semi[0]) ** 2
        + ((y - center[1]) / semi[1]) ** 2
        + ((x - center[2]) / semi[2]) ** 2
    ) <= 1.0
    zz, yy, xx = np.nonzero(inside)
    return zz + z0, yy + y0, xx + x0


def generate_phantom(cfg):
    """Place ellipsoid instances and render a noisy intensity image.

    Without ``allow_touching``, centers are kept far enough apart that
    instance surfaces are separated by at least ``max(min_gap, 2)`` voxels
    (a conservative bounding-sphere test), so instances are never adjacent.
    With ``allow_touching`` any non-overlapping placement is accepted and
    adjacency is allowed. Returns ``(labels, raw_image)``; label IDs are
    1..n in placement order.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    labels = np.zeros(cfg.shape, dtype=np.int32)
    rmin, rmax = cfg.radius_range
    gap = max(cfg.min_gap, 2.0)
    min_margin = np.ceil(rmin) + 1
    if cfg.n_instances and any(2 * min_margin >= dim - 1 for dim in cfg.shape):
        raise PlacementError(
            f"placement-failure: shape {cfg.shape} too small for radius {rmin:.1f}"
        )
    placed = []

    for instance in range(1, cfg.n_instances + 1):
        for attempt in range(_MAX_ATTEMPTS):
            semi = rng.uniform(rmin, rmax, size=3)
            margin = np.ceil(semi) + 1
            if any(2 * m >= dim - 1 for m, dim in zip(margin, cfg.shape)):
                continue
            center = np.array(
                [rng.uniform(m, dim - 1 - m) for m, dim in zip(margin, cfg.shape)]
            )
            if cfg.allow_touching:
                # every semi-axis is >= 1 > sqrt(3)/2, so the rounded center voxel lies
                # inside the ellipsoid: when it is taken, the full test would reject too
                if labels[tuple(np.rint(center).astype(np.intp))]:
                    continue
                zz, yy, xx = _ellipsoid_voxels(cfg.shape, center, semi)
                if labels[zz, yy, xx].any():
                    continue
                labels[zz, yy, xx] = instance
                placed.append((center, semi))
                break
            reach = semi.max()
            if all(
                np.linalg.norm(center - c) >= reach + s.max() + gap for c, s in placed
            ):
                zz, yy, xx = _ellipsoid_voxels(cfg.shape, center, semi)
                labels[zz, yy, xx] = instance
                placed.append((center, semi))
                break
        else:
            raise PlacementError(
                f"placement-failure: gave up after {_MAX_ATTEMPTS} attempts "
                f"for instance {instance} of {cfg.n_instances}"
            )

    intensities = rng.uniform(0.6, 1.0, size=cfg.n_instances)
    raw = np.concatenate(([0.0], intensities))[labels]
    if cfg.smoothing_sigma > 0:
        raw = ndi.gaussian_filter(raw, cfg.smoothing_sigma)
    if cfg.noise_sigma > 0:
        raw = raw + rng.normal(0.0, cfg.noise_sigma, size=cfg.shape)
    return (
        LabelVolume(labels),
        Volume(raw.astype(np.float32)[np.newaxis]),
    )


# Value ranges restored after perturbation, per channel kind.
_CLAMP = {"sdt": (-1.0, 1.0), "3label": (0.0, 1.0), "affinities": (0.0, 1.0), "gauss": (0.0, 1.0)}


def perturb_target(bundle, noise_sigma, smoothing_sigma, rng_seed):
    """Simulate an imperfect network output from an exact target bundle.

    Adds seeded Gaussian noise, then smooths each channel with a separable
    Gaussian. Probability channels are clamped back to [0, 1] and the sdt
    channel to its tanh range [-1, 1]; vector channels are left free.
    """
    rng = np.random.default_rng(rng_seed)
    data = bundle.volume.data.astype(np.float64, copy=True)
    if noise_sigma > 0:
        data += rng.normal(0.0, noise_sigma, size=data.shape)
    if smoothing_sigma > 0:
        for c in range(data.shape[0]):
            data[c] = ndi.gaussian_filter(data[c], smoothing_sigma)
    lo, hi = _CLAMP[bundle.variant]
    main = bundle.main_channels
    np.clip(data[:main], lo, hi, out=data[:main])
    return TargetBundle(
        Volume(data, bundle.volume.voxel_size), bundle.variant, bundle.with_cpv
    )
