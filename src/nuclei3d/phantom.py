"""Synthetic nuclei-like phantoms for desk-scale end-to-end verification.

Instances are axis-aligned ellipsoids placed by rejection sampling with a
seeded numpy PCG64 generator (``np.random.default_rng``), whose output
stream is stable across platforms, so phantom volumes are bit-reproducible
from their config alone.
"""

from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np
from scipy import ndimage as ndi

from .core import (
    LabelVolume, Volume, check_choice, check_keys, check_number, check_volume, round_half_away,
)
from .errors import PlacementError
from .targets import TargetBundle

__all__ = ["PhantomConfig", "generate_phantom", "perturb_target"]

_MAX_ATTEMPTS = 400
# Below this sigma the kernel radius r = int(4 sigma + 0.5) stays under 2**58 on 64 bits, so
# numpy can size the 2r + 1 taps; np.arange rounds the length, so the bound keeps a margin.
_MAX_SIGMA = (np.iinfo(np.intp).max // 32 + 1) // 4


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
            if f.type is bool:
                check_choice(f.name, value, (True, False))
            if f.type in (int, float):
                lt = _MAX_SIGMA if f.name == "smoothing_sigma" else None
                # numpy scalars become Python numbers, which the YAML report can write
                value = f.type(check_number(f.name, value, integer=f.type is int, ge=0, lt=lt))
                object.__setattr__(self, f.name, value)

    def to_mapping(self):
        return {**asdict(self), "shape": list(self.shape), "radius_range": list(self.radius_range)}

    @classmethod
    def from_mapping(cls, mapping):
        """Build a config from a YAML mapping; unknown or missing keys raise ValueError."""
        required = [f.name for f in fields(cls) if f.default is MISSING]
        check_keys("phantom config", mapping, [f.name for f in fields(cls)], required)
        return cls(**mapping)


def _ellipsoid_box(shape, center, semi):
    """The ellipsoid's bounding box in ``shape`` and the mask of its voxels inside that box."""
    box = tuple(
        slice(max(0, int(np.floor(c - r))), min(dim, int(np.ceil(c + r)) + 1))
        for dim, c, r in zip(shape, center, semi)
    )
    z, y, x = np.ogrid[box]
    inside = (
        ((z - center[0]) / semi[0]) ** 2
        + ((y - center[1]) / semi[1]) ** 2
        + ((x - center[2]) / semi[2]) ** 2
    ) <= 1.0
    return box, inside


def _too_close(center, placed, threshold):
    """Whether ``np.linalg.norm(center - placed[i]) < threshold[i]`` for some row i.

    Rows within a relative 1e-9 of their threshold take that scalar rule
    itself; :func:`generate_phantom` says why the others need not.
    """
    d = center - placed
    off = np.sqrt(np.einsum("ij,ij->i", d, d)) - threshold
    band = threshold * 1e-9
    if (off < -band).any():
        return True
    near = np.flatnonzero(np.abs(off) <= band)  # every other row has off > band
    return any(np.linalg.norm(center - placed[i]) < threshold[i] for i in near)


def generate_phantom(cfg):
    """Place ellipsoid instances and render a noisy intensity image.

    Without ``allow_touching``, centers are kept far enough apart that
    instance surfaces are separated by at least ``max(min_gap, 2)`` voxels
    (a conservative bounding-sphere test), so instances are never adjacent.
    With ``allow_touching`` any non-overlapping placement is accepted and
    adjacency is allowed. Returns ``(labels, raw_image)``; label IDs are
    1..n in placement order.

    Each attempt costs a fixed number of numpy calls, however many instances
    are placed: it reads the labels in its bounding box (``allow_touching``)
    or tests all placed centers at once. That test is exact: three rounded
    squares summed in any order (``np.linalg.norm``'s is BLAS ``ddot``) lie
    within a relative 3u of the exact sum (u = 2**-53), which ``sqrt``
    halves and rounds, so two such distances differ by about 5u at most; a
    distance within a relative 1e-9 of its threshold takes the norm itself.
    """
    rng = np.random.default_rng(check_volume("", cfg, PhantomConfig).rng_seed)
    labels = np.zeros(cfg.shape, dtype=np.int32)
    rmin, rmax = cfg.radius_range
    gap = max(cfg.min_gap, 2.0)
    min_margin = np.ceil(rmin) + 1
    if cfg.n_instances and any(2 * min_margin >= dim - 1 for dim in cfg.shape):
        raise PlacementError(
            f"placement-failure: shape {cfg.shape} too small for radius {rmin:.1f}"
        )
    # rows 0 .. instance - 2; grown as placed, so a huge n_instances ends in PlacementError
    centers, smax = np.empty((1, 3)), np.empty(1)

    for instance in range(1, cfg.n_instances + 1):
        n = instance - 1
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
                if labels[tuple(round_half_away(center).astype(np.intp))]:
                    continue
                box, inside = _ellipsoid_box(cfg.shape, center, semi)
                if labels[box][inside].any():
                    continue
            else:
                reach = semi.max()
                if n and _too_close(center, centers[:n], (reach + smax[:n]) + gap):
                    continue
                if n == len(smax):
                    centers, smax = np.resize(centers, (2 * n, 3)), np.resize(smax, 2 * n)
                centers[n], smax[n] = center, reach
                box, inside = _ellipsoid_box(cfg.shape, center, semi)
            labels[box][inside] = instance
            break
        else:
            raise PlacementError(
                f"placement-failure: gave up after {_MAX_ATTEMPTS} attempts "
                f"for instance {instance} of {cfg.n_instances}"
            )

    intensities = rng.uniform(0.6, 1.0, size=cfg.n_instances)
    raw = np.concatenate(([0.0], intensities))[labels]
    _smooth(raw, cfg.smoothing_sigma)
    if cfg.noise_sigma > 0:
        raw += rng.normal(0.0, cfg.noise_sigma, size=raw.shape)
    with np.errstate(over="ignore"):  # Volume refuses a value that overflows to inf
        raw = raw.astype(np.float32)
    return LabelVolume(labels), Volume(raw[np.newaxis])


# Planes of at least this many voxels take _smooth's numpy z and y passes.
_NUMPY_PLANE = 64 * 64
# Voxels per slab that _smooth's numpy passes work on, unless one (y, x)
# plane is larger: 256 KiB of float64 stays in cache.
_SLAB = 1 << 15


def _reflect_pad(x, pad):
    """Copy ``x`` into ``pad``, r <= n longer at each end of axis 1, as scipy's 'reflect'."""
    n = x.shape[1]
    r = (pad.shape[1] - n) // 2
    pad[:, r:r + n] = x
    pad[:, :r] = x[:, :r][:, ::-1]
    pad[:, r + n:] = x[:, n - r:][:, ::-1]


def _correlate(pad, out, tmp, w):
    """``out`` = ``pad`` correlated with ``w`` along axis 1, in scipy's symmetric sum order."""
    r = len(w) // 2
    n = out.shape[1]
    np.multiply(pad[:, r:r + n], w[r], out=out)
    for j in range(r, 0, -1):  # outside in
        np.add(pad[:, r - j:r - j + n], pad[:, r + j:r + j + n], out=tmp)
        tmp *= w[r - j]
        out += tmp


def _smooth(channel, sigma):
    """Smooth the 3d ``channel`` in place with a 3d Gaussian.

    Bit-identical to ``ndi.gaussian_filter(channel, sigma)`` (mode 'reflect',
    truncate 4.0, so a kernel radius r = int(4 sigma + 0.5)); like scipy, a
    sigma of 1e-15 or less changes nothing. ``ndi.gaussian_filter1d``
    smooths x, the contiguous axis. Its passes over the strided z and y axes
    slow down once a (y, x) plane outgrows the cache, so planes of
    ``_NUMPY_PLANE`` voxels or more take those two passes in numpy, a few
    planes per call, if r <= min(nz, ny). The numpy z pass pads a channel
    copy by r planes at each end, so that bound keeps its buffer within
    three channels; a larger r takes scipy's passes, which buffer a few
    lines at a time. Median per call, sigma 1, on a 2-core Xeon (scipy's
    passes -> numpy's): 6 x 32 x 128 x 128 took 128 -> 71 ms, 6 x 16 x 64 x
    64 took 12.4 -> 8.8 ms, but 6 x 16 x 48 x 48 took 6.2 -> 7.0 ms.
    """
    if sigma <= 1e-15:
        return
    r = int(4.0 * float(sigma) + 0.5)
    nz, ny, nx = channel.shape
    if ny * nx < _NUMPY_PLANE or r > min(nz, ny):
        ndi.gaussian_filter1d(channel, sigma, 0, output=channel)
        ndi.gaussian_filter1d(channel, sigma, 1, output=channel)
    else:
        w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
        w /= w.sum()
        b = max(1, _SLAB // (ny * nx))
        zpad = np.empty((1, nz + 2 * r, ny, nx))
        ypad = np.empty((b, ny + 2 * r, nx))
        tmp = np.empty((b, ny, nx))
        _reflect_pad(channel[np.newaxis], zpad)  # z reads the unsmoothed planes from here
        for z in range(0, nz, b):
            out = channel[z:z + b]
            m = len(out)
            _correlate(zpad[:, z:z + m + 2 * r], out[np.newaxis], tmp[np.newaxis, :m], w)
            _reflect_pad(out, ypad[:m])
            _correlate(ypad[:m], out, tmp[:m], w)
    ndi.gaussian_filter1d(channel, sigma, -1, output=channel)


# Value ranges restored after perturbation, per channel kind.
_CLAMP = {"sdt": (-1.0, 1.0), "3label": (0.0, 1.0), "affinities": (0.0, 1.0), "gauss": (0.0, 1.0)}


def perturb_target(bundle, noise_sigma, smoothing_sigma, rng_seed):
    """Simulate an imperfect network output from an exact target bundle.

    Adds seeded Gaussian noise, then smooths each channel with a separable
    Gaussian. Probability channels are clamped back to [0, 1] and the sdt
    channel to its tanh range [-1, 1]; vector channels are left free.

    With noise, each channel gets one draw, in channel order, just before
    ``_smooth`` takes that channel. PCG64 fills an array in C order, so the
    noise is the stream of one whole-volume draw, independent of
    ``OMP_NUM_THREADS`` and of the core count. ``_smooth`` says which passes
    run at which plane size and kernel radius.
    """
    check_volume("", bundle, TargetBundle)
    check_number("noise_sigma", noise_sigma, ge=0)
    check_number("smoothing_sigma", smoothing_sigma, ge=0, lt=_MAX_SIGMA)
    check_number("rng_seed", rng_seed, integer=True, ge=0)
    rng = np.random.default_rng(rng_seed)
    data = bundle.volume.data.astype(np.float64)
    for channel in data:
        if noise_sigma > 0:
            channel += rng.normal(0.0, noise_sigma, size=channel.shape)
        _smooth(channel, smoothing_sigma)
    lo, hi = _CLAMP[bundle.variant]
    main = bundle.main_channels
    np.clip(data[:main], lo, hi, out=data[:main])
    return TargetBundle(
        Volume(data, bundle.volume.voxel_size), bundle.variant, bundle.with_cpv
    )
