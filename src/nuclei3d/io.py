"""Bit-exact file formats: raw volumes, detection CSVs, YAML reports.

Volume container (``.v3dr``), all fields little-endian::

    bytes 0..3    magic "V3DR"
    bytes 4..7    version, u32, currently 1
    bytes 8..11   dtype tag, u32: 0=u8, 1=u16, 2=i32, 3=f32
    bytes 12..27  channels, nz, ny, nx as u32
    bytes 28..51  voxel size (dz, dy, dx) as f64
    bytes 52..    payload, C-order with (c, z, y, x) indexing, x fastest

The i32 dtype is reserved for label volumes (single channel); everything
else reads back as a :class:`~nuclei3d.core.Volume`. Detections are CSV
with header ``z,y,x,score``, floats at 17 significant digits so that a
write/read round trip is lossless. Reports and configs are YAML with keys
emitted in a fixed order so files diff cleanly.
"""

import math
import os
import struct
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import yaml

from .core import LabelVolume, Volume, VoxelSize, check_finite, check_volume
from .errors import (
    BadMagicError,
    FormatError,
    MalformedRowError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    UnsupportedVersionError,
)

__all__ = [
    "Detection",
    "read_volume",
    "write_volume",
    "read_detections",
    "write_detections",
    "read_report",
    "write_report",
]

_KINDS = {LabelVolume: "label volume", Volume: "scalar volume"}
_MAGIC = b"V3DR"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIIIIddd")

_TAG_DTYPES = {
    0: np.dtype("<u1"),
    1: np.dtype("<u2"),
    2: np.dtype("<i4"),
    3: np.dtype("<f4"),
}
_DTYPE_TAGS = {dtype.newbyteorder("="): tag for tag, dtype in _TAG_DTYPES.items()}


@contextmanager
def names_file(path, prefix=""):
    """Re-raise a TypeError, ValueError or YAML error as FormatError("<path>: <prefix>...")."""
    try:
        yield
    except (TypeError, ValueError, yaml.YAMLError) as exc:
        raise FormatError(f"{path}: {prefix}{exc}") from None


class Detection(NamedTuple):
    """One detected center point, continuous voxel coordinates plus score."""

    z: float
    y: float
    x: float
    score: float


def check_detections(detections):
    """``detections`` as ``(n, 4)`` float64 rows ``(z, y, x, score)``, ``(0, 4)`` if empty;
    refuses (``ValueError``) any other shape, such as a flat list, and a non-finite value."""
    rows = np.array(detections, dtype=np.float64)
    if rows.shape == (0,):
        rows = rows.reshape(0, 4)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(f"detections must be (z, y, x, score) rows, got shape {rows.shape}")
    return check_finite("detections", rows)


def write_volume(path, volume):
    """Write a Volume or LabelVolume; round trips bit-exactly.

    Label volumes are stored as single-channel i32. Scalar volumes must
    already carry one of the supported dtypes (u8, u16, f32); i32 is
    reserved for labels.
    """
    if isinstance(volume, LabelVolume):
        data = volume.labels[np.newaxis]
    else:
        data = check_volume("scalar", volume).data
        if data.dtype == np.dtype(np.int32):
            raise UnsupportedDtypeError(
                "i32 is reserved for label volumes; cast scalar data to f32"
            )
        if data.dtype not in _DTYPE_TAGS:
            raise UnsupportedDtypeError(f"unsupported volume dtype {data.dtype}")

    header = _HEADER.pack(
        _MAGIC, _VERSION, _DTYPE_TAGS[data.dtype], *data.shape, *volume.voxel_size.as_tuple()
    )
    payload = np.ascontiguousarray(data, dtype=data.dtype.newbyteorder("<"))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_volume(path, kind=None):
    """Read a ``.v3dr`` file back into a Volume or LabelVolume, of type ``kind`` if given."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TruncatedPayloadError(f"{path}: header truncated")
        magic, version, tag, channels, nz, ny, nx, dz, dy, dx = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise UnsupportedVersionError(f"{path}: unsupported version {version}")
        if tag not in _TAG_DTYPES:
            raise UnsupportedDtypeError(f"{path}: unknown dtype tag {tag}")
        found = LabelVolume if tag == 2 else Volume
        if kind not in (None, found):
            raise FormatError(f"{path}: expected a {_KINDS[kind]}, got a {_KINDS[found]}")
        if min(channels, nz, ny, nx) <= 0:
            raise FormatError(f"{path}: non-positive count in header")
        dtype = _TAG_DTYPES[tag]
        expected = channels * nz * ny * nx * dtype.itemsize
        # the file's size, not the header alone, decides whether the array is allocated
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size == expected:
            data = np.empty((channels, nz, ny, nx), dtype=dtype)
            size = fh.readinto(data)
    if size != expected:
        raise TruncatedPayloadError(
            f"{path}: payload has {size} bytes, header declares {expected}"
        )
    if tag == 2 and channels != 1:
        raise FormatError(f"{path}: label volumes must be single-channel")
    data = data.astype(dtype.newbyteorder("="), copy=False)
    # a payload fault (a negative label ID, a non-finite value) names the file too
    with names_file(path):
        voxel_size = VoxelSize(dz, dy, dx)
        return LabelVolume(data[0], voxel_size) if tag == 2 else Volume(data, voxel_size)


def write_detections(path, detections):
    """Write detections as CSV, sorted by descending score (stable)."""
    rows = check_detections(detections)
    rows = rows[np.argsort(-rows[:, 3], kind="stable")]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("z,y,x,score\n")
        for z, y, x, score in rows.tolist():
            fh.write(f"{z:.17g},{y:.17g},{x:.17g},{score:.17g}\n")


def read_detections(path):
    """Read a detection CSV; raises MalformedRowError naming the bad line.

    A row ends at a line feed, optionally preceded by one carriage return; a
    carriage return anywhere else is refused.
    """
    detections = []
    with open(path, "r", encoding="ascii", newline="") as fh, names_file(path):
        lines = fh.read().replace("\r\n", "\n").split("\n")
    if lines[0] != "z,y,x,score":
        raise MalformedRowError(f"{path}: line 1: expected header 'z,y,x,score'")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        if "\r" in line:
            raise MalformedRowError(f"{path}: line {lineno}: carriage return inside the row")
        fields = line.split(",")
        if len(fields) != 4:
            raise MalformedRowError(f"{path}: line {lineno}: expected 4 fields")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise MalformedRowError(f"{path}: line {lineno}: non-numeric field") from None
        if not all(map(math.isfinite, values)):
            raise MalformedRowError(f"{path}: line {lineno}: non-finite value")
        detections.append(Detection(*values))
    return detections


def write_report(path, mapping):
    """Write a nested mapping as YAML, preserving key order."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(mapping, fh, sort_keys=False, default_flow_style=False)


def read_report(path):
    """Read a YAML report or config file into plain Python objects."""
    with open(path, "r", encoding="utf-8") as fh, names_file(path, "malformed YAML: "):
        return yaml.safe_load(fh)
