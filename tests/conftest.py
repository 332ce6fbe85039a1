import numpy as np
import pytest

from nuclei3d import LabelVolume


def random_blob_labels(rng, shape, n_blobs, rmax=3):
    """Random non-overlapping blobby instances; later blobs skip claimed voxels."""
    lab = np.zeros(shape, dtype=np.int32)
    next_id = 1
    for _ in range(n_blobs):
        c = [rng.integers(0, s) for s in shape]
        r = rng.integers(1, rmax + 1, size=3)
        z = np.arange(shape[0])[:, None, None]
        y = np.arange(shape[1])[None, :, None]
        x = np.arange(shape[2])[None, None, :]
        inside = (
            ((z - c[0]) / r[0]) ** 2 + ((y - c[1]) / r[1]) ** 2 + ((x - c[2]) / r[2]) ** 2
        ) <= 1.0
        inside &= lab == 0
        if inside.any():
            lab[inside] = next_id
            next_id += 1
    return lab


def ball_labels(shape=(9, 9, 9), center=(4, 4, 4), r=3.0, instance=1):
    """One spherical instance of radius ``r`` voxels."""
    z, y, x = np.ogrid[: shape[0], : shape[1], : shape[2]]
    inside = ((z - center[0]) ** 2 + (y - center[1]) ** 2 + (x - center[2]) ** 2) <= r * r
    lab = np.zeros(shape, dtype=np.int32)
    lab[inside] = instance
    return LabelVolume(lab)


def edge_labels(rng):
    """Label arrays where few or no voxels have six in-bounds face neighbours.

    Axes of length 1 or 2, a single voxel, blocks that fill the whole volume
    and IDs at the top of the int32 range.
    """
    thin = [
        random_blob_labels(rng, shape, 3, rmax=2)
        for shape in ((1, 6, 7), (2, 5, 6), (5, 2, 6), (6, 5, 1), (2, 2, 2))
    ]
    full = [np.full(shape, i, dtype=np.int32) for shape, i in (
        ((1, 1, 1), 7), ((1, 1, 1), 0), ((1, 3, 2), 4), ((3, 4, 5), 2), ((5, 5, 5), 2**31 - 1)
    )]
    top = [np.where(lab > 0, 2**31 - lab.astype(np.int64), 0) for lab in thin]
    return thin + full + top


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def blobs(rng):
    lab = random_blob_labels(rng, (10, 12, 11), 5)
    assert lab.max() >= 2
    return LabelVolume(lab)
