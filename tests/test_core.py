import math

import numpy as np
import pytest

from nuclei3d import (
    LabelVolume,
    NmsConfig,
    PhantomConfig,
    PostprocConfig,
    Volume,
    VoxelSize,
    combined_loss,
    connected_components,
    dilate_instances,
    encode_gauss,
    encode_sdt,
    erode_instances,
    extract_seeds_cpv,
    instance_centers,
    ssd_loss,
)
from nuclei3d.core import _relabel_raster_order
from nuclei3d.errors import ShapeMismatchError

from conftest import random_blob_labels
from oracles import com_oracle, dilate_oracle, erode_oracle, unionfind_components


def make_labels(coords_by_id, shape=(6, 6, 6)):
    lab = np.zeros(shape, dtype=np.int32)
    for i, coords in coords_by_id.items():
        for c in coords:
            lab[c] = i
    return LabelVolume(lab)


class TestContainers:
    def test_voxel_size_positive(self):
        with pytest.raises(ValueError):
            VoxelSize(0.1, -1.0, 0.1)

    def test_volume_promotes_3d(self):
        v = Volume(np.zeros((2, 3, 4), dtype=np.float32))
        assert v.channels == 1 and v.shape == (2, 3, 4)

    def test_volume_rejects_nonfinite(self):
        data = np.zeros((1, 2, 2, 2))
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Volume(data)

    def test_volume_read_only(self):
        v = Volume(np.zeros((1, 2, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            v.data[0, 0, 0, 0] = 1.0

    def test_labels_reject_negative_and_float(self):
        with pytest.raises(ValueError):
            LabelVolume(np.full((2, 2, 2), -1, dtype=np.int32))
        with pytest.raises(ValueError):
            LabelVolume(np.zeros((2, 2, 2), dtype=np.float32))

    def test_label_equality_is_bit_exact(self):
        a = LabelVolume(np.ones((2, 2, 2), dtype=np.int32))
        b = LabelVolume(np.ones((2, 2, 2), dtype=np.int32))
        c = LabelVolume(np.ones((2, 2, 2), dtype=np.int64))
        assert a == b and a != c


class TestIds:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64, np.uint64])
    def test_matches_unique(self, rng, dtype):
        top = np.iinfo(dtype).max
        for lab in (
            rng.choice(np.array([0, 1, 7, 200, top], dtype=dtype), size=(4, 5, 6)),
            np.where(rng.random((3, 4, 5)) < 0.5, rng.integers(0, 255, (3, 4, 5)), 0).astype(dtype),
            np.zeros((2, 3, 4), dtype=dtype),
        ):
            ids = LabelVolume(lab).ids()
            expected = np.unique(lab)[np.unique(lab) > 0]
            assert ids.dtype == expected.dtype == dtype
            np.testing.assert_array_equal(ids, expected)

    def test_uint64_ids_that_float64_merges(self):
        # 2**63 + 1 and 2**63 + 2 are one float64 value
        lab = np.array([[[2**63 + 2, 0, 2**63 + 1]]], dtype=np.uint64)
        assert LabelVolume(lab).ids().tolist() == [2**63 + 1, 2**63 + 2]
        assert instance_centers(LabelVolume(lab))[0].tolist() == [2**63 + 1, 2**63 + 2]

    def test_ids_and_counts_are_cached_read_only(self):
        lv = LabelVolume(np.array([[[3, 0, 3, 1]]], dtype=np.int32))
        ids, counts = lv.id_counts
        assert ids.tolist() == [1, 3] and counts.tolist() == [1, 2]
        assert lv.id_counts is lv.id_counts and lv.ids() is ids
        assert not ids.flags.writeable and not counts.flags.writeable


class TestCenterOfMass:
    """``instance_centers`` rows as the center of mass of one instance."""

    def test_single_voxel(self):
        ids, counts, centers = instance_centers(make_labels({1: [(2, 3, 4)]}))
        assert ids.tolist() == [1] and counts.tolist() == [1]
        assert centers.tolist() == [[2.0, 3.0, 4.0]]

    def test_two_voxel_midpoint(self):
        _, counts, centers = instance_centers(make_labels({1: [(0, 0, 0), (0, 0, 2)]}))
        assert counts.tolist() == [2] and centers.tolist() == [[0.0, 0.0, 1.0]]

    def test_random_blob_matches_summation_oracle(self, rng):
        for _ in range(5):
            lab = np.zeros((6, 6, 6), dtype=np.int32)
            picks = rng.choice(6 * 6 * 6, size=8, replace=False)
            lab.ravel()[picks] = 7
            ids, counts, centers = instance_centers(LabelVolume(lab))
            assert ids.tolist() == [7] and counts.tolist() == [8]
            np.testing.assert_allclose(centers[0], com_oracle(lab, 7), atol=1e-12)

    def test_point_symmetric_set_has_symmetric_center(self):
        lv = make_labels({1: [(1, 1, 1), (3, 3, 3), (1, 3, 1), (3, 1, 3)]})
        assert instance_centers(lv)[2].tolist() == [[2.0, 2.0, 2.0]]


class TestInstanceCenters:
    def test_matches_per_instance_formula(self, rng):
        for _ in range(5):
            lab = random_blob_labels(rng, (9, 10, 11), 6)
            # non-contiguous IDs whose order differs from raster order
            remap = np.concatenate(([0], rng.choice(np.arange(1, 1000), lab.max(), replace=False)))
            lab = remap[lab].astype(np.int32)
            lv = LabelVolume(lab)
            ids, counts, centers = instance_centers(lv)
            np.testing.assert_array_equal(ids, lv.ids())
            np.testing.assert_array_equal(counts, np.bincount(lab.ravel())[ids])
            for i, center in zip(ids, centers):
                assert center.tolist() == [k.mean() for k in np.nonzero(lab == i)]

    def test_background_only(self):
        ids, counts, centers = instance_centers(LabelVolume(np.zeros((3, 4, 5), np.int32)))
        assert ids.size == 0 and counts.size == 0 and centers.shape == (0, 3)


class TestErode:
    def test_zero_iterations_is_identity(self, blobs):
        assert erode_instances(blobs, 0) == blobs

    def test_cube_keeps_only_center(self):
        lab = np.zeros((5, 5, 5), dtype=np.int32)
        lab[1:4, 1:4, 1:4] = 3
        out = erode_instances(LabelVolume(lab), 1).labels
        expected = np.zeros_like(lab)
        expected[2, 2, 2] = 3
        np.testing.assert_array_equal(out, expected)

    def test_single_voxel_vanishes(self):
        lv = make_labels({1: [(2, 2, 2)]})
        assert erode_instances(lv, 1).labels.sum() == 0

    def test_matches_neighborhood_oracle(self, rng):
        for _ in range(5):
            lab = random_blob_labels(rng, (7, 8, 7), 4)
            for iterations in (1, 2):
                got = erode_instances(LabelVolume(lab), iterations).labels
                np.testing.assert_array_equal(got, erode_oracle(lab, iterations))

    def test_volume_border_counts_as_background(self):
        lab = np.ones((3, 3, 3), dtype=np.int32)
        out = erode_instances(LabelVolume(lab), 1).labels
        assert out.sum() == out[1, 1, 1] == 1


class TestDilate:
    def test_zero_iterations_is_identity(self, blobs):
        assert dilate_instances(blobs, 0) == blobs

    def test_single_voxel_becomes_plus(self):
        lv = make_labels({1: [(2, 2, 2)]}, shape=(5, 5, 5))
        out = dilate_instances(lv, 1).labels
        assert out.sum() == 7
        assert out[2, 2, 2] == out[1, 2, 2] == out[2, 3, 2] == 1

    def test_contested_voxel_goes_to_smaller_id(self):
        lv = make_labels({2: [(2, 2, 1)], 5: [(2, 2, 3)]}, shape=(5, 5, 5))
        out = dilate_instances(lv, 1).labels
        assert out[2, 2, 2] == 2

    def test_existing_foreground_never_overwritten(self, rng):
        lab = random_blob_labels(rng, (8, 8, 8), 4)
        out = dilate_instances(LabelVolume(lab), 2).labels
        fg = lab > 0
        np.testing.assert_array_equal(out[fg], lab[fg])

    def test_matches_adjacency_oracle(self, rng):
        for _ in range(5):
            lab = random_blob_labels(rng, (7, 7, 8), 4)
            got = dilate_instances(LabelVolume(lab), 1).labels
            np.testing.assert_array_equal(got, dilate_oracle(lab, 1))

    def test_open_never_enlarges(self, rng):
        for _ in range(5):
            lab = random_blob_labels(rng, (8, 8, 8), 3)
            for k in (1, 2):
                opened = dilate_instances(erode_instances(LabelVolume(lab), k), k).labels
                assert ((opened != 0) & (opened != lab)).sum() == 0


class TestConnectedComponents:
    def test_empty_mask(self):
        out = connected_components(Volume(np.zeros((3, 3, 3), dtype=bool)))
        assert out.ids().size == 0

    def test_two_disjoint_voxels_in_raster_order(self):
        mask = np.zeros((3, 3, 3), dtype=bool)
        mask[0, 0, 2] = True
        mask[2, 0, 0] = True
        out = connected_components(Volume(mask)).labels
        assert out[0, 0, 2] == 1 and out[2, 0, 0] == 2

    def test_matches_union_find_oracle(self, rng):
        for _ in range(10):
            mask = rng.random((10, 10, 10)) < 0.3
            got = connected_components(Volume(mask, VoxelSize(2.0, 1.0, 1.0)))
            np.testing.assert_array_equal(got.labels, unionfind_components(mask))
            assert got.voxel_size == VoxelSize(2.0, 1.0, 1.0)

    def test_relabel_undoes_any_id_permutation(self, rng):
        # ndi.label already numbers in raster order on every mask tried, so the
        # relabel is checked directly on shuffled IDs
        for shape in ((6, 9, 7), (11, 5, 8), (4, 12, 13)):
            mask = rng.random(shape) < 0.35
            expected = unionfind_components(mask)
            n = int(expected.max())
            perm = np.concatenate([[0], rng.permutation(n) + 1]).astype(np.int32)
            shuffled = perm[expected]
            assert n > 5 and not np.array_equal(shuffled, expected)
            np.testing.assert_array_equal(_relabel_raster_order(shuffled, n), expected)

    def test_volume_input_single_channel_only(self):
        with pytest.raises(ShapeMismatchError):
            connected_components(Volume(np.zeros((2, 2, 2, 2), dtype=np.uint8)))


def _phantom(**kwargs):
    return PhantomConfig(**{"shape": (8, 8, 8), "n_instances": 1, "radius_range": (2, 3), **kwargs})


def _cpv_seeds(threshold):
    return extract_seeds_cpv(Volume(np.zeros((3, 2, 2, 2))), np.ones((2, 2, 2), bool), threshold)


def _combined(weight):
    cpv = Volume(np.zeros((3, 2, 2, 2)))
    return combined_loss(ssd_loss(cpv, cpv), cpv, cpv, Volume(np.ones((1, 2, 2, 2))), weight)


_BLOB = LabelVolume(np.pad(np.ones((1, 1, 1), np.int32), 1))

# (key named in the error, call with the value, refused value just past the bound or None,
#  accepted value at or just inside the bound)
NUMBER_PARAMETERS = {
    "phantom.n_instances": ("n_instances", lambda v: _phantom(n_instances=v), -1, 0),
    "phantom.rng_seed": ("rng_seed", lambda v: _phantom(rng_seed=v), -1, 0),
    "phantom.min_gap": ("min_gap", lambda v: _phantom(min_gap=v), math.nextafter(0, -1), 0.0),
    "phantom.noise_sigma": (
        "noise_sigma", lambda v: _phantom(noise_sigma=v), math.nextafter(0, -1), 0.0),
    "phantom.smoothing_sigma": (
        "smoothing_sigma", lambda v: _phantom(smoothing_sigma=v), math.nextafter(0, -1), 0.0),
    "phantom.shape": ("shape[1]", lambda v: _phantom(shape=(8, v, 8)), 0, 1),
    "phantom.radius_range": (
        "radius_range[0]", lambda v: _phantom(radius_range=(v, 3)), math.nextafter(1, 0), 1.0),
    "postproc.seed_threshold": (
        "seed_threshold", lambda v: PostprocConfig("sdt", seed_threshold=v), None, -1.5),
    "postproc.foreground_threshold": (
        "foreground_threshold", lambda v: PostprocConfig("sdt", foreground_threshold=v), None, -1.5),
    "postproc.cpv_seed_threshold": (
        "cpv_seed_threshold", lambda v: PostprocConfig("sdt", cpv_seed_threshold=v),
        math.nextafter(0, -1), 0.0),
    "extract_seeds_cpv": ("cpv_seed_threshold", _cpv_seeds, math.nextafter(0, -1), 0),
    "nms.nms_distance": ("nms_distance", lambda v: NmsConfig(0.5, v), 0, 1),
    "nms.gauss_threshold": ("gauss_threshold", lambda v: NmsConfig(v, 1), None, -1.5),
    "encode_sdt": ("scale", lambda v: encode_sdt(_BLOB, scale=v), 0.0, 0.5),
    "encode_gauss": ("sigma", lambda v: encode_gauss(_BLOB, sigma=v), 0.0, 0.5),
    "voxel_size.dz": ("voxel size dz", lambda v: VoxelSize(dz=v), 0.0, 0.5),
    "voxel_size.dy": ("voxel size dy", lambda v: VoxelSize(dy=v), 0.0, 0.5),
    "voxel_size.dx": ("voxel size dx", lambda v: VoxelSize(dx=v), 0.0, 0.5),
    "erode": ("iterations", lambda v: erode_instances(_BLOB, v), -1, 0),
    "dilate": ("iterations", lambda v: dilate_instances(_BLOB, v), -1, 0),
    "combined_loss": ("main_weight", _combined, 0.0, 0.5),
}


@pytest.mark.parametrize(
    "caller,value",
    [
        pytest.param(caller, value, id=f"{caller}-{value!r}")
        for caller, (_, _, past, _) in NUMBER_PARAMETERS.items()
        for value in (True, np.True_, "1", None, math.nan, math.inf)
        + (() if past is None else (past,))
    ],
)
def test_number_parameter_refused_naming_key(caller, value):
    key, call, _, _ = NUMBER_PARAMETERS[caller]
    with pytest.raises(ValueError) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(f"{key} must be ") and message.endswith(f", got {value!r}")


@pytest.mark.parametrize("caller", NUMBER_PARAMETERS)
def test_number_parameter_accepted_at_bound(caller):
    _, call, _, edge = NUMBER_PARAMETERS[caller]
    call(edge)
    call(np.float32(edge) if isinstance(edge, float) else np.int64(edge))
