import math
import re

import numpy as np
import pytest

from nuclei3d import (
    LabelVolume,
    NmsConfig,
    PhantomConfig,
    PostprocConfig,
    TopographicMap,
    Volume,
    VoxelSize,
    combined_loss,
    connected_components,
    dilate_instances,
    encode_bundle,
    encode_gauss,
    encode_sdt,
    erode_instances,
    extract_seeds_cpv,
    perturb_target,
    ssd_loss,
)
from nuclei3d.core import check_number, components, pair_counts
from nuclei3d.errors import ShapeMismatchError

from conftest import edge_labels, random_blob_labels
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

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_refused_by_volume_and_map_alike(self, dtype, bad):
        data = np.zeros((2, 2, 2), dtype=dtype)
        data[1, 0, 1] = bad
        with pytest.raises(ValueError, match="^volume values must be finite$"):
            Volume(data)
        with pytest.raises(ValueError, match="^topography values must be finite$"):
            TopographicMap(data, np.ones(data.shape, dtype=bool))

    @pytest.mark.parametrize(
        "data",
        [
            np.full((2, 2, 2), complex(np.nan, 0.0)),
            np.full((2, 2, 2), 1 + 0j),
            np.full((2, 2, 2), 1.0, dtype=object),
            np.full((2, 2, 2), "1.0"),
        ],
        ids=["complex-nan", "complex", "object", "str"],
    )
    def test_non_real_dtype_refused_by_volume_and_map_alike(self, data):
        for what, make in (
            ("volume values", Volume),
            ("topography values", lambda v: TopographicMap(v, np.ones(v.shape, dtype=bool))),
        ):
            with pytest.raises(ValueError) as info:
                make(data)
            assert type(info.value) is ValueError
            assert str(info.value) == f"{what} must be real numbers, got dtype {data.dtype}"

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int32, np.int64, np.float32])
    def test_real_dtypes_accepted_by_volume_and_map_alike(self, dtype):
        data = np.ones((2, 2, 2), dtype=dtype)
        assert Volume(data).data.dtype == dtype
        assert TopographicMap(data, data).values.dtype == dtype

    def test_overflowing_cast_is_the_finiteness_refusal_alone(self):
        # the overflow warning of the cast would raise first under error::RuntimeWarning
        with pytest.raises(ValueError, match="^volume values must be finite$"):
            Volume(np.full((7, 7, 7), 1e300)).astype(np.float32)

    @pytest.mark.parametrize(
        "data,dtype,expected",
        [
            (np.full((2, 2, 2), -1.0), np.uint8, "uint8 range [0, 255], got -1.0"),
            (np.full((2, 2, 2), 300, np.int32), np.uint8, "uint8 range [0, 255], got 300"),
            (np.full((2, 2, 2), 1e300), np.int32,
             "int32 range [-2147483648, 2147483647], got 1e+300"),
            # 2.0**63 would pass a float comparison with int64's maximum, which rounds up to it
            (np.full((2, 2, 2), 2.0**63), np.int64,
             "int64 range [-9223372036854775808, 9223372036854775807], got 9.223372036854776e+18"),
            (np.full((2, 2, 2), -1, np.int64), np.uint64,
             "uint64 range [0, 18446744073709551615], got -1"),
        ],
    )
    def test_integer_cast_out_of_range_is_refused(self, data, dtype, expected):
        with pytest.raises(ValueError) as info:
            Volume(data).astype(dtype)
        assert str(info.value) == f"volume values must be in the {expected}"

    @pytest.mark.parametrize(
        "data,dtype",
        [
            (np.array([0.0, 255.0]), np.uint8),
            (np.array([-(2.0**63), 2.0**62]), np.int64),
            (np.array([0, 65535], np.int32), np.uint16),
            (np.array([False, True]), np.uint8),
        ],
    )
    def test_integer_cast_within_range_equals_numpy(self, data, dtype):
        data = np.broadcast_to(data, (2, 2, 2))
        cast = Volume(data).astype(dtype).data
        assert cast.dtype == dtype and np.array_equal(cast, data.astype(dtype)[np.newaxis])

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
        b = LabelVolume(np.ones((2, 2, 2), dtype=np.int64))
        c = LabelVolume(np.full((2, 2, 2), 2, dtype=np.int32))
        assert a == b and a != c
        assert a != LabelVolume(np.ones((2, 2, 2), dtype=np.int32), VoxelSize(2.0, 1.0, 1.0))


class TestIds:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64, np.uint64])
    def test_matches_unique(self, rng, dtype):
        # any integer dtype whose IDs fit becomes int32 with the same IDs
        top = min(np.iinfo(dtype).max, 2**31 - 1)
        for lab in (
            rng.choice(np.array([0, 1, 7, 200, top], dtype=dtype), size=(4, 5, 6)),
            np.where(rng.random((3, 4, 5)) < 0.5, rng.integers(0, 255, (3, 4, 5)), 0).astype(dtype),
            np.zeros((2, 3, 4), dtype=dtype),
        ):
            lv = LabelVolume(lab)
            assert lv.labels.dtype == lv.ids().dtype == np.int32
            np.testing.assert_array_equal(lv.labels, lab)
            np.testing.assert_array_equal(lv.ids(), np.unique(lab)[np.unique(lab) > 0])

    def test_int32_input_is_kept_not_copied(self):
        lab = np.array([[[3, 0, 2**31 - 1]]], dtype=np.int32)
        assert np.shares_memory(LabelVolume(lab).labels, lab)

    @pytest.mark.parametrize(
        "top,dtype", [(2**31, np.int64), (2**31, np.uint32), (2**63 + 5, np.uint64)]
    )
    def test_id_beyond_int32_refused_naming_it(self, top, dtype):
        lab = np.array([[[1, 0, top]]], dtype=dtype)
        with pytest.raises(ValueError, match=f"label ID {top} exceeds the int32 range"):
            LabelVolume(lab)

    def test_uint64_ids_that_float64_merges(self):
        # 2**63 + 1 and 2**63 + 2 are one float64 value; neither fits int32
        lab = np.array([[[2**63 + 2, 0, 2**63 + 1]]], dtype=np.uint64)
        with pytest.raises(ValueError, match=f"label ID {2**63 + 2} exceeds"):
            LabelVolume(lab)

    def test_ids_and_counts_are_cached_read_only(self):
        lv = LabelVolume(np.array([[[3, 0, 3, 1]]], dtype=np.int32))
        ids, counts = lv.id_counts
        assert ids.tolist() == [1, 3] and counts.tolist() == [1, 2]
        assert lv.id_counts is lv.id_counts and lv.ids() is ids
        assert not ids.flags.writeable and not counts.flags.writeable


class TestPairCounts:
    """``core.pair_counts`` against ``np.unique(..., return_counts=True)`` on the pairs."""

    @staticmethod
    def unique_pairs(a, b):
        pairs, counts = np.unique(np.stack([a, b], axis=1).astype(np.int64), axis=0,
                                  return_counts=True)
        return pairs[:, 0], pairs[:, 1], counts

    @pytest.mark.parametrize("n", [0, 1, 2, 500])
    def test_matches_unique_with_range_ends(self, rng, n):
        values = np.array([0, 1, 2, 2**31 - 2, 2**31 - 1], dtype=np.int32)
        a, b = rng.choice(values, size=n), rng.choice(values, size=n)
        got = pair_counts(a, b)
        for g, w in zip(got, self.unique_pairs(a, b)):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    def test_matches_unique_on_random_pairs_and_leaves_inputs(self, rng):
        a = rng.integers(0, 2**31, size=2000).astype(np.int32)
        b = rng.integers(0, 2**31, size=2000).astype(np.int32)
        a[:500], b[:500] = a[500:1000], b[500:1000]  # repeated pairs
        a_before, b_before = a.copy(), b.copy()
        got = pair_counts(a, b)
        for g, w in zip(got, self.unique_pairs(a, b)):
            np.testing.assert_array_equal(g, w)
        assert got[2].sum() == a.size
        np.testing.assert_array_equal(a, a_before)
        np.testing.assert_array_equal(b, b_before)


class TestCenterOfMass:
    """``LabelVolume.centers`` rows as the center of mass of one instance."""

    def test_single_voxel(self):
        lv = make_labels({1: [(2, 3, 4)]})
        assert lv.ids().tolist() == [1] and lv.centers.tolist() == [[2.0, 3.0, 4.0]]

    def test_two_voxel_midpoint(self):
        assert make_labels({1: [(0, 0, 0), (0, 0, 2)]}).centers.tolist() == [[0.0, 0.0, 1.0]]

    def test_random_blob_matches_summation_oracle(self, rng):
        for _ in range(5):
            lab = np.zeros((6, 6, 6), dtype=np.int32)
            picks = rng.choice(6 * 6 * 6, size=8, replace=False)
            lab.ravel()[picks] = 7
            lv = LabelVolume(lab)
            assert lv.ids().tolist() == [7] and lv.centers.shape == (1, 3)
            np.testing.assert_allclose(lv.centers[0], com_oracle(lab, 7), atol=1e-12)

    def test_point_symmetric_set_has_symmetric_center(self):
        lv = make_labels({1: [(1, 1, 1), (3, 3, 3), (1, 3, 1), (3, 1, 3)]})
        assert lv.centers.tolist() == [[2.0, 2.0, 2.0]]


class TestInstanceCenters:
    def test_matches_per_instance_formula(self, rng):
        for _ in range(5):
            lab = random_blob_labels(rng, (9, 10, 11), 6)
            # non-contiguous IDs whose order differs from raster order, up to the int32 edge
            pool = np.concatenate((np.arange(1, 1000), np.arange(2**31 - 1000, 2**31)))
            remap = np.concatenate(([0], rng.choice(pool, lab.max(), replace=False)))
            lab = remap[lab].astype(np.int32)
            lv = LabelVolume(lab)
            assert lv.centers.shape == (lv.ids().size, 3)
            for i, n, center in zip(*lv.id_counts, lv.centers):
                assert n == (lab == i).sum()
                assert center.tolist() == [k.mean() for k in np.nonzero(lab == i)]

    def test_cached_read_only(self, blobs):
        assert blobs.centers is blobs.centers
        assert not blobs.centers.flags.writeable

    def test_background_only(self):
        centers = LabelVolume(np.zeros((3, 4, 5), np.int32)).centers
        assert centers.shape == (0, 3) and centers.dtype == np.float64


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
        random = [random_blob_labels(rng, (7, 8, 7), 4) for _ in range(5)]
        for lab in random + edge_labels(rng):
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

    def test_int32_edge_ids(self):
        # the largest ID sits just below background in the uint32 view of ID - 1
        lab = np.array([[[1, 0, 2**31 - 1, 0]]], dtype=np.int32)
        out = dilate_instances(LabelVolume(lab), 1).labels
        np.testing.assert_array_equal(out, [[[1, 1, 2**31 - 1, 2**31 - 1]]])
        np.testing.assert_array_equal(out, dilate_oracle(lab, 1))

    def test_ids_near_int32_edge_match_oracle(self, rng):
        for _ in range(5):
            lab = random_blob_labels(rng, (7, 7, 8), 4)
            lab = np.where(lab > 0, 2**31 - lab.astype(np.int64), 0)
            for iterations in (1, 2):
                got = dilate_instances(LabelVolume(lab), iterations).labels
                np.testing.assert_array_equal(got, dilate_oracle(lab, iterations))

    def test_open_never_enlarges(self, rng):
        for _ in range(5):
            lab = random_blob_labels(rng, (8, 8, 8), 3)
            for k in (1, 2):
                opened = dilate_instances(erode_instances(LabelVolume(lab), k), k).labels
                assert ((opened != 0) & (opened != lab)).sum() == 0


def _u_shape():
    """Two arms that meet only in the last row, next to a lone voxel."""
    mask = np.zeros((3, 9, 10), dtype=bool)
    mask[1, :, 1] = mask[1, :, 8] = mask[1, 8, 1:9] = True
    mask[1, 0, 4] = True
    return mask


def _comb():
    """Teeth joined by a spine in the last row, and a lone voxel between two teeth."""
    mask = np.zeros((2, 8, 15), dtype=bool)
    mask[0, :, ::2] = True
    mask[0, 7, :] = True
    mask[1, 0, 5] = True
    return mask


def _spiral():
    """A square spiral walked inwards in one plane, and lone voxels beside its gaps."""
    n = 13
    plane = np.zeros((n, n), dtype=bool)
    y = x = 0
    plane[0, 0] = True
    # right, down and left n - 1 steps, then up, right, down, left two fewer per pair
    lengths = [n - 1] + [k for k in range(n - 1, 0, -2) for _ in range(2)]
    for k, length in enumerate(lengths):
        dy, dx = ((0, 1), (1, 0), (0, -1), (-1, 0))[k % 4]
        for _ in range(length):
            y, x = y + dy, x + dx
            plane[y, x] = True
    mask = np.zeros((3, n, n), dtype=bool)
    mask[1] = plane
    mask[0, 3, 3] = mask[2, 7, 5] = True
    return mask


LATE_JOIN_SHAPES = {"U": _u_shape, "comb": _comb, "spiral": _spiral}


class TestConnectedComponents:
    def test_empty_mask(self):
        out = connected_components(Volume(np.zeros((3, 3, 3), dtype=bool)))
        assert out.ids().size == 0
        assert out == LabelVolume(np.zeros((3, 3, 3), dtype=np.int32))

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

    @pytest.mark.parametrize("shape", [(1, 1, 1), (4, 5, 6), (1, 7, 9), (6, 1, 8), (5, 7, 1)])
    @pytest.mark.parametrize("full", [False, True], ids=["empty", "full"])
    def test_empty_and_full_masks(self, shape, full):
        mask = np.full(shape, full)
        at, number = components(mask)
        np.testing.assert_array_equal(at, np.arange(mask.size) if full else [])
        np.testing.assert_array_equal(number, np.ones(at.size, np.int32))
        assert number.dtype == np.int32
        expected = LabelVolume(mask.astype(np.int32))
        assert connected_components(Volume(mask)) == expected

    @pytest.mark.parametrize(
        "shape", [(1, 9, 11), (8, 1, 10), (7, 9, 1), (1, 1, 17), (1, 13, 1), (15, 1, 1)]
    )
    def test_size_one_axes_match_union_find_oracle(self, rng, shape):
        for p in (0.3, 0.6):
            mask = rng.random(shape) < p
            np.testing.assert_array_equal(
                connected_components(Volume(mask)).labels, unionfind_components(mask)
            )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8, np.int32])
    def test_non_bool_mask_labels_its_nonzero_voxels(self, rng, dtype):
        values = np.where(rng.random((7, 8, 9)) < 0.4, rng.integers(1, 200, (7, 8, 9)), 0)
        mask = values.astype(dtype)
        expected = unionfind_components(mask)
        at, number = components(mask)
        np.testing.assert_array_equal(at, np.flatnonzero(expected))
        np.testing.assert_array_equal(number, expected.ravel()[at])
        np.testing.assert_array_equal(connected_components(Volume(mask)).labels, expected)

    @pytest.mark.parametrize("name", sorted(LATE_JOIN_SHAPES))
    @pytest.mark.parametrize("axes", [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1)])
    def test_later_runs_joining_earlier_components(self, name, axes):
        # arms, teeth and rings of many runs reach their component's first run
        # only through later runs, so the union of runs takes a second round
        # (one where the transpose lays an arm along x); lone voxels check the
        # numbering
        mask = np.transpose(LATE_JOIN_SHAPES[name](), axes)
        expected = unionfind_components(mask)
        assert expected.max() > 1
        np.testing.assert_array_equal(connected_components(Volume(mask)).labels, expected)
        at, number = components(mask)
        np.testing.assert_array_equal(number, expected.ravel()[at])

    def test_masks_near_the_percolation_threshold(self, rng):
        # branching components of many runs, which take three or four union rounds
        for _ in range(3):
            mask = rng.random((16, 16, 16)) < 0.33
            np.testing.assert_array_equal(
                connected_components(Volume(mask)).labels, unionfind_components(mask)
            )

    def test_components_match_union_find_oracle_on_random_shapes(self, rng):
        for _ in range(40):
            shape = tuple(rng.integers(1, 12, size=3))
            mask = rng.random(shape) < rng.random()
            expected = unionfind_components(mask)
            at, number = components(mask)
            np.testing.assert_array_equal(at, np.flatnonzero(mask))
            np.testing.assert_array_equal(number, expected.ravel()[at])

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


def _perturb(**kwargs):
    return perturb_target(
        encode_bundle(_BLOB, "sdt"),
        **{"noise_sigma": 0.0, "smoothing_sigma": 0.0, "rng_seed": 0, **kwargs},
    )

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
    "perturb.noise_sigma": (
        "noise_sigma", lambda v: _perturb(noise_sigma=v), math.nextafter(0, -1), 0.0),
    "perturb.smoothing_sigma": (
        "smoothing_sigma", lambda v: _perturb(smoothing_sigma=v), math.nextafter(0, -1), 0.0),
    "perturb.rng_seed": ("rng_seed", lambda v: _perturb(rng_seed=v), -1, 0),
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


class TestUpperBound:
    # (value equal to the bound, bound): the float 2**56 compares exactly with the int bound
    @pytest.mark.parametrize("value,lt", [(1, 1), (0.5, 0.5), (2**56, 2**56), (2.0**56, 2**56)])
    def test_bound_refused_and_the_float_below_accepted(self, value, lt):
        with pytest.raises(ValueError, match=re.escape(f" < {lt}, got {value!r}")):
            check_number("k", value, lt=lt)
        below = math.nextafter(value, 0)
        assert check_number("k", below, lt=lt) == below

    @pytest.mark.parametrize("integer", [False, True])
    def test_int_too_large_for_a_float_refused_without_overflow(self, integer):
        what = "an integer" if integer else "a finite number"
        expected = f"k must be {what} >= 0 and < 72057594037927936, got {10**400!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            check_number("k", 10**400, integer=integer, ge=0, lt=2**56)

    @pytest.mark.parametrize(
        "bounds,value,expected",
        [
            ({"gt": 0, "lt": 1}, 1.5, "k must be a finite number > 0 and < 1, got 1.5"),
            ({"gt": 0, "lt": 1}, 0, "k must be a finite number > 0 and < 1, got 0"),
            ({"lt": 1}, 1, "k must be a finite number < 1, got 1"),
            ({"lt": 1}, math.nan, "k must be a finite number < 1, got nan"),
            ({"integer": True, "lt": 3}, 3, "k must be an integer < 3, got 3"),
        ],
    )
    def test_message_names_every_bound(self, bounds, value, expected):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            check_number("k", value, **bounds)
