import re

import numpy as np
import pytest

from nuclei3d import (
    LabelVolume,
    TargetBundle,
    Volume,
    encode_affinities,
    encode_bundle,
    encode_cpv,
    encode_gauss,
    encode_sdt,
    encode_three_label,
    signed_boundary_distance,
)
from nuclei3d.core import boundary_mask
from nuclei3d.errors import ChannelCountError
from nuclei3d.targets import BACKGROUND, BOUNDARY, INTERIOR

from conftest import ball_labels, edge_labels, random_blob_labels
from oracles import (
    boundary_oracle, com_oracle, distance_to_set_oracle, erode_oracle, naive_gauss,
)


class TestSdt:
    def test_all_background_is_plus_one(self):
        lv = LabelVolume(np.zeros((4, 4, 4), dtype=np.int32))
        out = encode_sdt(lv).channel(0)
        np.testing.assert_array_equal(out, np.ones((4, 4, 4)))

    def test_boundary_voxels_are_exactly_zero(self):
        lv = ball_labels()
        sdt = encode_sdt(lv).channel(0)
        boundary = boundary_oracle(lv.labels)
        assert (sdt[boundary] == 0.0).all()

    def test_sign_agrees_with_foreground(self):
        lv = ball_labels()
        sdt = encode_sdt(lv).channel(0)
        fg = lv.labels > 0
        boundary = boundary_oracle(lv.labels)
        assert (sdt[fg & ~boundary] < 0).all()
        assert (sdt[~fg] > 0).all()

    def test_sphere_matches_all_pairs_oracle(self):
        lv = ball_labels(shape=(7, 7, 7), center=(3, 3, 3), r=2.2)
        boundary = boundary_oracle(lv.labels)
        dist = distance_to_set_oracle(lv.shape, np.argwhere(boundary))
        expected = np.where(lv.labels > 0, -dist, dist)
        got = signed_boundary_distance(lv)
        assert np.abs(got - expected).max() < 1e-12
        np.testing.assert_array_equal(encode_sdt(lv, scale=5.0).channel(0), np.tanh(expected / 5.0))

    def test_random_labels_match_oracle(self, rng):
        for _ in range(5):
            lab = random_blob_labels(rng, (8, 8, 8), 3)
            lv = LabelVolume(lab)
            boundary = boundary_oracle(lab)
            if not boundary.any():
                continue
            dist = distance_to_set_oracle(lab.shape, np.argwhere(boundary))
            expected = np.where(lab > 0, -dist, dist)
            assert np.abs(signed_boundary_distance(lv) - expected).max() < 1e-12

    def test_anisotropic_uses_voxel_size(self):
        from nuclei3d import VoxelSize

        lab = np.zeros((5, 5, 5), dtype=np.int32)
        lab[2, 2, 2] = 1
        lv = LabelVolume(lab, VoxelSize(2.0, 1.0, 1.0))
        d = signed_boundary_distance(lv, anisotropic=True)
        assert d[0, 2, 2] == pytest.approx(4.0)
        assert d[2, 0, 2] == pytest.approx(2.0)

    def test_scale_must_be_positive(self):
        for scale in (0.0, -1.0, float("nan"), float("inf"), True):
            expected = f"scale must be a finite number > 0, got {scale!r}"
            with pytest.raises(ValueError, match=re.escape(expected)):
                encode_sdt(ball_labels(), scale=scale)


class TestThreeLabel:
    def test_single_voxel_is_boundary(self):
        lab = np.zeros((3, 3, 3), dtype=np.int32)
        lab[1, 1, 1] = 1
        out = encode_three_label(LabelVolume(lab)).channel(0)
        assert out[1, 1, 1] == BOUNDARY

    def test_cube_has_26_boundary_1_interior(self):
        lab = np.zeros((5, 5, 5), dtype=np.int32)
        lab[1:4, 1:4, 1:4] = 1
        out = encode_three_label(LabelVolume(lab)).channel(0)
        counts = np.bincount(out.ravel(), minlength=3)
        assert counts[BOUNDARY] == 26 and counts[INTERIOR] == 1

    def test_abutting_instances_boundary_on_both_sides(self):
        lab = np.zeros((3, 3, 4), dtype=np.int32)
        lab[:, :, :2] = 1
        lab[:, :, 2:] = 2
        out = encode_three_label(LabelVolume(lab)).channel(0)
        assert (out[:, :, 1] == BOUNDARY).all()
        assert (out[:, :, 2] == BOUNDARY).all()

    def test_partition_and_oracle(self, rng):
        random = [random_blob_labels(rng, (7, 9, 8), 4) for _ in range(5)]
        for lab in random + edge_labels(rng):
            expected = boundary_oracle(lab)
            np.testing.assert_array_equal(boundary_mask(lab), expected)
            out = encode_three_label(LabelVolume(lab)).channel(0)
            np.testing.assert_array_equal(out != BACKGROUND, lab > 0)
            np.testing.assert_array_equal(out == BOUNDARY, expected)


class TestAffinities:
    def test_all_background(self):
        out = encode_affinities(LabelVolume(np.zeros((3, 3, 3), dtype=np.int32)))
        np.testing.assert_array_equal(out.data, 0)

    def test_cube_erodes_to_point(self):
        lab = np.zeros((5, 5, 5), dtype=np.int32)
        lab[1:4, 1:4, 1:4] = 1
        out = encode_affinities(LabelVolume(lab))
        np.testing.assert_array_equal(out.data[:3], 0)
        assert out.data[3].sum() == 1 and out.data[3][2, 2, 2] == 1

    def test_one_thick_pair_vanishes(self):
        lab = np.zeros((3, 3, 4), dtype=np.int32)
        lab[1, 1, 1] = lab[1, 1, 2] = 5
        out = encode_affinities(LabelVolume(lab))
        np.testing.assert_array_equal(out.data, 0)

    def test_last_slice_zero_and_matches_definition(self, rng):
        for _ in range(5):
            lab = random_blob_labels(rng, (8, 8, 8), 4)
            out = encode_affinities(LabelVolume(lab)).data
            er = erode_oracle(lab, 1)
            for axis in range(3):
                last = [slice(None)] * 3
                last[axis] = -1
                assert (out[axis][tuple(last)] == 0).all()
                shifted = np.zeros_like(er)
                src = [slice(None)] * 3
                dst = [slice(None)] * 3
                src[axis] = slice(1, None)
                dst[axis] = slice(0, -1)
                shifted[tuple(dst)] = er[tuple(src)]
                expected = (er == shifted) & (er > 0) & (shifted > 0)
                np.testing.assert_array_equal(out[axis] != 0, expected)
            np.testing.assert_array_equal(out[3] != 0, er > 0)


class TestCpv:
    def test_single_voxel_zero_vector(self):
        lab = np.zeros((3, 3, 3), dtype=np.int32)
        lab[1, 1, 1] = 1
        out = encode_cpv(LabelVolume(lab)).data
        np.testing.assert_array_equal(out, 0)

    def test_two_voxel_instance(self):
        lab = np.zeros((1, 1, 3), dtype=np.int32)
        lab[0, 0, 0] = lab[0, 0, 2] = 1
        out = encode_cpv(LabelVolume(lab)).data
        assert out[2, 0, 0, 0] == 1.0 and out[2, 0, 0, 2] == -1.0
        assert out[0].sum() == out[1].sum() == 0.0

    def test_vectors_point_at_center_of_mass(self, rng):
        lv = ball_labels(r=2.5)
        out = encode_cpv(lv).data
        c = com_oracle(lv.labels, 1)
        zz, yy, xx = np.nonzero(lv.labels)
        vec = out[:, zz, yy, xx]
        expected = c[:, None] - np.stack([zz, yy, xx]).astype(float)
        assert np.abs(vec - expected).max() < 1e-9

    def test_matches_library_center_of_mass_exactly(self, blobs):
        out = encode_cpv(blobs).data
        for i, c in zip(blobs.ids(), blobs.centers):
            zz, yy, xx = np.nonzero(blobs.labels == i)
            np.testing.assert_array_equal(out[0][zz, yy, xx], c[0] - zz)
            np.testing.assert_array_equal(out[1][zz, yy, xx], c[1] - yy)
            np.testing.assert_array_equal(out[2][zz, yy, xx], c[2] - xx)

    def test_background_is_zero(self, blobs):
        out = encode_cpv(blobs).data
        np.testing.assert_array_equal(out[:, blobs.labels == 0], 0.0)

    def test_translation_equivariance(self):
        lab = np.zeros((8, 8, 8), dtype=np.int32)
        lab[1:3, 2:4, 1:4] = 1
        moved = np.roll(lab, (2, 1, 3), axis=(0, 1, 2))
        a = encode_cpv(LabelVolume(lab)).data
        b = encode_cpv(LabelVolume(moved)).data
        np.testing.assert_array_equal(np.roll(a, (2, 1, 3), axis=(1, 2, 3)), b)


class TestGauss:
    def test_peak_is_one_at_integer_center(self):
        lab = np.zeros((7, 7, 7), dtype=np.int32)
        lab[3, 3, 3] = 1
        out = encode_gauss(LabelVolume(lab)).channel(0)
        assert out[3, 3, 3] == 1.0

    def test_value_at_distance_sigma(self):
        lab = np.zeros((9, 9, 9), dtype=np.int32)
        lab[4, 4, 4] = 1
        out = encode_gauss(LabelVolume(lab), sigma=2.0).channel(0)
        assert out[4, 4, 6] == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_two_centers_combined_by_max(self):
        lab = np.zeros((5, 5, 9), dtype=np.int32)
        lab[2, 2, 2] = 1
        lab[2, 2, 6] = 2
        sigma = 1.5
        out = encode_gauss(LabelVolume(lab), sigma=sigma).channel(0)
        z, y, x = np.ogrid[:5, :5, :9]
        g1 = np.exp(-((z - 2) ** 2 + (y - 2) ** 2 + (x - 2) ** 2) / (2 * sigma**2))
        g2 = np.exp(-((z - 2) ** 2 + (y - 2) ** 2 + (x - 6) ** 2) / (2 * sigma**2))
        np.testing.assert_allclose(out, np.maximum(g1, g2), rtol=0, atol=1e-15)

    def test_range_on_small_volume(self, blobs):
        out = encode_gauss(blobs).channel(0)
        assert (out > 0).all() and (out <= 1).all()

    def test_sigma_must_be_positive(self, blobs):
        for sigma in (0.0, -1.0, float("nan"), float("inf"), True):
            expected = f"sigma must be a finite number > 0, got {sigma!r}"
            with pytest.raises(ValueError, match=re.escape(expected)):
                encode_gauss(blobs, sigma=sigma)

    @staticmethod
    def _assert_matches_oracle(lab, sigma):
        labels = LabelVolume(lab)
        got = encode_gauss(labels, sigma=sigma).channel(0)
        expected = naive_gauss(lab.shape, labels.centers, sigma)
        assert got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 3.7])
    def test_random_labels_bit_identical_to_oracle(self, rng, sigma):
        counts = set()
        for shape, n_blobs in (
            ((5, 9, 7), 0), ((6, 4, 11), 1), ((7, 12, 9), 12), ((13, 6, 10), 30),
        ):
            for _ in range(3):
                lab = random_blob_labels(rng, shape, n_blobs, rmax=2)
                counts.add(min(int(lab.max()), 2))
                self._assert_matches_oracle(lab, sigma)
        assert counts == {0, 1, 2}

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 3.7])
    @pytest.mark.parametrize(
        "shape,instances",
        [
            # two instances mirrored across the plane x = 4
            ((5, 6, 9), {1: [(2, 3, 1)], 2: [(2, 3, 7)]}),
            # the same with half-voxel centers, mirrored across the plane x = 4.5
            ((5, 6, 10), {1: [(2, 3, 1), (2, 3, 2)], 2: [(2, 3, 7), (2, 3, 8)]}),
            # three instances at distance 3 from (4, 4, 4)
            ((8, 9, 10), {1: [(4, 4, 1)], 2: [(4, 1, 4)], 3: [(1, 4, 4)]}),
            # an instance in a volume corner, tied with one across the plane z = 3
            ((7, 5, 6), {1: [(0, 0, 0)], 2: [(6, 0, 0)], 3: [(6, 4, 5)]}),
        ],
        ids=["mirrored", "mirrored-half", "equidistant", "corner"],
    )
    def test_tied_centers_bit_identical_to_oracle(self, shape, instances, sigma):
        lab = np.zeros(shape, dtype=np.int32)
        for i, coords in instances.items():
            for c in coords:
                lab[c] = i
        self._assert_matches_oracle(lab, sigma)

    def test_no_instances_is_positive_zero(self):
        out = encode_gauss(LabelVolume(np.zeros((3, 4, 5), dtype=np.int32))).channel(0)
        assert out.tobytes() == np.zeros((3, 4, 5)).tobytes()

    @pytest.mark.parametrize("shape", [(1, 17, 33), (17, 16, 40)])
    def test_no_instances_over_several_blocks_is_positive_zero(self, shape):
        out = encode_gauss(LabelVolume(np.zeros(shape, dtype=np.int32))).channel(0)
        assert out.tobytes() == np.zeros(shape).tobytes()

    @pytest.mark.parametrize("sigma", [0.5, 2.0, 6.0])
    @pytest.mark.parametrize(
        "shape,instances",
        [
            # one center, in shapes that are no multiple of the 16-voxel block
            ((1, 17, 33), {1: [(0, 3, 30)]}),
            ((33, 1, 18), {1: [(32, 0, 0)]}),
            # centers on the block faces y = 15.5 and x = 31.5, and on the corner 15.5**3
            ((20, 34, 40), {
                1: [(4, 15, 4), (4, 16, 4)],
                2: [(9, 3, 31), (9, 3, 32)],
                3: [(z, y, x) for z in (15, 16) for y in (15, 16) for x in (15, 16)],
            }),
            # mirrored across the block face x = 15.5, and equidistant from (16, 16, 16)
            ((19, 35, 33), {
                1: [(8, 8, 5)], 2: [(8, 8, 26)],
                3: [(16, 16, 6)], 4: [(16, 6, 16)], 5: [(6, 16, 16)], 6: [(16, 16, 26)],
            }),
            # two centers far apart: most blocks see only their own near center
            ((18, 50, 49), {1: [(0, 0, 0)], 2: [(17, 49, 48)]}),
        ],
        ids=["one-1x17x33", "one-corner", "block-faces", "equidistant", "far-apart"],
    )
    def test_block_edge_layouts_bit_identical_to_oracle(self, shape, instances, sigma):
        lab = np.zeros(shape, dtype=np.int32)
        for i, coords in instances.items():
            for c in coords:
                lab[c] = i
        self._assert_matches_oracle(lab, sigma)

    @pytest.mark.parametrize("shape", [(1, 17, 33), (20, 33, 37), (35, 18, 50)])
    def test_many_small_instances_bit_identical_to_oracle(self, rng, shape):
        """One- and two-voxel instances, half of them on block edges: many tied centers."""
        for _ in range(3):
            lab = np.zeros(shape, dtype=np.int32)
            for i in range(1, 41):
                c = [
                    rng.choice([15, 16, 31, 32]) if rng.random() < 0.5 and s > 17
                    else rng.integers(0, s)
                    for s in shape
                ]
                c = [min(v, s - 1) for v, s in zip(c, shape)]
                lab[tuple(c)] = i
                axis = rng.integers(0, 3)
                if c[axis] + 1 < shape[axis] and rng.random() < 0.5:
                    c[axis] += 1
                    lab[tuple(c)] = i
            self._assert_matches_oracle(lab, rng.choice([0.7, 2.0, 5.0]))


class TestBundle:
    @pytest.mark.parametrize(
        "variant,with_cpv,channels",
        [
            ("sdt", False, 1),
            ("sdt", True, 4),
            ("3label", False, 3),
            ("3label", True, 6),
            ("affinities", False, 4),
            ("affinities", True, 7),
            ("gauss", False, 1),
            ("gauss", True, 4),
        ],
    )
    def test_channel_counts(self, blobs, variant, with_cpv, channels):
        b = encode_bundle(blobs, variant, with_cpv=with_cpv)
        assert b.volume.channels == channels
        assert b.main_channels == channels - (3 if with_cpv else 0)

    def test_empty_labels_3label_cpv(self):
        lv = LabelVolume(np.zeros((3, 3, 3), dtype=np.int32))
        b = encode_bundle(lv, "3label", with_cpv=True)
        np.testing.assert_array_equal(b.volume.data[0], 1.0)  # all background
        np.testing.assert_array_equal(b.volume.data[1:], 0.0)

    def test_one_hot_matches_class_map(self, blobs):
        b = encode_bundle(blobs, "3label")
        cls = encode_three_label(blobs).channel(0)
        np.testing.assert_array_equal(np.argmax(b.volume.data, axis=0), cls)
        np.testing.assert_array_equal(b.volume.data.sum(axis=0), 1.0)

    def test_cpv_channels_follow_main(self, blobs):
        b = encode_bundle(blobs, "sdt", with_cpv=True)
        np.testing.assert_array_equal(b.volume.data[1:], encode_cpv(blobs).data)
        np.testing.assert_array_equal(b.volume.data[0], encode_sdt(blobs).channel(0))

    def test_unknown_variant(self, blobs):
        with pytest.raises(ValueError):
            encode_bundle(blobs, "voronoi")

    @pytest.mark.parametrize("channels,with_cpv", [(5, False), (5, True), (3, True)])
    def test_wrong_channel_count_names_layout(self, channels, with_cpv):
        expected = f"variant '3label' expects 3 channels, or 6 with CPV, got {channels}"
        with pytest.raises(ChannelCountError, match=re.escape(expected)):
            TargetBundle(Volume(np.zeros((channels, 2, 2, 2))), "3label", with_cpv)

    @pytest.mark.parametrize(
        "volume", [np.zeros((1, 2, 2, 2)), None, LabelVolume(np.zeros((2, 2, 2), np.int32))],
        ids=["ndarray", "None", "LabelVolume"],
    )
    def test_non_volume_refused_with_channel_count_error(self, volume):
        with pytest.raises(ChannelCountError) as info:
            TargetBundle(volume, "sdt", False)
        assert str(info.value) == f"expected a target Volume, got {type(volume).__name__}"
