import re
import warnings

import numpy as np
import pytest
from scipy import ndimage as ndi

from nuclei3d import (
    LabelVolume,
    PostprocConfig,
    TopographicMap,
    Volume,
    VoxelSize,
    accumulate_votes,
    build_topography,
    encode_bundle,
    encode_cpv,
    extract_seeds_cpv,
    extract_seeds_main,
    segment,
    watershed,
)
from nuclei3d.errors import ChannelCountError

from conftest import random_blob_labels
from oracles import flood_simulator, unionfind_components
from test_targets import ball_labels


def two_balls(shape=(9, 9, 17)):
    z, y, x = np.ogrid[: shape[0], : shape[1], : shape[2]]
    lab = np.zeros(shape, dtype=np.int32)
    lab[((z - 4) ** 2 + (y - 4) ** 2 + (x - 4) ** 2) <= 9] = 1
    lab[((z - 4) ** 2 + (y - 4) ** 2 + (x - 12) ** 2) <= 9] = 2
    return LabelVolume(lab)


class TestTopography:
    def test_sdt_foreground_recovers_instances(self):
        lv = ball_labels()
        bundle = encode_bundle(lv, "sdt")
        cfg = PostprocConfig("sdt", seed_threshold=-0.14, foreground_threshold=0.0)
        topo = build_topography(bundle, cfg)
        np.testing.assert_array_equal(topo.foreground, lv.labels > 0)
        np.testing.assert_array_equal(topo.values, bundle.volume.channel(0))

    def test_3label_one_hot(self):
        lv = ball_labels()
        bundle = encode_bundle(lv, "3label")
        cfg = PostprocConfig("3label", seed_threshold=0.7, foreground_threshold=0.95)
        topo = build_topography(bundle, cfg)
        interior = bundle.volume.channel(1) == 1.0
        np.testing.assert_array_equal(topo.values == 0.0, interior)
        np.testing.assert_array_equal(topo.foreground, lv.labels > 0)

    def test_affinities_all_one_gives_zero_map(self):
        data = np.ones((4, 3, 3, 3))
        cfg = PostprocConfig("affinities", foreground_threshold=0.99)
        topo = build_topography(Volume(data), cfg)
        np.testing.assert_array_equal(topo.values, 0.0)
        assert topo.foreground.all()

    def test_3label_logits_flag(self, rng):
        logits = rng.normal(size=(3, 4, 4, 4))
        shifted = np.exp(logits - logits.max(axis=0, keepdims=True))
        probs = shifted / shifted.sum(axis=0, keepdims=True)
        cfg = PostprocConfig("3label", foreground_threshold=0.5)
        a = build_topography(Volume(logits), cfg, logits=True)
        b = build_topography(Volume(probs), cfg)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)
        np.testing.assert_array_equal(a.foreground, b.foreground)

    def test_wrong_channel_count(self, rng):
        cfg = PostprocConfig("3label")
        with pytest.raises(ChannelCountError):
            build_topography(Volume(rng.random((2, 3, 3, 3))), cfg)


class TestMainSeeds:
    def test_sdt_two_spheres_two_seeds(self):
        lv = two_balls()
        bundle = encode_bundle(lv, "sdt")
        cfg = PostprocConfig("sdt", seed_threshold=-0.14)
        seeds = extract_seeds_main(bundle, cfg)
        assert len(seeds.ids()) == 2
        mask = bundle.volume.channel(0) < -0.14
        np.testing.assert_array_equal(seeds.labels, unionfind_components(mask))

    def test_3label_one_hot_seeds_equal_interior(self):
        lv = ball_labels()
        bundle = encode_bundle(lv, "3label")
        cfg = PostprocConfig("3label", seed_threshold=0.7)
        seeds = extract_seeds_main(bundle, cfg)
        np.testing.assert_array_equal(seeds.labels > 0, bundle.volume.channel(1) == 1.0)

    def test_affinities_two_of_three_rule(self):
        data = np.zeros((4, 1, 1, 3))
        data[0, 0, 0, 0] = 1.0  # one channel above: not a seed
        data[0, 0, 0, 1] = data[1, 0, 0, 1] = 1.0  # two channels: seed
        data[:3, 0, 0, 2] = 1.0  # three channels: seed
        cfg = PostprocConfig("affinities", seed_threshold=0.5)
        seeds = extract_seeds_main(Volume(data), cfg)
        assert (seeds.labels > 0).tolist() == [[[False, True, True]]]

    def test_seed_labels_keep_the_prediction_voxel_size(self):
        vs = VoxelSize(2.0, 1.0, 0.5)
        data = np.zeros((3, 3, 4, 5))
        data[1, 1, 1:3, 1:4] = 1.0
        seeds = extract_seeds_main(Volume(data, vs), PostprocConfig("3label", seed_threshold=0.5))
        assert seeds.voxel_size == vs and seeds.labels.dtype == np.int32
        seeds = extract_seeds_cpv(Volume(np.zeros((3, 3, 4, 5)), vs), data[1] > 0, 1)
        assert seeds.voxel_size == vs and seeds.labels.dtype == np.int32
        assert len(seeds.ids()) == 1


class TestCpvSeeds:
    def test_exact_vectors_vote_for_center(self):
        lv = ball_labels(r=3.0)
        cpv = encode_cpv(lv)
        fg = lv.labels > 0
        counts = accumulate_votes(cpv, fg)
        n_fg = int(fg.sum())
        assert counts.sum() == n_fg  # all votes in bounds here
        assert counts.max() == n_fg  # every voxel votes for the rounded center
        seeds = extract_seeds_cpv(cpv, fg, cpv_seed_threshold=0.7 * n_fg)
        assert len(seeds.ids()) == 1

    def test_zero_vectors_self_votes(self):
        fg = np.zeros((3, 3, 3), dtype=bool)
        fg[1, 1, 1] = fg[0, 0, 0] = True
        cpv = Volume(np.zeros((3, 3, 3, 3)))
        seeds = extract_seeds_cpv(cpv, fg, cpv_seed_threshold=2)
        assert seeds.ids().size == 0
        counts = accumulate_votes(cpv, fg)
        assert counts[1, 1, 1] == 1 and counts[0, 0, 0] == 1

    def test_threshold_zero_makes_everything_a_seed(self):
        fg = np.zeros((2, 2, 2), dtype=bool)
        cpv = Volume(np.zeros((3, 2, 2, 2)))
        seeds = extract_seeds_cpv(cpv, fg, cpv_seed_threshold=0)
        assert (seeds.labels > 0).all()

    def test_out_of_bounds_votes_discarded(self):
        fg = np.ones((2, 2, 2), dtype=bool)
        vec = np.zeros((3, 2, 2, 2))
        vec[0] = 100.0  # every vote leaves the volume
        counts = accumulate_votes(Volume(vec), fg)
        assert counts.sum() == 0

    def test_matches_vote_oracle(self, rng):
        from oracles import vote_count_oracle

        fg = rng.random((6, 6, 6)) < 0.5
        vec = rng.normal(scale=2.0, size=(3, 6, 6, 6))
        got = accumulate_votes(Volume(vec), fg)
        np.testing.assert_array_equal(got, vote_count_oracle(vec, fg))

    def test_huge_and_edge_votes_bounds_checked_before_the_cast(self, rng):
        from oracles import vote_count_oracle

        shape = (3, 4, 5)
        fg = rng.random(shape) < 0.7
        coords = np.indices(shape).astype(np.float64)
        for axis, n in enumerate(shape):
            # rounded target -1, 0, n - 1, n: just outside, inside, inside, outside
            for target, inside in ((-1e30, False), (1e30, False), (-0.5, False), (-0.49, True),
                                   (n - 0.51, True), (n - 0.5, False)):
                vec = np.zeros((3, *shape))
                vec[axis] = target - coords[axis]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = accumulate_votes(Volume(vec), fg)
                np.testing.assert_array_equal(got, vote_count_oracle(vec, fg))
                assert got.sum() == (fg.sum() if inside else 0)
        # huge vectors of both signs in one volume
        vec = rng.choice([-1e30, 1e30], size=(3, *shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert accumulate_votes(Volume(vec), fg).sum() == 0

    @pytest.mark.parametrize("threshold", [-1.0, float("nan")])
    def test_bad_threshold_rejected(self, threshold):
        fg = np.ones((2, 2, 2), dtype=bool)
        expected = f"cpv_seed_threshold must be a finite number >= 0, got {threshold!r}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            extract_seeds_cpv(Volume(np.zeros((3, 2, 2, 2))), fg, threshold)

    def test_only_a_three_channel_volume_votes(self):
        fg = np.ones((2, 2, 2), dtype=bool)
        lv = LabelVolume(np.zeros((2, 2, 2), dtype=np.int32))
        for bad in (
            np.zeros((3, 2, 2, 2)), Volume(np.zeros((4, 2, 2, 2))), lv,
            encode_bundle(lv, "sdt", with_cpv=True),
        ):
            with pytest.raises(ChannelCountError, match="3-channel Volume"):
                accumulate_votes(bad, fg)
            with pytest.raises(ChannelCountError, match="3-channel Volume"):
                extract_seeds_cpv(bad, fg, 1)

    def test_rounding_half_away_from_zero(self):
        fg = np.zeros((1, 1, 4), dtype=bool)
        fg[0, 0, 1] = True
        vec = np.zeros((3, 1, 1, 4))
        vec[2, 0, 0, 1] = 0.5  # 1 + 0.5 rounds away from zero to 2
        counts = accumulate_votes(Volume(vec), fg)
        assert counts[0, 0, 2] == 1


class TestWatershed:
    def test_single_seed_floods_connected_foreground(self):
        lv = ball_labels()
        fg = lv.labels > 0
        values = np.zeros(lv.shape)
        seeds = np.zeros(lv.shape, dtype=np.int32)
        seeds[4, 4, 4] = 1
        out = watershed(TopographicMap(values, fg), LabelVolume(seeds))
        np.testing.assert_array_equal(out.labels > 0, fg)

    def test_empty_seeds_all_background(self, rng):
        for fg in (np.ones((3, 3, 3), dtype=bool), rng.random((5, 6, 7)) < 0.4):
            out = watershed(
                TopographicMap(np.zeros(fg.shape), fg),
                LabelVolume(np.zeros(fg.shape, dtype=np.int32)),
            )
            assert out.labels.dtype == np.int32 and (out.labels == 0).all()

    def test_seed_id_beyond_int32_refused(self):
        fg = np.ones((1, 1, 4), dtype=bool)
        seeds = np.zeros((1, 1, 4), dtype=np.int64)
        seeds[0, 0, 0] = 2**32 + 5  # would wrap to 5 in int32
        with pytest.raises(ValueError, match=f"seed ID {2**32 + 5} exceeds"):
            watershed(TopographicMap(np.zeros(fg.shape), fg), LabelVolume(seeds))
        # outside the foreground the seed is clipped away before the cast
        fg[0, 0, 0] = False
        seeds[0, 0, 1] = 7
        out = watershed(TopographicMap(np.zeros(fg.shape), fg), LabelVolume(seeds)).labels
        np.testing.assert_array_equal(out, [[[0, 7, 7, 7]]])

    def test_dumbbell_splits_at_ridge(self):
        values = np.zeros((1, 3, 7))
        values[0, :, 3] = 1.0  # ridge at the neck
        fg = np.ones((1, 3, 7), dtype=bool)
        seeds = np.zeros((1, 3, 7), dtype=np.int32)
        seeds[0, 1, 1] = 1
        seeds[0, 1, 5] = 2
        out = watershed(TopographicMap(values, fg), LabelVolume(seeds)).labels
        assert (out[0, :, :3] == 1).all() and (out[0, :, 4:] == 2).all()
        np.testing.assert_array_equal(
            out, flood_simulator(values, fg, seeds)
        )

    def test_seed_voxels_keep_ids_and_ids_subset(self, rng):
        values = rng.random((8, 8, 8))
        fg = rng.random((8, 8, 8)) < 0.7
        seeds = np.zeros((8, 8, 8), dtype=np.int32)
        for i in range(1, 4):
            z, y, x = rng.integers(0, 8, size=3)
            seeds[z, y, x] = i
        out = watershed(TopographicMap(values, fg), LabelVolume(seeds)).labels
        inside = (seeds > 0) & fg
        np.testing.assert_array_equal(out[inside], seeds[inside])
        assert set(np.unique(out)) - {0} <= {1, 2, 3}
        assert (out[~fg] == 0).all()

    def test_matches_flood_simulator_on_random_grids(self, rng):
        for _ in range(8):
            values = np.round(rng.random((6, 6, 6)), 1)  # coarse values force ties
            fg = rng.random((6, 6, 6)) < 0.8
            seeds = np.zeros((6, 6, 6), dtype=np.int32)
            n_seeds = rng.integers(2, 5)
            for i in range(1, n_seeds + 1):
                z, y, x = rng.integers(0, 6, size=3)
                seeds[z, y, x] = i
            got = watershed(TopographicMap(values, fg), LabelVolume(seeds)).labels
            np.testing.assert_array_equal(got, flood_simulator(values, fg, seeds))
        # distinct extents catch swapped axis strides; face seeds probe the edges
        for shape in [(3, 5, 7), (7, 4, 2), (1, 6, 5)]:
            for _ in range(8):
                values = np.round(rng.random(shape), 1)
                fg = rng.random(shape) < 0.8
                seeds = np.zeros(shape, dtype=np.int32)
                for i in range(1, rng.integers(2, 5) + 1):
                    pos = [int(rng.integers(0, n)) for n in shape]
                    axis = rng.integers(0, 3)
                    pos[axis] = (0, shape[axis] - 1)[rng.integers(0, 2)]
                    seeds[tuple(pos)] = i
                got = watershed(TopographicMap(values, fg), LabelVolume(seeds)).labels
                np.testing.assert_array_equal(got, flood_simulator(values, fg, seeds))

    def test_matches_flood_simulator_on_sparse_grids(self, rng):
        """Sparse foreground mixes components holding zero, one and several seed IDs."""
        seen = set()
        for shape in [(6, 6, 6), (3, 5, 7), (7, 4, 2), (1, 6, 5), (2, 1, 9)]:
            for _ in range(12):
                values = np.round(rng.random(shape), 1)  # coarse values force ties
                fg = rng.random(shape) < rng.uniform(0.3, 0.5)
                # few IDs at random voxels: IDs repeat across and within components,
                # and some seeds fall outside the foreground
                seeds = (rng.integers(1, 4, size=shape) * (rng.random(shape) < 0.2)).astype(np.int32)
                got = watershed(TopographicMap(values, fg), LabelVolume(seeds)).labels
                np.testing.assert_array_equal(got, flood_simulator(values, fg, seeds))
                seen |= _component_cases(fg, seeds)
        assert seen == {
            "unseeded", "single", "contested", "seed off foreground",
            "id filled here, contested there", "id with two blobs in a contested component",
        }

    def test_matches_flood_simulator_with_thick_seeds(self, rng):
        """Seed blobs have interior voxels, which the flood never indexes."""
        n_interior = 0
        for shape in [(6, 6, 6), (3, 7, 5), (7, 4, 6)]:
            for _ in range(6):
                values = np.round(rng.random(shape), 1)  # coarse values force ties
                fg = rng.random(shape) < 0.9
                seeds = random_blob_labels(rng, shape, int(rng.integers(2, 5)), rmax=2)
                got = watershed(TopographicMap(values, fg), LabelVolume(seeds)).labels
                np.testing.assert_array_equal(got, flood_simulator(values, fg, seeds))
                n_interior += _interior_seeds(fg, seeds).sum()
        assert n_interior > 0

    def test_matches_flood_simulator_on_pockets(self, rng):
        """Pockets of every kind, one-ID and contested ones within one component.

        Map values tie within and across pockets, -0.0 and 0.0 among them.
        """
        seen = set()
        for shape in [(6, 6, 6), (1, 7, 6), (5, 1, 8), (4, 6, 1), (1, 1, 12)]:
            for k in range(12):
                if k % 2:
                    values = np.round(rng.random(shape), 1)
                else:
                    values = rng.choice([-0.0, 0.0, 0.5, -1.0], size=shape)
                fg = rng.random(shape) < 0.8
                seeds = (rng.integers(1, 4, size=shape) * (rng.random(shape) < 0.3)).astype(np.int32)
                got = watershed(TopographicMap(values, fg), LabelVolume(seeds)).labels
                np.testing.assert_array_equal(got, flood_simulator(values, fg, seeds))
                seen |= _pocket_cases(fg, seeds)
        assert seen == {
            "seedless", "one id", "contested", "one id and contested in one component",
            "seed next to several pockets",
        }

    @pytest.mark.parametrize("signs", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zeros_tie(self, signs):
        # seed 1 queues x=1 before seed 2 queues x=3; as a tie x=1 pops first and
        # its ID takes x=2, which -0.0 < 0.0 would give to seed 2 for one sign order
        values = np.array([[[0.0, signs[0], 0.0, signs[1], 0.0]]])
        fg = np.ones(values.shape, dtype=bool)
        seeds = np.array([[[1, 0, 0, 0, 2]]], dtype=np.int32)
        got = watershed(TopographicMap(values, fg), LabelVolume(seeds)).labels
        np.testing.assert_array_equal(got, [[[1, 1, 1, 2, 2]]])
        np.testing.assert_array_equal(got, flood_simulator(values, fg, seeds))

    @pytest.mark.parametrize("fg", [True, False])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_single_voxel_volume(self, fg, seed):
        values = np.zeros((1, 1, 1))
        fg = np.full((1, 1, 1), fg)
        seeds = np.full((1, 1, 1), seed, dtype=np.int32)
        got = watershed(TopographicMap(values, fg), LabelVolume(seeds)).labels
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, flood_simulator(values, fg, seeds))


def _component_cases(fg, seeds):
    """Which seed situations the 6-connected foreground components of one grid show."""
    comp, n = ndi.label(fg)
    clipped = np.where(fg, seeds, 0)
    cases = {"seed off foreground"} if (seeds[~fg] > 0).any() else set()
    kind_by_id = {}
    for c in range(1, n + 1):
        ids = set(np.unique(clipped[comp == c]).tolist()) - {0}
        kind = ("unseeded", "single", "contested")[min(len(ids), 2)]
        cases.add(kind)
        for i in ids:
            kind_by_id.setdefault(i, set()).add(kind)
            if kind == "contested" and ndi.label((comp == c) & (clipped == i))[1] > 1:
                cases.add("id with two blobs in a contested component")
    if any({"single", "contested"} <= kinds for kinds in kind_by_id.values()):
        cases.add("id filled here, contested there")
    return cases


def _pocket_cases(fg, seeds):
    """Which situations the pockets (6-connected unseeded foreground) of one grid show."""
    face = ndi.generate_binary_structure(3, 1)
    clipped = np.where(fg, seeds, 0)
    pocket, n = ndi.label(fg & (clipped == 0), structure=face)
    comp = ndi.label(fg, structure=face)[0]
    cases = set()
    kinds_by_comp = {}
    for p in range(1, n + 1):
        near = ndi.binary_dilation(pocket == p, structure=face)
        ids = set(clipped[near].tolist()) - {0}
        kind = ("seedless", "one id", "contested")[min(len(ids), 2)]
        cases.add(kind)
        kinds_by_comp.setdefault(int(comp[pocket == p][0]), set()).add(kind)
    if any({"one id", "contested"} <= kinds for kinds in kinds_by_comp.values()):
        cases.add("one id and contested in one component")
    padded = np.pad(pocket, 1)
    for z, y, x in zip(*np.nonzero(clipped)):
        around = padded[z:z + 3, y:y + 3, x:x + 3][face]
        if len(set(around.tolist()) - {0}) > 1:
            cases.add("seed next to several pockets")
    return cases


def _interior_seeds(fg, seeds):
    """Seed voxels of multi-ID components with no unseeded foreground face neighbour."""
    comp, n = ndi.label(fg)
    clipped = np.where(fg, seeds, 0)
    contested = np.zeros(n + 1, dtype=bool)
    for c in range(1, n + 1):
        contested[c] = len(set(clipped[comp == c].tolist()) - {0}) >= 2
    unseeded = fg & (clipped == 0)
    border = ndi.binary_dilation(unseeded, structure=ndi.generate_binary_structure(3, 1))
    return (clipped > 0) & contested[comp] & ~border


class TestSegment:
    @pytest.mark.parametrize(
        "variant,cfg",
        [
            ("sdt", PostprocConfig("sdt", seed_threshold=-0.14, foreground_threshold=0.0, dilate_result=True)),
            ("3label", PostprocConfig("3label", seed_threshold=0.7, foreground_threshold=0.95)),
            ("affinities", PostprocConfig("affinities", seed_threshold=0.99, foreground_threshold=0.99, dilate_result=True)),
        ],
    )
    def test_exact_targets_recover_two_instances(self, variant, cfg):
        lv = two_balls()
        seg = segment(encode_bundle(lv, variant), cfg)
        assert len(seg.ids()) == 2

    def test_cpv_seeding_requires_vector_channels(self):
        lv = two_balls()
        cfg = PostprocConfig("sdt", seed_source="cpv", cpv_seed_threshold=5)
        with pytest.raises(ChannelCountError):
            segment(encode_bundle(lv, "sdt"), cfg)
        seg = segment(encode_bundle(lv, "sdt", with_cpv=True), cfg)
        assert len(seg.ids()) == 2

    def test_all_background_gives_empty_segmentation(self):
        lv = LabelVolume(np.zeros((4, 4, 4), dtype=np.int32))
        cfg = PostprocConfig("sdt", seed_threshold=-0.14, foreground_threshold=0.0)
        seg = segment(encode_bundle(lv, "sdt"), cfg)
        assert seg.ids().size == 0

    def test_deterministic_across_runs(self, rng):
        lv = two_balls()
        bundle = encode_bundle(lv, "3label", with_cpv=True)
        cfg = PostprocConfig("3label", seed_threshold=0.7, foreground_threshold=0.95)
        a = segment(bundle, cfg)
        b = segment(bundle, cfg)
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PostprocConfig("gauss")
        with pytest.raises(ValueError):
            PostprocConfig("sdt", seed_source="votes")
        for bad in (-1.0, float("nan")):
            expected = f"cpv_seed_threshold must be a finite number >= 0, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(expected)):
                PostprocConfig("sdt", cpv_seed_threshold=bad)

    @pytest.mark.parametrize(
        "key,value,expected",
        [
            ("seed_threshold", True, "seed_threshold must be a finite number, got True"),
            ("foreground_threshold", False,
             "foreground_threshold must be a finite number, got False"),
            ("cpv_seed_threshold", True,
             "cpv_seed_threshold must be a finite number >= 0, got True"),
            ("seed_threshold", "0.5", "seed_threshold must be a finite number, got '0.5'"),
            ("seed_threshold", float("inf"), "seed_threshold must be a finite number, got inf"),
            ("foreground_threshold", float("nan"),
             "foreground_threshold must be a finite number, got nan"),
            ("dilate_result", "no", "dilate_result must be true or false, got 'no'"),
            ("dilate_result", 1, "dilate_result must be true or false, got 1"),
        ],
    )
    def test_config_values_named_in_error(self, key, value, expected):
        with pytest.raises(ValueError, match=re.escape(expected)):
            PostprocConfig("sdt", **{key: value})
