import hashlib
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage as ndi

import nuclei3d.phantom as phantom_module
from nuclei3d import (
    MAIN_CHANNELS,
    PhantomConfig,
    TargetBundle,
    Volume,
    encode_bundle,
    encode_three_label,
    generate_phantom,
    perturb_target,
)
from nuclei3d.errors import ChannelCountError, PlacementError
from nuclei3d.targets import BOUNDARY

from oracles import (
    FACE_OFFSETS, perturb_oracle, separated_phantom_oracle, touching_phantom_oracle,
)


def small_cfg(**overrides):
    base = dict(
        shape=(24, 40, 40),
        n_instances=6,
        radius_range=(2.5, 4.0),
        min_gap=2.0,
        rng_seed=11,
    )
    base.update(overrides)
    return PhantomConfig(**base)


def pairwise_min_surface_distance(lab):
    """Exhaustive scan: minimum distance between any two instances' voxels."""
    ids = [int(i) for i in np.unique(lab) if i > 0]
    coords = {i: np.argwhere(lab == i).astype(float) for i in ids}
    best = np.inf
    for a_idx, a in enumerate(ids):
        for b in ids[a_idx + 1:]:
            d2 = ((coords[a][:, None, :] - coords[b][None, :, :]) ** 2).sum(axis=2)
            best = min(best, np.sqrt(d2.min()))
    return best


class TestGenerate:
    # (8, 8, 8) is too small for one instance of radius 3, but zero instances need no room
    @pytest.mark.parametrize(
        "shape,radius_range", [((24, 40, 40), (2.5, 4.0)), ((8, 8, 8), (3, 3))]
    )
    def test_zero_instances(self, shape, radius_range):
        cfg = small_cfg(shape=shape, radius_range=radius_range, n_instances=0, noise_sigma=0.1)
        labels, raw = generate_phantom(cfg)
        assert labels.ids().size == 0
        assert raw.data.std() > 0  # pure noise image

    def test_same_seed_bit_identical(self):
        cfg = small_cfg(noise_sigma=0.05, smoothing_sigma=0.7)
        a_labels, a_raw = generate_phantom(cfg)
        b_labels, b_raw = generate_phantom(cfg)
        assert a_labels == b_labels
        assert a_raw == b_raw

    def test_different_seed_differs(self):
        a, _ = generate_phantom(small_cfg(rng_seed=1))
        b, _ = generate_phantom(small_cfg(rng_seed=2))
        assert a != b

    def test_ids_contiguous(self):
        labels, _ = generate_phantom(small_cfg(n_instances=8, shape=(30, 44, 44)))
        np.testing.assert_array_equal(labels.ids(), np.arange(1, 9))

    def test_min_gap_verified_by_voxel_scan(self):
        cfg = PhantomConfig(
            shape=(36, 52, 52), n_instances=20, radius_range=(2.0, 3.0),
            min_gap=2.0, rng_seed=5,
        )
        labels, _ = generate_phantom(cfg)
        assert len(labels.ids()) == 20
        assert pairwise_min_surface_distance(labels.labels) >= 2.0

    def test_non_touching_has_no_inter_instance_boundary(self):
        labels, _ = generate_phantom(small_cfg())
        cls = encode_three_label(labels).channel(0)
        lab = labels.labels
        for z, y, x in np.argwhere(cls == BOUNDARY):
            neighbors = []
            for dz, dy, dx in FACE_OFFSETS:
                az, ay, ax = z + dz, y + dy, x + dx
                if 0 <= az < lab.shape[0] and 0 <= ay < lab.shape[1] and 0 <= ax < lab.shape[2]:
                    neighbors.append(lab[az, ay, ax])
            assert 0 in neighbors  # boundary voxels only ever border background
            assert all(n in (0, lab[z, y, x]) for n in neighbors)

    def test_touching_phantom_allows_adjacency(self):
        cfg = PhantomConfig(
            shape=(22, 36, 36), n_instances=24, radius_range=(2.5, 4.0),
            allow_touching=True, min_gap=0.0, rng_seed=3,
        )
        labels, _ = generate_phantom(cfg)
        assert len(labels.ids()) == 24
        # voxel-disjoint but some pair face-adjacent in a crowded volume
        lab = labels.labels
        touching = False
        for axis in range(3):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[axis] = slice(0, -1)
            hi[axis] = slice(1, None)
            a, b = lab[tuple(lo)], lab[tuple(hi)]
            touching |= bool(((a > 0) & (b > 0) & (a != b)).any())
        assert touching

    # a semi-axis above 2 fails the margins of the 9-voxel z axis: that attempt draws no center
    MARGIN_FAILING = ((9, 30, 30), (1.0, 3.5))

    @pytest.mark.parametrize(
        "shape,radius_range",
        [((16, 30, 30), (1.0, 1.5)), ((16, 30, 30), (2.0, 4.0)), ((16, 30, 30), (3.0, 6.0)),
         MARGIN_FAILING],
    )
    def test_touching_placement_matches_full_test_oracle(self, shape, radius_range):
        for seed in range(4):
            cfg = PhantomConfig(
                shape=shape, n_instances=30, radius_range=radius_range,
                allow_touching=True, rng_seed=seed,
            )
            expected = touching_phantom_oracle(cfg)
            if expected is None:
                with pytest.raises(PlacementError):
                    generate_phantom(cfg)
            else:
                np.testing.assert_array_equal(generate_phantom(cfg)[0].labels, expected)

    @pytest.mark.parametrize("n_instances", [8, 16])
    @pytest.mark.parametrize("min_gap", [0.0, 2.0, 5.5])
    @pytest.mark.parametrize(
        "shape,radius_range",
        [((24, 48, 48), (1.0, 1.5)), ((24, 48, 48), (2.0, 4.0)), ((24, 48, 48), (3.0, 6.0)),
         MARGIN_FAILING],
    )
    def test_separated_placement_matches_per_instance_norm_oracle(
        self, shape, radius_range, min_gap, n_instances
    ):
        # 16 instances of radius up to 4 or 6 cannot all be placed: both sides give up
        for seed in range(3):
            cfg = PhantomConfig(
                shape=shape, n_instances=n_instances, radius_range=radius_range,
                min_gap=min_gap, rng_seed=seed,
            )
            expected = separated_phantom_oracle(cfg)
            if expected is None:
                with pytest.raises(PlacementError, match="gave up after 400 attempts"):
                    generate_phantom(cfg)
            else:
                np.testing.assert_array_equal(generate_phantom(cfg)[0].labels, expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_train_targets_phantom_matches_per_instance_norm_oracle(self, seed):
        # the train-targets benchmark workload's SPARSE_PHANTOM
        cfg = PhantomConfig(
            shape=(32, 128, 128), n_instances=100, radius_range=(3.5, 6.0), min_gap=2.0,
            rng_seed=seed,
        )
        expected = separated_phantom_oracle(cfg)
        assert expected is not None
        np.testing.assert_array_equal(generate_phantom(cfg)[0].labels, expected)

    @pytest.mark.parametrize(
        "shape,n_instances,expected",
        [
            ((12, 12, 12), 50, "placement-failure"),
            ((8, 8, 8), 1, "placement-failure: shape (8, 8, 8) too small for radius 3.0"),
        ],
    )
    def test_placement_failure(self, shape, n_instances, expected):
        cfg = PhantomConfig(
            shape=shape, n_instances=n_instances, radius_range=(3.0, 3.0), rng_seed=0
        )
        with pytest.raises(PlacementError, match=re.escape(expected)):
            generate_phantom(cfg)

    def test_huge_instance_count_gives_up_placing(self):
        # placement stores one row per placed instance, not per instance asked for
        cfg = PhantomConfig(
            shape=(12, 12, 12), n_instances=10**15, radius_range=(3.0, 3.0), rng_seed=0
        )
        with pytest.raises(PlacementError, match=r"for instance 2 of 1000000000000000$"):
            generate_phantom(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PhantomConfig(shape=(8, 8), n_instances=1, radius_range=(2, 3))
        with pytest.raises(ValueError):
            PhantomConfig(shape=(8, 8, 8), n_instances=1, radius_range=(0.5, 3))

    @pytest.mark.parametrize(
        "key,value,expected",
        [
            ("n_instances", True, "n_instances must be an integer >= 0, got True"),
            ("rng_seed", False, "rng_seed must be an integer >= 0, got False"),
            ("min_gap", True, "min_gap must be a finite number >= 0, got True"),
            ("allow_touching", 5, "allow_touching must be True or False, got 5"),
            ("allow_touching", "no", "allow_touching must be True or False, got 'no'"),
            ("shape", (8, True, 8), "shape[1] must be an integer >= 1, got True"),
            ("radius_range", (2, True), "radius_range[1] must be a finite number >= 1, got True"),
            ("radius_range", (3, 2), "radius_range must have min <= max, got [3.0, 2.0]"),
        ],
    )
    def test_bool_and_non_bool_values_rejected(self, key, value, expected):
        kwargs = dict(shape=(8, 8, 8), n_instances=1, radius_range=(2, 3))
        kwargs[key] = value
        with pytest.raises(ValueError, match=re.escape(expected)):
            PhantomConfig(**kwargs)

    def test_noisy_smoothed_phantom_bits_are_pinned(self):
        # the noise is one whole-volume draw, filled in C order
        cfg = PhantomConfig(
            shape=(16, 64, 64), n_instances=6, radius_range=(3.0, 6.0), rng_seed=7,
            noise_sigma=0.05, smoothing_sigma=0.8,
        )
        labels, raw = generate_phantom(cfg)
        assert hashlib.sha256(raw.data.tobytes()).hexdigest() == (
            "b2fc93718a6d95a2a6638a4903d3fc0084599b0ecb3c23e3fcba57b93f2acaba"
        )
        assert hashlib.sha256(labels.labels.tobytes()).hexdigest() == (
            "54df58cffd9f652015d3990408cd08f519c084dd6138cccf70a624535c961f48"
        )

    @pytest.mark.parametrize(
        "cfg,raw_digest,labels_digest",
        [
            (  # crowded: asked for 70 instances, this seed gives up on the 70th
                PhantomConfig(
                    shape=(16, 48, 48), n_instances=68, radius_range=(2.0, 4.0),
                    allow_touching=True, rng_seed=3, noise_sigma=0.05, smoothing_sigma=0.7,
                ),
                "2ac881b27e69bc9ebc59ae73b5d32de33da90be9b389ad252ca2a53c0aa9c0c8",
                "f8af8932265c1b071f7a2612484f4f6be345d342e999cd9ca4f4486ad3b597a0",
            ),
            (  # margins fail on the 9-voxel z axis
                PhantomConfig(
                    shape=(9, 30, 30), n_instances=8, radius_range=(1.0, 3.5), min_gap=2.0,
                    rng_seed=0, noise_sigma=0.1, smoothing_sigma=0.6,
                ),
                "0d0b6c13113ce3b2a67b900a2ba1783f34d10ce7cc024a285b7d94ff60d6255e",
                "ceca2f3d50bbe96afd0491b2dd36536cf00606047f11db2ddea1900de63e937c",
            ),
        ],
        ids=["crowded_touching", "margin_failing_separated"],
    )
    def test_raw_after_many_attempts_is_pinned(self, cfg, raw_digest, labels_digest):
        # intensities and noise are drawn after placement, from where its last attempt left
        # the stream, so a raw digest pins the draws that placement consumed
        labels, raw = generate_phantom(cfg)
        assert hashlib.sha256(raw.data.tobytes()).hexdigest() == raw_digest
        assert hashlib.sha256(labels.labels.tobytes()).hexdigest() == labels_digest

    @pytest.mark.parametrize("first,batch", [(1, 1), (3, 7), (5, 5), (400, 400)])
    def test_batch_sizes_change_no_bit(self, monkeypatch, first, batch):
        # a batch reaching past the placed attempt or the attempt limit is rewound
        configs = [
            PhantomConfig(
                shape=(16, 48, 48), n_instances=68, radius_range=(2.0, 4.0),
                allow_touching=True, rng_seed=3, noise_sigma=0.05,
            ),
            PhantomConfig(
                shape=(9, 30, 30), n_instances=8, radius_range=(1.0, 3.5), rng_seed=0,
                noise_sigma=0.1,
            ),
            PhantomConfig(shape=(9, 30, 30), n_instances=8, radius_range=(1.0, 3.5), rng_seed=2),
        ]

        def outcomes():
            for cfg in configs:
                try:
                    labels, raw = generate_phantom(cfg)
                except PlacementError as e:
                    yield str(e)
                else:
                    yield labels.labels.tobytes() + raw.data.tobytes()

        expected = list(outcomes())
        monkeypatch.setattr(phantom_module, "_FIRST_BATCH", first)
        monkeypatch.setattr(phantom_module, "_BATCH", batch)
        assert list(outcomes()) == expected

    def test_numpy_scalars_are_plain_numbers(self):
        cfg = PhantomConfig(
            shape=[np.int64(8), np.int32(9), 10], n_instances=1,
            radius_range=(np.float32(2.0), np.int64(3)),
        )
        assert cfg.shape == (8, 9, 10) and cfg.radius_range == (2.0, 3.0)
        assert all(type(v) is int for v in cfg.shape)
        assert all(type(v) is float for v in cfg.radius_range)

    def test_numpy_scalar_fields_are_plain_numbers(self, tmp_path):
        from nuclei3d import read_report, write_report

        cfg = PhantomConfig(
            shape=(8, 8, 8), n_instances=np.int64(1), radius_range=(2, 3),
            min_gap=np.float32(1.5), rng_seed=np.uint8(4), noise_sigma=np.int64(0),
            smoothing_sigma=np.float64(0.5),
        )
        assert all(type(getattr(cfg, k)) is int for k in ("n_instances", "rng_seed"))
        assert all(
            type(getattr(cfg, k)) is float for k in ("min_gap", "noise_sigma", "smoothing_sigma")
        )
        path = tmp_path / "phantom.yaml"
        write_report(path, cfg.to_mapping())
        assert PhantomConfig.from_mapping(read_report(path)) == cfg

    def test_config_yaml_round_trip(self, tmp_path):
        from nuclei3d import read_report, write_report

        cfg = small_cfg(noise_sigma=0.1)
        path = tmp_path / "phantom.yaml"
        write_report(path, cfg.to_mapping())
        assert PhantomConfig.from_mapping(read_report(path)) == cfg


def _ulps(t, k):
    """``t`` moved ``k`` ulps, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        t = math.nextafter(t, math.inf if k > 0 else 0.0)
    return t


class TestSeparation:
    """``_too_close_rows`` decides every pair as ``np.linalg.norm(center - c) < t`` does."""

    @staticmethod
    def too_close(centers, placed, thresholds):
        return phantom_module._too_close_rows(
            np.asarray(centers, float), np.asarray(placed, float), np.asarray(thresholds, float)
        ).tolist()

    def assert_scalar_rule(self, center, placed, thresholds):
        center, placed = np.asarray(center, float), np.asarray(placed, float)
        rows = [np.linalg.norm(center - c) < t for c, t in zip(placed, thresholds)]
        for c, t, rule in zip(placed, thresholds, rows):
            assert self.too_close([center], [c], [[t]]) == [rule]
        assert self.too_close([center], placed, [thresholds]) == [any(rows)]
        return rows

    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 3])
    def test_exact_distance_on_and_one_ulp_either_side(self, k):
        # 3-4-0 and 2-3-6 are 5 and 7 apart exactly; the distance is closer only above it
        for center, c, dist in (((0, 0, 0), (3, 4, 0), 5.0), ((1, 2, 3), (3, 5, 9), 7.0)):
            assert self.assert_scalar_rule(center, [c], [_ulps(dist, k)]) == [k > 0]

    @pytest.mark.parametrize("relative", [-5e-10, -1e-12, 1e-12, 5e-10, -1e-6, 1e-6])
    def test_inside_and_outside_the_margin(self, relative):
        center, c = np.array([0.1, 0.2, 0.3]), np.array([1.7, -2.9, 3.3])
        t = np.linalg.norm(center - c) * (1 + relative)
        assert self.assert_scalar_rule(center, [c], [t]) == [relative > 0]

    def test_thresholds_a_few_ulps_from_each_norm(self):
        # about one row in seven has a sqrt of its einsum one ulp from np.linalg.norm,
        # so a test of the vectorised distance alone gets some of these rows wrong
        rng = np.random.default_rng(0)
        center = rng.uniform(0, 100, size=3)
        placed = rng.uniform(0, 100, size=(300, 3))
        norms = [np.linalg.norm(center - c) for c in placed]
        for k in (-2, -1, 0, 1, 2):
            thresholds = [_ulps(n, k) for n in norms]
            assert self.assert_scalar_rule(center, placed, thresholds) == [k > 0] * len(norms)
            # a batch of attempts at one center, each with one placed center closer
            # than its threshold among others that are not, and one with none
            mixed = np.array([[_ulps(n, -1) for n in norms]] * 4)
            for row, i in enumerate((0, 150, 299)):
                mixed[row, i] = _ulps(norms[i], k)
            assert self.too_close([center] * 4, placed, mixed) == [k > 0] * 3 + [False]


class TestPerturb:
    @pytest.fixture
    def bundle(self):
        labels, _ = generate_phantom(small_cfg())
        return encode_bundle(labels, "3label", with_cpv=True)

    def test_zero_noise_zero_smoothing_identity(self, bundle):
        out = perturb_target(bundle, 0.0, 0.0, rng_seed=4)
        assert out.volume == bundle.volume
        assert out.variant == bundle.variant and out.with_cpv == bundle.with_cpv

    def test_same_seed_identical(self, bundle):
        a = perturb_target(bundle, 0.1, 1.0, rng_seed=9)
        b = perturb_target(bundle, 0.1, 1.0, rng_seed=9)
        assert a.volume == b.volume

    def test_probability_channels_clamped(self, bundle):
        out = perturb_target(bundle, 0.5, 0.0, rng_seed=9)
        main = out.volume.data[:3]
        assert main.min() >= 0.0 and main.max() <= 1.0

    def test_sdt_channel_clamped_to_tanh_range(self):
        labels, _ = generate_phantom(small_cfg())
        bundle = encode_bundle(labels, "sdt")
        out = perturb_target(bundle, 0.5, 0.0, rng_seed=9)
        assert out.volume.data.min() >= -1.0 and out.volume.data.max() <= 1.0

    def test_vector_channels_not_clamped(self, bundle):
        out = perturb_target(bundle, 0.0, 0.5, rng_seed=9)
        # negative vector components survive; a [0, 1] clamp would erase them
        assert out.volume.data[3:].min() < -1.0

    @pytest.mark.parametrize("shape", [(1, 9, 11), (6, 1, 8), (5, 7, 1), (6, 9, 8)])
    @pytest.mark.parametrize("variant,with_cpv", [
        ("sdt", True), ("3label", True), ("affinities", False), ("gauss", False),
    ])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_oracle(self, rng, shape, variant, with_cpv, dtype):
        channels = MAIN_CHANNELS[variant] + 3 * with_cpv
        data = rng.normal(scale=2.0, size=(channels,) + shape)
        pick = rng.random(data.shape)
        data[pick < 0.2] = -0.0
        data[pick > 0.8] = 0.0
        data = data.astype(dtype)
        bundle = TargetBundle(Volume(data), variant, with_cpv)
        clamp = (-1.0, 1.0) if variant == "sdt" else (0.0, 1.0)
        for noise, smooth in ((0.0, 0.0), (0.3, 0.0), (0.0, 0.8), (0.3, 0.8), (1e-3, 2.5)):
            out = perturb_target(bundle, noise, smooth, rng_seed=17)
            expected = perturb_oracle(
                data, MAIN_CHANNELS[variant], clamp, noise, smooth, rng_seed=17
            )
            assert out.volume.data.dtype == np.float64
            assert out.volume.data.tobytes() == expected.tobytes()

    # Spatial shapes with axes of length 1 and 2, and axes shorter than the kernel
    # radius r (1 at sigma 0.3, 2 at 0.5, 4 at 1, 10 at 2.5). Every (y, x) plane here
    # is below the numpy-pass plane size, so each case runs on scipy's z and y passes,
    # and again with the plane size forced down, which takes numpy's passes where
    # r <= min(nz, ny): r == n at sigma 0.3 on (1, 1, 1) and (40, 1, 3), and at 0.5
    # on (9, 2, 17), is the padding's widest reflection.
    MATRIX_SHAPES = [(1, 1, 1), (5, 7, 9), (3, 200, 4), (40, 1, 3), (9, 2, 17)]
    MATRIX_SIGMAS = [1e-200, 1e-16, 0.3, 0.5, 1.0, 2.5]

    @pytest.fixture(params=["scipy_passes", "numpy_passes"])
    def passes(self, request, monkeypatch):
        if request.param == "numpy_passes":
            monkeypatch.setattr(phantom_module, "_NUMPY_PLANE", 1)
        return request.param

    @pytest.mark.parametrize("shape", MATRIX_SHAPES)
    @pytest.mark.parametrize("sigma", MATRIX_SIGMAS)
    def test_perturb_matrix_bit_identical_to_oracle(self, rng, passes, shape, sigma):
        # sdt with CPV channels: one clipped channel and three free ones, the last all -0.0
        data = rng.normal(scale=2.0, size=(4,) + shape)
        data[-1] = -0.0
        bundle = TargetBundle(Volume(data), "sdt", True)
        for noise in (0.0, 0.3):
            out = perturb_target(bundle, noise, sigma, rng_seed=5)
            expected = perturb_oracle(data, 1, (-1.0, 1.0), noise, sigma, rng_seed=5)
            assert out.volume.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_perturb_numpy_passes_at_their_plane_size(self, rng, sigma):
        shape = (3, 64, 70)
        assert shape[1] * shape[2] >= phantom_module._NUMPY_PLANE
        data = rng.normal(size=(4,) + shape)
        out = perturb_target(TargetBundle(Volume(data), "gauss", True), 0.1, sigma, rng_seed=3)
        expected = perturb_oracle(data, 1, (0.0, 1.0), 0.1, sigma, rng_seed=3)
        assert out.volume.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_many_channels_with_noise_at_numpy_plane_size(self, rng, order):
        # one noise draw per channel, each just before that channel is smoothed;
        # a Fortran-ordered volume keeps its layout through astype
        data = np.asarray(rng.random((MAIN_CHANNELS["affinities"] + 3, 5, 64, 70)), order=order)
        out = perturb_target(TargetBundle(Volume(data), "affinities", True), 0.2, 1.0, rng_seed=8)
        expected = perturb_oracle(data, MAIN_CHANNELS["affinities"], (0.0, 1.0), 0.2, 1.0, 8)
        assert out.volume.data.tobytes() == expected.tobytes()

    def test_concurrent_callers_under_fast_thread_switching(self, rng):
        # four callers on fewer cores, each with its own seeded stream; a draw from
        # another caller's stream, or a channel smoothed before its draw, changes the bytes
        data = rng.random((4, 6, 9, 8))
        bundle = TargetBundle(Volume(data), "sdt", True)
        expected = [perturb_oracle(data, 1, (-1.0, 1.0), 0.3, 0.8, seed) for seed in range(4)]
        got = [None] * 4

        def call(seed):
            for _ in range(25):
                got[seed] = perturb_target(bundle, 0.3, 0.8, rng_seed=seed).volume.data.tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(seed,)) for seed in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == [e.tobytes() for e in expected]

    def test_smoothing_failure_keeps_its_type(self, bundle, monkeypatch):
        def smooth_then_fail(channel, sigma):
            calls.append(channel)
            if len(calls) == 2:
                raise MemoryError("planted")

        calls = []
        monkeypatch.setattr(phantom_module, "_smooth", smooth_then_fail)
        with pytest.raises(MemoryError, match="planted"):
            perturb_target(bundle, 0.1, 1.0, rng_seed=9)
        assert len(calls) == 2

    def test_noise_failure_is_reraised(self, bundle, monkeypatch):
        class Planted(Exception):
            pass

        class FailOnThird:
            def normal(self, loc, scale, size):
                draws.append(size)
                if len(draws) == 3:
                    raise Planted("third draw")
                return np.zeros(size)

        draws, smoothed = [], []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: FailOnThird())
        monkeypatch.setattr(phantom_module, "_smooth", lambda c, sigma: smoothed.append(c))
        with pytest.raises(Planted, match="third draw"):
            perturb_target(bundle, 0.1, 1.0, rng_seed=9)
        # channels 0 and 1 drawn and smoothed; nothing drawn or smoothed after the failure
        assert len(draws) == 3 and len(smoothed) == 2

    @pytest.mark.parametrize(
        "target", [np.zeros((3, 4, 4, 4)), Volume(np.zeros((3, 4, 4, 4))), None]
    )
    def test_non_bundle_is_typed_refusal(self, target):
        name = type(target).__name__
        with pytest.raises(ChannelCountError, match=f"expected a TargetBundle, got {name}$"):
            perturb_target(target, 0.1, 1.0, rng_seed=9)


# From 2**56 on the kernel radius int(4 sigma + 0.5) reaches 2**58 and numpy cannot size
# its 2r + 1 float64 taps: once int() overflowed (1e308) or numpy named no key (1e300).
@pytest.mark.parametrize("sigma", [2.0**56, 1e300, 1e308, sys.float_info.max])
def test_huge_smoothing_sigma_is_refused_naming_the_key(sigma):
    bound = "a finite number >= 0 and < 72057594037927936"
    expected = f"smoothing_sigma must be {bound}, got {sigma!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        small_cfg(smoothing_sigma=sigma)
    bundle = encode_bundle(generate_phantom(small_cfg(n_instances=1))[0], "sdt")
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        perturb_target(bundle, 0.0, sigma, 0)


def test_smoothing_bound_is_exactly_two_to_56():
    # an int, so a float sigma compares with it exactly
    assert type(phantom_module._MAX_SIGMA) is int and phantom_module._MAX_SIGMA == 2**56


def test_largest_accepted_smoothing_sigma_is_out_of_memory():
    # numpy sizes the kernel and refuses to allocate its 4 EiB; no memory is touched
    sigma = math.nextafter(2.0**56, 0)
    bundle = encode_bundle(generate_phantom(small_cfg(n_instances=1))[0], "sdt")
    with pytest.raises(MemoryError):
        perturb_target(bundle, 0.0, sigma, 0)


# r = 4 takes numpy's z and y passes; r = 100 and 400 exceed nz and take scipy's
@pytest.mark.parametrize("sigma", [1.0, 25.0, 100.0])
def test_smoothing_buffers_are_bounded_by_the_channel(sigma):
    channel = np.random.default_rng(2).random((32, 128, 128))
    expected = ndi.gaussian_filter(channel, sigma)
    tracemalloc.start()
    try:
        phantom_module._smooth(channel, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * channel.nbytes
    assert channel.tobytes() == expected.tobytes()


# sigma 0 smooths nothing, so the channel-sized draw itself is the peak
@pytest.mark.parametrize("smoothing_sigma", [1.0, 0])
def test_perturb_noise_is_drawn_per_channel(smoothing_sigma):
    # one draw per channel peaks near the float64 output plus 1.38 channels at
    # sigma 1 and plus 1 channel at sigma 0; one draw for the whole bundle
    # would hold a second output-sized array
    data = np.random.default_rng(3).random((6, 32, 128, 128), dtype=np.float32)
    bundle = TargetBundle(Volume(data), "3label", True)
    tracemalloc.start()
    try:
        out = perturb_target(bundle, 0.1, smoothing_sigma, rng_seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.volume.data.nbytes + 2 * out.volume.data[0].nbytes


@pytest.mark.parametrize("shape", [(12, 48, 48), (10, 64, 64)])  # scipy's passes, numpy's
def test_phantom_smoothing_bit_identical_to_gaussian_filter(monkeypatch, shape):
    cfg = small_cfg(shape=shape, n_instances=5, noise_sigma=0.05, smoothing_sigma=1.3)
    labels, raw = generate_phantom(cfg)

    def scipy_smooth(data, sigma):
        data[...] = ndi.gaussian_filter(data, sigma)

    monkeypatch.setattr(phantom_module, "_smooth", scipy_smooth)
    ref_labels, ref_raw = generate_phantom(cfg)
    assert labels == ref_labels
    assert raw.data.tobytes() == ref_raw.data.tobytes()
