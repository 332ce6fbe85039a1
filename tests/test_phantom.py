import re

import numpy as np
import pytest

from nuclei3d import (
    PhantomConfig,
    encode_bundle,
    encode_three_label,
    generate_phantom,
    perturb_target,
)
from nuclei3d.errors import PlacementError
from nuclei3d.targets import BOUNDARY

from oracles import FACE_OFFSETS, touching_phantom_oracle


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
    def test_zero_instances(self):
        cfg = small_cfg(n_instances=0, noise_sigma=0.1)
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

    @pytest.mark.parametrize("radius_range", [(1.0, 1.5), (2.0, 4.0), (3.0, 6.0)])
    def test_touching_placement_matches_full_test_oracle(self, radius_range):
        for seed in range(4):
            cfg = PhantomConfig(
                shape=(16, 30, 30), n_instances=30, radius_range=radius_range,
                allow_touching=True, rng_seed=seed,
            )
            expected = touching_phantom_oracle(cfg)
            if expected is None:
                with pytest.raises(PlacementError):
                    generate_phantom(cfg)
            else:
                np.testing.assert_array_equal(generate_phantom(cfg)[0].labels, expected)

    def test_placement_failure(self):
        cfg = PhantomConfig(
            shape=(12, 12, 12), n_instances=50, radius_range=(3.0, 3.0), rng_seed=0
        )
        with pytest.raises(PlacementError, match="placement-failure"):
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
            ("allow_touching", 5, "allow_touching must be true or false, got 5"),
            ("allow_touching", "no", "allow_touching must be true or false, got 'no'"),
            ("shape", (8, True, 8), "shape[1] must be an integer >= 1, got True"),
            ("radius_range", (2, True), "radius_range[1] must be a finite number >= 1, got True"),
        ],
    )
    def test_bool_and_non_bool_values_rejected(self, key, value, expected):
        kwargs = dict(shape=(8, 8, 8), n_instances=1, radius_range=(2, 3))
        kwargs[key] = value
        with pytest.raises(ValueError, match=re.escape(expected)):
            PhantomConfig(**kwargs)

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
