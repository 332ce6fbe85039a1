import re

import numpy as np
import pytest

from nuclei3d import (
    LabelVolume,
    Volume,
    combined_loss,
    encode_cpv,
    encode_three_label,
    main_loss_weight,
    sigmoid_bce_loss,
    softmax_ce_loss,
    ssd_loss,
)
from nuclei3d.errors import InvalidClassError, ShapeMismatchError

from conftest import random_blob_labels
from oracles import combined_oracle, sigmoid_bce_oracle, softmax_ce_oracle, ssd_oracle


def finite_difference_gradient(fn, data, h=1e-4):
    """Central differences of a scalar function of a (c, z, y, x) array."""
    grad = np.zeros_like(data)
    flat = grad.ravel()
    base = data.ravel()
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] += h
        hi = fn(bumped.reshape(data.shape))
        bumped[i] -= 2 * h
        lo = fn(bumped.reshape(data.shape))
        flat[i] = (hi - lo) / (2 * h)
    return grad


def relative_gradient_error(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
    return np.abs(analytic - numeric).max() / scale


class TestSsd:
    def test_zero_at_optimum(self, rng):
        data = rng.random((2, 3, 3, 3))
        res = ssd_loss(Volume(data), Volume(data.copy()))
        assert res.value == 0.0
        np.testing.assert_array_equal(res.gradient.data, 0.0)

    def test_single_masked_voxel(self):
        pred = np.zeros((1, 2, 2, 2))
        target = np.zeros((1, 2, 2, 2))
        mask = np.zeros((1, 2, 2, 2))
        pred[0, 0, 0, 1] = 1.0
        pred[0, 1, 1, 1] = 5.0  # outside the mask, must not contribute
        mask[0, 0, 0, 1] = 1.0
        res = ssd_loss(Volume(pred), Volume(target), Volume(mask))
        assert res.value == 1.0
        assert res.gradient.data[0, 0, 0, 1] == 2.0
        assert res.gradient.data[0, 1, 1, 1] == 0.0

    def test_all_zero_mask(self, rng):
        pred = Volume(rng.random((2, 3, 3, 3)))
        target = Volume(rng.random((2, 3, 3, 3)))
        res = ssd_loss(pred, target, Volume(np.zeros((1, 3, 3, 3))))
        assert res.value == 0.0
        np.testing.assert_array_equal(res.gradient.data, 0.0)

    def test_gradient_matches_finite_differences(self, rng):
        target = Volume(rng.random((2, 4, 4, 4)))
        mask = Volume((rng.random((1, 4, 4, 4)) < 0.5).astype(np.float64))
        pred = rng.random((2, 4, 4, 4))
        res = ssd_loss(Volume(pred), target, mask)
        fd = finite_difference_gradient(
            lambda d: ssd_loss(Volume(d), target, mask).value, pred
        )
        assert relative_gradient_error(res.gradient.data, fd) < 1e-5

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            ssd_loss(Volume(rng.random((1, 2, 2, 2))), Volume(rng.random((1, 3, 2, 2))))
        with pytest.raises(ShapeMismatchError):
            ssd_loss(
                Volume(rng.random((2, 2, 2, 2))),
                Volume(rng.random((2, 2, 2, 2))),
                Volume(rng.random((2, 2, 2, 2))),  # mask must be single channel
            )


class TestSoftmaxCe:
    def test_uniform_logits_give_ln3(self):
        logits = Volume(np.zeros((3, 1, 1, 1)))
        target = Volume(np.array([[[[2]]]], dtype=np.uint8))
        res = softmax_ce_loss(logits, target)
        assert res.value == pytest.approx(np.log(3.0), abs=1e-12)

    def test_saturated_true_class_approaches_zero(self):
        logits = np.zeros((3, 1, 1, 1))
        logits[1] = 50.0
        target = Volume(np.array([[[[1]]]], dtype=np.uint8))
        res = softmax_ce_loss(Volume(logits), target)
        assert res.value < 1e-12

    def test_monotone_decrease_towards_target(self, rng):
        target = Volume(rng.integers(0, 3, size=(1, 3, 3, 3)).astype(np.uint8))
        one_hot = (target.data[0] == np.arange(3)[:, None, None, None]).astype(float)
        values = [
            softmax_ce_loss(Volume(scale * one_hot), target).value
            for scale in (0.0, 1.0, 5.0, 20.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(3, 3, 3, 3))
        target = Volume(rng.integers(0, 3, size=(1, 3, 3, 3)).astype(np.uint8))
        shift = rng.normal(size=(1, 3, 3, 3))
        a = softmax_ce_loss(Volume(logits), target).value
        b = softmax_ce_loss(Volume(logits + shift), target).value
        assert a == pytest.approx(b, abs=1e-9)

    def test_gradient_matches_finite_differences(self, rng):
        target = Volume(rng.integers(0, 3, size=(1, 3, 3, 3)).astype(np.uint8))
        logits = rng.normal(size=(3, 3, 3, 3))
        res = softmax_ce_loss(Volume(logits), target)
        fd = finite_difference_gradient(
            lambda d: softmax_ce_loss(Volume(d), target).value, logits
        )
        assert relative_gradient_error(res.gradient.data, fd) < 1e-5

    def test_invalid_class(self):
        logits = Volume(np.zeros((3, 1, 1, 1)))
        with pytest.raises(InvalidClassError):
            softmax_ce_loss(logits, Volume(np.array([[[[4]]]], dtype=np.uint8)))

    def test_channel_count(self, rng):
        with pytest.raises(ShapeMismatchError):
            softmax_ce_loss(
                Volume(rng.random((2, 2, 2, 2))),
                Volume(np.zeros((1, 2, 2, 2), dtype=np.uint8)),
            )


class TestSigmoidBce:
    @pytest.mark.parametrize("target_value", [0.0, 1.0])
    def test_zero_logit_gives_ln2(self, target_value):
        logits = Volume(np.zeros((1, 1, 1, 1)))
        target = Volume(np.full((1, 1, 1, 1), target_value))
        assert sigmoid_bce_loss(logits, target).value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_extreme_logits_are_stable(self):
        logits = Volume(np.array([500.0, -500.0]).reshape(2, 1, 1, 1))
        target = Volume(np.array([1.0, 0.0]).reshape(2, 1, 1, 1))
        res = sigmoid_bce_loss(logits, target)
        assert res.value < 1e-12
        assert np.isfinite(res.gradient.data).all()

    def test_gradient_matches_finite_differences(self, rng):
        target = Volume((rng.random((4, 3, 3, 3)) < 0.5).astype(np.float64))
        logits = rng.normal(size=(4, 3, 3, 3))
        res = sigmoid_bce_loss(Volume(logits), target)
        fd = finite_difference_gradient(
            lambda d: sigmoid_bce_loss(Volume(d), target).value, logits
        )
        assert relative_gradient_error(res.gradient.data, fd) < 1e-5

    def test_nonbinary_target_rejected(self, rng):
        with pytest.raises(InvalidClassError):
            sigmoid_bce_loss(Volume(np.zeros((1, 2, 2, 2))), Volume(np.full((1, 2, 2, 2), 0.5)))


class TestCombined:
    def test_weight_is_100_for_sdt_only(self):
        assert main_loss_weight("sdt") == 100.0
        for variant in ("3label", "affinities", "gauss"):
            assert main_loss_weight(variant) == 1.0

    @pytest.mark.parametrize("variant", ["x", "SDT", None])
    def test_weight_of_unknown_variant_refused(self, variant):
        with pytest.raises(ValueError, match=re.escape(
            f"variant must be 'sdt' or '3label' or 'affinities' or 'gauss', got {variant!r}"
        )):
            main_loss_weight(variant)

    def test_zero_cpv_error_reduces_to_weighted_main(self, rng):
        lab = random_blob_labels(rng, (5, 5, 5), 2)
        cpv = encode_cpv(LabelVolume(lab))
        fg = Volume((lab > 0).astype(np.float64))
        main = ssd_loss(Volume(rng.random((1, 5, 5, 5))), Volume(rng.random((1, 5, 5, 5))))
        res = combined_loss(main, cpv, cpv, fg, main_weight=100.0)
        assert res.value == pytest.approx(100.0 * main.value, rel=1e-15)
        assert res.gradient.channels == 4
        np.testing.assert_array_equal(res.gradient.data[1:], 0.0)

    def test_gradient_matches_finite_differences(self, rng):
        lab = random_blob_labels(rng, (3, 3, 3), 2)
        lv = LabelVolume(lab)
        cls_target = encode_three_label(lv)
        cpv_target = encode_cpv(lv)
        fg = Volume((lab > 0).astype(np.float64)[np.newaxis])
        full = rng.normal(size=(6, 3, 3, 3))

        def loss_of(data):
            main = softmax_ce_loss(Volume(data[:3]), cls_target)
            return combined_loss(
                main, Volume(data[3:]), cpv_target, fg, main_weight=1.0
            )

        res = loss_of(full)
        fd = finite_difference_gradient(lambda d: loss_of(d).value, full)
        assert relative_gradient_error(res.gradient.data, fd) < 1e-5

    def test_main_gradient_shape_must_match_cpv(self):
        cpv = Volume(np.zeros((3, 2, 2, 2)))
        fg = Volume(np.ones((1, 2, 2, 2)))
        main = ssd_loss(Volume(np.zeros((1, 1, 1, 1))), Volume(np.zeros((1, 1, 1, 1))))
        with pytest.raises(ShapeMismatchError, match="combined_loss main gradient"):
            combined_loss(main, cpv, cpv, fg, main_weight=1.0)

    def test_main_weight_must_be_positive(self, rng):
        cpv = Volume(np.zeros((3, 2, 2, 2)))
        fg = Volume(np.ones((1, 2, 2, 2)))
        main = ssd_loss(cpv, cpv)
        with pytest.raises(ValueError):
            combined_loss(main, cpv, cpv, fg, main_weight=0.0)


# Shapes with a 1-voxel axis in each spatial position and none; channels are set per test.
BIT_EXACT_SHAPES = [(1, 5, 7), (4, 1, 6), (3, 4, 1), (3, 4, 5)]


def _zeros(*shape):
    return Volume(np.zeros(shape))


@pytest.mark.parametrize(
    "call,expected",
    [
        (lambda: ssd_loss(_zeros(1, 2, 2, 2), _zeros(2, 2, 2, 2)),
         "ssd_loss pred shape (1, 2, 2, 2) vs target shape (2, 2, 2, 2)"),
        (lambda: ssd_loss(_zeros(2, 2, 2, 2), _zeros(2, 2, 2, 2), _zeros(2, 2, 2, 2)),
         "ssd_loss mask shape (2, 2, 2, 2) vs one pred channel shape (1, 2, 2, 2)"),
        (lambda: softmax_ce_loss(_zeros(3, 2, 2, 2), _zeros(2, 2, 2, 2)),
         "softmax_ce_loss target shape (2, 2, 2, 2) vs one logit channel shape (1, 2, 2, 2)"),
        (lambda: sigmoid_bce_loss(_zeros(2, 2, 2, 3), _zeros(2, 2, 2, 2)),
         "sigmoid_bce_loss logits shape (2, 2, 2, 3) vs target shape (2, 2, 2, 2)"),
        (lambda: combined_loss(ssd_loss(_zeros(1, 1, 1, 1), _zeros(1, 1, 1, 1)), _zeros(3, 2, 2, 2),
                               _zeros(3, 2, 2, 2), _zeros(1, 2, 2, 2), main_weight=1.0),
         "combined_loss main gradient shape (1, 1, 1) vs cpv pred shape (2, 2, 2)"),
    ],
    ids=["ssd-target", "ssd-mask-channels", "softmax-target-channels", "bce-target", "combined"],
)
def test_shape_refusals_name_both_sides(call, expected):
    with pytest.raises(ShapeMismatchError, match=f"^{re.escape(expected)}$"):
        call()


def _signed_zeros(rng, data):
    """``data`` with about a quarter of its entries set to -0.0 and another to +0.0."""
    out = data.copy()
    pick = rng.random(out.shape)
    out[pick < 0.25] = -0.0
    out[(pick >= 0.25) & (pick < 0.5)] = 0.0
    return out


def _logits(rng, shape, dtype=np.float64):
    """Normal logits with -0.0, +0.0 and saturating +-800 entries."""
    x = _signed_zeros(rng, rng.normal(scale=3.0, size=shape))
    pick = rng.random(shape)
    x[pick < 0.1] = 800.0
    x[pick > 0.9] = -800.0
    return x.astype(dtype)


def _masks(rng, shape):
    yield "none", None
    yield "zeros", np.zeros(shape)
    yield "ones", np.ones(shape)
    yield "binary", (rng.random(shape) < 0.5).astype(np.float64)
    yield "weights", _signed_zeros(rng, rng.random(shape) * 3.0)
    # subnormal products: 2 * (diff * m) rounds differently from (2 * diff) * m
    yield "subnormal", rng.random(shape) * 1e-310


def _assert_bit_identical(result, value, grad):
    assert np.float64(result.value).tobytes() == np.float64(value).tobytes()
    assert result.gradient.data.dtype == grad.dtype == np.float64
    assert result.gradient.data.tobytes() == grad.tobytes()


class TestBitIdenticalToOracles:
    """The in-place losses against the whole-array formulas in ``oracles``, bit for bit."""

    @pytest.mark.parametrize("shape", BIT_EXACT_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ssd(self, rng, shape, dtype):
        for channels in (1, 3):
            pred = _signed_zeros(rng, rng.normal(size=(channels,) + shape)).astype(dtype)
            target = _signed_zeros(rng, rng.normal(size=(channels,) + shape)).astype(dtype)
            for _, mask in _masks(rng, (1,) + shape):
                res = ssd_loss(Volume(pred), Volume(target), None if mask is None else Volume(mask))
                _assert_bit_identical(res, *ssd_oracle(pred, target, mask))

    @pytest.mark.parametrize("shape", BIT_EXACT_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_softmax_ce(self, rng, shape, dtype):
        for _ in range(3):
            logits = _logits(rng, (3,) + shape, dtype)
            cls = rng.integers(0, 3, size=(1,) + shape).astype(np.uint8)
            res = softmax_ce_loss(Volume(logits), Volume(cls))
            _assert_bit_identical(res, *softmax_ce_oracle(logits, cls[0]))

    @pytest.mark.parametrize("shape", BIT_EXACT_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_bce(self, rng, shape, dtype):
        logits = _logits(rng, (4,) + shape, dtype)
        for target in (
            np.zeros((4,) + shape),
            np.ones((4,) + shape),
            (rng.random((4,) + shape) < 0.5).astype(dtype),
        ):
            res = sigmoid_bce_loss(Volume(logits), Volume(target))
            _assert_bit_identical(res, *sigmoid_bce_oracle(logits, target))

    @pytest.mark.parametrize("shape", BIT_EXACT_SHAPES)
    @pytest.mark.parametrize("main_weight", [1.0, 100.0, 3])
    def test_combined(self, rng, shape, main_weight):
        cls = rng.integers(0, 3, size=(1,) + shape).astype(np.uint8)
        main = softmax_ce_loss(Volume(_logits(rng, (3,) + shape)), Volume(cls))
        cpv_pred = _signed_zeros(rng, rng.normal(scale=4.0, size=(3,) + shape))
        cpv_target = _signed_zeros(rng, rng.normal(scale=4.0, size=(3,) + shape))
        for _, fg in _masks(rng, (1,) + shape):
            if fg is None:
                continue
            res = combined_loss(main, Volume(cpv_pred), Volume(cpv_target), Volume(fg), main_weight)
            expected = combined_oracle(
                main.value, main.gradient.data, cpv_pred, cpv_target, fg, main_weight
            )
            _assert_bit_identical(res, *expected)
