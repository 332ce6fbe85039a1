"""Loss functions with analytic gradients for every model variant.

All losses are summed (not averaged) over voxels and channels, which fixes
the meaning of the sdt main-loss weight of 100. Classification losses take
logits; the activation is folded into the loss for numerical stability.
Values and gradients are computed in float64.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import Volume, check_choice, check_number, check_same_shape, check_volume
from .errors import InvalidClassError
from .targets import VARIANTS

__all__ = [
    "LossResult",
    "ssd_loss",
    "softmax_ce_loss",
    "sigmoid_bce_loss",
    "combined_loss",
    "main_loss_weight",
]


@dataclass(frozen=True)
class LossResult:
    """Scalar loss value plus its gradient w.r.t. the prediction."""

    value: float
    gradient: Volume


def main_loss_weight(variant):
    """Main-loss weight used when combining with the auxiliary vector loss.

    The sdt regression loss is scaled by 100 to bring it to a magnitude
    comparable with its auxiliary loss; all other variants use 1. An unknown
    variant is refused with a ``ValueError``.
    """
    return 100.0 if check_choice("variant", variant, VARIANTS) == "sdt" else 1.0


def _f64(volume):
    return volume.data.astype(np.float64, copy=False)


def _ssd(pred, target, mask, out):
    """Sum of squared differences, masked if ``mask`` is given; its gradient goes to ``out``.

    The operations are those of ``sum(mask * diff * diff)`` and
    ``2.0 * diff * mask`` in that order, run in place on two buffers.
    """
    target_shape = check_volume("target", target).data.shape
    check_same_shape("ssd_loss pred", pred.data.shape, "target", target_shape)
    diff = np.subtract(pred.data, target.data, out=out, dtype=np.float64)
    if mask is None:
        value = float(np.sum(diff * diff))
    else:
        mask_shape = check_volume("mask", mask).data.shape
        check_same_shape("ssd_loss mask", mask_shape, "one pred channel", (1,) + pred.shape)
        m = _f64(mask)
        sq = np.multiply(m, diff)
        sq *= diff
        value = float(np.sum(sq))
    np.multiply(2.0, diff, out=diff)
    if mask is not None:
        diff *= m
    return value


def ssd_loss(pred, target, mask=None):
    """Sum of squared differences, optionally masked.

    ``mask`` is a single-channel binary volume broadcast across channels;
    value = sum(mask * (pred - target)^2), gradient = 2 * (pred - target) * mask.
    """
    grad = np.empty(check_volume("pred", pred).data.shape)
    value = _ssd(pred, target, mask, grad)
    return LossResult(value, Volume(grad, pred.voxel_size))


def softmax_ce_loss(logits, target):
    """Categorical cross entropy with softmax activation over 3 classes.

    ``target`` is the single-channel class map with values in {0, 1, 2}.
    Gradient is softmax(logits) - one_hot(target).
    """
    one_channel = (1,) + check_volume("logits", logits, channels=3).shape
    target_shape = check_volume("target", target).data.shape
    check_same_shape("softmax_ce_loss target", target_shape, "one logit channel", one_channel)
    cls = target.channel(0)
    if not np.isin(cls, (0, 1, 2)).all():
        raise InvalidClassError("3-label target values must be 0, 1 or 2")
    cls = cls.astype(np.intp)

    x = _f64(logits)
    log_probs = x - x.max(axis=0, keepdims=True)
    grad = np.exp(log_probs)
    log_norm = np.sum(grad, axis=0, keepdims=True)
    np.log(log_norm, out=log_norm)
    log_probs -= log_norm
    picked = np.take_along_axis(log_probs, cls[np.newaxis], axis=0)
    value = float(-picked.sum())

    np.exp(log_probs, out=grad)
    grad -= cls[np.newaxis] == np.arange(3)[:, None, None, None]
    return LossResult(value, Volume(grad, logits.voxel_size))


def sigmoid_bce_loss(logits, target):
    """Per-channel binary cross entropy with sigmoid activation.

    Uses the stable logits formulation; gradient is sigmoid(logits) - target.
    """
    check_same_shape("sigmoid_bce_loss logits", check_volume("logits", logits).data.shape,
                     "target", check_volume("target", target).data.shape)
    t = _f64(target)
    if not np.isin(t, (0.0, 1.0)).all():
        raise InvalidClassError("binary target values must be 0 or 1")
    x = _f64(logits)
    # sum(max(x, 0) - x * t + log1p(exp(-|x|))), one operation at a time
    terms = np.maximum(x, 0.0)
    grad = np.multiply(x, t)
    terms -= grad
    np.abs(x, out=grad)
    np.negative(grad, out=grad)
    np.exp(grad, out=grad)
    np.log1p(grad, out=grad)
    terms += grad
    value = float(np.sum(terms))
    expit(x, out=grad)
    grad -= t
    return LossResult(value, Volume(grad, logits.voxel_size))


def combined_loss(main, cpv_pred, cpv_target, fg_mask, main_weight):
    """Main loss plus the auxiliary center-point-vector loss.

    ``main`` is the LossResult over the main channels. The auxiliary term is
    an unweighted SSD on the vector channels, masked to the ground-truth
    foreground; only the main term carries ``main_weight``. The gradient concatenates the scaled main
    gradient with the auxiliary gradient, in that channel order.
    """
    check_number("main_weight", main_weight, gt=0)
    check_volume("cpv pred", cpv_pred)
    check_volume("main", main, LossResult)
    check_same_shape("combined_loss main gradient", main.gradient.shape, "cpv pred", cpv_pred.shape)
    main_channels = main.gradient.channels
    grad = np.empty((main_channels + cpv_pred.channels,) + cpv_pred.shape)
    aux_value = _ssd(cpv_pred, cpv_target, fg_mask, grad[main_channels:])
    np.multiply(main_weight, _f64(main.gradient), out=grad[:main_channels])
    value = main_weight * main.value + aux_value
    return LossResult(value, Volume(grad, cpv_pred.voxel_size))
