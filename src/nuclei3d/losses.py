"""Loss functions with analytic gradients for every model variant.

All losses are summed (not averaged) over voxels and channels, which fixes
the meaning of the sdt main-loss weight of 100. Classification losses take
logits; the activation is folded into the loss for numerical stability.
Values and gradients are computed in float64.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import Volume, check_number
from .errors import InvalidClassError, ShapeMismatchError

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
    comparable with its auxiliary loss; all other variants use 1.
    """
    return 100.0 if variant == "sdt" else 1.0


def _f64(volume):
    return volume.data.astype(np.float64, copy=False)


def _check_same_shape(a, b, what):
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(
            f"{what}: shape {a.data.shape} vs {b.data.shape}"
        )


def ssd_loss(pred, target, mask=None):
    """Sum of squared differences, optionally masked.

    ``mask`` is a single-channel binary volume broadcast across channels;
    value = sum(mask * (pred - target)^2), gradient = 2 * (pred - target) * mask.
    """
    _check_same_shape(pred, target, "ssd_loss pred/target")
    diff = _f64(pred) - _f64(target)
    if mask is not None:
        if mask.channels != 1 or mask.shape != pred.shape:
            raise ShapeMismatchError(
                f"ssd_loss mask: shape {mask.data.shape} vs pred {pred.data.shape}"
            )
        m = _f64(mask)
        value = float(np.sum(m * diff * diff))
        grad = 2.0 * diff * m
    else:
        value = float(np.sum(diff * diff))
        grad = 2.0 * diff
    return LossResult(value, Volume(grad, pred.voxel_size))


def softmax_ce_loss(logits, target):
    """Categorical cross entropy with softmax activation over 3 classes.

    ``target`` is the single-channel class map with values in {0, 1, 2}.
    Gradient is softmax(logits) - one_hot(target).
    """
    if logits.channels != 3:
        raise ShapeMismatchError(f"expected 3 logit channels, got {logits.channels}")
    if target.channels != 1 or target.shape != logits.shape:
        raise ShapeMismatchError(
            f"target shape {target.data.shape} does not match logits {logits.data.shape}"
        )
    cls = target.channel(0)
    if not np.isin(cls, (0, 1, 2)).all():
        raise InvalidClassError("3-label target values must be 0, 1 or 2")
    cls = cls.astype(np.intp)

    x = _f64(logits)
    shifted = x - x.max(axis=0, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=0, keepdims=True))
    log_probs = shifted - log_norm
    picked = np.take_along_axis(log_probs, cls[np.newaxis], axis=0)
    value = float(-picked.sum())

    grad = np.exp(log_probs)
    one_hot = cls[np.newaxis] == np.arange(3)[:, None, None, None]
    grad -= one_hot
    return LossResult(value, Volume(grad, logits.voxel_size))


def sigmoid_bce_loss(logits, target):
    """Per-channel binary cross entropy with sigmoid activation.

    Uses the stable logits formulation; gradient is sigmoid(logits) - target.
    """
    _check_same_shape(logits, target, "sigmoid_bce_loss logits/target")
    t = _f64(target)
    if not np.isin(t, (0.0, 1.0)).all():
        raise InvalidClassError("binary target values must be 0 or 1")
    x = _f64(logits)
    value = float(np.sum(np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))))
    grad = expit(x) - t
    return LossResult(value, Volume(grad, logits.voxel_size))


def combined_loss(main, cpv_pred, cpv_target, fg_mask, main_weight):
    """Main loss plus the auxiliary center-point-vector loss.

    ``main`` is the LossResult over the main channels. The auxiliary term is
    an unweighted SSD on the vector channels, masked to the ground-truth
    foreground; only the main term carries ``main_weight``. The gradient concatenates the scaled main
    gradient with the auxiliary gradient, in that channel order.
    """
    check_number("main_weight", main_weight, gt=0)
    aux = ssd_loss(cpv_pred, cpv_target, fg_mask)
    value = main_weight * main.value + aux.value
    grad = np.concatenate([main_weight * _f64(main.gradient), _f64(aux.gradient)], axis=0)
    return LossResult(value, Volume(grad, cpv_pred.voxel_size))
