"""Typed refusals at the Python API boundary.

Every public callable named in a module ``__all__`` is called with each of its
required positional arguments set to a wrong-typed value. Each call must end
in a ``Nuclei3dError`` or a ``ValueError``, never in an ``AttributeError`` or
``TypeError`` from inside the function body.
"""

import importlib
import inspect

import numpy as np
import pytest

from nuclei3d import LabelVolume, TargetBundle, Volume
from nuclei3d.core import check_volume
from nuclei3d.errors import ChannelCountError, Nuclei3dError, ShapeMismatchError
from nuclei3d.postproc import TopographicMap

MODULES = (
    "core", "detection", "io", "losses", "metrics", "phantom", "postproc", "sweep", "targets", "cli",
)

# Their arguments are paths and payloads, refused with the file's name (tests/test_io.py).
FILE_IO = {
    "read_volume", "write_volume", "read_detections", "write_detections", "read_report",
    "write_report", "load_sweep_spec",
}

EXEMPT = {
    "Detection": "plain record: a NamedTuple stores whatever it is given",
    "LossResult": "plain record: stores whatever it is given",
    "SweepResult": "plain record: stores whatever it is given",
    "generate_phantom": "takes only a PhantomConfig; config arguments are not checked by kind",
    "run_sweep": "takes only a SweepSpec; config arguments are not checked by kind",
    "aggregate_reports": "takes only a list of EvalReport records, which are not checked by kind",
}

# A 2d array, which no constructor accepts as a volume, so no call can succeed.
WRONG = {"ndarray": np.zeros((2, 2)), "None": None, "str": "x"}


def public_callables():
    """``(module.name, callable, required positional count)`` for each public callable."""
    out = []
    for module in MODULES:
        mod = importlib.import_module(f"nuclei3d.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if not callable(obj) or name in FILE_IO:
                continue
            params = inspect.signature(obj).parameters.values()
            required = [
                p for p in params
                if p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            ]
            if required:
                out.append((f"{module}.{name}", obj, len(required)))
    return out


CHECKED = [(key, call, n) for key, call, n in public_callables() if key.split(".")[1] not in EXEMPT]


@pytest.mark.parametrize("wrong", WRONG, ids=list(WRONG))
@pytest.mark.parametrize("key,call,n", CHECKED, ids=[key for key, _, _ in CHECKED])
def test_wrong_typed_arguments_are_typed_refusals(key, call, n, wrong):
    with pytest.raises((Nuclei3dError, ValueError)):
        call(*[WRONG[wrong]] * n)


def test_enumeration_finds_the_public_callables():
    names = {key.split(".")[1] for key, _, _ in public_callables()}
    assert set(EXEMPT) <= names, sorted(set(EXEMPT) - names)
    checked = {key for key, _, _ in CHECKED}
    assert {"core.Volume", "postproc.segment", "metrics.evaluate", "losses.ssd_loss"} <= checked
    assert len(checked) == len(public_callables()) - len(EXEMPT)


@pytest.mark.parametrize(
    "args,expected",
    [
        (("prediction", np.zeros((3, 3, 3))), "expected a prediction Volume, got ndarray"),
        (("", None, TargetBundle), "expected a TargetBundle, got NoneType"),
        (("seed", "x", LabelVolume), "expected a seed LabelVolume, got str"),
        (("", Volume(np.zeros((2, 2, 2))), TopographicMap), "expected a TopographicMap, got Volume"),
        (("cpv", Volume(np.zeros((4, 2, 2, 2))), Volume, 3),
         "expected a cpv 3-channel Volume, got 4 channels"),
        (("mask", LabelVolume(np.zeros((2, 2, 2), np.int32)), Volume, 1),
         "expected a mask 1-channel Volume, got LabelVolume"),
    ],
)
def test_check_volume_message_form(args, expected):
    with pytest.raises(ChannelCountError) as info:
        check_volume(*args)
    assert str(info.value) == expected
    assert isinstance(info.value, ShapeMismatchError)


def test_check_volume_returns_the_value():
    vol = Volume(np.zeros((3, 2, 2, 2)))
    assert check_volume("cpv", vol, channels=3) is vol
    labels = LabelVolume(np.zeros((2, 2, 2), np.int32))
    assert check_volume("labels", labels, LabelVolume) is labels
