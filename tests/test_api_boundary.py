"""Typed refusals at the Python API boundary.

Every public callable named in a module ``__all__`` is called with each of its
required positional arguments set to a wrong-typed value. Each call must end
in a ``Nuclei3dError`` or a ``ValueError``, never in an ``AttributeError`` or
``TypeError`` from inside the function body.
"""

import importlib
import inspect
import re

import numpy as np
import pytest

from nuclei3d import (
    LabelVolume, PhantomConfig, PostprocConfig, TargetBundle, Volume, build_topography,
    encode_bundle, encode_sdt, extract_seeds_main, main_loss_weight, read_volume, segment,
    signed_boundary_distance,
)
from nuclei3d.core import check_choice, check_volume
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


LABELS = LabelVolume(np.pad(np.ones((2, 2, 2), np.int32), 1))
SDT = Volume(np.zeros((1, 4, 4, 4)))
SDT_CONFIG = PostprocConfig("sdt")
PHANTOM = {"shape": (8, 8, 8), "n_instances": 1, "radius_range": (2, 3)}

# site: (key, call, a valid value); a named choice's valid value is a str, a flag's is False
CHOICES = {
    "TargetBundle.variant": ("variant", lambda v: TargetBundle(SDT, v, False), "sdt"),
    "TargetBundle.with_cpv": ("with_cpv", lambda v: TargetBundle(SDT, "sdt", v), False),
    "encode_bundle.variant": ("variant", lambda v: encode_bundle(LABELS, v), "gauss"),
    "encode_bundle.with_cpv": (
        "with_cpv", lambda v: encode_bundle(LABELS, "sdt", with_cpv=v), False
    ),
    "main_loss_weight": ("variant", main_loss_weight, "3label"),
    "PostprocConfig.variant": ("variant", PostprocConfig, "affinities"),
    "PostprocConfig.seed_source": ("seed_source", lambda v: PostprocConfig("sdt", v), "cpv"),
    "PostprocConfig.dilate_result": (
        "dilate_result", lambda v: PostprocConfig("sdt", dilate_result=v), False
    ),
    "PhantomConfig.allow_touching": (
        "allow_touching", lambda v: PhantomConfig(**PHANTOM, allow_touching=v), False
    ),
    "segment.logits": ("logits", lambda v: segment(SDT, SDT_CONFIG, logits=v), False),
    "build_topography.logits": (
        "logits", lambda v: build_topography(SDT, SDT_CONFIG, logits=v), False
    ),
    "extract_seeds_main.logits": (
        "logits", lambda v: extract_seeds_main(SDT, SDT_CONFIG, logits=v), False
    ),
    "signed_boundary_distance.anisotropic": (
        "anisotropic", lambda v: signed_boundary_distance(LABELS, v), False
    ),
    "encode_sdt.anisotropic": ("anisotropic", lambda v: encode_sdt(LABELS, anisotropic=v), False),
}


def wrong_choices(valid):
    """Values outside the set of a choice whose valid values are like ``valid``: for a name,
    the name as a 0-d array (which cannot be hashed), ``None`` and ``1``; for a flag, values
    that a truth test reads as on or off."""
    if isinstance(valid, str):
        return {"0-d array": np.array(valid), "None": None, "1": 1}
    return {"None": None, "1": 1, "no": "no", "np.True_": np.True_}


WRONG_CHOICES = [
    (site, wrong) for site, (_, _, valid) in CHOICES.items() for wrong in wrong_choices(valid)
]


@pytest.mark.parametrize("site,wrong", WRONG_CHOICES, ids=[f"{s}-{w}" for s, w in WRONG_CHOICES])
def test_choice_outside_its_set_is_refused_naming_the_key(site, wrong):
    key, call, valid = CHOICES[site]
    value = wrong_choices(valid)[wrong]
    with pytest.raises(ValueError, match=f"^{key} must be .*, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("site", CHOICES)
def test_choice_inside_its_set_is_accepted(site):
    _, call, valid = CHOICES[site]
    call(np.str_(valid) if isinstance(valid, str) else valid)


@pytest.mark.parametrize(
    "kind", ["x", np.array("Volume"), 1, TargetBundle], ids=["str", "0-d array", "int", "class"]
)
def test_read_kind_is_refused_before_the_file_is_opened(tmp_path, kind):
    with pytest.raises(ValueError, match="^kind must be None or <class .*, got "):
        read_volume(tmp_path / "missing.v3dr", kind=kind)


@pytest.mark.parametrize(
    "args,expected",
    [
        (("seed_source", "foo", ("main", "cpv")), "seed_source must be 'main' or 'cpv', got 'foo'"),
        (("dilate_result", 5, (True, False)), "dilate_result must be True or False, got 5"),
        (("kind", "x", (None, Volume)),
         "kind must be None or <class 'nuclei3d.core.Volume'>, got 'x'"),
    ],
)
def test_check_choice_message_form(args, expected):
    with pytest.raises(ValueError) as info:
        check_choice(*args)
    assert type(info.value) is ValueError and str(info.value) == expected


def test_check_choice_returns_the_value():
    name = np.str_("cpv")
    assert check_choice("seed_source", name, ("main", "cpv")) is name
    assert check_choice("flag", False, (True, False)) is False
