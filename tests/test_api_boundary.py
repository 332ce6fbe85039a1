"""Typed refusals at the Python API boundary.

Every public callable named in a module ``__all__`` is called with each of its
required positional arguments set to a wrong-typed value. Each call must end
in a ``Nuclei3dError`` or a ``ValueError``, never in an ``AttributeError`` or
``TypeError`` from inside the function body. That call stops at the first
argument checked, so each config or record argument is also set wrong alone,
the other arguments valid.
"""

import dataclasses
import importlib
import inspect
import re

import numpy as np
import pytest

from nuclei3d import (
    LabelVolume, PhantomConfig, PostprocConfig, TargetBundle, Volume, aggregate_reports,
    build_topography, combined_loss, encode_bundle, encode_sdt, extract_seeds_main,
    generate_phantom, main_loss_weight, nms_detect, read_report, read_volume, run_sweep, segment,
    signed_boundary_distance, write_report,
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


@pytest.mark.parametrize(
    "call,expected",
    [
        (lambda: generate_phantom({"shape": (8, 8, 8)}), "expected a PhantomConfig, got dict"),
        (lambda: run_sweep("spec.yaml"), "expected a SweepSpec, got str"),
        (lambda: aggregate_reports(["x"]), "expected a EvalReport, got str"),
        (lambda: combined_loss("x", *[Volume(np.zeros((3, 2, 2, 2)))] * 2,
                               Volume(np.ones((1, 2, 2, 2))), 1.0),
         "expected a main LossResult, got str"),
        (lambda: segment(SDT, "x"), "expected a PostprocConfig, got str"),
        (lambda: build_topography(SDT, None), "expected a PostprocConfig, got NoneType"),
        (lambda: extract_seeds_main(SDT, 3), "expected a PostprocConfig, got int"),
        (lambda: nms_detect(SDT, "x"), "expected a NmsConfig, got str"),
        (lambda: Volume(np.zeros((1, 2, 2, 2)), (1.0, 1.0, 1.0)),
         "expected a voxel size VoxelSize, got tuple"),
        (lambda: LabelVolume(np.zeros((2, 2, 2), np.int32), None),
         "expected a voxel size VoxelSize, got NoneType"),
        (lambda: TopographicMap(np.zeros((2, 2, 2)), np.ones((2, 2, 2)), [1.0, 1.0, 1.0]),
         "expected a voxel size VoxelSize, got list"),
    ],
    ids=[
        "generate_phantom", "run_sweep", "aggregate_reports", "combined_loss", "segment",
        "build_topography", "extract_seeds_main", "nms_detect", "Volume.voxel_size",
        "LabelVolume.voxel_size", "TopographicMap.voxel_size",
    ],
)
def test_config_and_record_arguments_are_checked_by_kind(call, expected):
    with pytest.raises(ChannelCountError) as info:
        call()
    assert str(info.value) == expected


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


def test_check_choice_returns_the_matching_choice():
    got = check_choice("seed_source", np.str_("cpv"), ("main", "cpv"))
    assert got == "cpv" and type(got) is str
    assert check_choice("flag", False, (True, False)) is False
    assert check_choice("kind", Volume, (None, LabelVolume, Volume)) is Volume


def test_named_choices_are_stored_as_plain_str(tmp_path):
    cfg = PostprocConfig(np.str_("sdt"), np.str_("cpv"))
    bundle = TargetBundle(SDT, np.str_("sdt"), False)
    assert type(cfg.variant) is type(cfg.seed_source) is type(bundle.variant) is str
    write_report(tmp_path / "cfg.yaml", dataclasses.asdict(cfg))
    assert PostprocConfig(**read_report(tmp_path / "cfg.yaml")) == cfg
