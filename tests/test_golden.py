"""Every benchmark workload's outputs are bit-identical to the recorded ones.

``perfbench/golden.json`` holds one SHA-256 per named op output, per
workload and input set. This runs ``setup`` and ``op`` of input set 0 of
each workload and compares the digests, so a change that alters one output
bit fails here without a benchmark run. The digests hold float results of
``exp``, ``log1p`` and scipy filters; they were recorded with numpy 2.4.6
and scipy 1.17.1.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
INPUT_SET = 0


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_match_golden_digests(name, tmp_path):
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    expected = golden["workloads"][name][str(INPUT_SET)]
    setup, op, _ = workloads.WORKLOADS[name]
    got = workloads.digest_parts(op(setup(INPUT_SET, tmp_path)))
    assert sorted(got) == sorted(expected)
    changed = sorted(part for part in expected if got.get(part) != expected[part])
    assert not changed, f"{name} input set {INPUT_SET}: outputs differ from golden.json: {changed}"
