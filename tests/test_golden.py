"""Every benchmark workload's outputs are bit-identical to the recorded ones.

``perfbench/golden.json`` holds one SHA-256 per named op output, per
workload and input set. This runs ``setup`` and ``op`` of input set 0 of
each workload and compares the digests, so a change that alters one output
bit fails here without a benchmark run. Run as a script,
``PYTHONPATH=src python tests/test_golden.py``, it compares every input set
of every workload instead. The digests hold float results of
``exp``, ``log1p`` and scipy filters; they were recorded with numpy 2.4.6
and scipy 1.17.1.
"""

import importlib.util
import json
import sys
import tempfile
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


def changed_parts(name, input_set, tmp_path):
    """The op outputs of workload ``name`` on ``input_set`` whose digests differ from golden.json."""
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    expected = golden["workloads"][name][str(input_set)]
    setup, op, _ = workloads.WORKLOADS[name]
    got = workloads.digest_parts(op(setup(input_set, tmp_path)))
    assert sorted(got) == sorted(expected)
    return sorted(part for part in expected if got.get(part) != expected[part])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_match_golden_digests(name, tmp_path):
    changed = changed_parts(name, INPUT_SET, tmp_path)
    assert not changed, f"{name} input set {INPUT_SET}: outputs differ from golden.json: {changed}"


if __name__ == "__main__":
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    failed = 0
    for name in sorted(workloads.WORKLOADS):
        for input_set in sorted(map(int, golden["workloads"][name])):
            with tempfile.TemporaryDirectory() as tmp:
                changed = changed_parts(name, input_set, Path(tmp))
            print(f"{name} input set {input_set}: {'differs: ' + str(changed) if changed else 'ok'}")
            failed += bool(changed)
    sys.exit(failed > 0)
