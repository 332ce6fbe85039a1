"""Every demo script runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nuclei3d

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    # a relative PYTHONPATH would not survive the change of directory
    package_root = str(Path(nuclei3d.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, f"{demo.name}\n{proc.stderr}"
