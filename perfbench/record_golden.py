"""Record the golden SHA-256 digests of each workload's op outputs.

    python3 perfbench/record_golden.py

Runs one set-up and one op per workload and input set (``INPUT_SETS`` in
``workloads.py``), checks the outputs with the workload's sanity check,
and writes the digests to ``perfbench/golden.json``. Record only from a
commit whose outputs are known good: every later benchmark run counts a
differing digest as a failed op.
"""

import json
import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import INPUT_SETS, WORKLOADS, digest_parts  # noqa: E402


def main():
    path = HERE / "golden.json"
    golden = {"workloads": {}}
    workdir = HERE.parent / ".perfbench" / f"golden-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name in sorted(WORKLOADS):
            setup, op, sane = WORKLOADS[name]
            for seed in range(INPUT_SETS):
                outputs = op(setup(seed, workdir))
                problems = sane(outputs)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: " + "; ".join(problems))
                golden["workloads"].setdefault(name, {})[str(seed)] = digest_parts(outputs)
                print(f"{name} seed {seed} recorded", flush=True)
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
