"""nuclei3d benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

One workload, as the metrics contract in BENCHMARK.json describes::

    python3 perfbench/run.py --workload infer-dense --seed 0 --seconds 20 --trace 0

Every workload, untraced and then traced, with a summary table and a
results file under .perfbench/ (the default seed is 0)::

    python3 perfbench/run.py

Each workload runs in its own child process (``worker.py``) with one BLAS
and OpenMP thread, so its peak RSS is its own. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run it from the root of a checkout; it builds nothing and reads ``src/``.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170
DEFAULT_SEED = 0


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload, seed, seconds, trace):
    """Run one workload in a child process; returns its result object."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
        # a killed worker leaves its scratch directory behind
        shutil.rmtree(ROOT / ".perfbench" / f"work-{child.pid}", ignore_errors=True)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited with code {child.returncode}")
    return json.loads(lines[-1])


def git_sha():
    """HEAD commit of the checkout, or 'unknown' outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": git_sha(),
    }


def run_all(seed, seconds):
    spec = benchmark_spec()
    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    results = {"seed": seed, "seconds": seconds, "environment": env, "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        plain = run_worker(name, seed, seconds, 0)
        traced = run_worker(name, seed, seconds, 1)
        results["workloads"][name] = {"untraced": plain, "traced": traced}
        ok = ok and plain["correct"] and traced["correct"]
        print(f"\n== {name}: {w['why']}")
        print(f"ops: {plain['attempted']}, failed_ratio: "
              f"{plain['failed'] / plain['attempted']:.6g} ratio")
        for metric, m in {**plain["metrics"], **traced["metrics"]}.items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"results-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults written to {path.relative_to(ROOT)}; all outputs correct: {ok}")
    return 0 if ok else 1


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through run_worker, which stops the child


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    try:
        if args.workload is None:
            return run_all(args.seed, seconds)
        print(json.dumps(run_worker(args.workload, args.seed, seconds, args.trace)))
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
