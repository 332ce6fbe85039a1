"""Runs one workload in this process: set-up, warm-up, timed loop, checks.

``run.py`` starts it as a child process with OMP/OPENBLAS/MKL threads set
to 1 and ``PYTHONPATH`` pointing at the checkout's ``src``. The last line
of stdout is the result object; human-readable lines go to stderr.

Untraced (``--trace 0``): a batch of set-ups, one warm-up op, then a
closed loop (one client; the next op starts when the last one ends) until
``--seconds`` have passed, then a second batch of set-ups. ``setup_s`` is
the median of both batches. The loop runs the reference kernel
(``reference.py``) before every op; the op metrics are in units of its
median time in the run (``ref``), and the raw seconds go to stderr.
``peak_rss_mib`` is read after the warm-up op, before the kernel runs.

Traced (``--trace 1``): one traced set-up, one warm-up op, then the closed
loop alternating untraced and traced ops (the pair of ``ops_per_s`` values
is the tracing overhead), then, if the ops call ``segment``, one op under
``PeakProbe``, which is neither checked nor counted.

The inputs are made from input set ``seed % INPUT_SETS``, so every seed
has golden digests. Every op's outputs, the warm-up op's too, are digested
and compared with ``golden.json``; a mismatch or an exception counts as a
failed op.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Each of the two set-up batches has at least this many set-ups spanning at
# least this long. Machine speed drifts over tens of seconds, so batches on
# either side of the timed loop steady setup_s more than one longer batch.
# Short set-ups (train-targets: about 0.3 s) switch between a fast and a
# slow speed every few seconds; a 3 s batch often saw only one of them.
SETUP_MIN_REPEATS = 2
SETUP_MIN_SECONDS = 6.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_golden(workload, input_set):
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)["workloads"].get(workload, {}).get(str(input_set))
    if golden is None:
        raise KeyError(f"golden.json has no digests for {workload} input set {input_set}; "
                       "record them with perfbench/record_golden.py")
    return golden


class Checker:
    """Counts ops whose output digests differ from the golden ones."""

    def __init__(self, expected, digest_parts):
        self.expected = expected
        self.digest_parts = digest_parts
        self.attempted = 0
        self.failed = 0

    def check(self, outputs):
        self.attempted += 1
        if isinstance(outputs, Exception):
            self.failed += 1
            if self.failed == 1:
                log("".join(traceback.format_exception(outputs)).rstrip())
            else:
                log(f"op failed: {outputs!r}")
            return
        parts = self.digest_parts(outputs)
        if parts != self.expected:
            self.failed += 1
            bad = sorted(k for k in set(parts) | set(self.expected)
                         if parts.get(k) != self.expected.get(k))
            log(f"digest mismatch in: {', '.join(bad)}")


def run_op(op, inputs, tracer=None, op_id=None):
    """One op; returns (outputs, or the exception it raised; wall s; cpu s)."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out = tracer.op(op_id, op, inputs) if tracer else op(inputs)
    except Exception as exc:  # a failing op is counted, the loop goes on
        out = exc
    return out, time.perf_counter() - w0, time.process_time() - c0


def warm_up(op, inputs, checker):
    """One checked op outside the timed loop; returns 1 if it failed, else 0."""
    checker.check(run_op(op, inputs)[0])
    failed = checker.failed
    checker.attempted = checker.failed = 0
    return failed


def setup_batch(setup, args, workdir, setup_times):
    """Time one batch of set-ups into ``setup_times``; returns the last inputs."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        inputs = None  # release the previous inputs before building new ones
        t0 = time.perf_counter()
        inputs = setup(args.input_set, workdir)
        times.append(time.perf_counter() - t0)
    setup_times.extend(times)
    return inputs


def untraced(setup, op, args, workdir, checker):
    setup_times = []
    inputs = setup_batch(setup, args, workdir, setup_times)
    log(f"peak RSS after set-up: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MiB")
    warm_failed = warm_up(op, inputs, checker)
    # before the reference kernel's arrays can raise the high-water mark;
    # every op runs on the same inputs, so the warm-up op shows their peak
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = Reference()
    reference.run()  # warm-up

    walls, cpus, ref_walls, ref_cpus = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        ref_wall, ref_cpu = reference.run()
        ref_walls.append(ref_wall)
        ref_cpus.append(ref_cpu)
        out, wall, cpu = run_op(op, inputs)
        walls.append(wall)
        cpus.append(cpu)
        checker.check(out)
        out = None  # so the next op's peak memory does not include these outputs
    inputs = None
    setup_batch(setup, args, workdir, setup_times)
    ref_wall, ref_cpu = statistics.median(ref_walls), statistics.median(ref_cpus)
    raw = {
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "cpu_s_per_op": sum(cpus) / len(cpus),
    }
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_ref": raw["ops_per_s"] * ref_wall,
        "op_p50_ref": raw["op_p50_s"] / ref_wall,
        "cpu_per_op_ref": raw["cpu_s_per_op"] / ref_cpu,
        "peak_rss_mib": peak_rss_mib,
    }
    log(f"set-up repeats: {len(setup_times)}, ops timed: {len(walls)}, "
        f"op wall s: {', '.join(f'{w:.4f}' for w in walls)}")
    log(f"reference kernel: median {ref_wall:.4f} s wall, {ref_cpu:.4f} s cpu; raw: "
        + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    return metrics, warm_failed


# run_op's wall time also covers opening and closing the root span, and a
# garbage collection may fall there
SPAN_SUM_TOLERANCE = (1e-3, 0.01)  # seconds + share of the op's wall time


def check_span_sum(row, wall):
    """Layer self times plus ``bench.other.s`` must add up to the op's wall time."""
    spans = sum(v for k, v in row.items() if k.endswith(".s") and k != "bench.op.s")
    absolute, relative = SPAN_SUM_TOLERANCE
    if abs(spans - wall) > absolute + relative * wall:
        raise RuntimeError(f"layer self times plus bench.other.s are {spans:.6f} s, "
                           f"but the op took {wall:.6f} s")


def traced(setup, op, args, workdir, checker, trace_path):
    from tracer import PeakPassDone, PeakProbe, Tracer, medians

    tracer = Tracer()
    t0 = time.perf_counter()
    tracer.install()
    try:
        inputs = tracer.op("setup", setup, args.input_set, workdir)
    finally:
        tracer.uninstall()
    warm_failed = warm_up(op, inputs, checker)

    walls = {False: [], True: []}
    traced_walls = {}  # op id -> wall seconds run_op measured around the traced op
    start = time.perf_counter()
    i = 0
    while not walls[True] or time.perf_counter() - start < args.seconds:
        with_trace = i % 2 == 1
        if with_trace:
            tracer.install()
        try:
            out, wall, _ = run_op(op, inputs, tracer if with_trace else None, i)
        finally:
            tracer.uninstall()
        walls[with_trace].append(wall)
        if with_trace:
            traced_walls[i] = wall
        checker.check(out)
        out = None
        i += 1

    tracer.write(trace_path, t0)
    table = tracer.per_op()
    setup_row = table.pop("setup")
    op_rows = list(table.values())
    for op_id, row in table.items():
        check_span_sum(row, traced_walls[op_id])

    probe = PeakProbe()
    if any("postproc.segment.calls" in row for row in op_rows):
        probe.install()
        try:
            op(inputs)
        except PeakPassDone:
            pass
        finally:
            probe.uninstall()
    per_op = medians(op_rows)
    values = {
        "postproc.segment.peak_mib": probe.peak_mib or 0.0,
        "bench.ops_per_s.traced": len(walls[True]) / sum(walls[True]),
        "bench.ops_per_s.untraced": len(walls[False]) / sum(walls[False]),
    }
    from_setup = []
    for key, value in setup_row.items():
        if key not in per_op and not key.startswith("bench."):
            values[key] = value
            from_setup.append(key)
    for key, value in per_op.items():
        values[key] = value
    log(f"traced ops: {len(walls[True])}, untraced ops: {len(walls[False])}, "
        f"spans written to {trace_path}")
    log("per set-up, not per op (the ops never call them): "
        + (", ".join(sorted(k for k in from_setup if k.endswith('.s'))) or "none"))
    return values, warm_failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import nuclei3d

    src = (ROOT / "src" / "nuclei3d").resolve()
    if Path(nuclei3d.__file__).resolve().parent != src:
        log(f"error: nuclei3d imported from {nuclei3d.__file__}, not from {src}")
        return 1
    from workloads import INPUT_SETS, WORKLOADS, digest_parts

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    setup, op, _ = WORKLOADS[args.workload]
    args.input_set = args.seed % INPUT_SETS
    try:
        checker = Checker(load_golden(args.workload, args.input_set), digest_parts)
    except KeyError as exc:
        log(f"error: {exc}")
        return 1

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            values, warm_failed = traced(setup, op, args, workdir, checker, trace_path)
            wanted = spec["per_layer"]
        else:
            values, warm_failed = untraced(setup, op, args, workdir, checker)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    correct = warm_failed == 0 and checker.failed == 0
    log(f"seed {args.seed}: input set {args.input_set}, checked against its golden digests")
    log(f"correct: {correct}, attempted: {checker.attempted}, failed: {checker.failed}, "
        f"failed_ratio: {checker.failed / checker.attempted:.6g} (ratio)")
    for name, m in metrics.items():
        log(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
