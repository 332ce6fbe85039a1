"""Span tracer that wraps nuclei3d's public functions from the outside.

``Tracer.install()`` replaces every public function of the ten layer
modules by a wrapper, at every module attribute that names it (the
defining module, modules that imported it, and the package). Because each
module looks names up in its own globals at call time, nested library
calls (``segment`` -> ``watershed``, ``centroids_from_labels`` ->
``center_of_mass``) become child spans. ``uninstall()`` puts the originals
back. Spans ``(name, start, end, parent, op)`` and counters stay in memory
until ``write()`` at the end of the run.

Counters are computed from each call's inputs and outputs, inside a
``bench.count`` child span, so that counting is never billed to a layer's
self time. ``PeakProbe`` is the separate pass that records the tracemalloc
peak of one ``postproc.segment`` call.
"""

import hashlib
import importlib
import inspect
import json
import statistics
import time
import tracemalloc

import numpy as np

import nuclei3d

LAYERS = ("core", "targets", "losses", "phantom", "postproc", "detection",
          "metrics", "sweep", "io", "cli")
MIB = float(1 << 20)


def _modules():
    return {layer: importlib.import_module(f"nuclei3d.{layer}") for layer in LAYERS}


def public_functions():
    """``{function: span name}`` for each public function a layer defines."""
    found = {}
    for layer, mod in _modules().items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[obj] = f"{layer}.{attr}"
    return found


def _bindings(functions):
    """Every ``(module, attribute, function)`` that names a traced function."""
    mods = [nuclei3d, *_modules().values()]
    return [
        (mod, attr, val)
        for mod in mods
        for attr, val in list(vars(mod).items())
        if inspect.isfunction(val) and val in functions
    ]


def _label_count(labels):
    return int(np.count_nonzero(np.bincount(labels.ravel())[1:]))


def _count_watershed(a, result):
    fg = a["topo"].foreground
    seeds_in_fg = a["seeds"].labels[fg]
    return {
        "fg_voxels": int(np.count_nonzero(fg)),
        "seed_components": _label_count(seeds_in_fg),
        "claimed_voxels": int(np.count_nonzero(result.labels) - np.count_nonzero(seeds_in_fg)),
    }


def _count_votes(a, counts):
    votes_in = int(counts.sum())
    return {"votes_in": votes_in,
            "votes_out": int(np.count_nonzero(a["fg_mask"])) - votes_in}


def _volume_mib(volume):
    data = volume.labels if isinstance(volume, nuclei3d.LabelVolume) else volume.data
    return data.nbytes / MIB


# Counters per span name, from the bound arguments and the result.
COUNTERS = {
    "postproc.watershed": _count_watershed,
    "postproc.accumulate_votes": _count_votes,
    "metrics.iou_matrix": lambda a, r: {"pairs": len(r)},
    "detection.centroids_from_labels": lambda a, r: {"instances": len(r)},
    "detection.nms_detect": lambda a, r: {"detections": len(r)},
    "targets.encode_gauss": lambda a, r: {"instances": _label_count(a["labels"].labels)},
    "io.write_volume": lambda a, r: {"mib": _volume_mib(a["volume"])},
    "io.read_volume": lambda a, r: {"mib": _volume_mib(r)},
}


class _Patcher:
    """Replaces module attributes and puts the originals back on ``uninstall``."""

    def __init__(self):
        self._saved = []

    def _patch(self, mod, attr, replacement):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, replacement)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []


class Tracer(_Patcher):
    """In-memory spans and counters for one run, keyed by op id."""

    def __init__(self):
        super().__init__()
        self.spans = []  # [name, start, end, parent index, op]
        self.counts = []  # (op, key, value)
        self.sweep_digests = {}  # op -> set of segment output digests seen by run_sweep
        self._stack = []
        self._op = None

    # -- recording

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _count(self, key, value):
        self.counts.append((self._op, key, value))

    def op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as op ``op_id`` under a root ``bench.op`` span."""
        self._op = op_id
        self._open("bench.op")
        try:
            return fn(*args)
        finally:
            self._close()
            self._op = None

    def _wrap(self, fn, name, sweep_binding):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if counter is not None or sweep_binding:
                tracer._open("bench.count")
                if counter is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    for key, value in counter(bound, result).items():
                        tracer._count(f"{name}.{key}", value)
                if sweep_binding:
                    tracer._count("sweep.segment.calls", 1)
                    digest = hashlib.sha256(result.labels.tobytes()).digest()
                    tracer.sweep_digests.setdefault(tracer._op, set()).add(digest)
                tracer._close()
            return result

        return traced

    def install(self):
        functions = public_functions()
        wrappers = {fn: self._wrap(fn, name, False) for fn, name in functions.items()}
        for mod, attr, fn in _bindings(functions):
            if mod.__name__ == "nuclei3d.sweep" and attr == "segment":
                self._patch(mod, attr, self._wrap(fn, functions[fn], True))
            else:
                self._patch(mod, attr, wrappers[fn])

    # -- analysis

    def per_op(self):
        """``{op: {metric: value}}`` of self seconds, calls and counters."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                children[parent] += end - start
        table = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            row = table.setdefault(op, {})
            self_s = (end - start) - children[i]
            if name.startswith("bench."):
                if name == "bench.op":
                    row["bench.op.s"] = end - start
                row["bench.other.s"] = row.get("bench.other.s", 0.0) + self_s
            else:
                row[f"{name}.s"] = row.get(f"{name}.s", 0.0) + self_s
                row[f"{name}.calls"] = row.get(f"{name}.calls", 0) + 1
        for op, key, value in self.counts:
            table[op][key] = table[op].get(key, 0) + value
        for op, digests in self.sweep_digests.items():
            row = table[op]
            row["sweep.segment.distinct_outputs"] = len(digests)
            row["sweep.segment.useful_ratio"] = len(digests) / row["sweep.segment.calls"]
        return table

    def write(self, path, t0):
        """Write spans and counters as JSON lines, times relative to ``t0``."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}) + "\n")
            for op, key, value in self.counts:
                fh.write(json.dumps({"op": op, "counter": key, "value": value}) + "\n")


def medians(rows):
    """Median of each metric over the rows; a metric missing from a row counts 0."""
    keys = sorted({k for row in rows for k in row})
    return {k: statistics.median(row.get(k, 0) for row in rows) for k in keys}


class PeakPassDone(Exception):
    """Raised by PeakProbe at the second segment call to end the op early."""


class PeakProbe(_Patcher):
    """Records the tracemalloc peak of the op's first ``postproc.segment`` call.

    Tracing every allocation slows the watershed about tenfold, so the
    probe measures one call and then ends the op by raising PeakPassDone.
    """

    def __init__(self):
        super().__init__()
        self.peak_mib = None

    def install(self):
        original = nuclei3d.postproc.segment
        probe = self

        def probed(*args, **kwargs):
            if probe.peak_mib is not None:
                raise PeakPassDone
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                probe.peak_mib = tracemalloc.get_traced_memory()[1] / MIB
                tracemalloc.stop()

        for mod, attr, _ in _bindings({original}):
            self._patch(mod, attr, probed)
