"""Reference kernel: fixed numpy/scipy work that gauges the machine's speed.

The benchmark runs on shared virtual machines whose speed drifts by a
fifth or more over tens of seconds, so a run's raw op seconds say as much
about the machine as about the program. The timed loop runs this kernel
once before every op, in the workload's own thread, and the end-to-end op
metrics are op time divided by the median kernel time of the same run
(unit ``ref``). The kernel uses no ``nuclei3d`` code, so a change to the
library moves the op times and not the unit they are divided by.

The kernel runs in the same thread as the ops because the drift is not the
same on both vCPUs: run in a process of its own, the kernel followed the
ops no better than raw seconds did.

The kernel has two halves, because the drift does not slow all code
alike. Labelling, a distance transform and a sort are branchy scalar
loops; they slow down with the interpreter-bound watershed and evaluation
of ``infer-dense`` and ``sweep-select``. Broadcast arithmetic, ``exp``,
random noise and a Gaussian filter stream through memory; they slow down
with the target encoding of ``train-targets``.
"""

import time

import numpy as np
from scipy import ndimage

SHAPE = (32, 128, 128)  # the infer-dense and train-targets volume size
BLOBS = 12


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.field = ndimage.gaussian_filter(rng.random(SHAPE), 2.0)
        self.mask = self.field > 0.5
        self.centers = rng.random((BLOBS, 3)) * np.array(SHAPE)
        self.grid = np.ogrid[tuple(slice(0, n) for n in SHAPE)]

    def run(self):
        """One kernel run; returns (wall s, process cpu s)."""
        w0, c0 = time.perf_counter(), time.process_time()
        ndimage.label(self.mask)
        ndimage.distance_transform_edt(self.mask)
        np.argsort(self.field, axis=None)
        z, y, x = self.grid
        blobs = np.zeros(SHAPE)
        for cz, cy, cx in self.centers:
            d2 = (z - cz) ** 2 + (y - cy) ** 2 + (x - cx) ** 2
            np.maximum(blobs, np.exp(d2 / -8.0), out=blobs)
        blobs += np.random.default_rng(1).normal(0.0, 0.1, size=SHAPE)
        ndimage.gaussian_filter(blobs, 1.0)
        return time.perf_counter() - w0, time.process_time() - c0
