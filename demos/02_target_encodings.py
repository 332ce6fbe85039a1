"""
The five training-target encodings
==================================

A ground-truth label volume can be encoded for four model variants plus an
auxiliary target:

* ``sdt``         tanh-capped signed distance to instance boundaries
* ``3label``      background / interior / boundary classification
* ``affinities``  same-instance indicators to the +z/+y/+x neighbors
* ``gauss``       Gaussian blobs around instance centers (detection)
* ``cpv``         per-voxel vector to the instance center of mass, an
                  auxiliary target appended to any of the above
"""

import numpy as np

from nuclei3d import (
    PhantomConfig,
    encode_bundle,
    encode_cpv,
    encode_gauss,
    encode_sdt,
    encode_three_label,
    generate_phantom,
)
from nuclei3d.targets import BACKGROUND, BOUNDARY, INTERIOR

labels, _ = generate_phantom(
    PhantomConfig(shape=(24, 48, 48), n_instances=6, radius_range=(3.5, 5.0), rng_seed=7)
)

# --- signed distance transform, filtered by tanh ------------------------
sdt = encode_sdt(labels, scale=5.0)
inside = labels.foreground()
print("sdt: negative inside, positive outside, zero on the boundary")
print(f"  range inside  [{sdt.data[0][inside].min():+.3f}, {sdt.data[0][inside].max():+.3f}]")
print(f"  range outside [{sdt.data[0][~inside].min():+.3f}, {sdt.data[0][~inside].max():+.3f}]")

# --- 3-label classification ---------------------------------------------
cls = encode_three_label(labels).channel(0)
counts = np.bincount(cls.ravel(), minlength=3)
print("3label voxels:", {"background": counts[BACKGROUND], "interior": counts[INTERIOR], "boundary": counts[BOUNDARY]})

# --- affinities (encoded on once-eroded instances) ----------------------
# Eroding before encoding widens the gap between touching instances; the
# post-processing dilates once at the end to undo it.
aff = encode_bundle(labels, "affinities").volume
print("affinity channels mean (z, y, x):", [f"{aff.data[c].mean():.3f}" for c in range(3)])
print("eroded foreground fraction:", f"{aff.data[3].mean():.3f}", "vs raw", f"{inside.mean():.3f}")

# --- Gaussian blobs -------------------------------------------------------
gauss = encode_gauss(labels, sigma=2.0).channel(0)
print(f"gauss peak {gauss.max():.3f} (1.0 up to center rounding), background floor {gauss.min():.2e}")

# --- center point vectors -------------------------------------------------
cpv = encode_cpv(labels)
ids, counts = labels.id_counts
i, c = int(ids[0]), labels.centers[0]
zz, yy, xx = np.nonzero(labels.labels == i)
v = cpv.data[:, zz[0], yy[0], xx[0]]
print(f"instance {i}: {counts[0]} voxels, center of mass ({c[0]:.2f}, {c[1]:.2f}, {c[2]:.2f})")
print(f"  voxel ({zz[0]}, {yy[0]}, {xx[0]}) carries vector ({v[0]:+.2f}, {v[1]:+.2f}, {v[2]:+.2f})")
print("  voxel + vector lands on the center:",
      np.allclose([zz[0] + v[0], yy[0] + v[1], xx[0] + v[2]], c))

# --- bundles: what a matching network head would output --------------------
for variant in ("sdt", "3label", "affinities", "gauss"):
    plain = encode_bundle(labels, variant)
    with_aux = encode_bundle(labels, variant, with_cpv=True)
    print(f"{variant:11s} {plain.volume.channels} channels, +cpv -> {with_aux.volume.channels}")
