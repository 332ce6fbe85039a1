"""Independent brute-force oracles the library is checked against.

Everything here is written from the definitions, with explicit loops or
plain broadcasting, and deliberately shares no code with the package. The
one exception is ``naive_sweep``: it is the full product of the package's
own ``segment`` and objective calls, the reference a memoised sweep must
reproduce exactly.
"""

import numpy as np

FACE_OFFSETS = ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1))


def com_oracle(lab, instance_id):
    """Center of mass by explicit per-voxel summation."""
    total = np.zeros(3)
    count = 0
    for z in range(lab.shape[0]):
        for y in range(lab.shape[1]):
            for x in range(lab.shape[2]):
                if lab[z, y, x] == instance_id:
                    total += (z, y, x)
                    count += 1
    assert count > 0
    return total / count


def _in_bounds(shape, z, y, x):
    return 0 <= z < shape[0] and 0 <= y < shape[1] and 0 <= x < shape[2]


def erode_oracle(lab, iterations):
    """Per-voxel neighborhood check; out-of-bounds counts as background."""
    out = lab.copy()
    for _ in range(iterations):
        nxt = out.copy()
        for z in range(out.shape[0]):
            for y in range(out.shape[1]):
                for x in range(out.shape[2]):
                    if out[z, y, x] == 0:
                        continue
                    for dz, dy, dx in FACE_OFFSETS:
                        az, ay, ax = z + dz, y + dy, x + dx
                        if not _in_bounds(out.shape, az, ay, ax) or out[az, ay, ax] != out[z, y, x]:
                            nxt[z, y, x] = 0
                            break
        out = nxt
    return out


def dilate_oracle(lab, iterations):
    """Background voxels claimed by the smallest adjacent instance ID."""
    out = lab.copy()
    for _ in range(iterations):
        nxt = out.copy()
        for z in range(out.shape[0]):
            for y in range(out.shape[1]):
                for x in range(out.shape[2]):
                    if out[z, y, x] != 0:
                        continue
                    claims = []
                    for dz, dy, dx in FACE_OFFSETS:
                        az, ay, ax = z + dz, y + dy, x + dx
                        if _in_bounds(out.shape, az, ay, ax) and out[az, ay, ax] > 0:
                            claims.append(out[az, ay, ax])
                    if claims:
                        nxt[z, y, x] = min(claims)
        out = nxt
    return out


def unionfind_components(mask):
    """6-connected components by union-find, IDs in raster first-encounter order."""
    mask = np.asarray(mask) != 0
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for z in range(mask.shape[0]):
        for y in range(mask.shape[1]):
            for x in range(mask.shape[2]):
                if not mask[z, y, x]:
                    continue
                parent.setdefault((z, y, x), (z, y, x))
                for dz, dy, dx in FACE_OFFSETS:
                    az, ay, ax = z + dz, y + dy, x + dx
                    if _in_bounds(mask.shape, az, ay, ax) and mask[az, ay, ax]:
                        parent.setdefault((az, ay, ax), (az, ay, ax))
                        union((z, y, x), (az, ay, ax))

    out = np.zeros(mask.shape, dtype=np.int32)
    next_id = 1
    roots = {}
    for z in range(mask.shape[0]):
        for y in range(mask.shape[1]):
            for x in range(mask.shape[2]):
                if mask[z, y, x]:
                    root = find((z, y, x))
                    if root not in roots:
                        roots[root] = next_id
                        next_id += 1
                    out[z, y, x] = roots[root]
    return out


def boundary_oracle(lab):
    """Foreground voxels with an in-bounds face neighbor of different label."""
    out = np.zeros(lab.shape, dtype=bool)
    for z in range(lab.shape[0]):
        for y in range(lab.shape[1]):
            for x in range(lab.shape[2]):
                if lab[z, y, x] == 0:
                    continue
                for dz, dy, dx in FACE_OFFSETS:
                    az, ay, ax = z + dz, y + dy, x + dx
                    if _in_bounds(lab.shape, az, ay, ax) and lab[az, ay, ax] != lab[z, y, x]:
                        out[z, y, x] = True
                        break
    return out


def distance_to_set_oracle(shape, points):
    """All-pairs Euclidean distance from every voxel to the nearest point."""
    points = np.asarray(points, dtype=np.float64)
    coords = np.stack(
        np.meshgrid(*(np.arange(s) for s in shape), indexing="ij"), axis=-1
    ).reshape(-1, 3).astype(np.float64)
    d2 = ((coords[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(d2.min(axis=1)).reshape(shape)


def naive_gauss(shape, centers, sigma):
    """Per-voxel maximum over centers of exp(-|p - c|^2 / (2 sigma^2)), one exp per center."""
    z = np.arange(shape[0], dtype=np.float64)[:, None, None]
    y = np.arange(shape[1], dtype=np.float64)[None, :, None]
    x = np.arange(shape[2], dtype=np.float64)[None, None, :]
    out = np.zeros(shape, dtype=np.float64)
    for cz, cy, cx in centers:
        d2 = (z - cz) ** 2 + (y - cy) ** 2 + (x - cx) ** 2
        np.maximum(out, np.exp(d2 / (-2.0 * sigma * sigma)), out=out)
    return out


def vote_count_oracle(vec, fg):
    """Per-voxel CPV vote counter, rounding half away from zero."""

    def rnd(v):
        return int(np.floor(abs(v) + 0.5) * (1 if v >= 0 else -1))

    counts = np.zeros(fg.shape, dtype=np.int64)
    for z in range(fg.shape[0]):
        for y in range(fg.shape[1]):
            for x in range(fg.shape[2]):
                if not fg[z, y, x]:
                    continue
                tz = rnd(z + vec[0, z, y, x])
                ty = rnd(y + vec[1, z, y, x])
                tx = rnd(x + vec[2, z, y, x])
                if _in_bounds(fg.shape, tz, ty, tx):
                    counts[tz, ty, tx] += 1
    return counts


def flood_simulator(values, fg, seeds):
    """Step-by-step priority flood; pending claims scanned for the minimum.

    Claims are (map value at target, insertion sequence, z, y, x, label) and
    the smallest (value, sequence) claim is resolved first, mirroring the
    documented watershed discipline with a plain list scanned by min()
    instead of a heap. Sequence numbers are unique, so min() never compares
    past the second element.
    """
    nz, ny, nx = values.shape
    vals = [[list(map(float, row)) for row in plane] for plane in values]
    fgl = [[[bool(v) for v in row] for row in plane] for plane in fg]
    out = [
        [[int(seeds[z][y][x]) if fg[z][y][x] else 0 for x in range(nx)] for y in range(ny)]
        for z in range(nz)
    ]
    pending = []
    seq = 0

    def push_neighbors(z, y, x, lab):
        nonlocal seq
        for dz, dy, dx in FACE_OFFSETS:
            az, ay, ax = z + dz, y + dy, x + dx
            if _in_bounds(values.shape, az, ay, ax) and fgl[az][ay][ax] and out[az][ay][ax] == 0:
                pending.append((vals[az][ay][ax], seq, az, ay, ax, lab))
                seq += 1

    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if out[z][y][x] > 0:
                    push_neighbors(z, y, x, out[z][y][x])

    while pending:
        best = min(pending)
        pending.remove(best)
        _, _, z, y, x, lab = best
        if out[z][y][x] != 0:
            continue
        out[z][y][x] = lab
        push_neighbors(z, y, x, lab)
    return np.asarray(out, dtype=np.int64)


def window_max_oracle(vals, threshold, radius):
    """Exhaustive window scan NMS with raster-first plateau handling."""
    nz, ny, nx = vals.shape
    kept = []
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                v = vals[z, y, x]
                if v < threshold:
                    continue
                window = vals[
                    max(0, z - radius): z + radius + 1,
                    max(0, y - radius): y + radius + 1,
                    max(0, x - radius): x + radius + 1,
                ]
                if (window > v).any():
                    continue
                if any(
                    max(abs(z - kz), abs(y - ky), abs(x - kx)) <= radius
                    for kz, ky, kx in kept
                ):
                    continue
                kept.append((z, y, x))
    return kept


def iou_pairs_oracle(gt, pred):
    """IoU of every overlapping (gt, pred) instance pair, by set counting."""
    out = {}
    gt_vox = {}
    pred_vox = {}
    for z in range(gt.shape[0]):
        for y in range(gt.shape[1]):
            for x in range(gt.shape[2]):
                if gt[z, y, x] > 0:
                    gt_vox.setdefault(int(gt[z, y, x]), set()).add((z, y, x))
                if pred[z, y, x] > 0:
                    pred_vox.setdefault(int(pred[z, y, x]), set()).add((z, y, x))
    for g, gv in gt_vox.items():
        for p, pv in pred_vox.items():
            inter = len(gv & pv)
            if inter:
                out[(g, p)] = inter / len(gv | pv)
    return out


def optimal_match_count(iou_pairs, gt_ids, iou_threshold):
    """Maximum one-to-one match count over all matchings, by recursion."""
    gt_ids = sorted(gt_ids)
    candidates = {
        g: [p for (gg, p), iou in iou_pairs.items() if gg == g and iou > iou_threshold]
        for g in gt_ids
    }

    def rec(i, used):
        if i == len(gt_ids):
            return 0
        best = rec(i + 1, used)
        for p in candidates[gt_ids[i]]:
            if p not in used:
                best = max(best, 1 + rec(i + 1, used | {p}))
        return best

    return rec(0, frozenset())


def greedy_match_counts(ious, n_gt, n_pred, iou_threshold):
    """Greedy one-to-one matching at one threshold; returns (ap, tp, fp, fn).

    Keeps only the pairs with IoU strictly above the threshold, sorts them by
    (descending IoU, gt id, pred id) and accepts a pair when neither side is
    matched yet; a fresh filter and sort per threshold.
    """
    pairs = sorted(
        ((iou, g, p) for (g, p), iou in ious.items() if iou > iou_threshold),
        key=lambda t: (-t[0], t[1], t[2]),
    )
    matched_gt, matched_pred = set(), set()
    for _, g, p in pairs:
        if g not in matched_gt and p not in matched_pred:
            matched_gt.add(g)
            matched_pred.add(p)
    tp = len(matched_gt)
    fp = n_pred - tp
    fn = n_gt - tp
    denom = tp + fp + fn
    return (float(tp) / denom if denom else 1.0), tp, fp, fn


def detection_counts_oracle(lab, detections):
    """Center-point detection (ap, tp, fp, fn) by a per-detection loop.

    Each detection rounds half away from zero per coordinate. Hits per
    instance are tallied; an instance with a hit is one TP, and every
    further hit, background hit and out-of-bounds detection is a FP.
    """

    def rnd(v):
        return int(np.floor(abs(v) + 0.5) * (1 if v >= 0 else -1))

    hits = {}
    n_background = 0
    for det in detections:
        z, y, x = rnd(det.z), rnd(det.y), rnd(det.x)
        if _in_bounds(lab.shape, z, y, x) and lab[z, y, x] > 0:
            hits[int(lab[z, y, x])] = hits.get(int(lab[z, y, x]), 0) + 1
        else:
            n_background += 1
    tp = len(hits)
    fp = n_background + sum(h - 1 for h in hits.values())
    fn = len(set(lab[lab > 0].tolist())) - tp
    denom = tp + fp + fn
    return (float(tp) / denom if denom else 1.0), tp, fp, fn


def touching_phantom_oracle(cfg, max_attempts=400):
    """Labels of an ``allow_touching`` phantom, every attempt tested on its full ellipsoid.

    Repeats the generator's draws in its order and refuses an attempt when any
    voxel of its ellipsoid, found over the whole grid, is taken. Returns None
    when an instance cannot be placed.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    grid = np.indices(cfg.shape, dtype=np.float64)
    labels = np.zeros(cfg.shape, dtype=np.int32)
    for instance in range(1, cfg.n_instances + 1):
        for _ in range(max_attempts):
            semi = rng.uniform(*cfg.radius_range, size=3)
            margin = np.ceil(semi) + 1
            if any(2 * m >= dim - 1 for m, dim in zip(margin, cfg.shape)):
                continue
            center = [rng.uniform(m, dim - 1 - m) for m, dim in zip(margin, cfg.shape)]
            inside = (
                ((grid[0] - center[0]) / semi[0]) ** 2
                + ((grid[1] - center[1]) / semi[1]) ** 2
                + ((grid[2] - center[2]) / semi[2]) ** 2
            ) <= 1.0
            if not labels[inside].any():
                labels[inside] = instance
                break
        else:
            return None
    return labels


def naive_sweep(spec):
    """Sweep table and selection by re-running every (checkpoint, grid point, pair)."""
    from nuclei3d import (
        LabelVolume, PostprocConfig, Volume, centroids_from_labels, detection_ap, evaluate,
        read_volume, segment, segmentation_ap,
    )

    table = []
    best = None
    for name, pairs in spec.checkpoints:
        for seed_source, seed_t, fg_t, cpv_t, dilate in spec.grid_points():
            cfg = PostprocConfig(
                variant=spec.variant,
                seed_source=seed_source,
                seed_threshold=seed_t,
                foreground_threshold=fg_t,
                cpv_seed_threshold=cpv_t,
                dilate_result=dilate,
            )
            total = 0.0
            for gt_path, pred_path in pairs:
                gt = read_volume(gt_path, LabelVolume)
                seg = segment(read_volume(pred_path, Volume), cfg)
                if spec.objective == "seg_avap":
                    total += evaluate(gt, seg=seg).av_ap
                elif spec.objective.startswith("seg_ap@"):
                    total += segmentation_ap(gt, seg, float(spec.objective[7:]))[0]
                else:
                    total += detection_ap(gt, centroids_from_labels(seg))[0]
            row = {
                "checkpoint": name,
                "seed_source": seed_source,
                "seed_threshold": seed_t,
                "foreground_threshold": fg_t,
                "cpv_seed_threshold": cpv_t,
                "dilate": dilate,
                "score": total / len(pairs),
            }
            table.append(row)
            if best is None or row["score"] > best["score"]:
                best = row
    return dict(best, objective=spec.objective), table
