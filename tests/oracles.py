"""Brute-force reference implementations used to verify the fast paths.

Everything here is written as plain per-pixel Python loops, independent of
the vectorized library code, except ``raster_full_image``, a numpy
reference that is too slow for the library but fast enough for property
tests at full image sizes.
"""

import math

import numpy as np


def seg_distance_and_frac(px, py, ax, ay, bx, by):
    """Distance from pixel (px, py) to segment a-b and the clamped projection
    fraction along it."""
    vx, vy = bx - ax, by - ay
    d2 = vx * vx + vy * vy
    if d2 > 0:
        t = ((px - ax) * vx + (py - ay) * vy) / d2
        t = min(max(t, 0.0), 1.0)
    else:
        t = 0.0
    nx, ny = ax + t * vx, ay + t * vy
    return math.hypot(px - nx, py - ny), t


def raster_oracle(joints, bones, width, height, radius):
    """Per-pixel reference of the thick-skeleton raster.

    Returns (mask, owner, frac) as nested lists; owner is -1 and frac None
    outside the mask.
    """
    centerline = [[False] * width for _ in range(height)]
    for y in range(height):
        for x in range(width):
            for (j, k) in bones:
                d, _ = seg_distance_and_frac(x, y, joints[j][0], joints[j][1],
                                             joints[k][0], joints[k][1])
                if d <= 0.5:
                    centerline[y][x] = True
                    break
    mask = [[False] * width for _ in range(height)]
    for y in range(height):
        for x in range(width):
            hit = False
            for r in range(-radius, radius + 1):
                if 0 <= x + r < width and centerline[y][x + r]:
                    hit = True
                    break
                if 0 <= y + r < height and centerline[y + r][x]:
                    hit = True
                    break
            mask[y][x] = hit
    owner = [[-1] * width for _ in range(height)]
    frac = [[None] * width for _ in range(height)]
    for y in range(height):
        for x in range(width):
            if not mask[y][x]:
                continue
            best_d, best_b, best_t = float("inf"), -1, None
            for b, (j, k) in enumerate(bones):
                d, t = seg_distance_and_frac(x, y, joints[j][0], joints[j][1],
                                             joints[k][0], joints[k][1])
                if d < best_d:
                    best_d, best_b, best_t = d, b, t
            owner[y][x] = best_b
            frac[y][x] = best_t
    return mask, owner, frac


def raster_full_image(joints, bones, width, height, radius):
    """Numpy reference of the thick-skeleton raster: every bone's distance
    field over the full image.

    Returns (mask, owner, frac) arrays; owner is -1 and frac NaN outside the
    mask.  The library must match it bit for bit.
    """
    pts = np.asarray(joints, dtype=np.float64)
    centerline = np.zeros((height, width), dtype=bool)
    best_d = np.full((height, width), np.inf)
    owner = np.full((height, width), -1, dtype=np.int32)
    frac = np.full((height, width), np.nan)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    for b, (j, k) in enumerate(bones):
        px, py = pts[j]
        qx, qy = pts[k]
        d2 = (qx - px) ** 2 + (qy - py) ** 2
        if d2 > 0:
            t = ((xx - px) * (qx - px) + (yy - py) * (qy - py)) / d2
            t = np.clip(t, 0.0, 1.0)
        else:
            t = np.zeros_like(xx)
        dist = np.hypot(xx - (px + t * (qx - px)), yy - (py + t * (qy - py)))
        centerline |= dist <= 0.5
        closer = dist < best_d
        best_d[closer] = dist[closer]
        owner[closer] = b
        frac[closer] = t[closer]
    mask = centerline.copy()
    for r in range(1, radius + 1):
        mask[:, r:] |= centerline[:, :-r]
        mask[:, :-r] |= centerline[:, r:]
        mask[r:, :] |= centerline[:-r, :]
        mask[:-r, :] |= centerline[r:, :]
    owner = np.where(mask, owner, np.int32(-1))
    frac = np.where(mask, frac, np.nan)
    return mask, owner, frac


def bone_flow_oracle(joints_t, joints_t1, bones, width, height, radius):
    """Reference sparse bone flow: nearest-centerline correspondence by the
    arc-length fraction."""
    mask, owner, frac = raster_oracle(joints_t, bones, width, height, radius)
    flow = [[(0.0, 0.0)] * width for _ in range(height)]
    for y in range(height):
        for x in range(width):
            if not mask[y][x]:
                continue
            j, k = bones[owner[y][x]]
            a = frac[y][x]
            djx = joints_t1[j][0] - joints_t[j][0]
            djy = joints_t1[j][1] - joints_t[j][1]
            dkx = joints_t1[k][0] - joints_t[k][0]
            dky = joints_t1[k][1] - joints_t[k][1]
            flow[y][x] = ((1 - a) * djx + a * dkx, (1 - a) * djy + a * dky)
    return flow, mask


def bilinear_oracle(grid, gh, gw, stride, x, y):
    """Reference bilinear upsample of one grid channel at pixel (x, y)."""
    cx = min(max((x + 0.5) / stride - 0.5, 0.0), gw - 1.0)
    cy = min(max((y + 0.5) / stride - 0.5, 0.0), gh - 1.0)
    x0 = min(int(math.floor(cx)), max(gw - 2, 0))
    y0 = min(int(math.floor(cy)), max(gh - 2, 0))
    x1 = min(x0 + 1, gw - 1)
    y1 = min(y0 + 1, gh - 1)
    fx, fy = cx - x0, cy - y0
    return ((1 - fy) * ((1 - fx) * grid[y0][x0] + fx * grid[y0][x1])
            + fy * ((1 - fx) * grid[y1][x0] + fx * grid[y1][x1]))


def flow_sample_oracle(field, x, y):
    """Reference clamped bilinear sample of an (H, W, 2) field at (x, y).

    Returns (value, d/dx, d/dy, clamped); each of the first three is a
    (u, v) pair, and the derivative along a clamped axis is zero.
    """
    h, w = len(field), len(field[0])
    inside_x = 0.0 <= x <= w - 1.0
    inside_y = 0.0 <= y <= h - 1.0
    xc = min(max(x, 0.0), w - 1.0)
    yc = min(max(y, 0.0), h - 1.0)
    x0 = min(int(math.floor(xc)), max(w - 2, 0))
    y0 = min(int(math.floor(yc)), max(h - 2, 0))
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    fx, fy = xc - x0, yc - y0
    val, dx, dy = [], [], []
    for c in range(2):
        v00, v01 = field[y0][x0][c], field[y0][x1][c]
        v10, v11 = field[y1][x0][c], field[y1][x1][c]
        val.append((1 - fy) * ((1 - fx) * v00 + fx * v01)
                   + fy * ((1 - fx) * v10 + fx * v11))
        dx.append((1 - fy) * (v01 - v00) + fy * (v11 - v10) if inside_x else 0.0)
        dy.append((1 - fx) * (v10 - v00) + fx * (v11 - v01) if inside_y else 0.0)
    return val, dx, dy, not (inside_x and inside_y)


def flow_consistency_oracle(track, fields, beta):
    """Reference flow-consistency term, one frame pair and joint at a time.

    ``track`` is a (T, J, 2) nested list of pixels and ``fields`` the T-1
    (H, W, 2) nested lists.  Returns (value, gradient as a nested list,
    clamped count): the mean smooth-L1 of flow(p_t) - (p_{t+1} - p_t).
    """
    frames, joints = len(track), len(track[0])
    n = (frames - 1) * joints
    grad = [[[0.0, 0.0] for _ in range(joints)] for _ in range(frames)]
    total = 0.0
    clamped = 0
    for t in range(frames - 1):
        for j in range(joints):
            x, y = track[t][j]
            val, dx, dy, cl = flow_sample_oracle(fields[t], x, y)
            clamped += cl
            g = []
            for c in range(2):
                r = val[c] - (track[t + 1][j][c] - track[t][j][c])
                if abs(r) < beta:
                    total += 0.5 * r * r / beta
                    g.append(r / beta)
                else:
                    total += abs(r) - 0.5 * beta
                    g.append(math.copysign(1.0, r))
            for c in range(2):
                grad[t + 1][j][c] -= g[c] / n
            grad[t][j][0] += (g[0] * (dx[0] + 1.0) + g[1] * dx[1]) / n
            grad[t][j][1] += (g[0] * dy[0] + g[1] * (dy[1] + 1.0)) / n
    return total / n, grad, clamped


def axis_operator_oracle(n_out, stride, n_in, sigma):
    """Reference (n_out, n_in) matrix of one refiner axis, as nested lists.

    Column j is the unit vector e_j blurred by the border-renormalized
    Gaussian (no blur at sigma = 0) and then upsampled bilinearly.
    """
    if sigma > 0:
        radius = max(1, math.ceil(3.0 * sigma))
        kernel = [math.exp(-0.5 * (d / sigma) ** 2) for d in range(-radius, radius + 1)]
        kernel = [k / sum(kernel) for k in kernel]
    columns = []
    for j in range(n_in):
        unit = [1.0 if i == j else 0.0 for i in range(n_in)]
        blurred = unit
        if sigma > 0:
            blurred = []
            for i in range(n_in):
                acc = mass = 0.0
                for d in range(-radius, radius + 1):
                    if 0 <= i + d < n_in:
                        acc += kernel[d + radius] * unit[i + d]
                        mass += kernel[d + radius]
                blurred.append(acc / mass)
        column = []
        for o in range(n_out):
            c = min(max((o + 0.5) / stride - 0.5, 0.0), n_in - 1.0)
            i0 = min(int(math.floor(c)), max(n_in - 2, 0))
            i1 = min(i0 + 1, n_in - 1)
            f = c - i0
            column.append((1 - f) * blurred[i0] + f * blurred[i1])
        columns.append(column)
    return [[columns[j][o] for j in range(n_in)] for o in range(n_out)]
