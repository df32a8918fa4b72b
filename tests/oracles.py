"""Brute-force reference implementations used to verify the fast paths.

Everything here is written as plain per-pixel Python loops, independent of
the vectorized library code, except nine numpy references:
``raster_full_image``, too slow for the library but fast enough for property
tests at full image sizes; ``masked_bone_flow`` and ``masked_compose``, the
sketch splat and overlay written with 2-D boolean masks and ``np.where``;
``rodrigues_pose_track``, the scene generator's joint track posed frame by
frame with one Rodrigues matrix per bone and frame;
``scatter_axis_operator``, a refiner axis with its upsampling scattered
entry by entry; ``interleaved_pose_objective``, the pose objective on the
public ``(T, J, D)`` layout with the flow term from the per-pair loop;
``allocating_pose_objective``, the planar objective written plainly, every
array built per call; ``interleaved_flow_objective``, the flow refiner's
objective on the ``(H, W, 2)`` layout, with the residual formed whole every
call; and ``functional_adam_step``, Adam returning new arrays.  The library
matches all but the two interleaved objectives bit for bit."""

import math

import numpy as np

from flowpose.flow_refine import _axis_operator, _gauss_kernel
from flowpose.geometry import _bone_tree
from flowpose.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def _huber_parts(r, beta):
    """Element-wise smooth-L1 of ``r`` at threshold ``beta`` and its slope;
    at ``beta = 1`` it gives the bits of the library's penalty."""
    slope = np.clip(np.divide(r, beta), -1.0, 1.0)
    return slope * (r - 0.5 * beta * slope), slope


def functional_adam_step(params, grads, m, v, t, lr):
    """Adam update number ``t`` (from 1) written as new arrays; returns
    ``(params, m, v)`` and leaves its inputs alone."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    return params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


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


def masked_bone_flow(raster, joints_t, joints_t1, bones):
    """Sparse bone flow ``(H, W, 2)`` of a raster, splatted through its 2-D
    boolean mask."""
    disp = np.asarray(joints_t1, dtype=np.float64) - np.asarray(joints_t, dtype=np.float64)
    m = raster.mask
    uv = np.zeros((*m.shape, 2))
    if m.any():
        bones = np.asarray(bones, dtype=np.intp).reshape(-1, 2)
        o = raster.owner[m]
        t = raster.frac[m][:, None]
        uv[m] = (1.0 - t) * disp[bones[o, 0]] + t * disp[bones[o, 1]]
    return uv


def masked_compose(base_uv, bone_uv, mask):
    """The bone flow over the base flow where ``mask`` is set."""
    return np.where(np.asarray(mask, dtype=bool)[:, :, None], bone_uv, base_uv)


def rodrigues_pose_track(seed, frames, topo, amplitude=1.0, period=32):
    """The joint track ``(T, J, 3)`` of ``generate_scene(seed, frames, topo,
    amplitude=amplitude)``, from the same draws, posed one frame and one bone
    at a time with a fresh Rodrigues matrix each."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = len(topo.bones)
    dirs = rng.normal(size=(n, 3))
    dirs[:, 2] *= 0.3
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    lengths = rng.uniform(0.15, 0.35, size=n)
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    swing = amplitude * rng.uniform(0.1, 0.3, size=n)
    freq = rng.integers(1, 3, size=n)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
    root_amp = amplitude * np.array([0.25, 0.15, 0.10])
    root_freq = rng.integers(1, 3, size=3)
    root_phase = rng.uniform(0.0, 2.0 * np.pi, size=3)

    tree = _bone_tree(topo.bones)
    X = np.zeros((frames, topo.joint_count, 3))
    root = tree[0][1] if tree else 0
    for t in range(frames):
        tau = 2.0 * np.pi * t / period
        X[t, root] = root_amp * np.sin(root_freq * tau + root_phase)
        for b, parent, child in tree:
            x, y, z = axes[b]
            angle = swing[b] * np.sin(freq[b] * tau + phase[b])
            c, s = np.cos(angle), np.sin(angle)
            k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
            rot = np.eye(3) + s * k + (1.0 - c) * (k @ k)
            X[t, child] = X[t, parent] + rot @ (lengths[b] * dirs[b])
    return X


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


def scatter_axis_operator(n_out, stride, n_in, sigma):
    """``(n_out, n_in)`` matrix ``U @ S`` of one refiner axis, with ``S`` the
    library's border-renormalized blur and ``U`` scattered with ``np.add.at``:
    weight ``1 - f`` on cell ``i0`` and ``f`` on ``i0 + 1`` of each output row."""
    if sigma > 0:
        k = _gauss_kernel(sigma, n_in - 1)
        r = len(k) // 2
        i = np.arange(n_in)
        offset = i[None, :] - i[:, None]
        blur = np.where(np.abs(offset) <= r, k[np.clip(offset + r, 0, 2 * r)], 0.0)
        blur /= blur.sum(axis=1, keepdims=True)
    else:
        blur = np.eye(n_in)
    c = np.clip((np.arange(n_out) + 0.5) / stride - 0.5, 0.0, n_in - 1.0)
    i0 = np.minimum(np.floor(c).astype(np.intp), max(n_in - 2, 0))
    frac = c - i0
    rows = np.arange(n_out)
    upsample = np.zeros((n_out, n_in))
    np.add.at(upsample, (rows, i0), 1.0 - frac)
    np.add.at(upsample, (rows, np.minimum(i0 + 1, n_in - 1)), frac)
    return upsample @ blur


def interleaved_flow_objective(grid_values, base_uv, target_uv, stride, sigma,
                               beta=1.0):
    """Reference flow objective on the interleaved layout.

    Forms ``base + M_y G M_x.T - target`` on ``(H, W, 2)`` arrays, takes the
    summed smooth-L1 at ``beta`` over all components, and divides the value
    and every pixel slope by the pixel count before the adjoint
    ``M_y.T S M_x``; returns ``(value, (gh, gw, 2) gradient)``.
    """
    height, width = base_uv.shape[:2]
    gh, gw = grid_values.shape[:2]
    m_y, _ = _axis_operator(height, stride, gh, sigma)
    m_x, _ = _axis_operator(width, stride, gw, sigma)
    corr = (m_y @ grid_values.transpose(2, 0, 1) @ m_x.T).transpose(1, 2, 0)
    vals, g = _huber_parts(base_uv + corr - target_uv, beta)
    n = height * width
    return float(vals.sum()) / n, (m_y.T @ (g / n).transpose(2, 0, 1) @ m_x).transpose(1, 2, 0)


def interleaved_pose_objective(hp, beta, x0, det=None, flows_uv=None, bones=None,
                               camera=False):
    """Reference pose objective on the interleaved layout; returns ``evaluate``.

    ``x0`` is the ``(T, J, D)`` anchor and ``evaluate(params, row=None)``
    takes ``[x.ravel(), C.ravel()]`` with ``x`` a ``(T, J, D)`` track and
    ``C`` the ``(T, 3)`` cameras (3-D mode only).  It returns
    ``(total, grad)`` and writes ``[total, flow, anchor, detection,
    temporal]`` into ``row``, as the library objective does on planes.  The
    flow term is ``flow_consistency_oracle``, scaled after its mean; the
    other terms share one weighted buffer.
    """
    frames, joints, dim = x0.shape
    n_x = x0.size
    nb = 0 if bones is None else len(bones)
    blocks = [b for b in (
        ("anchor", 2, x0.shape, hp.lam_3d / (frames * joints)),
        ("det", 3, (frames, joints, 2),
         hp.lam_2d / (frames * joints) * det.confidence[..., None] if hp.lam_2d else 0.0),
        ("pos", 4, (frames - 1, joints, dim), hp.lam_pos / ((frames - 1) * joints)),
        ("cam", 4, (frames - 1, 3), hp.lam_cam / (frames - 1) if camera else 0.0),
        ("bone", 4, (frames - 1, nb), hp.lam_bone / ((frames - 1) * nb) if nb else 0.0),
    ) if np.any(b[3])]
    sizes = [int(np.prod(shape)) for _, _, shape, _ in blocks]
    resid, wgrad, weights = np.empty((3, sum(sizes)))
    starts = np.cumsum([0] + sizes[:-1])
    columns = [column for _, column, _, _ in blocks]
    r, wg = {}, {}
    for (name, _, shape, w), a, size in zip(blocks, starts, sizes):
        r[name] = resid[a:a + size].reshape(shape)
        wg[name] = wgrad[a:a + size].reshape(shape)
        weights[a:a + size].reshape(shape)[...] = w
    if "bone" in r:
        incidence = np.zeros((joints, nb))
        incidence[bones[:, 0], np.arange(nb)] = 1.0
        incidence[bones[:, 1], np.arange(nb)] = -1.0
        incidence_t = incidence.T.copy()
    flow = hp.lam_opt > 0
    projected = camera and (flow or "det" in r)

    def evaluate(params, row=None):
        row = np.zeros(5) if row is None else row
        row[:] = 0.0
        x = params[:n_x].reshape(x0.shape)
        grad = np.zeros(params.size)
        gx = grad[:n_x].reshape(x0.shape)
        if camera:
            C = params[n_x:].reshape(frames, 3)
            gC = grad[n_x:].reshape(frames, 3)
        p = x[..., :2] * C[:, None, :1] + C[:, None, 1:] if projected else x
        if resid.size:
            if "anchor" in r:
                np.subtract(x, x0, out=r["anchor"])
            if "det" in r:
                np.subtract(p, det.pixels, out=r["det"])
            if "pos" in r:
                np.subtract(x[1:], x[:-1], out=r["pos"])
            if "cam" in r:
                np.subtract(C[1:], C[:-1], out=r["cam"])
            if "bone" in r:
                d = incidence_t @ x
                lengths = np.sqrt((d * d).sum(axis=-1))
                np.subtract(lengths[1:], lengths[:-1], out=r["bone"])
            vals, g = _huber_parts(resid, beta)
            np.multiply(weights, g, out=wgrad)
            row += np.bincount(columns, np.add.reduceat(
                np.multiply(weights, vals, out=vals), starts), minlength=5)
            if "anchor" in r:
                gx += wg["anchor"]
            if "pos" in r:
                gx[1:] += wg["pos"]
                gx[:-1] -= wg["pos"]
            if "cam" in r:
                gC[1:] += wg["cam"]
                gC[:-1] -= wg["cam"]
            if "bone" in r:
                gl = np.zeros((frames, nb))
                gl[1:] = wg["bone"]
                gl[:-1] -= wg["bone"]
                gl /= np.maximum(lengths, 1e-12)
                gx += incidence @ (d * gl[..., None])
        gp = wg.get("det")
        if flow:
            v, g_flow, _ = flow_consistency_oracle(p.tolist(), flows_uv.tolist(), beta)
            row[1] = hp.lam_opt * v
            g_flow = np.array(g_flow)
            gp = hp.lam_opt * g_flow if gp is None else hp.lam_opt * g_flow + gp
        if gp is not None and camera:
            gx[..., :2] += gp * C[:, None, :1]
            gC[:, 0] += (gp * x[..., :2]).reshape(len(C), -1).sum(axis=1)
            gC[:, 1:] += gp.sum(axis=1)
        elif gp is not None:
            gx += gp
        row[0] = row[1] + row[2] + row[3] + row[4]
        return row[0], grad

    return evaluate


def _planar_project(x: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Weak-perspective pixel planes ``(s * x + tx, s * y + ty)`` of a
    ``(3, T, J)`` track under ``(3, T)`` cameras."""
    return x[:2] * C[0, :, None] + C[1:, :, None]


def _planar_backprop(gp: np.ndarray, x: np.ndarray, C: np.ndarray,
                      gx: np.ndarray, gC: np.ndarray) -> None:
    """Add the chain rule of pixel gradients ``gp`` through
    ``_planar_project`` to the track and camera gradients ``gx`` and ``gC``."""
    gx[:2] += gp * C[0, :, None]
    gC[0] += (gp * x[:2]).sum(axis=(0, 2))
    gC[1:] += gp.sum(axis=2)


def allocating_sample_flow(uv, q):
    """Reference planar sampler: bilinear samples of stacked fields
    ``(P, H, W, 2)`` at ``(2, P, N)`` pixels, built from scratch per call.

    Field ``k`` is sampled at the points ``q[:, k]``, all pairs in one
    gather.  Positions are clamped to the field; where clamping was active
    the positional derivative in that axis is zero (the sample no longer
    moves with the point).  Returns the ``(2, P, N)`` planes of the value
    ``(u, v)``, its ``(2, 2, P, N)`` Jacobian (``jac[0]`` is d(value)/dx and
    ``jac[1]`` d(value)/dy) and the ``(2, P, N)`` mask of clamped x and y
    coordinates.
    """
    pairs, h, w = uv.shape[:3]
    c = np.clip(q, 0.0, np.array([w - 1.0, h - 1.0]).reshape(2, 1, 1))
    clamped = c != q
    i0 = np.minimum(np.floor(c).astype(np.intp),
                    np.array([max(w - 2, 0), max(h - 2, 0)]).reshape(2, 1, 1))
    f = c - i0
    g = 1 - f
    # corners (x0, y0), (x1, y0), (x0, y1), (x1, y1), each as its u and v
    # entries of the flat (P * H * W * 2) stack; a one-pixel axis has
    # x1 = x0 (or y1 = y0)
    dx = 2 * int(w > 1)
    dy = 2 * w * int(h > 1)
    corner = i0[1] * (2 * w) + 2 * i0[0] + np.arange(0, 2 * pairs * h * w, 2 * h * w)[:, None]
    offsets = np.array([0, 1, dx, dx + 1, dy, dy + 1, dx + dy, dx + dy + 1])
    v = uv.reshape(-1).take(corner + offsets.reshape(4, 2, 1, 1))
    rows = g[0] * v[0::2] + f[0] * v[1::2]
    val = g[1] * rows[0] + f[1] * rows[1]
    # jac[0] = gy * (v01 - v00) + fy * (v11 - v10), and jac[1] alike in y
    diff = np.empty((2,) + v[:2].shape)
    np.subtract(v[1::2], v[0::2], out=diff[0])
    np.subtract(v[2:], v[:2], out=diff[1])
    jac = g[::-1, None] * diff[:, 0] + f[::-1, None] * diff[:, 1]
    np.copyto(jac, 0.0, where=clamped[:, None])
    return val, jac, clamped


def allocating_pose_objective(hp, beta, x0, det=None, flows_uv=None, bones=None,
                              camera=False):
    """Reference planar pose objective that allocates every array per call;
    returns ``evaluate``.

    The library's objective must match it bit for bit: value, gradient and
    history row.  Needs at least two frames.

    The variables are a track ``x`` of ``(D, T, J)`` coordinate planes and,
    with ``camera``, ``(3, T)`` camera planes ``C`` that project it to
    pixels; otherwise the projector is the identity and there is no camera
    term (2-D mode).  ``evaluate(params, row=None)`` takes
    ``[x.ravel(), C.ravel()]`` and returns ``(total, grad)``, ``grad`` laid
    out like ``params``; it writes ``[total, flow, anchor, detection,
    temporal]`` (each weighted) into ``row``.  ``x0`` is the anchor, in
    planes like ``x``; ``flows_uv`` stacks the ``(T-1, H, W, 2)`` fields.
    Every term is a smooth-L1 of a residual written into one buffer whose
    elements carry ``lam / n`` (times the detection confidence), so the
    penalty runs once.  A term whose weight is zero is left out.
    """
    dim, frames, joints = x0.shape
    n_x = x0.size
    nb = 0 if bones is None else len(bones)
    # (name, history column, residual shape, weight of each element)
    blocks = [b for b in (
        ("flow", 1, (2, frames - 1, joints), hp.lam_opt / ((frames - 1) * joints)),
        ("anchor", 2, x0.shape, hp.lam_3d / (frames * joints)),
        ("det", 3, (2, frames, joints),
         hp.lam_2d / (frames * joints) * det.confidence if hp.lam_2d else 0.0),
        ("pos", 4, (dim, frames - 1, joints), hp.lam_pos / ((frames - 1) * joints)),
        ("cam", 4, (3, frames - 1), hp.lam_cam / (frames - 1) if camera else 0.0),
        ("bone", 4, (frames - 1, nb), hp.lam_bone / ((frames - 1) * nb) if nb else 0.0),
    ) if np.any(b[3])]
    sizes = [int(np.prod(shape)) for _, _, shape, _ in blocks]
    resid, wgrad, weights = np.empty((3, sum(sizes)))
    starts = np.cumsum([0] + sizes[:-1])
    columns = [column for _, column, _, _ in blocks]
    r, wg = {}, {}
    for (name, _, shape, w), a, size in zip(blocks, starts, sizes):
        r[name] = resid[a:a + size].reshape(shape)
        wg[name] = wgrad[a:a + size].reshape(shape)
        weights[a:a + size].reshape(shape)[...] = w
    if "det" in r:
        det_pixels = np.ascontiguousarray(np.moveaxis(det.pixels, -1, 0))
    if "bone" in r:
        incidence = np.zeros((joints, nb))             # bone b is x_j - x_k
        incidence[bones[:, 0], np.arange(nb)] = 1.0
        incidence[bones[:, 1], np.arange(nb)] = -1.0
        incidence_t = incidence.T.copy()
    projected = camera and ("flow" in r or "det" in r)

    def evaluate(params: np.ndarray, row: np.ndarray | None = None):
        row = np.zeros(5) if row is None else row
        row[:] = 0.0
        grad = np.zeros(params.size)
        if not resid.size:
            return row[0], grad
        x = params[:n_x].reshape(x0.shape)
        gx = grad[:n_x].reshape(x0.shape)
        if camera:
            C = params[n_x:].reshape(3, frames)
            gC = grad[n_x:].reshape(3, frames)
        p = _planar_project(x, C) if projected else x
        if "flow" in r:
            val, jac, _ = allocating_sample_flow(flows_uv, p[:, :-1])
            np.subtract(p[:, 1:], p[:, :-1], out=r["flow"])
            np.subtract(val, r["flow"], out=r["flow"])
        if "anchor" in r:
            np.subtract(x, x0, out=r["anchor"])
        if "det" in r:
            np.subtract(p, det_pixels, out=r["det"])
        if "pos" in r:
            np.subtract(x[:, 1:], x[:, :-1], out=r["pos"])
        if "cam" in r:
            np.subtract(C[:, 1:], C[:, :-1], out=r["cam"])
        if "bone" in r:
            d = (x.reshape(-1, joints) @ incidence).reshape(dim, frames, nb)
            lengths = np.sqrt((d * d).sum(axis=0))
            np.subtract(lengths[1:], lengths[:-1], out=r["bone"])
        vals, g = _huber_parts(resid, beta)
        np.multiply(weights, g, out=wgrad)
        # each term summed on its own, the temporal ones then added in order
        row += np.bincount(columns, np.add.reduceat(
            np.multiply(weights, vals, out=vals), starts), minlength=5)
        row[0] = row[1] + row[2] + row[3] + row[4]
        if "anchor" in r:
            gx += wg["anchor"]
        if "pos" in r:
            gx[:, 1:] += wg["pos"]
            gx[:, :-1] -= wg["pos"]
        if "cam" in r:
            gC[:, 1:] += wg["cam"]
            gC[:, :-1] -= wg["cam"]
        if "bone" in r:
            # d|x_j - x_k| / dx_j is the unit bone vector
            gl = np.zeros((frames, nb))
            gl[1:] = wg["bone"]
            gl[:-1] -= wg["bone"]
            gl /= np.maximum(lengths, 1e-12)
            gx += ((d * gl).reshape(-1, nb) @ incidence_t).reshape(x0.shape)
        gp = wg.get("det")
        if "flow" in r:
            # residual = flow(p_t) + p_t - p_{t+1}, a (u, v) pair per joint
            wf = wg["flow"]
            gp = np.zeros((2, frames, joints)) if gp is None else gp
            gp[:, :-1] += wf
            gp[:, 1:] -= wf
            gp[:, :-1] += (wf * jac).sum(axis=1)
        if gp is not None and camera:
            _planar_backprop(gp, x, C, gx, gC)
        elif gp is not None:
            gx += gp
        return row[0], grad

    return evaluate
