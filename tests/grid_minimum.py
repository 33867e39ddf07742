"""The minimum of a 2-D cubic model over a square grid, found without
scanning every point, for the acceptance checklist's sub-solver grid
check."""

import numpy as np


def model_on_grid(g, h, sigma, cx, ys):
    """The 2-D cubic model at the grid points ``(cx[i, 0], ys[j])``, by
    the same operations in the same order for any block of the grid, so
    a point's value has the same bits whichever block holds it."""
    y2 = ys * ys
    r2 = cx * cx + y2
    vals = np.sqrt(r2)
    vals *= r2
    vals *= sigma / 3.0
    vals += h[0, 1] * cx * ys
    vals += g[0] * cx + 0.5 * h[0, 0] * cx * cx
    vals += g[1] * ys + 0.5 * h[1, 1] * y2
    return vals


def grid_minimum(g, h, sigma, xs, block=100):
    """The minimum of the model over the grid ``xs x xs`` and its first
    argmin in row-major order, as an exhaustive scan finds them.

    Each axis is split into blocks of ``block`` points. On each pair of
    blocks the model is bounded below by interval bounds on its linear,
    square and cross terms plus the cube term at the point nearest the
    origin, less a 1e-9 relative slack; one grid point per block pair
    bounds the minimum above. Only the pairs whose lower bound does not
    exceed that upper bound can hold a minimizer, and only those are
    scanned."""
    starts = np.arange(0, len(xs), block)
    lo = xs[starts]
    hi = xs[np.minimum(starts + block, len(xs)) - 1]
    near2 = np.where((lo <= 0.0) & (hi >= 0.0), 0.0, np.minimum(lo * lo, hi * hi))
    far2 = np.maximum(lo * lo, hi * hi)

    def axis_bound(g_k, h_kk):
        return np.minimum(g_k * lo, g_k * hi) + np.minimum(
            0.5 * h_kk * near2, 0.5 * h_kk * far2
        )

    corners = [h[0, 1] * a[:, None] * b for a in (lo, hi) for b in (lo, hi)]
    lower = axis_bound(g[0], h[0, 0])[:, None] + axis_bound(g[1], h[1, 1])
    lower += np.minimum.reduce(corners)
    lower += sigma / 3.0 * (near2[:, None] + near2) ** 1.5
    lower -= 1e-9 * np.maximum(1.0, np.abs(lower))
    mid = xs[np.minimum(starts + block // 2, len(xs) - 1)]
    upper = model_on_grid(g, h, sigma, mid[:, None], mid).min()

    best = (np.inf, 0, 0)
    for i, j in zip(*np.nonzero(lower <= upper)):
        sx, sy = starts[i], starts[j]
        cx, ys = xs[sx : sx + block, None], xs[sy : sy + block]
        vals = model_on_grid(g, h, sigma, cx, ys)
        k = np.unravel_index(np.argmin(vals), vals.shape)
        best = min(best, (float(vals[k]), sx + k[0], sy + k[1]))
    return best[0], (float(xs[best[1]]), float(xs[best[2]]))
