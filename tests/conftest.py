import numpy as np


def central_diff(fun, theta, h=1e-5):
    """Central finite-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    flat = theta.ravel()
    g = np.zeros_like(flat)
    for j in range(flat.size):
        e = np.zeros_like(flat)
        e[j] = h
        g[j] = (fun((flat + e).reshape(theta.shape))
                - fun((flat - e).reshape(theta.shape))) / (2.0 * h)
    return g.reshape(theta.shape)


def rel_err(a, b):
    """Relative error of a against reference b, floored at unit scale."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(1.0, float(np.linalg.norm(b.ravel())))
    return float(np.linalg.norm((a - b).ravel())) / denom


def sampled_constants(geom, losses, points):
    """BoundConstants over a finite sample: subgradient norms of every loss
    at every point, the point norms, and every pairwise divergence."""
    from dynmd import BoundConstants

    stack = np.stack([np.asarray(p, dtype=float) for p in points])
    return BoundConstants.from_samples(
        geom,
        [np.linalg.norm(np.ravel(loss.subgradient(p))) for loss in losses for p in stack],
        [np.linalg.norm(np.ravel(p)) for p in stack],
        [geom.divergences(p, stack).max() for p in stack])
