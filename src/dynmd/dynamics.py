"""Dynamical models Phi and the non-expansion audit.

All v1 models are time-invariant maps; apply() still takes the time index
so callers can wire in time-varying models later.  Models never mutate
their input and map feasible points to feasible points for the sets they
are used with (shifts preserve boxes containing 0, the attraction map
preserves [-1, 1] entrywise).
"""

from dataclasses import dataclass

import numpy as np

# compass directions for angles 2*pi*i/8, i = 0..7; rows grow downward so
# the row displacement is minus the sine
DIRECTIONS = (
    ("E", 0, 1),
    ("NE", -1, 1),
    ("N", -1, 0),
    ("NW", -1, -1),
    ("W", 0, -1),
    ("SW", 1, -1),
    ("S", 1, 0),
    ("SE", 1, 1),
)


class DynamicalModel:
    label = "model"

    def apply(self, theta, t=None):
        raise NotImplementedError

    def source_index(self, size):
        """Flat gather index of a model that only moves entries, or None.

        Entry j of the output is entry index[j] of the flattened input, and
        index[j] == size marks an output entry that is set to zero.  Models
        that compute new values return None.
        """
        return None

    def __repr__(self):
        return f"{type(self).__name__}(label={self.label!r})"


class IdentityModel(DynamicalModel):
    """Phi(theta) = theta."""

    def __init__(self, label="identity"):
        self.label = label

    def apply(self, theta, t=None):
        return np.array(theta, dtype=float, copy=True)

    def source_index(self, size):
        return np.arange(size)


class PixelShift(DynamicalModel):
    """Translate an image one pixel along one of 8 compass directions.

    direction indexes DIRECTIONS (0 = E, counterclockwise by 45 degrees up
    to 7 = SE); diagonal members move one pixel along each axis.  boundary
    is "zero" (content shifted past the edge is dropped, vacated pixels are
    zero) or "wrap" (toroidal roll).  Input may be a (rows, cols) image or
    its flattened vector; the output matches the input shape.
    """

    def __init__(self, direction, rows, cols, boundary="zero"):
        if direction not in range(8):
            raise ValueError(f"direction must be in 0..7, got {direction}")
        if rows < 1 or cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
        if boundary not in ("zero", "wrap"):
            raise ValueError(f"boundary must be 'zero' or 'wrap', got {boundary!r}")
        self.direction = int(direction)
        self.rows = int(rows)
        self.cols = int(cols)
        self.boundary = boundary
        self.label, self.dr, self.dc = DIRECTIONS[direction]
        # output pixel (i, j) reads input pixel (i - dr, j - dc)
        r = np.arange(self.rows)[:, None] - self.dr
        c = np.arange(self.cols)[None, :] - self.dc
        size = self.rows * self.cols
        if boundary == "wrap":
            src = (r % self.rows) * self.cols + c % self.cols
        else:
            inside = (r >= 0) & (r < self.rows) & (c >= 0) & (c < self.cols)
            src = np.where(inside, r * self.cols + c, size)
        self._source = src.ravel()

    def source_index(self, size):
        if size != self.rows * self.cols:
            raise ValueError(
                f"point has {size} entries, grid needs {self.rows * self.cols}")
        return self._source

    def apply(self, theta, t=None):
        theta = np.asarray(theta, dtype=float)
        index = self.source_index(theta.size)
        return np.append(theta.ravel(), 0.0)[index].reshape(theta.shape)


class NetworkAttraction(DynamicalModel):
    """Pull each entry toward the strongest shared-neighbor product.

    For every entry (a, b) let c* = argmax_{c not in {a, b}} |theta_ac *
    theta_bc| (ties to the lowest index).  If |theta_ac* * theta_bc*| >
    |theta_ab| the entry moves to (1 - alpha) theta_ab + alpha theta_ac* *
    theta_bc*; otherwise it is unchanged.  alpha = 0 is exactly the
    identity.  Cost is O(p^3) memory and time per application.
    """

    def __init__(self, alpha):
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.label = f"alpha={self.alpha:g}"

    def apply(self, theta, t=None):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
            raise ValueError(f"theta must be square, got shape {theta.shape}")
        if self.alpha == 0.0:
            return theta.copy()
        p = theta.shape[0]
        prod = theta[:, None, :] * theta[None, :, :]
        idx = np.arange(p)
        prod[idx, :, idx] = 0.0  # exclude c == a
        prod[:, idx, idx] = 0.0  # exclude c == b
        # an excluded c scores 0, so argmax can only pick it when every
        # candidate scores 0 too, and then |best| = 0 pulls nothing
        cstar = np.abs(prod).argmax(axis=2)
        best = np.take_along_axis(prod, cstar[..., None], axis=2)[..., 0]
        pull = np.abs(best) > np.abs(theta)
        return np.where(pull, (1.0 - self.alpha) * theta + self.alpha * best, theta)


class ModelStack:
    """Applies one model per row to an (N, *shape) stack of points.

    Row i of apply(thetas, t) equals models[i].apply(thetas[i], t) bit for
    bit.  Rows whose models only move entries (shifts, identity) are moved
    together by one gather over the zero-padded stack; every other row
    calls its model's apply.
    """

    def __init__(self, models, shape):
        self.models = tuple(models)
        self.shape = tuple(shape)
        size = int(np.prod(self.shape, dtype=int))
        index = [m.source_index(size) for m in self.models]
        self._others = [i for i, ix in enumerate(index) if ix is None]
        self._index = None
        if len(self._others) < len(index):
            # row k of the zero-padded stack starts at k * (size + 1); rows
            # of other models are copied here and overwritten in apply
            self._index = np.stack([
                k * (size + 1) + (np.arange(size) if ix is None else ix)
                for k, ix in enumerate(index)])

    def apply(self, thetas, t=None):
        thetas = np.asarray(thetas, dtype=float)
        if thetas.shape != (len(self.models),) + self.shape:
            raise ValueError(f"stack has shape {thetas.shape}, expected "
                             f"{(len(self.models),) + self.shape}")
        if self._index is None:
            out = np.empty_like(thetas)
        else:
            flat = thetas.reshape(len(thetas), -1)
            padded = np.concatenate([flat, np.zeros((len(flat), 1))], axis=1)
            out = padded.ravel()[self._index].reshape(thetas.shape)
        for i in self._others:
            out[i] = self.models[i].apply(thetas[i], t)
        return out


def shift_family(rows, cols, boundary="zero"):
    """The 9-member video family: 8 one-pixel shifts plus the static model."""
    models = [PixelShift(i, rows, cols, boundary=boundary) for i in range(8)]
    models.append(IdentityModel(label="static"))
    return models


@dataclass(frozen=True)
class ContractionAudit:
    """Sampled estimate of max D(Phi a || Phi b) - D(a || b) over a set."""

    model_label: str
    estimate: float
    n_pairs: int
    seed: int
    threshold: float
    violation: bool
    worst_a: np.ndarray
    worst_b: np.ndarray


def audit_contraction(model, geom, fset, n_pairs=1000, seed=0, threshold=1e-10):
    """Estimate the divergence expansion of a model over sampled pairs.

    Samples n_pairs pairs from fset, reports the max (signed) gap
    D(Phi a || Phi b) - D(a || b) together with the worst pair.  The
    estimate is a sampled lower bound on the true supremum; violation
    flags estimate > threshold.  Deterministic for a fixed seed.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = np.random.default_rng(seed)
    a_pts = fset.sample(rng, n_pairs)
    b_pts = fset.sample(rng, n_pairs)
    best_gap = -np.inf
    worst = None
    for a, b in zip(a_pts, b_pts):
        gap = geom.divergence(model.apply(a), model.apply(b)) - geom.divergence(a, b)
        if gap > best_gap:
            best_gap = gap
            worst = (a, b)
    return ContractionAudit(
        model_label=model.label,
        estimate=float(best_gap),
        n_pairs=int(n_pairs),
        seed=int(seed),
        threshold=float(threshold),
        violation=bool(best_gap > threshold),
        worst_a=worst[0].copy(),
        worst_b=worst[1].copy(),
    )
