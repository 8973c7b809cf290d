"""Bregman geometry, feasible sets, step schedules, and bound constants.

The geometry in v1 is the scaled squared Euclidean norm psi(theta) =
c * ||theta||^2 with c > 0, which is 2c-strongly convex in the Euclidean
norm and induces the divergence D(a || b) = c * ||a - b||^2.  Parameter
points are plain numpy arrays of any shape; all norms are taken over the
flattened values.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np


def _as_integer(value, name, low):
    """value as an int, else ValueError naming it (NaN, +-inf, 1.5, < low)."""
    try:
        if int(value) == value >= low:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer >= {low}, got {value}")


def _as_array(p, name="point"):
    a = np.asarray(p, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    return a


class SquaredEuclidean:
    """psi(theta) = scale * ||theta||^2, strongly convex with sigma = 2 * scale."""

    def __init__(self, scale=1.0):
        if not (0 < scale < math.inf):
            raise ValueError(f"scale must be positive and finite, got {scale}")
        self.scale = float(scale)
        self.sigma = 2.0 * self.scale

    def divergence(self, a, b):
        """Bregman divergence D(a || b) = psi(a) - psi(b) - <grad psi(b), a - b>,
        row 0 of divergences(a, b[None]).

        For this geometry the closed form scale * ||a - b||^2 is used; it is
        algebraically identical and numerically tighter.
        """
        return float(self.divergences(a, np.asarray(b, dtype=float)[None])[0])

    def divergences(self, a, bs):
        """divergence(a, b) for every row b of a (k, *shape) stack."""
        a = _as_array(a, "a")
        bs = _as_array(bs, "b")
        if bs.shape[1:] != a.shape:
            raise ValueError(f"shape mismatch: {a.shape} vs rows of {bs.shape}")
        d = (bs - a).reshape(len(bs), -1)
        return self.scale * np.einsum("ij,ij->i", d, d)

    def __repr__(self):
        return f"SquaredEuclidean(scale={self.scale})"


class FeasibleSet:
    """Closed convex feasible set with Euclidean projection and membership."""

    shape = None

    def project(self, p):
        """Euclidean projection of a point, or of every row of a (k, *shape)
        stack of points."""
        raise NotImplementedError

    def contains(self, p, tol=1e-9):
        raise NotImplementedError

    def sample(self, rng, n):
        """Draw n points from the set (used by audits and constant estimation)."""
        raise NotImplementedError

    def _check_shape(self, p):
        a = _as_array(p)
        if self.shape is not None and a.shape != self.shape:
            raise ValueError(f"point shape {a.shape} does not match set shape {self.shape}")
        return a

    def _check_stack(self, p):
        """p as an array: one point or a (k, *shape) stack of points."""
        a = _as_array(p)
        if a.shape != self.shape and a.shape[1:] != self.shape:
            raise ValueError(f"shape {a.shape} is neither a point nor a stack "
                             f"of points of set shape {self.shape}")
        return a


class Unconstrained(FeasibleSet):
    """All of R^shape; projection is the identity.

    sample() draws standard normal points (documented convention: the set is
    unbounded, so audits use a unit-scale Gaussian cloud).
    """

    def __init__(self, shape):
        self.shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)

    def project(self, p):
        return self._check_stack(p)

    def contains(self, p, tol=1e-9):
        self._check_shape(p)
        return True

    def sample(self, rng, n):
        return rng.standard_normal((n,) + self.shape)

    def __repr__(self):
        return f"Unconstrained(shape={self.shape})"


class Box(FeasibleSet):
    """Axis-aligned box {lo <= theta <= hi}; projection clamps per coordinate."""

    def __init__(self, lo, hi, shape=None):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if shape is None:
            if lo.shape == () and hi.shape == ():
                raise ValueError("scalar bounds require an explicit shape")
            shape = np.broadcast_shapes(lo.shape, hi.shape)
        elif isinstance(shape, int):
            shape = (shape,)
        self.shape = tuple(shape)
        self.lo = np.broadcast_to(lo, self.shape).astype(float)
        self.hi = np.broadcast_to(hi, self.shape).astype(float)
        if not np.all((self.lo <= self.hi) & (self.lo < np.inf) & (self.hi > -np.inf)):
            raise ValueError("box requires lo <= hi, lo < inf and hi > -inf in "
                             "every coordinate")

    def project(self, p):
        return np.clip(self._check_stack(p), self.lo, self.hi)

    def contains(self, p, tol=1e-9):
        a = self._check_shape(p)
        return bool(np.all(a >= self.lo - tol) and np.all(a <= self.hi + tol))

    def sample(self, rng, n):
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ValueError(f"cannot sample an unbounded box: {self!r}")
        with np.errstate(over="ignore"):
            width = self.hi - self.lo
        if not np.isfinite(width).all():
            raise ValueError(f"cannot sample a box whose width overflows: {self!r}")
        u = rng.uniform(size=(n,) + self.shape)
        return self.lo + u * width

    def __repr__(self):
        lo = float(self.lo.flat[0]) if np.all(self.lo == self.lo.flat[0]) else "array"
        hi = float(self.hi.flat[0]) if np.all(self.hi == self.hi.flat[0]) else "array"
        return f"Box(lo={lo}, hi={hi}, shape={self.shape})"


class Ball(FeasibleSet):
    """Norm ball {||theta - center||_norm <= radius} for norm in {1, 2}.

    project() always returns the Euclidean projection onto the set: a radial
    rescale for the 2-ball, the sorted-threshold algorithm for the 1-ball.
    """

    def __init__(self, center, radius, norm=2):
        self.center = _as_array(center, "center")
        if not (radius > 0):
            raise ValueError(f"radius must be positive, got {radius}")
        if norm not in (1, 2):
            raise ValueError(f"norm must be 1 or 2, got {norm}")
        self.radius = float(radius)
        self.norm = int(norm)
        self.shape = self.center.shape

    def contains(self, p, tol=1e-9):
        with np.errstate(over="ignore"):  # an offset that overflows lies outside
            d = (self._check_shape(p) - self.center).ravel()
            dist = float(np.linalg.norm(d, ord=self.norm))
        if dist == math.inf and np.isfinite(d).all():  # measured as in project
            top = float(np.abs(d).max())
            dist = top * float(np.linalg.norm(d / top, ord=self.norm))
        return dist <= self.radius + tol

    def project(self, p):
        a = self._check_stack(p)
        if a.shape != self.shape:
            return np.stack([self.project(row) for row in a])
        with np.errstate(over="ignore"):  # overflows are undone below
            v = a - self.center
            nv = float(np.linalg.norm(v.ravel(), ord=self.norm))
        if nv == math.inf and not np.isfinite(v).all():  # halve the offset
            half = Ball(self.center / 2.0, self.radius / 2.0, self.norm)
            return 2.0 * half.project(a / 2.0)
        if self.norm == 1:
            return self.center + _project_l1_ball(v, self.radius)
        top = 1.0
        if nv == math.inf:  # finite entries whose squares overflow
            top = float(np.abs(v).max())
            v = v / top  # the same direction, with a norm in [1, sqrt(size)]
            nv = float(np.linalg.norm(v.ravel()))
        if top * nv <= self.radius:
            return a.copy()
        return self.center + v * (self.radius / nv)

    def sample(self, rng, n):
        flat = int(np.prod(self.shape))
        g = rng.standard_normal((n, flat))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = self.radius * rng.uniform(size=(n, 1)) ** (1.0 / flat)
        pts = g * r
        if self.norm == 1:
            # rejection-free: sample in the circumscribed 2-ball, project in
            pts = np.stack([_project_l1_ball(row, self.radius) for row in pts])
        return pts.reshape((n,) + self.shape) + self.center

    def __repr__(self):
        return f"Ball(radius={self.radius}, norm={self.norm}, shape={self.shape})"


def _project_l1_ball(v, radius):
    """Euclidean projection of v onto {||w||_1 <= radius} (sorted threshold)."""
    shape = v.shape
    u = np.abs(v.ravel())
    with np.errstate(over="ignore"):  # an overflowing sum fails the test below
        if u.sum() <= radius:
            return v.copy()
        s = np.sort(u)[::-1]
        css = np.cumsum(s)
        j = np.arange(1, s.size + 1)
        rho = np.nonzero(s - (css - radius) / j > 0)[0]
        if rho.size:
            w = np.maximum(u - (css[rho[-1]] - radius) / (rho[-1] + 1.0), 0.0)
        # ||w||_1 = radius, unless rounding ate half its bits: measure from s[0]
        if not (rho.size and abs(w.sum() - radius) <= 2.0 ** -26 * radius):
            d = s - s[0]
            d = d[d > -radius]  # the support lies among these
            css = np.cumsum(d)
            rho = np.nonzero(d - (css - radius) / j[:d.size] > 0)[0][-1]
            w = np.maximum((u - s[0]) - (css[rho] - radius) / (rho + 1.0), 0.0)
    return (np.sign(v.ravel()) * w).reshape(shape)


class StepSchedule:
    """Step-size schedule eta(t) for time indices t >= 1 (stateless in t)."""

    def eta(self, t):
        raise NotImplementedError

    def _check_t(self, t):
        return _as_integer(t, "time index", 1)

    def etas(self, T):
        """Vector of eta(1), ..., eta(T)."""
        T = self._check_t(T)
        return np.array([self.eta(t) for t in range(1, T + 1)])


class DoublingStep(StepSchedule):
    """Horizon-doubling schedule.

    Time is split into segments of lengths horizon0 * growth^k for
    k = 0, 1, 2, ...; within the segment containing t the step size is
    scale / sqrt(segment length).  growth > 1 makes eta(t) non-increasing
    overall; a fresh segment resets the step size while learner state
    carries over.  growth = 1 is the constant step scale / sqrt(horizon0),
    so DoublingStep(1, 1, eta) is ConstantStep(eta).
    """

    def __init__(self, horizon0, growth=2.0, scale=1.0):
        if not (1 <= horizon0 < math.inf):
            raise ValueError(f"horizon0 must be finite and >= 1, got {horizon0}")
        if not (1 <= growth < math.inf):
            raise ValueError(f"growth must be finite and >= 1, got {growth}")
        if not (0 < scale < math.inf):
            raise ValueError(f"scale must be positive and finite, got {scale}")
        self.horizon0 = float(horizon0)
        self.growth = float(growth)
        self.scale = float(scale)

    def _segments(self, T):
        """(last round, length) of each segment, up to the one holding round T."""
        seg_len = end = self.horizon0
        for k in itertools.count(1):
            yield math.floor(end), seg_len
            if end >= T:
                return
            seg_len *= self.growth
            end += seg_len
            if end == math.inf:
                raise ValueError(f"growth={self.growth!r} overflows segment {k}: "
                                 "its last round is not a finite number")

    def eta(self, t):
        t = self._check_t(t)
        if self.growth == 1.0:  # every segment is horizon0 long
            return self.scale / math.sqrt(self.horizon0)
        for _, seg_len in self._segments(t):
            pass  # the last segment walked holds t
        return self.scale / math.sqrt(seg_len)

    def etas(self, T):
        T = self._check_t(T)
        if self.growth == 1.0:
            return np.full(T, self.scale / math.sqrt(self.horizon0))
        out = np.empty(T)
        lo = 0
        for end, seg_len in self._segments(T):
            out[lo:end] = self.scale / math.sqrt(seg_len)
            lo = end
        return out

    def __repr__(self):
        return (f"DoublingStep(horizon0={self.horizon0}, growth={self.growth}, "
                f"scale={self.scale})")


class ConstantStep(DoublingStep):
    """eta(t) = eta for every t: DoublingStep(1, 1, eta)."""

    def __init__(self, eta):
        if not (0 < eta < math.inf):
            raise ValueError(f"eta must be positive and finite, got {eta}")
        DoublingStep.__init__(self, 1, 1.0, eta)

    def __repr__(self):
        return f"ConstantStep(eta={self.scale})"


@dataclass(frozen=True)
class BoundConstants:
    """Sampled problem constants used by certificate checks and bounds.

    g_ell  -- max composite subgradient norm over the sample
    big_m  -- max of 0.5 * ||grad psi|| = scale * ||theta|| over the sample
    d_max  -- max Bregman divergence over the sampled pairs
    sigma  -- strong-convexity modulus of the geometry (recorded, not inferred)

    Sampled maxima are lower bounds on the true suprema; they can only grow
    as more points are added.
    """

    g_ell: float
    big_m: float
    d_max: float
    sigma: float

    @classmethod
    def from_samples(cls, geom, subgrad_norms, point_norms, divergences):
        """The constants of geom from sampled subgradient norms, point norms
        and divergences (any nonempty array-likes)."""
        for name, sample in (("subgrad_norms", subgrad_norms),
                             ("point_norms", point_norms),
                             ("divergences", divergences)):
            if np.size(sample) == 0:
                raise ValueError(f"{name} is an empty sample")
        return cls(g_ell=float(np.max(subgrad_norms)),
                   big_m=geom.scale * float(np.max(point_norms)),
                   d_max=float(np.max(divergences)), sigma=geom.sigma)

