"""Bregman geometry, feasible sets, step schedules, and bound constants.

The geometry in v1 is the scaled squared Euclidean norm psi(theta) =
c * ||theta||^2 with c > 0, which is 2c-strongly convex in the Euclidean
norm and induces the divergence D(a || b) = c * ||a - b||^2.  Parameter
points are plain numpy arrays of any shape; all norms are taken over the
flattened values.
"""

import math
from dataclasses import dataclass

import numpy as np


def _as_array(p, name="point"):
    a = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite values")
    return a


class SquaredEuclidean:
    """psi(theta) = scale * ||theta||^2, strongly convex with sigma = 2 * scale."""

    def __init__(self, scale=1.0):
        if not (scale > 0):
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = float(scale)
        self.sigma = 2.0 * self.scale

    def divergence(self, a, b):
        """Bregman divergence D(a || b) = psi(a) - psi(b) - <grad psi(b), a - b>.

        For this geometry the closed form scale * ||a - b||^2 is used; it is
        algebraically identical and numerically tighter.
        """
        a = _as_array(a, "a")
        b = _as_array(b, "b")
        if a.shape != b.shape:
            raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
        d = a - b
        return self.scale * float(np.vdot(d, d))

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
        raise NotImplementedError

    def project_stack(self, points):
        """project() of every row of a (k, *shape) stack."""
        return np.stack([self.project(p) for p in points])

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

    def _check_stack(self, points):
        a = _as_array(points)
        if a.shape[1:] != self.shape:
            raise ValueError(f"stack shape {a.shape} does not match set shape {self.shape}")
        return a


class Unconstrained(FeasibleSet):
    """All of R^shape; projection is the identity.

    sample() draws standard normal points (documented convention: the set is
    unbounded, so audits use a unit-scale Gaussian cloud).
    """

    def __init__(self, shape):
        self.shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)

    def project(self, p):
        return self._check_shape(p)

    def project_stack(self, points):
        return self._check_stack(points)

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
        if not np.all(self.lo <= self.hi):
            raise ValueError("box requires lo <= hi in every coordinate")

    def project(self, p):
        a = self._check_shape(p)
        return np.clip(a, self.lo, self.hi)

    def project_stack(self, points):
        return np.clip(self._check_stack(points), self.lo, self.hi)

    def contains(self, p, tol=1e-9):
        a = self._check_shape(p)
        return bool(np.all(a >= self.lo - tol) and np.all(a <= self.hi + tol))

    def sample(self, rng, n):
        u = rng.uniform(size=(n,) + self.shape)
        return self.lo + u * (self.hi - self.lo)

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

    def _dist(self, p):
        d = (p - self.center).ravel()
        return float(np.linalg.norm(d, ord=self.norm))

    def contains(self, p, tol=1e-9):
        a = self._check_shape(p)
        return self._dist(a) <= self.radius + tol

    def project(self, p):
        a = self._check_shape(p)
        v = a - self.center
        if self.norm == 2:
            nv = float(np.linalg.norm(v.ravel()))
            if nv <= self.radius:
                return a.copy()
            return self.center + v * (self.radius / nv)
        return self.center + _project_l1_ball(v, self.radius)

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
    if u.sum() <= radius:
        return v.copy()
    s = np.sort(u)[::-1]
    css = np.cumsum(s)
    j = np.arange(1, s.size + 1)
    rho = np.nonzero(s - (css - radius) / j > 0)[0][-1]
    tau = (css[rho] - radius) / (rho + 1.0)
    w = np.sign(v.ravel()) * np.maximum(u - tau, 0.0)
    return w.reshape(shape)


class StepSchedule:
    """Step-size schedule eta(t) for time indices t >= 1 (stateless in t)."""

    def eta(self, t):
        raise NotImplementedError

    def _check_t(self, t):
        if int(t) != t or t < 1:
            raise ValueError(f"time index must be an integer >= 1, got {t}")
        return int(t)

    def etas(self, T):
        """Vector of eta(1), ..., eta(T)."""
        T = self._check_t(T)
        return np.array([self.eta(t) for t in range(1, T + 1)])


class ConstantStep(StepSchedule):
    def __init__(self, eta):
        if not (eta > 0):
            raise ValueError(f"eta must be positive, got {eta}")
        self._eta = float(eta)

    def eta(self, t):
        self._check_t(t)
        return self._eta

    def etas(self, T):
        T = self._check_t(T)
        return np.full(T, self._eta)

    def __repr__(self):
        return f"ConstantStep(eta={self._eta})"


class DoublingStep(StepSchedule):
    """Horizon-doubling schedule.

    Time is split into segments of lengths horizon0 * growth^k for
    k = 0, 1, 2, ...; within the segment containing t the step size is
    scale / sqrt(segment length).  growth > 1 makes eta(t) non-increasing
    overall; a fresh segment resets the step size while learner state
    carries over.
    """

    def __init__(self, horizon0, growth=2.0, scale=1.0):
        if not (horizon0 >= 1):
            raise ValueError(f"horizon0 must be >= 1, got {horizon0}")
        if not (growth >= 1):
            raise ValueError(f"growth must be >= 1, got {growth}")
        if not (scale > 0):
            raise ValueError(f"scale must be positive, got {scale}")
        self.horizon0 = float(horizon0)
        self.growth = float(growth)
        self.scale = float(scale)

    def _segments(self, T):
        """(last round, length) of each segment, up to the one holding round T."""
        seg_len = end = self.horizon0
        while True:
            yield math.floor(end), seg_len
            if end >= T:
                return
            seg_len *= self.growth
            end += seg_len

    def eta(self, t):
        t = self._check_t(t)
        if self.growth == 1.0:  # every segment is horizon0 long
            return self.scale / math.sqrt(self.horizon0)
        for _, seg_len in self._segments(t):
            pass  # the last segment walked holds t
        return self.scale / math.sqrt(seg_len)

    def etas(self, T):
        T = self._check_t(T)
        out = np.empty(T)
        lo = 0
        for end, seg_len in self._segments(T):
            out[lo:end] = self.scale / math.sqrt(seg_len)
            lo = end
        return out

    def __repr__(self):
        return (f"DoublingStep(horizon0={self.horizon0}, growth={self.growth}, "
                f"scale={self.scale})")


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

