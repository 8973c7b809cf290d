"""Dynamical models Phi and the non-expansion audit.

A model maps a point to a point; both shipped families are
time-invariant.  Models never mutate their input and map feasible points
to feasible points for the sets they are used with (shifts preserve boxes
containing 0, the attraction map preserves [-1, 1] entrywise).
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .geometry import _as_integer

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

# bytes of arrays that ModelStack.images aims to allocate per call
_SCRATCH_BYTES = 1 << 20


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class DynamicalModel:
    label = "model"

    def apply(self, theta):
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

    def apply(self, theta):
        return np.array(theta, dtype=float, copy=True)

    def source_index(self, size):
        return np.arange(size)


class PixelShift(DynamicalModel):
    """Translate an image one pixel along one of 8 compass directions.

    direction indexes DIRECTIONS (0 = E, counterclockwise by 45 degrees up
    to 7 = SE); diagonal members move one pixel along each axis.  boundary
    is "zero" (content shifted past the edge is dropped, vacated pixels are
    zero) or "wrap" (toroidal roll).  Input may be a (rows, cols) image or
    its flattened vector; the output matches the input shape.  direction,
    rows and cols are integers (2.0 is 2; 4.5 raises ValueError).
    """

    def __init__(self, direction, rows, cols, boundary="zero"):
        self.direction = _as_integer(direction, "direction", 0, 7)
        self.rows = _as_integer(rows, "rows", 1)
        self.cols = _as_integer(cols, "cols", 1)
        if boundary not in ("zero", "wrap"):
            raise ValueError(f"boundary must be 'zero' or 'wrap', got {boundary!r}")
        self.boundary = boundary
        self.label, self.dr, self.dc = DIRECTIONS[self.direction]
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

    def apply(self, theta):
        theta = np.asarray(theta, dtype=float)
        index = self.source_index(theta.size)
        return np.append(theta.ravel(), 0.0)[index].reshape(theta.shape)


class NetworkAttraction(DynamicalModel):
    """Pull each entry toward the strongest shared-neighbor product.

    For every entry (a, b) let c* = argmax_{c not in {a, b}} |theta_ac *
    theta_bc| (ties to the lowest index).  If |theta_ac* * theta_bc*| >
    |theta_ab| the entry moves to (1 - alpha) theta_ab + alpha theta_ac* *
    theta_bc*; otherwise it is unchanged.  alpha = 0 is exactly the
    identity.  Cost is O(p^3) memory and time per application.  The search
    for c* does not depend on alpha: _attraction_targets runs it as a max
    and a min of signed products, and ModelStack runs it once for all the
    attraction models it holds.  A NaN candidate score wins the search (the
    lowest-index one), and since NaN > |theta_ab| is false the entry is
    then unchanged.
    """

    def __init__(self, alpha):
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.label = f"alpha={self.alpha:g}"

    def source_index(self, size):
        # alpha = 0 is the identity, which only moves entries
        if self.alpha != 0.0:
            return None
        if math.isqrt(size) ** 2 != size:
            raise ValueError(f"point has {size} entries, not a square matrix")
        return np.arange(size)

    def apply(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
            raise ValueError(f"theta must be square, got shape {theta.shape}")
        if self.alpha == 0.0 or theta.size == 0:
            return theta.copy()
        top, best = _attraction_targets(theta[None])
        return _attraction_blend(theta, top[0], best[0], self.alpha)


def _attraction_targets(thetas):
    """The alpha-free part of NetworkAttraction on a (B, p, p) stack.

    Returns (top, best), both (B, p, p): for entry (a, b) of point k, with
    c* the lowest-index maximizer of |theta_ac| |theta_bc| over c not in
    {a, b}, top is that score and best the signed product theta_ac*
    theta_bc*.

    One einsum forms S[c, (k, a, b)] = theta_kac theta_kbc from a copy of
    theta with a zero diagonal (excluded candidates score +-0, or NaN
    against inf or NaN): B p^3 floats, laid out so that hi = max S and
    lo = min S reduce along rows of B p^2 entries.  As |x y| = |x| |y|
    exactly, hi > -lo gives top = best = hi and -lo > hi gives top = -lo,
    best = lo; hi + lo has the sign of hi - |lo| exactly.  It is 0 or NaN
    where both signs reach the top, every score is 0 (c* may then be an
    excluded index) or a score is NaN: _attraction_ties searches those.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 3 or thetas.shape[1] != thetas.shape[2]:
        raise ValueError(f"need a (B, p, p) stack, got shape {thetas.shape}")
    t = thetas.transpose(2, 0, 1).copy()  # [c, k, a] = theta_kac
    np.einsum("ckc->ck", t)[...] = 0.0  # exclude c == a and c == b
    score = np.einsum("cka,ckb->ckab", t, t, order="C")
    hi, lo = score.max(axis=0), score.min(axis=0)
    gap = hi + lo
    best = np.where(gap > 0, hi, lo)
    top = np.abs(best)
    np.abs(gap, out=gap)
    if not gap.min(initial=np.inf) > 0:
        _attraction_ties(thetas, ~(gap > 0), top, best)
    return top, best


def _attraction_ties(thetas, tie, top, best):
    """Set top and best where tie holds by the search over |theta_ac|
    |theta_bc|, excluded candidates at 0, lowest index first; a NaN score
    wins (numpy's argmax rule).  The products at c* come from one multiply
    over the whole stack, as a full search forms them: which of two NaNs
    numpy's loop returns depends on an entry's place in it."""
    n, p, _ = thetas.shape
    k, a, b = np.nonzero(tie)
    score = np.abs(thetas[k, a]) * np.abs(thetas[k, b])
    i = np.arange(len(k))
    score[i, a] = 0.0
    score[i, b] = 0.0
    cstar = np.zeros(tie.shape, dtype=int)
    cstar[tie] = c = score.argmax(axis=1)
    top[tie] = score[i, c]
    k, rows = np.arange(n)[:, None, None], np.arange(p)
    best[tie] = (thetas[k, rows[:, None], cstar] * thetas[k, rows, cstar])[tie]


def _attraction_blend(theta, top, best, alpha):
    """NetworkAttraction's update from _attraction_targets; alpha may be an
    array that broadcasts against theta (one alpha per point).

    When every candidate scores 0, c* may be an excluded index whose
    product is not 0, so the pull test reads top, never |best|.
    """
    return np.where(top > np.abs(theta), (1.0 - alpha) * theta + alpha * best,
                    theta)


class ModelStack:
    """Moves points of one shape by a fixed list of models, in one pass.

    apply(thetas) moves row i by models[i]; images(points) moves every
    point by every model.  apply is the pass's own-row case: model i reads
    row i of a (N, 1, *shape) source, where in images every model reads
    the one (1, B, *shape) source.  Both equal the models' own apply bit
    for bit.  Models that only move entries (shifts, identity, attraction
    with alpha = 0) are one gather over the zero-padded source, through a
    read-only flat index; apply pads only the rows of those models.  The
    stack keeps the last index of each kind, so a pool builds apply's once
    and a run of equal chunks builds images' once.  Attraction models
    share one _attraction_targets call on the points they read, whose
    signed max and min over c and per-entry tie search give each point the
    same c* as its lone apply, and one broadcast blend with one alpha per
    model.  Any other model calls its apply point by point.  Each
    group's rows are addressed by a slice when they are contiguous (a
    pool of alpha = 0 and attraction experts is one gathered row, then
    the attraction rows), so apply reads them as views and writes them
    without a scatter.
    """

    def __init__(self, models, shape):
        self.models = tuple(models)
        self.shape = tuple(shape)
        self.size = int(np.prod(self.shape, dtype=int))
        self._sources = [m.source_index(self.size) for m in self.models]
        self._attraction = [i for i, (m, ix) in enumerate(zip(self.models, self._sources))
                            if ix is None and isinstance(m, NetworkAttraction)]
        self._alphas = np.array([self.models[i].alpha for i in self._attraction])
        self._others = [i for i, ix in enumerate(self._sources)
                        if ix is None and i not in self._attraction]
        # models that one gather moves, and their (G, size) sources
        self._gathered = [i for i, ix in enumerate(self._sources) if ix is not None]
        self._table = (np.stack([self._sources[i] for i in self._gathered])
                       if self._gathered else None)
        self._indexes = {}  # own rows (apply) or not (images) -> gather index
        self._gathered_rows = _rows(self._gathered)
        self._attraction_rows = _rows(self._attraction)

    def _check(self, stack, rows):
        stack = np.asarray(stack, dtype=float)
        if stack.ndim != len(self.shape) + 1 or stack.shape[1:] != self.shape \
                or (rows is not None and len(stack) != rows):
            want = (rows if rows is not None else "B",) + self.shape
            raise ValueError(f"stack has shape {stack.shape}, expected {want}")
        return stack

    def apply(self, thetas):
        thetas = self._check(thetas, len(self.models))
        return self._move(thetas[:, None]).reshape(thetas.shape)

    def images(self, points):
        """(N, B, *shape) stack whose [i, k] is models[i].apply(points[k])."""
        return self._move(self._check(points, None)[None])

    def _move(self, src):
        """(N, B, *shape) stack of model i applied to point k of src[i] if
        src holds a row per model (B = 1), else of src[0]."""
        own = len(src) > 1
        shape = (len(self.models),) + src.shape[1:]
        if self.size == 0:  # every image of a zero-size point is empty
            return np.empty(shape)
        if self._gathered:
            # an index, not np.take: take copies a read-only index each call
            index = self._gather_index(own, src.shape[1])
            read = src[self._gathered_rows] if own else src
            moved = _padded(read.reshape((-1,) + self.shape)).ravel()[index]
            if len(self._gathered) == len(self.models):
                return moved.reshape(shape)
            out = np.empty(shape)
            out[self._gathered_rows] = moved.reshape((-1,) + shape[1:])
        else:
            out = np.empty(shape)
        if self._attraction:
            points = src[self._attraction_rows] if own else src
            top, best = _attraction_targets(points.reshape((-1,) + self.shape))
            out[self._attraction_rows] = _attraction_blend(
                points, top.reshape(points.shape), best.reshape(points.shape),
                self._alphas[:, None, None, None])
        for i in self._others:
            for k, point in enumerate(src[i if own else 0]):
                out[i, k] = self.models[i].apply(point)
        return out

    def _gather_index(self, own, n):
        """Read-only (G, n, size) flat index into the zero-padded source:
        entry [g, k, j] is where entry j of the image of point k under the
        g-th gathered model lies.  Row r of the padded source starts at
        r * (size + 1); it holds the gathered models' own rows (own, n = 1),
        where the g-th model reads row g, or the points, where it reads
        row k.  The last index of each kind is kept."""
        index = self._indexes.get(own)
        if index is None or index.shape[1] != n:
            rows = (np.arange(len(self._gathered))[:, None, None] if own
                    else np.arange(n)[:, None])
            index = self._table[:, None, :] + rows * (self.size + 1)
            index.flags.writeable = False
            self._indexes[own] = index
        return index

    def chunk_length(self):
        """Points per images() call whose arrays take about 1 MB: the N
        images of a point (model_deviations turns them into differences
        in place) and their gather index, or its p^3 attraction scores if
        larger.  The budget is per thread: a stack that one gather moves
        whole runs the second half of a pass's chunks on a helper thread
        when two CPUs are free (_run_chunks), one with attraction or
        per-point models runs them all on the caller's."""
        per_point = (len(self.models) * (self.size + 1)
                     + len(self._gathered) * self.size)
        if self._attraction:
            per_point = max(per_point, self.size * math.isqrt(self.size))
        return max(1, _SCRATCH_BYTES // (8 * per_point))


def _rows(indices):
    """Ascending model indices as a slice if they are contiguous, else as
    an index array."""
    if indices and indices[-1] - indices[0] == len(indices) - 1:
        return slice(indices[0], indices[-1] + 1)
    return np.array(indices, dtype=int)


def _padded(stack):
    flat = stack.reshape(len(stack), -1)
    return np.concatenate([flat, np.zeros((len(flat), 1))], axis=1)


def _run_chunks(stack, n, work):
    """Calls work(stack, lo, hi) for the chunks [lo, hi) of range(n), each
    stack.chunk_length() long.

    The pass splits when one gather moves every model of the stack, it
    spans two chunks or more and the process may run on two CPUs: one
    helper thread then runs the second half of the chunks with a stack of
    its own, built here, under the caller's numpy error state (numpy 1.x
    keeps that state per thread).  The caller runs the first half, joins
    the helper and raises the error it hit.  work writes disjoint slices
    and the chunks are those of the serial pass, so every output keeps its
    bits.  A stack with attraction or per-point models stays serial: those
    hold the GIL longer, and splitting votes-pool's pass made it slower.
    """
    chunk = stack.chunk_length()
    starts = range(0, n, chunk)
    helper, errors = None, []
    if len(starts) >= 2 and len(stack._gathered) == len(stack.models) \
            and _cpu_count() >= 2:
        split = (len(starts) + 1) // 2
        starts, theirs = starts[:split], starts[split:]
        other = ModelStack(stack.models, stack.shape)
        saved = np.geterr()

        def second_half():
            try:
                with np.errstate(**saved):
                    for lo in theirs:
                        work(other, lo, min(lo + chunk, n))
            except BaseException as exc:  # raised again by the caller
                errors.append(exc)

        helper = threading.Thread(target=second_half, name="dynmd-chunks")
        helper.start()
    try:
        for lo in starts:
            work(stack, lo, min(lo + chunk, n))
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]


def model_deviations(points, models):
    """(T, N) matrix of ||points[t+1] - models[i].apply(points[t])||
    for a path of T + 1 points, t = 0 .. T-1, Euclidean over flattened
    points; zero-size points deviate by 0.  The points are moved
    ModelStack.chunk_length() at a time, so scratch memory stays near 1 MB
    per thread whatever T is.  When one gather moves every model (shifts,
    identity, attraction with alpha = 0) and two CPUs are free, a helper
    thread moves the second half of the chunks (_run_chunks); the output
    is the same bit for bit."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2 or pts.shape[0] < 2:
        raise ValueError("a path needs at least two stacked points")
    models = list(models)
    if not models:
        raise ValueError("at least one model is required")
    T = pts.shape[0] - 1
    out = np.empty((T, len(models)))

    def deviations(stack, lo, hi):
        diff = stack.images(pts[lo:hi])
        np.subtract(pts[lo + 1:hi + 1], diff, out=diff)
        diff = diff.reshape(len(models), hi - lo, stack.size)
        out[lo:hi] = np.sqrt(np.einsum("nkj,nkj->kn", diff, diff))

    _run_chunks(ModelStack(models, pts.shape[1:]), T, deviations)
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
    D(Phi a || Phi b) - D(a || b) together with the worst pair (the first
    one on ties).  The estimate is a sampled lower bound on the true
    supremum; violation flags estimate > threshold.  Deterministic for a
    fixed seed; n_pairs >= 1 and seed >= 0 are integers (2.0 is 2).  The
    pairs are moved ModelStack.chunk_length() at a time, so scratch memory
    stays near 1 MB per thread whatever n_pairs is; as in
    model_deviations, a model that only moves entries splits the chunks
    with one helper thread when two CPUs are free (_run_chunks).
    """
    n_pairs = _as_integer(n_pairs, "n_pairs", 1)
    seed = _as_integer(seed, "seed", 0)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    rng = np.random.default_rng(seed)
    a_pts = fset.sample(rng, n_pairs)
    b_pts = fset.sample(rng, n_pairs)
    zero = np.zeros(fset.shape)
    gaps = np.empty(n_pairs)

    def expansion(stack, lo, hi):
        a, b = a_pts[lo:hi], b_pts[lo:hi]
        moved = stack.images(a)[0] - stack.images(b)[0]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            gaps[lo:hi] = (geom.divergences(zero, moved)
                           - geom.divergences(zero, a - b))

    _run_chunks(ModelStack([model], fset.shape), n_pairs, expansion)
    if not np.isfinite(gaps).all():  # NaN > threshold is false: never [ok]
        bad = int(np.argmin(np.isfinite(gaps)))
        raise ValueError(f"{model.label}: the divergence gap of pair {bad} is "
                         f"{gaps[bad]}, not finite; the sampled points are too "
                         f"large for {geom!r}")
    worst = int(np.argmax(gaps))
    return ContractionAudit(
        model_label=model.label,
        estimate=float(gaps[worst]),
        n_pairs=n_pairs,
        seed=seed,
        threshold=float(threshold),
        violation=bool(gaps[worst] > threshold),
        worst_a=a_pts[worst].copy(),
        worst_b=b_pts[worst].copy(),
    )
