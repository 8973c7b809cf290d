"""Regret evaluation: comparator sequences, the switching-comparator DP,
the Theorem 2 bound curve, and the tracking decomposition.

A comparator sequence holds T + 1 points theta_1 .. theta_{T+1}; the
regret sums use the first T points while the comparator's deviations
from a model's flow (dynamics.model_deviations) need the final one.  All
norms are Euclidean over flattened points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import model_deviations
from .geometry import _as_integer


class ComparatorSequence:
    """Finite comparator path; points is (L, *shape), label is free text."""

    def __init__(self, points, label="comparator"):
        pts = np.asarray(points, dtype=float)
        if pts.ndim < 2 or pts.shape[0] < 2:
            raise ValueError("a comparator needs at least two stacked points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("comparator points must be finite")
        self.points = pts
        self.label = str(label)

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        return f"ComparatorSequence(label={self.label!r}, len={len(self)})"


def path_points(comparator):
    """The (L, *shape) points of a ComparatorSequence or of a stacked path."""
    if isinstance(comparator, ComparatorSequence):
        return comparator.points
    return np.asarray(comparator, dtype=float)


def cumulative_regret(losses, predictions, comparator):
    """Vector of prefix regrets R_1 .. R_T."""
    T = len(losses)
    if len(predictions) != T:
        raise ValueError(f"{len(predictions)} predictions for {T} losses")
    pts = path_points(comparator)
    if pts.shape[0] not in (T, T + 1):
        raise ValueError(f"comparator has {pts.shape[0]} points, expected {T} or {T + 1}")
    diffs = np.array([losses[t].value(predictions[t]) - losses[t].value(pts[t])
                      for t in range(T)])
    return np.cumsum(diffs)


def _best_switching(cost, m):
    """Exact DP for fixed share's switching comparator: split steps 1..T
    into m + 1 contiguous nonempty segments, pay each segment's best column
    sum of the (T, N) cost, minimize the total, for an integer 0 <= m < T.

    Returns (value, [(start, end)] 1-based inclusive, column per segment,
    switch times: the first step of segments 2..m+1).  Consecutive segments
    may share a column, so the value is also the best assignment of one
    column per step with at most m changes.  A non-finite cost, or a best
    sequence whose sum overflows, raises ValueError.

    m + 1 array passes over the horizon, O(m * T * N) work.  x^j[t, i] is
    the least cost of steps 1..t in exactly j + 1 segments, the last on
    column i.  With C the prefix sums of the cost, layer 0 is C, and layer
    j >= 1 is kept as Y^j = x^j - C: at step t segment j + 1 either goes on
    or restarts after the best j-segment prefix b_t = x^{j-1}[t - 1, k_t],
    so Y^j[t] is the running minimum over s <= t of the restart values
    z_s = b_s - C[s - 1].  A restart on the prefix's own column k_s carries
    Y^{j-1}[s - 1, k_s] exactly (the same number in exact arithmetic), so
    that such ties fall as in the per-step recursion.

    On ties the reported segmentation takes the lowest-index final column;
    going back from step T it extends a segment rather than start a new
    one (a restart must be strictly lower), so each segment starts as early
    as the later ones allow (redundant segments become one-step segments at
    the start); the column before a new segment is the lowest-index one
    among ties.  The value is the in-order sum of the chosen cells, the sum
    the per-step recursion (one step of all m + 1 layers at a time) forms.
    That recursion rounds its layers in another order, so two
    segmentations whose totals differ only in rounding may be reported the
    other way round; the values then agree to within the rounding of the
    prefix sums of |cost|.  Costs whose sums could near the float limit are
    scaled by a power of two for the passes.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[1] == 0:
        raise ValueError(f"cost must be a (T, N) matrix with N >= 1, "
                         f"got shape {cost.shape}")
    T, N = cost.shape
    m = _as_integer(m, "m", 0)
    if m >= T:
        raise ValueError(f"m must be < T, got m={m}, T={T}")
    top = float(np.abs(cost).max())
    if not math.isfinite(top):
        raise ValueError("cost must be finite")
    # T max|cost| < 2^e bounds |C| and |b|, so the passes stay below
    # 2^(e + 2): scale so that e <= 1021
    shift = min(0, 1021 - math.frexp(top)[1] - T.bit_length())
    c = np.cumsum(np.ldexp(cost, shift), axis=0)
    starts = np.zeros((T, m + 1, N), dtype=bool)  # segment j on column i starts at t
    before = np.zeros((T, m + 1), dtype=np.intp)  # column of segment j - 1 then
    steps = np.arange(T - 1)
    x, y = c, np.zeros((T, N))
    z = np.empty((T, N))
    z[0] = np.inf  # no segment j >= 1 at step 1
    for j in range(1, m + 1):
        k = x[:-1].argmin(axis=1)
        np.subtract(x[steps, k][:, None], c[:-1], out=z[1:])
        z[steps + 1, k] = y[steps, k]
        y = np.minimum.accumulate(z, axis=0)
        np.less(z[1:], y[:-1], out=starts[1:, j])
        before[1:, j] = k
        x = y + c
    col = int(x[-1].argmin())
    bounds = []
    cols = []
    end = T
    for j in range(m, 0, -1):
        start = int(np.flatnonzero(starts[:end, j, col])[-1])
        bounds.append((start + 1, end))
        cols.append(col)
        col = int(before[start, j])
        end = start
    bounds.append((1, end))
    cols.append(col)
    bounds.reverse()
    cols.reverse()
    path = np.repeat(cols, [end - start + 1 for start, end in bounds])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        value = float(np.cumsum(cost[np.arange(T), path])[-1])
    if not math.isfinite(value):
        raise ValueError(f"the best {m}-switch cost sum overflows: {value!r}")
    return value, bounds, tuple(cols), tuple(start for start, _ in bounds[1:])


@dataclass(frozen=True)
class SegmentationResult:
    """Best m-switch assignment of models to contiguous time segments."""

    m: int
    total_deviation: float
    switch_times: tuple  # t_2 .. t_{m+1}: first step of segments 2..m+1
    model_indices: tuple  # one model per segment
    segments: tuple  # (start, end, model index, deviation) per segment


def best_segmentation(comparator, models, m):
    """Minimal summed deviation of a comparator from m+1 model regimes.

    Picks switch times 1 = t_1 < t_2 < ... < t_{m+2} = T + 1 and one model
    per segment minimizing sum_k sum_{t in segment k} ||theta_{t+1} -
    Phi_{i_k}(theta_t)||.  Exact by the switching DP, m + 1 array passes
    over the horizon (O(m * T * N) work), after one model_deviations pass.
    On ties it reports the lowest-index final model, and each segment
    starts as early as the later ones allow.  Deviations whose best sum
    overflows raise ValueError.
    """
    cost = model_deviations(path_points(comparator), models)
    value, bounds, cols, switch_times = _best_switching(cost, m)
    segments = tuple(
        (start, end, col, float(cost[start - 1:end, col].sum()))
        for (start, end), col in zip(bounds, cols))
    return SegmentationResult(
        m=int(m),
        total_deviation=value,
        switch_times=switch_times,
        model_indices=cols,
        segments=segments)


def theorem2_curve(constants, schedule, deviations):
    """Theorem 2's bound for one DMD instance at every prefix t = 1..T:

        d_max / eta_{t+1} + (4 M / eta_t) * V_Phi(t)
        + (g_ell^2 / (2 sigma)) * sum_{s<=t} eta_s

    deviations holds the per-step comparator deviations ||theta_{s+1} -
    Phi(theta_s)||, and V_Phi(t) is their sum over s <= t.  A bound that is
    not finite (a step size near 0, huge constants) raises ValueError
    naming the first such round.  The telescoping over 1/eta_t needs a
    non-increasing schedule: a step size that rises raises ValueError
    naming the first round where it does and both step sizes.
    """
    dev = np.asarray(deviations, dtype=float)
    if dev.ndim != 1 or dev.size == 0 or np.any(dev < 0):
        raise ValueError("deviations must be a nonempty vector of norms >= 0")
    T = dev.shape[0]
    etas = schedule.etas(T + 1)
    rises = etas[1:] > etas[:-1]
    if rises.any():
        t = int(np.argmax(rises)) + 2
        raise ValueError(f"the step size rises at round t={t}: eta_{t - 1}="
                         f"{float(etas[t - 2])!r} < eta_{t}={float(etas[t - 1])!r}; "
                         "Theorem 2 needs a non-increasing schedule")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        curve = (constants.d_max / etas[1:]
                 + 4.0 * constants.big_m / etas[:T] * np.cumsum(dev)
                 + constants.g_ell ** 2 / (2.0 * constants.sigma) * np.cumsum(etas[:T]))
    bad = ~np.isfinite(curve)
    if bad.any():
        t = int(np.argmax(bad)) + 1
        raise ValueError(f"Theorem 2 bound is not finite at round t={t}: "
                         f"eta_t={float(etas[t - 1])!r}, eta_t+1={float(etas[t])!r}, "
                         f"{constants}")
    return curve


@dataclass(frozen=True)
class TrackingDecomposition:
    """Regret split at the best <= m-switch expert sequence.

    t1: aggregated predictions vs that expert sequence (the price of
    aggregation); t2: that sequence vs the comparator (the price of the
    expert pool).  t1 + t2 equals the total regret.
    """

    t1: float
    t2: float
    total: float
    best_sequence_loss: float
    switch_times: tuple
    expert_indices: tuple


def tracking_decomposition_from_losses(dfs_losses, expert_losses, comparator_losses, m):
    """Decomposition from recorded per-round loss traces.

    dfs_losses: (T,) losses of the aggregated predictions; expert_losses:
    (T, N) per-expert losses, N >= 1; comparator_losses: (T,) losses of the
    comparator path.  A trace of another shape raises ValueError naming it
    and its shape.  The best expert sequence comes from the same switching
    DP as best_segmentation (m + 1 array passes over the horizon), with the
    same tie rule.  A non-finite loss, or a sum that overflows, raises
    ValueError.
    """
    dfs_losses = np.asarray(dfs_losses, dtype=float)
    expert_losses = np.asarray(expert_losses, dtype=float)
    comparator_losses = np.asarray(comparator_losses, dtype=float)
    if expert_losses.ndim != 2 or expert_losses.shape[1] == 0:
        raise ValueError("expert_losses must be a (T, N) matrix with N >= 1, "
                         f"got shape {expert_losses.shape}")
    T = expert_losses.shape[0]
    for name, trace in (("dfs_losses", dfs_losses),
                        ("comparator_losses", comparator_losses)):
        if trace.shape != (T,):
            raise ValueError(f"{name} must be a vector of the T={T} rounds of "
                             f"expert_losses, got shape {trace.shape}")
    for name, trace in (("dfs", dfs_losses), ("expert", expert_losses),
                        ("comparator", comparator_losses)):
        if not np.all(np.isfinite(trace)):
            raise ValueError(f"the {name} losses are not all finite")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        dfs_total = dfs_losses.sum()
        comparator_total = comparator_losses.sum()
    if not np.isfinite([dfs_total, comparator_total]).all():
        raise ValueError(f"the loss sums overflow: dfs {dfs_total!r}, "
                         f"comparator {comparator_total!r}")
    best, _, cols, switch_times = _best_switching(expert_losses, m)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        t1 = float(dfs_total - best)
        t2 = float(best - comparator_total)
    if not np.isfinite([t1, t2, t1 + t2]).all():
        raise ValueError(f"the loss sums overflow: best sequence {best!r}, "
                         f"t1={t1!r}, t2={t2!r}")
    return TrackingDecomposition(
        t1=t1, t2=t2, total=t1 + t2, best_sequence_loss=best,
        switch_times=switch_times, expert_indices=cols)


def fixed_share_bound(n_experts, m, T, eta_r, lam):
    """Aggregation-term bound for fixed share with at most m comparator switches:

        (m+1) log(N) / eta_r
        + log(1 / (lam^m (1-lam)^(T-m-1))) / eta_r
        + eta_r * T / 8
    """
    n_experts = _as_integer(n_experts, "n_experts", 1)
    m = _as_integer(m, "m", 0)
    T = _as_integer(T, "T", 1)
    if m >= T:
        raise ValueError(f"m must be < T, got m={m}, T={T}")
    if not (eta_r > 0):
        raise ValueError(f"eta_r must be positive, got {eta_r}")
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    log_share = 0.0
    if m > 0:
        log_share -= m * (math.log(lam) if lam > 0 else -math.inf)
    if T - m - 1 > 0:
        log_share -= (T - m - 1) * (math.log(1.0 - lam) if lam < 1 else -math.inf)
    return ((m + 1) * math.log(n_experts) / eta_r
            + log_share / eta_r
            + eta_r * T / 8.0)


def moving_average(values, window=30):
    """Trailing mean with partial windows at the start of the trace."""
    v = np.asarray(values, dtype=float)
    window = _as_integer(window, "window", 1)
    c = np.concatenate([[0.0], np.cumsum(v)])
    t = np.arange(1, v.shape[0] + 1)
    lo = np.maximum(t - window, 0)
    return (c[t] - c[lo]) / (t - lo)
