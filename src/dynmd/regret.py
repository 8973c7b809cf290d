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


def _segmented_min(cost, n_segments):
    """Exact DP: split steps 1..T into n_segments contiguous nonempty
    segments, pay each segment's best column sum, minimize the total.

    cost is (T, N).  Returns (value, [(start, end)] 1-based inclusive,
    [column index per segment]).  Consecutive segments may share a column,
    so the value is also the best assignment of one column per step with
    at most n_segments - 1 changes (fixed share's switching comparator).

    Forward recursion over t in O(n_segments * T * N): dp[j, i] is the
    least cost of steps 1..t in exactly j + 1 segments, the last on column
    i; a step either extends that segment or starts segment j + 1 on
    column i after the best j-segment prefix.  On ties the reported
    segmentation takes the lowest-index final column; going back from
    step T it extends a segment rather than start a new one, so each
    segment starts as early as the later ones allow (redundant segments
    become one-step segments at the start); the column before a new
    segment is the lowest-index one among ties.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a (T, N) matrix")
    T, N = cost.shape
    if not (1 <= n_segments <= T):
        raise ValueError(f"need 1 <= segments <= {T}, got {n_segments}")
    dp = np.full((n_segments, N), np.inf)
    dp[0] = cost[0]
    starts = np.zeros((T, n_segments, N), dtype=bool)  # segment j on column i starts at t
    before = np.zeros((T, n_segments), dtype=np.intp)  # column of segment j - 1 then
    rows = np.arange(n_segments - 1)
    for t in range(1, T):
        k = dp[:-1].argmin(axis=1)
        best = dp[rows, k][:, None]
        new = best < dp[1:]
        starts[t, 1:] = new
        before[t, 1:] = k
        np.copyto(dp[1:], best, where=new)
        dp += cost[t]
    col = int(dp[-1].argmin())
    value = float(dp[-1, col])
    bounds = []
    cols = []
    end = T
    for j in range(n_segments - 1, 0, -1):
        start = int(np.flatnonzero(starts[:end, j, col])[-1])
        bounds.append((start + 1, end))
        cols.append(col)
        col = int(before[start, j])
        end = start
    bounds.append((1, end))
    cols.append(col)
    bounds.reverse()
    cols.reverse()
    return value, bounds, cols


def _best_switching(cost, m):
    """_segmented_min of a (T, N) cost over m + 1 segments, for an integer
    0 <= m < T.  Returns (value, segment bounds, column per segment,
    switch times: the first step of segments 2..m+1)."""
    T = cost.shape[0]
    if int(m) != m or m < 0:
        raise ValueError(f"m must be an integer >= 0, got {m}")
    if m >= T:
        raise ValueError(f"m must be < T, got m={m}, T={T}")
    value, bounds, cols = _segmented_min(cost, m + 1)
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
    Phi_{i_k}(theta_t)||.  Exact by dynamic programming in O(m * T * N)
    after one model_deviations pass.  On ties it reports the lowest-index
    final model, and each segment starts as early as the later ones allow.
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
    Phi(theta_s)||, and V_Phi(t) is their sum over s <= t.
    """
    dev = np.asarray(deviations, dtype=float)
    if dev.ndim != 1 or dev.size == 0 or np.any(dev < 0):
        raise ValueError("deviations must be a nonempty vector of norms >= 0")
    T = dev.shape[0]
    etas = schedule.etas(T + 1)
    return (constants.d_max / etas[1:]
            + 4.0 * constants.big_m / etas[:T] * np.cumsum(dev)
            + constants.g_ell ** 2 / (2.0 * constants.sigma) * np.cumsum(etas[:T]))


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
    (T, N) per-expert losses; comparator_losses: (T,) losses of the
    comparator path.  The best expert sequence comes from the same
    O(m * T * N) DP as best_segmentation, with the same tie rule.
    """
    dfs_losses = np.asarray(dfs_losses, dtype=float)
    expert_losses = np.asarray(expert_losses, dtype=float)
    comparator_losses = np.asarray(comparator_losses, dtype=float)
    T = dfs_losses.shape[0]
    if expert_losses.shape[0] != T or comparator_losses.shape[0] != T:
        raise ValueError("loss traces must share the horizon")
    best, _, cols, switch_times = _best_switching(expert_losses, m)
    t1 = float(dfs_losses.sum() - best)
    t2 = float(best - comparator_losses.sum())
    return TrackingDecomposition(
        t1=t1, t2=t2, total=t1 + t2, best_sequence_loss=best,
        switch_times=switch_times, expert_indices=cols)


def fixed_share_bound(n_experts, m, T, eta_r, lam):
    """Aggregation-term bound for fixed share with at most m comparator switches:

        (m+1) log(N) / eta_r
        + log(1 / (lam^m (1-lam)^(T-m-1))) / eta_r
        + eta_r * T / 8
    """
    if n_experts < 1 or T < 1 or not (0 <= m < T):
        raise ValueError("need n_experts >= 1, T >= 1, 0 <= m < T")
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
    if int(window) != window or window < 1:
        raise ValueError(f"window must be an integer >= 1, got {window}")
    c = np.concatenate([[0.0], np.cumsum(v)])
    t = np.arange(1, v.shape[0] + 1)
    lo = np.maximum(t - window, 0)
    return (c[t] - c[lo]) / (t - lo)
