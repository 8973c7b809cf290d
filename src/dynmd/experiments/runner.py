"""Shared experiment driver: run a fixed-share pool over a loss stream,
record scalar traces, then evaluate regrets, bounds, and the tracking
decomposition from those traces.

The driver never stores predictions or sensing matrices; everything the
evaluation needs (losses, norms, divergences to the comparator) is reduced
to scalars while the run is in flight, so horizons in the thousands stay
within a laptop's memory.  Each round scores the N expert predictions and
the comparator point, row N, with one loss.values_and_grads call; the
per-point traces keep that layout as (T, K) columns, K = N + 1 (N without a
comparator), and the weight update and the mirror step read that one result.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from ..dmd import require_finite
from ..dynamics import model_deviations
from ..fixedshare import dfs_step, fixed_share_init
from ..geometry import BoundConstants
from ..regret import (
    path_points,
    theorem2_curve,
    tracking_decomposition_from_losses,
)


def _row_norms(stack):
    flat = stack.reshape(len(stack), -1)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


@dataclass(frozen=True)
class ScenarioResult:
    expert_labels: tuple
    weights: np.ndarray  # (T, N), the weights that formed each aggregate
    dfs_losses: np.ndarray  # (T,)
    point_losses: np.ndarray  # (T, K): the N experts, then the comparator
    point_norms: np.ndarray  # (T, K)
    subgrad_norms: np.ndarray  # (T, K)
    comparator_points: np.ndarray  # (T + 1, *shape) or None
    comparator_divergences: np.ndarray  # (T, N) or None
    agent_values: np.ndarray  # (T, p) or None
    final_state: object
    meta: dict

    @property
    def T(self):
        return self.dfs_losses.shape[0]

    @property
    def n_experts(self):
        return len(self.expert_labels)

    @property
    def expert_losses(self):
        """(T, N) view of the experts' columns of point_losses."""
        return self.point_losses[:, :self.n_experts]

    @property
    def comparator_losses(self):
        """(T,) view of the comparator's column of point_losses, or None."""
        if self.comparator_points is None:
            return None
        return self.point_losses[:, self.n_experts]


def run_scenario(losses, T, experts, lam=0.01, eta_r=None, comparator=None):
    """Drive a fixed-share pool for T rounds.

    losses: callable t -> composite loss (1-based); T is an integer >= 1.
    experts: fresh DMD states of one pool, one per dynamical model.  eta_r
    defaults to 1/sqrt(T).  comparator, when given, must hold T + 1 finite
    points of the experts' shape; its scalar traces feed the bound
    evaluation later.  When loss.f scores each agent
    (per_agent_values), the aggregate's per-agent values are recorded, and
    their sum plus loss.r is its loss (f.value must be that sum).
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError(f"T must be an integer >= 1, got {T!r}")
    if eta_r is None:
        eta_r = 1.0 / math.sqrt(T)
    state = fixed_share_init(experts, lam=lam, eta_r=eta_r)
    n = state.weights.size
    pts = None
    if comparator is not None:
        pts = path_points(comparator)
        if pts.shape[0] != T + 1:
            raise ValueError(
                f"comparator must hold {T + 1} points, got {pts.shape[0]}")
        if pts.shape[1:] != state.theta_hat.shape[1:]:
            raise ValueError(f"comparator points have shape {pts.shape[1:]}, "
                             f"the experts' have {state.theta_hat.shape[1:]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("comparator contains non-finite points")
    labels = tuple(m.label for m in state.plan.models.models)
    names = state.plan.names + ("comparator",)
    k = n if pts is None else n + 1
    weights = np.empty((T, n))
    dfs_losses = np.empty(T)
    point_losses = np.empty((T, k))
    point_norms = np.empty((T, k))
    subgrad_norms = np.empty((T, k))
    comp_div = None if pts is None else np.empty((T, n))
    agent_values = None
    for t in range(1, T + 1):
        loss = losses(t)
        preds = state.theta_hat
        points = preds
        if pts is not None:  # row n is the comparator
            points = np.concatenate([preds, pts[t - 1][None]])
            with np.errstate(over="ignore"):  # theorem2_curve rejects an inf d_max
                comp_div[t - 1] = state.plan.geom.divergences(pts[t - 1], preds)
        values, grads = loss.values_and_grads(points)
        require_finite(values, "loss value", t, names)
        point_losses[t - 1] = values
        point_norms[t - 1] = _row_norms(points)
        subgrad_norms[t - 1] = _row_norms(grads + loss.r.subgradient(points))
        state, aggregated, _ = dfs_step(
            state, loss, evaluated=(values[:n], grads[:n]))
        weights[t - 1] = state.weights
        per_agent_values = getattr(loss.f, "per_agent_values", None)
        if per_agent_values is None:
            dfs_losses[t - 1] = loss.value(aggregated)
        else:
            # loss.f.value is the sum of its per-agent values: score once
            per_agent = per_agent_values(aggregated)
            if agent_values is None:
                agent_values = np.empty((T, per_agent.shape[0]))
            agent_values[t - 1] = per_agent
            dfs_losses[t - 1] = float(per_agent.sum()) + loss.r.value(aggregated)
    meta = {"T": T, "n_experts": n, "lam": lam, "eta_r": eta_r,
            "labels": ",".join(labels)}
    return ScenarioResult(
        expert_labels=labels, weights=weights, dfs_losses=dfs_losses,
        point_losses=point_losses, point_norms=point_norms,
        subgrad_norms=subgrad_norms, comparator_points=pts,
        comparator_divergences=comp_div, agent_values=agent_values,
        final_state=state, meta=meta)


@dataclass(frozen=True)
class RunEvaluation:
    dfs_regret: np.ndarray  # (T,) cumulative
    expert_regret: np.ndarray  # (T, N) cumulative
    deviations: np.ndarray  # (T, N) comparator deviation under each model
    v_phi: np.ndarray  # (N,) total deviation per model
    constants: tuple  # one BoundConstants per expert, sampled from the run
    bound_curves: np.ndarray  # (T, N)
    decomposition: object


def evaluate_run(result, m=0):
    """Regret curves, run-sampled bound curves, and the m-switch tracking
    decomposition for a run recorded against a comparator.  The models and
    the pool's one geometry and schedule come from the run's plan.  A
    regret or a subgradient norm that overflows raises ValueError naming
    the round."""
    if result.comparator_losses is None:
        raise ValueError("the run was recorded without a comparator")
    T, n = result.expert_losses.shape
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        diffs = result.expert_losses - result.comparator_losses[:, None]
        expert_regret = np.cumsum(diffs, axis=0)
        dfs_regret = np.cumsum(result.dfs_losses - result.comparator_losses)
    bad = ~np.isfinite(expert_regret).all(axis=1) | ~np.isfinite(dfs_regret)
    if bad.any():
        raise ValueError(f"the regret overflows at round t={int(np.argmax(bad)) + 1}")
    plan = result.final_state.plan
    if not np.isfinite(result.subgrad_norms).all():
        t, i = np.argwhere(~np.isfinite(result.subgrad_norms))[0]
        raise ValueError(
            f"the subgradient norm overflows at round t={t + 1}, "
            f"{(plan.names + ('comparator',))[i]}: the l1 weight tau or the "
            "gradient is too large")
    deviations = model_deviations(result.comparator_points, plan.models.models)
    g = result.subgrad_norms.max(axis=0)  # column n is the comparator's
    r = result.point_norms.max(axis=0)
    constants = []
    curves = np.empty((T, n))
    for i in range(n):
        consts = BoundConstants.from_samples(
            plan.geom, (g[i], g[n]), (r[i], r[n]),
            result.comparator_divergences[:, i])
        constants.append(consts)
        curves[:, i] = theorem2_curve(consts, plan.schedule, deviations[:, i])
    decomposition = tracking_decomposition_from_losses(
        result.dfs_losses, result.expert_losses, result.comparator_losses, m)
    return RunEvaluation(
        dfs_regret=dfs_regret, expert_regret=expert_regret,
        deviations=deviations, v_phi=deviations.sum(axis=0),
        constants=tuple(constants), bound_curves=curves,
        decomposition=decomposition)


def write_losses_csv(path, result):
    cols = ["t", "dfs"]
    data = [np.arange(1, result.T + 1), result.dfs_losses]
    if result.comparator_losses is not None:
        cols.append("comparator")
        data.append(result.comparator_losses)
    for i, label in enumerate(result.expert_labels):
        cols.append(f"expert_{label}")
        data.append(result.expert_losses[:, i])
    _write_csv(path, cols, data)


def write_weights_csv(path, result):
    cols = ["t"] + [f"w_{label}" for label in result.expert_labels]
    data = [np.arange(1, result.T + 1)] + \
        [result.weights[:, i] for i in range(result.n_experts)]
    _write_csv(path, cols, data)


def write_regret_csv(path, result, evaluation):
    cols = ["t", "dfs_regret"]
    data = [np.arange(1, result.T + 1), evaluation.dfs_regret]
    for i, label in enumerate(result.expert_labels):
        cols.append(f"regret_{label}")
        data.append(evaluation.expert_regret[:, i])
    for i, label in enumerate(result.expert_labels):
        cols.append(f"bound_{label}")
        data.append(evaluation.bound_curves[:, i])
    _write_csv(path, cols, data)


def write_agents_csv(path, result):
    if result.agent_values is None:
        raise ValueError("the run was recorded without per-agent values")
    p = result.agent_values.shape[1]
    cols = ["t"] + [f"agent_{a}" for a in range(p)]
    data = [np.arange(1, result.T + 1)] + \
        [result.agent_values[:, a] for a in range(p)]
    _write_csv(path, cols, data)


def write_meta(path, mapping):
    with open(path, "w") as fh:
        for key in sorted(mapping):
            fh.write(f"{key}={mapping[key]}\n")


def _write_csv(path, cols, data):
    fmt = ["%d"] + ["%.12g"] * (len(cols) - 1)
    np.savetxt(path, np.column_stack(data), fmt=fmt, delimiter=",",
               header=",".join(cols), comments="")


def read_losses_csv(path):
    """Inverse of write_losses_csv: dict of column name -> float array.
    numpy parses the data rows in one pass; a table it rejects, or one of
    the wrong width or with a non-finite field, is read again row by row,
    which names the first bad line."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{path}: empty file")
        names = header.split(",")
        for j, name in enumerate(names):
            if name in names[:j]:
                raise ValueError(f"{path}: column {name!r} repeats")
        body = fh.read()
    if not body.strip():
        raise ValueError(f"{path}: no data rows")
    try:
        arr = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                         ndmin=2)
    except ValueError:
        arr = None
    if arr is None or arr.shape[1] != len(names) or not np.isfinite(arr).all():
        arr = _read_rows(path, len(names), body)
    return {name: arr[:, j] for j, name in enumerate(names)}


def _read_rows(path, width, body):
    """The data lines of a table, which start at line 2, parsed one at a
    time with float(): their (rows, width) array, or the error of the first
    bad line.  Blank lines are skipped."""
    rows = []
    for lineno, line in enumerate(body.split("\n"), start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(
                f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric field") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: non-finite field")
        rows.append(row)
    return np.array(rows)
