"""Shared experiment driver: run a fixed-share pool over a loss stream,
record scalar traces, then evaluate regrets, bounds, and the tracking
decomposition from those traces.

The driver never stores predictions or sensing matrices; everything the
evaluation needs (losses, norms, divergences to the comparator) is reduced
to scalars while the run is in flight, so horizons in the thousands stay
within a laptop's memory.  Each round evaluates the loss once, with one
loss.values_and_grads call on the stacked expert predictions plus the
comparator point; the traces, the comparator terms, the weight update and
the mirror step all read that one result.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    expert_losses: np.ndarray  # (T, N)
    dfs_losses: np.ndarray  # (T,)
    pred_norms: np.ndarray  # (T, N)
    subgrad_norms: np.ndarray  # (T, N)
    comparator_points: np.ndarray  # (T + 1, *shape) or None
    comparator_losses: np.ndarray  # (T,) or None
    comparator_divergences: np.ndarray  # (T, N) or None
    comparator_subgrad_norms: np.ndarray  # (T,) or None
    comparator_norms: np.ndarray  # (T,) or None
    agent_values: np.ndarray  # (T, p) or None
    final_state: object
    meta: dict

    @property
    def T(self):
        return self.dfs_losses.shape[0]

    @property
    def n_experts(self):
        return len(self.expert_labels)


def run_scenario(losses, T, experts, lam=0.01, eta_r=None, comparator=None):
    """Drive a fixed-share pool for T rounds.

    losses: callable t -> composite loss (1-based); T is an integer >= 1.
    experts: fresh DMD states of one pool, one per dynamical model.  eta_r
    defaults to 1/sqrt(T).  comparator, when given, must hold T + 1 finite
    points of the experts' shape; its scalar traces feed the bound
    evaluation later.  When loss.f scores each agent
    (per_agent_values), the aggregate's per-agent values are recorded.
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError(f"T must be an integer >= 1, got {T!r}")
    experts = list(experts)
    n = len(experts)
    if eta_r is None:
        eta_r = 1.0 / math.sqrt(T)
    state = fixed_share_init(experts, lam=lam, eta_r=eta_r)
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
    labels = tuple(e.model.label for e in experts)
    weights = np.empty((T, n))
    expert_losses = np.empty((T, n))
    dfs_losses = np.empty(T)
    pred_norms = np.empty((T, n))
    subgrad_norms = np.empty((T, n))
    comp_losses = np.empty(T) if pts is not None else None
    comp_div = np.empty((T, n)) if pts is not None else None
    comp_subgrad = np.empty(T) if pts is not None else None
    comp_norms = np.empty(T) if pts is not None else None
    agent_values = None
    for t in range(1, T + 1):
        loss = losses(t)
        preds = state.theta_hat
        points = preds if pts is None else np.concatenate([preds, pts[t - 1][None]])
        values, grads = loss.values_and_grads(points)
        point_subgrad_norms = _row_norms(grads + loss.r.subgradient(points))
        pred_norms[t - 1] = _row_norms(preds)
        subgrad_norms[t - 1] = point_subgrad_norms[:n]
        if pts is not None:
            comp = pts[t - 1]
            comp_losses[t - 1] = values[n]
            comp_subgrad[t - 1] = point_subgrad_norms[n]
            comp_norms[t - 1] = np.linalg.norm(np.ravel(comp))
            comp_div[t - 1] = state.plan.geom.divergences(comp, preds)
        state, aggregated, losses_t = dfs_step(
            state, loss, evaluated=(values[:n], grads[:n]))
        weights[t - 1] = state.weights
        expert_losses[t - 1] = losses_t
        dfs_losses[t - 1] = loss.value(aggregated)
        per_agent_values = getattr(loss.f, "per_agent_values", None)
        if per_agent_values is not None:
            per_agent = per_agent_values(aggregated)
            if agent_values is None:
                agent_values = np.empty((T, per_agent.shape[0]))
            agent_values[t - 1] = per_agent
    meta = {"T": T, "n_experts": n, "lam": lam, "eta_r": eta_r,
            "labels": ",".join(labels)}
    return ScenarioResult(
        expert_labels=labels, weights=weights, expert_losses=expert_losses,
        dfs_losses=dfs_losses, pred_norms=pred_norms,
        subgrad_norms=subgrad_norms,
        comparator_points=pts, comparator_losses=comp_losses,
        comparator_divergences=comp_div,
        comparator_subgrad_norms=comp_subgrad, comparator_norms=comp_norms,
        agent_values=agent_values, final_state=state, meta=meta)


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
    the pool's one geometry and schedule come from the run's plan."""
    if result.comparator_losses is None:
        raise ValueError("the run was recorded without a comparator")
    T, n = result.expert_losses.shape
    diffs = result.expert_losses - result.comparator_losses[:, None]
    expert_regret = np.cumsum(diffs, axis=0)
    dfs_regret = np.cumsum(result.dfs_losses - result.comparator_losses)
    plan = result.final_state.plan
    deviations = model_deviations(result.comparator_points, plan.models.models)
    constants = []
    curves = np.empty((T, n))
    for i in range(n):
        consts = BoundConstants.from_samples(
            plan.geom,
            (result.subgrad_norms[:, i].max(), result.comparator_subgrad_norms.max()),
            (result.pred_norms[:, i].max(), result.comparator_norms.max()),
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
    """Inverse of write_losses_csv: dict of column name -> float array."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{path}: empty file")
        names = header.split(",")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(names):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(names)} fields, got {len(fields)}")
            try:
                rows.append([float(f) for f in fields])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.array(rows)
    return {name: arr[:, j] for j, name in enumerate(names)}
