"""Dynamic fixed share: exponential weighting with share over DMD experts.

Round t, expert predictions theta_i made before the round's data arrives:

    wtilde_i = w_i * exp(-eta_r * ell_t(theta_i))          (loss update)
    w_i'     = (lam / N) * sum_j wtilde_j + (1 - lam) * wtilde_i   (share)
    w        = w' / sum(w')                                 (normalize)
    output   = sum_i w_i theta_i                            (aggregate)

then every expert advances one DMD step on the same loss.  The loss update
runs in log space with max subtraction, so 10^4-scale losses cannot
underflow the weight vector.  After the share step every normalized weight
is at least lam / N.  The aggregated prediction is invariant to positive
rescaling of the weights.

A round is one stacked computation.  The N predictions form an (N, *shape)
array; one loss.values_and_grads call gives every expert's loss and
gradient, and the same gradients drive one stacked mirror step (dmd.advance)
in place of N separate ones.  A caller that has already evaluated the
round's loss at the predictions passes the result in, so nothing is
evaluated twice.  With one expert the round is bit-identical to dmd_step.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .dmd import StepPlan, advance, require_finite
from .geometry import StepSchedule


@dataclass(frozen=True)
class FixedShareState:
    weights: np.ndarray
    eta_r: object  # float or StepSchedule
    lam: float
    experts: tuple
    t: int = 1
    # how the experts step together; fixed_share_init builds it once
    plan: object = field(default=None, repr=False, compare=False)


def default_lambda(m, T):
    """Share rate m / T for an m-switch comparator over horizon T."""
    if int(m) != m or m < 0:
        raise ValueError(f"m must be an integer >= 0, got {m}")
    if int(T) != T or T < 1:
        raise ValueError(f"T must be an integer >= 1, got {T}")
    if m >= T:
        raise ValueError(f"m must be < T, got m={m}, T={T}")
    return m / T


def fixed_share_init(experts, lam, eta_r, weights=None):
    experts = tuple(experts)
    if len(experts) == 0:
        raise ValueError("at least one expert is required")
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    if isinstance(eta_r, StepSchedule):
        pass
    elif not (eta_r > 0):
        raise ValueError(f"eta_r must be positive, got {eta_r}")
    shape = experts[0].theta_hat.shape
    for e in experts:
        if e.theta_hat.shape != shape:
            raise ValueError("experts must share one parameter shape")
    n = len(experts)
    if weights is None:
        weights = np.full(n, 1.0 / n)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(f"weights must have shape ({n},)")
        if np.any(weights < 0) or not np.isclose(weights.sum(), 1.0, atol=1e-9):
            raise ValueError("weights must be nonnegative and sum to 1")
    return FixedShareState(weights=weights, eta_r=eta_r, lam=float(lam),
                           experts=experts, t=1, plan=StepPlan(experts))


def aggregate_prediction(state, weights=None):
    """Convex combination of the experts' current predictions."""
    w = state.weights if weights is None else np.asarray(weights, dtype=float)
    preds = np.stack([e.theta_hat for e in state.experts])
    return np.tensordot(w / w.sum(), preds, axes=1)


def _resolve_eta_r(eta_r, t):
    if isinstance(eta_r, StepSchedule):
        return eta_r.eta(t)
    return float(eta_r)


def dfs_step(state, loss, t=None, evaluated=None):
    """Advance one round; returns (new state, aggregated prediction, expert losses).

    evaluated, when given, is loss.values_and_grads at the stacked expert
    predictions (their composite losses and f-gradients); it is computed
    here otherwise.  A non-finite loss, gradient or step raises
    FloatingPointError naming the round, the expert and the layer.
    """
    if t is None:
        t = state.t
    elif t != state.t:
        raise ValueError(f"step called with t={t} but state clock is {state.t}")
    plan = state.plan if state.plan is not None else StepPlan(state.experts)
    preds = np.stack([e.theta_hat for e in state.experts])
    if evaluated is None:
        evaluated = loss.values_and_grads(preds)
    losses, grads = evaluated
    require_finite(losses, "loss value", t, plan.names)
    eta_r = _resolve_eta_r(state.eta_r, t)
    with np.errstate(divide="ignore"):  # a zero weight is a valid -inf log weight
        logw = np.log(state.weights) - eta_r * losses
    wtilde = np.exp(logw - logw.max())
    total = wtilde.sum()
    n = wtilde.size
    w = (state.lam / n) * total + (1.0 - state.lam) * wtilde
    w = w / w.sum()
    aggregated = np.tensordot(w, preds, axes=1)
    experts = advance(state.experts, loss, preds, grads, t, plan)
    new_state = replace(state, weights=w, experts=experts, t=t + 1)
    return new_state, aggregated, losses
