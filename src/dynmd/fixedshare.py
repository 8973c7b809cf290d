"""Dynamic fixed share: exponential weighting with share over DMD experts.

Round t, expert predictions theta_i made before the round's data arrives:

    wtilde_i = w_i * exp(-eta_r * ell_t(theta_i))          (loss update)
    w_i'     = (lam / N) * sum_j wtilde_j + (1 - lam) * wtilde_i   (share)
    w        = w' / sum(w')                                 (normalize)
    output   = sum_i w_i theta_i                            (aggregate)

then every expert advances one DMD step on the same loss.  The experts
differ only in their models: the pool's plan joins their one-row plans
(dmd.StepPlan.join).  The loss update runs in log space with max
subtraction, so 10^4-scale losses cannot underflow the weight vector.
After the share step every normalized weight is at least lam / N.  The
aggregated prediction is invariant to positive rescaling of the weights.

The pool owns its iterates as (N, *shape) stacks theta_hat and theta_tilde;
state.experts pairs their rows with the experts' own plans as read-only
DmdState views.  A round is one stacked computation: one
loss.values_and_grads call gives every expert's loss and gradient, and the
same gradients drive one stacked mirror step (dmd.advance) that returns
the next stacks.  A caller that has already evaluated the round's loss at
the predictions passes the result in, so nothing is evaluated twice.  With
one expert the round is bit-identical to dmd_step.
"""

from dataclasses import dataclass, field

import numpy as np

from .dmd import DmdState, StepPlan, advance, require_finite
from .geometry import _as_integer


@dataclass(frozen=True)
class FixedShareState:
    weights: np.ndarray
    eta_r: float
    lam: float
    theta_hat: np.ndarray  # (N, *shape) expert predictions
    theta_tilde: np.ndarray  # (N, *shape) expert mirror-step targets
    t: int = 1
    # how the experts step together; fixed_share_init builds it once
    plan: object = field(default=None, repr=False, compare=False)

    @property
    def experts(self):
        """DmdState of every expert at round t; its arrays are rows of the
        stacks and must not be written."""
        return tuple(DmdState(hat, tilde, self.t, row) for hat, tilde, row
                     in zip(self.theta_hat, self.theta_tilde, self.plan.rows))


def default_lambda(m, T):
    """Share rate m / T for an m-switch comparator over horizon T."""
    m = _as_integer(m, "m", 0)
    T = _as_integer(T, "T", 1)
    if m >= T:
        raise ValueError(f"m must be < T, got m={m}, T={T}")
    return m / T


def fixed_share_init(experts, lam, eta_r):
    """Pool of the given fresh DMD states with uniform weights; a state
    that has already stepped (t != 1) raises ValueError naming it."""
    experts = tuple(experts)
    if len(experts) == 0:
        raise ValueError("at least one expert is required")
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    if not (0.0 < eta_r < np.inf):
        raise ValueError(f"eta_r must be positive and finite, got {eta_r}")
    plan = StepPlan.join(e.plan for e in experts)  # one fset, so one shape
    for name, expert in zip(plan.names, experts):
        if expert.t != 1:
            raise ValueError(f"{name} has already stepped (t={expert.t}): "
                             "a pool starts from fresh DMD states")
    n = len(experts)
    return FixedShareState(weights=np.full(n, 1.0 / n), eta_r=float(eta_r),
                           lam=float(lam),
                           theta_hat=np.stack([e.theta_hat for e in experts]),
                           theta_tilde=np.stack([e.theta_tilde for e in experts]),
                           t=1, plan=plan)


def dfs_step(state, loss, evaluated=None):
    """Advance one round; returns (new state, aggregated prediction, expert losses).

    evaluated, when given, is loss.values_and_grads at the stacked expert
    predictions (their composite losses and f-gradients), with the losses
    already checked finite by the caller; it is computed and checked here
    otherwise.  A non-finite loss, gradient or step raises
    FloatingPointError naming the round, the expert and the layer; an eta_r
    so large that it overflows every log weight raises ValueError.
    """
    t = state.t
    preds = state.theta_hat
    if evaluated is None:
        evaluated = loss.values_and_grads(preds)
        require_finite(evaluated[0], "loss value", t, state.plan.names)
    losses, grads = evaluated
    # a zero weight is a valid -inf log weight; an overflow is checked below
    with np.errstate(divide="ignore", over="ignore"):
        logw = np.log(state.weights) - state.eta_r * losses
    top = logw.max()
    if not np.isfinite(top):
        raise ValueError(f"the log weights overflow to {top} at round t={t}: eta_r="
                         f"{state.eta_r!r} times the smallest loss "
                         f"{float(losses.min())!r} overflows")
    wtilde = np.exp(logw - top)
    total = wtilde.sum()
    n = wtilde.size
    w = (state.lam / n) * total + (1.0 - state.lam) * wtilde
    w = w / w.sum()
    # the (1, n) x (n, size) product np.tensordot(w, preds, axes=1) computes,
    # so the same bits, without its per-call axis bookkeeping
    aggregated = np.dot(w.reshape(1, n), preds.reshape(n, -1)).reshape(preds.shape[1:])
    tilde, hat = advance(state.plan, loss, preds, grads, t)
    new_state = FixedShareState(weights=w, eta_r=state.eta_r, lam=state.lam,
                                theta_hat=hat, theta_tilde=tilde, t=t + 1,
                                plan=state.plan)
    return new_state, aggregated, losses
