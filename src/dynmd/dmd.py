"""Dynamic mirror descent over composite losses.

One step at time t from prediction theta_hat_t:

    theta_tilde_{t+1} = argmin_{theta in Theta}
        eta_t <grad f_t(theta_hat_t), theta> + eta_t r(theta)
        + D(theta || theta_hat_t)
    theta_hat_{t+1}   = Phi(theta_tilde_{t+1})

For the scaled squared Euclidean geometry (scale c) the argmin is
project(soft_threshold(v)): gradient step v = theta_hat - kappa grad with
kappa = eta_t / 2c, soft threshold at kappa tau, then project.  Without
the l1 term the objective is c ||theta - v||^2 + const, so projecting v is
exact on every convex set.  With it the composition is exact on boxes
(the objective separates per coordinate), on the 2-ball centred at 0
(Yu, "On Decomposing the Proximal Map", NeurIPS 2013) and on the 1-ball
centred at 0 (the result is one soft threshold at max(kappa tau,
lambda*), lambda* the threshold that projects v onto the ball).  On an
off-centre ball it is not exact, so a round that would apply the prox
there raises ValueError.  The prox is applied only on steps with
t % reg_period == 0 (reg_period = 1 means every step).  COMID is the
special case Phi = identity with reg_period = 1.

A pool of trackers on one loss stream steps together: advance(plan, ...)
takes (N, *shape) stacks of predictions and gradients, runs one gradient
step, soft threshold and projection on the whole stack, applies the
models by one ModelStack call and returns the (theta_tilde, theta_hat)
stacks.  The rows differ only in their models (StepPlan checks this).
dmd_step is the N = 1 case of that step, and every row of a pool step is
computed with the same elementwise arithmetic as a lone step.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import IdentityModel, ModelStack
from .geometry import Ball


@dataclass(frozen=True)
class DmdState:
    """Learner state; steps return new states, arrays are never mutated.
    A pool's expert views share memory with its stacks: never write them."""

    theta_hat: np.ndarray
    theta_tilde: np.ndarray
    t: int
    geom: object
    fset: object
    model: object
    schedule: object
    reg_period: int = 1


def dmd_init(geom, fset, model, schedule, reg_period=1, theta0=None):
    if int(reg_period) != reg_period or reg_period < 1:
        raise ValueError(f"reg_period must be an integer >= 1, got {reg_period}")
    if theta0 is None:
        theta0 = fset.project(np.zeros(fset.shape))
    else:
        theta0 = np.asarray(theta0, dtype=float)
        if not fset.contains(theta0):
            raise ValueError("theta0 lies outside the feasible set")
    return DmdState(theta_hat=theta0.copy(), theta_tilde=theta0.copy(), t=1,
                    geom=geom, fset=fset, model=model, schedule=schedule,
                    reg_period=int(reg_period))


def comid_init(geom, fset, schedule, theta0=None):
    return dmd_init(geom, fset, IdentityModel(), schedule, reg_period=1, theta0=theta0)


class StepPlan:
    """How a pool of DMD states takes its stacked step.  The states share
    the same geometry, feasible set and schedule objects and one reg_period
    (else ValueError names the first expert and part that differ); the plan
    holds those, the experts' names and one ModelStack of their models, and
    serves every round.
    """

    def __init__(self, states):
        states = tuple(states)
        first = states[0]
        self.names = tuple(f"expert {i} ({s.model.label})"
                           for i, s in enumerate(states))
        for name, s in zip(self.names[1:], states[1:]):
            shared = {"geom": s.geom is first.geom, "fset": s.fset is first.fset,
                      "schedule": s.schedule is first.schedule,
                      "reg_period": s.reg_period == first.reg_period}
            for part, same in shared.items():
                if not same:
                    raise ValueError(f"{name} does not share expert 0's {part}: "
                                     "a pool's experts differ only in their models")
        self.geom = first.geom
        self.fset = first.fset
        self.schedule = first.schedule
        self.reg_period = first.reg_period
        self.models = ModelStack([s.model for s in states], first.theta_hat.shape)


def require_finite(stack, layer, t, names):
    """Raise FloatingPointError naming the round, the first non-finite row of
    the stack (names[i] names row i) and the layer that produced it."""
    if not np.all(np.isfinite(stack)):
        ok = np.isfinite(stack.reshape(len(stack), -1)).all(axis=1)
        raise FloatingPointError(
            f"non-finite {layer} at round t={t}, {names[int(np.argmin(ok))]}")


def advance(plan, loss, thetas, grads, t):
    """One DMD step of every row on the round-t loss.

    thetas is the (N, *shape) stack of predictions and grads the stack of
    f-gradients there.  Returns the (theta_tilde, theta_hat) stacks of the
    next round.  Non-finite gradients or steps raise FloatingPointError
    naming the round, expert and layer.
    """
    require_finite(grads, "gradient", t, plan.names)
    kappa = plan.schedule.eta(t) / (2.0 * plan.geom.scale)
    v = thetas - kappa * grads
    require_finite(v, "step", t, plan.names)
    if t % plan.reg_period == 0 and loss.r.tau > 0.0:
        # exact on boxes and centred balls; see module docstring
        if isinstance(plan.fset, Ball) and np.any(plan.fset.center):
            raise ValueError(
                f"prox on an off-centre ball at round t={t}, {plan.names[0]}: "
                "project(soft_threshold(v)) is exact only for balls centred at 0")
        v = loss.prox_r(v, kappa)
    tildes = plan.fset.project_stack(v)
    return tildes, plan.models.apply(tildes)


def dmd_step(state, loss):
    """Advance one round; returns (new state, next prediction, None).

    loss is the composite loss of round state.t.
    """
    t = state.t
    theta_hat = state.theta_hat
    g = loss.f_gradient(theta_hat)
    tildes, nexts = advance(StepPlan((state,)), loss, theta_hat[None], g[None], t)
    new_state = replace(state, theta_hat=nexts[0], theta_tilde=tildes[0], t=t + 1)
    return new_state, new_state.theta_hat, None


def comid_step(state, loss):
    """dmd_step restricted to the static special case (identity model, prox every step)."""
    if not isinstance(state.model, IdentityModel):
        raise ValueError("comid_step requires an identity-model state")
    if state.reg_period != 1:
        raise ValueError("comid_step requires reg_period = 1")
    return dmd_step(state, loss)


def lemma1_check(before, after, loss, comparator_pair, constants, tol=1e-8):
    """Per-step certificate for one DMD transition against a comparator pair.

    Checks

        ell_t(theta_hat_t) - ell_t(theta_t)
          <= [D(theta_t || theta_hat_t) - D(theta_{t+1} || theta_hat_{t+1})] / eta_t
             + (4 M / eta_t) ||theta_{t+1} - Phi(theta_t)||
             + eta_t G_ell^2 / (2 sigma)

    which is valid when the model's divergence expansion is <= 0 (audit it
    first) and the constants cover the step's own iterates.  Returns
    (passed, slack) with slack = rhs - lhs; passed allows a relative
    rounding tolerance.
    """
    if after.t != before.t + 1:
        raise ValueError("states are not a consecutive before/after pair")
    theta_t, theta_next = (np.asarray(p, dtype=float) for p in comparator_pair)
    t = before.t
    eta = before.schedule.eta(t)
    geom = before.geom
    lhs = loss.value(before.theta_hat) - loss.value(theta_t)
    d_now = geom.divergence(theta_t, before.theta_hat)
    d_next = geom.divergence(theta_next, after.theta_hat)
    dev = float(np.linalg.norm(np.ravel(theta_next - before.model.apply(theta_t))))
    rhs = ((d_now - d_next) / eta
           + (4.0 * constants.big_m / eta) * dev
           + eta * constants.g_ell ** 2 / (2.0 * constants.sigma))
    slack = rhs - lhs
    passed = bool(slack >= -tol * max(1.0, abs(lhs), abs(rhs)))
    return passed, float(slack)
