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

A StepPlan holds the parts of a step: a tracker's state holds its one-row
plan, and a pool's plan joins its experts' plans, which differ only in
their models.  advance(plan, ...) runs one gradient step, soft threshold
and projection on an (N, *shape) stack, applies the models by one
ModelStack call and returns the (theta_tilde, theta_hat) stacks; dmd_step
is its N = 1 case, with the same elementwise arithmetic as a pool's rows.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import IdentityModel, ModelStack
from .geometry import Ball, _as_integer


@dataclass(frozen=True)
class DmdState:
    """Learner state; steps return new states, arrays are never mutated.
    The parts read the one-row plan, so replace(state, model=...) raises TypeError."""

    theta_hat: np.ndarray
    theta_tilde: np.ndarray
    t: int
    plan: object

    geom = property(lambda self: self.plan.geom)
    fset = property(lambda self: self.plan.fset)
    model = property(lambda self: self.plan.models.models[0])
    schedule = property(lambda self: self.plan.schedule)
    reg_period = property(lambda self: self.plan.reg_period)


def dmd_init(geom, fset, model, schedule, reg_period=1, theta0=None):
    reg_period = _as_integer(reg_period, "reg_period", 1)
    if theta0 is None:
        theta0 = fset.project(np.zeros(fset.shape))
    else:
        theta0 = np.asarray(theta0, dtype=float)
        if not fset.contains(theta0):
            raise ValueError("theta0 lies outside the feasible set")
    plan = StepPlan(geom, fset, schedule, reg_period, (model,), theta0.shape)
    return DmdState(theta0.copy(), theta0.copy(), 1, plan)


def comid_init(geom, fset, schedule, theta0=None):
    return dmd_init(geom, fset, IdentityModel(), schedule, reg_period=1, theta0=theta0)


class StepPlan:
    """The parts of a DMD step: one geometry, feasible set, schedule and
    reg_period, and a ModelStack of the rows' models on points of the given
    shape; names[i] names row i.  dmd_init builds a tracker's one-row plan."""

    def __init__(self, geom, fset, schedule, reg_period, models, shape, rows=None):
        self.geom = geom
        self.fset = fset
        self.schedule = schedule
        self.reg_period = reg_period
        self.models = ModelStack(models, shape)
        self.names = tuple(f"expert {i} ({m.label})"
                           for i, m in enumerate(self.models.models))
        self.rows = (self,) if rows is None else rows  # one-row plans

    @classmethod
    def join(cls, plans):
        """A pool's plan that keeps the given plans' rows.  They must share the
        same geometry, feasible set and schedule objects and one reg_period
        (else ValueError names the first expert and part that differ)."""
        rows = tuple(row for plan in plans for row in plan.rows)
        first = rows[0]
        for i, row in enumerate(rows[1:], 1):
            shared = {"geom": row.geom is first.geom, "fset": row.fset is first.fset,
                      "schedule": row.schedule is first.schedule,
                      "reg_period": row.reg_period == first.reg_period}
            for part, same in shared.items():
                if not same:
                    raise ValueError(f"expert {i} ({row.models.models[0].label}) does "
                                     f"not share expert 0's {part}: a pool's experts "
                                     "differ only in their models")
        return cls(first.geom, first.fset, first.schedule, first.reg_period,
                   [row.models.models[0] for row in rows], first.models.shape, rows)


def require_finite(stack, layer, t, names):
    """Raise FloatingPointError naming the round, the first non-finite row of
    the stack (names[i] names row i) and the layer that produced it."""
    if not np.isfinite(stack).all():
        ok = np.isfinite(stack.reshape(len(stack), -1)).all(axis=1)
        raise FloatingPointError(
            f"non-finite {layer} at round t={t}, {names[int(np.argmin(ok))]}")


def advance(plan, loss, thetas, grads, t):
    """One DMD step of every row on the round-t loss.

    thetas is the (N, *shape) stack of predictions and grads the stack of
    f-gradients there.  Returns the (theta_tilde, theta_hat) stacks of the
    next round.  Non-finite gradients, steps or model images raise
    FloatingPointError naming the round, expert and layer; a step size
    that underflows the prox weight to 0 raises ValueError.
    """
    require_finite(grads, "gradient", t, plan.names)
    kappa = plan.schedule.eta(t) / (2.0 * plan.geom.scale)
    if kappa == 0.0:
        raise ValueError(f"prox weight eta_t / 2c underflows to 0 at round t={t}, "
                         f"{plan.names[0]}: eta_t={plan.schedule.eta(t)!r}, "
                         f"c={plan.geom.scale!r}")
    with np.errstate(over="ignore"):  # checked on the next line
        v = thetas - kappa * grads
    require_finite(v, "step", t, plan.names)
    if t % plan.reg_period == 0 and loss.r.tau > 0.0:
        # exact on boxes and centred balls; see module docstring
        if isinstance(plan.fset, Ball) and np.any(plan.fset.center):
            raise ValueError(
                f"prox on an off-centre ball at round t={t}, {plan.names[0]}: "
                "project(soft_threshold(v)) is exact only for balls centred at 0")
        v = loss.prox_r(v, kappa)
    tildes = plan.fset.project(v)
    hats = plan.models.apply(tildes)
    require_finite(hats, "model image", t, plan.names)
    return tildes, hats


def dmd_step(state, loss):
    """Advance one round; returns (new state, next prediction, None).

    loss is the composite loss of round state.t.
    """
    g = loss.f_gradient(state.theta_hat)
    tildes, nexts = advance(state.plan, loss, state.theta_hat[None], g[None], state.t)
    return DmdState(nexts[0], tildes[0], state.t + 1, state.plan), nexts[0], None


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
