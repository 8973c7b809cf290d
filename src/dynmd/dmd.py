"""Dynamic mirror descent over composite losses.

One step at time t from prediction theta_hat_t:

    theta_tilde_{t+1} = argmin_{theta in Theta}
        eta_t <grad f_t(theta_hat_t), theta> + eta_t r(theta)
        + D(theta || theta_hat_t)
    theta_hat_{t+1}   = Phi(theta_tilde_{t+1})

For the scaled squared Euclidean geometry (scale c) the argmin has the
closed form: gradient step v = theta_hat - (eta_t / 2c) grad, soft
threshold at kappa = eta_t / 2c, then project.  The composite objective
separates per coordinate and each 1-D piece is strictly convex, so
prox-then-clamp is exact for every box set; ball sets fall back to a
projected-subgradient inner loop.  The prox is applied only on steps with
t % reg_period == 0 (reg_period = 1 means every step).  COMID is the
special case Phi = identity with reg_period = 1.

A pool of trackers on one loss stream steps together (`advance`): the N
predictions and gradients are stacked into (N, *shape) arrays, the
gradient step, soft threshold and projection run once on the stack, and
the models are applied by one ModelStack call.  dmd_step is the N = 1 case
of that step, and every row of a pool step is computed with the same
elementwise arithmetic as a lone step.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import IdentityModel, ModelStack
from .geometry import Ball


@dataclass(frozen=True)
class DmdState:
    """Learner state; steps return new states, arrays are never mutated."""

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


def _inner_objective(geom, loss, g, theta_hat, eta, with_reg, theta):
    val = eta * float(np.vdot(g, theta)) + geom.divergence(theta, theta_hat)
    if with_reg:
        val += eta * loss.r_value(theta)
    return val


def _solve_inner(geom, fset, loss, g, theta_hat, eta, with_reg,
                 max_iter=200, rel_tol=1e-8):
    """Projected subgradient loop for non-box sets (strongly convex objective)."""
    c = geom.scale
    theta = fset.project(theta_hat)
    best = theta
    best_val = _inner_objective(geom, loss, g, theta_hat, eta, with_reg, theta)
    for k in range(1, max_iter + 1):
        sub = eta * g + 2.0 * c * (theta - theta_hat)
        if with_reg:
            sub = sub + eta * loss.r.subgradient(theta)
        theta = fset.project(theta - sub / (c * (k + 1.0)))
        val = _inner_objective(geom, loss, g, theta_hat, eta, with_reg, theta)
        if val < best_val:
            improved = best_val - val
            best, best_val = theta, val
            if improved <= rel_tol * max(1.0, abs(best_val)):
                break
    return best


class StepPlan:
    """How a pool of DMD states takes its stacked step.

    States that share geometry, feasible set, schedule and reg_period step
    as one group; the models are applied by one ModelStack.  A step keeps
    these parts of every state, so a plan built once serves every round.
    """

    def __init__(self, states):
        states = tuple(states)
        self.names = tuple(f"expert {i} ({s.model.label})"
                           for i, s in enumerate(states))
        members = {}
        for i, s in enumerate(states):
            key = (id(s.geom), id(s.fset), id(s.schedule), s.reg_period)
            members.setdefault(key, []).append(i)
        groups = []
        for idx in members.values():
            rows = slice(None) if len(members) == 1 else np.array(idx)
            groups.append((states[idx[0]], rows,
                           tuple(self.names[i] for i in idx)))
        self.groups = tuple(groups)
        self.models = ModelStack([s.model for s in states],
                                 states[0].theta_hat.shape)


def require_finite(stack, layer, t, names):
    """Raise FloatingPointError naming the round, the first non-finite row of
    the stack (names[i] names row i) and the layer that produced it."""
    if not np.all(np.isfinite(stack)):
        ok = np.isfinite(stack.reshape(len(stack), -1)).all(axis=1)
        raise FloatingPointError(
            f"non-finite {layer} at round t={t}, {names[int(np.argmin(ok))]}")


def _step_size(state, loss, t):
    """(eta_t, whether the round applies the l1 prox) for a state at round t."""
    with_reg = t % state.reg_period == 0
    return state.schedule.eta(t), with_reg and loss.r.tau > 0.0


def _theta_tildes(state, loss, thetas, grads, t, names):
    """Mirror-step targets of the stacked predictions of states that share
    state's geometry, feasible set, schedule and reg_period."""
    eta, needs_reg = _step_size(state, loss, t)
    kappa = eta / (2.0 * state.geom.scale)
    v = thetas - kappa * grads
    require_finite(v, "step", t, names)
    if isinstance(state.fset, Ball) and needs_reg:
        # prox-then-project is not exact on balls; see module docstring
        return np.stack([_solve_inner(state.geom, state.fset, loss, g, th, eta, True)
                         for th, g in zip(thetas, grads)])
    # without the l1 term the objective is c * ||theta - v||^2 + const,
    # so projecting v is exact for any convex set; with it, prox-then-
    # clamp is exact per coordinate on boxes
    if needs_reg:
        v = loss.prox_r(v, kappa)
    return state.fset.project_stack(v)


def advance(states, loss, thetas, grads, t, plan=None):
    """Move every state one DMD step on the round-t loss; returns new states.

    thetas is the (N, *shape) stack of the states' predictions and grads
    the stack of f-gradients there.  plan defaults to StepPlan(states).
    Non-finite gradients or steps raise FloatingPointError naming the
    round, expert and layer.
    """
    if plan is None:
        plan = StepPlan(states)
    require_finite(grads, "gradient", t, plan.names)
    tildes = np.empty_like(thetas)
    for state, rows, names in plan.groups:
        tildes[rows] = _theta_tildes(state, loss, thetas[rows], grads[rows],
                                     t, names)
    nexts = plan.models.apply(tildes, t)
    return tuple(replace(s, theta_hat=nexts[i], theta_tilde=tildes[i], t=t + 1)
                 for i, s in enumerate(states))


def dmd_step(state, loss, t=None, diagnostics=False):
    """Advance one round; returns (new state, next prediction, diagnostics).

    loss is the round-t composite loss; t defaults to the state's own clock
    and must match it when given.  diagnostics (opt-in) carries eta_t, the
    gradient and composite-subgradient norms, and the divergence moved.
    """
    if t is None:
        t = state.t
    elif t != state.t:
        raise ValueError(f"step called with t={t} but state clock is {state.t}")
    theta_hat = state.theta_hat
    g = loss.f_gradient(theta_hat)
    (new_state,) = advance((state,), loss, theta_hat[None], g[None], t)
    diag = None
    if diagnostics:
        eta, needs_reg = _step_size(state, loss, t)
        subgrad = g + loss.r.subgradient(theta_hat)
        diag = {
            "t": t,
            "eta": eta,
            "prox_applied": needs_reg,
            "grad_norm": float(np.linalg.norm(np.ravel(g))),
            "subgrad_norm": float(np.linalg.norm(np.ravel(subgrad))),
            "divergence_moved": state.geom.divergence(new_state.theta_tilde,
                                                      theta_hat),
        }
    return new_state, new_state.theta_hat, diag


def comid_step(state, loss, t=None, diagnostics=False):
    """dmd_step restricted to the static special case (identity model, prox every step)."""
    if not isinstance(state.model, IdentityModel):
        raise ValueError("comid_step requires an identity-model state")
    if state.reg_period != 1:
        raise ValueError("comid_step requires reg_period = 1")
    return dmd_step(state, loss, t=t, diagnostics=diagnostics)


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
    dev = float(np.linalg.norm(np.ravel(theta_next - before.model.apply(theta_t, t))))
    rhs = ((d_now - d_next) / eta
           + (4.0 * constants.big_m / eta) * dev
           + eta * constants.g_ell ** 2 / (2.0 * constants.sigma))
    slack = rhs - lhs
    passed = bool(slack >= -tol * max(1.0, abs(lhs), abs(rhs)))
    return passed, float(slack)
