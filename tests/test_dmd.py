import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from dynmd import (
    Ball,
    Box,
    CompositeLoss,
    ConstantStep,
    DoublingStep,
    IdentityModel,
    L1Regularizer,
    PixelShift,
    SquaredEuclidean,
    Unconstrained,
    comid_init,
    comid_step,
    dmd_init,
    dmd_step,
    least_squares,
    lemma1_check,
    shift_family,
)
from dynmd.dmd import StepPlan, advance

from conftest import sampled_constants


def make_stream(rng, T, m, n, tau=0.0, scale=1.0):
    losses = []
    for _ in range(T):
        A = rng.normal(size=(m, n)) * scale
        x = rng.normal(size=m)
        losses.append(least_squares(A, x, tau=tau))
    return losses


def dmd_objective(geom, loss, g, theta_hat, eta, theta):
    return (eta * float(np.dot(g, theta))
            + eta * loss.r.value(theta)
            + geom.divergence(theta, theta_hat))


def grid_minimize_2d(geom, loss, g, theta_hat, eta, lo, hi, step=1e-3):
    xs = np.arange(lo, hi + step / 2.0, step)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    tau = loss.r.tau
    J = (eta * (g[0] * X + g[1] * Y)
         + eta * tau * (np.abs(X) + np.abs(Y))
         + geom.scale * ((X - theta_hat[0]) ** 2 + (Y - theta_hat[1]) ** 2))
    i, j = np.unravel_index(np.argmin(J), J.shape)
    return np.array([xs[i], xs[j]])


def test_fixed_point_at_zero_gradient():
    # exact data fit, no regularizer, identity model: the state never moves
    geom = SquaredEuclidean(1.0)
    fset = Unconstrained(3)
    theta0 = np.array([0.2, -0.5, 1.0])
    A = np.eye(3)
    loss = least_squares(A, A @ theta0, tau=0.0)
    state = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.5), theta0=theta0)
    for _ in range(5):
        state, pred, _ = dmd_step(state, loss)
        assert np.array_equal(pred, theta0)


def test_half_scale_geometry_is_plain_gradient_descent():
    # psi = 0.5 ||.||^2, tau = 0, unconstrained: theta' = theta - eta * grad
    rng = np.random.default_rng(3)
    geom = SquaredEuclidean(0.5)
    fset = Unconstrained(4)
    state = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.3))
    theta = np.zeros(4)
    for loss in make_stream(rng, 20, 5, 4):
        state, pred, _ = dmd_step(state, loss)
        theta = theta - 0.3 * loss.f_gradient(theta)
        assert np.array_equal(pred, theta)


def test_step_matches_grid_minimization_symmetric_box():
    rng = np.random.default_rng(5)
    geom = SquaredEuclidean(1.0)
    fset = Box(-1.0, 1.0, shape=2)
    for _ in range(5):
        theta_hat = fset.sample(rng, 1)[0]
        loss = least_squares(rng.normal(size=(3, 2)), rng.normal(size=3), tau=0.3)
        state = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.5),
                         theta0=theta_hat)
        new, _, _ = dmd_step(state, loss)
        g = loss.f_gradient(theta_hat)
        want = grid_minimize_2d(geom, loss, g, theta_hat, 0.5, -1.0, 1.0)
        assert np.all(np.abs(new.theta_tilde - want) <= 2e-3)


def test_step_matches_grid_minimization_asymmetric_box():
    # prox-then-clamp stays exact on an asymmetric box (per-coordinate convexity)
    rng = np.random.default_rng(7)
    geom = SquaredEuclidean(1.0)
    fset = Box(0.0, 1.0, shape=2)
    for _ in range(5):
        theta_hat = fset.sample(rng, 1)[0]
        loss = least_squares(rng.normal(size=(3, 2)), rng.normal(size=3), tau=0.4)
        state = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.7),
                         theta0=theta_hat)
        new, _, _ = dmd_step(state, loss)
        g = loss.f_gradient(theta_hat)
        want = grid_minimize_2d(geom, loss, g, theta_hat, 0.7, 0.0, 1.0)
        assert np.all(np.abs(new.theta_tilde - want) <= 2e-3)


def test_comid_step_equals_identity_dmd_bitwise():
    rng = np.random.default_rng(11)
    geom = SquaredEuclidean(1.0)
    fset = Box(-1.0, 1.0, shape=6)
    sched = DoublingStep(4, 2, 0.5)
    losses = make_stream(rng, 100, 4, 6, tau=0.05)
    a = comid_init(geom, fset, sched)
    b = dmd_init(geom, fset, IdentityModel(), sched, reg_period=1)
    for loss in losses:
        a, pa, _ = comid_step(a, loss)
        b, pb, _ = dmd_step(b, loss)
        assert np.array_equal(pa, pb)


def test_comid_step_rejects_non_static_states():
    geom = SquaredEuclidean(1.0)
    fset = Unconstrained(4)
    sched = ConstantStep(0.1)
    shifted = dmd_init(geom, fset, PixelShift(0, 2, 2), sched)
    with pytest.raises(ValueError):
        comid_step(shifted, least_squares(np.eye(4), np.zeros(4)))
    lazy = dmd_init(geom, fset, IdentityModel(), sched, reg_period=5)
    with pytest.raises(ValueError):
        comid_step(lazy, least_squares(np.eye(4), np.zeros(4)))


def test_state_holds_its_one_row_plan(monkeypatch):
    # the parts live once, in the plan: a step builds no plan and keeps the
    # very plan, a part cannot be replaced around it, and the lone step
    # stays the directly coded static update bit for bit (criterion 1)
    rng = np.random.default_rng(79)
    geom = SquaredEuclidean(1.0)
    fset = Box(-1.0, 1.0, shape=6)
    sched = DoublingStep(4, 2, 0.5)
    model = IdentityModel()
    state = dmd_init(geom, fset, model, sched)
    assert [f.name for f in dataclasses.fields(state)] == [
        "theta_hat", "theta_tilde", "t", "plan"]
    assert state.plan.rows == (state.plan,)
    assert state.plan.names == ("expert 0 (identity)",)
    for part, want in (("geom", geom), ("fset", fset), ("model", model),
                       ("schedule", sched)):
        assert getattr(state, part) is want
    assert state.reg_period == 1
    with pytest.raises(TypeError):
        dataclasses.replace(state, model=PixelShift(0, 2, 3))
    with pytest.raises(AttributeError):
        state.schedule = ConstantStep(0.1)
    theta = np.zeros(6)
    losses = make_stream(rng, 40, 4, 6, tau=0.05)

    def no_new_plan(*args, **kwargs):
        raise AssertionError("dmd_step built a StepPlan")

    monkeypatch.setattr(StepPlan, "__init__", no_new_plan)
    for t, loss in enumerate(losses, start=1):
        kappa = sched.eta(t) / 2.0
        v = theta - kappa * loss.f_gradient(theta)
        theta = np.clip(np.sign(v) * np.maximum(np.abs(v) - kappa * 0.05, 0.0),
                        -1.0, 1.0)
        nxt, pred, _ = dmd_step(state, loss)
        assert nxt.plan is state.plan
        assert nxt.t == t + 1
        assert np.array_equal(pred, theta)
        state = nxt


def test_prox_weight_underflow_names_round_expert_and_scale():
    state = dmd_init(SquaredEuclidean(1e308), Unconstrained(2), IdentityModel(),
                     ConstantStep(0.5))
    loss = least_squares(np.eye(2), np.ones(2), tau=0.1)
    with pytest.raises(ValueError, match=r"t=1, expert 0 \(identity\): "
                                         r"eta_t=0\.5, c=1e\+308"):
        dmd_step(state, loss)


def test_advance_returns_stacks_matching_lone_steps():
    # one advance on the stacks gives every row of a lone dmd_step, bit for bit
    rng = np.random.default_rng(73)
    geom = SquaredEuclidean(1.0)
    fset = Box(0.0, 1.0, shape=9)
    sched = DoublingStep(2, 2, 0.3)
    models = (PixelShift(0, 3, 3), IdentityModel(), PixelShift(4, 3, 3))
    states = [dmd_init(geom, fset, m, sched, reg_period=2,
                       theta0=rng.uniform(size=9)) for m in models]
    plan = StepPlan.join(s.plan for s in states)
    assert plan.rows == tuple(s.plan for s in states)
    thetas = np.stack([s.theta_hat for s in states])
    for t in (1, 2):  # reg_period=2: round 1 skips the prox, round 2 applies it
        loss = least_squares(rng.normal(size=(5, 9)), rng.normal(size=5), tau=0.1)
        grads = np.stack([loss.f_gradient(s.theta_hat) for s in states])
        tilde, hat = advance(plan, loss, thetas, grads, t)
        states = [dmd_step(s, loss)[0] for s in states]
        assert type(tilde) is type(hat) is np.ndarray
        assert tilde.shape == hat.shape == (3, 9)
        assert np.array_equal(tilde, np.stack([s.theta_tilde for s in states]))
        assert np.array_equal(hat, np.stack([s.theta_hat for s in states]))
        thetas = hat


def test_huge_tau_snaps_to_zero():
    rng = np.random.default_rng(13)
    geom = SquaredEuclidean(1.0)
    fset = Unconstrained(4)
    loss = least_squares(rng.normal(size=(4, 4)), rng.normal(size=4), tau=1e6)
    state = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.5),
                     theta0=rng.normal(size=4))
    state, pred, _ = dmd_step(state, loss)
    assert np.array_equal(pred, np.zeros(4))


def test_reg_period_skips_prox_off_phase():
    rng = np.random.default_rng(17)
    geom = SquaredEuclidean(1.0)
    fset = Unconstrained(5)
    state = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.2), reg_period=3)
    pattern = []
    for loss in make_stream(rng, 9, 5, 5, tau=0.2):
        # the same step without the l1 term: equal exactly when the prox is skipped
        plain, _, _ = dmd_step(state, CompositeLoss(loss.f, L1Regularizer(0.0)))
        state, _, _ = dmd_step(state, loss)
        pattern.append(not np.array_equal(state.theta_tilde, plain.theta_tilde))
    assert pattern == [False, False, True, False, False, True, False, False, True]


def test_reg_period_off_phase_is_pure_gradient_projection():
    rng = np.random.default_rng(19)
    geom = SquaredEuclidean(0.5)
    fset = Box(-2.0, 2.0, shape=4)
    loss = least_squares(rng.normal(size=(4, 4)), rng.normal(size=4), tau=5.0)
    state = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.1), reg_period=2)
    new, pred, _ = dmd_step(state, loss)  # t = 1: prox skipped
    want = np.clip(-0.1 * loss.f_gradient(np.zeros(4)), -2.0, 2.0)
    assert np.array_equal(pred, want)


def test_ball_without_prox_is_exact_projection():
    rng = np.random.default_rng(23)
    geom = SquaredEuclidean(1.0)
    fset = Ball(np.zeros(3), 1.0, norm=2)
    loss = least_squares(rng.normal(size=(3, 3)) * 2.0, rng.normal(size=3) * 3.0)
    state = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.8))
    new, _, _ = dmd_step(state, loss)
    v = -0.4 * loss.f_gradient(np.zeros(3))
    assert np.array_equal(new.theta_tilde, fset.project(v))


def test_ball_with_prox_beats_scipy_reference():
    # the closed-form prox on the ball is optimal: no SLSQP reference beats
    # its objective beyond rounding
    rng = np.random.default_rng(29)
    geom = SquaredEuclidean(1.0)
    fset = Ball(np.zeros(2), 1.0, norm=2)
    for _ in range(5):
        theta_hat = fset.project(rng.normal(size=2))
        loss = least_squares(rng.normal(size=(3, 2)), rng.normal(size=3), tau=0.3)
        state = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.2),
                         theta0=theta_hat)
        new, _, _ = dmd_step(state, loss)
        g = loss.f_gradient(theta_hat)
        ref = minimize(
            lambda th: dmd_objective(geom, loss, g, theta_hat, 0.2, th),
            x0=theta_hat,
            constraints=[{"type": "ineq", "fun": lambda th: 1.0 - np.linalg.norm(th)}],
            method="SLSQP")
        got = dmd_objective(geom, loss, g, theta_hat, 0.2, new.theta_tilde)
        assert fset.contains(new.theta_tilde, tol=1e-9)
        assert got <= ref.fun + 1e-12 * (1.0 + abs(ref.fun))


class ConstantGradient:
    """Smooth part f(theta) = <g, theta>, whose gradient is g everywhere."""

    def __init__(self, g):
        self.g = g

    def value(self, theta):
        return float(np.vdot(self.g, theta))

    def values_and_grads(self, thetas):
        flat = thetas.reshape(len(thetas), -1)
        return flat @ self.g.ravel(), np.broadcast_to(self.g, thetas.shape).copy()


def ball_prox_kkt_residual(fset, v, lam, theta):
    """Largest violation of 0 in theta - v + lam d||theta||_1 + N(theta), the
    optimality condition of 0.5 ||theta - v||^2 + lam ||theta||_1 over a ball
    centred at 0 (N is the ball's normal cone, {0} inside it)."""
    th, r = theta.ravel(), (v - theta).ravel()
    s, on = np.sign(th), th != 0.0
    boundary = np.linalg.norm(th, ord=fset.norm) >= fset.radius * (1.0 - 1e-12)
    if fset.norm == 2:
        # N = {mu theta : mu >= 0}; fit mu on the support
        mu = 0.0
        if boundary and on.any():
            mu = max(0.0, float(np.dot(r[on] - lam * s[on], th[on])
                                / np.dot(th[on], th[on])))
        r = r - mu * th
        level = lam
    else:
        # N = {mu u : mu >= 0, u in d||theta||_1}: r in (lam + mu) d||theta||_1
        level = lam
        if boundary and on.any():
            level = max(lam, float(np.mean(s[on] * r[on])))
    on_support = np.abs(r[on] - level * s[on])
    off_support = np.maximum(np.abs(r[~on]) - level, 0.0)
    return float(np.concatenate([on_support, off_support, [0.0]]).max())


@st.composite
def centred_ball_prox_cases(draw):
    shape = draw(st.sampled_from([(1,), (2,), (7,), (2, 2), (4, 4)]))
    scale = draw(st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3]))
    unit = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5]),
                     st.floats(-1.0, 1.0))
    v = np.array(draw(st.lists(unit, min_size=math.prod(shape),
                               max_size=math.prod(shape))))
    return {
        "norm": draw(st.sampled_from([1, 2])),
        "v": v.reshape(shape) * scale,
        "radius": draw(st.floats(0.02, 2.0)) * scale,
        "eta": draw(st.sampled_from([0.25, 1.0, 2.0])),
        "tau": draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.5))) * scale,
    }


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(centred_ball_prox_cases())
def test_centred_ball_prox_satisfies_kkt(case):
    # with scale 0.5 the step is kappa = eta and starts from theta_hat = 0,
    # so the target is soft_threshold(-eta g, eta tau) projected on the ball
    v, eta, tau = case["v"], case["eta"], case["tau"]
    geom = SquaredEuclidean(0.5)
    fset = Ball(np.zeros(v.shape), case["radius"], norm=case["norm"])
    state = dmd_init(geom, fset, IdentityModel(), ConstantStep(eta))
    loss = CompositeLoss(ConstantGradient(-v / eta), L1Regularizer(tau))
    new, _, _ = dmd_step(state, loss)
    v_step = state.theta_hat - eta * loss.f_gradient(state.theta_hat)
    tol = 1e-12 * (1.0 + float(np.abs(v_step).max()))
    assert fset.contains(new.theta_tilde, tol=1e-12 * (1.0 + fset.radius))
    assert ball_prox_kkt_residual(fset, v_step, eta * tau, new.theta_tilde) <= tol


def test_off_centre_ball_with_prox_raises():
    geom = SquaredEuclidean(1.0)
    fset = Ball(np.array([0.5, 0.0]), 1.0)
    state = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.5))
    loss = least_squares(np.eye(2), np.array([2.0, -1.0]), tau=0.1)
    with pytest.raises(ValueError) as err:
        dmd_step(state, loss)
    msg = str(err.value)
    assert "t=1" in msg and "expert 0" in msg and "prox" in msg


def test_off_centre_ball_without_prox_still_steps():
    geom = SquaredEuclidean(1.0)
    fset = Ball(np.array([0.5, 0.0]), 1.0)
    state = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.5))
    loss = least_squares(np.eye(2), np.array([2.0, -1.0]), tau=0.0)
    new, _, _ = dmd_step(state, loss)
    v = state.theta_hat - 0.25 * loss.f_gradient(state.theta_hat)
    assert np.array_equal(new.theta_tilde, fset.project(v))


def test_iterates_stay_feasible():
    rng = np.random.default_rng(31)
    geom = SquaredEuclidean(1.0)
    fset = Box(0.0, 1.0, shape=(16,))
    state = dmd_init(geom, fset, PixelShift(1, 4, 4), DoublingStep(8, 2, 0.5))
    for loss in make_stream(rng, 40, 6, 16, tau=0.05, scale=1.5):
        state, pred, _ = dmd_step(state, loss)
        assert fset.contains(state.theta_tilde, tol=0.0)
        assert fset.contains(pred, tol=0.0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_step_error_names_round():
    geom = SquaredEuclidean(1.0)
    fset = Unconstrained(2)
    state_far = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.1),
                         theta0=np.array([1e200, 0.0]))
    huge = least_squares(np.full((1, 2), 1e200), np.zeros(1))
    with pytest.raises(FloatingPointError, match="t=1"):
        dmd_step(state_far, huge)


def test_init_rejects_infeasible_start():
    geom = SquaredEuclidean(1.0)
    fset = Box(0.0, 1.0, shape=2)
    with pytest.raises(ValueError):
        dmd_init(geom, fset, IdentityModel(), ConstantStep(0.1),
                 theta0=np.array([2.0, 0.0]))
    with pytest.raises(ValueError):
        dmd_init(geom, fset, IdentityModel(), ConstantStep(0.1), reg_period=0)


def test_static_regret_bound_with_exact_constants():
    # constant-step static learner, horizon-tuned step size, box comparators:
    # regret <= G * sqrt(2 T D_max / sigma) for every static comparator
    rng = np.random.default_rng(37)
    T, d = 64, 2
    geom = SquaredEuclidean(0.5)
    fset = Box(-1.0, 1.0, shape=d)
    losses = make_stream(rng, T, 3, d, tau=0.0)
    vertices = [np.array(v, dtype=float)
                for v in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    g_f = max(np.linalg.norm(l.f_gradient(v)) for l in losses for v in vertices)
    d_max = geom.scale * 8.0  # squared diameter of the box is 8
    eta = math.sqrt(2.0 * geom.sigma * d_max) / (g_f * math.sqrt(T))
    state = comid_init(geom, fset, ConstantStep(eta))
    preds = []
    for loss in losses:
        preds.append(state.theta_hat)
        state, _, _ = comid_step(state, loss)
    bound = g_f * math.sqrt(2.0 * T * d_max / geom.sigma)
    comparators = vertices + [fset.sample(rng, 1)[0] for _ in range(50)]
    for comp in comparators:
        reg = (sum(l.value(p) for l, p in zip(losses, preds))
               - sum(l.value(comp) for l in losses))
        assert reg <= bound + 1e-9


def test_lemma1_check_trivial_case():
    # zero-gradient loss, static comparator equal to the prediction
    geom = SquaredEuclidean(1.0)
    fset = Unconstrained(2)
    theta0 = np.array([0.3, -0.4])
    loss = least_squares(np.eye(2), theta0, tau=0.0)
    from dynmd import BoundConstants
    consts = BoundConstants(g_ell=1.0, big_m=1.0, d_max=1.0, sigma=geom.sigma)
    before = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.5), theta0=theta0)
    after, _, _ = dmd_step(before, loss)
    ok, slack = lemma1_check(before, after, loss, (theta0, theta0), consts)
    assert ok
    assert slack >= 0.0


def test_lemma1_check_requires_consecutive_states():
    geom = SquaredEuclidean(1.0)
    fset = Unconstrained(2)
    state = dmd_init(geom, fset, IdentityModel(), ConstantStep(0.5))
    with pytest.raises(ValueError):
        lemma1_check(state, state, least_squares(np.eye(2), np.zeros(2)),
                     (np.zeros(2), np.zeros(2)),
                     None)


def test_lemma1_holds_along_tracked_run():
    # drifting truth, matching shift model, run-sampled constants: the
    # per-step certificate must hold at every step
    rng = np.random.default_rng(41)
    rows = cols = 6
    n = rows * cols
    geom = SquaredEuclidean(1.0)
    fset = Box(0.0, 1.0, shape=(n,))
    model = PixelShift(0, rows, cols)  # east
    T = 30
    frame = np.zeros((rows, cols))
    frame[2:4, 0:2] = 1.0
    truth = [frame.ravel().copy()]
    for _ in range(T):
        truth.append(model.apply(truth[-1]))
    losses = []
    for t in range(T):
        A = rng.normal(size=(24, n)) / math.sqrt(24.0)
        x = A @ truth[t] + 0.05 * rng.normal(size=24)
        losses.append(least_squares(A, x, tau=0.02))
    state = dmd_init(geom, fset, model, DoublingStep(8, 2, 0.4))
    transitions = []
    for loss in losses:
        before = state
        state, _, _ = dmd_step(state, loss)
        transitions.append((before, state))
    pts = [b.theta_hat for b, _ in transitions] + [state.theta_hat] + truth
    assert all(fset.contains(p) for p in pts)
    consts = sampled_constants(geom, losses, pts)
    for t, (before, after) in enumerate(transitions):
        ok, slack = lemma1_check(before, after, losses[t],
                                 (truth[t], truth[t + 1]), consts)
        assert ok, f"certificate failed at t={t + 1} with slack {slack}"
