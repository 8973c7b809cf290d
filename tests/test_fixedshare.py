import math
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rel_err
from dynmd import (
    Ball,
    Box,
    ConstantStep,
    DoublingStep,
    IdentityModel,
    NetworkAttraction,
    PixelShift,
    SquaredEuclidean,
    Unconstrained,
    default_lambda,
    dfs_step,
    dmd_init,
    dmd_step,
    fixed_share_init,
    least_squares,
    vote_pseudolikelihood,
)


def make_experts(n, theta0s, geom=None, fset=None, sched=None):
    geom = geom or SquaredEuclidean(1.0)
    fset = fset or Unconstrained(len(theta0s[0]))
    sched = sched or ConstantStep(0.5)
    return [dmd_init(geom, fset, IdentityModel(), sched, theta0=np.asarray(th, float))
            for th in theta0s[:n]]


def linear_share(weights, losses, eta_r, lam):
    wtilde = weights * np.exp(-eta_r * losses)
    w = (lam / len(weights)) * wtilde.sum() + (1.0 - lam) * wtilde
    return w / w.sum()


def test_equal_losses_keep_uniform_weights():
    # zero sensing matrix: every prediction incurs the same loss
    experts = make_experts(3, [[0.0, 0.0], [1.0, -1.0], [2.0, 2.0]])
    state = fixed_share_init(experts, lam=0.2, eta_r=1.0)
    loss = least_squares(np.zeros((2, 2)), np.array([1.0, 2.0]))
    for _ in range(5):
        state, _, losses = dfs_step(state, loss)
        assert np.all(losses == losses[0])
        assert np.array_equal(state.weights, np.full(3, 1.0 / 3.0))


def test_full_share_resets_to_uniform():
    experts = make_experts(3, [[0.0], [1.0], [5.0]])
    state = fixed_share_init(experts, lam=1.0, eta_r=2.0)
    loss = least_squares(np.array([[1.0]]), np.array([0.0]))
    state, _, _ = dfs_step(state, loss)
    assert np.allclose(state.weights, 1.0 / 3.0, atol=1e-15)


def test_two_expert_hand_example():
    # losses 0 and 1 at eta_r = 1, lam = 0: weights are the logistic split
    experts = make_experts(2, [[0.0], [math.sqrt(2.0)]])
    state = fixed_share_init(experts, lam=0.0, eta_r=1.0)
    loss = least_squares(np.array([[1.0]]), np.array([0.0]))
    state, agg, losses = dfs_step(state, loss)
    assert np.allclose(losses, [0.0, 1.0], atol=1e-15)
    assert abs(state.weights[0] - 0.7310585786300049) < 1e-12
    assert abs(state.weights[1] - 0.2689414213699951) < 1e-12
    assert abs(agg[0] - 0.2689414213699951 * math.sqrt(2.0)) < 1e-12


def test_matches_linear_space_oracle():
    rng = np.random.default_rng(43)
    geom = SquaredEuclidean(1.0)
    fset = Box(-1.0, 1.0, shape=3)
    theta0s = [fset.sample(rng, 1)[0] for _ in range(4)]
    sched = ConstantStep(0.3)
    experts = [dmd_init(geom, fset, IdentityModel(), sched, theta0=th)
               for th in theta0s]
    lam, eta_r = 0.05, 0.8
    state = fixed_share_init(experts, lam=lam, eta_r=eta_r)
    w = state.weights.copy()
    for _ in range(30):
        loss = least_squares(rng.normal(size=(4, 3)), rng.normal(size=4), tau=0.02)
        preds = np.stack([e.theta_hat for e in state.experts])
        losses_ref = np.array([loss.value(p) for p in preds])
        w = linear_share(w, losses_ref, eta_r, lam)
        agg_ref = w @ preds
        state, agg, losses = dfs_step(state, loss)
        assert np.allclose(losses, losses_ref, atol=1e-12)
        assert np.allclose(state.weights, w, atol=1e-12)
        assert np.allclose(agg, agg_ref, atol=1e-12)


def test_experts_advance_like_standalone_steps():
    rng = np.random.default_rng(53)
    experts = make_experts(3, [[0.0, 0.0], [1.0, 1.0], [-1.0, 0.5]])
    state = fixed_share_init(experts, lam=0.1, eta_r=1.0)
    loss = least_squares(rng.normal(size=(3, 2)), rng.normal(size=3), tau=0.1)
    solo = [dmd_step(e, loss)[0] for e in experts]
    state, _, _ = dfs_step(state, loss)
    for adv, ref in zip(state.experts, solo):
        assert np.array_equal(adv.theta_hat, ref.theta_hat)
        assert adv.t == ref.t == 2


def test_experts_are_read_only_views_of_the_stacks():
    rng = np.random.default_rng(71)
    geom = SquaredEuclidean(0.5)
    fset = Box(-1.0, 1.0, shape=6)
    sched = DoublingStep(2, 2, 0.3)
    experts = [dmd_init(geom, fset, m, sched, reg_period=2)
               for m in (PixelShift(0, 2, 3), IdentityModel(), PixelShift(4, 2, 3))]
    state = fixed_share_init(experts, lam=0.1, eta_r=1.0)
    assert "experts" not in {f.name for f in dataclasses.fields(state)}
    for _ in range(2):
        loss = least_squares(rng.normal(size=(4, 6)), rng.normal(size=4), tau=0.1)
        state, _, _ = dfs_step(state, loss)
    views = state.experts
    assert len(views) == 3
    for i, (view, orig) in enumerate(zip(views, experts)):
        for part in ("geom", "fset", "model", "schedule"):
            assert getattr(view, part) is getattr(orig, part)
        assert view.reg_period == orig.reg_period == 2
        assert view.t == state.t == 3
        assert np.array_equal(view.theta_hat, state.theta_hat[i])
        assert np.array_equal(view.theta_tilde, state.theta_tilde[i])
        assert np.shares_memory(view.theta_hat, state.theta_hat)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.experts = views


@pytest.mark.parametrize("part", ["geom", "fset", "schedule", "reg_period"])
def test_pool_rejects_experts_with_other_parts(part):
    # a pool's experts differ only in their models; equal values in other
    # objects are other parts, because sameness is by identity
    shared = {"geom": SquaredEuclidean(1.0), "fset": Box(-1.0, 1.0, shape=2),
              "schedule": ConstantStep(0.5), "reg_period": 1}
    other = {"geom": SquaredEuclidean(1.0), "fset": Box(-1.0, 1.0, shape=2),
             "schedule": ConstantStep(0.5), "reg_period": 2}
    experts = [dmd_init(model=m, **shared)
               for m in (IdentityModel(), PixelShift(0, 1, 2))]
    experts.append(dmd_init(model=PixelShift(4, 1, 2),
                            **{**shared, part: other[part]}))
    with pytest.raises(ValueError,
                       match=rf"expert 2 \(W\) does not share expert 0's {part}"):
        fixed_share_init(experts, lam=0.1, eta_r=1.0)


def test_single_expert_reduces_to_plain_dmd():
    # N = 1: weights collapse to exactly 1.0, the stream is bit-identical
    rng = np.random.default_rng(59)
    geom = SquaredEuclidean(1.0)
    fset = Box(0.0, 1.0, shape=4)
    sched = DoublingStep(8, 2, 0.5)
    losses = [least_squares(rng.normal(size=(3, 4)), rng.normal(size=3), tau=0.05)
              for _ in range(50)]
    expert = dmd_init(geom, fset, IdentityModel(), sched)
    state = fixed_share_init([expert], lam=0.3, eta_r=0.7)
    solo = dmd_init(geom, fset, IdentityModel(), sched)
    for loss in losses:
        pred_solo = solo.theta_hat
        solo, _, _ = dmd_step(solo, loss)
        state, agg, _ = dfs_step(state, loss)
        assert state.weights[0] == 1.0
        assert np.array_equal(agg, pred_solo)
    assert np.array_equal(state.experts[0].theta_hat, solo.theta_hat)


def test_weight_floor_and_simplex_invariants():
    rng = np.random.default_rng(61)
    lam = 0.1
    experts = make_experts(5, [[float(i), -float(i)] for i in range(5)])
    state = fixed_share_init(experts, lam=lam, eta_r=2.0)
    for _ in range(40):
        loss = least_squares(rng.normal(size=(2, 2)) * 3.0, rng.normal(size=2))
        state, _, _ = dfs_step(state, loss)
        assert abs(state.weights.sum() - 1.0) <= 1e-12
        assert np.all(state.weights >= lam / 5 - 1e-15)


def test_huge_losses_stay_finite():
    # 1e4-scale losses would underflow exp in linear space
    experts = make_experts(2, [[0.0], [200.0]])
    state = fixed_share_init(experts, lam=0.0, eta_r=1.0)
    loss = least_squares(np.array([[1.0]]), np.array([0.0]))
    state, _, losses = dfs_step(state, loss)
    assert losses[1] == 20000.0
    assert np.all(np.isfinite(state.weights))
    assert state.weights[0] > 1.0 - 1e-12
    assert state.weights[1] >= 0.0


def test_loss_offset_cancels_in_weights():
    # appending a constant-energy row shifts every loss by the same amount
    rng = np.random.default_rng(67)
    A = rng.normal(size=(3, 2))
    x = rng.normal(size=3)
    offset = 8.0
    A2 = np.vstack([A, np.zeros((1, 2))])
    x2 = np.append(x, math.sqrt(2.0 * offset))
    sa = fixed_share_init(make_experts(3, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                          lam=0.05, eta_r=0.5)
    sb = fixed_share_init(make_experts(3, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                          lam=0.05, eta_r=0.5)
    sa, _, la = dfs_step(sa, least_squares(A, x))
    sb, _, lb = dfs_step(sb, least_squares(A2, x2))
    assert np.allclose(lb - la, offset, atol=1e-9)
    assert np.allclose(sa.weights, sb.weights, atol=1e-10)


def test_better_expert_accumulates_weight():
    truth = np.array([0.0, 0.0])
    experts = make_experts(2, [truth.tolist(), [3.0, 3.0]])
    state = fixed_share_init(experts, lam=0.01, eta_r=1.0)
    loss = least_squares(np.eye(2), truth)
    for _ in range(20):
        state, _, _ = dfs_step(state, loss)
    assert state.weights[0] > 0.8
    assert state.weights[0] > state.weights[1]


def test_default_lambda_values_and_errors():
    assert default_lambda(2, 100) == 0.02
    assert default_lambda(0, 10) == 0.0
    with pytest.raises(ValueError):
        default_lambda(-1, 10)
    with pytest.raises(ValueError):
        default_lambda(10, 10)
    with pytest.raises(ValueError):
        default_lambda(1.5, 10)
    with pytest.raises(ValueError):
        default_lambda(0, 0)


def test_init_validation():
    experts = make_experts(2, [[0.0], [1.0]])
    with pytest.raises(ValueError):
        fixed_share_init([], lam=0.1, eta_r=1.0)
    with pytest.raises(ValueError):
        fixed_share_init(experts, lam=1.5, eta_r=1.0)
    for eta_r in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eta_r"):
            fixed_share_init(experts, lam=0.1, eta_r=eta_r)
    with pytest.raises(ValueError, match="lam"):
        fixed_share_init(experts, lam=math.nan, eta_r=1.0)
    mixed = make_experts(1, [[0.0]]) + make_experts(1, [[0.0, 0.0]])
    with pytest.raises(ValueError):
        fixed_share_init(mixed, lam=0.1, eta_r=1.0)


def test_nonfinite_loss_error_names_round():
    loss = least_squares(np.array([[1.0]]), np.array([0.0]))
    far = make_experts(2, [[0.0], [1e200]])
    state_far = fixed_share_init(far, lam=0.1, eta_r=1.0)
    with pytest.raises(FloatingPointError, match="t=1"):
        dfs_step(state_far, loss)


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_errors_name_round_expert_and_layer():
    experts = make_experts(2, [[0.0], [1e200]])
    state = fixed_share_init(experts, lam=0.1, eta_r=1.0)
    loss = least_squares(np.array([[1.0]]), np.array([0.0]))
    with pytest.raises(FloatingPointError,
                       match=r"loss value at round t=1, expert 1 \(identity\)"):
        dfs_step(state, loss)
    # finite losses with a non-finite gradient: the step layer names it
    state = fixed_share_init(make_experts(2, [[0.0], [0.5]]), lam=0.1, eta_r=1.0)
    grads = np.array([[0.0], [np.inf]])
    with pytest.raises(FloatingPointError,
                       match=r"gradient at round t=1, expert 1 \(identity\)"):
        dfs_step(state, loss, evaluated=(np.zeros(2), grads))
    huge = np.array([[0.0], [1e308]])
    wide = fixed_share_init(make_experts(2, [[0.0], [0.5]],
                                         sched=ConstantStep(1e10)),
                            lam=0.1, eta_r=1.0)
    with pytest.raises(FloatingPointError,
                       match=r"step at round t=1, expert 1 \(identity\)"):
        dfs_step(wide, loss, evaluated=(np.zeros(2), huge))


def reference_round(experts, weights, loss, eta_r, lam):
    """One pool round expert by expert on the reference's own DMD states and
    weights: loss.value and dmd_step per expert, with the log-space share
    update.  Returns (experts, weights, aggregate, losses)."""
    preds = [e.theta_hat for e in experts]
    losses = np.array([loss.value(p) for p in preds])
    with np.errstate(divide="ignore"):
        logw = np.log(weights) - eta_r * losses
    wtilde = np.exp(logw - logw.max())
    n = len(preds)
    w = (lam / n) * wtilde.sum() + (1.0 - lam) * wtilde
    w = w / w.sum()
    aggregated = np.tensordot(w, np.stack(preds), axes=1)
    experts = tuple(dmd_step(e, loss)[0] for e in experts)
    return experts, w, aggregated, losses


@st.composite
def pools(draw):
    n = draw(st.integers(1, 6))
    family = draw(st.sampled_from(["least_squares", "votes"]))
    set_kind = draw(st.sampled_from(["box", "ball", "unconstrained"]))
    # the vote loss is defined on [-1, 1] entries only
    assume(not (family == "votes" and set_kind == "unconstrained"))
    return {
        "n": n, "family": family, "set_kind": set_kind,
        "reg_period": draw(st.integers(1, 3)),
        "tau": draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        "scale": draw(st.sampled_from([0.5, 1.0, 2.0])),
        "rounds": draw(st.integers(1, 4)),
        "lam": draw(st.floats(0.0, 1.0)),
        "eta_r": draw(st.floats(0.01, 3.0)),
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
    }


def build_pool(spec):
    rng = np.random.default_rng(spec["seed"])
    n = spec["n"]
    if spec["family"] == "least_squares":
        shape = (6,)
        models = [PixelShift(int(d), 2, 3) if d < 8 else IdentityModel()
                  for d in rng.integers(0, 9, size=n)]

        def make_loss():
            return least_squares(rng.normal(size=(4, 6)), rng.normal(size=4),
                                 tau=spec["tau"])
    else:
        shape = (4, 4)
        models = [NetworkAttraction(float(a)) for a in rng.uniform(0, 1, size=n)]

        def make_loss():
            return vote_pseudolikelihood(rng.choice([-1.0, 0.0, 1.0], size=4),
                                         tau=spec["tau"])
    if spec["set_kind"] == "box":
        lo = rng.uniform(-1.0, 0.0, size=shape)
        fset = Box(lo, rng.uniform(0.0, 1.0, size=shape))
    elif spec["set_kind"] == "ball":
        fset = Ball(np.zeros(shape), rng.uniform(0.3, 1.0))
    else:
        fset = Unconstrained(shape)
    geom = SquaredEuclidean(spec["scale"])
    sched = DoublingStep(2, 2.0, rng.uniform(0.1, 1.0))
    experts = []
    for model in models:
        theta0 = fset.project(rng.uniform(-1.0, 1.0, size=shape))
        experts.append(dmd_init(geom, fset, model, sched,
                                reg_period=spec["reg_period"], theta0=theta0))
    state = fixed_share_init(experts, lam=spec["lam"], eta_r=spec["eta_r"])
    return tuple(experts), state, [make_loss() for _ in range(spec["rounds"])]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pools())
def test_stacked_round_matches_per_expert_loop(spec):
    ref, state, losses = build_pool(spec)
    w_ref = state.weights
    for loss in losses:
        state, agg, expert_losses = dfs_step(state, loss)
        ref, w_ref, agg_ref, losses_ref = reference_round(
            ref, w_ref, loss, state.eta_r, state.lam)
        if spec["n"] == 1:
            # one expert: the stacked round is the lone tracker, bit for bit
            assert state.weights[0] == 1.0 == w_ref[0]
            assert np.array_equal(agg, agg_ref)
            assert np.array_equal(expert_losses, losses_ref)
            pairs = [(e.theta_hat, r.theta_hat) for e, r in zip(state.experts, ref)]
            pairs += [(e.theta_tilde, r.theta_tilde) for e, r in zip(state.experts, ref)]
            assert all(np.array_equal(a, b) for a, b in pairs)
            continue
        assert np.allclose(expert_losses, losses_ref, rtol=1e-12, atol=0.0)
        assert np.allclose(state.weights, w_ref, rtol=1e-12, atol=0.0)
        assert rel_err(agg, agg_ref) <= 1e-12
        for e, r in zip(state.experts, ref):
            assert e.t == r.t
            assert rel_err(e.theta_hat, r.theta_hat) <= 1e-12
            assert rel_err(e.theta_tilde, r.theta_tilde) <= 1e-12
