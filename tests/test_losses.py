import math

import numpy as np
import pytest

from conftest import central_diff, rel_err
from dynmd import (
    IsingPseudolikelihoodLoss,
    L1Regularizer,
    LeastSquaresLoss,
    least_squares,
    vote_pseudolikelihood,
)


def ls_value_oracle(A, x, theta):
    # scalar-loop evaluation of 0.5 * ||x - A theta||^2
    m, n = A.shape
    total = 0.0
    for i in range(m):
        r = x[i] - sum(A[i, j] * theta[j] for j in range(n))
        total += 0.5 * r * r
    return total


def ising_value_oracle(theta, votes):
    # naive per-agent evaluation with the unsafe exp form (small z only)
    p = len(votes)
    total = 0.0
    for a in range(p):
        z = 2.0 * theta[a, a] * votes[a]
        for b in range(p):
            if b != a:
                z += 2.0 * theta[a, b] * votes[a] * votes[b]
        total += -z + math.log(math.exp(z) + 1.0)
    return total


def test_least_squares_zero_at_exact_fit():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 4))
    theta = rng.normal(size=4)
    loss = LeastSquaresLoss(A, A @ theta)
    assert loss.value(theta) == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(loss.gradient(theta), 0.0, atol=1e-12)


def test_least_squares_identity_example():
    loss = LeastSquaresLoss(np.eye(2), np.array([1.0, 0.0]))
    theta = np.zeros(2)
    assert loss.value(theta) == pytest.approx(0.5, rel=1e-15)
    assert np.allclose(loss.gradient(theta), [-1.0, 0.0], atol=1e-15)


def test_least_squares_value_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.normal(size=(4, 6))
        x = rng.normal(size=4)
        theta = rng.normal(size=6)
        loss = LeastSquaresLoss(A, x)
        assert loss.value(theta) == pytest.approx(ls_value_oracle(A, x, theta), rel=1e-12)


def test_least_squares_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.normal(size=(5, 8))
        x = rng.normal(size=5)
        theta = rng.normal(size=8)
        loss = LeastSquaresLoss(A, x)
        fd = central_diff(loss.value, theta)
        assert rel_err(loss.gradient(theta), fd) <= 1e-5


def test_least_squares_shape_errors():
    with pytest.raises(ValueError):
        LeastSquaresLoss(np.eye(2), np.zeros(3))
    loss = LeastSquaresLoss(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        loss.value(np.zeros(3))
    with pytest.raises(ValueError):
        LeastSquaresLoss(np.array([[np.inf, 0.0]]), np.zeros(1))


def test_ising_zero_matrix_value():
    # z = 0 for every agent, each contributes log 2
    loss = IsingPseudolikelihoodLoss(np.array([1.0, -1.0]))
    assert loss.value(np.zeros((2, 2))) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)


def test_ising_all_votes_missing():
    rng = np.random.default_rng(11)
    p = 5
    theta = np.clip(rng.normal(scale=0.4, size=(p, p)), -1.0, 1.0)
    loss = IsingPseudolikelihoodLoss(np.zeros(p))
    assert loss.value(theta) == pytest.approx(p * math.log(2.0), rel=1e-15)
    assert np.array_equal(loss.gradient(theta), np.zeros((p, p)))


def test_ising_single_vote_gradient_example():
    # one +1 vote, zero matrix: d/d theta_aa = -2 * 1 * (1 - 1/2) = -1
    p = 3
    votes = np.array([1.0, 0.0, 0.0])
    loss = IsingPseudolikelihoodLoss(votes)
    g = loss.gradient(np.zeros((p, p)))
    want = np.zeros((p, p))
    want[0, 0] = -1.0
    assert np.allclose(g, want, atol=1e-15)


def test_ising_value_matches_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        p = 3
        votes = rng.choice([-1.0, 0.0, 1.0], size=p)
        theta = rng.uniform(-1.0, 1.0, size=(p, p))
        loss = IsingPseudolikelihoodLoss(votes)
        assert loss.value(theta) == pytest.approx(ising_value_oracle(theta, votes), rel=1e-12)


def test_ising_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = 4
        votes = rng.choice([-1.0, 0.0, 1.0], size=p)
        theta = rng.uniform(-0.9, 0.9, size=(p, p))
        loss = IsingPseudolikelihoodLoss(votes)
        fd = central_diff(loss.value, theta)
        assert rel_err(loss.gradient(theta), fd) <= 1e-5


def test_ising_value_overflow_safe():
    # all agree, strong couplings: the naive exp(z) form would overflow
    p = 200
    votes = np.ones(p)
    theta = np.ones((p, p))
    loss = IsingPseudolikelihoodLoss(votes)
    v = loss.value(theta)
    assert np.isfinite(v)
    assert v == pytest.approx(0.0, abs=1e-100)  # softplus(-z) underflows to 0 for huge z
    g = loss.gradient(theta)
    assert np.all(np.isfinite(g))


def test_ising_missing_vote_row_independence():
    # with x_a = 0, the value must not depend on row a's off-diagonals
    rng = np.random.default_rng(19)
    p = 4
    votes = np.array([1.0, 0.0, -1.0, 1.0])
    theta = rng.uniform(-0.5, 0.5, size=(p, p))
    loss = IsingPseudolikelihoodLoss(votes)
    base = loss.value(theta)
    theta2 = theta.copy()
    theta2[1, [0, 2, 3]] = rng.uniform(-0.5, 0.5, size=3)
    assert loss.value(theta2) == pytest.approx(base, rel=1e-14)


def test_ising_matrix_not_symmetrized():
    # entry (a, b) only enters agent a's term: perturbing (0, 1) with x_1 = 0
    # present but x_0 = 0 missing must change nothing
    votes = np.array([0.0, 1.0, 1.0])
    theta = np.full((3, 3), 0.2)
    loss = IsingPseudolikelihoodLoss(votes)
    base = loss.value(theta)
    theta2 = theta.copy()
    theta2[0, 1] = -0.7
    assert loss.value(theta2) == pytest.approx(base, rel=1e-14)


def test_ising_per_agent_components_sum_to_value():
    rng = np.random.default_rng(23)
    p = 6
    votes = rng.choice([-1.0, 0.0, 1.0], size=p)
    theta = rng.uniform(-1.0, 1.0, size=(p, p))
    loss = IsingPseudolikelihoodLoss(votes)
    comp = loss.per_agent_values(theta)
    assert comp.shape == (p,)
    assert np.all(comp >= 0)
    assert comp.sum() == pytest.approx(loss.value(theta), rel=1e-14)


def test_ising_domain_errors():
    loss = IsingPseudolikelihoodLoss(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        loss.value(np.full((2, 2), 1.5))
    with pytest.raises(ValueError):
        loss.value(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        IsingPseudolikelihoodLoss(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        IsingPseudolikelihoodLoss(np.zeros((2, 2)))


def test_l1_prox_frozen_example():
    reg = L1Regularizer(0.3)
    out = reg.prox(np.array([0.5, -0.2]), kappa=1.0)
    assert np.allclose(out, [0.2, 0.0], atol=1e-15)


def test_l1_prox_tau_zero_identity():
    reg = L1Regularizer(0.0)
    v = np.array([0.5, -0.2, 0.0])
    assert np.array_equal(reg.prox(v, kappa=2.0), v)
    assert reg.value(v) == 0.0


def test_l1_prox_zero_iff_below_threshold():
    reg = L1Regularizer(0.4)
    rng = np.random.default_rng(29)
    for _ in range(200):
        v = rng.normal(size=3)
        kappa = rng.uniform(0.1, 2.0)
        out = reg.prox(v, kappa)
        thr = kappa * reg.tau
        for vi, oi in zip(v, out):
            assert (oi == 0.0) == (abs(vi) <= thr)


def test_l1_prox_matches_grid_minimization():
    # prox_r(v, kappa) = argmin_u kappa*tau*|u| + 0.5*(u - v)^2, per coordinate
    reg = L1Regularizer(0.7)
    grid = np.arange(-3.0, 3.0, 1e-4)
    rng = np.random.default_rng(31)
    for _ in range(10):
        v = rng.uniform(-2.0, 2.0)
        kappa = rng.uniform(0.2, 1.5)
        obj = kappa * reg.tau * np.abs(grid) + 0.5 * (grid - v) ** 2
        best = grid[np.argmin(obj)]
        out = reg.prox(np.array([v]), kappa)[0]
        assert abs(out - best) <= 1e-3


def test_l1_prox_kappa_errors():
    reg = L1Regularizer(0.3)
    with pytest.raises(ValueError):
        reg.prox(np.zeros(2), kappa=0.0)
    with pytest.raises(ValueError):
        reg.prox(np.zeros(2), kappa=-1.0)
    with pytest.raises(ValueError):
        L1Regularizer(-0.1)


def test_losses_are_convex_along_segments():
    rng = np.random.default_rng(37)
    A = rng.normal(size=(6, 5))
    x = rng.normal(size=6)
    ls = least_squares(A, x, tau=0.3)
    votes = rng.choice([-1.0, 0.0, 1.0], size=5)
    ising = vote_pseudolikelihood(votes, tau=0.3)
    for _ in range(1000):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        mid = 0.5 * (a + b)
        assert ls.value(mid) <= 0.5 * ls.value(a) + 0.5 * ls.value(b) + 1e-12
        ta = rng.uniform(-1.0, 1.0, size=(5, 5))
        tb = rng.uniform(-1.0, 1.0, size=(5, 5))
        tm = 0.5 * (ta + tb)
        assert ising.value(tm) <= 0.5 * ising.value(ta) + 0.5 * ising.value(tb) + 1e-12


def test_composite_value_is_sum_of_parts():
    rng = np.random.default_rng(41)
    A = rng.normal(size=(4, 3))
    x = rng.normal(size=4)
    loss = least_squares(A, x, tau=0.5)
    theta = rng.normal(size=3)
    assert loss.value(theta) == loss.f_value(theta) + loss.r_value(theta)
    assert np.allclose(loss.subgradient(theta),
                       loss.f_gradient(theta) + 0.5 * np.sign(theta), atol=1e-15)


def test_composite_nonnegative_for_both_families():
    rng = np.random.default_rng(43)
    A = rng.normal(size=(4, 3))
    x = rng.normal(size=4)
    ls = least_squares(A, x, tau=0.2)
    ising = vote_pseudolikelihood(np.array([1.0, -1.0, 0.0]), tau=0.2)
    for _ in range(100):
        assert ls.value(rng.normal(size=3)) >= 0.0
        assert ising.value(rng.uniform(-1.0, 1.0, size=(3, 3))) >= 0.0


@pytest.mark.parametrize("family", ["least_squares", "votes"])
def test_values_and_grads_match_pointwise_calls(family):
    rng = np.random.default_rng(47)
    for _ in range(20):
        if family == "least_squares":
            loss = least_squares(rng.normal(size=(7, 12)), rng.normal(size=7),
                                 tau=0.3)
            shape = (12,)
        else:
            loss = vote_pseudolikelihood(rng.choice([-1.0, 0.0, 1.0], size=6),
                                         tau=0.3)
            shape = (6, 6)
        for k in (1, 2, 5):
            thetas = rng.uniform(-1.0, 1.0, size=(k,) + shape)
            values, grads = loss.values_and_grads(thetas)
            assert values.shape == (k,) and grads.shape == thetas.shape
            for i in range(k):
                want_v, want_g = loss.value(thetas[i]), loss.f_gradient(thetas[i])
                if k == 1 or family == "votes":
                    # one point keeps the pointwise arithmetic; the vote
                    # loss is elementwise apart from per-point products
                    assert values[i] == want_v
                    assert np.array_equal(grads[i], want_g)
                else:
                    assert values[i] == pytest.approx(want_v, rel=1e-12)
                    assert rel_err(grads[i], want_g) <= 1e-12


def test_values_and_grads_shape_errors():
    ls = least_squares(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        ls.values_and_grads(np.zeros(3))
    with pytest.raises(ValueError):
        ls.values_and_grads(np.zeros((2, 4)))
    ising = vote_pseudolikelihood(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        ising.values_and_grads(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ising.values_and_grads(np.full((1, 2, 2), 2.0))
