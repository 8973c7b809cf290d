"""Composite per-round losses: a smooth data-fit term plus an l1 penalty.

Two data-fit families are provided.  Least squares covers compressive
observation streams (f(theta) = 0.5 ||x - A theta||^2).  The binary-vote
pseudolikelihood covers influence-matrix tracking: each agent a with vote
x_a in {-1, 0, +1} contributes

    f_a(theta) = log(1 + exp(-z_a)),
    z_a = 2 theta_aa x_a + 2 x_a sum_{b != a} theta_ab x_b,

which is the negative log of the logistic conditional of x_a given the
other votes.  Missing votes are encoded as 0 and drop out of every term.
The matrix theta is not symmetrized; entry (a, b) only enters agent a's
component.

A data-fit term implements exactly value(theta) at one point and
values_and_grads(thetas), the values and gradients of every row of a
(k, *shape) stack.  A pool scores one round in a single call, and a point's
gradient is row 0 of a one-row stack, so a lone tracker is a pool of one.
"""

from dataclasses import dataclass

import numpy as np


def logistic(z):
    """Elementwise 1 / (1 + exp(-z)).  exp is only taken of -|z|, so it
    cannot overflow for any z, infinities included."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class L1Regularizer:
    """r(theta) = tau * sum |theta_i| with its scaled prox (soft threshold)."""

    def __init__(self, tau):
        if tau < 0 or not np.isfinite(tau):
            raise ValueError(f"tau must be finite and >= 0, got {tau}")
        self.tau = float(tau)

    def value(self, theta):
        return self.tau * float(np.abs(theta).sum())

    def values(self, thetas):
        """value() of every row of a (k, *shape) stack."""
        return self.tau * np.abs(thetas.reshape(len(thetas), -1)).sum(axis=1)

    def prox(self, v, kappa):
        """argmin_u kappa * r(u) + 0.5 ||u - v||^2, i.e. soft threshold at kappa * tau."""
        if not (kappa > 0):
            raise ValueError(f"kappa must be positive, got {kappa}")
        v = np.asarray(v, dtype=float)
        thr = kappa * self.tau
        return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)

    def subgradient(self, theta):
        # canonical choice: sign(0) = 0 (the minimal-norm subgradient)
        return self.tau * np.sign(np.asarray(theta, dtype=float))

    def __repr__(self):
        return f"L1Regularizer(tau={self.tau})"


class LeastSquaresLoss:
    """f(theta) = 0.5 * ||x - A theta||^2 for one round's sensing pair (A, x).

    Only the shapes are checked here: least_squares() checks that a user's
    A and x are finite, and a program that builds its own matrices builds
    this directly.
    """

    def __init__(self, A, x):
        A = np.asarray(A, dtype=float)
        x = np.asarray(x, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"A must be a matrix, got ndim={A.ndim}")
        if x.shape != (A.shape[0],):
            raise ValueError(f"x has shape {x.shape}, expected ({A.shape[0]},)")
        self.A = A
        self.x = x

    def _residuals(self, thetas):
        """R = Theta A^T - x: row i is the residual of row i of a (k, n) stack."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.A.shape[1]:
            raise ValueError(
                f"thetas have shape {thetas.shape}, expected (k, {self.A.shape[1]})")
        return thetas @ self.A.T - self.x

    def value(self, theta):
        R = self._residuals(np.asarray(theta, dtype=float)[None])
        return 0.5 * float(np.einsum("ij,ij->i", R, R)[0])

    def values_and_grads(self, thetas):
        """value() and the gradient G = R A of every row of a (k, n) stack."""
        R = self._residuals(thetas)
        return 0.5 * np.einsum("ij,ij->i", R, R), R @ self.A


class IsingPseudolikelihoodLoss:
    """Sum over agents of the logistic-conditional negative log likelihood.

    votes is a length-p vector over {-1, 0, +1}, tested exactly as
    sign(v) == v, which holds for -1, +-0 and +1 and for no other float
    (NaN and +-inf included).  Parameters are p x p matrices with entries
    in [-1, 1], checked by one max |theta| reduction that NaN and +-inf
    also fail.  Evaluation is overflow safe: log(1 + e^z) is computed as
    logaddexp(0, z).
    """

    def __init__(self, votes):
        v = np.asarray(votes, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("votes must be a non-empty vector")
        if not (np.sign(v) == v).all():
            raise ValueError("votes must take values in {-1, 0, +1}")
        self.votes = v
        self.p = v.size

    def _check_theta(self, thetas):
        """thetas as a (k, p, p) stack; a point is checked as a one-row stack."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 3 or thetas.shape[1:] != (self.p, self.p):
            raise ValueError(
                f"thetas have shape {thetas.shape}, expected (k, {self.p}, {self.p})")
        if not np.abs(thetas).max() <= 1.0 + 1e-9:  # false for NaN and inf too
            if not np.isfinite(thetas).all():
                raise ValueError("theta must be finite")
            raise ValueError("theta entries must lie in [-1, 1]")
        return thetas

    def _z(self, thetas):
        # the (k, p) margins of a (k, p, p) stack
        x = self.votes
        diag = np.diagonal(thetas, axis1=-2, axis2=-1)
        return 2.0 * diag * x + 2.0 * x * (thetas @ x - diag * x)

    def per_agent_values(self, theta):
        """Vector of the p per-agent components (their sum is the loss)."""
        z = self._z(self._check_theta(np.asarray(theta, dtype=float)[None]))
        return np.logaddexp(0.0, -z[0])

    def value(self, theta):
        return float(self.per_agent_values(theta).sum())

    def values_and_grads(self, thetas):
        """value() and the gradient of every matrix of a (k, p, p) stack."""
        z = self._z(self._check_theta(thetas))
        u = -2.0 * self.votes * (1.0 - logistic(z))
        g = u[:, :, None] * self.votes
        np.einsum("kii->ki", g)[...] = u
        return np.logaddexp(0.0, -z).sum(axis=1), g


@dataclass(frozen=True)
class CompositeLoss:
    """One round's loss ell(theta) = f(theta) + r(theta)."""

    f: object
    r: L1Regularizer

    def value(self, theta):
        return self.f.value(theta) + self.r.value(theta)

    def f_value(self, theta):
        return self.f.value(theta)

    def f_gradient(self, theta):
        """Row 0 of f.values_and_grads at the one-row stack theta[None]."""
        return self.f.values_and_grads(np.asarray(theta, dtype=float)[None])[1][0]

    def prox_r(self, v, kappa):
        return self.r.prox(v, kappa)

    def subgradient(self, theta):
        return self.f_gradient(theta) + self.r.subgradient(theta)

    def values_and_grads(self, thetas):
        """Composite values and smooth-part gradients of a (k, *shape) stack.

        Returns (values, grads): values[i] = value(thetas[i]) and grads[i] =
        f_gradient(thetas[i]), both from one pass of the data-fit term.  An
        entry that overflows is returned without a warning: the pool's round
        checks both and names the round and the expert.
        """
        thetas = np.asarray(thetas, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            f_values, grads = self.f.values_and_grads(thetas)
            return f_values + self.r.values(thetas), grads


def least_squares(A, x, tau=0.0):
    """The composite least-squares loss of a user's sensing pair (A, x),
    which must be finite."""
    f = LeastSquaresLoss(A, x)
    if not (np.all(np.isfinite(f.A)) and np.all(np.isfinite(f.x))):
        raise ValueError("A and x must be finite")
    return CompositeLoss(f, L1Regularizer(tau))


def vote_pseudolikelihood(votes, tau=0.0):
    return CompositeLoss(IsingPseudolikelihoodLoss(votes), L1Regularizer(tau))
