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

Every family also evaluates a stack of k points at once:
CompositeLoss.values_and_grads(thetas) takes a (k, *shape) array and
returns the k composite values and the k smooth-part gradients, so a pool
of experts scores and differentiates one round's loss in a single call.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit


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
    """f(theta) = 0.5 * ||x - A theta||^2 for one round's sensing pair (A, x)."""

    def __init__(self, A, x):
        A = np.asarray(A, dtype=float)
        x = np.asarray(x, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"A must be a matrix, got ndim={A.ndim}")
        if x.shape != (A.shape[0],):
            raise ValueError(f"x has shape {x.shape}, expected ({A.shape[0]},)")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(x))):
            raise ValueError("A and x must be finite")
        self.A = A
        self.x = x

    def _check_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.A.shape[1],):
            raise ValueError(f"theta has shape {theta.shape}, expected ({self.A.shape[1]},)")
        return theta

    def value(self, theta):
        r = self.x - self.A @ self._check_theta(theta)
        return 0.5 * float(np.vdot(r, r))

    def gradient(self, theta):
        theta = self._check_theta(theta)
        return self.A.T @ (self.A @ theta - self.x)

    def values_and_grads(self, thetas):
        """value() and gradient() of every row of a (k, n) stack.

        k = 1 keeps the single-point arithmetic (matrix-vector products), so
        a lone tracker is bit-identical to value() and gradient(); k > 1
        uses two matrix-matrix products, R = Theta A^T - x and G = R A,
        which may round differently in the last digits.
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.A.shape[1]:
            raise ValueError(
                f"thetas have shape {thetas.shape}, expected (k, {self.A.shape[1]})")
        if len(thetas) == 1:
            r = self.A @ thetas[0] - self.x
            return np.array([0.5 * float(np.vdot(r, r))]), (self.A.T @ r)[None]
        R = thetas @ self.A.T - self.x
        return 0.5 * np.einsum("ij,ij->i", R, R), R @ self.A


class IsingPseudolikelihoodLoss:
    """Sum over agents of the logistic-conditional negative log likelihood.

    votes is a length-p vector over {-1, 0, +1}; parameters are p x p
    matrices with entries in [-1, 1] (domain-checked).  Evaluation is
    overflow safe: log(1 + e^z) is computed as logaddexp(0, z).
    """

    def __init__(self, votes):
        v = np.asarray(votes, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("votes must be a non-empty vector")
        if not np.all(np.isin(v, (-1.0, 0.0, 1.0))):
            raise ValueError("votes must take values in {-1, 0, +1}")
        self.votes = v
        self.p = v.size

    def _check_theta(self, theta, stacked=False):
        theta = np.asarray(theta, dtype=float)
        ndim = 3 if stacked else 2
        if theta.ndim != ndim or theta.shape[-2:] != (self.p, self.p):
            want = ("k", self.p, self.p) if stacked else (self.p, self.p)
            raise ValueError(f"theta has shape {theta.shape}, expected {want}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        if np.abs(theta).max() > 1.0 + 1e-9:
            raise ValueError("theta entries must lie in [-1, 1]")
        return theta

    def _z(self, theta):
        # theta is one (p, p) matrix or a (k, p, p) stack; z is (p,) or (k, p)
        x = self.votes
        diag = np.diagonal(theta, axis1=-2, axis2=-1)
        return 2.0 * diag * x + 2.0 * x * (theta @ x - diag * x)

    def _gradient(self, z):
        x = self.votes
        u = -2.0 * x * (1.0 - expit(z))
        g = u[..., :, None] * x
        idx = np.arange(self.p)
        g[..., idx, idx] = u
        return g

    def per_agent_values(self, theta):
        """Vector of the p per-agent components (their sum is the loss)."""
        theta = self._check_theta(theta)
        return np.logaddexp(0.0, -self._z(theta))

    def value(self, theta):
        return float(self.per_agent_values(theta).sum())

    def gradient(self, theta):
        return self._gradient(self._z(self._check_theta(theta)))

    def values_and_grads(self, thetas):
        """value() and gradient() of every matrix of a (k, p, p) stack."""
        z = self._z(self._check_theta(thetas, stacked=True))
        return np.logaddexp(0.0, -z).sum(axis=1), self._gradient(z)


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
        return self.f.gradient(theta)

    def r_value(self, theta):
        return self.r.value(theta)

    def prox_r(self, v, kappa):
        return self.r.prox(v, kappa)

    def subgradient(self, theta):
        return self.f.gradient(theta) + self.r.subgradient(theta)

    def values_and_grads(self, thetas):
        """Composite values and smooth-part gradients of a (k, *shape) stack.

        Returns (values, grads): values[i] = value(thetas[i]) and grads[i] =
        f_gradient(thetas[i]), both from one pass of the data-fit term.
        """
        thetas = np.asarray(thetas, dtype=float)
        f_values, grads = self.f.values_and_grads(thetas)
        return f_values + self.r.values(thetas), grads


def least_squares(A, x, tau=0.0):
    return CompositeLoss(LeastSquaresLoss(A, x), L1Regularizer(tau))


def vote_pseudolikelihood(votes, tau=0.0):
    return CompositeLoss(IsingPseudolikelihoodLoss(votes), L1Regularizer(tau))
