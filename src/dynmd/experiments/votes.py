"""Vote streams for network tracking: CSV round-trip plus a synthetic
generator whose hidden interaction matrix drifts by transitive attraction.

File format: one line per round, comma-separated entries in {-1, 0, 1}
(0 marks an abstention or absence).  No header.

The synthetic sampler resamples one agent at a time.  Each call of the
Gibbs sweeps takes all its uniforms in one bulk draw, rng.random(sweeps * p),
which is the same stream as one rng.random() per site and leaves the
generator in the same state, so the missing-vote draws that follow are
unchanged.  The per-site odds use the same BLAS row dots and the same
float operations in the same order as a per-site numpy loop.  They take
math.exp, which can differ from np.exp in the last bit, so a uniform
within _EXP_MARGIN of the odds is decided again with np.exp.  The votes
and hidden matrices are therefore bit-identical to that loop;
tests/test_experiments.py keeps it as the reference.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..dynamics import NetworkAttraction
from ..losses import vote_pseudolikelihood


@dataclass(frozen=True)
class VoteStream:
    votes: np.ndarray  # (T, p) int8 in {-1, 0, 1}
    label: str = "votes"

    def __post_init__(self):
        v = np.asarray(self.votes)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("votes must be a non-empty (T, p) matrix")
        if not np.isin(v, (-1, 0, 1)).all():
            raise ValueError("votes must take values in {-1, 0, 1}")
        object.__setattr__(self, "votes", v.astype(np.int8))

    @property
    def T(self):
        return self.votes.shape[0]

    @property
    def n_agents(self):
        return self.votes.shape[1]

    def loss(self, t, tau=0.0):
        """Round-t vote fit objective (1-based)."""
        if not (1 <= t <= self.T):
            raise ValueError(f"t must lie in [1, {self.T}], got {t}")
        return vote_pseudolikelihood(self.votes[t - 1], tau=tau)


def load_votes(path, label=None):
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
            try:
                row = [int(f) for f in fields]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer vote entry") from None
            if any(v not in (-1, 0, 1) for v in row):
                raise ValueError(f"{path}:{lineno}: votes must be -1, 0, or 1")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no vote rows found")
    return VoteStream(np.array(rows, dtype=np.int8),
                      label=label if label is not None else str(path))


def save_votes(path, stream):
    with open(path, "w") as fh:
        for row in stream.votes:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


# math.exp and np.exp may differ by an ulp, which moves a vote's odds by
# about 2e-16; a uniform within this distance of the odds is decided again
# with np.exp
_EXP_MARGIN = 1e-12


def _gibbs_sweeps(theta, x, sweeps, rng):
    # sequential single-site resampling; the conditional odds of +1 follow
    # the same per-agent terms the vote fit objective scores.  The row
    # products stay BLAS dots of views of theta against x, which is kept
    # current, so they round as theta[a] @ x does; xs mirrors x as floats.
    p = x.shape[0]
    uniforms = iter(rng.random(sweeps * p).tolist())
    sites = list(zip(range(p), [row.dot for row in theta],
                     theta.diagonal().tolist()))
    xs = x.tolist()
    for _ in range(sweeps):
        for a, row_dot, d in sites:
            h = d + float(row_dot(x)) - d * xs[a]
            try:
                prob = 1.0 / (1.0 + math.exp(-2.0 * h))
            except OverflowError:  # exp is inf, as np.exp would return
                prob = 0.0
            u = next(uniforms)
            if abs(u - prob) < _EXP_MARGIN:
                # this close, the last bit of exp can decide the vote:
                # take np.exp's, as the per-site loop did
                with np.errstate(over="ignore"):
                    prob = 1.0 / (1.0 + np.exp(-2.0 * h))
            v = 1.0 if u < prob else -1.0
            x[a] = v
            xs[a] = v
    return x


def synthetic_votes(n_agents=20, T=2000, drift_alpha=0.003, seed=0,
                    sweeps=4, missing_prob=0.0, init_scale=0.5, burn_in=50):
    """Sample a drifting-network vote stream.

    The hidden matrix starts uniform in [-init_scale, init_scale], drifts
    each round under NetworkAttraction(drift_alpha), and votes are Gibbs
    samples warm-started from the previous round.  Returns (VoteStream,
    thetas) with thetas the (T + 1, p, p) hidden path: thetas[t - 1]
    generated the round-t votes, and thetas[T] is the drift's last step.
    """
    if n_agents < 1:
        raise ValueError(f"n_agents must be >= 1, got {n_agents}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not (0.0 < init_scale <= 1.0):
        raise ValueError(f"init_scale must lie in (0, 1], got {init_scale}")
    if not (0.0 <= missing_prob < 1.0):
        raise ValueError(f"missing_prob must lie in [0, 1), got {missing_prob}")
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    rng = np.random.default_rng(seed)
    model = NetworkAttraction(drift_alpha)
    theta = rng.uniform(-init_scale, init_scale, size=(n_agents, n_agents))
    theta = (theta + theta.T) / 2.0
    x = rng.choice([-1.0, 1.0], size=n_agents)
    x = _gibbs_sweeps(theta, x, burn_in, rng)
    votes = np.empty((T, n_agents), dtype=np.int8)
    thetas = np.empty((T + 1, n_agents, n_agents))
    for t in range(T):
        thetas[t] = theta
        x = _gibbs_sweeps(theta, x, sweeps, rng)
        row = x.astype(np.int8)
        if missing_prob > 0.0:
            row = np.where(rng.random(n_agents) < missing_prob, 0, row)
        votes[t] = row
        theta = model.apply(theta)
    thetas[T] = theta
    return VoteStream(votes, label=f"synthetic(p={n_agents}, T={T})"), thetas
