"""Synthetic compressive-video streams: a bright block moving over a dark
grid, observed each round through a fresh Gaussian sensing matrix.

Sensing matrices are drawn on demand from per-round child seeds, so a long
run never holds more than one (measurements x pixels) matrix at a time.
Observations are built lazily too: set-up stores the frames and the
(T, measurements) noise block, and the round-t observation
x_t = A_t frame_{t-1} + noise_{t-1} is formed from the one matrix that
loss(t) draws, so a run draws each matrix once.  Frames are cheap and are
stored for the whole horizon: frame t - 1 in the stack is the scene the
round-t observation measured, and the extra final frame closes the path
for variation measures.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..dynamics import DIRECTIONS
from ..losses import least_squares

STAY = 8  # trajectory direction code for "hold still"


@dataclass(frozen=True)
class VideoScenario:
    rows: int = 32
    cols: int = 32
    block_size: int = 4
    start_row: int = 14
    start_col: int = 0
    # (start round, direction code) legs; codes 0..7 as in DIRECTIONS, 8 = stay
    trajectory: tuple = ((1, 0),)
    T: int = 200
    measurements: int = 100
    noise_std: float = 0.05
    seed: int = 0
    boundary: str = "clip"  # how the block reacts to a wall: clip | wrap
    identity_sensing: bool = False

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have positive dimensions")
        if not (1 <= self.block_size <= min(self.rows, self.cols)):
            raise ValueError(f"block_size must lie in [1, {min(self.rows, self.cols)}]")
        if not (0 <= self.start_row <= self.rows - self.block_size):
            raise ValueError(f"start_row must lie in [0, {self.rows - self.block_size}]")
        if not (0 <= self.start_col <= self.cols - self.block_size):
            raise ValueError(f"start_col must lie in [0, {self.cols - self.block_size}]")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.measurements < 1:
            raise ValueError(f"measurements must be >= 1, got {self.measurements}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.boundary not in ("clip", "wrap"):
            raise ValueError(f"boundary must be 'clip' or 'wrap', got {self.boundary!r}")
        legs = tuple(tuple(leg) for leg in self.trajectory)
        if len(legs) == 0:
            raise ValueError("trajectory needs at least one leg")
        if legs[0][0] != 1:
            raise ValueError("the first leg must start at round 1")
        starts = [s for s, _ in legs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("leg start rounds must be strictly increasing")
        if any(int(s) != s or s < 1 or s > self.T for s, _ in legs):
            raise ValueError(f"leg starts must be integers in [1, {self.T}]")
        if any(d not in range(9) for _, d in legs):
            raise ValueError("directions must be integer codes 0..8")
        object.__setattr__(self, "trajectory", legs)

    def direction_at(self, t):
        """Direction code driving the move from frame t to frame t + 1."""
        if not (1 <= t <= self.T):
            raise ValueError(f"t must lie in [1, {self.T}], got {t}")
        code = self.trajectory[0][1]
        for start, d in self.trajectory:
            if t >= start:
                code = d
        return code


def _sensing_matrix(scenario, t):
    if scenario.identity_sensing:
        return np.eye(scenario.rows * scenario.cols)
    rng = np.random.default_rng(
        np.random.SeedSequence(scenario.seed, spawn_key=(0, t)))
    m = scenario.measurements
    return rng.standard_normal(size=(m, scenario.rows * scenario.cols)) / math.sqrt(m)


def _render(rows, cols, block, r, c, wrap):
    frame = np.zeros((rows, cols))
    if wrap:
        rr = (r + np.arange(block)) % rows
        cc = (c + np.arange(block)) % cols
        frame[np.ix_(rr, cc)] = 1.0
    else:
        frame[r:r + block, c:c + block] = 1.0
    return frame.ravel()


@dataclass(frozen=True)
class VideoData:
    scenario: VideoScenario
    frames: np.ndarray  # (T + 1, rows * cols)
    noise: np.ndarray  # (T, measurements), the observation noise of each round
    clipped_steps: tuple  # rounds where a wall blocked the nominal move
    tau_default: float

    @property
    def T(self):
        return self.scenario.T

    @property
    def n_pixels(self):
        return self.scenario.rows * self.scenario.cols

    def matrix(self, t):
        """Sensing matrix of round t (1-based), regenerated from its seed."""
        if not (1 <= t <= self.T):
            raise ValueError(f"t must lie in [1, {self.T}], got {t}")
        return _sensing_matrix(self.scenario, t)

    def _observe(self, A, t):
        return A @ self.frames[t - 1] + self.noise[t - 1]

    def observation(self, t):
        """Round-t measurement vector A_t frame_{t-1} + noise (draws A_t)."""
        return self._observe(self.matrix(t), t)

    def loss(self, t, tau=None):
        """Round-t data-fit objective with the scenario's default l1 weight."""
        tau = self.tau_default if tau is None else tau
        A = self.matrix(t)
        return least_squares(A, self._observe(A, t), tau=tau)

    def comparator(self):
        from ..regret import ComparatorSequence
        return ComparatorSequence(self.frames, label="true frames")


def generate_video(scenario):
    """Simulate the scenario; returns a VideoData with frames, observation
    noise, and the rounds where clipping bent the path away from its own
    motion.  Of the sensing matrices only round 1's is drawn here, for the
    default l1 weight."""
    s = scenario
    wrap = s.boundary == "wrap"
    r, c = s.start_row, s.start_col
    frames = [_render(s.rows, s.cols, s.block_size, r, c, wrap)]
    clipped = []
    for t in range(1, s.T + 1):
        code = s.direction_at(t)
        dr, dc = (0, 0) if code == STAY else DIRECTIONS[code][1:]
        nr, nc = r + dr, c + dc
        if wrap:
            r, c = nr % s.rows, nc % s.cols
        else:
            r = min(max(nr, 0), s.rows - s.block_size)
            c = min(max(nc, 0), s.cols - s.block_size)
            if (r, c) != (nr, nc):
                clipped.append(t)
        frames.append(_render(s.rows, s.cols, s.block_size, r, c, wrap))
    frames = np.stack(frames)
    noise_rng = np.random.default_rng(
        np.random.SeedSequence(s.seed, spawn_key=(1,)))
    m = frames.shape[1] if s.identity_sensing else s.measurements
    noise = s.noise_std * noise_rng.standard_normal(size=(s.T, m))
    A1 = _sensing_matrix(s, 1)
    tau_default = 0.01 * float(np.abs(A1.T @ (A1 @ frames[0] + noise[0])).max())
    return VideoData(scenario=s, frames=frames, noise=noise,
                     clipped_steps=tuple(clipped), tau_default=tau_default)
