"""Synthetic compressive-video streams: a bright block moving over a dark
grid, observed each round through a fresh Gaussian sensing matrix.

Sensing matrices are drawn on demand from per-round child seeds, so a long
run never holds the whole (T, measurements, pixels) stack.  Observations
are built lazily too: set-up stores the frames and the (T, measurements)
noise block, and the round-t observation x_t = A_t frame_{t-1} + noise_{t-1}
is formed from the one matrix that loss(t) draws, so a run draws each
matrix once.  Frames are cheap and are stored for the whole horizon: frame
t - 1 in the stack is the scene the round-t observation measured, and the
extra final frame closes the comparator path whose deviations from each
model the bound curves need.

A matrix depends only on the seed and the round, never on the learner's
play, so it is drawn ahead of time.  When round t's matrix is asked for,
one worker thread draws the raw normals of rounds t+1 .. t+LOOKAHEAD while
the caller runs its round; numpy's generator releases the interpreter lock
while it draws.  Every draw returns an array of its own, held as a future
in a window keyed by round, so no later draw can write into a matrix
already handed out.  The caller scales its round's array by
1/sqrt(measurements) in place, the same ufunc as the synchronous draw's
division, so every matrix is bit-identical to _sensing_matrix.  Round 1's
matrix, drawn at set-up for the default l1 weight, enters the window as a
finished draw.  Any other round with no pending draw (random access, a
replay that restarts at round 1) is drawn synchronously.  Identity sensing
starts no thread: one read-only identity per VideoData serves every round.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ..dynamics import DIRECTIONS
from ..losses import least_squares

STAY = 8  # trajectory direction code for "hold still"
LOOKAHEAD = 2  # rounds whose sensing matrices are drawn ahead of the caller


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


def _sensing_rng(scenario, t):
    return np.random.default_rng(
        np.random.SeedSequence(scenario.seed, spawn_key=(0, t)))


def _draw_raw(scenario, t):
    # runs on the worker thread too, so it calls numpy only: dynmd's
    # functions may be wrapped by instrumentation that assumes one thread
    return _sensing_rng(scenario, t).standard_normal(
        size=(scenario.measurements, scenario.rows * scenario.cols))


def _sensing_matrix(scenario, t):
    """Round t's sensing matrix, drawn synchronously: the reference the
    lookahead must reproduce bit for bit."""
    if scenario.identity_sensing:
        return np.eye(scenario.rows * scenario.cols)
    return _draw_raw(scenario, t) / math.sqrt(scenario.measurements)


class _SensingLookahead:
    """Holds {round: future of its raw draw} for the rounds (t, t + LOOKAHEAD]
    after the last round t asked for, drawn on one worker thread.  The lock
    serialises callers; each draw owns its array, so a draw that falls out
    of the window is cancelled without waiting for it.  The thread exits
    once the executor is garbage-collected with its VideoData, or at
    interpreter exit."""

    def __init__(self, scenario):
        self.scenario = scenario
        self._lock = threading.Lock()
        self._window = {}
        self._executor = None

    def hold(self, t, raw):
        """Serve raw, round t's normals drawn at set-up, as a finished draw;
        called before the VideoData reaches any caller."""
        from concurrent.futures import Future
        self._window[t] = future = Future()
        future.set_result(raw)

    def matrix(self, t):
        s = self.scenario
        with self._lock:
            future = self._window.pop(t, None)
            ahead = range(t + 1, min(t + LOOKAHEAD, s.T) + 1)
            if self._executor is None and ahead:
                # imported here: it pulls in logging, which runs that never
                # draw a Gaussian matrix need not load
                from concurrent.futures import ThreadPoolExecutor
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="dynmd-sensing")
            window = {r: self._window.pop(r) if r in self._window
                      else self._executor.submit(_draw_raw, s, r) for r in ahead}
            for stale in self._window.values():
                stale.cancel()
            self._window = window
        raw = _draw_raw(s, t) if future is None else future.result()
        raw /= math.sqrt(s.measurements)
        return raw


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
    # identity or lookahead, per instance: replace never shares their draws
    _sensing: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scenario.identity_sensing:
            sensing = np.eye(self.n_pixels)
            sensing.flags.writeable = False
        else:
            sensing = _SensingLookahead(self.scenario)
        object.__setattr__(self, "_sensing", sensing)

    @property
    def T(self):
        return self.scenario.T

    @property
    def n_pixels(self):
        return self.scenario.rows * self.scenario.cols

    def matrix(self, t):
        """Sensing matrix of round t (1-based), regenerated from its seed;
        starts the draws of the next LOOKAHEAD rounds."""
        if not (1 <= t <= self.T):
            raise ValueError(f"t must lie in [1, {self.T}], got {t}")
        if self.scenario.identity_sensing:
            return self._sensing
        return self._sensing.matrix(t)

    def loss(self, t, tau=None):
        """Round-t data-fit objective with the scenario's default l1 weight;
        its observation is A_t frame_{t-1} + noise_{t-1} (loss(t).f.x)."""
        tau = self.tau_default if tau is None else tau
        A = self.matrix(t)
        x = A @ self.frames[t - 1] + self.noise[t - 1]
        return least_squares(A, x, tau=tau)

    def comparator(self):
        from ..regret import ComparatorSequence
        return ComparatorSequence(self.frames, label="true frames")


def generate_video(scenario):
    """Simulate the scenario; returns a VideoData with frames, observation
    noise, and the rounds where clipping bent the path away from its own
    motion.  Of the sensing matrices only round 1's is drawn here, for the
    default l1 weight; a first request for round 1 reuses that draw."""
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
    raw1 = None if s.identity_sensing else _draw_raw(s, 1)
    A1 = np.eye(m) if raw1 is None else raw1 / math.sqrt(m)
    tau_default = 0.01 * float(np.abs(A1.T @ (A1 @ frames[0] + noise[0])).max())
    data = VideoData(scenario=s, frames=frames, noise=noise,
                     clipped_steps=tuple(clipped), tau_default=tau_default)
    if raw1 is not None:
        data._sensing.hold(1, raw1)
    return data
