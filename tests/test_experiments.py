import dataclasses
import itertools
import math
import re
import sys
import threading

import numpy as np
import pytest

from dynmd import (
    Box,
    CompositeLoss,
    ConstantStep,
    DoublingStep,
    DynamicalModel,
    IdentityModel,
    L1Regularizer,
    NetworkAttraction,
    PixelShift,
    SquaredEuclidean,
    Unconstrained,
    dfs_step,
    dmd_init,
    dmd_step,
    fixed_share_init,
    least_squares,
    shift_family,
    vote_pseudolikelihood,
)
from dynmd.experiments import (
    STAY,
    VideoScenario,
    VoteStream,
    evaluate_run,
    generate_video,
    load_votes,
    parse_config,
    parse_floats,
    parse_trajectory,
    read_losses_csv,
    run_scenario,
    save_votes,
    synthetic_votes,
    write_agents_csv,
    write_losses_csv,
    write_weights_csv,
)
from dynmd.dynamics import DIRECTIONS
from dynmd.experiments import video as video_module
from dynmd.experiments import votes as votes_module
from dynmd.experiments.runner import _write_csv
from dynmd.experiments.video import _sensing_matrix


def small_scenario(**kw):
    base = dict(rows=8, cols=8, block_size=2, start_row=3, start_col=1,
                trajectory=((1, 0),), T=4, measurements=16, noise_std=0.02,
                seed=7)
    base.update(kw)
    return VideoScenario(**base)


def test_identity_sensing_noiseless_observes_frames():
    data = generate_video(small_scenario(identity_sensing=True, noise_std=0.0))
    for t in range(1, data.T + 1):
        assert np.array_equal(data.loss(t).f.x, data.frames[t - 1])
        assert np.array_equal(data.matrix(t), np.eye(data.n_pixels))


def test_observation_noise_energy():
    data = generate_video(small_scenario(T=40, measurements=200, noise_std=0.3))
    sq = []
    for t in range(1, data.T + 1):
        f = data.loss(t).f
        resid = f.x - f.A @ data.frames[t - 1]
        sq.append(resid @ resid / resid.size)
    assert np.mean(sq) == pytest.approx(0.09, rel=0.15)


def test_frames_follow_the_wrap_shift_exactly():
    data = generate_video(small_scenario(boundary="wrap", T=20,
                                         trajectory=((1, 0), (11, 6))))
    east = PixelShift(0, 8, 8, boundary="wrap")
    south = PixelShift(6, 8, 8, boundary="wrap")
    for t in range(1, 21):
        model = east if t <= 10 else south
        assert np.array_equal(data.frames[t], model.apply(data.frames[t - 1]))
    assert data.clipped_steps == ()


def test_clipping_is_logged_and_freezes_the_block():
    # block of width 2 starting at col 5 on an 8-wide grid: the wall bites
    # after one free move east
    data = generate_video(small_scenario(start_col=5, T=5))
    assert data.clipped_steps == (2, 3, 4, 5)
    assert np.array_equal(data.frames[2], data.frames[1])
    assert not np.array_equal(data.frames[1], data.frames[0])
    interior = generate_video(small_scenario(start_col=1, T=4))
    assert interior.clipped_steps == ()


def test_stay_code_freezes_the_frame():
    data = generate_video(small_scenario(trajectory=((1, STAY),), T=3,
                                         noise_std=0.0))
    for t in range(1, 4):
        assert np.array_equal(data.frames[t], data.frames[0])


def _frames_by_render(s):
    # reference: the frame-by-frame renderer that the one scatter replaces
    frames, r, c = [], s.start_row, s.start_col
    for t in range(s.T + 1):
        if t > 0:
            code = s.direction_at(t)
            dr, dc = (0, 0) if code == STAY else DIRECTIONS[code][1:]
            r, c = r + dr, c + dc
            if s.boundary == "wrap":
                r, c = r % s.rows, c % s.cols
            else:
                r = min(max(r, 0), s.rows - s.block_size)
                c = min(max(c, 0), s.cols - s.block_size)
        frame = np.zeros((s.rows, s.cols))
        if s.boundary == "wrap":
            span = np.arange(s.block_size)
            frame[np.ix_((r + span) % s.rows, (c + span) % s.cols)] = 1.0
        else:
            frame[r:r + s.block_size, c:c + s.block_size] = 1.0
        frames.append(frame.ravel())
    return np.stack(frames)


@pytest.mark.parametrize("boundary", ["clip", "wrap"])
@pytest.mark.parametrize("grid", [(8, 8, 2, 3, 1), (5, 7, 3, 2, 4), (1, 1, 1, 0, 0),
                                  (6, 4, 4, 2, 0)])
def test_frames_match_frame_by_frame_render(boundary, grid):
    rows, cols, block, r0, c0 = grid
    traj = ((1, 1), (9, 5), (17, STAY), (20, 3), (30, 6))
    scen = small_scenario(rows=rows, cols=cols, block_size=block, start_row=r0,
                          start_col=c0, trajectory=traj, T=40, boundary=boundary)
    frames = generate_video(scen).frames
    assert frames.shape == (41, rows * cols) and frames.flags.c_contiguous
    assert np.array_equal(frames.view(np.uint64),
                          _frames_by_render(scen).view(np.uint64))


def test_video_generation_is_reproducible():
    a = generate_video(small_scenario(T=6))
    b = generate_video(small_scenario(T=6))
    assert np.array_equal(a.frames, b.frames)
    assert all(np.array_equal(a.loss(t).f.x, b.loss(t).f.x)
               for t in range(1, 7))
    assert np.array_equal(a.matrix(4), b.matrix(4))
    c = generate_video(small_scenario(T=6, seed=8))
    assert not all(np.array_equal(a.loss(t).f.x, c.loss(t).f.x)
                   for t in range(1, 7))


def test_video_tau_default_and_comparator():
    data = generate_video(small_scenario())
    f = data.loss(1).f
    want = 0.01 * np.abs(f.A.T @ f.x).max()
    assert data.tau_default == pytest.approx(want, rel=1e-12)
    comp = data.comparator()
    assert len(comp) == data.T + 1
    assert np.array_equal(comp.points, data.frames)
    loss = data.loss(2)
    assert loss.r.tau == data.tau_default
    assert loss.value(data.frames[1]) >= 0.0


def _eager_sensing(scenario, frames):
    # reference: every matrix and observation drawn up front with
    # Generator.normal, as set-up did before observations became lazy
    n = frames.shape[1]
    m = n if scenario.identity_sensing else scenario.measurements
    noise_rng = np.random.default_rng(
        np.random.SeedSequence(scenario.seed, spawn_key=(1,)))
    noise = scenario.noise_std * noise_rng.normal(size=(scenario.T, m))
    pairs = []
    for t in range(1, scenario.T + 1):
        if scenario.identity_sensing:
            A = np.eye(n)
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(scenario.seed, spawn_key=(0, t)))
            A = rng.normal(size=(m, n)) / np.sqrt(m)
        pairs.append((A, A @ frames[t - 1] + noise[t - 1]))
    return pairs


def _access_orders(T):
    return {
        "forward": list(range(1, T + 1)),
        # a replay restarts at round 1 after the lookahead ran out at T
        "replay": list(range(1, T + 1)) + list(range(1, T + 1)),
        "shuffled": list(np.random.default_rng(7).permutation(
            np.arange(1, T + 1).repeat(2))),
        "repeat": [t for t in range(1, T + 1) for _ in (0, 1)],
    }


@pytest.mark.parametrize("kw", [dict(seed=0), dict(seed=1), dict(seed=2),
                                dict(identity_sensing=True)])
def test_lazy_video_loss_matches_eager_construction(kw):
    # each access order on fresh data: the rounds drawn ahead must equal
    # the synchronous draw bit for bit, whichever round is asked for next
    scenario = small_scenario(T=5, **kw)
    for order in _access_orders(scenario.T).values():
        data = generate_video(scenario)
        pairs = _eager_sensing(data.scenario, data.frames)
        for t in order:
            A, x = pairs[t - 1]
            loss = data.loss(t)
            assert np.array_equal(loss.f.A.view(np.uint64), A.view(np.uint64))
            assert np.array_equal(loss.f.A.view(np.uint64),
                                  _sensing_matrix(scenario, t).view(np.uint64))
            assert np.array_equal(loss.f.x.view(np.uint64), x.view(np.uint64))
    A1, x1 = pairs[0]
    assert data.tau_default == 0.01 * float(np.abs(A1.T @ x1).max())


def test_identity_sensing_starts_no_thread():
    before = threading.active_count()
    data = generate_video(small_scenario(T=5, identity_sensing=True))
    for t in range(1, data.T + 1):
        data.loss(t)
    assert threading.active_count() == before


def test_identity_sensing_serves_one_read_only_matrix():
    data = generate_video(small_scenario(T=5, identity_sensing=True))
    A = data.matrix(1)
    assert not A.flags.writeable
    assert np.array_equal(A.view(np.uint64), np.eye(data.n_pixels).view(np.uint64))
    for t in range(1, data.T + 1):
        assert data.matrix(t) is A
        assert data.loss(t).f.A is A
        assert np.array_equal(A.view(np.uint64),
                              _sensing_matrix(data.scenario, t).view(np.uint64))
    other = dataclasses.replace(data)
    assert other.matrix(1) is not A
    assert np.array_equal(other.matrix(2), A)


def test_concurrent_callers_get_their_rounds_matrices():
    data = generate_video(small_scenario(T=8, seed=3))
    want = [_sensing_matrix(data.scenario, t) for t in range(1, data.T + 1)]
    bad = []

    def call(seed):
        try:
            for t in np.random.default_rng(seed).integers(1, data.T + 1, size=60):
                if not np.array_equal(data.matrix(int(t)), want[t - 1]):
                    bad.append(int(t))
        except Exception as exc:  # a thread's error must fail the test
            bad.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert bad == []


def test_replaced_video_data_draws_its_own_scenario():
    data = generate_video(small_scenario(T=5, seed=0))
    data.matrix(1)  # rounds 2 and 3 of seed 0 are now being drawn ahead
    other = dataclasses.replace(data, scenario=small_scenario(T=5, seed=1))
    for t in range(1, other.T + 1):
        assert np.array_equal(other.matrix(t).view(np.uint64),
                              _sensing_matrix(other.scenario, t).view(np.uint64))
    assert np.array_equal(data.matrix(2).view(np.uint64),
                          _sensing_matrix(data.scenario, 2).view(np.uint64))


def _assert_round_pair(data, t, A, x):
    # the synchronous reference, bit for bit: A_t and A_t frame_{t-1} + noise_{t-1}
    want = _sensing_matrix(data.scenario, t)
    assert np.array_equal(A.view(np.uint64), want.view(np.uint64))
    want_x = want @ data.frames[t - 1] + data.noise[t - 1]
    assert np.array_equal(x.view(np.uint64), want_x.view(np.uint64))


def test_round_one_matrix_is_drawn_once(monkeypatch):
    # set-up builds round 1's pair for the default l1 weight and loss(1)
    # reuses it; the worker draws every later round once, ahead of its call
    scenario = small_scenario(T=50, seed=4)
    draw = video_module._draw_raw
    drawn = []

    def counting(scenario, t):
        drawn.append(t)  # list.append is atomic, so either thread may call
        return draw(scenario, t)

    monkeypatch.setattr(video_module, "_draw_raw", counting)
    data = generate_video(scenario)
    assert drawn == [1]
    A1, x1 = data._sensing._window[1].result()
    kept = [data.loss(t).f for t in range(1, data.T + 1)]
    assert kept[0].A is A1 and kept[0].x is x1
    assert sorted(drawn) == list(range(1, data.T + 1))
    monkeypatch.undo()  # the reference draws are not counted
    for t, f in enumerate(kept, start=1):
        _assert_round_pair(data, t, f.A, f.x)


def _calls_with_stalled_worker(monkeypatch, data, rounds, fail=False):
    # the draw worker stalls until the caller has drawn a round itself, so
    # a caller that only waits for the worker never returns: the calls run
    # on a helper thread joined with a timeout, and the stall is released
    # whatever happened.  With fail, the caller's first draw raises.
    # got[t] is round t's (loss(t).f.A, loss(t).f.x), or the error it raised.
    draw = video_module._draw_raw
    caller_drew = threading.Event()
    drawn = []  # (round, drawn on the caller's thread)

    def stalling(scenario, t):
        if threading.current_thread().name.startswith("dynmd-sensing"):
            caller_drew.wait(timeout=60)
            drawn.append((t, False))
            return draw(scenario, t)
        drawn.append((t, True))
        first = not caller_drew.is_set()
        caller_drew.set()
        if fail and first:
            raise RuntimeError(f"draw failed at round {t}")
        return draw(scenario, t)

    got = {}

    def call():
        for t in rounds:
            try:
                f = data.loss(t).f
                got[t] = f.A, f.x
            except RuntimeError as exc:
                got[t] = exc

    monkeypatch.setattr(video_module, "_draw_raw", stalling)
    helper = threading.Thread(target=call, daemon=True)
    helper.start()
    try:
        helper.join(timeout=20)
        assert not helper.is_alive(), "the caller waited on the stalled worker"
    finally:
        caller_drew.set()
        helper.join(timeout=60)
    return drawn, got


def test_blocked_caller_draws_a_later_round_itself(monkeypatch):
    data = generate_video(small_scenario(T=8, seed=6))
    drawn, got = _calls_with_stalled_worker(monkeypatch, data,
                                            range(1, data.T + 1))
    assert any(by_caller for _, by_caller in drawn)
    assert not all(by_caller for _, by_caller in drawn)
    # set-up drew round 1; every later round is drawn once, by either thread
    assert sorted(t for t, _ in drawn) == list(range(2, data.T + 1))
    for t in range(1, data.T + 1):
        _assert_round_pair(data, t, *got[t])


def test_failed_caller_draw_reaches_the_caller_of_its_round(monkeypatch):
    # the caller that drew a later round for the worker does not raise its
    # error; the caller of that round gets it instead of blocking
    data = generate_video(small_scenario(T=8, seed=6))
    drawn, got = _calls_with_stalled_worker(monkeypatch, data,
                                            range(1, data.T + 1), fail=True)
    failed = next(t for t, by_caller in drawn if by_caller)
    assert failed > 2
    assert isinstance(got[failed], RuntimeError)
    assert str(got[failed]) == f"draw failed at round {failed}"
    for t in range(1, data.T + 1):
        if t != failed:
            _assert_round_pair(data, t, *got[t])


def test_matrices_handed_out_are_never_overwritten():
    # each pair owns its arrays: keeping every matrix and observation of a
    # forward loop, none is changed by the draws that follow it
    data = generate_video(small_scenario(T=12, seed=5))
    kept = [data.loss(t).f for t in range(1, data.T + 1)]
    for t, f in enumerate(kept, start=1):
        _assert_round_pair(data, t, f.A, f.x)


def test_nonfinite_sensing_draw_is_named_by_the_run(monkeypatch):
    # the program's own matrices are not checked each round: a NaN entry
    # drawn for round 3 surfaces as that round's non-finite loss value
    draw = video_module._draw_raw

    def nan_at_round_3(scenario, t):
        raw = draw(scenario, t)
        if t == 3:
            raw[0, 0] = np.nan
        return raw

    monkeypatch.setattr(video_module, "_draw_raw", nan_at_round_3)
    data = generate_video(small_scenario(T=6))
    geom, fset = SquaredEuclidean(1.0), Box(0.0, 1.0, shape=(data.n_pixels,))
    sched = ConstantStep(0.3)
    experts = [dmd_init(geom, fset, m, sched) for m in shift_family(8, 8)]
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite loss value at round t=3, expert 0 \(E\)$"):
        run_scenario(data.loss, data.T, experts, comparator=data.comparator())


def test_video_scenario_validation():
    with pytest.raises(ValueError, match=r"^start_col must lie in \[0, 6\], got 7$"):
        small_scenario(start_col=7)  # block would overhang
    with pytest.raises(ValueError, match=r"^block_size must lie in \[1, 8\], got 9$"):
        small_scenario(block_size=9)
    with pytest.raises(ValueError):
        small_scenario(boundary="torus")
    with pytest.raises(ValueError):
        small_scenario(trajectory=((2, 0),))
    with pytest.raises(ValueError):
        small_scenario(trajectory=((1, 0), (1, 6)))
    with pytest.raises(ValueError,
                       match=r"^a leg direction must lie in \[0, 8\], got 9$"):
        small_scenario(trajectory=((1, 9),))
    with pytest.raises(ValueError, match="^T must be an integer >= 1, got 0$"):
        small_scenario(T=0)
    for noise_std in (-0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match="^noise_std must be finite"):
            small_scenario(noise_std=noise_std)
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
        small_scenario(seed=-1)
    data = generate_video(small_scenario())
    with pytest.raises(ValueError):
        data.matrix(0)
    with pytest.raises(ValueError):
        data.matrix(5)


def test_round_index_must_be_an_integer():
    # 2.0 is round 2; 1.5 names the round index, not numpy or range()
    data = generate_video(small_scenario())
    theta = np.random.default_rng(2).uniform(size=data.n_pixels)
    assert np.array_equal(data.matrix(2.0), data.matrix(2))
    assert data.loss(np.float64(2.0)).value(theta) == data.loss(2).value(theta)
    stream = VoteStream(np.array([[1, -1], [0, 1]]))
    point = np.array([[0.2, -0.1], [0.3, 0.4]])
    assert stream.loss(2.0).value(point) == stream.loss(2).value(point)
    for call in (data.matrix, data.loss, stream.loss):
        for t in (1.5, np.nan, "2", None):
            with pytest.raises(ValueError, match=r"^t must be an integer >= 1"):
                call(t)
        with pytest.raises(ValueError, match=r"^t must lie in \[1, "):
            call(5.0)


def test_integral_floats_and_numpy_integers_are_plain_ints():
    # one integer rule: 5.0 and np.int64(1) are 5 and 1, down to the
    # scenario's repr and every draw
    floats = VideoScenario(T=5.0, rows=8.0, start_row=3.0, measurements=20.0)
    ints = VideoScenario(T=5, rows=8, start_row=3, measurements=20)
    assert repr(floats) == repr(ints)
    a, b = generate_video(floats), generate_video(ints)
    assert np.array_equal(a.frames, b.frames)
    for t in range(1, 6):
        assert np.array_equal(a.matrix(t), b.matrix(t))
    stream, thetas = synthetic_votes(n_agents=4.0, T=5.0, seed=np.int64(1))
    want, want_thetas = synthetic_votes(n_agents=4, T=5, seed=1)
    assert np.array_equal(stream.votes, want.votes)
    assert np.array_equal(thetas, want_thetas)
    assert stream.label == want.label


def test_votes_roundtrip(tmp_path):
    stream, _ = synthetic_votes(n_agents=5, T=12, drift_alpha=0.01, seed=3,
                                sweeps=2, missing_prob=0.2)
    path = tmp_path / "votes.csv"
    save_votes(path, stream)
    back = load_votes(path)
    assert np.array_equal(back.votes, stream.votes)
    assert back.label == str(path)


def test_load_votes_error_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,-1,0\n1,1,1\n1,-1\n")
    with pytest.raises(ValueError, match=":3"):
        load_votes(path)
    path.write_text("1,-1,x\n")
    with pytest.raises(ValueError, match=":1"):
        load_votes(path)
    path.write_text("1,-1,2\n")
    with pytest.raises(ValueError, match=":1"):
        load_votes(path)
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="no vote rows"):
        load_votes(path)


def test_vote_stream_validation_and_loss():
    with pytest.raises(ValueError):
        VoteStream(np.array([[2, 0]]))
    with pytest.raises(ValueError):
        VoteStream(np.zeros((0, 3)))
    stream = VoteStream(np.array([[1, -1], [0, 1]]))
    assert stream.T == 2 and stream.n_agents == 2
    theta = np.array([[0.2, -0.1], [0.3, 0.4]])
    ref = vote_pseudolikelihood(stream.votes[1], tau=0.5)
    assert stream.loss(2, tau=0.5).value(theta) == ref.value(theta)
    with pytest.raises(ValueError):
        stream.loss(0)
    with pytest.raises(ValueError):
        stream.loss(3)


def test_synthetic_votes_properties():
    stream, thetas = synthetic_votes(n_agents=6, T=30, drift_alpha=0.05,
                                     seed=11, sweeps=2)
    assert stream.votes.shape == (30, 6)
    assert thetas.shape == (31, 6, 6)
    # the path closes with the drift step after the last round
    assert np.array_equal(thetas[30], NetworkAttraction(0.05).apply(thetas[29]))
    assert np.isin(stream.votes, (-1, 1)).all()  # no missing votes requested
    assert np.all(np.abs(thetas) <= 1.0)
    # the hidden matrix actually drifts
    assert np.linalg.norm(thetas[-1] - thetas[0]) > 1e-3
    again, thetas2 = synthetic_votes(n_agents=6, T=30, drift_alpha=0.05,
                                     seed=11, sweeps=2)
    assert np.array_equal(stream.votes, again.votes)
    assert np.array_equal(thetas, thetas2)
    sparse, _ = synthetic_votes(n_agents=6, T=200, drift_alpha=0.0, seed=5,
                                sweeps=1, missing_prob=0.3)
    frac = (sparse.votes == 0).mean()
    assert 0.2 < frac < 0.4
    with pytest.raises(ValueError):
        synthetic_votes(missing_prob=1.5)
    with pytest.raises(ValueError):
        synthetic_votes(init_scale=0.0)
    with pytest.raises(ValueError, match="sweeps"):
        synthetic_votes(n_agents=4, T=5, sweeps=0)
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
        synthetic_votes(n_agents=4, T=5, seed=-1)
    for alpha in (2, -0.5, float("nan")):
        with pytest.raises(ValueError, match=rf"^drift_alpha must lie in "
                           rf"\[0, 1\], got {alpha}$"):
            synthetic_votes(n_agents=4, T=5, drift_alpha=alpha)
    with pytest.raises(ValueError, match="burn_in"):
        synthetic_votes(n_agents=4, T=5, burn_in=-1)
    with pytest.raises(ValueError, match="n_agents"):
        synthetic_votes(n_agents=0, T=5)
    with pytest.raises(ValueError, match="T must"):
        synthetic_votes(n_agents=4, T=0)


def _gibbs_sweeps_reference(theta, x, sweeps, rng):
    # reference: one rng.random() and numpy scalar arithmetic per site, as
    # the sampler did before it took one bulk draw per call
    p = x.shape[0]
    for _ in range(sweeps):
        for a in range(p):
            h = theta[a, a] + theta[a] @ x - theta[a, a] * x[a]
            prob = 1.0 / (1.0 + np.exp(-2.0 * h))
            x[a] = 1.0 if rng.random() < prob else -1.0
    return x


def _sample_with(monkeypatch, sweep, **kw):
    # synthetic_votes with the given sweep function; also returns the
    # generator's final state, read through the sweeps' rng argument
    rngs = []

    def spy(theta, x, sweeps, rng):
        rngs.append(rng)
        return sweep(theta, x, sweeps, rng)

    monkeypatch.setattr(votes_module, "_gibbs_sweeps", spy)
    stream, thetas = synthetic_votes(**kw)
    return stream.votes, thetas, rngs[-1].bit_generator.state


def test_synthetic_votes_match_per_site_reference(monkeypatch):
    # bit for bit: votes, hidden matrices and the generator's final state
    fast = votes_module._gibbs_sweeps
    grid = itertools.product((1, 2, 3, 20), (1, 2, 3, 4), (0, 50),
                             (0.0, 0.2), (0.0, 0.003))
    for seed, (p, sweeps, burn_in, missing, alpha) in enumerate(grid):
        kw = dict(n_agents=p, T=25, drift_alpha=alpha, seed=seed,
                  sweeps=sweeps, missing_prob=missing, burn_in=burn_in)
        votes, thetas, state = _sample_with(monkeypatch, fast, **kw)
        want_votes, want_thetas, want_state = _sample_with(
            monkeypatch, _gibbs_sweeps_reference, **kw)
        assert np.array_equal(votes, want_votes), kw
        assert np.array_equal(thetas.view(np.uint64),
                              want_thetas.view(np.uint64)), kw
        assert state == want_state, kw


class _GivenUniforms:
    # stands in for a Generator: hands out the given uniforms, one per call
    # or in bulk, as the two samplers ask for them
    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def test_gibbs_vote_in_the_exp_rounding_gap_matches_reference():
    # where math.exp and np.exp round apart, a uniform between the two odds
    # must get the vote the np.exp loop gives it
    gaps = []
    for h in np.random.default_rng(5).uniform(-8.0, 8.0, 2000).tolist():
        fast = 1.0 / (1.0 + math.exp(-2.0 * h))
        ref = float(1.0 / (1.0 + np.exp(np.float64(-2.0 * h))))
        if fast != ref:
            gaps.append((h, min(fast, ref)))
    if not gaps:
        pytest.skip("math.exp and np.exp round alike on this platform")
    for h, u in gaps[:20]:
        # one agent at +1 with coupling h: its field is exactly h
        got = votes_module._gibbs_sweeps(np.array([[h]]), np.ones(1), 1,
                                         _GivenUniforms([u]))
        want = _gibbs_sweeps_reference(np.array([[h]]), np.ones(1), 1,
                                       _GivenUniforms([u]))
        assert np.array_equal(got, want), h


def test_gibbs_sweeps_match_reference_where_exp_overflows():
    # all-negative couplings with every agent at +1: -2h exceeds the exp
    # range for the first sites, where np.exp gives inf and prob 0
    p = 400
    theta = -np.ones((p, p))
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    got = votes_module._gibbs_sweeps(theta, np.ones(p), 1, got_rng)
    with np.errstate(over="ignore"):
        want = _gibbs_sweeps_reference(theta, np.ones(p), 1, want_rng)
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got[0] == -1.0  # h = -400 at the first site


def test_run_scenario_single_expert_matches_plain_dmd():
    data = generate_video(small_scenario(T=12))
    geom = SquaredEuclidean(1.0)
    fset = Box(0.0, 1.0, shape=(data.n_pixels,))
    sched = DoublingStep(4, 2, 0.5)
    model = PixelShift(0, 8, 8)
    expert = dmd_init(geom, fset, model, sched)
    result = run_scenario(data.loss, data.T, [expert], lam=0.2)
    solo = dmd_init(geom, fset, model, sched)
    for t in range(1, data.T + 1):
        loss = data.loss(t)
        want = loss.value(solo.theta_hat)
        assert result.dfs_losses[t - 1] == want
        assert result.expert_losses[t - 1, 0] == want
        solo, _, _ = dmd_step(solo, loss)


def test_run_scenario_traces_and_validation():
    data = generate_video(small_scenario(T=8))
    geom = SquaredEuclidean(1.0)
    fset = Box(0.0, 1.0, shape=(data.n_pixels,))
    models = shift_family(8, 8)
    sched = ConstantStep(0.3)
    experts = [dmd_init(geom, fset, m, sched) for m in models]
    result = run_scenario(data.loss, data.T, experts, lam=0.1,
                          comparator=data.comparator())
    assert result.expert_labels == ("E", "NE", "N", "NW", "W", "SW", "S",
                                    "SE", "static")
    assert np.allclose(result.weights.sum(axis=1), 1.0, atol=1e-12)
    assert result.meta["eta_r"] == pytest.approx(1.0 / np.sqrt(8))
    for t in range(1, 9):
        loss = data.loss(t)
        # the runner's value comes from the stacked matrix-matrix evaluation,
        # which may round differently from loss.value's matrix-vector product
        assert result.comparator_losses[t - 1] == pytest.approx(
            loss.value(data.frames[t - 1]), rel=1e-12, abs=0.0)
    assert np.all(result.comparator_divergences >= 0.0)
    # one per-point record: the 9 experts' columns, then the comparator's
    assert result.point_losses.shape == (8, 10)
    assert result.point_norms.shape == result.subgrad_norms.shape == (8, 10)
    assert np.array_equal(result.expert_losses, result.point_losses[:, :9])
    assert np.array_equal(result.comparator_losses, result.point_losses[:, 9])
    want = [np.linalg.norm(frame) for frame in data.frames[:8]]
    assert np.allclose(result.point_norms[:, 9], want, rtol=1e-12, atol=0.0)
    bare = run_scenario(data.loss, data.T, experts, lam=0.1)
    assert bare.point_losses.shape == bare.point_norms.shape == (8, 9)
    assert bare.subgrad_norms.shape == (8, 9)
    assert bare.comparator_losses is None
    assert np.array_equal(bare.expert_losses, bare.point_losses)
    with pytest.raises(ValueError):
        run_scenario(data.loss, data.T, experts, comparator=data.frames[:4])


@pytest.mark.parametrize("T, comparator, message", [
    (0, None, r"T must be an integer >= 1, got 0"),
    (-1, None, r"T must be an integer >= 1, got -1"),
    (2.5, None, r"T must be an integer >= 1, got 2\.5"),
    (3, np.zeros((4, 3, 4)),
     r"comparator points have shape \(3, 4\), the experts' have \(3,\)"),
    (3, np.where(np.arange(12).reshape(4, 3) == 7, np.nan, 0.0),
     r"comparator contains non-finite points"),
])
def test_run_scenario_rejects_bad_inputs(T, comparator, message):
    expert = dmd_init(SquaredEuclidean(1.0), Unconstrained(3), IdentityModel(),
                      ConstantStep(0.1))
    loss = least_squares(np.eye(3), np.ones(3))
    with pytest.raises(ValueError, match=message):
        run_scenario(lambda t: loss, T, [expert], comparator=comparator)


def test_evaluate_run_matching_model_bound_holds():
    # wrap-boundary truth, matching wrap expert: zero deviation and the
    # run-sampled bound curve dominates that expert's regret curve
    scen = small_scenario(boundary="wrap", T=40, noise_std=0.02,
                          trajectory=((1, 0),))
    data = generate_video(scen)
    geom = SquaredEuclidean(1.0)
    fset = Box(0.0, 1.0, shape=(data.n_pixels,))
    models = shift_family(8, 8, boundary="wrap")
    sched = DoublingStep(8, 2, 0.5)
    experts = [dmd_init(geom, fset, m, sched) for m in models]
    result = run_scenario(data.loss, data.T, experts, lam=0.05,
                          comparator=data.comparator())
    ev = evaluate_run(result, m=1)
    assert np.all(ev.deviations[:, 0] == 0.0)  # east model matches the truth
    assert ev.v_phi[0] == 0.0
    assert np.all(ev.v_phi[1:] > 0.0)
    assert np.all(ev.expert_regret[:, 0] <= ev.bound_curves[:, 0] + 1e-9)
    total = ev.decomposition.t1 + ev.decomposition.t2
    assert total == pytest.approx(ev.dfs_regret[-1], abs=1e-9)
    bare = run_scenario(data.loss, data.T,
                        [dmd_init(geom, fset, models[0], sched)], lam=0.05)
    with pytest.raises(ValueError):
        evaluate_run(bare, m=1)


def test_csv_writers_roundtrip(tmp_path):
    data = generate_video(small_scenario(T=6))
    geom = SquaredEuclidean(1.0)
    fset = Box(0.0, 1.0, shape=(data.n_pixels,))
    models = shift_family(8, 8)[:3]
    sched = ConstantStep(0.3)
    experts = [dmd_init(geom, fset, m, sched) for m in models]
    result = run_scenario(data.loss, data.T, experts, lam=0.1,
                          comparator=data.comparator())
    losses_path = tmp_path / "losses.csv"
    write_losses_csv(losses_path, result)
    table = read_losses_csv(losses_path)
    assert set(table) == {"t", "dfs", "comparator", "expert_E", "expert_NE",
                          "expert_N"}
    assert np.allclose(table["dfs"], result.dfs_losses, rtol=1e-10)
    assert np.allclose(table["expert_N"], result.expert_losses[:, 2],
                       rtol=1e-10)
    weights_path = tmp_path / "weights.csv"
    write_weights_csv(weights_path, result)
    wtable = read_losses_csv(weights_path)
    sums = sum(wtable[k] for k in wtable if k.startswith("w_"))
    assert np.allclose(sums, 1.0, atol=1e-9)
    with pytest.raises(ValueError):
        write_agents_csv(tmp_path / "agents.csv", result)


def test_read_losses_csv_errors(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,dfs\n1,0.5\n2,0.25,9\n")
    with pytest.raises(ValueError, match=":3"):
        read_losses_csv(path)
    path.write_text("t,dfs\n1,abc\n")
    with pytest.raises(ValueError, match=":2"):
        read_losses_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_losses_csv(path)
    path.write_text("t,dfs\n")
    with pytest.raises(ValueError, match="no data"):
        read_losses_csv(path)


def test_read_losses_csv_matches_per_field_float(tmp_path):
    # reference: each field of each non-blank data line parsed on its own
    # with float(); the one-pass numpy parse must give the same bits, and
    # a field only float() accepts is read row by row
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-310, 300,
                                                              size=(40, 3))
    lines = [",".join(f"{v:{fmt}}" for v, fmt in zip(row, (".17g", ".12g", "e")))
             for row in vals]
    lines[5:5] = ["", "  "]
    lines[9] = " -0 ,\t1.,.5 "
    path = tmp_path / "t.csv"
    for body in (lines, lines[:12] + ["1_0,2,3"] + lines[12:]):
        path.write_text("a,b,c\n" + "\n".join(body) + "\n")
        want = np.array([[float(f) for f in line.split(",")]
                         for line in body if line.strip()])
        table = read_losses_csv(path)
        assert list(table) == ["a", "b", "c"]
        for j, name in enumerate(table):
            assert np.array_equal(table[name].view(np.uint64),
                                  want[:, j].view(np.uint64))


@pytest.mark.parametrize("text,message", [
    ("t,dfs\n\n1,0.5\n\n2,inf\n", ":5: non-finite field"),
    ("t,dfs\n1,0.5\n2,1e400\n", ":3: non-finite field"),
    ("t,dfs,x\n1,2\n3,4\n", ":2: expected 3 fields, got 2"),
    ("t,dfs\n1,2\n3,4,\n", ":3: expected 2 fields, got 3"),
    ("t,dfs\n1,2\n# 3,4\n", ":3: non-numeric field"),
    ("t,dfs\n \n\n", ": no data rows"),
])
def test_read_losses_csv_names_the_first_bad_line(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}$"):
        read_losses_csv(path)


def test_csv_writer_matches_per_value_format(tmp_path):
    # reference: the round column as an integer, every other value
    # formatted on its own with "{:.12g}"
    values = np.array([0.1, -0.0, 0.0, np.nan, np.inf, -np.inf, 1e300,
                       -2.5e-310, 1.0 / 3.0, 123456789012345.0])
    data = [np.arange(1, values.size + 1), values, values[::-1]]
    path = tmp_path / "x.csv"
    _write_csv(path, ["t", "a", "b"], data)
    want = "t,a,b\n" + "".join(
        f"{t},{a:.12g},{b:.12g}\n" for t, a, b in zip(*data))
    assert path.read_bytes() == want.encode()


def test_agent_values_collection():
    # a vote stream scores each agent, so its runs record agent values
    stream, _ = synthetic_votes(n_agents=5, T=10, drift_alpha=0.0, seed=2,
                                sweeps=1)
    geom = SquaredEuclidean(0.5)
    fset = Box(-1.0, 1.0, shape=(5, 5))
    sched = ConstantStep(0.2)
    experts = [dmd_init(geom, fset, NetworkAttraction(a), sched)
               for a in (0.0, 0.01)]
    result = run_scenario(lambda t: stream.loss(t, tau=0.05), stream.T,
                          experts, lam=0.1)
    assert result.agent_values.shape == (10, 5)
    # per-agent pieces of the aggregate's fit sum to a full loss value
    assert np.all(result.agent_values >= 0.0)
    # a least-squares stream does not, so its runs record none
    data = generate_video(small_scenario(T=4))
    fset = Box(0.0, 1.0, shape=(data.n_pixels,))
    experts = [dmd_init(geom, fset, IdentityModel(), sched)]
    result = run_scenario(data.loss, data.T, experts, lam=0.1)
    assert result.agent_values is None


class _FitWithoutAgents:
    # a vote fit that hides per_agent_values, so run_scenario scores the
    # aggregate through loss.value
    def __init__(self, fit):
        self.fit = fit

    def value(self, theta):
        return self.fit.value(theta)

    def values_and_grads(self, thetas):
        return self.fit.values_and_grads(thetas)


def test_agent_values_give_the_aggregate_loss_bit_for_bit():
    # the per-agent values are summed once for the aggregate's loss: the
    # same bits as loss.value
    stream, _ = synthetic_votes(n_agents=5, T=12, drift_alpha=0.01, seed=4,
                                sweeps=1)
    geom = SquaredEuclidean(0.5)
    fset = Box(-1.0, 1.0, shape=(5, 5))
    sched = ConstantStep(0.2)

    def run(wrap):
        experts = [dmd_init(geom, fset, NetworkAttraction(a), sched,
                            reg_period=2) for a in (0.0, 0.3)]
        return run_scenario(lambda t: wrap(stream.loss(t, tau=0.05)),
                            stream.T, experts, lam=0.1)

    scored = run(lambda loss: loss)
    plain = run(lambda loss: dataclasses.replace(
        loss, f=_FitWithoutAgents(loss.f)))
    assert scored.agent_values is not None and plain.agent_values is None
    assert np.array_equal(scored.dfs_losses.view(np.uint64),
                          plain.dfs_losses.view(np.uint64))
    assert np.array_equal(scored.weights, plain.weights)


class _Quadratic:
    """A user's data-fit term f(theta) = 0.5 ||theta - c||^2 with only the
    two methods a data-fit term implements."""

    def __init__(self, c):
        self.c = c

    def value(self, theta):
        return float(self.values_and_grads(theta[None])[0][0])

    def values_and_grads(self, thetas):
        R = thetas - self.c
        return 0.5 * np.einsum("ij,ij->i", R, R), R


def test_a_fit_with_two_methods_drives_every_step():
    # _Quadratic is least squares with A = I, whose products with I are
    # exact: the lone tracker, the pool and the runner give the same bits
    rng = np.random.default_rng(53)
    T, rows, cols = 12, 3, 4
    targets = rng.normal(size=(T, rows * cols))
    path = np.clip(rng.normal(size=(T + 1, rows * cols)), -1.0, 1.0)
    geom = SquaredEuclidean(1.0)
    fset = Box(-1.0, 1.0, shape=rows * cols)
    sched = ConstantStep(0.3)

    def run(loss_at):
        lone = dmd_init(geom, fset, IdentityModel(), sched)
        pool = fixed_share_init([dmd_init(geom, fset, m, sched)
                                 for m in shift_family(rows, cols)], 0.1, 0.5)
        out = []
        for t in range(1, T + 1):
            lone, pred, _ = dmd_step(lone, loss_at(t))
            pool, agg, losses = dfs_step(pool, loss_at(t))
            out += [pred, agg, losses]
        experts = [dmd_init(geom, fset, m, sched) for m in shift_family(rows, cols)]
        result = run_scenario(loss_at, T, experts, lam=0.1, comparator=path)
        return out + [result.dfs_losses, result.point_losses, result.subgrad_norms,
                      result.weights, result.final_state.theta_hat]

    user = run(lambda t: CompositeLoss(_Quadratic(targets[t - 1]), L1Regularizer(0.05)))
    shipped = run(lambda t: least_squares(np.eye(rows * cols), targets[t - 1], tau=0.05))
    for got, want in zip(user, shipped):
        assert got.tobytes() == want.tobytes()


class _NanModel(DynamicalModel):
    label = "bad"

    def apply(self, theta):
        return np.full(np.shape(theta), np.nan)


@pytest.mark.parametrize("comparator", [False, True])
def test_a_non_finite_model_image_names_its_round_and_expert(comparator):
    geom = SquaredEuclidean(1.0)
    fset = Box(-1.0, 1.0, shape=4)
    sched = ConstantStep(0.5)
    loss = least_squares(np.eye(4), np.full(4, 0.5))
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite model image at round t=1, expert 0 \(bad\)$"):
        dmd_step(dmd_init(geom, fset, _NanModel(), sched), loss)
    experts = [dmd_init(geom, fset, m, sched) for m in (IdentityModel(), _NanModel())]
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite model image at round t=1, expert 1 \(bad\)$"):
        run_scenario(lambda t: loss, 3, experts,
                     comparator=np.zeros((4, 4)) if comparator else None)


def test_config_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nrows = 16\nnoise_std=0.1\n"
                    "identity_sensing = yes\n")
    cfg = parse_config(path)
    assert cfg == {"rows": "16", "noise_std": "0.1", "identity_sensing": "yes"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("rows 16\n")
    with pytest.raises(ValueError, match=":1"):
        parse_config(bad)
    bad.write_text(" = 16\n")
    with pytest.raises(ValueError, match="empty key"):
        parse_config(bad)


def test_trajectory_and_float_list_parsing():
    assert parse_trajectory("1:0,101:7") == ((1, 0), (101, 7))
    assert parse_trajectory(" 1:8 ") == ((1, 8),)
    with pytest.raises(ValueError):
        parse_trajectory("1-0")
    with pytest.raises(ValueError):
        parse_trajectory("1:x")
    assert parse_floats("0,0.001, 0.002") == (0.0, 0.001, 0.002)
    with pytest.raises(ValueError):
        parse_floats("0,abc")
