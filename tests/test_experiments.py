import numpy as np
import pytest

from dynmd import (
    Box,
    ConstantStep,
    DoublingStep,
    PixelShift,
    SquaredEuclidean,
    dmd_init,
    dmd_step,
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
    merge_options,
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


def small_scenario(**kw):
    base = dict(rows=8, cols=8, block_size=2, start_row=3, start_col=1,
                trajectory=((1, 0),), T=4, measurements=16, noise_std=0.02,
                seed=7)
    base.update(kw)
    return VideoScenario(**base)


def test_identity_sensing_noiseless_observes_frames():
    data = generate_video(small_scenario(identity_sensing=True, noise_std=0.0))
    for t in range(1, data.T + 1):
        assert np.array_equal(data.observation(t), data.frames[t - 1])
        assert np.array_equal(data.matrix(t), np.eye(data.n_pixels))


def test_observation_noise_energy():
    data = generate_video(small_scenario(T=40, measurements=200, noise_std=0.3))
    sq = []
    for t in range(1, data.T + 1):
        resid = data.observation(t) - data.matrix(t) @ data.frames[t - 1]
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


def test_video_generation_is_reproducible():
    a = generate_video(small_scenario(T=6))
    b = generate_video(small_scenario(T=6))
    assert np.array_equal(a.frames, b.frames)
    assert all(np.array_equal(a.observation(t), b.observation(t))
               for t in range(1, 7))
    assert np.array_equal(a.matrix(4), b.matrix(4))
    c = generate_video(small_scenario(T=6, seed=8))
    assert not all(np.array_equal(a.observation(t), c.observation(t))
                   for t in range(1, 7))


def test_video_tau_default_and_comparator():
    data = generate_video(small_scenario())
    want = 0.01 * np.abs(data.matrix(1).T @ data.observation(1)).max()
    assert data.tau_default == pytest.approx(want, rel=1e-12)
    comp = data.comparator()
    assert comp.horizon == data.T
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


@pytest.mark.parametrize("kw", [dict(seed=0), dict(seed=1), dict(seed=2),
                                dict(identity_sensing=True)])
def test_lazy_video_loss_matches_eager_construction(kw):
    data = generate_video(small_scenario(T=5, **kw))
    pairs = _eager_sensing(data.scenario, data.frames)
    for t, (A, x) in enumerate(pairs, start=1):
        loss = data.loss(t)
        assert np.array_equal(loss.f.A.view(np.uint64), A.view(np.uint64))
        assert np.array_equal(loss.f.x.view(np.uint64), x.view(np.uint64))
        assert np.array_equal(data.observation(t).view(np.uint64),
                              x.view(np.uint64))
    A1, x1 = pairs[0]
    assert data.tau_default == 0.01 * float(np.abs(A1.T @ x1).max())


def test_video_scenario_validation():
    with pytest.raises(ValueError):
        small_scenario(start_col=7)  # block would overhang
    with pytest.raises(ValueError):
        small_scenario(block_size=9)
    with pytest.raises(ValueError):
        small_scenario(boundary="torus")
    with pytest.raises(ValueError):
        small_scenario(trajectory=((2, 0),))
    with pytest.raises(ValueError):
        small_scenario(trajectory=((1, 0), (1, 6)))
    with pytest.raises(ValueError):
        small_scenario(trajectory=((1, 9),))
    with pytest.raises(ValueError):
        small_scenario(T=0)
    data = generate_video(small_scenario())
    with pytest.raises(ValueError):
        data.matrix(0)
    with pytest.raises(ValueError):
        data.matrix(5)


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
    assert thetas.shape == (30, 6, 6)
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
    experts = [dmd_init(geom, fset, m, ConstantStep(0.3)) for m in models]
    result = run_scenario(data.loss, data.T, experts, lam=0.1,
                          comparator=data.comparator())
    assert result.expert_labels == ("E", "NE", "N", "NW", "W", "SW", "S",
                                    "SE", "static")
    assert np.allclose(result.weights.sum(axis=1), 1.0, atol=1e-12)
    assert result.meta["eta_r"] == pytest.approx(1.0 / np.sqrt(8))
    for t in range(1, 9):
        loss = data.loss(t)
        assert result.comparator_losses[t - 1] == loss.value(data.frames[t - 1])
    assert np.all(result.comparator_divergences >= 0.0)
    with pytest.raises(ValueError):
        run_scenario(data.loss, data.T, experts, comparator=data.frames[:4])
    with pytest.raises(ValueError):
        run_scenario([data.loss(1)], data.T, experts)


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
    ev = evaluate_run(result, models, m=1)
    assert np.all(ev.deviations[:, 0] == 0.0)  # east model matches the truth
    assert ev.v_phi[0] == 0.0
    assert np.all(ev.v_phi[1:] > 0.0)
    assert np.all(ev.expert_regret[:, 0] <= ev.bound_curves[:, 0] + 1e-9)
    total = ev.decomposition.t1 + ev.decomposition.t2
    assert total == pytest.approx(ev.dfs_regret[-1], abs=1e-9)
    with pytest.raises(ValueError):
        evaluate_run(result, models[:3], m=1)
    bare = run_scenario(data.loss, data.T,
                        [dmd_init(geom, fset, models[0], sched)], lam=0.05)
    with pytest.raises(ValueError):
        evaluate_run(bare, models[:1], m=1)


def test_csv_writers_roundtrip(tmp_path):
    data = generate_video(small_scenario(T=6))
    geom = SquaredEuclidean(1.0)
    fset = Box(0.0, 1.0, shape=(data.n_pixels,))
    models = shift_family(8, 8)[:3]
    experts = [dmd_init(geom, fset, m, ConstantStep(0.3)) for m in models]
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


def test_agent_values_collection():
    stream, _ = synthetic_votes(n_agents=5, T=10, drift_alpha=0.0, seed=2,
                                sweeps=1)
    geom = SquaredEuclidean(0.5)
    fset = Box(-1.0, 1.0, shape=(5, 5))
    from dynmd import NetworkAttraction
    experts = [dmd_init(geom, fset, NetworkAttraction(a), ConstantStep(0.2))
               for a in (0.0, 0.01)]
    result = run_scenario(lambda t: stream.loss(t, tau=0.05), stream.T,
                          experts, lam=0.1, collect_agent_values=True)
    assert result.agent_values.shape == (10, 5)
    # per-agent pieces of the aggregate's fit sum to a full loss value
    assert np.all(result.agent_values >= 0.0)


def test_config_parsing_and_merge(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nrows = 16\nnoise_std=0.1\n"
                    "identity_sensing = yes\n")
    cfg = parse_config(path)
    assert cfg == {"rows": "16", "noise_std": "0.1", "identity_sensing": "yes"}
    defaults = {"rows": 32, "noise_std": 0.05, "identity_sensing": False,
                "boundary": "clip"}
    merged = merge_options(defaults, cfg, {"rows": 8, "noise_std": None})
    assert merged == {"rows": 8, "noise_std": 0.1, "identity_sensing": True,
                      "boundary": "clip"}
    with pytest.raises(ValueError, match="unknown config key"):
        merge_options(defaults, {"rws": "4"}, {})
    with pytest.raises(ValueError, match="expected int"):
        merge_options(defaults, {"rows": "4.5"}, {})
    with pytest.raises(ValueError, match="boolean"):
        merge_options(defaults, {"identity_sensing": "maybe"}, {})
    bad = tmp_path / "bad.cfg"
    bad.write_text("rows 16\n")
    with pytest.raises(ValueError, match=":1"):
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
