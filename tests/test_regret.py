import itertools
import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynmd import (
    BoundConstants,
    ComparatorSequence,
    ConstantStep,
    DoublingStep,
    IdentityModel,
    PixelShift,
    StepSchedule,
    best_segmentation,
    cumulative_regret,
    fixed_share_bound,
    least_squares,
    moving_average,
    theorem2_curve,
    tracking_decomposition_from_losses,
)
import dynmd.regret
from dynmd.dynamics import model_deviations
from dynmd.regret import _best_switching


def random_losses(rng, T, m, n, tau=0.0):
    return [least_squares(rng.normal(size=(m, n)), rng.normal(size=m), tau=tau)
            for _ in range(T)]


def brute_force_segmented(cost, models_per_step, max_switches):
    # enumerate every model assignment with at most max_switches changes
    T, N = cost.shape
    best = math.inf
    for seq in itertools.product(range(N), repeat=T):
        switches = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
        if switches <= max_switches:
            best = min(best, sum(cost[t, seq[t]] for t in range(T)))
    return best


def test_regret_module_is_not_shadowed():
    # the package re-exports no name that would hide the submodule
    assert isinstance(dynmd.regret, types.ModuleType)
    assert dynmd.regret.best_segmentation is best_segmentation


def test_comparator_sequence_basics():
    pts = np.zeros((5, 3))
    comp = ComparatorSequence(pts, label="flat")
    assert len(comp) == 5
    assert "flat" in repr(comp)
    with pytest.raises(ValueError):
        ComparatorSequence(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        ComparatorSequence(np.array([[0.0], [np.inf]]))


def test_regret_zero_against_own_predictions():
    rng = np.random.default_rng(71)
    losses = random_losses(rng, 6, 3, 2)
    preds = [rng.normal(size=2) for _ in range(6)]
    comp = ComparatorSequence(np.stack(preds + [preds[-1]]))
    assert cumulative_regret(losses, preds, comp)[-1] == 0.0


def test_regret_hand_example_and_loop_oracle():
    rng = np.random.default_rng(73)
    losses = random_losses(rng, 5, 3, 2, tau=0.1)
    preds = [rng.normal(size=2) for _ in range(5)]
    pts = rng.normal(size=(6, 2))
    want = sum(l.value(p) for l, p in zip(losses, preds)) \
        - sum(losses[t].value(pts[t]) for t in range(5))
    got = cumulative_regret(losses, preds, ComparatorSequence(pts))[-1]
    assert abs(got - want) < 1e-12
    # a length-T point array is accepted too
    assert abs(cumulative_regret(losses, preds, pts[:5])[-1] - want) < 1e-12
    with pytest.raises(ValueError):
        cumulative_regret(losses, preds, pts[:3])
    with pytest.raises(ValueError):
        cumulative_regret(losses, preds[:-1], pts)


def test_cumulative_regret_matches_prefix_sums():
    rng = np.random.default_rng(79)
    losses = random_losses(rng, 8, 3, 2)
    preds = [rng.normal(size=2) for _ in range(8)]
    pts = rng.normal(size=(9, 2))
    curve = cumulative_regret(losses, preds, pts)
    assert curve.shape == (8,)
    for t in range(1, 9):
        want = (sum(losses[s].value(preds[s]) for s in range(t))
                - sum(losses[s].value(pts[s]) for s in range(t)))
        assert abs(curve[t - 1] - want) < 1e-10


def variation(points):
    # plain path variation: the deviations from the identity model's flow
    return float(model_deviations(points, [IdentityModel()]).sum())


def test_variation_frozen_and_loop_oracle():
    assert variation(np.array([[0.0], [3.0]])) == 3.0
    rng = np.random.default_rng(97)
    pts = rng.normal(size=(7, 2, 3))
    want = sum(np.linalg.norm((pts[t + 1] - pts[t]).ravel()) for t in range(6))
    assert abs(variation(pts) - want) < 1e-12


def test_variation_phi_zero_for_model_following_path():
    model = PixelShift(0, 3, 3, boundary="wrap")
    frame = np.zeros((3, 3))
    frame[1, 0] = 1.0
    pts = [frame.ravel()]
    for _ in range(6):
        pts.append(model.apply(pts[-1]))
    pts = np.stack(pts)
    assert model_deviations(pts, [model]).sum() == 0.0
    want = sum(np.linalg.norm(pts[t + 1] - pts[t]) for t in range(6))
    assert variation(pts) == pytest.approx(want, abs=1e-12)
    assert variation(pts) > 0.0


def test_best_segmentation_recovers_planted_switch():
    east = PixelShift(0, 4, 4, boundary="wrap")
    south = PixelShift(6, 4, 4, boundary="wrap")
    frame = np.zeros((4, 4))
    frame[1, 1] = 1.0
    pts = [frame.ravel()]
    for _ in range(4):
        pts.append(east.apply(pts[-1]))
    for _ in range(4):
        pts.append(south.apply(pts[-1]))
    comp = ComparatorSequence(np.stack(pts))
    models = [IdentityModel(), east, south]
    res = best_segmentation(comp, models, m=1)
    assert res.total_deviation == pytest.approx(0.0, abs=1e-12)
    assert res.switch_times == (5,)
    assert res.model_indices == (1, 2)
    assert res.segments[0][:2] == (1, 4)
    assert res.segments[1][:2] == (5, 8)
    # zero switches cannot reach zero deviation here
    res0 = best_segmentation(comp, models, m=0)
    assert res0.total_deviation > 0.1


def test_best_segmentation_matches_brute_force():
    rng = np.random.default_rng(101)
    T = 7
    pts = rng.normal(size=(T + 1, 4))
    models = [IdentityModel(),
              PixelShift(0, 2, 2, boundary="wrap"),
              PixelShift(6, 2, 2, boundary="wrap")]
    cost = np.empty((T, len(models)))
    for i, model in enumerate(models):
        for t in range(T):
            cost[t, i] = np.linalg.norm(pts[t + 1] - model.apply(pts[t]))
    comp = ComparatorSequence(pts)
    prev = math.inf
    for m in range(4):
        res = best_segmentation(comp, models, m=m)
        want = brute_force_segmented(cost, len(models), m)
        assert res.total_deviation == pytest.approx(want, abs=1e-10)
        assert res.total_deviation <= prev + 1e-12
        prev = res.total_deviation
        # the reported segments are consistent with the reported total
        assert sum(s[3] for s in res.segments) == pytest.approx(
            res.total_deviation, abs=1e-10)
        starts = [s[0] for s in res.segments]
        ends = [s[1] for s in res.segments]
        assert starts[0] == 1 and ends[-1] == T
        assert all(e + 1 == s for e, s in zip(ends, starts[1:]))
        assert res.switch_times == tuple(starts[1:])


def test_best_segmentation_validation():
    pts = np.zeros((4, 2))
    comp = ComparatorSequence(pts)
    with pytest.raises(ValueError):
        best_segmentation(comp, [], m=0)
    with pytest.raises(ValueError):
        best_segmentation(comp, [IdentityModel()], m=3)
    with pytest.raises(ValueError):
        best_segmentation(comp, [IdentityModel()], m=-1)


def test_theorem2_bound_frozen_example():
    consts = BoundConstants(g_ell=2.0, big_m=1.5, d_max=4.0, sigma=1.0)
    dev = np.array([1.0, 0.0, 2.0] + [0.0] * 7)  # V_Phi = 3 over T = 10
    got = theorem2_curve(consts, ConstantStep(0.5), dev)[-1]
    # 4/0.5 + (4*1.5/0.5)*3 + (4/2)*(0.5*10) = 8 + 36 + 10
    assert got == pytest.approx(54.0, abs=1e-12)
    with pytest.raises(ValueError):
        theorem2_curve(consts, ConstantStep(0.5), -dev)
    with pytest.raises(ValueError):
        theorem2_curve(consts, ConstantStep(0.5), np.zeros(0))


def test_theorem2_curve_rejects_a_rising_step_size():
    # the 1/eta_t telescoping fails when eta rises; unchecked, eta(t) = 0.1 t
    # gives a "bound" that falls from 20.05 to 8.5 over the 4 rounds
    class Rising(StepSchedule):
        def eta(self, t):
            return 0.1 * self._check_t(t)

    consts = BoundConstants(g_ell=1.0, big_m=1.0, d_max=4.0, sigma=1.0)
    with pytest.raises(ValueError, match=r"rises at round t=2: eta_1=0\.1 < "
                       r"eta_2=0\.2"):
        theorem2_curve(consts, Rising(), np.zeros(4))

    # the check reads eta_{T+1} too: a rise right after the horizon counts
    class LateRise(StepSchedule):
        def eta(self, t):
            return 0.5 if self._check_t(t) <= 3 else 1.0

    with pytest.raises(ValueError, match=r"rises at round t=4: eta_3=0\.5 < "
                       r"eta_4=1\.0"):
        theorem2_curve(consts, LateRise(), np.zeros(3))
    assert theorem2_curve(consts, LateRise(), np.zeros(2)).shape == (2,)


def test_theorem2_curve_matches_per_prefix_bounds():
    rng = np.random.default_rng(103)
    consts = BoundConstants(g_ell=1.2, big_m=0.8, d_max=2.5, sigma=2.0)
    sched = DoublingStep(4, 2, 0.7)
    dev = np.abs(rng.normal(size=12))
    curve = theorem2_curve(consts, sched, dev)
    assert curve.shape == (12,)
    for t in range(1, 13):
        # Theorem 2 at horizon t, one scalar term at a time
        want = (consts.d_max / sched.eta(t + 1)
                + 4.0 * consts.big_m / sched.eta(t) * float(dev[:t].sum())
                + consts.g_ell ** 2 / (2.0 * consts.sigma)
                * sum(sched.eta(s) for s in range(1, t + 1)))
        assert curve[t - 1] == pytest.approx(want, rel=1e-12)


def test_tracking_decomposition_sums_to_regret():
    rng = np.random.default_rng(107)
    T, N = 8, 2
    losses = random_losses(rng, T, 3, 2, tau=0.05)
    dfs_preds = [rng.normal(size=2) for _ in range(T)]
    expert_preds = [[rng.normal(size=2) for _ in range(T)] for _ in range(N)]
    pts = rng.normal(size=(T + 1, 2))
    comp = ComparatorSequence(pts)
    dfs_losses = np.array([losses[t].value(dfs_preds[t]) for t in range(T)])
    cost = np.array([[losses[t].value(expert_preds[i][t]) for i in range(N)]
                     for t in range(T)])
    comp_losses = np.array([losses[t].value(pts[t]) for t in range(T)])
    res = tracking_decomposition_from_losses(dfs_losses, cost, comp_losses, m=2)
    total = cumulative_regret(losses, dfs_preds, comp)[-1]
    assert res.t1 + res.t2 == pytest.approx(total, abs=1e-10)
    assert res.total == pytest.approx(total, abs=1e-10)
    # brute force the best <= 2-switch expert sequence
    want = brute_force_segmented(cost, N, 2)
    assert res.best_sequence_loss == pytest.approx(want, abs=1e-10)
    # reported sequence reproduces the reported loss
    got = 0.0
    starts = (1,) + res.switch_times
    ends = res.switch_times + (T + 1,)
    for (s, e), i in zip(zip(starts, ends), res.expert_indices):
        got += cost[s - 1:e - 1, i].sum()
    assert got == pytest.approx(res.best_sequence_loss, abs=1e-10)


def _brute_force_exact_segments(cost, n_segments):
    # every placement of n_segments - 1 cuts, each segment on its best column
    T = cost.shape[0]
    best = math.inf
    for cuts in itertools.combinations(range(1, T), n_segments - 1):
        bounds = zip((0,) + cuts, cuts + (T,))
        best = min(best, sum(cost[a:b].sum(axis=0).min() for a, b in bounds))
    return best


@st.composite
def switching_costs(draw):
    T = draw(st.integers(1, 10))
    N = draw(st.integers(1, 4))
    m = draw(st.integers(0, T - 1))
    if draw(st.booleans()):
        cells = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    else:
        cells = st.integers(0, 2).map(float)  # many exact ties
    rows = draw(st.lists(st.lists(cells, min_size=N, max_size=N),
                         min_size=T, max_size=T))
    return np.array(rows), m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(switching_costs())
def test_switching_dp_matches_brute_force(case):
    cost, m = case
    T = cost.shape[0]
    value, bounds, cols, switch_times = _best_switching(cost, m)
    scale = max(1.0, np.abs(cost).sum())
    assert abs(value - _brute_force_exact_segments(cost, m + 1)) <= 1e-10 * scale
    # m + 1 contiguous nonempty segments covering 1..T, costs summing to the value
    assert len(bounds) == len(cols) == m + 1
    assert bounds[0][0] == 1 and bounds[-1][1] == T
    assert all(s <= e for s, e in bounds)
    assert all(e + 1 == s for (_, e), (s, _) in zip(bounds, bounds[1:]))
    seg_total = sum(cost[s - 1:e, i].sum() for (s, e), i in zip(bounds, cols))
    assert abs(seg_total - value) <= 1e-10 * scale
    res = tracking_decomposition_from_losses(np.zeros(T), cost, np.zeros(T), m)
    assert res.best_sequence_loss == value
    assert switch_times == tuple(s for s, _ in bounds[1:])
    assert res.switch_times == switch_times
    assert res.expert_indices == cols


def test_switching_dp_tie_rule():
    # all columns tie: lowest-index columns, redundant segments first
    value, bounds, cols, switch_times = _best_switching(np.ones((6, 3)), 2)
    assert value == 6.0
    assert bounds == [(1, 1), (2, 2), (3, 6)]
    assert cols == (0, 0, 0)
    assert switch_times == (2, 3)
    # one real switch, m = 2: the spare segment goes to the start
    cost = np.array([[0.0, 1.0]] * 3 + [[1.0, 0.0]] * 3)
    value, bounds, cols, switch_times = _best_switching(cost, 2)
    assert value == 0.0
    assert bounds == [(1, 1), (2, 3), (4, 6)]
    assert cols == (0, 0, 1)
    assert switch_times == (2, 4)


def per_step_switching(cost, m):
    # the switching DP one step of all m + 1 layers at a time: the slow
    # reference that _best_switching's layer-at-a-time passes must match
    T, N = cost.shape
    dp = np.full((m + 1, N), np.inf)
    dp[0] = cost[0]
    starts = np.zeros((T, m + 1, N), dtype=bool)
    before = np.zeros((T, m + 1), dtype=np.intp)
    rows = np.arange(m)
    for t in range(1, T):
        k = dp[:-1].argmin(axis=1)
        best = dp[rows, k][:, None]
        new = best < dp[1:]
        starts[t, 1:] = new
        before[t, 1:] = k
        np.copyto(dp[1:], best, where=new)
        dp += cost[t]
    col = int(dp[-1].argmin())
    value = float(dp[-1, col])
    bounds, cols, end = [], [], T
    for j in range(m, 0, -1):
        start = int(np.flatnonzero(starts[:end, j, col])[-1])
        bounds.append((start + 1, end))
        cols.append(col)
        col = int(before[start, j])
        end = start
    bounds.append((1, end))
    cols.append(col)
    bounds.reverse()
    cols.reverse()
    return value, bounds, tuple(cols), tuple(start for start, _ in bounds[1:])


@st.composite
def generated_costs(draw):
    T = draw(st.integers(1, 80))
    N = draw(st.integers(1, 5))
    m = draw(st.integers(0, min(5, T - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["integer", "uniform", "signed"]))
    if kind == "integer":
        cost = rng.integers(0, 3, size=(T, N)).astype(float)  # many exact ties
    elif kind == "uniform":
        cost = rng.uniform(size=(T, N))
    else:
        cost = rng.normal(scale=10.0, size=(T, N))
    return cost, m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(generated_costs())
def test_switching_dp_matches_per_step_reference(case):
    # the same segmentation, and its cells summed in the same order, so
    # the same value to the bit
    cost, m = case
    assert _best_switching(cost, m) == per_step_switching(cost, m)


def exact_total(cost, bounds, cols):
    return sum(Fraction(float(v)) for (s, e), i in zip(bounds, cols)
               for v in cost[s - 1:e, i])


@st.composite
def drawn_cells(draw):
    T = draw(st.integers(1, 30))
    N = draw(st.integers(1, 4))
    m = draw(st.integers(0, min(5, T - 1)))
    cells = draw(st.sampled_from([st.floats(0.0, 1.0), st.floats(-1e3, 1e3)]))
    rows = draw(st.lists(st.lists(cells, min_size=N, max_size=N),
                         min_size=T, max_size=T))
    return np.array(rows), m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn_cells())
@example((np.array([[1.0, 0.0], [1.0, 0.0], [0.5866187241528399, 0.0],
                    [0.37473241224703063, 0.0], [2.0 ** -52, 0.0]]), 1))
def test_switching_dp_differs_from_reference_only_in_rounding(case):
    # cells like 2^-52 or 5e-324 beside prefix sums near 1 make segmentations
    # whose totals differ only in rounding; the two recursions round in
    # another order and may each report another one of them (in the example
    # the 2^-52 is lost in column 0's prefix sum, so the passes end there)
    cost, m = case
    value, bounds, cols, _ = _best_switching(cost, m)
    want = per_step_switching(cost, m)
    scale = max(1.0, np.abs(cost).sum())
    assert abs(value - want[0]) <= 1e-12 * scale
    if (bounds, cols) != want[1:3]:
        gap = exact_total(cost, bounds, cols) - exact_total(cost, *want[1:3])
        assert abs(gap) <= 1e-12 * scale


def test_switching_dp_long_horizon():
    cost = np.random.default_rng(113).uniform(size=(20000, 4))
    assert _best_switching(cost, 3) == per_step_switching(cost, 3)


def test_switching_dp_sums_near_the_float_limit(recwarn):
    # every sequence's sum overflows: a clean error, never a silent inf
    with pytest.raises(ValueError, match="the best 1-switch cost sum overflows"):
        _best_switching(np.full((4, 2), 1e308), 1)
    with pytest.raises(ValueError, match="cost must be finite"):
        _best_switching(np.array([[1.0], [np.inf]]), 1)
    # one column's prefix sums overflow, the best sequence's do not
    cost = np.array([[1e308, 0.0], [1e308, 1.0], [0.0, 1.0]])
    assert _best_switching(cost, 0) == (2.0, [(1, 3)], (1,), ())
    # restarting on column 1 after -1e308 stores -1e308 - 1.5e308 in the
    # passes: on unscaled costs that overflows to -inf, hides the later and
    # better restart and reports -1.2e308; the passes run on costs scaled by
    # a power of two and find the reference's -1.7e308
    cost = np.array([[-1e308, 1e308], [0.0, 0.5e308], [0.0, -0.7e308], [0.0, 0.0]])
    assert _best_switching(cost, 1) == per_step_switching(cost, 1) \
        == (-1.7e308, [(1, 2), (3, 4)], (0, 1), (3,))
    assert not recwarn.list


@pytest.mark.parametrize("traces,named", [
    ((np.ones((5, 2)), np.ones((5, 2)), np.ones(5)), r"dfs_losses .* shape \(5, 2\)"),
    ((np.ones(5), np.ones((5, 2)), np.ones((5, 3))),
     r"comparator_losses .* shape \(5, 3\)"),
    ((np.ones(5), np.ones((5, 0)), np.ones(5)), r"expert_losses .* shape \(5, 0\)"),
], ids=["dfs-matrix", "comparator-matrix", "no-experts"])
def test_tracking_decomposition_rejects_misshaped_traces(traces, named):
    # a (T, 2) dfs trace summed 2T values into t1, a (T, 3) comparator gave
    # t2 = -10, and no expert columns failed inside numpy's argmin
    with pytest.raises(ValueError, match=named):
        tracking_decomposition_from_losses(*traces, m=1)


def test_tracking_decomposition_from_losses_validation():
    good = np.ones(5), np.ones((5, 2)), np.ones(5)
    res = tracking_decomposition_from_losses(*good, m=1)
    assert res.total == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        tracking_decomposition_from_losses(np.ones(5), np.ones((4, 2)),
                                           np.ones(5), m=1)
    with pytest.raises(ValueError):
        tracking_decomposition_from_losses(*good, m=5)
    with pytest.raises(ValueError):
        tracking_decomposition_from_losses(*good, m=-1)
    with pytest.raises(ValueError, match="m must be an integer"):
        tracking_decomposition_from_losses(*good, m=1.5)
    with pytest.raises(ValueError, match="matrix"):
        tracking_decomposition_from_losses(np.ones(5), np.ones(5), np.ones(5), m=0)
    # a NaN cell used to crash the DP's backtracking with IndexError, and
    # sums near the float limit overflowed with a warning
    with pytest.raises(ValueError, match="expert losses are not all finite"):
        tracking_decomposition_from_losses(np.ones(3), np.array([[1.0], [np.nan], [1.0]]),
                                           np.ones(3), m=1)
    with pytest.raises(ValueError, match="the loss sums overflow"):
        tracking_decomposition_from_losses(np.full(3, 1e308), np.ones((3, 2)),
                                           np.ones(3), m=1)


def test_fixed_share_bound_hand_value():
    got = fixed_share_bound(4, m=1, T=3, eta_r=2.0, lam=0.25)
    want = (2 * math.log(4) / 2.0
            + (-math.log(0.25) - math.log(0.75)) / 2.0
            + 2.0 * 3 / 8.0)
    assert got == pytest.approx(want, abs=1e-12)
    assert fixed_share_bound(4, m=1, T=3, eta_r=2.0, lam=0.0) == math.inf
    assert fixed_share_bound(4, m=1, T=3, eta_r=2.0, lam=1.0) == math.inf
    assert math.isfinite(fixed_share_bound(4, m=0, T=3, eta_r=2.0, lam=0.0))
    with pytest.raises(ValueError):
        fixed_share_bound(4, m=3, T=3, eta_r=2.0, lam=0.1)
    with pytest.raises(ValueError):
        fixed_share_bound(4, m=1, T=3, eta_r=0.0, lam=0.1)


def test_moving_average_oracle():
    got = moving_average([1.0, 2.0, 3.0], window=2)
    assert np.allclose(got, [1.0, 1.5, 2.5], atol=1e-15)
    rng = np.random.default_rng(109)
    v = rng.normal(size=50)
    got = moving_average(v, window=7)
    for t in range(50):
        lo = max(t - 6, 0)
        assert got[t] == pytest.approx(v[lo:t + 1].mean(), abs=1e-12)
    assert np.allclose(moving_average(v, window=1), v, rtol=0, atol=1e-12)
    # an integral float window is the same window
    assert np.array_equal(moving_average(v, window=2.0), moving_average(v, window=2))
    with pytest.raises(ValueError):
        moving_average(v, window=0)
    with pytest.raises(ValueError):
        moving_average(v, window=2.5)
