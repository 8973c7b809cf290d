import argparse
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmd import (
    Ball,
    BoundConstants,
    Box,
    ConstantStep,
    DoublingStep,
    IdentityModel,
    PixelShift,
    SquaredEuclidean,
    Unconstrained,
    audit_contraction,
    default_lambda,
    dmd_init,
    fixed_share_bound,
    least_squares,
    moving_average,
)
from dynmd.experiments import (
    VideoScenario,
    VoteStream,
    generate_video,
    run_scenario,
    synthetic_votes,
)
from dynmd.experiments.cli import cmd_audit_dynamics
from dynmd.regret import _best_switching

from conftest import sampled_constants


def bregman_oracle(scale, a, b):
    # term-by-term definition psi(a) - psi(b) - <grad psi(b), a - b>
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    psi_a = scale * sum(x * x for x in a)
    psi_b = scale * sum(x * x for x in b)
    inner = sum(2.0 * scale * bb * (aa - bb) for aa, bb in zip(a, b))
    return psi_a - psi_b - inner


def test_divergence_zero_at_equal_points():
    geom = SquaredEuclidean(1.0)
    p = np.array([0.3, -1.2, 7.0])
    assert geom.divergence(p, p) == 0.0


def test_divergence_unit_example():
    geom = SquaredEuclidean(1.0)
    assert geom.divergence(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 1.0


def test_divergence_matches_term_by_term_oracle():
    rng = np.random.default_rng(7)
    for scale in (0.5, 1.0, 2.5):
        geom = SquaredEuclidean(scale)
        for _ in range(50):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            want = bregman_oracle(scale, a, b)
            assert geom.divergence(a, b) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_divergence_three_point_identity():
    # D(t1||t2) = D(t3||t2) + D(t1||t3) + <grad psi(t2) - grad psi(t3), t3 - t1>
    rng = np.random.default_rng(11)
    for scale in (0.5, 1.0):
        geom = SquaredEuclidean(scale)
        for _ in range(1000):
            t1, t2, t3 = rng.normal(size=(3, 4))
            lhs = geom.divergence(t1, t2)
            rhs = (geom.divergence(t3, t2) + geom.divergence(t1, t3)
                   + float(np.dot(2 * scale * t2 - 2 * scale * t3, t3 - t1)))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_divergence_strong_convexity_lower_bound():
    rng = np.random.default_rng(13)
    for scale in (0.5, 1.0, 3.0):
        geom = SquaredEuclidean(scale)
        for _ in range(1000):
            a, b = rng.normal(size=(2, 6))
            d = geom.divergence(a, b)
            assert d >= 0.0
            assert d >= geom.sigma / 2.0 * float(np.sum((a - b) ** 2)) - 1e-12


def test_divergence_zero_iff_equal():
    geom = SquaredEuclidean(1.0)
    rng = np.random.default_rng(17)
    for _ in range(100):
        a, b = rng.normal(size=(2, 3))
        if np.any(a != b):
            assert geom.divergence(a, b) > 0.0


def test_divergence_errors():
    geom = SquaredEuclidean(1.0)
    with pytest.raises(ValueError):
        geom.divergence(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        geom.divergence(np.array([np.nan, 0.0]), np.zeros(2))
    with pytest.raises(ValueError):
        SquaredEuclidean(0.0)


def test_sigma_is_recorded_not_inferred():
    assert SquaredEuclidean(0.5).sigma == 1.0
    assert SquaredEuclidean(1.0).sigma == 2.0


def test_box_projection_clamps():
    box = Box(0.0, 1.0, shape=2)
    out = box.project(np.array([2.0, 0.5]))
    assert np.array_equal(out, [1.0, 0.5])
    box3 = Box(0.0, 1.0, shape=3)
    out3 = box3.project(np.array([-0.2, 1.7, 0.3]))
    assert np.array_equal(out3, [0.0, 1.0, 0.3])


def test_unconstrained_projection_is_identity():
    fset = Unconstrained(4)
    p = np.array([5.0, -3.0, 0.0, 99.0])
    assert np.array_equal(fset.project(p), p)
    assert fset.contains(p)


def test_projection_idempotent_and_nonexpansive():
    rng = np.random.default_rng(23)
    sets = [Box(-1.0, 1.0, shape=5), Box(0.0, 1.0, shape=5),
            Ball(np.zeros(5), 2.0, norm=2), Ball(np.zeros(5), 1.5, norm=1)]
    for fset in sets:
        for _ in range(200):
            a = rng.normal(scale=3.0, size=5)
            b = rng.normal(scale=3.0, size=5)
            pa, pb = fset.project(a), fset.project(b)
            assert fset.contains(pa, tol=1e-9)
            assert np.allclose(fset.project(pa), pa, atol=1e-12)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9


def test_project_takes_a_point_or_a_stack():
    # a (k, *shape) stack projects row by row, bit for bit
    rng = np.random.default_rng(31)
    sets = [Box(-1.0, 1.0, shape=(2, 3)), Unconstrained((2, 3)),
            Ball(np.zeros((2, 3)), 2.0, norm=2), Ball(np.ones((2, 3)), 1.5, norm=1)]
    stack = rng.normal(scale=3.0, size=(4, 2, 3))
    for fset in sets:
        got = fset.project(stack)
        assert got.shape == stack.shape
        for row, p in zip(got, stack):
            assert np.array_equal(row, fset.project(p))
        for bad in (np.zeros(3), np.zeros((4, 3, 2)), np.zeros((1, 1, 2, 3))):
            with pytest.raises(ValueError, match="neither a point nor a stack"):
                fset.project(bad)
        with pytest.raises(ValueError, match="non-finite"):
            fset.project(np.full((2, 2, 3), np.nan))


def test_ball_projection_optimality_sampled():
    # the projection must be at least as close as any sampled feasible point
    rng = np.random.default_rng(29)
    for norm in (1, 2):
        fset = Ball(np.zeros(4), 1.0, norm=norm)
        feas = fset.sample(rng, 300)
        for _ in range(20):
            p = rng.normal(scale=2.0, size=4)
            proj = fset.project(p)
            d0 = np.linalg.norm(p - proj)
            for q in feas:
                assert d0 <= np.linalg.norm(p - q) + 1e-9


def l1_projection_oracle(v, radius):
    """Projection of v onto the 1-ball of the given radius at 0, found with
    exact rational arithmetic and rounded once."""
    u = [abs(Fraction(x)) for x in v]
    r = Fraction(radius)
    if sum(u) <= r:
        return np.array(v, dtype=float)
    css, tau = 0, None
    for j, uj in enumerate(sorted(u, reverse=True), 1):
        css += uj
        if uj > (css - r) / j:
            tau = (css - r) / j
    return np.array([math.copysign(float(max(uj - tau, 0)), x) for uj, x in zip(u, v)])


@st.composite
def far_points(draw):
    n = draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3)
    return {
        "norm": draw(st.sampled_from([1, 2])),
        "p": np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        * 10.0 ** draw(st.integers(8, 307)),
        "radius": draw(st.sampled_from([1e-3, 1.0, 7.5, 1e3])),
        "center": draw(st.sampled_from([0.0, 2.0, -0.5])),
    }


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(far_points())
def test_ball_projects_points_of_huge_magnitude(case):
    # far enough out, the 2-norm overflows and radius is lost in rounding
    # next to the largest entries; the projection is still the true one, to
    # half the digits on the 1-ball, whose thresholds round next to |p|
    p, r, norm = case["p"], case["radius"], case["norm"]
    center = np.full(p.shape, case["center"])
    ball = Ball(center, r, norm=norm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ball.project(p)
    v = p - center  # the centre is lost in rounding next to p
    if norm == 2:
        want = center + r * (v / math.hypot(*v))
    else:
        want = center + l1_projection_oracle(v, r)
    tol = (1e-12 if norm == 2 else 2e-8) * (r + abs(case["center"]))
    assert np.allclose(got, want, rtol=0.0, atol=tol)
    assert ball.contains(got, tol=tol)
    assert np.array_equal(ball.project(p[None])[0], got)


@pytest.mark.parametrize("norm", [1, 2])
def test_ball_projects_points_whose_offset_overflows(norm):
    # p - center overflows in the first coordinate: the projection moves
    # radius along it, as for any point due east of the centre
    center = np.full(2, -1e308)
    ball = Ball(center, 1e300, norm=norm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ball.project(np.array([1e308, -1e308]))
    assert np.array_equal(got, center + [1e300, 0.0])
    diagonal = ball.project(np.array([1e308, 1e308]))
    step = 1e300 / math.sqrt(2.0) if norm == 2 else 0.5e300
    assert np.allclose(diagonal, center + step, rtol=1e-15, atol=0.0)



def test_ball_contains_points_whose_squares_overflow():
    # the 2-norm's squares overflow past about 1.3e154: contains used to
    # answer False, with a warning, for a point project returns unchanged
    ball = Ball(np.zeros(2), 1e200)
    p = np.array([1e160, 1e160])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ball.contains(p)
        assert np.array_equal(ball.project(p), p)
        assert not ball.contains(np.array([1e200, 1e200]))
        assert not Ball(np.full(2, -1e308), 1e300).contains(np.array([1e308, 0.0]))


@st.composite
def huge_balls(draw):
    n = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.integers(8, 307))
    unit = st.floats(-1.0, 1.0)
    return {
        "norm": draw(st.sampled_from([1, 2])),
        "center": np.array(draw(st.lists(unit, min_size=n, max_size=n))) * scale,
        "radius": draw(st.floats(0.1, 1.0)) * scale,
        # inside and outside the ball
        "offset": np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n,
                                         max_size=n))) * scale,
    }


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(huge_balls())
def test_ball_contains_its_projections_at_any_magnitude(case):
    # a moved point lies on the sphere to rounding, which at these radii is
    # far above the default absolute tol: measure it relative to the radius
    ball = Ball(case["center"], case["radius"], norm=case["norm"])
    tol = (1e-12 if case["norm"] == 2 else 1e-7) * case["radius"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ball.project(case["center"] + case["offset"])
        assert ball.contains(got, tol=tol)

def test_box_requires_ordered_bounds():
    with pytest.raises(ValueError):
        Box(1.0, 0.0, shape=2)
    with pytest.raises(ValueError):
        Box(2.0, 3.0)  # scalar bounds without a shape
    # no finite point: projecting zeros would start a tracker at +-inf
    for lo, hi in ((np.inf, np.inf), (-np.inf, -np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="lo < inf and hi > -inf"):
            Box(lo, hi, shape=2)


def test_membership_boundary_points():
    box = Box(0.0, 1.0, shape=2)
    assert box.contains(np.array([0.0, 1.0]))
    assert not box.contains(np.array([0.0, 1.1]))
    ball = Ball(np.zeros(2), 1.0)
    assert ball.contains(np.array([1.0, 0.0]))
    assert not ball.contains(np.array([1.1, 0.0]))


def test_set_samples_are_members():
    rng = np.random.default_rng(31)
    for fset in (Box(-2.0, 0.5, shape=3), Ball(np.ones(3), 0.7, norm=2),
                 Ball(np.zeros(3), 1.0, norm=1)):
        for p in fset.sample(rng, 200):
            assert fset.contains(p, tol=1e-9)


def test_constant_schedule():
    sched = ConstantStep(0.25)
    assert sched.eta(1) == 0.25
    assert sched.eta(1000) == 0.25
    assert np.all(sched.etas(10) == 0.25)
    with pytest.raises(ValueError):
        sched.eta(0)
    with pytest.raises(ValueError):
        ConstantStep(0.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(eta=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       t=st.integers(1, 10 ** 7), T=st.integers(1, 300))
def test_constant_step_is_doubling_step_with_growth_one(eta, t, T):
    const, doubling = ConstantStep(eta), DoublingStep(1, 1, eta)
    assert const.eta(t) == doubling.eta(t) == eta
    assert const.etas(T).tobytes() == doubling.etas(T).tobytes()
    assert const.etas(T).tobytes() == np.full(T, eta).tobytes()


def test_doubling_schedule_frozen_table():
    sched = DoublingStep(horizon0=1, growth=2, scale=1.0)
    # segments: {1}, {2,3}, {4..7}, ...
    assert sched.eta(1) == 1.0
    assert sched.eta(2) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert sched.eta(3) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    for t in (4, 5, 6, 7):
        assert sched.eta(t) == pytest.approx(0.5, rel=1e-15)
    assert sched.eta(8) == pytest.approx(1.0 / math.sqrt(8.0), rel=1e-15)


def test_doubling_schedule_powers_of_ten():
    sched = DoublingStep(horizon0=10, growth=10, scale=1.0)
    assert sched.eta(10) == pytest.approx(1.0 / math.sqrt(10.0), rel=1e-15)
    assert sched.eta(11) == pytest.approx(0.1, rel=1e-15)
    assert sched.eta(110) == pytest.approx(0.1, rel=1e-15)
    assert sched.eta(111) == pytest.approx(1.0 / math.sqrt(1000.0), rel=1e-15)


def test_doubling_etas_vector_matches_scalar():
    for h0, g, c in ((1, 2, 1.0), (10, 10, 0.5), (7, 3, 2.0), (5, 1, 1.0)):
        sched = DoublingStep(horizon0=h0, growth=g, scale=c)
        vec = sched.etas(200)
        for t in range(1, 201):
            assert vec[t - 1] == pytest.approx(sched.eta(t), rel=1e-15)


def _doubling_reference(h0, growth, scale, T):
    # eta(t) of every round t <= T by the per-round segment walk: segment k
    # has length h0 * growth^k and ends at the running sum of the lengths
    seg_len = cum = float(h0)
    out = np.empty(T)
    for t in range(1, T + 1):
        while t > cum:
            seg_len *= growth
            cum += seg_len
        out[t - 1] = scale / math.sqrt(seg_len)
    return out


def test_doubling_schedule_matches_segment_walk_reference():
    T = 3000
    sample = sorted(set(range(1, 65)) | set(range(65, T + 1, 37)) | {T})
    for h0 in (1, 1.5, 2, 7, 10, 32, 2999.5):
        for growth in (1, 1.25, 2, 3.7, 10):
            for scale in (0.5, 1.0, 2.3):
                sched = DoublingStep(h0, growth, scale)
                want = _doubling_reference(h0, growth, scale, T)
                case = (h0, growth, scale)
                assert np.array_equal(sched.etas(T), want), case
                got = np.array([sched.eta(t) for t in sample])
                assert np.array_equal(got, want[np.array(sample) - 1]), case
    # growth 1: every segment is horizon0 long, so no walk to round 10^7
    assert DoublingStep(1, 1.0, 1.0).eta(10 ** 7) == 1.0


def test_schedule_positive_and_non_increasing():
    for sched in (ConstantStep(0.3), DoublingStep(1, 2, 1.0), DoublingStep(10, 10, 1.0)):
        etas = sched.etas(500)
        assert np.all(etas > 0)
        assert np.all(np.diff(etas) <= 1e-15)


def test_schedule_argument_errors():
    with pytest.raises(ValueError):
        DoublingStep(0, 2, 1.0)
    with pytest.raises(ValueError):
        DoublingStep(1, 0.5, 1.0)
    with pytest.raises(ValueError):
        DoublingStep(1, 2, 0.0)
    with pytest.raises(ValueError):
        DoublingStep(1, 2, 1.0).eta(-3)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_parameters_are_rejected_by_name(bad):
    # an infinite growth used to overflow in the segment walk, an infinite
    # geometry scale to surface as a zero prox weight
    cases = [
        (lambda: SquaredEuclidean(bad), "scale"),
        (lambda: ConstantStep(bad), "eta"),
        (lambda: DoublingStep(bad, 2, 1.0), "horizon0"),
        (lambda: DoublingStep(1, bad, 1.0), "growth"),
        (lambda: DoublingStep(1, 2, bad), "scale"),
        (lambda: Ball(np.zeros(3), bad), "radius"),
    ]
    for make, name in cases:
        with pytest.raises(ValueError, match=f"^{name} must be .*finite"):
            make()


_INTEGER_PARAMETERS = {
    "time index": lambda x: ConstantStep(0.1).eta(x),
    "reg_period": lambda x: dmd_init(SquaredEuclidean(1.0), Unconstrained(2),
                                     IdentityModel(), ConstantStep(0.1),
                                     reg_period=x),
    "m-default_lambda": lambda x: default_lambda(x, 10),
    "T-default_lambda": lambda x: default_lambda(1, x),
    "m-switching": lambda x: _best_switching(np.zeros((4, 2)), x),
    "window": lambda x: moving_average(np.ones(3), window=x),
    "n_pairs": lambda x: audit_contraction(IdentityModel(), SquaredEuclidean(1.0),
                                           Unconstrained(2), n_pairs=x),
    "n_experts-fixed_share_bound": lambda x: fixed_share_bound(x, 1, 10, 0.1, 0.1),
    "m-fixed_share_bound": lambda x: fixed_share_bound(3, x, 10, 0.1, 0.1),
    "T-fixed_share_bound": lambda x: fixed_share_bound(3, 1, x, 0.1, 0.1),
    "a leg start": lambda x: VideoScenario(trajectory=((1, 0), (x, 1))),
    "a leg direction": lambda x: VideoScenario(trajectory=((1, 0), (2, x))),
    "rows-VideoScenario": lambda x: VideoScenario(rows=x),
    "cols-VideoScenario": lambda x: VideoScenario(cols=x),
    "T-VideoScenario": lambda x: VideoScenario(T=x),
    "measurements": lambda x: VideoScenario(measurements=x),
    "seed-VideoScenario": lambda x: VideoScenario(seed=x),
    "block_size": lambda x: VideoScenario(block_size=x),
    "start_row": lambda x: VideoScenario(start_row=x),
    "start_col": lambda x: VideoScenario(start_col=x),
    "t-direction_at": lambda x: VideoScenario().direction_at(x),
    "t-VideoData.matrix": lambda x: generate_video(VideoScenario(
        rows=4, cols=4, block_size=2, start_row=0, T=2, measurements=3)).matrix(x),
    "t-VoteStream.loss": lambda x: VoteStream(np.ones((2, 2))).loss(x),
    "n_agents": lambda x: synthetic_votes(n_agents=x, T=2),
    "T-synthetic_votes": lambda x: synthetic_votes(n_agents=2, T=x),
    "sweeps": lambda x: synthetic_votes(n_agents=2, T=2, sweeps=x),
    "burn_in": lambda x: synthetic_votes(n_agents=2, T=2, burn_in=x),
    "seed-synthetic_votes": lambda x: synthetic_votes(n_agents=2, T=2, seed=x),
    "direction": lambda x: PixelShift(x, 4, 4),
    "rows-PixelShift": lambda x: PixelShift(0, x, 4),
    "cols-PixelShift": lambda x: PixelShift(0, 4, x),
    "shape-Unconstrained": lambda x: Unconstrained(x),
    "shape-Unconstrained-sequence": lambda x: Unconstrained((2, x)),
    "shape-Box": lambda x: Box(0.0, 1.0, shape=x),
    "T-run_scenario": lambda x: run_scenario(None, x, []),
    "seed-audit_contraction": lambda x: audit_contraction(
        IdentityModel(), SquaredEuclidean(1.0), Unconstrained(2), seed=x),
    "agents": lambda x: cmd_audit_dynamics(argparse.Namespace(
        c=1.0, model="attraction", agents=x)),
}


@pytest.mark.parametrize("bad", [math.inf, math.nan, 1.5])
@pytest.mark.parametrize("site", sorted(_INTEGER_PARAMETERS))
def test_integer_parameters_are_checked_by_name(site, bad):
    # one check: int(inf) would raise OverflowError, int(nan) Python's own
    # ValueError, and 1.5 used to pass some of these sites
    name = site.split("-")[0]
    with pytest.raises(ValueError,
                       match=rf"^{name} must be an integer >= \d+, got {bad}$"):
        _INTEGER_PARAMETERS[site](bad)


def test_unbounded_box_projects_but_cannot_sample():
    box = Box(-np.inf, 1.0, shape=(3,))
    assert np.array_equal(box.project(np.array([-5.0, 0.5, 7.0])),
                          [-5.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="unbounded box"):
        box.sample(np.random.default_rng(0), 2)
    # finite bounds whose width overflows, with no overflow warning
    with pytest.raises(ValueError, match="width overflows"):
        Box(-1e308, 1e308, shape=(3,)).sample(np.random.default_rng(0), 2)


def test_bound_constants_degenerate_sample():
    # single point at the minimizer of a single loss: every estimate is zero
    geom = SquaredEuclidean(0.5)
    loss = least_squares(np.eye(1), np.zeros(1), tau=0.0)  # 0.5 * theta^2
    consts = sampled_constants(geom, [loss], [np.zeros(1)])
    assert consts.g_ell == 0.0
    assert consts.big_m == 0.0
    assert consts.d_max == 0.0
    assert consts.sigma == 1.0


def test_bound_constants_two_point_example():
    # points {0, 1}, f = 0.5 theta^2, psi = 0.5 ||theta||^2:
    # G = max(|0|, |1|) = 1, M = 0.5 * max ||grad psi|| = 0.5, D_max = 0.5
    geom = SquaredEuclidean(0.5)
    loss = least_squares(np.eye(1), np.zeros(1), tau=0.0)
    consts = sampled_constants(geom, [loss], [np.zeros(1), np.ones(1)])
    assert consts.g_ell == pytest.approx(1.0, rel=1e-12)
    assert consts.big_m == pytest.approx(0.5, rel=1e-12)
    assert consts.d_max == pytest.approx(0.5, rel=1e-12)


def test_bound_constants_match_exhaustive_oracle():
    rng = np.random.default_rng(37)
    geom = SquaredEuclidean(1.0)
    fset = Box(-1.0, 1.0, shape=3)
    losses = [least_squares(rng.normal(size=(4, 3)), rng.normal(size=4), tau=0.2)
              for _ in range(5)]
    pts = list(fset.sample(rng, 40))
    consts = sampled_constants(geom, losses, pts)
    g = max(np.linalg.norm(l.subgradient(p)) for l in losses for p in pts)
    m = max(0.5 * np.linalg.norm(2 * geom.scale * p) for p in pts)
    d = max(geom.divergence(a, b) for a in pts for b in pts)
    assert consts.g_ell == pytest.approx(g, rel=1e-12)
    assert consts.big_m == pytest.approx(m, rel=1e-12)
    assert consts.d_max == pytest.approx(d, rel=1e-9)


def test_bound_constants_grow_with_sample():
    rng = np.random.default_rng(41)
    geom = SquaredEuclidean(1.0)
    fset = Box(-1.0, 1.0, shape=3)
    losses = [least_squares(rng.normal(size=(4, 3)), rng.normal(size=4), tau=0.1)]
    pts = list(fset.sample(rng, 30))
    prev = None
    for n in (1, 5, 10, 30):
        consts = sampled_constants(geom, losses, pts[:n])
        if prev is not None:
            assert consts.g_ell >= prev.g_ell - 1e-12
            assert consts.big_m >= prev.big_m - 1e-12
            assert consts.d_max >= prev.d_max - 1e-12
        prev = consts


def test_bound_constants_reject_empty_samples():
    geom = SquaredEuclidean(1.0)
    for empty in range(3):
        samples = [[1.0], [1.0], [1.0]]
        samples[empty] = []
        name = ("subgrad_norms", "point_norms", "divergences")[empty]
        with pytest.raises(ValueError, match=f"^{name} is an empty sample$"):
            BoundConstants.from_samples(geom, *samples)
