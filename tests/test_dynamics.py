import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dynmd import (
    Box,
    DynamicalModel,
    IdentityModel,
    NetworkAttraction,
    PixelShift,
    SquaredEuclidean,
    Unconstrained,
    audit_contraction,
    shift_family,
)
from dynmd import dynamics
from dynmd.dynamics import ModelStack, model_deviations


def test_identity_model():
    rng = np.random.default_rng(3)
    m = IdentityModel()
    p = rng.normal(size=(4, 4))
    out = m.apply(p)
    assert np.array_equal(out, p)
    out[0, 0] = 99.0  # must be a copy
    assert p[0, 0] != 99.0


def test_pixel_shift_east_example():
    # single bright pixel at (row 1, col 0) moves to (row 1, col 1)
    img = np.zeros((3, 3))
    img[1, 0] = 1.0
    shift = PixelShift(0, 3, 3)
    out = shift.apply(img)
    want = np.zeros((3, 3))
    want[1, 1] = 1.0
    assert np.array_equal(out, want)


def test_pixel_shift_direction_table():
    # one step from the center lands one pixel along each compass direction
    img = np.zeros((3, 3))
    img[1, 1] = 1.0
    landing = {0: (1, 2), 1: (0, 2), 2: (0, 1), 3: (0, 0),
               4: (1, 0), 5: (2, 0), 6: (2, 1), 7: (2, 2)}
    for i, (r, c) in landing.items():
        out = PixelShift(i, 3, 3).apply(img)
        want = np.zeros((3, 3))
        want[r, c] = 1.0
        assert np.array_equal(out, want), f"direction {i}"


def test_pixel_shift_flat_input_keeps_shape():
    rng = np.random.default_rng(5)
    flat = rng.normal(size=12)
    out = PixelShift(2, 3, 4).apply(flat)
    assert out.shape == (12,)
    assert np.array_equal(out, PixelShift(2, 3, 4).apply(flat.reshape(3, 4)).ravel())


def test_pixel_shift_east_west_compose_identity_on_interior():
    rng = np.random.default_rng(7)
    img = np.zeros((6, 6))
    img[1:-1, 1:-1] = rng.normal(size=(4, 4))
    east = PixelShift(0, 6, 6)
    west = PixelShift(4, 6, 6)
    assert np.array_equal(west.apply(east.apply(img)), img)


def test_pixel_shift_zero_fill_drops_mass():
    img = np.ones((3, 3))
    out = PixelShift(0, 3, 3).apply(img)  # east: first column vacated
    assert np.array_equal(out[:, 0], np.zeros(3))
    assert out.sum() == 6.0


def test_pixel_shift_wrap_is_isometry():
    rng = np.random.default_rng(11)
    for i in range(8):
        shift = PixelShift(i, 5, 7, boundary="wrap")
        a = rng.normal(size=35)
        b = rng.normal(size=35)
        assert np.linalg.norm(shift.apply(a) - shift.apply(b)) == pytest.approx(
            np.linalg.norm(a - b), rel=1e-15)
    ew = PixelShift(0, 5, 7, boundary="wrap")
    we = PixelShift(4, 5, 7, boundary="wrap")
    a = rng.normal(size=35)
    assert np.array_equal(we.apply(ew.apply(a)), a)


def test_pixel_shift_errors():
    with pytest.raises(ValueError):
        PixelShift(8, 3, 3)
    with pytest.raises(ValueError):
        PixelShift(0, 0, 3)
    with pytest.raises(ValueError):
        PixelShift(0, 3, 3, boundary="mirror")
    with pytest.raises(ValueError):
        PixelShift(0, 3, 3).apply(np.zeros(8))


def test_shift_family_composition():
    fam = shift_family(4, 4)
    assert len(fam) == 9
    assert [m.label for m in fam[:8]] == ["E", "NE", "N", "NW", "W", "SW", "S", "SE"]
    assert isinstance(fam[8], IdentityModel)
    assert fam[8].label == "static"


def test_network_attraction_alpha_zero_is_identity():
    rng = np.random.default_rng(13)
    theta = rng.uniform(-1.0, 1.0, size=(6, 6))
    out = NetworkAttraction(0.0).apply(theta)
    assert np.array_equal(out, theta)


def test_network_attraction_frozen_example():
    # theta_ab = 0.5, theta_ac = theta_bc = 0.9, alpha = 0.5:
    # product 0.81 > 0.5, new value 0.5*0.5 + 0.5*0.81 = 0.655
    theta = np.zeros((3, 3))
    theta[0, 1] = 0.5
    theta[0, 2] = 0.9
    theta[1, 2] = 0.9
    out = NetworkAttraction(0.5).apply(theta)
    assert out[0, 1] == pytest.approx(0.655, rel=1e-15)


def test_network_attraction_no_pull_when_product_weaker():
    theta = np.zeros((3, 3))
    theta[0, 1] = 0.9
    theta[0, 2] = 0.3
    theta[1, 2] = 0.3
    out = NetworkAttraction(0.7).apply(theta)
    assert out[0, 1] == 0.9  # |0.09| <= |0.9|: unchanged


def test_network_attraction_tie_breaks_to_lowest_index():
    # candidates c = 2 and c = 3 give |product| 0.72 with opposite signs;
    # the lowest index wins, so the signed pull target is +0.72
    theta = np.zeros((4, 4))
    theta[0, 1] = 0.1
    theta[0, 2], theta[1, 2] = 0.8, 0.9     # +0.72
    theta[0, 3], theta[1, 3] = -0.9, 0.8    # -0.72
    out = NetworkAttraction(1.0).apply(theta)
    assert out[0, 1] == pytest.approx(0.72, rel=1e-15)


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _slice_shift(model, theta):
    # reference: the shift as slice copies (zero fill) or np.roll (wrap)
    img = np.asarray(theta, dtype=float).reshape(model.rows, model.cols)
    dr, dc = model.dr, model.dc
    if model.boundary == "wrap":
        return np.roll(img, (dr, dc), axis=(0, 1)).reshape(np.shape(theta))
    out = np.zeros_like(img)
    out[max(0, dr):model.rows + min(0, dr), max(0, dc):model.cols + min(0, dc)] = \
        img[max(0, -dr):model.rows + min(0, -dr), max(0, -dc):model.cols + min(0, -dc)]
    return out.reshape(np.shape(theta))


def test_pixel_shift_gather_matches_slice_reference():
    rng = np.random.default_rng(71)
    for boundary in ("zero", "wrap"):
        for rows, cols in ((1, 1), (1, 5), (4, 3), (6, 6)):
            for model in shift_family(rows, cols, boundary=boundary)[:8]:
                img = rng.normal(size=(rows, cols))
                img[0, 0] = -0.0
                assert same_bits(model.apply(img), _slice_shift(model, img))
                flat = img.ravel()
                assert same_bits(model.apply(flat), _slice_shift(model, flat))


class _Doubling(DynamicalModel):
    # a user-defined model: ModelStack applies it point by point
    label = "double"

    def apply(self, theta):
        return 2.0 * np.asarray(theta, dtype=float)


def _attraction_pool():
    alphas = (0.0, 0.002, 0.1, 0.5, 1.0)
    return [NetworkAttraction(a) for a in alphas] + [IdentityModel()]


def _tied_matrices(rng, n, p):
    # few distinct magnitudes, signed zeros and all-zero rows: tied scores,
    # and entries whose every candidate scores 0
    levels = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    out = rng.choice(levels, size=(n, p, p))
    out[::3, 0] = 0.0
    out[1::3, :, -1] = -0.0
    return out


@pytest.mark.parametrize("shape", [(16,), (4, 4), (5, 5)])
def test_model_stack_rows_equal_each_models_apply(shape):
    rng = np.random.default_rng(73)
    if shape == (5, 5):
        # several attraction rows, one alpha each, share one search
        models = _attraction_pool() + [_Doubling()]
        thetas = _tied_matrices(rng, len(models), 5)
        thetas[1::2] = rng.uniform(-1.0, 1.0, size=thetas[1::2].shape)
    else:
        models = shift_family(4, 4) + [_Doubling()]
        if shape == (4, 4):
            models.append(NetworkAttraction(0.5))  # needs square matrices
        thetas = rng.uniform(-1.0, 1.0, size=(len(models),) + shape)
    stack = ModelStack(models, shape)
    out = stack.apply(thetas)
    assert out.shape == thetas.shape
    for i, model in enumerate(models):
        assert same_bits(out[i], model.apply(thetas[i]))
    with pytest.raises(ValueError):
        stack.apply(thetas[1:])


def _deviation_loop(points, models):
    # reference: the per-(model, t) loop that model_deviations replaces
    T = points.shape[0] - 1
    images = np.empty((len(models),) + points[:-1].shape)
    norms = np.empty((T, len(models)))
    for i, model in enumerate(models):
        for t in range(T):
            images[i, t] = model.apply(points[t])
            norms[t, i] = np.linalg.norm(np.ravel(points[t + 1] - images[i, t]))
    return images, norms


def _on_cpus(cpus, fn, *args):
    """fn(*args) with the CPU count patched to cpus, and how many threads
    called ModelStack.images; no thread may be left running."""
    callers = set()
    images = ModelStack.images

    def recording(self, points):
        callers.add(threading.get_ident())
        return images(self, points)

    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_cpu_count", lambda: cpus)
        mp.setattr(ModelStack, "images", recording)
        out = fn(*args)
    assert threading.active_count() == before
    return out, len(callers)


@pytest.mark.parametrize("kind", ["zero", "wrap", "attraction"])
@pytest.mark.parametrize("scratch", [None, 3000])
def test_model_deviations_match_per_point_apply(kind, scratch, monkeypatch):
    if scratch is not None:
        # a budget of a few points per chunk exercises the chunk seams
        monkeypatch.setattr(dynamics, "_SCRATCH_BYTES", scratch)
    rng = np.random.default_rng(83)
    T = 23
    if kind == "attraction":
        models = _attraction_pool() + [_Doubling()]
        points = _tied_matrices(rng, T + 1, 4)
        points[1::2] = rng.uniform(-1.0, 1.0, size=points[1::2].shape)
    else:
        models = shift_family(3, 4, boundary=kind) + [_Doubling()]
        points = rng.uniform(-1.0, 1.0, size=(T + 1, 12))
    want_images, want = _deviation_loop(points, models)
    stack = ModelStack(models, points.shape[1:])
    assert scratch is None or stack.chunk_length() < T
    assert same_bits(stack.images(points[:-1]), want_images)
    got, threads = _on_cpus(2, model_deviations, points, models)
    assert threads == 1  # attraction or per-point models: never split
    assert got.shape == (T, len(models))
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    # the models one gather moves split the pass on two CPUs when it
    # spans two chunks, with the serial pass's bits
    cols = [i for i, m in enumerate(models) if m.source_index(stack.size) is not None]
    moved = [models[i] for i in cols]
    serial, threads = _on_cpus(1, model_deviations, points, moved)
    assert threads == 1
    assert np.allclose(serial, want[:, cols], rtol=1e-14, atol=0.0)
    split, threads = _on_cpus(2, model_deviations, points, moved)
    assert threads == (1 if scratch is None else 2)
    assert same_bits(split, serial)


def _images_per_model(stack, points):
    # reference: the per-model gather that ModelStack.images replaces, one
    # padded[:, source] per model that only moves entries
    out = np.empty((len(stack.models),) + points.shape)
    padded = dynamics._padded(points)
    for i, model in enumerate(stack.models):
        source = model.source_index(stack.size)
        if source is not None:
            out[i] = padded[:, source].reshape(points.shape)
    rows = [i for i, m in enumerate(stack.models)
            if isinstance(m, NetworkAttraction) and m.alpha != 0.0]
    if rows:
        top, best = dynamics._attraction_targets(points)
        alphas = np.array([stack.models[i].alpha for i in rows])
        out[rows] = dynamics._attraction_blend(points, top, best,
                                               alphas[:, None, None, None])
    for i, model in enumerate(stack.models):
        if model.source_index(stack.size) is None \
                and not isinstance(model, NetworkAttraction):
            for k, point in enumerate(points):
                out[i, k] = model.apply(point)
    return out


def _mixed_model(code, p):
    # code < 16: a zero-fill or wrap shift; then the identity, attraction
    # with alpha = 0, two alphas > 0 and a user model
    if code < 16:
        return PixelShift(code % 8, p, p, boundary=("zero", "wrap")[code // 8])
    return (IdentityModel(), NetworkAttraction(0.0), NetworkAttraction(0.1),
            NetworkAttraction(1.0), _Doubling())[code - 16]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(codes=st.lists(st.integers(0, 20), min_size=1, max_size=7),
       p=st.integers(1, 4), chunk=st.integers(1, 4),
       lengths=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_model_stack_images_match_per_model_gather(codes, p, chunk, lengths, seed):
    models = [_mixed_model(code, p) for code in codes]
    stack = ModelStack(models, (p, p))
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        # a budget of `chunk` points per images() call: the bytes a point
        # takes, read back from a huge budget
        mp.setattr(dynamics, "_SCRATCH_BYTES", 10**15)
        per_point = 10**15 // stack.chunk_length()
        mp.setattr(dynamics, "_SCRATCH_BYTES", chunk * per_point)
        assert stack.chunk_length() == chunk
        # lengths 1 .. 2 * chunk_length(), in turn, so the kept index is
        # reused and replaced
        for frac in lengths + lengths[:1]:
            n = 1 + int(frac * (2 * chunk - 1))
            points = _tied_matrices(rng, n, p)
            points[1::2] = rng.uniform(-1.0, 1.0, size=points[1::2].shape)
            got = stack.images(points)
            assert same_bits(got, _images_per_model(stack, points))
            assert got.flags.writeable and got.flags.c_contiguous
        path = rng.uniform(-1.0, 1.0, size=(2 * chunk + 2, p, p))
        # across chunk seams, the deviations of one pass over the whole path
        diff = path[1:] - _images_per_model(stack, path[:-1])
        diff = diff.reshape(len(models), len(path) - 1, -1)
        want = np.sqrt(np.einsum("nkj,nkj->kn", diff, diff))
        for cpus in (1, 2):
            # three chunks: split on two CPUs if one gather moves them all
            got, threads = _on_cpus(cpus, model_deviations, path, models)
            assert same_bits(got, want)
            assert threads == (2 if cpus == 2 and len(stack._gathered) == len(models)
                               else 1)
    index = stack._indexes.get(False)  # images' kept index
    assert (index is None) == (not stack._gathered)
    if index is not None:
        # read-only, and the stack's own: another stack keeps another
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[...] = 0
        other = ModelStack(models, (p, p))
        other.images(points)
        assert not np.shares_memory(other._indexes[False], index)
        assert same_bits(other._indexes[False], index) == (len(points) == index.shape[1])


def _big_path(monkeypatch):
    # 40 one-point chunks of a 3 x 4 shift family: the caller moves rows
    # 0-19, a helper 20-39, and only rows 30 on overflow when subtracted
    monkeypatch.setattr(dynamics, "_SCRATCH_BYTES", 3000)
    points = np.random.default_rng(5).uniform(-1.0, 1.0, size=(41, 12))
    points[30::2], points[31::2] = 1.5e308, -1.5e308
    return points, shift_family(3, 4)


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_split_pass_raises_either_half_error(failing, monkeypatch):
    points, models = _big_path(monkeypatch)
    caller = threading.get_ident()
    images = ModelStack.images

    def images_or_raise(self, pts):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise RuntimeError(f"{failing} chunk")
        return images(self, pts)

    monkeypatch.setattr(ModelStack, "images", images_or_raise)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^{failing} chunk$"):
        _on_cpus(2, model_deviations, points[:30], models)
    assert threading.active_count() == before


def test_split_pass_keeps_the_callers_error_state(monkeypatch):
    points, models = _big_path(monkeypatch)
    for cpus in (1, 2):
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                _on_cpus(cpus, model_deviations, points, models)
        with np.errstate(over="ignore"):  # no warning, which tests raise
            got, threads = _on_cpus(cpus, model_deviations, points, models)
        assert threads == cpus
        assert np.isfinite(got[:29]).all() and np.isinf(got[30:]).all()


@pytest.mark.parametrize("model", [PixelShift(3, 4, 4, boundary="wrap"),
                                   NetworkAttraction(0.0), NetworkAttraction(0.3)])
def test_audit_split_matches_serial(model, monkeypatch):
    monkeypatch.setattr(dynamics, "_SCRATCH_BYTES", 2000)
    geom, fset = SquaredEuclidean(0.5), Box(-1.0, 1.0, shape=(4, 4))
    serial, threads = _on_cpus(1, audit_contraction, model, geom, fset, 300, 4)
    assert threads == 1
    split, threads = _on_cpus(2, audit_contraction, model, geom, fset, 300, 4)
    assert threads == (1 if model.source_index(16) is None else 2)
    assert same_bits(split.estimate, serial.estimate)
    assert same_bits(split.worst_a, serial.worst_a)
    assert same_bits(split.worst_b, serial.worst_b)


def test_zero_size_points_have_empty_images():
    # every model kind maps a zero-size point to the empty point, which a
    # path of them follows with deviation 0
    assert NetworkAttraction(0.5).apply(np.zeros((0, 0))).shape == (0, 0)
    assert model_deviations(np.zeros((4, 0)), [IdentityModel()]).tolist() == [[0.0]] * 3
    models = [IdentityModel(), NetworkAttraction(0.0), NetworkAttraction(0.5),
              _Doubling()]
    stack = ModelStack(models, (0, 0))
    assert stack.apply(np.zeros((4, 0, 0))).shape == (4, 0, 0)
    assert stack.images(np.zeros((3, 0, 0))).shape == (4, 3, 0, 0)
    got = model_deviations(np.zeros((5, 0, 0)), models)
    assert same_bits(got, np.zeros((4, 4)))


def test_model_stack_images_gather_rows_in_place():
    # every model only moves entries: the gather itself is the output; a
    # mixed stack writes its gathered rows around the computed ones
    rng = np.random.default_rng(89)
    points = rng.uniform(-1.0, 1.0, size=(5, 16))
    shifts = ModelStack(shift_family(4, 4, boundary="wrap"), (16,))
    assert len(shifts._gathered) == 9
    assert same_bits(shifts.images(points), _images_per_model(shifts, points))
    mixed = ModelStack([_Doubling()] + shift_family(4, 4)[:2] + [_Doubling()], (16,))
    assert mixed._gathered == [1, 2]
    assert same_bits(mixed.images(points), _images_per_model(mixed, points))


def _attraction_two_gathers(alpha, theta):
    # reference: the formula before best_abs became score.max
    p = theta.shape[0]
    prod = theta[:, None, :] * theta[None, :, :]
    score = np.abs(prod)
    idx = np.arange(p)
    score[idx, :, idx] = -1.0
    score[:, idx, idx] = -1.0
    cstar = score.argmax(axis=2)
    best_abs = np.take_along_axis(score, cstar[..., None], axis=2)[..., 0]
    best = np.take_along_axis(prod, cstar[..., None], axis=2)[..., 0]
    pull = best_abs > np.abs(theta)
    return np.where(pull, (1.0 - alpha) * theta + alpha * best, theta)


def test_network_attraction_matches_two_gather_formula():
    rng = np.random.default_rng(79)
    levels = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    for trial in range(60):
        p = int(rng.integers(1, 9))
        if trial % 2:
            theta = rng.uniform(-1.0, 1.0, size=(p, p))
        else:
            # few distinct magnitudes: many tied scores and signed ties
            theta = rng.choice(levels, size=(p, p))
        for alpha in (0.1, 0.5, 1.0):
            got = NetworkAttraction(alpha).apply(theta)
            assert same_bits(got, _attraction_two_gathers(alpha, theta))


def _attraction_targets_argmax(thetas):
    # reference: the masked-argmax search over the [k, a, b, c] layout that
    # the [c, (k, a, b)] kernel replaces
    n, p, _ = thetas.shape
    mag = np.abs(thetas)
    score = mag[:, :, None, :] * mag[:, None, :, :]  # [k, a, b, c]
    idx = np.arange(p)
    score[:, idx, :, idx] = 0.0  # exclude c == a
    score[:, :, idx, idx] = 0.0  # exclude c == b
    cstar = score.argmax(axis=3)
    top = score.reshape(-1, p)[np.arange(n * p * p), cstar.ravel()]
    k = np.arange(n)[:, None, None]
    best = thetas[k, idx[:, None], cstar] * thetas[k, idx, cstar]
    return top.reshape(cstar.shape), best


_LEVELS = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
# products of +-1e200 overflow; 1e-300 squared underflows to 0, and its
# product with 1e-12 is subnormal
_EXTREME = (1e200, -1e200, 1e-300, 1e-12)
_NONFINITE = (np.inf, -np.inf, np.nan, -np.nan)
_ALPHAS = (0.0, 0.002, 0.1, 0.5, 1.0)


@st.composite
def attraction_stacks(draw):
    """(B, p, p) stacks: tied levels, uniform draws up to p = 20, or tied
    levels mixed with overflowing and underflowing levels, +-inf and
    +-NaN."""
    kind = draw(st.sampled_from(["tied", "uniform", "nonfinite"]))
    p = draw(st.integers(1, 20 if kind == "uniform" else 7))
    shape = (draw(st.integers(1, 5)), p, p)
    if kind == "uniform":
        seed = draw(st.integers(0, 2**32 - 1))
        return np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)
    levels = _LEVELS + (_EXTREME + _NONFINITE if kind == "nonfinite" else ())
    return draw(arrays(float, shape, elements=st.sampled_from(levels)))


# the tied entries are 8 of 18: entry (1, 2, 1), the product of NaN and
# -NaN, sits at another place in a multiply over those 8 than in the
# reference's multiply over the stack, and numpy's loop may return the
# other NaN there
_NAN_PLACE = np.array([
    [[0.5, -1.0, 0.5], [1.0, 0.5, -0.5], [-0.5, 1.0, 1.0]],
    [[0.5, 1.0, -0.5], [-np.nan, 0.5, 1.0], [np.nan, -1.0, 0.5]]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(attraction_stacks())
@example(_NAN_PLACE)
def test_attraction_targets_match_argmax_reference(thetas):
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf, 1e200**2
        top, best = dynamics._attraction_targets(thetas)
        want_top, want_best = _attraction_targets_argmax(thetas)
    assert same_bits(top, want_top)
    assert same_bits(best, want_best)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(attraction_stacks())
def test_attraction_models_match_two_gather_formula(thetas):
    def want(alpha, theta):
        # alpha = 0 is the identity; the formula's 0 * best may flip a sign
        # bit or, with best infinite, give NaN
        return theta if alpha == 0.0 else _attraction_two_gathers(alpha, theta)

    n, p, _ = thetas.shape
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf, 1e200**2
        for alpha in _ALPHAS:
            for theta in thetas:
                assert same_bits(NetworkAttraction(alpha).apply(theta),
                                 want(alpha, theta))
        rows = [NetworkAttraction(_ALPHAS[k % len(_ALPHAS)]) for k in range(n)]
        moved = ModelStack(rows, (p, p)).apply(thetas)
        for k, model in enumerate(rows):
            assert same_bits(moved[k], want(model.alpha, thetas[k]))
        pool = [NetworkAttraction(alpha) for alpha in _ALPHAS]
        images = ModelStack(pool, (p, p)).images(thetas)
        for i, model in enumerate(pool):
            for k in range(n):
                assert same_bits(images[i, k], want(model.alpha, thetas[k]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), thetas=attraction_stacks())
def test_model_stack_apply_is_the_own_row_case_of_images(data, thetas):
    # one row per model of a mixed list; then apply and images alternate at
    # several lengths on one stack, which reuses or replaces each kept index
    n, p, _ = thetas.shape
    codes = data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    models = [_mixed_model(code, p) for code in codes]
    stack = ModelStack(models, (p, p))
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf, 1e200**2
        moved = stack.apply(thetas)
        kept = stack._indexes.get(True)
        images = stack.images(thetas)
        for i, model in enumerate(models):
            assert same_bits(moved[i], images[i, i])
            assert same_bits(moved[i], model.apply(thetas[i]))
        for length in data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4)):
            assert same_bits(stack.apply(thetas), moved)
            got = stack.images(thetas[:length])
            for i, model in enumerate(models):
                for k in range(length):
                    assert same_bits(got[i, k], model.apply(thetas[k]))
    # apply's index is built once; a lone model's apply is an image
    assert stack._indexes.get(True) is kept
    assert (kept is None) == (n == 1 or not stack._gathered)


def test_network_attraction_small_p_has_no_candidates():
    # at p = 2 the off-diagonal entries have no c outside {a, b}: unchanged;
    # diagonals keep their single candidate (the other node)
    theta = np.array([[0.2, 0.5], [-0.4, 0.8]])
    out = NetworkAttraction(0.9).apply(theta)
    assert out[0, 1] == theta[0, 1]
    assert out[1, 0] == theta[1, 0]
    assert out[0, 0] == pytest.approx(0.1 * 0.2 + 0.9 * (0.5 * 0.5), rel=1e-14)


def test_network_attraction_signed_products_used():
    # strongest shared neighbor has a negative product: entry is pulled negative
    theta = np.zeros((3, 3))
    theta[0, 1] = 0.1
    theta[0, 2] = -0.9
    theta[1, 2] = 0.9
    out = NetworkAttraction(0.5).apply(theta)
    assert out[0, 1] == pytest.approx(0.5 * 0.1 + 0.5 * (-0.81), rel=1e-14)


def test_network_attraction_diagonal_updates_too():
    # a = b: c* = argmax_c theta_ac^2 over c != a
    theta = np.zeros((3, 3))
    theta[0, 0] = 0.1
    theta[0, 1] = 0.8
    out = NetworkAttraction(1.0).apply(theta)
    assert out[0, 0] == pytest.approx(0.64, rel=1e-15)


def test_network_attraction_preserves_box():
    rng = np.random.default_rng(17)
    for _ in range(200):
        theta = rng.uniform(-1.0, 1.0, size=(5, 5))
        alpha = rng.uniform(0.0, 1.0)
        out = NetworkAttraction(alpha).apply(theta)
        assert np.abs(out).max() <= 1.0 + 1e-12


def test_network_attraction_errors():
    with pytest.raises(ValueError):
        NetworkAttraction(-0.1)
    with pytest.raises(ValueError):
        NetworkAttraction(1.5)
    with pytest.raises(ValueError):
        NetworkAttraction(0.1).apply(np.zeros((2, 3)))


def test_models_are_deterministic():
    rng = np.random.default_rng(19)
    theta = rng.uniform(-1.0, 1.0, size=(6, 6))
    m = NetworkAttraction(0.3)
    assert np.array_equal(m.apply(theta), m.apply(theta))
    s = PixelShift(3, 6, 6)
    assert np.array_equal(s.apply(theta), s.apply(theta))


def test_shift_feasibility_preserved_on_unit_box():
    rng = np.random.default_rng(23)
    box = Box(0.0, 1.0, shape=(4, 4))
    for i in range(8):
        shift = PixelShift(i, 4, 4)
        for _ in range(50):
            p = box.sample(rng, 1)[0]
            assert box.contains(shift.apply(p), tol=0.0)


def test_shifts_are_nonexpansive():
    rng = np.random.default_rng(29)
    for i in range(8):
        shift = PixelShift(i, 5, 5)
        for _ in range(100):
            a = rng.normal(size=25)
            b = rng.normal(size=25)
            assert (np.linalg.norm(shift.apply(a) - shift.apply(b))
                    <= np.linalg.norm(a - b) + 1e-12)


def test_audit_identity_is_exactly_zero():
    geom = SquaredEuclidean(1.0)
    fset = Unconstrained(9)
    audit = audit_contraction(IdentityModel(), geom, fset, n_pairs=200, seed=0)
    assert audit.estimate == 0.0
    assert not audit.violation


def test_audit_zero_fill_shifts_never_expand():
    geom = SquaredEuclidean(1.0)
    fset = Unconstrained(16)
    for i in range(8):
        audit = audit_contraction(PixelShift(i, 4, 4), geom, fset,
                                  n_pairs=500, seed=1)
        assert audit.estimate <= 1e-10
        assert not audit.violation


def test_audit_matches_direct_gap_computation():
    geom = SquaredEuclidean(1.0)
    fset = Box(0.0, 1.0, shape=(9,))
    model = PixelShift(0, 3, 3)
    audit = audit_contraction(model, geom, fset, n_pairs=50, seed=5)
    a, b = audit.worst_a, audit.worst_b
    gap = geom.divergence(model.apply(a), model.apply(b)) - geom.divergence(a, b)
    assert audit.estimate == pytest.approx(gap, rel=1e-12)


def test_audit_deterministic_for_seed():
    geom = SquaredEuclidean(1.0)
    fset = Unconstrained(9)
    model = PixelShift(1, 3, 3)
    a1 = audit_contraction(model, geom, fset, n_pairs=100, seed=9)
    a2 = audit_contraction(model, geom, fset, n_pairs=100, seed=9)
    assert a1.estimate == a2.estimate
    assert np.array_equal(a1.worst_a, a2.worst_a)


def test_audit_network_attraction_reports_signed_estimate():
    geom = SquaredEuclidean(0.5)
    fset = Box(-1.0, 1.0, shape=(5, 5))
    audit = audit_contraction(NetworkAttraction(0.004), geom, fset,
                              n_pairs=300, seed=3)
    assert np.isfinite(audit.estimate)
    assert audit.n_pairs == 300
    # no sign assumption for this family: just consistency of the flag
    assert audit.violation == (audit.estimate > audit.threshold)


def test_audit_argument_errors():
    geom = SquaredEuclidean(1.0)
    with pytest.raises(ValueError):
        audit_contraction(IdentityModel(), geom, Unconstrained(4), n_pairs=0)
    for threshold in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="threshold"):
            audit_contraction(IdentityModel(), geom, Unconstrained(4),
                              threshold=threshold)
