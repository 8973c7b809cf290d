import numpy as np
import pytest

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
from dynmd.dynamics import ModelStack


def test_identity_model():
    rng = np.random.default_rng(3)
    m = IdentityModel()
    p = rng.normal(size=(4, 4))
    out = m.apply(p, t=7)
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
    label = "double"

    def apply(self, theta, t=None):
        return 2.0 * np.asarray(theta, dtype=float)


@pytest.mark.parametrize("shape", [(16,), (4, 4)])
def test_model_stack_rows_equal_each_models_apply(shape):
    rng = np.random.default_rng(73)
    models = shift_family(4, 4) + [_Doubling(), NetworkAttraction(0.5)]
    if shape == (16,):
        models = models[:-1]  # the attraction map needs square matrices
    stack = ModelStack(models, shape)
    thetas = rng.uniform(-1.0, 1.0, size=(len(models),) + shape)
    out = stack.apply(thetas, 3)
    assert out.shape == thetas.shape
    for i, model in enumerate(models):
        assert same_bits(out[i], model.apply(thetas[i], 3))
    with pytest.raises(ValueError):
        stack.apply(thetas[1:])


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
