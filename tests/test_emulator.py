import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import SmoothTestFunction, spread_points
from gpgmc import kernels
from gpgmc.emulator import (DesignSet, Emulator, Hyperparameters, build_emulator,
                            load_design, per_datum_gram, save_design)
from gpgmc.errors import (DesignFileError, IllConditioned, MissingPerDatum,
                          TooFewPoints)


def make_emulator(seed=0, dim=2, n=12, gradients=True, per_datum=True,
                  nugget=1e-8):
    rng = np.random.default_rng(seed)
    fn = SmoothTestFunction(rng, dim)
    pts = spread_points(rng, n, dim)
    design = fn.design(pts, gradients=gradients, per_datum=per_datum)
    hyper = Hyperparameters(rho=rng.uniform(0.5, 1.2, dim), nugget=nugget)
    return fn, Emulator(design, hyper)


@pytest.mark.parametrize("gradients", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_projection_identities(seed, gradients):
    _, em = make_emulator(seed=seed, gradients=gradients)
    q = em.q
    assert np.abs(em.P @ em.H - np.eye(q)).max() < 1e-8
    assert np.abs(em.Q @ em.H).max() < 1e-8
    assert np.abs(em.Q - em.Q.T).max() < 1e-10
    assert np.linalg.eigvalsh(em.Q).min() > -1e-10


@pytest.mark.parametrize("gradients", [False, True])
def test_coefficients_match_gls_oracle(gradients):
    _, em = make_emulator(seed=4, gradients=gradients)
    design, hyper = em.design, em.hyper
    C = kernels.tilde_corr(design.points, hyper.rho, gradients)
    C[np.diag_indices_from(C)] += hyper.nugget
    H = kernels.tilde_basis(design.points, gradients)
    u = design.data_vector()
    Ci = np.linalg.inv(C)
    beta = np.linalg.solve(H.T @ Ci @ H, H.T @ Ci @ u)
    np.testing.assert_allclose(em.beta_hat, beta, rtol=1e-8, atol=1e-10)


def test_interpolates_design_points():
    fn, em = make_emulator(seed=1, nugget=0.0)
    pred = em.predict(em.design.points[:4], 0)
    np.testing.assert_allclose(pred.mean, em.design.potentials[:4], atol=1e-8)
    assert em.predictive_variance(em.design.points[:4], 0).max() <= 1e-10


def test_no_order_2_covariance():
    _, em = make_emulator(seed=1)
    with pytest.raises(ValueError, match="orders 0 and 1"):
        em.predictive_variance(em.design.points[:2], 2)


def test_quadratic_data_is_reproduced_exactly():
    rng = np.random.default_rng(5)
    a, b, c = 0.3, np.array([0.5, -1.0]), np.array([1.5, 0.7])
    pts = rng.normal(size=(10, 2)) * 2
    pots = a + pts @ b + pts**2 @ c
    grads = b + 2 * c * pts
    design = DesignSet(points=pts, potentials=pots, gradients=grads)
    em = Emulator(design, Hyperparameters(rho=np.array([0.5, 0.5]), nugget=0.0))
    u = design.data_vector()
    assert em.sigma2_hat <= 1e-12 * max(1.0, float(u @ u))
    far = np.array([[6.0, -8.0]])
    assert abs(em.predict(far, 0).mean[0] - (a + far[0] @ b + far[0]**2 @ c)) < 1e-8
    np.testing.assert_allclose(em.predict(far, 1).mean[0], b + 2 * c * far[0],
                               atol=1e-8)
    np.testing.assert_allclose(em.predict(far, 2).mean[0], np.diag(2 * c),
                               atol=1e-8)


@pytest.mark.parametrize("gradients", [False, True])
def test_gradient_prediction_consistent_with_value_surface(gradients):
    _, em = make_emulator(seed=2, gradients=gradients)
    rng = np.random.default_rng(11)
    th = rng.normal(size=(1, 2)) * 0.6
    g = em.predict(th, 1).mean[0]
    h = 1e-6
    fd = np.array([
        (em.predict(th + h * np.eye(2)[k], 0).mean[0]
         - em.predict(th - h * np.eye(2)[k], 0).mean[0]) / (2 * h)
        for k in range(2)])
    scale = max(1.0, np.abs(fd).max())
    assert np.abs(g - fd).max() / scale < 1e-4


def test_hessian_prediction_consistent_with_gradient_surface():
    _, em = make_emulator(seed=3, gradients=False)
    th = np.array([[0.4, -0.3]])
    hess = em.predict(th, 2).mean[0]
    h = 1e-6
    fd = np.stack([
        (em.predict(th + h * np.eye(2)[k], 1).mean[0]
         - em.predict(th - h * np.eye(2)[k], 1).mean[0]) / (2 * h)
        for k in range(2)])
    scale = max(1.0, np.abs(fd).max())
    assert np.abs(hess - fd).max() / scale < 1e-4


def test_derivative_information_reduces_predictive_variance():
    """Conditioning on gradients can only shrink the pointwise variance."""
    rng = np.random.default_rng(6)
    fn = SmoothTestFunction(rng, 2)
    pts = spread_points(rng, 12, 2)
    hyper = Hyperparameters(rho=np.array([0.8, 1.2]), nugget=1e-10)
    em0 = Emulator(fn.design(pts, gradients=False), hyper)
    em1 = Emulator(fn.design(pts, gradients=True), hyper)
    test = rng.normal(size=(50, 2))
    v0 = em0.predictive_variance(test, 0, scaled=False)
    v1 = em1.predictive_variance(test, 0, scaled=False)
    assert (v0 - v1).min() > -1e-10


@pytest.mark.parametrize("order", [0, 1])
def test_design_nesting_reduces_predictive_variance(order):
    rng = np.random.default_rng(7)
    fn = SmoothTestFunction(rng, 2)
    pts = spread_points(rng, 14, 2)
    hyper = Hyperparameters(rho=np.array([0.8, 1.2]), nugget=1e-10)
    big = Emulator(fn.design(pts, gradients=False), hyper)
    small = Emulator(fn.design(pts[:9], gradients=False), hyper)
    test = rng.normal(size=(50, 2))
    v_small = small.predictive_variance(test, order, scaled=False)
    v_big = big.predictive_variance(test, order, scaled=False)
    assert (v_small - v_big).min() > -1e-10


def test_prediction_mean_is_linear_in_data():
    _, em = make_emulator(seed=8)
    doubled = DesignSet(points=em.design.points,
                        potentials=2.0 * em.design.potentials,
                        gradients=2.0 * em.design.gradients,
                        gfi=em.design.gfi)
    em2 = Emulator(doubled, em.hyper)
    th = np.array([[0.3, 0.1], [-0.5, 0.9]])
    np.testing.assert_allclose(em2.predict(th, 0).mean,
                               2.0 * em.predict(th, 0).mean, rtol=1e-12)
    np.testing.assert_allclose(em2.predict(th, 1).mean,
                               2.0 * em.predict(th, 1).mean, rtol=1e-12)


def _natural(flat, m, dim, order):
    """Coordinate-major prediction rows in (m,), (m, D) or (m, D, D) shape."""
    return flat.reshape((dim,) * order + (m,)).transpose(order, *range(order))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
       extra=st.integers(0, 6), order=st.integers(0, 2),
       gradients=st.booleans(), m=st.integers(1, 40))
def test_mean_is_the_kernel_contraction_of_the_cross_block(seed, dim, extra, order,
                                                           gradients, m):
    """The posterior mean equals basis @ beta_hat + cross block @ w, to 1e-10
    of the summed term sizes."""
    rng = np.random.default_rng(seed)
    fn = SmoothTestFunction(rng, dim)
    pts = spread_points(rng, 4 + 2 * dim + extra, dim, spread=3.0, min_sep=0.25)
    em = Emulator(fn.design(pts, gradients=gradients, per_datum=False),
                  Hyperparameters(rho=rng.uniform(0.3, 1.5, dim)))
    x = rng.uniform(-2.5, 2.5, (m, dim))
    C = kernels.cross_corr(x, order, pts, em.hyper.rho, gradients)
    H = kernels.basis(x, order)
    nat = lambda flat: _natural(flat, m, dim, order)

    ref = nat(H @ em.beta_hat + C @ em.w)
    if order == 2:
        ref = 0.5 * (ref + ref.transpose(0, 2, 1))
    mean = em._mean(x, order)
    size = nat(np.abs(C) @ np.abs(em.w)) + nat(np.abs(H) @ np.abs(em.beta_hat))
    assert mean.shape == size.shape
    assert np.all(np.abs(mean - ref) <= 1e-10 * size)
    if order == 0 and not gradients:  # the value-only path is the block's own
        np.testing.assert_array_equal(mean, ref)


class TestEmpiricalFisher:
    def test_matches_columnwise_oracle(self, smooth_fn):
        rng = np.random.default_rng(9)
        pts = spread_points(rng, 12, 2)
        design = smooth_fn.design(pts)
        em = Emulator(design, Hyperparameters(rho=np.array([0.9, 1.1])))
        th = np.array([[0.25, -0.4]])
        got = em.predict_efi(th)[0]
        # oracle: predict each per-datum column's gradient, then assemble
        pd = smooth_fn.rows(pts)
        DU = em.linear_map(th) @ pd
        centered = DU - DU.mean(axis=1, keepdims=True)
        oracle = centered @ centered.T
        np.testing.assert_allclose(got, oracle, rtol=1e-8, atol=1e-12)

    def test_symmetric(self, smooth_fn):
        rng = np.random.default_rng(10)
        pts = spread_points(rng, 10, 2)
        em = Emulator(smooth_fn.design(pts), Hyperparameters(rho=np.ones(2)))
        efi = em.predict_efi(rng.normal(size=(5, 2)))
        assert np.abs(efi - efi.transpose(0, 2, 1)).max() < 1e-12

    def test_single_datum_gives_zero(self):
        rng = np.random.default_rng(12)
        pts = spread_points(rng, 10, 2)
        pots = np.sin(pts[:, 0]) + pts[:, 1]**2
        design = DesignSet(points=pts, potentials=pots,
                           gfi=per_datum_gram(pots[:, None].copy()))
        em = Emulator(design, Hyperparameters(rho=np.ones(2)))
        efi = em.predict_efi(np.zeros((1, 2)))
        np.testing.assert_allclose(efi, 0.0, atol=1e-20)

    def test_missing_per_datum(self):
        _, em = make_emulator(seed=13, per_datum=False)
        with pytest.raises(MissingPerDatum):
            em.predict_efi(np.zeros((1, 2)))


class TestConnection:
    def test_exact_symmetry_in_first_pair(self, smooth_fn):
        rng = np.random.default_rng(14)
        pts = spread_points(rng, 12, 2)
        em = Emulator(smooth_fn.design(pts), Hyperparameters(rho=np.ones(2)))
        gamma = em.predict_metric_bundle(rng.normal(size=(4, 2)))[1]
        assert np.abs(gamma - gamma.transpose(0, 2, 1, 3)).max() == 0.0

    def test_matches_columnwise_oracle(self, smooth_fn):
        rng = np.random.default_rng(15)
        pts = spread_points(rng, 12, 2)
        design = smooth_fn.design(pts)
        em = Emulator(design, Hyperparameters(rho=np.array([0.7, 1.3])))
        th = np.array([[0.2, 0.5]])
        got = em.predict_metric_bundle(th)[1][0]
        pd = smooth_fn.rows(pts)
        ndata = pd.shape[1]
        DU = em.linear_map(th) @ pd
        # the order-2 map, from the cross block and the basis rows
        C2 = kernels.cross_corr(th, 2, pts, em.hyper.rho, design.has_gradients)
        A2 = C2 @ em.Q + kernels.basis(th, 2) @ em.P
        D2U = (A2 @ pd).reshape(2, 2, ndata)
        J = np.eye(ndata) - np.ones((ndata, ndata)) / ndata
        oracle = np.einsum("abn,nm,cm->abc", D2U, J, DU)
        np.testing.assert_allclose(got, oracle, rtol=1e-8, atol=1e-12)

    def test_single_datum_gives_zero(self):
        rng = np.random.default_rng(16)
        pts = spread_points(rng, 10, 2)
        pots = np.cos(pts[:, 0] + pts[:, 1])
        design = DesignSet(points=pts, potentials=pots,
                           gfi=per_datum_gram(pots[:, None].copy()))
        em = Emulator(design, Hyperparameters(rho=np.ones(2)))
        np.testing.assert_allclose(em.predict_metric_bundle(np.zeros((1, 2)))[1],
                                   0.0, atol=1e-20)


def test_too_few_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    design = DesignSet(points=pts, potentials=np.zeros(3))
    with pytest.raises(TooFewPoints):
        Emulator(design, Hyperparameters(rho=np.ones(2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_correlation_inputs_must_be_finite(bad):
    """The emulator factorizes without scanning C, so C's inputs are checked."""
    with pytest.raises(ValueError, match="finite"):
        DesignSet(points=np.array([[0.0, bad], [1.0, 1.0]]), potentials=np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        Hyperparameters(rho=np.array([1.0, bad]))


def test_nugget_escalation_on_near_duplicate_points():
    rng = np.random.default_rng(17)
    base = spread_points(rng, 10, 2)
    # a pair of nearly coincident points makes the kernel matrix singular
    pts = np.vstack([base, base[0] + 1e-13])
    design = DesignSet(points=pts, potentials=rng.normal(size=11))
    hyper = Hyperparameters(rho=np.ones(2), nugget=0.0)
    with pytest.raises(IllConditioned):
        Emulator(design, hyper)
    em = build_emulator(design, hyper)
    assert em.hyper.nugget > 0


def test_design_json_roundtrip_is_bit_stable(tmp_path, smooth_fn):
    rng = np.random.default_rng(18)
    pts = spread_points(rng, 8, 2)
    design = smooth_fn.design(pts)
    hyper = Hyperparameters(rho=np.array([0.123456789012345, 1.9876543210987]),
                            nugget=1e-8)
    path = tmp_path / "design.json"
    save_design(path, design, hyper)
    loaded, hyper2 = load_design(path)
    assert np.array_equal(loaded.points, design.points)
    assert np.array_equal(loaded.potentials, design.potentials)
    assert np.array_equal(loaded.gradients, design.gradients)
    assert np.array_equal(loaded.gfi, design.gfi)
    assert np.array_equal(hyper2.rho, hyper.rho)
    assert hyper2.nugget == hyper.nugget
    # second save is byte-identical, the JSON and its per-datum sidecar
    path2 = tmp_path / "design2.json"
    save_design(path2, loaded, hyper2)
    assert path.read_bytes() == path2.read_bytes().replace(
        b"design2.per_datum.npy", b"design.per_datum.npy")
    assert (tmp_path / "design.per_datum.npy").read_bytes() \
        == (tmp_path / "design2.per_datum.npy").read_bytes()


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.dtype == b.dtype \
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


# any finite double, signed zeros, subnormals and extreme exponents included
_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _designs(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    gradients = draw(st.booleans())
    per_datum = draw(st.booleans())
    # distinct points: distinct grid cells scaled by a positive factor
    cells = draw(st.lists(st.tuples(*[st.integers(-50, 50)] * dim), min_size=n,
                          max_size=n, unique=True))
    scale = draw(st.floats(1e-3, 1e3))
    arr = lambda shape: draw(hnp.arrays(np.float64, shape, elements=_doubles))
    gfi = None
    if per_datum:
        # any symmetric matrix: the upper triangle mirrored, bits and all
        n_tilde = n * (1 + dim) if gradients else n
        gfi = arr((n_tilde, n_tilde))
        lower = np.tril_indices(n_tilde, -1)
        gfi[lower] = gfi.T[lower]
    design = DesignSet(
        points=scale * np.array(cells, dtype=float),
        potentials=arr((n,)),
        gradients=arr((n, dim)) if gradients else None,
        gfi=gfi)
    hyper = Hyperparameters(
        rho=draw(hnp.arrays(np.float64, (dim,),
                            elements=st.floats(1e-300, 1e300))),
        nugget=draw(st.floats(0.0, 1e300)))
    return design, hyper


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_designs())
def test_design_save_load_save_is_bit_stable(case):
    design, hyper = case
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a" / "d.json", Path(tmp) / "b" / "d.json"
        first.parent.mkdir()
        second.parent.mkdir()
        save_design(first, design, hyper)
        loaded, hyper2 = load_design(first)
        save_design(second, loaded, hyper2)
        for name in ("points", "potentials", "gradients", "gfi"):
            assert _same_bits(getattr(loaded, name), getattr(design, name)), name
        assert _same_bits(hyper2.rho, hyper.rho)
        assert _same_bits(np.float64(hyper2.nugget), np.float64(hyper.nugget))
        names = sorted(p.name for p in first.parent.iterdir())
        assert names == sorted(p.name for p in second.parent.iterdir())
        assert names == (["d.json", "d.per_datum.npy"] if design.gfi is not None
                         else ["d.json"])
        for name in names:
            assert (first.parent / name).read_bytes() \
                == (second.parent / name).read_bytes(), name


def test_decimal_text_sidecar_fails_with_its_name(tmp_path, smooth_fn):
    pts = spread_points(np.random.default_rng(18), 8, 2)
    design = smooth_fn.design(pts)
    path = tmp_path / "design.json"
    save_design(path, design, Hyperparameters(rho=np.ones(2)))
    # the layout an earlier version wrote: one decimal row per stacked datum row
    csv = tmp_path / "design.per_datum.csv"
    csv.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                           for row in smooth_fn.rows(pts)))
    doc = json.loads(path.read_text())
    doc["per_datum_path"] = csv.name
    path.write_text(json.dumps(doc))
    with pytest.raises(DesignFileError) as err:
        load_design(path)
    assert str(csv) in str(err.value)
    assert "pickle" not in str(err.value)


def test_build_holds_one_copy_of_the_per_datum_matrix():
    """Building G = U J_N U' from the stacked (n~, N) matrix allocates no
    second copy of it: the rows are centred in place."""
    import tracemalloc

    rng = np.random.default_rng(21)
    n, dim, ndata = 20, 4, 30_000
    U = rng.normal(size=(n * (1 + dim), ndata))
    centered = U - U.mean(axis=1, keepdims=True)
    stacked_bytes = U.nbytes
    tracemalloc.start()
    try:
        gfi = per_datum_gram(U)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * stacked_bytes, (peak, stacked_bytes)
    np.testing.assert_allclose(gfi, centered @ centered.T, rtol=1e-12)
    assert np.array_equal(gfi, gfi.T)


def _saved_design(tmp_path, smooth_fn):
    design = smooth_fn.design(spread_points(np.random.default_rng(18), 8, 2))
    path = tmp_path / "design.json"
    save_design(path, design, Hyperparameters(rho=np.ones(2)))
    return path, tmp_path / "design.per_datum.npy", design


@pytest.mark.parametrize("sidecar", [
    # the (n~, N) stacked per-datum rows an earlier version wrote
    lambda fn, pts, gfi: fn.rows(pts),
    lambda fn, pts, gfi: gfi + np.triu(np.full(gfi.shape, 1e-9), 1),
    lambda fn, pts, gfi: gfi.astype(np.float32),
    lambda fn, pts, gfi: gfi[:-1, :-1],
], ids=["per-datum-rows", "not-symmetric", "float32", "too-small"])
def test_sidecar_that_is_not_the_gram_fails_with_its_name(tmp_path, smooth_fn,
                                                          sidecar):
    path, npy, design = _saved_design(tmp_path, smooth_fn)
    np.save(npy, sidecar(smooth_fn, design.points, design.gfi))
    with pytest.raises(DesignFileError, match="symmetric float64") as err:
        load_design(path)
    assert str(npy) in str(err.value)


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("spoil, what", [
    (lambda path, npy: path.unlink(), "json"),
    (lambda path, npy: path.write_text('{"points": [[1'), "json"),
    (lambda path, npy: path.write_bytes(b"\xff\xfe\x00"), "json"),
    (lambda path, npy: path.write_text('{"points": [[1]]}'), "json"),
    (lambda path, npy: path.write_text("[1, 2]"), "json"),
    (lambda path, npy: _edit_json(path, lambda d: d["points"][0].pop()), "json"),
    (lambda path, npy: _edit_json(path, lambda d: d.pop("rho")), "json"),
    (lambda path, npy: _edit_json(path, lambda d: d.update(nugget="x")), "json"),
    (lambda path, npy: _edit_json(path, lambda d: d["potentials"].pop()), "json"),
    (lambda path, npy: npy.unlink(), "npy"),
    (lambda path, npy: npy.write_bytes(npy.read_bytes()[:100]), "npy"),
], ids=["missing", "invalid-json", "not-text", "missing-key", "not-an-object",
        "ragged", "no-rho", "non-numeric", "short-potentials", "missing-sidecar",
        "truncated-sidecar"])
def test_unreadable_design_file_fails_with_its_name(tmp_path, smooth_fn, spoil,
                                                    what):
    path, npy, _ = _saved_design(tmp_path, smooth_fn)
    spoil(path, npy)
    with pytest.raises(DesignFileError) as err:
        load_design(path)
    assert str(path if what == "json" else npy) in str(err.value)


def test_run_path_memory_is_free_of_the_data_size(tmp_path):
    """Loading a BBD gradient design, building its emulator and asking for
    one metric with its derivatives peak alike at N = 3000 and N = 30 000."""
    import tracemalloc

    from gpgmc import cli
    from gpgmc.geometry import EmulatedGeometry
    from gpgmc.targets import BBDTarget

    points = np.random.default_rng(4).standard_normal((20, 4))
    peaks = []
    for n_data in (3000, 30_000):
        target = BBDTarget.simulate(np.random.default_rng(3), n_data=n_data, dim=4)
        path = tmp_path / f"design{n_data}.json"
        save_design(path, cli._evaluated_design(target, points, with_gradients=True),
                    Hyperparameters(rho=np.full(4, 0.5)))
        tracemalloc.start()
        try:
            em = build_emulator(*load_design(path))
            EmulatedGeometry(em).metric_and_derivs(np.full(4, 0.1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
