"""Clustering, subspace rotation, slope identities, continuity."""

import dataclasses
import math

import numpy as np
import pytest

from hftkit.hft import (
    _partition,
    cluster_degeneracies,
    continuity_overlap,
    default_degeneracy_tol,
    expectation,
    hft_basis,
    hft_consistent_basis,
    hft_report,
    mixed_slope,
    offdiag_identity_residual,
    rotated_spectrum,
    _tracked_references,
)
from hftkit.models import oscillator_model, six_site_model
from hftkit.spectral import (
    DEFAULT_FD_STEP,
    ParametricModel,
    Spectrum,
    SymmetricMatrix,
    TrackingError,
    eigh,
    track,
)


V3 = np.array([1.0, 0.0, -1.0, 1.0, 0.0, -1.0]) / 2.0


def v2_closed_form(lam):
    # A1 eigenvector of the six-site matrix: components 2 and 5 both equal
    # -(s + lam)/2, the rest are 1, then normalize.
    s = math.sqrt(lam * lam + 8.0)
    w = np.array([1.0, -(s + lam) / 2, 1.0, 1.0, -(s + lam) / 2, 1.0])
    return w / np.linalg.norm(w)


# --- clustering ---


def test_cluster_six_site_crossing():
    clusters = cluster_degeneracies(np.array([-2.0, -1.0, -1.0, 1.0, 1.0, 2.0]), 1e-8)
    spans = [(c.start, len(c)) for c in clusters]
    assert spans == [(0, 1), (1, 2), (3, 2), (5, 1)]


def test_cluster_singletons():
    clusters = cluster_degeneracies(np.array([1.0, 2.0, 3.0]), 1e-8)
    assert [(c.start, len(c)) for c in clusters] == [(0, 1), (1, 1), (2, 1)]


def test_cluster_all_equal():
    clusters = cluster_degeneracies(np.array([0.0, 0.0, 0.0]), 1e-8)
    assert [(c.start, len(c)) for c in clusters] == [(0, 3)]


def test_cluster_zero_tol_exact_equality():
    clusters = cluster_degeneracies(np.array([1.0, 1.0, 1.0 + 1e-15]), 0.0)
    assert [(c.start, len(c)) for c in clusters] == [(0, 2), (2, 1)]


def test_cluster_partition_property():
    rng = np.random.default_rng(0)
    for _ in range(25):
        w = np.sort(rng.standard_normal(rng.integers(1, 30)))
        tol = float(10.0 ** rng.uniform(-12, -1))
        clusters = cluster_degeneracies(w, tol)
        covered = [i for c in clusters for i in c]
        assert covered == list(range(len(w)))
        for c in clusters:
            block = w[c.start : c.stop]
            assert block.max() - block.min() <= (len(c) - 1) * tol + 1e-15
            if c.stop < len(w):
                assert w[c.stop] - w[c.stop - 1] > tol


def test_cluster_rejects_descending_or_negative_tol():
    with pytest.raises(ValueError):
        cluster_degeneracies(np.array([2.0, 1.0]), 1e-8)
    with pytest.raises(ValueError):
        cluster_degeneracies(np.array([1.0, 2.0]), -1.0)


def _partition_by_loop(w, tol):
    """Clusters of ascending w built one state at a time."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    if any(b < a for a, b in zip(w[:-1], w[1:])):
        raise ValueError("eigenvalues must be ascending")
    clusters, start = [], 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol:
            clusters.append(range(start, i))
            start = i
    return clusters


@pytest.mark.parametrize("w, tol", [
    ([], 0.1), ([1.0], 0.1), ([1.0, 2.0, 3.0], 0.5), ([1.0, 2.0, 3.0], 1.0),
    ([1.0, 1.0, 2.0], 0.0), ([0.0, 1e-9, 1.0, 1.0 + 1e-9], 1e-8),
    ([2.0, 1.0], 0.5), ([1.0, 3.0, 2.0], 0.5), ([1.0, 3.0, 2.0], 5.0),
    ([1.0, 2.0], -1.0), ([1.0, 2.0], math.nan), ([1.0, math.nan, 2.0], 0.1),
])
def test_partition_skipping_singletons_keeps_clusters_and_messages(w, tol):
    w = np.array(w)
    try:
        want = _partition_by_loop(w, tol)
    except ValueError as exc:
        for singletons in (True, False):
            with pytest.raises(ValueError) as got:
                _partition(w, tol, singletons)
            assert str(got.value) == str(exc)
        return
    if np.isnan(w).any():
        return
    clusters, gaps = _partition(w, tol)
    assert clusters == cluster_degeneracies(w, tol) == want
    assert np.array_equal(gaps, np.diff(w)[[c.stop - 1 for c in want[:-1]]])
    multi, multi_gaps = _partition(w, tol, singletons=False)
    assert [c for c in multi if len(c) > 1] == [c for c in want if len(c) > 1]
    assert np.array_equal(multi_gaps, gaps)


def test_hft_basis_of_a_spectrum_without_clusters_is_its_eigenvectors():
    model = oscillator_model(n_max=12)
    spectrum = model.spectrum(0.37)
    basis = hft_basis(spectrum, model.b)
    assert np.array_equal(basis.eigenvectors, spectrum.eigenvectors)
    assert np.array_equal(basis.eigenvalues, spectrum.eigenvalues)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_cluster_rejects_nonfinite_tol(tol):
    # nan would form no clusters and inf one cluster of the whole spectrum
    with pytest.raises(ValueError, match=f"got {tol!r}"):
        cluster_degeneracies(np.array([1.0, 1.0, 2.0]), tol)


# --- expectations and the averaging identity ---


def test_expectation_a2_eigenvector_slope():
    hp = six_site_model().b
    assert expectation(hp, V3) == -1.0


def test_expectation_zero_matrix():
    hp = SymmetricMatrix(np.zeros((6, 6)))
    assert expectation(hp, V3) == 0.0


def test_expectation_a1_eigenvector_slope():
    hp = six_site_model().b
    assert abs(expectation(hp, v2_closed_form(0.5)) - 0.41296117202215105) <= 1e-6


def test_expectation_requires_unit_vector():
    hp = SymmetricMatrix(np.eye(3))
    with pytest.raises(ValueError, match="unit"):
        expectation(hp, np.array([1.0, 1.0, 0.0]))


@pytest.mark.parametrize("dim", [1, 6, 15, 91])
def test_expectation_is_bitwise_the_matmul_product(dim):
    # expectation computes v.dot(hp).dot(v), which must equal v @ hp @ v bit
    # for bit, on the strided eigenvector columns the rotation passes in and
    # on contiguous ones.
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim))
    hp = SymmetricMatrix(np.round(4.0 * (a + a.T)) / 4.0)
    vectors = np.linalg.eigh(a + a.T)[1]
    for v in (*vectors.T, *np.asfortranarray(vectors).T):
        assert expectation(hp, v) == float(v @ hp.entries @ v)


@pytest.mark.parametrize("n_max", [12, 18, 20, 32])
def test_expectation_of_the_oscillator_coupling_is_the_matmul_product(n_max):
    # B holds four nonzeros a row: at nmax 12 and 18 (d = 91, 190) the
    # product is the dense one, bit for bit; at 20 and 32 (d = 231, 561) it
    # reads the nonzeros alone, so it agrees up to rounding.
    model = oscillator_model(n_max=n_max)
    hp = model.b
    vectors = model.spectrum(0.3).eigenvectors
    for v in vectors.T[:: max(1, model.dim // 40)]:
        want = float(v @ hp.entries @ v)
        if n_max <= 18:
            assert expectation(hp, v) == want
        else:
            assert abs(expectation(hp, v) - want) <= 1e-13


@pytest.mark.parametrize("n_max", [20, 32])
def test_cluster_slopes_through_the_row_form_are_the_dense_block_eigenvalues(n_max):
    # d = 231, 561: at lambda = 0 every shell is a cluster, and B's block in
    # it is formed from the row form of B
    model = oscillator_model(n_max=n_max)
    rot = rotated_spectrum(model, 0.0)
    raw = model.spectrum(0.0).eigenvectors
    assert [len(c) for c in rot.clusters] == list(range(1, n_max + 2))
    for c in rot.clusters:
        columns = raw[:, c.start : c.stop]
        want = np.linalg.eigvalsh(columns.T @ model.b.entries @ columns)
        assert np.abs(rot.cluster_slopes[c.start : c.stop] - want).max() <= 1e-12


def test_mixed_slope_six_site_cluster():
    r = 1.0 / math.sqrt(2.0)
    got = mixed_slope(np.array([1.0 / 3.0, -1.0]), np.array([r, r]))
    assert abs(got - (-1.0 / 3.0)) <= 1e-15


def test_mixed_slope_single_state():
    assert mixed_slope(np.array([0.37]), np.array([1.0])) == 0.37


def test_mixed_slope_oscillator_shell():
    r = 1.0 / math.sqrt(2.0)
    assert abs(mixed_slope(np.array([-0.5, 0.5]), np.array([r, r]))) <= 1e-15


def test_mixed_slope_rejects_unnormalized():
    with pytest.raises(ValueError, match="unit"):
        mixed_slope(np.array([1.0, 2.0]), np.array([1.0, 1.0]))


def test_mixed_slope_matches_rotated_diagonal():
    # For any orthogonal mixing C of a rotated cluster, the diagonal of
    # C^T diag(slopes) C must equal the per-column weighted averages.
    rng = np.random.default_rng(8)
    for g in (2, 3, 5):
        slopes = rng.standard_normal(g)
        c, _ = np.linalg.qr(rng.standard_normal((g, g)))
        diag = np.diag(c.T @ np.diag(slopes) @ c)
        for i in range(g):
            assert abs(diag[i] - mixed_slope(slopes, c[:, i])) <= 1e-12


# --- the consistent basis ---


def test_rotation_six_site_crossing_slopes():
    rot = rotated_spectrum(six_site_model(), 1.0)
    cluster = rot.cluster_of(1)
    assert (cluster.start, len(cluster)) == (1, 2)
    got = rot.cluster_slopes[1:3]
    assert np.abs(got - np.array([-1.0, 1.0 / 3.0])).max() <= 1e-10


def test_cluster_of_names_the_cluster_or_rejects_the_index():
    rot = rotated_spectrum(six_site_model(), 1.0)
    pairs = [range(1, 3)] * 2 + [range(3, 5)] * 2
    assert [rot.cluster_of(k) for k in range(6)] == [range(0, 1), *pairs, range(5, 6)]
    for k in (-1, 6):
        with pytest.raises(IndexError, match=rf"^state index {k} out of range$"):
            rot.cluster_of(k)


def test_rotation_oscillator_first_shell():
    rot = rotated_spectrum(oscillator_model(1.0, 4), 0.0)
    assert np.abs(rot.cluster_slopes[1:3] - np.array([-0.5, 0.5])).max() <= 1e-14


def test_rotation_identity_without_degeneracies():
    model = six_site_model()
    rot = rotated_spectrum(model, 0.5)
    raw = model.spectrum(0.5).eigenvectors
    assert np.array_equal(rot.eigenvectors, raw)
    for k in range(6):
        assert rot.cluster_slopes[k] == expectation(model.b, raw[:, k])


def test_rotation_block_is_diagonal_after():
    model = six_site_model()
    rot = rotated_spectrum(model, 1.0)
    hp = model.b.entries
    v = rot.eigenvectors
    block = v[:, 1:3].T @ hp @ v[:, 1:3]
    assert abs(block[0, 1]) <= 1e-10


def test_rotation_preserves_eigen_residual():
    model = six_site_model()
    h = model.hamiltonian(1.0).entries
    rot = rotated_spectrum(model, 1.0)
    raw = model.spectrum(1.0).eigenvectors
    before = np.abs(h @ raw - raw * rot.eigenvalues).max()
    after = np.abs(h @ rot.eigenvectors - rot.eigenvectors * rot.eigenvalues).max()
    assert after <= before + 1e-12


def test_rotation_trace_invariance():
    model = six_site_model()
    rot = rotated_spectrum(model, 1.0)
    hp = model.b.entries
    for c in rot.clusters:
        raw = model.spectrum(1.0).eigenvectors[:, c.start : c.stop]
        trace = np.trace(raw.T @ hp @ raw)
        assert abs(rot.cluster_slopes[c.start : c.stop].sum() - trace) <= 1e-12


def test_rotation_warns_on_ambiguous_boundary():
    w = np.diag([1.0, 1.0 + 5e-8, 2.0])  # gap inside (tol, 10 tol]
    spectrum = eigh(SymmetricMatrix(w))
    tol = default_degeneracy_tol(spectrum.eigenvalues)
    assert tol < 5e-8 <= 10 * tol
    rot = hft_consistent_basis(spectrum, SymmetricMatrix(np.eye(3)))
    assert rot.warnings and "10x" in rot.warnings[0]


def test_rotation_dimension_mismatch():
    spectrum = eigh(SymmetricMatrix(np.eye(3)))
    with pytest.raises(ValueError):
        hft_consistent_basis(spectrum, SymmetricMatrix(np.eye(4)))


# --- slope reports ---


def test_report_six_site_plain_point():
    report = hft_report(six_site_model(), 0.7)
    assert report.worst_residual <= 1e-7


def test_report_six_site_crossing_multiset():
    report = hft_report(six_site_model(), 1.0)
    got = sorted(r.lhs for r in report.records[1:3])
    assert np.abs(np.array(got) - np.array([-1.0, 1.0 / 3.0])).max() <= 1e-7
    assert report.worst_residual <= 1e-7


def test_report_oscillator_shell_slopes_exact():
    rot = rotated_spectrum(oscillator_model(1.0, 12), 0.0)
    for c in rot.clusters:
        nu = len(c) - 1
        want = sorted((m - (nu - m)) / 2.0 for m in range(nu + 1))
        got = rot.cluster_slopes[c.start : c.stop]
        assert np.abs(got - np.array(want)).max() <= 1e-10


def test_report_without_oracle_uses_tracked_branches():
    plain = dataclasses.replace(six_site_model(), analytic_eigenvalues_at=None)
    assert hft_report(plain, 0.7).worst_residual <= 1e-6
    # at the crossing the tracked branches pass smoothly through, so the
    # multiset of one-sided slopes is reproduced state by state
    assert hft_report(plain, 1.0).worst_residual <= 1e-5
    # levels lam and 0.1 form one cluster under tol=0.2, where the rotated
    # columns keep the sorted eigenvalues but swap order: each branch takes
    # its column's Rayleigh quotient, not the sorted level it lands on
    model = ParametricModel(
        a=SymmetricMatrix(np.diag([0.0, 0.1])), b=SymmetricMatrix(np.diag([1.0, 0.0]))
    )
    report = hft_report(model, 0.05, tol=0.2)
    assert [r.lhs for r in report.records] == [0.0, 1.0]
    assert report.worst_residual <= 1e-6
    # the same swap under the default tol: the stencil point lam + h/2
    # lies 5e-9 below the crossing at 0.1, within tol of it
    assert hft_report(model, 0.1 - DEFAULT_FD_STEP / 2 - 5e-9).worst_residual <= 1e-10


def _counting_oracle(model):
    lambdas = []

    def oracle(lam):
        lambdas.append(lam)
        return model.analytic_eigenvalues_at(lam)

    return dataclasses.replace(model, analytic_eigenvalues_at=oracle), lambdas


@pytest.mark.parametrize("model, lam, distinct", [
    (oscillator_model(n_max=8), 0.0, 6),
    (oscillator_model(n_max=8), 0.37, 4),
    (six_site_model(), 1.0, 6),
])
def test_report_calls_the_oracle_once_per_lambda(model, lam, distinct):
    counted, lambdas = _counting_oracle(model)
    report = hft_report(counted, lam)
    assert len(lambdas) == len(set(lambdas)) == distinct
    assert report == hft_report(model, lam)


@pytest.mark.parametrize("lam", [0.99995, -0.99995])
def test_report_stencils_stay_inside_the_domain(lam):
    model = oscillator_model(n_max=4)
    counted, lambdas = _counting_oracle(model)
    hft_report(counted, lam)
    assert lambdas and all(model.contains(x) for x in lambdas)
    plain = dataclasses.replace(model, analytic_eigenvalues_at=None)
    assert math.isfinite(hft_report(plain, lam).worst_residual)


@pytest.mark.parametrize("h", [math.inf, math.nan, 0.0])
def test_report_rejects_bad_step(h):
    with pytest.raises(ValueError, match=f"got {h!r}"):
        hft_report(oscillator_model(n_max=4), 0.3, h=h)


@pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1e-4])
def test_offdiag_residual_rejects_bad_step(h):
    with pytest.raises(ValueError, match=f"got {h!r}"):
        offdiag_identity_residual(six_site_model(), 0.5, 0, 1, h=h)


def test_report_away_from_clusters_random_draws():
    rng = np.random.default_rng(42)
    six = dataclasses.replace(six_site_model(), analytic_eigenvalues_at=None)
    osc = dataclasses.replace(oscillator_model(1.0, 6), analytic_eigenvalues_at=None)
    count = 0
    while count < 20:
        lam = float(rng.uniform(0.2, 2.0))
        w = six.spectrum(lam).eigenvalues
        if np.diff(w).min() <= 1e-3:
            continue
        assert hft_report(six, lam).worst_residual <= 1e-6
        count += 1
    count = 0
    while count < 20:
        lam = float(rng.uniform(0.08, 0.5))
        w = osc.spectrum(lam).eigenvalues
        if np.diff(w).min() <= 1e-3:
            continue
        assert hft_report(osc, lam).worst_residual <= 1e-6
        count += 1


# --- off-diagonal identity ---


def test_offdiag_degenerate_pair_vanishes():
    assert offdiag_identity_residual(six_site_model(), 1.0, 1, 2) <= 1e-10


def test_offdiag_nondegenerate_pair():
    assert offdiag_identity_residual(six_site_model(), 0.5, 0, 1) <= 1e-6


@pytest.mark.parametrize("model, lam", [
    (six_site_model(), 5e-5),
    (oscillator_model(n_max=4), 0.99995),
    (oscillator_model(n_max=4), -0.99995),
])
def test_offdiag_stencil_near_the_domain_edge_shrinks_to_fit(model, lam):
    # lam -+ DEFAULT_FD_STEP lies outside the open domain; hft_report
    # answers there, and so does the off-diagonal identity
    assert not model.contains(lam - DEFAULT_FD_STEP) or not model.contains(lam + DEFAULT_FD_STEP)
    hft_report(model, lam)
    assert offdiag_identity_residual(model, lam, 0, 1) <= 1e-10


def test_offdiag_rejects_equal_indices():
    with pytest.raises(ValueError):
        offdiag_identity_residual(six_site_model(), 0.5, 2, 2)
    with pytest.raises(ValueError):
        offdiag_identity_residual(six_site_model(), 0.5, 0, 6)


# --- continuity ---


def test_continuity_six_site_crossing():
    model = six_site_model()
    assert continuity_overlap(model, 1.0, 1e-3) >= 0.9999
    assert continuity_overlap(model, 1.0, 1e-8) >= 1.0 - 1e-6


def test_continuity_oscillator():
    assert continuity_overlap(oscillator_model(1.0, 8), 0.0, 1e-3) >= 0.9999


def test_continuity_rejects_bad_delta():
    with pytest.raises(ValueError):
        continuity_overlap(six_site_model(), 1.0, 0.0)


def test_stencils_that_lose_the_rotated_basis_raise_one_error():
    # levels +-1e-7 at lambda=0, a gap above the degeneracy tolerance, so the
    # basis there is (1, +-1)/sqrt(2); one unit away the states are the axes,
    # each at overlap 1/sqrt(2) with both rotated states
    model = ParametricModel(
        a=SymmetricMatrix([[0.0, 1e-7], [1e-7, 0.0]]),
        b=SymmetricMatrix([[1.0, 0.0], [0.0, -1.0]]),
    )
    message = r"cannot follow the rotated basis at lambda=0\.0 to the stencil point lambda={}: "
    for call, x in (
        (lambda: hft_report(model, 0.0, h=1.0), "1.0"),
        (lambda: offdiag_identity_residual(model, 0.0, 0, 1, h=1.0), "1.0"),
        (lambda: continuity_overlap(model, 0.0, 1.0), "-1.0"),
    ):
        with pytest.raises(TrackingError, match=message.format(x)):
            call()
    assert hft_report(model, 0.0).worst_residual <= 1e-12  # the default step follows


def test_stencils_that_land_on_an_exact_crossing_continue_in_its_hf_basis():
    # H = (lambda - 0.3) B with B's eigenvectors at 45 degrees to the axes:
    # at lambda=0.3 H vanishes and the eigensolver returns the axes, each at
    # overlap 1/sqrt(2) with both branches; only the basis that diagonalizes
    # B there continues them
    c = math.sqrt(0.5)
    q = np.array([[c, -c], [c, c]])
    b = q @ np.diag([1.0, -1.0]) @ q.T
    model = ParametricModel(a=SymmetricMatrix(-0.3 * b), b=SymmetricMatrix(b))
    assert hft_report(model, 0.2999).worst_residual <= 1e-10
    assert offdiag_identity_residual(model, 0.2999, 0, 1) <= 1e-10
    assert continuity_overlap(model, 0.299, 1e-3) >= 0.9999


# --- the stored rotated basis ---


def rotated_basis_cases():
    yield six_site_model(), 1.0
    yield six_site_model(), 0.5
    for lam in (0.0, 0.37):
        yield oscillator_model(1.0, 8), lam


def test_stored_eigenvectors_equal_the_rotated_product():
    # the raw basis is the same deterministic LAPACK call again, and the
    # rotation taking it to the stored basis is block-orthogonal: one
    # orthogonal block per cluster, the identity on singletons
    for model, lam in rotated_basis_cases():
        rot = rotated_spectrum(model, lam)
        raw = model.spectrum(lam).eigenvectors
        rotation = raw.T @ rot.eigenvectors
        blocks = np.zeros_like(rotation, dtype=bool)
        for c in rot.clusters:
            blocks[c.start : c.stop, c.start : c.stop] = True
            block = rotation[c.start : c.stop, c.start : c.stop]
            assert np.abs(block.T @ block - np.eye(len(c))).max() <= 1e-14
            if len(c) == 1:
                assert np.array_equal(rot.eigenvectors[:, c.start], raw[:, c.start])
        assert np.abs(rotation[~blocks]).max() <= 1e-14
        product = raw @ np.where(blocks, rotation, 0.0)
        assert np.abs(rot.eigenvectors - product).max() <= 1e-14


def test_stored_eigenvectors_are_one_read_only_array():
    rot = rotated_spectrum(oscillator_model(1.0, 4), 0.0)
    assert rot.eigenvectors is rot.eigenvectors
    assert not rot.eigenvectors.flags.writeable


def test_rotated_spectrum_is_one_record_per_lambda():
    model = oscillator_model(1.0, 4)
    rot = rotated_spectrum(model, 0.0)
    fields = {f.name: getattr(rot, f.name) for f in dataclasses.fields(rot)}
    assert list(fields) == [
        "lam", "eigenvalues", "vectors", "tol", "clusters", "cluster_slopes", "warnings"
    ]
    matrices = [
        name for name, value in fields.items()
        if isinstance(value, np.ndarray) and value.ndim == 2
    ]
    assert matrices == ["vectors"]
    assert rot.eigenvectors is rot.vectors
    assert (rot.lam, rot.dim) == (0.0, model.dim)
    assert np.array_equal(rot.eigenvalues, model.spectrum(0.0).eigenvalues)
    assert rot.tol == default_degeneracy_tol(rot.eigenvalues)
    assert rotated_spectrum(model, 0.0, tol=1e-3).tol == 1e-3
    assert all(type(c) is range for c in rot.clusters)


def cluster_loop_reference(w, tol):
    # The per-index loop that clustering and the boundary warnings replaced.
    d = len(w)
    clusters = []
    start = 0
    for i in range(1, d + 1):
        if i == d or w[i] - w[i - 1] > tol:
            clusters.append((start, i))
            start = i
    warnings = []
    for a, z in clusters:
        gaps = ([w[a] - w[a - 1]] if a > 0 else []) + ([w[z] - w[z - 1]] if z < d else [])
        for g in gaps:
            if tol < g <= 10.0 * tol:
                warnings.append(
                    f"cluster boundary at states {a}..{z - 1} has gap "
                    f"{g:.3e}, within 10x the degeneracy tolerance {tol:.3e}"
                )
    return clusters, tuple(dict.fromkeys(warnings))


def test_clusters_and_warnings_equal_the_loop_reference():
    rng = np.random.default_rng(11)
    tol = 1e-8
    for d in (1, 2, 5, 30):
        for _ in range(20):
            # gaps drawn from: inside a cluster, just outside (warned), well apart
            gaps = rng.choice([0.0, 0.5 * tol, 3.0 * tol, 9.9 * tol, 1e-3], size=d - 1)
            w = np.concatenate([[0.0], np.cumsum(gaps)])
            spectrum = Spectrum(lam=0.0, eigenvalues=w, eigenvectors=np.eye(d))
            hp = SymmetricMatrix(np.diag(np.arange(d, dtype=float)))
            rot = hft_consistent_basis(spectrum, hp, tol)
            clusters, warnings = cluster_loop_reference(w, tol)
            assert [(c.start, c.stop) for c in rot.clusters] == clusters
            assert [(c.start, c.stop) for c in cluster_degeneracies(w, tol)] == clusters
            assert rot.warnings == warnings


# --- tracked-branch references through fd_derivative ---


def inline_richardson_reference(model, rot, lam, h):
    # The Richardson difference that _tracked_references wrote out inline.
    branch_vals = {}
    for x in (lam + h, lam - h, lam + h / 2.0, lam - h / 2.0):
        branch_vals[x] = track(rot.eigenvectors, model.spectrum(x)).eigenvalues
    d_h = (branch_vals[lam + h] - branch_vals[lam - h]) / (2.0 * h)
    d_h2 = (branch_vals[lam + h / 2.0] - branch_vals[lam - h / 2.0]) / h
    return (4.0 * d_h2 - d_h) / 3.0


@pytest.mark.parametrize("lam", [0.3, 0.7, 1.0, 1.6])
def test_tracked_references_are_bitwise_the_inline_richardson(lam):
    plain = dataclasses.replace(six_site_model(), analytic_eigenvalues_at=None)
    rot = rotated_spectrum(plain, lam)
    got = _tracked_references(plain, rot, lam, 1e-4)
    assert np.array_equal(got, inline_richardson_reference(plain, rot, lam, 1e-4))
