"""Eigensolver, finite-difference, and tracking contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hftkit.models import (
    oscillator_matrix,
    oscillator_model,
    oscillator_xy_matrix,
    six_site_hamiltonian,
    six_site_model,
)
from hftkit.spectral import (
    ParametricModel,
    Spectrum,
    SymmetricMatrix,
    TrackingError,
    _fix_signs,
    eigh,
    fd_derivative,
    fd_derivative_onesided,
    match_columns,
    track,
)


def six_site_closed_forms(lam):
    # Independent oracle for the 6x6 chain-pair spectrum.
    s = math.sqrt(lam * lam + 8.0)
    return np.sort([-(lam + s) / 2, (lam - s) / 2, -lam, lam, (s - lam) / 2, (lam + s) / 2])


def random_symmetric(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return SymmetricMatrix(scale * (a + a.T) / 2.0)


# --- SymmetricMatrix construction ---


def test_symmetric_matrix_symmetrizes_roundoff():
    a = np.array([[1.0, 2.0 + 1e-15], [2.0, 3.0]])
    m = SymmetricMatrix(a)
    assert np.array_equal(m.entries, m.entries.T)


def test_symmetric_matrix_rejects_asymmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        SymmetricMatrix([[0.0, 1.0], [0.5, 0.0]])


def test_symmetric_matrix_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError, match="finite"):
        SymmetricMatrix([[np.inf, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        SymmetricMatrix(np.zeros((2, 3)))


def test_symmetric_matrix_is_readonly():
    m = SymmetricMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


# --- eigh ---


def test_eigh_identity():
    s = eigh(SymmetricMatrix(np.eye(2)))
    assert np.allclose(s.eigenvalues, [1.0, 1.0])


def test_eigh_two_site_hop():
    s = eigh(SymmetricMatrix([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(s.eigenvalues, [-1.0, 1.0], atol=1e-14)
    r = 1.0 / math.sqrt(2.0)
    # sign convention: ties in |component| break toward the lowest index
    assert np.allclose(s.eigenvectors[:, 0], [r, -r], atol=1e-14)
    assert np.allclose(s.eigenvectors[:, 1], [r, r], atol=1e-14)


def test_eigh_six_site_at_half():
    m = six_site_model().hamiltonian(0.5)
    s = eigh(m)
    expected = [-1.68614, -1.18614, -0.5, 0.5, 1.18614, 1.68614]
    assert np.allclose(s.eigenvalues, expected, atol=1e-5)
    assert np.abs(s.eigenvalues - six_site_closed_forms(0.5)).max() < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 5, 23, 60])
def test_eigh_reconstruction_and_orthonormality(dim):
    rng = np.random.default_rng(dim)
    m = random_symmetric(rng, dim, scale=3.0)
    s = eigh(m)
    v, w = s.eigenvectors, s.eigenvalues
    assert np.all(np.diff(w) >= 0.0)
    assert np.abs(v.T @ v - np.eye(dim)).max() <= 1e-12
    recon = v @ np.diag(w) @ v.T
    assert np.abs(recon - m.entries).max() <= 1e-10 * (1.0 + m.norm_inf)
    resid = np.abs(m.entries @ v - v * w).max()
    assert resid <= 1e-10 * (1.0 + m.norm_inf)


def test_eigh_large_dispatches_without_error():
    rng = np.random.default_rng(11)
    m = random_symmetric(rng, 200)
    s = eigh(m)  # auto -> lapack above the Jacobi cutoff
    assert np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(200)).max() <= 1e-12


def test_eigh_deterministic_bitwise():
    rng = np.random.default_rng(3)
    m = random_symmetric(rng, 17)
    s1 = eigh(m)
    s2 = eigh(m)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


@pytest.mark.parametrize("dim", [1, 6, 91, 200])
def test_eigh_eigenvectors_are_c_contiguous(dim):
    # Products such as v @ hp @ v round differently for a Fortran-ordered
    # v, so the memory order is part of the output convention.
    rng = np.random.default_rng(dim)
    assert eigh(random_symmetric(rng, dim)).eigenvectors.flags.c_contiguous


def test_fix_signs_matches_column_loop():
    rng = np.random.default_rng(13)
    v = rng.standard_normal((7, 5))
    v[:, 0] = [0.5, 0.0, -0.5, 0.1, 0.0, 0.0, 0.0]  # tie: lowest index leads
    v[:, 1] = -np.abs(v[:, 1])
    expected = v.copy()
    for k in range(expected.shape[1]):
        lead = int(np.argmax(np.abs(expected[:, k])))
        if expected[lead, k] < 0.0:
            expected[:, k] = -expected[:, k]
    got = _fix_signs(np.asfortranarray(v))
    assert np.array_equal(got, expected) and got.flags.c_contiguous


def test_eigh_sign_convention():
    rng = np.random.default_rng(5)
    m = random_symmetric(rng, 9)
    v = eigh(m).eigenvectors
    for k in range(9):
        lead = np.argmax(np.abs(v[:, k]))
        assert v[lead, k] > 0.0


# --- scalar finite differences ---


def test_fd_derivative_quadratic_exact():
    assert abs(fd_derivative(lambda x: x * x, 3.0, 1e-4) - 6.0) <= 1e-9


def test_fd_derivative_quadratic_family():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b, c = rng.uniform(-4, 4, size=3)
        x0 = rng.uniform(-2, 2)
        got = fd_derivative(lambda x: a * x * x + b * x + c, x0)
        assert abs(got - (2 * a * x0 + b)) <= 1e-9


def test_fd_derivative_sin():
    assert abs(fd_derivative(math.sin, 0.0) - 1.0) <= 1e-10


def test_fd_derivative_six_site_branch():
    # d/d lambda of (lambda - sqrt(lambda^2 + 8)) / 2 at 0.5, from the model path
    model = six_site_model()
    got = fd_derivative(lambda lam: float(model.spectrum(lam).eigenvalues[1]), 0.5)
    assert abs(got - 0.41296117202215105) <= 1e-7


def test_fd_derivative_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        fd_derivative(lambda x: math.inf, 1.0)
    with pytest.raises(ValueError):
        fd_derivative(lambda x: x, 1.0, h=0.0)


@pytest.mark.parametrize("h", [math.inf, math.nan, -1e-4, 0.0])
def test_fd_steps_must_be_positive_and_finite(h):
    for call in (lambda: fd_derivative(math.sin, 1.0, h),
                 lambda: fd_derivative_onesided(math.sin, 1.0, h, side=+1)):
        with pytest.raises(ValueError, match=f"step h .* got {h!r}"):
            call()


def test_fd_onesided_matches_analytic():
    got = fd_derivative_onesided(lambda x: x**3, 2.0, 1e-4, side=+1)
    assert abs(got - 12.0) <= 1e-6
    got = fd_derivative_onesided(lambda x: x**3, 2.0, 1e-4, side=-1)
    assert abs(got - 12.0) <= 1e-6
    with pytest.raises(ValueError):
        fd_derivative_onesided(lambda x: x, 0.0, 1e-4, side=0)


@pytest.mark.parametrize("side", [+1, -1])
def test_fd_onesided_on_arrays_equals_elementwise_scalar_calls(side):
    coeffs = np.array([0.3, -1.7, 2.2e3, 1e-9, 0.0])

    def values(x):
        return np.sin(coeffs * x) + coeffs * x**3

    got = fd_derivative_onesided(values, 0.41, 1e-3, side)
    want = [fd_derivative_onesided(lambda x, j=j: float(values(x)[j]), 0.41, 1e-3, side)
            for j in range(len(coeffs))]
    assert got.shape == coeffs.shape
    assert got.tobytes() == np.array(want).tobytes()

    def one_bad_element(x):
        v = values(x)
        if x != 0.41:
            v[3] = math.nan
        return v

    with pytest.raises(ValueError, match=r"non-finite function value near x0=0\.41"):
        fd_derivative_onesided(one_bad_element, 0.41, 1e-3, side)


# --- parametric model plumbing ---


def test_builtin_derivatives_are_central_differences_of_the_direct_builds():
    h = 1e-4

    def central(build, lam):
        return (build(lam + h).entries - build(lam - h).entries) / (2.0 * h)

    six = six_site_model()
    for lam in (0.3, 0.8, 1.7):
        fd = central(six_site_hamiltonian, lam)
        assert np.abs(six.derivative(lam).entries - fd).max() <= 1e-9
    osc = oscillator_model(1.0, 4)
    for lam in (-0.5, 0.0, 0.3):
        fd = central(lambda x: oscillator_matrix(1.0, x, 4), lam)
        assert np.abs(osc.derivative(lam).entries - fd).max() <= 1e-9
    assert np.array_equal(osc.b.entries, oscillator_xy_matrix(1.0, 4).entries)


def test_model_rejects_mismatched_a_and_b():
    with pytest.raises(ValueError, match=r"A is 3 x 3 but B is 2 x 2"):
        ParametricModel(a=SymmetricMatrix(np.eye(3)), b=SymmetricMatrix(np.eye(2)))


def test_model_derivative_is_b_inside_the_domain():
    model = six_site_model()
    for lam in (0.1, 1.0, 7.5):
        assert model.derivative(lam) is model.b
    for lam in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="domain"):
            model.derivative(lam)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8),
       lam=st.floats(-1e3, 1e3, allow_nan=False))
def test_model_hamiltonian_is_bitwise_a_plus_lambda_b(seed, dim, lam):
    rng = np.random.default_rng(seed)
    a, b = random_symmetric(rng, dim), random_symmetric(rng, dim, scale=3.0)
    model = ParametricModel(a=a, b=b)
    assert model.dim == dim
    want = SymmetricMatrix(a.entries + lam * b.entries)
    assert np.array_equal(model.hamiltonian(lam).entries, want.entries)


def test_model_domain_enforced():
    model = six_site_model()
    with pytest.raises(ValueError, match="domain"):
        model.spectrum(-1.0)
    with pytest.raises(ValueError):
        model.hamiltonian(0.0)  # the interval is open


# --- tracking ---


def test_track_identity():
    s = six_site_model().spectrum(0.7)
    t = track(s, s)
    assert np.array_equal(t.eigenvalues, s.eigenvalues)
    assert np.array_equal(t.eigenvectors, s.eigenvectors)


def test_track_constructed_swap_and_flip():
    s = six_site_model().spectrum(0.7)
    perm = np.array([0, 2, 1, 3, 4, 5])
    shuffled_vectors = s.eigenvectors[:, perm].copy()
    shuffled_vectors[:, 1] = -shuffled_vectors[:, 1]
    shuffled = Spectrum(lam=s.lam, eigenvalues=s.eigenvalues[perm], eigenvectors=shuffled_vectors)
    t = track(s, shuffled)
    assert np.allclose(t.eigenvalues, s.eigenvalues)
    assert np.allclose(t.eigenvectors, s.eigenvectors)


def test_track_through_six_site_crossing():
    model = six_site_model()
    prev = model.spectrum(0.99)
    next_ = model.spectrum(1.01)
    t = track(prev, next_)
    # branches cross: the tracked continuation of sorted state 1 now lies
    # above the continuation of sorted state 2
    assert t.eigenvalues[1] > t.eigenvalues[2]
    overlap = abs(float(prev.eigenvectors[:, 1] @ t.eigenvectors[:, 1]))
    assert overlap >= 0.999


def test_track_round_trip_identity_permutation():
    model = six_site_model()
    prev = model.spectrum(0.9)
    t = track(prev, model.spectrum(0.95))
    perm, _ = match_columns(t.eigenvectors, prev.eigenvectors)
    assert np.array_equal(perm, np.arange(6))


def test_track_ambiguity_raises():
    r = 1.0 / math.sqrt(2.0)
    prev = Spectrum(lam=0.0, eigenvalues=np.array([1.0, 1.0]), eigenvectors=np.eye(2))
    rotated = Spectrum(
        lam=0.0,
        eigenvalues=np.array([1.0, 1.0]),
        eigenvectors=np.array([[r, -r], [r, r]]),
    )
    with pytest.raises(TrackingError, match="refine"):
        track(prev, rotated)


def test_track_dimension_mismatch():
    a = Spectrum(lam=0.0, eigenvalues=np.ones(2), eigenvectors=np.eye(2))
    b = Spectrum(lam=0.0, eigenvalues=np.ones(3), eigenvectors=np.eye(3))
    with pytest.raises(ValueError):
        track(a, b)


def test_track_reference_subset_of_columns():
    model = six_site_model()
    prev = model.spectrum(0.99)
    next_ = model.spectrum(1.01)
    full = track(prev, next_)
    cols = [2, 1]
    t = track(prev.eigenvectors[:, cols], next_)
    assert t.eigenvectors.shape == (6, 2) and t.eigenvalues.shape == (2,)
    assert np.array_equal(t.eigenvalues, full.eigenvalues[cols])
    assert np.array_equal(t.eigenvectors, full.eigenvectors[:, cols])
    assert np.all(np.sum(prev.eigenvectors[:, cols] * t.eigenvectors, axis=0) > 0.0)


def test_match_columns_rejects_oversized_reference():
    with pytest.raises(ValueError):
        match_columns(np.eye(3), np.eye(3)[:, :2])
    with pytest.raises(ValueError):
        match_columns(np.eye(3)[:2, :2], np.eye(3))


# --- masked greedy matching against the column-by-column loop ---


def match_columns_reference(reference, candidate, ambiguity_tol=1e-6):
    # The greedy loop match_columns replaced: the remaining columns kept in a
    # list, a stable argsort of -|overlap| per reference column.
    overlaps = reference.T @ candidate
    k = reference.shape[1]
    perm = np.empty(k, dtype=int)
    signs = np.empty(k)
    unassigned = list(range(candidate.shape[1]))
    for j in range(k):
        mags = np.abs(overlaps[j, unassigned])
        order = np.argsort(-mags, kind="stable")
        best = unassigned[order[0]]
        if len(unassigned) > 1 and mags[order[0]] - mags[order[1]] <= ambiguity_tol:
            raise TrackingError(
                f"ambiguous match for state {j}: best two overlaps "
                f"{mags[order[0]]:.6g} and {mags[order[1]]:.6g} are within "
                f"{ambiguity_tol:g}; refine the lambda step"
            )
        perm[j] = best
        signs[j] = 1.0 if overlaps[j, best] >= 0.0 else -1.0
        unassigned.remove(best)
    return perm, signs


def random_orthogonal(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


@pytest.mark.parametrize("d", [1, 2, 6, 40])
def test_match_columns_equals_reference_on_random_pairs(d):
    rng = np.random.default_rng(d)
    for _ in range(5):
        a = random_orthogonal(rng, d)
        # a nearby basis, shuffled and sign-flipped: a well-posed match
        near = np.linalg.qr(a + 0.05 * rng.standard_normal((d, d)))[0]
        b = near[:, rng.permutation(d)] * rng.choice([-1.0, 1.0], size=d)
        for ref in (a, a[:, : max(1, d // 2)], a[:, rng.permutation(d)[: max(1, d - 1)]]):
            got, want = match_columns(ref, b), match_columns_reference(ref, b)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def assert_agrees_with_reference(reference, candidate, tol):
    """match_columns returns the reference loop's perm and signs, or raises
    its message; returns the perm, or the message when both raise."""
    try:
        want = match_columns_reference(reference, candidate, tol)
    except TrackingError as exc:
        with pytest.raises(TrackingError) as got:
            match_columns(reference, candidate, tol)
        assert str(got.value) == str(exc)
        return str(exc)
    got = match_columns(reference, candidate, tol)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    return list(got[0])


# Overlap matrices on which match_columns cannot return the rows' best columns
# at once and must run its greedy loop.  With an identity reference the first
# k rows of the candidate are the overlaps.  Each case: (candidate, k,
# tolerance, the expected perm or the start of the expected message).
FALLBACK_CASES = [
    # rows 0 and 1 share their best column; greedy gives row 1 its runner-up
    (np.array([[0.9, 0.4, 0.1], [0.8, -0.5, 0.2], [0.1, 0.2, -0.95]]), 3, 1e-6, [0, 1, 2]),
    # row 1's runner-up is within the tolerance until row 0 takes it
    (np.array([[0.1, -0.9, 0.2], [0.7, 0.7 - 5e-7, 0.1], [0.1, 0.2, 0.9]]), 3, 1e-6, [1, 0, 2]),
    # distinct best columns, but row 1 beats its runner-up by exactly the tolerance
    (np.array([[1.0, 0.0, 0.0], [0.0, 0.75, 0.5], [0.0, 0.0, 1.0]]), 3, 0.25,
     "ambiguous match for state 1: best two overlaps 0.75 and 0.5 are within 0.25"),
    # a shared best column, then a runner-up tie once row 0's column is taken
    (np.array([[0.9, 0.1, 0.2], [0.8, 0.5, 0.5 - 4e-7], [0.1, 0.3, 0.8]]), 3, 1e-6,
     "ambiguous match for state 1: best two overlaps 0.5 and 0.5 are within 1e-06"),
    # a single reference column always runs the loop
    (np.array([[-0.8, 0.5, 0.3], [0.5, 0.8, 0.3], [0.3, 0.3, 0.9]]), 1, 1e-6, [0]),
    (np.array([[0.6, -0.6 + 4e-7, 0.1], [0.5, 0.8, 0.3], [0.3, 0.3, 0.9]]), 1, 1e-6,
     "ambiguous match for state 0: best two overlaps 0.6 and 0.6 are within 1e-06"),
]


def test_match_columns_random_unrelated_bases_agree_or_raise_alike():
    rng = np.random.default_rng(7)
    for d in (3, 8, 25):
        for _ in range(10):
            a, b = random_orthogonal(rng, d), random_orthogonal(rng, d)
            for tol in (1e-6, 0.02):
                assert_agrees_with_reference(a, b, tol)
    for candidate, k, tol, expected in FALLBACK_CASES:
        got = assert_agrees_with_reference(np.eye(3)[:, :k], candidate, tol)
        if isinstance(expected, str):
            assert got.startswith(expected)
        else:
            assert got == expected


def test_match_columns_planted_exact_ties_go_to_the_lowest_index():
    # Rows 1 and 2 tie exactly between columns 1 and 2.  Any tolerance >= 0
    # calls a tie ambiguous, so a negative one lets the lowest-index rule
    # decide.
    reference = np.eye(4)
    overlaps = np.array([
        [0.9, 0.3, 0.3, 0.1],
        [0.3, 0.5, 0.5, 0.1],
        [0.1, 0.5, 0.5, 0.3],
        [0.0, 0.0, 0.0, 0.2],
    ])
    for tol in (-1.0, -1e-12):
        got, want = match_columns(reference, overlaps, tol), match_columns_reference(
            reference, overlaps, tol)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert list(got[0]) == [0, 1, 2, 3]
    with pytest.raises(TrackingError):
        match_columns(reference, overlaps, 0.0)


def test_match_columns_near_tie_message_matches_reference():
    reference = np.eye(3)
    candidate = np.array([
        [0.1, 0.0, 0.9],
        [0.6, 0.6 + 4e-7, 0.1],
        [0.3, 0.1, 0.2],
    ])
    with pytest.raises(TrackingError) as want:
        match_columns_reference(reference, candidate)
    with pytest.raises(TrackingError) as got:
        match_columns(reference, candidate)
    assert str(got.value) == str(want.value)
    assert "state 1" in str(got.value)


# --- overflow-free symmetrization and the affine constructor ---


def test_symmetric_matrix_keeps_entries_near_the_largest_double():
    m = SymmetricMatrix([[1.7e308, 0.0], [0.0, 1.0]])
    assert m.entries[0, 0] == 1.7e308
    assert np.array_equal(eigh(m).eigenvalues, [1.0, 1.7e308])
    # a rounding-level asymmetry next to huge entries is still averaged
    big = SymmetricMatrix([[1.7e308, 1.7e308], [1.7e308 * (1 + 2**-52), 1.0]])
    assert np.all(np.isfinite(big.entries))
    assert big.entries[0, 1] == big.entries[1, 0]


def test_symmetric_matrix_leaves_symmetric_entries_bitwise():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 7))
    a = a + a.T
    a[0, 0] = 5e-324  # the smallest subnormal survives too
    assert np.array_equal(SymmetricMatrix(a).entries, a)
    skewed = a.copy()
    skewed[1, 2] += 1e-14
    m = SymmetricMatrix(skewed).entries
    off = np.ones_like(a, dtype=bool)
    off[1, 2] = off[2, 1] = False
    assert np.array_equal(m[off], a[off])
    assert m[1, 2] == m[2, 1] == (skewed[1, 2] + skewed[2, 1]) / 2.0


def test_affine_is_bitwise_the_checked_constructor():
    rng = np.random.default_rng(5)
    for d in (1, 6, 30):
        a, b = random_symmetric(rng, d), random_symmetric(rng, d, scale=3.0)
        for lam in (0.0, -0.37, 1e-300, 2.5, -1e5):
            got = SymmetricMatrix.affine(a, lam, b)
            want = SymmetricMatrix(a.entries + lam * b.entries)
            assert type(got) is SymmetricMatrix
            assert np.array_equal(got.entries, want.entries)
            assert not got.entries.flags.writeable


def test_affine_rejects_overflow_and_mismatched_dimensions():
    a = SymmetricMatrix(np.eye(2))
    b = SymmetricMatrix(np.full((2, 2), 10.0))
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        SymmetricMatrix.affine(a, 1e308, b)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        SymmetricMatrix.affine(a, math.nan, b)
    with pytest.raises(ValueError, match="cannot add"):
        SymmetricMatrix.affine(a, 1.0, SymmetricMatrix(np.eye(3)))
