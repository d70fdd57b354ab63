"""Eigensolver, finite-difference, and tracking contracts."""

import math

import numpy as np
import pytest

from hftkit.models import oscillator_xy_matrix, six_site_model
from hftkit.spectral import (
    ParametricModel,
    Spectrum,
    SymmetricMatrix,
    TrackingError,
    _fix_signs,
    eigh,
    fd_derivative,
    fd_derivative_onesided,
    fd_matrix_derivative,
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
    model = six_site_model()
    for call in (lambda: fd_derivative(math.sin, 1.0, h),
                 lambda: fd_derivative_onesided(math.sin, 1.0, h, side=+1),
                 lambda: fd_matrix_derivative(model, 1.0, h)):
        with pytest.raises(ValueError, match=f"step h .* got {h!r}"):
            call()


def test_fd_onesided_matches_analytic():
    got = fd_derivative_onesided(lambda x: x**3, 2.0, 1e-4, side=+1)
    assert abs(got - 12.0) <= 1e-6
    got = fd_derivative_onesided(lambda x: x**3, 2.0, 1e-4, side=-1)
    assert abs(got - 12.0) <= 1e-6
    with pytest.raises(ValueError):
        fd_derivative_onesided(lambda x: x, 0.0, 1e-4, side=0)


# --- matrix finite differences ---


def test_fd_matrix_derivative_six_site():
    model = six_site_model()
    expected = np.zeros((6, 6))
    for i, j in ((0, 5), (2, 3)):
        expected[i, j] = expected[j, i] = 1.0
    for lam0 in (0.3, 1.0, 1.7):
        got = fd_matrix_derivative(model, lam0, 1e-4)
        assert np.abs(got.entries - expected).max() <= 1e-9


def test_fd_matrix_derivative_oscillator():
    from hftkit.models import oscillator_model

    model = oscillator_model(1.0, 4)
    got = fd_matrix_derivative(model, 0.3, 1e-4)
    assert np.abs(got.entries - oscillator_xy_matrix(1.0, 4).entries).max() <= 1e-9


def test_fd_matrix_derivative_constant_model():
    model = ParametricModel(dim=3, hamiltonian_at=lambda lam: SymmetricMatrix(np.diag([1.0, 2.0, 3.0])))
    got = fd_matrix_derivative(model, 0.0, 1e-4)
    assert np.abs(got.entries).max() == 0.0


def test_fd_matrix_derivative_respects_domain():
    model = six_site_model()  # domain (0, inf)
    with pytest.raises(ValueError, match="domain"):
        fd_matrix_derivative(model, 5e-5, 1e-4)


# --- parametric model plumbing ---


def test_analytic_derivative_agrees_with_fd():
    for model, lam in ((six_site_model(), 0.8),):
        fd = fd_matrix_derivative(model, lam, 1e-4)
        assert np.abs(model.derivative(lam).entries - fd.entries).max() <= 1e-6


def test_model_without_derivative_falls_back_to_fd():
    model = ParametricModel(
        dim=2,
        hamiltonian_at=lambda lam: SymmetricMatrix([[lam, 1.0], [1.0, -lam]]),
    )
    got = model.derivative(0.4)
    assert np.abs(got.entries - np.diag([1.0, -1.0])).max() <= 1e-9


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
