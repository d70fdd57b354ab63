"""The two built-in systems against their closed forms."""

import math

import numpy as np
import pytest

import hftkit.models
from hftkit.models import (
    OscillatorAnalytic,
    build_model,
    oscillator_analytic,
    oscillator_basis,
    oscillator_dim,
    oscillator_matrix,
    oscillator_model,
    oscillator_rep,
    oscillator_product_expectation,
    oscillator_xy_matrix,
    six_site_analytic_eigenvalues,
    six_site_derivative,
    six_site_hamiltonian,
    six_site_model,
    six_site_rep,
)
from hftkit.spectral import eigh
from hftkit.symmetry import commutant_residual


# --- six-site chain pair ---


def test_six_site_matrix_pattern():
    h = six_site_model().hamiltonian(0.7).entries
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 0.0, 0.0, 0.7],
            [1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.7, 0.0, 0.0],
            [0.0, 0.0, 0.7, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0, 1.0],
            [0.7, 0.0, 0.0, 0.0, 1.0, 0.0],
        ]
    )
    assert np.array_equal(h, expected)


def test_six_site_closed_forms_at_unity():
    assert np.allclose(
        six_site_analytic_eigenvalues(1.0), [-2.0, -1.0, -1.0, 1.0, 1.0, 2.0], atol=1e-14
    )


def test_six_site_closed_forms_frozen_point():
    got = six_site_analytic_eigenvalues(0.5)
    expected = [-1.6861406616345072, -1.1861406616345072, -0.5, 0.5, 1.1861406616345072,
                1.6861406616345072]
    assert np.abs(got - np.array(expected)).max() <= 1e-14


def test_six_site_traceless():
    for lam in np.linspace(0.1, 3.0, 30):
        assert abs(six_site_analytic_eigenvalues(lam).sum()) <= 1e-12


def test_six_site_closed_forms_domain():
    with pytest.raises(ValueError):
        six_site_analytic_eigenvalues(0.0)
    with pytest.raises(ValueError):
        six_site_analytic_eigenvalues(-0.4)


def test_six_site_eigh_matches_oracle_on_grid():
    model = six_site_model()
    for lam in np.linspace(0.2, 2.0, 50):
        got = model.spectrum(float(lam)).eigenvalues
        assert np.abs(got - six_site_analytic_eigenvalues(float(lam))).max() <= 1e-10


def test_six_site_symmetry_on_grid():
    model = six_site_model()
    rep = six_site_rep()
    for lam in np.linspace(0.2, 2.0, 10):
        assert commutant_residual(rep, model.hamiltonian(float(lam))) <= 1e-12


# --- oscillator basis and matrices ---


def test_oscillator_basis_ordering():
    basis = oscillator_basis(3)
    assert basis == [
        (0, 0),
        (0, 1), (1, 0),
        (0, 2), (1, 1), (2, 0),
        (0, 3), (1, 2), (2, 1), (3, 0),
    ]
    assert len(basis) == oscillator_dim(3)


def test_oscillator_h0_shells():
    m = oscillator_matrix(1.0, 0.0, 2)
    assert np.array_equal(np.diag(m.entries), [1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
    assert np.array_equal(m.entries, np.diag(np.diag(m.entries)))


def test_oscillator_first_shell_coupling():
    xy = oscillator_xy_matrix(1.0, 1).entries
    # |0,1> and |1,0> occupy indices 1 and 2
    assert abs(xy[1, 2] - 0.5) <= 1e-15
    assert abs(xy[2, 1] - 0.5) <= 1e-15
    assert np.count_nonzero(np.diag(xy)) == 0


def test_oscillator_coupling_selection_rule():
    basis = oscillator_basis(6)
    xy = oscillator_xy_matrix(1.0, 6).entries
    for i, (m, n) in enumerate(basis):
        for j, (mp, np_) in enumerate(basis):
            if xy[i, j] != 0.0:
                assert abs(m - mp) == 1 and abs(n - np_) == 1


def test_oscillator_rayleigh_ritz_converged_ground_state():
    w = eigh(oscillator_matrix(1.0, 0.5, 40)).eigenvalues
    exact = (math.sqrt(1.5) + math.sqrt(0.5)) / 2.0
    assert abs(w[0] - exact) <= 1e-8


def test_oscillator_variational_monotonicity():
    exact = OscillatorAnalytic(1.0).energy(0.5, 0, 0)
    previous = math.inf
    for n_max in (4, 8, 12, 16, 20):
        lowest = eigh(oscillator_matrix(1.0, 0.5, n_max)).eigenvalues[0]
        assert lowest <= previous + 1e-14
        assert lowest >= exact - 1e-12  # truncation is variational
        previous = lowest


def test_oscillator_matrix_validates_parameters():
    with pytest.raises(ValueError):
        oscillator_matrix(0.0, 0.1, 4)
    with pytest.raises(ValueError):
        oscillator_matrix(1.0, 0.1, -1)


# --- closed forms ---


def test_oscillator_analytic_first_excited():
    energy, slope = oscillator_analytic(1.0, 0.0, 1, 0)
    assert energy == 2.0
    assert slope == 0.5


def test_oscillator_analytic_balanced_states_flat():
    for m in range(4):
        _, slope = oscillator_analytic(1.0, 0.0, m, m)
        assert slope == 0.0


def test_oscillator_analytic_frozen_point():
    energy, slope = oscillator_analytic(1.0, 0.5, 0, 0)
    assert abs(energy - 0.96592582628906829) <= 1e-6
    assert abs(slope - (-0.14942924536134225)) <= 1e-6


def test_oscillator_analytic_domain():
    with pytest.raises(ValueError):
        oscillator_analytic(1.0, 1.0, 0, 0)
    with pytest.raises(ValueError):
        oscillator_analytic(1.0, -1.5, 0, 0)
    with pytest.raises(ValueError):
        oscillator_analytic(1.0, 0.0, -1, 0)


def test_oscillator_analytic_slope_is_energy_derivative():
    exact = OscillatorAnalytic(1.0)
    h = 1e-5
    for lam in (-0.4, 0.0, 0.3):
        for m, n in ((0, 0), (2, 1), (0, 3)):
            fd = (exact.energy(lam + h, m, n) - exact.energy(lam - h, m, n)) / (2 * h)
            assert abs(fd - exact.slope(lam, m, n)) <= 1e-8


# --- degenerate product states ---


def test_product_states_report_zero_slope():
    assert oscillator_product_expectation(1.0, 1, 0) == 0.0
    assert oscillator_product_expectation(1.0, 3, 2) == 0.0
    for nu in range(7):
        for i in range(nu + 1):
            assert oscillator_product_expectation(1.0, nu, i) == 0.0
    with pytest.raises(ValueError):
        oscillator_product_expectation(1.0, 2, 3)


def test_shell_block_eigenvalues_exact():
    # truncation keeps every shell block of the coupling intact
    n_max = 8
    basis = oscillator_basis(n_max)
    xy = oscillator_xy_matrix(1.0, n_max).entries
    from hftkit.spectral import SymmetricMatrix

    for nu in range(n_max + 1):
        idx = [i for i, (m, n) in enumerate(basis) if m + n == nu]
        block = xy[np.ix_(idx, idx)]
        got = eigh(SymmetricMatrix(block)).eigenvalues
        want = sorted((m - (nu - m)) / 2.0 for m in range(nu + 1))
        assert np.abs(got - np.array(want)).max() <= 1e-12


def test_rotated_first_shell_contrast():
    # the correct shell-1 combinations carry slopes +-1/2, unlike the
    # product states, whose diagonal coupling element vanishes
    from hftkit.hft import rotated_spectrum

    rot = rotated_spectrum(oscillator_model(1.0, 6), 0.0)
    assert np.abs(rot.cluster_slopes[1:3] - np.array([-0.5, 0.5])).max() <= 1e-12


# --- symmetry of the truncated model ---


def test_oscillator_rep_commutes_with_both_matrices():
    rep = oscillator_rep(7)
    assert commutant_residual(rep, oscillator_matrix(1.0, 0.45, 7)) <= 1e-12
    assert commutant_residual(rep, oscillator_xy_matrix(1.0, 7)) <= 1e-12


def test_oscillator_rep_equals_the_matrix_product_build():
    for n_max in (0, 3, 8):
        basis = oscillator_basis(n_max)
        index = {state: i for i, state in enumerate(basis)}
        d = len(basis)
        u1 = np.diag([(-1.0) ** (m + n) for m, n in basis])
        u2 = np.zeros((d, d))
        for i, (m, n) in enumerate(basis):
            u2[index[(n, m)], i] = 1.0
        want = np.stack([np.eye(d), u1, u2, u1 @ u2])
        assert np.array_equal(oscillator_rep(n_max).matrices, want)


def test_oscillator_rep_verifies():
    from hftkit.symmetry import verify_group

    assert verify_group(oscillator_rep(5)).passed


# --- registry ---


def test_registry_builds_both_models():
    six = build_model("six-site")
    assert six.dim == 6 and six.name == "six-site"
    osc = build_model("oscillator", omega=2.0, nmax=5)
    assert osc.dim == oscillator_dim(5)
    assert osc.lambda_domain == (-4.0, 4.0)


def test_registry_rejects_unknown():
    with pytest.raises(ValueError, match="unknown model"):
        build_model("nosuch")


# --- affine built-ins: H = A + lambda * B with A and B built once ---


def test_built_in_hamiltonians_are_bitwise_the_direct_builds():
    six = six_site_model()
    for lam in (0.05, 0.5, 1.0, 1.37, 2.9):
        assert np.array_equal(six.hamiltonian(lam).entries, six_site_hamiltonian(lam).entries)
        assert np.array_equal(six.derivative(lam).entries, six_site_derivative().entries)
    for omega, n_max in ((1.0, 6), (2.0, 9)):
        osc = oscillator_model(omega=omega, n_max=n_max)
        for lam in (-0.9 * omega**2, -0.3, 0.0, 0.37, 0.9 * omega**2):
            got = osc.hamiltonian(lam).entries
            assert np.array_equal(got, oscillator_matrix(omega, lam, n_max).entries)


def test_oscillator_coupling_is_built_once_per_model(monkeypatch):
    calls = []
    original = hftkit.models.oscillator_xy_matrix

    def counting(omega, n_max):
        calls.append((omega, n_max))
        return original(omega, n_max)

    monkeypatch.setattr(hftkit.models, "oscillator_xy_matrix", counting)
    model = oscillator_model(n_max=5)
    for lam in np.linspace(-0.8, 0.8, 17):
        model.spectrum(float(lam))
        model.derivative(float(lam))
    assert calls == [(1.0, 5)]
