"""The two built-in systems against their closed forms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hftkit.models
from hftkit.hft import _fit_step, _oracle_references, rotated_spectrum
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
from hftkit.spectral import (
    ParametricModel,
    SymmetricMatrix,
    eigh,
    fd_derivative,
    fd_derivative_onesided,
)
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


def test_oscillator_build_keeps_only_a_and_b_as_dense_arrays():
    # The C2v rep is four row actions of d entries each, so a model holds
    # two d x d arrays (A and B) and its build never needs a third and a half.
    n_max = 32
    d = oscillator_dim(n_max)
    build_model("oscillator", nmax=n_max)
    tracemalloc.start()
    try:
        model = build_model("oscillator", nmax=n_max)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    double = np.dtype(float).itemsize
    assert kept <= (2 * d * d + 64 * d) * double
    assert peak <= 4 * d * d * double
    assert model.symmetry.matrices.tobytes() == _loop_rep_matrices(n_max).tobytes()


def test_oscillator_build_peaks_below_any_d_by_d_temporary():
    # A and B are handed to SymmetricMatrix without a copy, and its checks
    # make no d x d temporary: at nmax 32 the build peaks at 2.07 d^2
    # doubles, 2.02 d^2 of them kept, so less than a d x d bool array above
    # what it keeps.
    n_max = 32
    d = oscillator_dim(n_max)
    build_model("oscillator", nmax=n_max)
    tracemalloc.start()
    try:
        model = build_model("oscillator", nmax=n_max)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.dim == d
    assert peak - kept < d * d


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
    assert np.array_equal(six.b.entries, six_site_derivative().entries)
    for lam in (0.05, 0.5, 1.0, 1.37, 2.9):
        assert np.array_equal(six.hamiltonian(lam).entries, six_site_hamiltonian(lam).entries)
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
        rotated_spectrum(model, float(lam))
    assert calls == [(1.0, 5)]


# --- array-built oscillator against the per-state loop builders ---


def _loop_position_element(omega, a, b):
    if abs(a - b) != 1:
        return 0.0
    return math.sqrt(max(a, b) / (2.0 * omega))


def _loop_xy(omega, n_max):
    basis = oscillator_basis(n_max)
    index = {state: i for i, state in enumerate(basis)}
    xy = np.zeros((len(basis), len(basis)))
    for i, (m, n) in enumerate(basis):
        for dm in (-1, 1):
            for dn in (-1, 1):
                j = index.get((m + dm, n + dn))
                if j is not None:
                    xy[i, j] = _loop_position_element(omega, m, m + dm) * _loop_position_element(
                        omega, n, n + dn
                    )
    return xy


def _loop_diagonal(omega, n_max):
    return np.diag([(m + n + 1) * omega for m, n in oscillator_basis(n_max)])


def _loop_rep_matrices(n_max):
    basis = oscillator_basis(n_max)
    index = {state: i for i, state in enumerate(basis)}
    d = len(basis)
    parity = np.array([(-1.0) ** (m + n) for m, n in basis])
    u2 = np.zeros((d, d))
    for i, (m, n) in enumerate(basis):
        u2[index[(n, m)], i] = 1.0
    return np.stack([np.eye(d), np.diag(parity), u2, parity[:, None] * u2])


def _loop_sorted_eigenvalues(omega, lam, n_max):
    exact = OscillatorAnalytic(omega=omega)
    return np.sort([exact.energy(lam, m, n) for m, n in oscillator_basis(n_max)])


@pytest.mark.parametrize("n_max", range(13))
def test_array_built_oscillator_is_bitwise_the_loop_build(n_max):
    rep = oscillator_rep(n_max).matrices
    assert rep.shape == (4, oscillator_dim(n_max), oscillator_dim(n_max))
    assert rep.tobytes() == _loop_rep_matrices(n_max).tobytes()
    for omega in (0.7, 1.0, 1.3):
        model = oscillator_model(omega=omega, n_max=n_max)
        assert model.a.entries.tobytes() == _loop_diagonal(omega, n_max).tobytes()
        assert model.b.entries.tobytes() == _loop_xy(omega, n_max).tobytes()
        exact = OscillatorAnalytic(omega=omega)
        for lam in (0.0, 0.37, -0.81):
            if abs(lam) >= omega**2:
                with pytest.raises(ValueError, match="outside"):
                    exact.sorted_eigenvalues(lam, n_max)
                continue
            got = exact.sorted_eigenvalues(lam, n_max)
            assert got.tobytes() == _loop_sorted_eigenvalues(omega, lam, n_max).tobytes()


def test_array_builders_reject_a_negative_cutoff():
    for build in (lambda: oscillator_rep(-1), lambda: oscillator_xy_matrix(1.0, -1),
                  lambda: OscillatorAnalytic(1.0).sorted_eigenvalues(0.1, -1)):
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            build()


# --- oracle stencils: one array per shared step against a per-state loop ---


def _scalar_oracle_references(model, rot, lam, h):
    """The per-state form of hft._oracle_references: one scalar Richardson
    stencil per singleton state."""
    oracle = model.analytic_eigenvalues_at
    w = rot.eigenvalues
    d = rot.dim
    refs = np.empty(d)
    for c in rot.clusters:
        if len(c) == 1:
            i = c.start
            gap = math.inf
            if i > 0:
                gap = min(gap, w[i] - w[i - 1])
            if i + 1 < d:
                gap = min(gap, w[i + 1] - w[i])
            step = _fit_step(model, lam, max(min(h, gap / 4.0), 1e-8), 1.0, (+1, -1))
            refs[i] = fd_derivative(lambda x, i=i: float(oracle(x)[i]), lam, step)
        else:
            side = +1 if model.contains(lam + 2.0 * h) else -1
            step = _fit_step(model, lam, h, 2.0, (side,))
            refs[c.start : c.stop] = sorted(
                fd_derivative_onesided(lambda x, j=j: float(oracle(x)[j]), lam, step, side)
                for j in c
            )
    return refs


def _assert_oracle_references_match(model, lam, h=1e-4):
    rot = rotated_spectrum(model, lam)
    got = _oracle_references(model, rot, lam, h)
    assert got.tobytes() == _scalar_oracle_references(model, rot, lam, h).tobytes()
    return rot


@pytest.mark.parametrize("lam", [0.0, 0.37, 1.0 - 0.5e-4, -1.0 + 3e-4])
def test_oracle_references_equal_the_per_state_stencils(lam):
    # lambda = 0: every shell is a cluster; 0.37: generic; the last two sit
    # within 4h of the domain edge, where _fit_step shrinks the steps.
    rot = _assert_oracle_references_match(oscillator_model(n_max=8), lam)
    if lam == 0.0:
        assert max(len(c) for c in rot.clusters) > 1


def _diagonal_family(levels, slopes):
    levels, slopes = np.asarray(levels, dtype=float), np.asarray(slopes, dtype=float)
    return ParametricModel(
        a=SymmetricMatrix(np.diag(levels)),
        b=SymmetricMatrix(np.diag(slopes)),
        analytic_eigenvalues_at=lambda x: np.sort(levels + x * slopes),
        lambda_domain=(-1.0, 1.0),
    )


def test_oracle_references_with_close_singletons_use_per_state_steps():
    # Neighbours 5e-5 to 3.5e-8 apart, all beyond the degeneracy tolerance:
    # the singleton steps differ, and the closest pair hits the 1e-8 floor.
    levels = [0.0, 5e-5, 2e-4, 1.0, 1.0 + 3.5e-8, 2.0]
    model = _diagonal_family(levels, [0.3, -0.2, 0.1, 0.4, -0.4, 0.0])
    rot = _assert_oracle_references_match(model, 0.0)
    assert all(len(c) == 1 for c in rot.clusters)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 9),
       lam=st.floats(-0.99, 0.99))
def test_oracle_references_equal_the_per_state_stencils_on_random_families(seed, dim, lam):
    rng = np.random.default_rng(seed)
    # Levels on a coarse lattice make exact degeneracies and near neighbours.
    levels = rng.integers(0, 4, dim) * 1e-4 + rng.integers(0, 2, dim) * 1e-7
    _assert_oracle_references_match(_diagonal_family(levels, rng.normal(size=dim)), lam)
