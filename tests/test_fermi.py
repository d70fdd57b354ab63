"""Filled-fermion ground energy, crossing search, cusp slopes."""

import dataclasses
import math

import numpy as np
import pytest

import hftkit.fermi
import hftkit.hft
from hftkit.cli import ScanConfig, run_fermi
from hftkit.fermi import (
    FillingSpec,
    cusp_report,
    find_crossings,
    ground_energy,
    ground_slope_hft,
    ground_state_curve,
)
from hftkit.hft import Sweep
from hftkit.models import oscillator_model, six_site_model
from hftkit.spectral import fd_derivative


TWO = FillingSpec(2)


def e0_closed_form(lam):
    # Independent piecewise oracle for two fermions in the six-site model.
    s = math.sqrt(lam * lam + 8.0)
    return -s if lam <= 1.0 else -(3.0 * lam + s) / 2.0


def test_filling_spec_validation():
    with pytest.raises(ValueError):
        FillingSpec(0)
    with pytest.raises(ValueError):
        ground_energy(six_site_model(), 0.5, FillingSpec(7))


def test_ground_energy_two_fermions():
    model = six_site_model()
    assert abs(ground_energy(model, 0.5, TWO) - (-2.87228)) <= 1e-5
    assert abs(ground_energy(model, 0.5, TWO) - e0_closed_form(0.5)) <= 1e-12
    assert abs(ground_energy(model, 1.0, TWO) - (-3.0)) <= 1e-9


def test_ground_energy_full_filling_is_trace():
    model = six_site_model()
    for lam in (0.3, 1.0, 1.9):
        assert abs(ground_energy(model, lam, FillingSpec(6))) <= 1e-12


def test_ground_slope_left_branch():
    got = ground_slope_hft(six_site_model(), 0.5, TWO)
    assert abs(got - (-0.17407765595569785)) <= 1e-6


def test_ground_slope_right_branch():
    got = ground_slope_hft(six_site_model(), 2.0, TWO)
    assert abs(got - (-1.7886751345948129)) <= 1e-6


def test_ground_slope_pair_at_crossing():
    left, right = ground_slope_hft(six_site_model(), 1.0, TWO)
    assert abs(left - (-1.0 / 3.0)) <= 1e-8
    assert abs(right - (-5.0 / 3.0)) <= 1e-8


def test_ground_slope_full_filling_sum_rule():
    model = six_site_model()
    for lam in (0.4, 1.0, 1.6):
        got = ground_slope_hft(model, lam, FillingSpec(6))
        assert abs(got) <= 1e-12  # trace of dH/dlambda is zero here


def test_ground_slope_full_filling_equals_nonzero_trace():
    from hftkit.spectral import ParametricModel, SymmetricMatrix

    rng = np.random.default_rng(17)
    a = rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5))
    a, b = (a + a.T) / 2.0, (b + b.T) / 2.0
    model = ParametricModel(a=SymmetricMatrix(a), b=SymmetricMatrix(b))
    got = ground_slope_hft(model, 0.37, FillingSpec(5))
    assert abs(got - np.trace(b)) <= 1e-12


def test_ground_slope_matches_fd_away_from_crossing():
    model = six_site_model()
    rng = np.random.default_rng(31)
    count = 0
    while count < 20:
        lam = float(rng.uniform(0.2, 2.0))
        if abs(lam - 1.0) < 5e-3:
            continue
        fd = fd_derivative(lambda x: ground_energy(model, x, TWO), lam)
        assert abs(ground_slope_hft(model, lam, TWO) - fd) <= 1e-6
        count += 1


def test_find_crossings_hits_grid_point():
    got = find_crossings(Sweep(six_site_model(), np.linspace(0.2, 2.0, 19)), TWO)
    assert len(got) == 1
    assert abs(got[0] - 1.0) <= 1e-8


def test_find_crossings_bisects_between_grid_points():
    got = find_crossings(Sweep(six_site_model(), np.linspace(0.2, 1.95, 18)), TWO)
    assert len(got) == 1
    assert abs(got[0] - 1.0) <= 1e-8


def test_find_crossings_second_frontier():
    got = find_crossings(Sweep(six_site_model(), np.linspace(0.2, 2.0, 25)), FillingSpec(4))
    assert len(got) == 1
    assert abs(got[0] - 1.0) <= 1e-8


def test_find_crossings_none_below_unity():
    assert find_crossings(Sweep(six_site_model(), np.linspace(0.2, 0.9, 15)), TWO) == []


def test_find_crossings_full_filling_has_no_frontier():
    assert find_crossings(Sweep(six_site_model(), np.linspace(0.2, 2.0, 15)), FillingSpec(6)) == []


def test_find_crossings_validates_window():
    with pytest.raises(ValueError):
        find_crossings(Sweep(six_site_model(), np.linspace(0.2, 2.0, 1)), TWO)
    with pytest.raises(ValueError):
        find_crossings(Sweep(six_site_model(), np.linspace(2.0, 0.2, 10)), TWO)


def test_cusp_report_values():
    report = cusp_report(six_site_model(), 1.0, TWO)
    assert abs(report.slope_left - (-1.0 / 3.0)) <= 1e-10
    assert abs(report.slope_right - (-5.0 / 3.0)) <= 1e-10
    assert report.frontier_indices == (1, 2)
    got = np.sort(report.cluster_slopes)
    assert np.abs(got - np.array([-1.0, 1.0 / 3.0])).max() <= 1e-10


def test_cusp_report_candidate_structure():
    # each one-sided slope is the strictly-occupied sum plus one distinct
    # frontier block eigenvalue, whatever the intra-cluster ordering
    report = cusp_report(six_site_model(), 1.0, TWO)
    strict = -2.0 / 3.0  # slope of the lone strictly occupied state at lambda=1
    candidates = sorted(strict + b for b in report.cluster_slopes)
    got = sorted((report.slope_left, report.slope_right))
    assert got == pytest.approx(candidates, abs=1e-8)


def test_cusp_report_takes_e0_at_the_cusp_from_its_own_spectrum(monkeypatch):
    calls = []
    original = hftkit.fermi.ground_energy

    def counting(model, lam, fill):
        calls.append(lam)
        return original(model, lam, fill)

    monkeypatch.setattr(hftkit.fermi, "ground_energy", counting)
    report = cusp_report(six_site_model(), 1.0, TWO, delta=1e-3)
    assert calls == [1.0 - 1e-3, 1.0 + 1e-3]
    assert abs(report.slope_left - (-1.0 / 3.0)) <= 1e-10


def test_cusp_report_requires_frontier_degeneracy():
    with pytest.raises(ValueError, match="no frontier degeneracy"):
        cusp_report(six_site_model(), 0.5, TWO)


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_cusp_one_sided_taylor_consistency(delta):
    model = six_site_model()
    report = cusp_report(model, 1.0, TWO)
    e0 = ground_energy(model, 1.0, TWO)
    left = ground_energy(model, 1.0 - delta, TWO) + report.slope_left * delta
    right = ground_energy(model, 1.0 + delta, TWO) - report.slope_right * delta
    assert abs(left - e0) <= 5.0 * delta**2
    assert abs(right - e0) <= 5.0 * delta**2


def test_curve_energies_and_tags():
    model = six_site_model()
    grid = np.linspace(0.2, 2.0, 19)
    curve = ground_state_curve(Sweep(model, grid), TWO)
    for lam, e0 in zip(curve.lambdas, curve.energies):
        assert abs(e0 - e0_closed_form(float(lam))) <= 1e-10
    tags = dict(zip(np.round(curve.lambdas, 2), curve.branch_tags))
    assert tags[0.5] == "A1"
    assert tags[1.5] == "A2"


def test_curve_continuous_across_the_cusp():
    model = six_site_model()
    grid = np.linspace(0.99, 1.01, 21)
    curve = ground_state_curve(Sweep(model, grid), TWO)
    assert np.abs(np.diff(curve.energies)).max() <= 2e-3  # O(step), no jump
    # the slope column jumps only at the crossing
    jumps = np.abs(np.diff(curve.slopes))
    assert jumps.max() > 1.0
    assert np.argmax(jumps) in (9, 10)


def test_curve_without_symmetry_leaves_tags_empty():
    model = dataclasses.replace(six_site_model(), symmetry=None, character_table=None)
    curve = ground_state_curve(Sweep(model, np.linspace(0.4, 0.6, 3)), TWO)
    assert curve.branch_tags == ("", "", "")


# --- the shared grid ---


def _count_rotations(monkeypatch):
    lambdas = []
    original = hftkit.hft.hft_consistent_basis

    def counting(spectrum, hp, tol=None):
        lambdas.append(spectrum.lam)
        return original(spectrum, hp, tol)

    monkeypatch.setattr(hftkit.hft, "hft_consistent_basis", counting)
    return lambdas


def test_sweep_fills_each_point_on_first_read(monkeypatch):
    lambdas = _count_rotations(monkeypatch)
    sweep = Sweep(six_site_model(), np.linspace(0.5, 1.5, 5))
    assert lambdas == []
    assert sweep[3] is sweep[3]
    assert lambdas == [1.25]
    assert [rot.lam for rot in sweep] == [0.5, 0.75, 1.0, 1.25, 1.5]
    assert lambdas == [1.25, 0.5, 0.75, 1.0, 1.5]


def test_curve_and_crossings_share_one_sweep(monkeypatch):
    lambdas = _count_rotations(monkeypatch)
    sweep = Sweep(six_site_model(), np.linspace(0.2, 2.0, 19))
    ground_state_curve(sweep, TWO)
    assert find_crossings(sweep, TWO) == [1.0]
    assert len(lambdas) == 19


@pytest.mark.parametrize("model, lo, hi, steps, n_p", [
    ("six-site", 0.2, 2.0, 19, 2),
    ("oscillator", 0.1, 0.7, 15, 3),
    ("oscillator", -0.5, 0.5, 11, 2),
])
def test_run_fermi_rotates_each_grid_point_once(monkeypatch, model, lo, hi, steps, n_p):
    lambdas = _count_rotations(monkeypatch)
    config = ScanConfig(model=model, nmax=6, lam_lo=lo, lam_hi=hi, steps=steps,
                        n_particles=n_p)
    table, _ = run_fermi(config)
    cusps = [c for c in table.comments if c.startswith("# cusp,")]
    assert len(lambdas) == steps + len(cusps)


def test_sweep_rejects_a_non_vector_grid():
    with pytest.raises(ValueError, match="one-dimensional"):
        Sweep(oscillator_model(n_max=2), np.zeros((2, 2)))
