"""Filled-fermion ground energy, crossing search, cusp slopes."""

import dataclasses
import gc
import math
import sys
import time
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

import hftkit.cli
import hftkit.fermi
import hftkit.hft
from hftkit.cli import ScanConfig, main, run_fermi
from hftkit.fermi import (
    BISECTION_WIDTH,
    FillingSpec,
    _frontier_cluster,
    _refine,
    _search_intervals,
    cusp_report,
    find_crossings,
    ground_energy,
    ground_slope_hft,
    ground_state_curve,
    ground_state_cusps,
)
from hftkit.hft import rotated_spectrum, sweep
from hftkit.models import oscillator_model, six_site_model
from hftkit.spectral import (
    ParametricModel,
    SymmetricMatrix,
    TrackingError,
    fd_derivative,
    track,
)
from hftkit.symmetry import ClassificationError, classify_vector


TWO = FillingSpec(2)


def crossings_on(model, grid, fill):
    return find_crossings(model, sweep(model, grid), fill)


def curve_on(model, grid, fill):
    return ground_state_curve(model, sweep(model, grid), fill)


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
    got = crossings_on(six_site_model(), np.linspace(0.2, 2.0, 19), TWO)
    assert len(got) == 1
    assert abs(got[0] - 1.0) <= 1e-8


def test_find_crossings_bisects_between_grid_points():
    got = crossings_on(six_site_model(), np.linspace(0.2, 1.95, 18), TWO)
    assert len(got) == 1
    assert abs(got[0] - 1.0) <= 1e-8


def test_find_crossings_second_frontier():
    got = crossings_on(six_site_model(), np.linspace(0.2, 2.0, 25), FillingSpec(4))
    assert len(got) == 1
    assert abs(got[0] - 1.0) <= 1e-8


def test_find_crossings_none_below_unity():
    assert crossings_on(six_site_model(), np.linspace(0.2, 0.9, 15), TWO) == []


def test_find_crossings_full_filling_has_no_frontier():
    assert crossings_on(six_site_model(), np.linspace(0.2, 2.0, 15), FillingSpec(6)) == []


def test_frontier_cluster_is_none_at_full_filling():
    # every level in one cluster: it straddles any frontier but the last
    model = ParametricModel(
        a=SymmetricMatrix(np.zeros((3, 3))), b=SymmetricMatrix(np.diag([1.0, 2.0, 3.0]))
    )
    rot = rotated_spectrum(model, 0.0)
    assert rot.clusters == (range(0, 3),)
    assert _frontier_cluster(rot, 2) == range(0, 3)
    assert _frontier_cluster(rot, 3) is None
    assert abs(ground_slope_hft(model, 0.0, FillingSpec(3)) - 6.0) <= 1e-12


def test_find_crossings_validates_window():
    with pytest.raises(ValueError):
        crossings_on(six_site_model(), np.linspace(0.2, 2.0, 1), TWO)
    with pytest.raises(ValueError):
        crossings_on(six_site_model(), np.linspace(2.0, 0.2, 10), TWO)
    with pytest.raises(ValueError, match="need an ascending grid"):
        crossings_on(six_site_model(), [0.5, 0.5], TWO)


def test_find_crossings_refuses_a_repeated_point_as_it_is_read(monkeypatch):
    # the crossing at 1.0 would otherwise be reported once per copy
    with pytest.raises(ValueError, match="need an ascending grid"):
        crossings_on(six_site_model(), [0.5, 1.0, 1.0, 1.5], TWO)
    lambdas = _count_spectra(monkeypatch)
    with pytest.raises(ValueError, match="need an ascending grid"):
        crossings_on(six_site_model(), [0.5, 0.5], TWO)
    assert lambdas == [0.5, 0.5]  # the two grid points, no grid-end probe


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
    # and both sides from concavity: no ground_energy call at all
    calls = []
    original = hftkit.fermi.ground_energy

    def counting(model, lam, fill):
        calls.append(lam)
        return original(model, lam, fill)

    monkeypatch.setattr(hftkit.fermi, "ground_energy", counting)
    report = cusp_report(six_site_model(), 1.0, TWO)
    assert calls == []
    assert report.slope_left >= report.slope_right
    assert abs(report.slope_left - (-1.0 / 3.0)) <= 1e-10


def test_cusp_report_reads_a_rotated_point_as_it_is(monkeypatch):
    model = six_site_model()
    rot = rotated_spectrum(model, 1.0)
    lambdas = _count_rotations(monkeypatch)
    assert cusp_report(model, rot, TWO) == cusp_report(model, 1.0, TWO)
    assert lambdas == [1.0]  # the second call only


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
    curve = curve_on(model, grid, TWO)
    for lam, e0 in zip(curve.lambdas, curve.energies):
        assert abs(e0 - e0_closed_form(float(lam))) <= 1e-10
    tags = dict(zip(np.round(curve.lambdas, 2), curve.branch_tags))
    assert tags[0.5] == "A1"
    assert tags[1.5] == "A2"


def test_curve_continuous_across_the_cusp():
    model = six_site_model()
    grid = np.linspace(0.99, 1.01, 21)
    curve = curve_on(model, grid, TWO)
    assert np.abs(np.diff(curve.energies)).max() <= 2e-3  # O(step), no jump
    # the slope column jumps only at the crossing
    jumps = np.abs(np.diff(curve.slopes))
    assert jumps.max() > 1.0
    assert np.argmax(jumps) in (9, 10)


def per_column_tags(model, grid, n_p):
    # The curve's tags as they were taken before: one classify_vector call
    # per grid point, "" where the state is mixed.
    tags = []
    for rot in sweep(model, grid):
        try:
            v = rot.eigenvectors[:, n_p - 1]
            tags.append(classify_vector(v, model.symmetry, model.character_table).label)
        except ClassificationError:
            tags.append("")
    return tuple(tags)


@pytest.mark.parametrize("model, grid, n_p", [
    (six_site_model(), np.linspace(0.2, 2.0, 37), 1),
    (six_site_model(), np.linspace(0.2, 2.0, 37), 2),
    (six_site_model(), np.linspace(0.2, 2.0, 37), 4),
    # this oscillator grid holds lambda=0, where the shells are degenerate
    (oscillator_model(n_max=8), np.linspace(-0.5, 0.5, 21), 1),
    (oscillator_model(n_max=8), np.linspace(-0.5, 0.5, 21), 3),
    (oscillator_model(n_max=8), np.linspace(-0.5, 0.5, 21), 6),
])
def test_curve_tags_equal_per_column_classification(model, grid, n_p):
    tags = curve_on(model, grid, FillingSpec(n_p)).branch_tags
    assert tags == per_column_tags(model, grid, n_p)
    assert any(tags)


def test_curve_without_symmetry_leaves_tags_empty():
    model = dataclasses.replace(six_site_model(), symmetry=None, character_table=None)
    curve = curve_on(model, np.linspace(0.4, 0.6, 3), TWO)
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


def test_sweep_rotates_each_point_when_it_is_read(monkeypatch):
    lambdas = _count_rotations(monkeypatch)
    points = sweep(six_site_model(), np.linspace(0.5, 1.5, 5))
    assert lambdas == []
    assert next(points).lam == 0.5 and lambdas == [0.5]
    assert [rot.lam for rot in points] == [0.75, 1.0, 1.25, 1.5]
    assert lambdas == [0.5, 0.75, 1.0, 1.25, 1.5]


# exact rotation counts: a cusp on the grid reuses the sweep's point
ROTATIONS = {
    ("six-site", 0.2, 2.0, 19, 2): 19,  # the cusp at 1.0 is a grid point
    ("oscillator", 0.1, 0.7, 15, 3): 16,  # one cusp between grid points
    ("oscillator", -0.5, 0.5, 11, 2): 11,  # the cusp at 0.0 is a grid point
}


@pytest.mark.parametrize("model, lo, hi, steps, n_p", list(ROTATIONS))
def test_run_fermi_rotates_each_grid_point_once(monkeypatch, model, lo, hi, steps, n_p):
    rotations = ROTATIONS[model, lo, hi, steps, n_p]
    lambdas = _count_rotations(monkeypatch)
    config = ScanConfig(model=model, nmax=6, lam_lo=lo, lam_hi=hi, steps=steps,
                        n_particles=n_p)
    table, _ = run_fermi(config)
    assert sum(c.startswith("# cusp,") for c in table.comments) == 1
    assert len(lambdas) == rotations


def _count_spectra(monkeypatch):
    lambdas = []
    original = ParametricModel.spectrum

    def counting(self, lam):
        lambdas.append(lam)
        return original(self, lam)

    monkeypatch.setattr(ParametricModel, "spectrum", counting)
    return lambdas


def test_run_fermi_diagonalizes_a_cusp_on_the_grid_once(monkeypatch):
    lambdas = _count_spectra(monkeypatch)
    config = ScanConfig(model="six-site", lam_lo=0.5, lam_hi=1.5, steps=5, n_particles=2)
    table, _ = run_fermi(config)
    assert table.comments == ["# cusp,1,-0.3333333333333337,-1.666666666666667"]
    # each grid point, and after it the two grid-end probes of the interval
    # it closes, unless that interval touches 1.0
    assert lambdas == [0.5, 0.75, 0.75, 0.75, 1.0, 1.25, 1.5, 1.5, 1.5]


# --- Newton refinement against the bisection it replaced ---


def _bisection_crossings(model, grid, fill):
    """The crossing search as it was before Newton refinement: the tracked
    frontier gap bisected down to ``BISECTION_WIDTH`` in every interval
    whose right end shows a swap."""
    n_p = fill.n_particles
    rots = list(sweep(model, grid))
    hits = {i for i, rot in enumerate(rots) if _frontier_cluster(rot, n_p) is not None}
    crossings = [float(grid[i]) for i in sorted(hits)]
    for i in range(len(grid) - 1):
        if i in hits or (i + 1) in hits:
            continue
        vectors = rots[i].eigenvectors

        def gap(lam):
            occ, emp = (
                float(track(vectors[:, k : k + 1], model.spectrum(lam)).eigenvalues[0])
                for k in (n_p - 1, n_p)
            )
            return emp - occ

        lo, hi = float(grid[i]), float(grid[i + 1])
        if gap(hi) >= 0.0:
            continue
        while hi - lo > BISECTION_WIDTH:
            mid = 0.5 * (lo + hi)
            if gap(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        crossings.append(0.5 * (lo + hi))
    return sorted(crossings)


SEARCH_GRIDS = [
    (six_site_model(), 0.2, 1.95, 18, 2),
    (six_site_model(), 0.2, 2.0, 36, 2),
    (six_site_model(), 0.05, 2.9, 11, 4),
    (six_site_model(), 0.31, 1.77, 7, 2),
    (oscillator_model(n_max=8), -0.83, 0.41, 23, 3),
    (oscillator_model(n_max=8), -0.9, 0.2, 31, 6),
    (oscillator_model(n_max=8), -0.3, 0.87, 17, 4),
    (oscillator_model(n_max=8), 0.07, 0.93, 41, 10),
    (oscillator_model(n_max=8), -0.3, 0.47, 17, 8),
]


@pytest.mark.parametrize("model, lo, hi, steps, n_p", SEARCH_GRIDS)
def test_newton_crossings_agree_with_bisection(model, lo, hi, steps, n_p):
    grid = np.linspace(lo, hi, steps)
    fill = FillingSpec(n_p)
    want = _bisection_crossings(model, grid, fill)
    got = crossings_on(model, grid, fill)
    assert len(got) == len(want)
    assert np.abs(np.array(got) - np.array(want)).max(initial=0.0) <= BISECTION_WIDTH


def test_newton_refinement_spectrum_calls(monkeypatch):
    lambdas = _count_spectra(monkeypatch)
    got = crossings_on(six_site_model(), np.linspace(0.2, 1.95, 18), TWO)
    assert len(got) == 1 and abs(got[0] - 1.0) <= 1e-8
    # 18 grid points, two grid-end probes on each of 17 intervals, and three
    # Newton probes of two calls each (bisection took 56)
    assert len(lambdas) == 18 + 2 * 17 + 6


def test_branch_continues_through_degenerate_shells_in_the_hf_basis():
    # at lambda=0 the oscillator's shells are exactly degenerate, and their
    # raw eigenvectors are an arbitrary basis of each shell: the branches
    # arriving from lambda<0 carry on with the Hellmann-Feynman slopes
    # (the block eigenvalues at 0) they had on the way in
    model = oscillator_model(n_max=8)
    left = rotated_spectrum(model, -0.05)
    at = rotated_spectrum(model, 0.0)
    for k in range(1, 10):
        column = left.eigenvectors[:, k : k + 1]
        energy, v, w = hftkit.fermi._branch(model, 0.0, column, left.tol)
        assert np.array_equal(w, at.eigenvalues)
        slope = v @ model.b.entries @ v
        c = at.cluster_of(k)
        assert abs(energy - at.eigenvalues[k]) <= 1e-12
        assert np.abs(at.cluster_slopes[c.start : c.stop] - slope).min() <= 1e-12
        assert abs(slope - left.cluster_slopes[k]) <= 0.1


def test_a_branch_no_basis_can_place_is_an_error_at_its_probe():
    # levels +-1e-7 at lambda=0, a gap above the degeneracy tolerance, so the
    # occupied state there is (1, -1)/sqrt(2); at lambda=1 the states are
    # the axes, and it overlaps both of them equally
    model = ParametricModel(
        a=SymmetricMatrix([[0.0, 1e-7], [1e-7, 0.0]]),
        b=SymmetricMatrix([[1.0, 0.0], [0.0, -1.0]]),
    )
    with pytest.raises(TrackingError) as info:
        find_crossings(model, sweep(model, [0.0, 1.0]), FillingSpec(1))
    assert str(info.value) == (
        "cannot tell which branch continues the tracked frontier state at lambda=1.0: "
        "it overlaps two states of the Hellmann-Feynman basis there almost equally"
    )


def test_refine_bisects_where_the_gap_derivative_vanishes():
    # a probe that reports no slope leaves Newton no step, so every probe
    # is the midpoint of the bracket until it is BISECTION_WIDTH wide
    probed = []

    def probe(x):
        probed.append(x)
        return 0.3 - x, 0.0

    got = _refine(probe, 0.0, 1.0, (0.3, 0.0), (-0.7, 0.0))
    assert probed[:3] == [0.5, 0.25, 0.375]
    assert len(probed) == math.ceil(math.log2(1.0 / BISECTION_WIDTH))
    assert abs(got - 0.3) <= 0.5 * BISECTION_WIDTH


def test_tracked_pair_off_the_frontier_is_an_error_not_a_crossing(capsys):
    # between -0.61 and -0.56 the tracked occupied state of np=8 crosses
    # sorted level 6, so the tracked pair that swaps near -0.6025 is levels
    # 6 and 7 while the frontier pair 7, 8 stays 0.0124 apart; finer grids
    # (57 and 113 steps) meet the same pair
    model = oscillator_model(n_max=8)
    with pytest.raises(TrackingError, match=r"not the occupation frontier") as info:
        crossings_on(model, np.linspace(-0.61, 0.77, 29), FillingSpec(8))
    message = str(info.value)
    assert "[-0.61, -0.5607142857142857]" in message and "lambda=-0.60248" in message
    assert "finer grid" not in message
    w = model.spectrum(-0.6024840541872938).eigenvalues
    assert w[8] - w[7] > 0.01
    argv = ["--model", "oscillator", "--nmax", "8", "--np", "8",
            "--lmin", "-0.61", "--lmax", "0.77", "--steps", "29"]
    for command in ("crossings", "fermi"):
        assert main([command, *argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"


def test_frontier_states_tracked_into_one_state_are_an_error_not_a_crossing():
    # no two levels come closer than 1.2 on [-2, 2], but the eigenvectors
    # turn so far between grid points that both frontier states of a left
    # end continue into the same state further on; that zero "gap" is no
    # crossing, and a finer grid resolves it
    model = ParametricModel(
        a=SymmetricMatrix([[1.6, -1.1, -0.8], [-1.1, -1.8, 0.1], [-0.8, 0.1, 0.0]]),
        b=SymmetricMatrix([[0.0, -0.2, 1.3], [-0.2, 1.8, -1.2], [1.3, -1.2, 0.2]]),
    )
    for n_p, steps in ((1, 4), (2, 3)):
        with pytest.raises(TrackingError, match="a finer grid may tell them apart"):
            crossings_on(model, np.linspace(-2.0, 2.0, steps), FillingSpec(n_p))
        assert crossings_on(model, np.linspace(-2.0, 2.0, 401), FillingSpec(n_p)) == []


@pytest.mark.parametrize("grid", [np.linspace(-1.0, 0.9, 4), np.linspace(-1.0, 1.0, 4)])
def test_avoided_crossing_below_the_tolerance_is_a_crossing_on_every_grid(grid):
    # gap 2e-9 at lambda=0, below the default degeneracy tolerance 1e-8:
    # the Hellmann-Feynman basis resolves the pair, so it is a crossing, and
    # its place does not depend on where the grid or the probes fall
    model = ParametricModel(
        a=SymmetricMatrix([[0.0, 1e-9], [1e-9, 0.0]]),
        b=SymmetricMatrix([[1.0, 0.0], [0.0, -1.0]]),
    )
    fill = FillingSpec(1)
    got = crossings_on(model, grid, fill)
    assert len(got) == 1 and abs(got[0]) <= 1e-20
    report = cusp_report(model, got[0], fill)
    assert (report.slope_left, report.slope_right) == pytest.approx((1.0, -1.0), abs=1e-12)


def test_sweep_rejects_a_non_vector_grid():
    with pytest.raises(ValueError, match="one-dimensional"):
        sweep(oscillator_model(n_max=2), np.zeros((2, 2)))


# --- the grid readers stream their points ---


class _Watch:
    """Passes the points of a sweep on, and at each one counts how many of
    the points passed so far, and of their vector arrays, are still alive.
    Weak references are kept in lists: neither a frozen record holding
    arrays nor an array is hashable, so a ``weakref.WeakSet`` cannot."""

    def __init__(self):
        self.refs = []
        self.most = 0

    def __call__(self, points):
        for rot in points:
            gc.collect()
            self.refs.append((weakref.ref(rot), weakref.ref(rot.vectors)))
            self.most = max(self.most, *self._alive())
            yield rot

    def _alive(self):
        return [sum(r[k]() is not None for r in self.refs) for k in (0, 1)]

    def alive(self):
        gc.collect()
        return sum(self._alive())


@pytest.fixture
def frozen_heap():
    # Objects made before the test leave the collector's view, so that each
    # gc.collect() looks at the test's own objects only and stays fast.
    gc.freeze()
    yield
    gc.unfreeze()


def _search_on(monkeypatch, helper):
    """Make find_crossings search its intervals on a helper thread, or on
    the spot, whatever the model and machine."""
    monkeypatch.setattr(hftkit.fermi, "_helper_helps", lambda dim: helper)


@pytest.mark.parametrize("model, lo, hi, steps, n_p", SEARCH_GRIDS)
def test_grid_readers_hold_at_most_two_points(monkeypatch, frozen_heap, model, lo, hi, steps,
                                               n_p):
    _search_on(monkeypatch, False)
    grid = np.linspace(lo, hi, steps)
    fill = FillingSpec(n_p)
    watch = _Watch()
    got = find_crossings(model, watch(sweep(model, grid)), fill)
    assert got == find_crossings(model, list(sweep(model, grid)), fill)
    assert watch.most == 2  # the point in hand and the one before it
    assert watch.alive() == 0

    watch = _Watch()
    curve = ground_state_curve(model, watch(sweep(model, grid)), fill)
    assert watch.most <= 2
    assert watch.alive() == 0  # the curve keeps copies, not the points
    listed = ground_state_curve(model, list(sweep(model, grid)), fill)
    for name in ("lambdas", "energies", "slopes"):
        assert getattr(curve, name).tobytes() == getattr(listed, name).tobytes()
    assert curve.branch_tags == listed.branch_tags


# --- interval searches on a helper thread ---


OSC12 = oscillator_model(n_max=12)
# windows of the d = 91 model whose search fails: the first two in their
# first interval, the others in their last
OSC12_FAILING = [
    (-0.61, 0.77, 29, 8),
    (-0.61, 0.77, 21, 11),
    (-0.2, 0.61, 17, 8),
    (-0.2, 0.61, 29, 11),
]
OSC12_WINDOWS = OSC12_FAILING + [(0.1, 0.7, 21, 6), (-0.45, 0.45, 37, 4), (-0.9, 0.9, 41, 3)]


def test_helper_runs_only_on_large_bases_with_a_free_cpu_and_one_blas_thread(monkeypatch):
    def gate(dim, cpus, blas):
        monkeypatch.setattr(hftkit.fermi, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(hftkit.fermi, "_blas_threads", lambda: blas)
        return hftkit.fermi._helper_helps(dim)

    min_dim = hftkit.fermi._HELPER_MIN_DIM
    assert gate(min_dim, 2, 1)
    assert not gate(min_dim - 1, 2, 1)
    assert not gate(min_dim, 1, 1)
    assert not gate(min_dim, 2, 2)
    assert not gate(min_dim, 2, None)  # a thread count that cannot be read


def _on_both_paths(monkeypatch, run):
    """run() with the interval searches on the spot, then on a helper."""
    got = []
    for helper in (False, True):
        _search_on(monkeypatch, helper)
        got.append(run())
    return got


def _crossings_or_error(model, grid, fill):
    try:
        return find_crossings(model, sweep(model, grid), fill)
    except TrackingError as exc:
        return f"TrackingError: {exc}"


@pytest.mark.parametrize(
    "model, lo, hi, steps, n_p",
    SEARCH_GRIDS + [(OSC12, *window) for window in OSC12_WINDOWS],
)
def test_helper_finds_the_crossings_found_on_the_spot(monkeypatch, model, lo, hi, steps, n_p):
    grid = np.linspace(lo, hi, steps)
    inline, helper = _on_both_paths(
        monkeypatch, lambda: _crossings_or_error(model, grid, FillingSpec(n_p)))
    assert helper == inline


def test_helper_results_hold_when_threads_switch_often(monkeypatch):
    # a switch every microsecond interleaves the reading of the grid with
    # the helper's searches far more finely than LAPACK calls alone would
    grid = np.linspace(-0.9, 0.2, 31)
    fill = FillingSpec(6)
    model = SEARCH_GRIDS[5][0]
    _search_on(monkeypatch, False)
    want = find_crossings(model, sweep(model, grid), fill)
    _search_on(monkeypatch, True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [find_crossings(model, sweep(model, grid), fill) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 3 and len(want) >= 2


def _cli(capsys, tmp_path, argv):
    """Exit code, stdout, stderr and the SVG files of one CLI run."""
    code = main(argv)
    out, err = capsys.readouterr()
    svgs = {p.name: p.read_bytes() for p in sorted(tmp_path.glob("*.svg"))}
    for p in tmp_path.glob("*.svg"):
        p.unlink()
    return code, out, err, svgs


@pytest.mark.parametrize("lo, hi, steps, n_p", OSC12_WINDOWS)
def test_helper_leaves_cli_output_byte_identical(monkeypatch, capsys, tmp_path, lo, hi, steps,
                                                 n_p):
    window = ["--model", "oscillator", "--nmax", "12", "--np", str(n_p),
              "--lmin", repr(lo), "--lmax", repr(hi), "--steps", str(steps)]
    for argv in (["crossings", *window], ["fermi", *window, "--svg", str(tmp_path / "p")]):
        inline, helper = _on_both_paths(monkeypatch, lambda: _cli(capsys, tmp_path, argv))
        assert helper == inline
    if (lo, hi, steps, n_p) in OSC12_FAILING:
        assert inline[0] == 1 and "a tracked state crossed a third level" in inline[2]
    else:
        assert inline[0] == 0 and "# cusp," in inline[1]
        assert set(inline[3]) == {"p_energy.svg", "p_slope.svg"}


@pytest.mark.parametrize("helper", [False, True])
def test_crossings_and_fermi_report_a_lambda_outside_the_domain_first(monkeypatch, capsys,
                                                                     helper):
    # lambda=1.115, the last grid point, lies outside the model's domain;
    # the search of the first interval, [-0.61, -0.4375], would fail
    _search_on(monkeypatch, helper)
    lambdas = _count_spectra(monkeypatch)
    window = ["--model", "oscillator", "--nmax", "12", "--np", "8",
              "--lmin", "-0.61", "--lmax", "1.115", "--steps", "11"]
    for command in ("crossings", "fermi"):
        assert main([command, *window]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: lambda=1.115 outside the open domain (-1.0, 1.0) "
                       "of model 'oscillator'\n")
    assert lambdas == []


def test_sweep_checks_the_whole_grid_before_diagonalizing_a_point(monkeypatch):
    lambdas = _count_spectra(monkeypatch)
    with pytest.raises(ValueError, match=r"^lambda=1\.5 outside the open domain "
                                         r"\(-1\.0, 1\.0\) of model 'oscillator'$"):
        sweep(oscillator_model(), [0.5, 1.5])
    with pytest.raises(ValueError, match=r"^lambda=0\.0 outside the open domain"):
        sweep(six_site_model(), [0.5, 0.0, -1.0])  # the first bad lambda is named
    assert lambdas == []


@pytest.mark.parametrize("helper", [False, True])
def test_fermi_reports_a_grid_error_before_too_many_particles(monkeypatch, capsys, helper):
    # 16 particles exceed the 15 orbitals of nmax 4, and lambda=1.0 lies
    # outside the domain; the grid is answered for first
    _search_on(monkeypatch, helper)
    assert main(["fermi", "--model", "oscillator", "--nmax", "4", "--np", "16",
                 "--lmin", "0.5", "--lmax", "1.5", "--steps", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: lambda=1.0 outside the open domain (-1.0, 1.0) "
                   "of model 'oscillator'\n")


@pytest.mark.parametrize("helper", [False, True])
def test_fermi_reports_too_many_particles_before_diagonalizing_a_point(monkeypatch, capsys,
                                                                      helper):
    _search_on(monkeypatch, helper)
    lambdas = _count_spectra(monkeypatch)
    assert main(["fermi", "--model", "oscillator", "--nmax", "4", "--np", "16",
                 "--lmin", "0.1", "--lmax", "0.9", "--steps", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 16 particles exceed 15 orbitals\n"
    assert lambdas == []


def test_a_failing_fermi_window_stops_reading_at_its_failed_search(monkeypatch):
    # the search of the first interval fails; the 27 grid points after it
    # are not diagonalized
    _search_on(monkeypatch, False)
    lambdas = _count_spectra(monkeypatch)
    config = ScanConfig(model="oscillator", nmax=12, lam_lo=-0.61, lam_hi=0.77, steps=29,
                        n_particles=8)
    with pytest.raises(TrackingError, match="a tracked state crossed a third level"):
        run_fermi(config)
    # the interval's two grid points, the two calls of its grid-end probe
    # and three Newton probes of two calls each
    assert len(lambdas) == 10
    assert lambdas[:4] == [-0.61, config.grid()[1]] + [config.grid()[1]] * 2


def _fail_searches_at(monkeypatch, lefts, delay=0.0):
    """Make the search of each interval whose left end is in ``lefts`` fail
    with an error naming that end, the later ones ``delay`` s later, and
    every other search find nothing."""
    def search(model, rot, hi, n_p):
        if rot.lam in lefts:
            if rot.lam != lefts[0]:
                time.sleep(delay)
            raise TrackingError(f"search from {rot.lam!r} failed")
        return None

    monkeypatch.setattr(hftkit.fermi, "_interval_crossing", search)


@pytest.mark.parametrize("helper", [False, True])
def test_the_first_failed_search_in_grid_order_is_raised(monkeypatch, helper):
    # two neighbouring intervals fail; the later one slowly, so that on the
    # helper it is still running when the first one's error is taken
    _search_on(monkeypatch, helper)
    model = oscillator_model(n_max=8)
    grid = np.linspace(0.1, 0.7, 9).tolist()
    _fail_searches_at(monkeypatch, grid[3:5], delay=0.05)
    for _ in range(3):
        with pytest.raises(TrackingError, match=rf"^search from {grid[3]!r} failed$"):
            find_crossings(model, sweep(model, grid), FillingSpec(3))


class _StepHelper:
    """A stand-in for the helper executor: a search handed to it runs only
    when the next one is handed over, or when its result is asked for."""

    def __init__(self):
        self.queued = []

    def submit(self, fn, *args):
        self.run()
        search = _OnDemand(self)
        self.queued.append((search, fn, args))
        return search

    def run(self):
        for search, fn, args in self.queued:
            try:
                search.set_result(fn(*args))
            except Exception as exc:
                search.set_exception(exc)
        self.queued.clear()


class _OnDemand(Future):
    def __init__(self, helper):
        super().__init__()
        self.helper = helper

    def result(self, timeout=None):
        if not self.done():
            self.helper.run()
        return super().result(timeout)


def test_a_failed_search_taken_while_a_later_one_fails_is_the_one_raised(monkeypatch):
    # the search of [grid[3], grid[4]] is done, and has failed, when it is
    # taken; the search of the next interval is still queued and fails when
    # it runs
    model = oscillator_model(n_max=8)
    grid = np.linspace(0.1, 0.7, 9).tolist()
    _fail_searches_at(monkeypatch, grid[3:5])
    with pytest.raises(TrackingError, match=rf"^search from {grid[3]!r} failed$"):
        _search_intervals(model, sweep(model, grid), 3, _StepHelper())


@pytest.mark.parametrize("helper", [False, True])
@pytest.mark.parametrize("model, lo, hi, steps, n_p", [
    (six_site_model(), 0.5, 1.5, 5, 2),
    (six_site_model(), 0.2, 2.0, 19, 2),
    (OSC12, 0.1, 0.7, 21, 6),
    (OSC12, -0.45, 0.45, 37, 4),
])
def test_ground_state_cusps_reads_once_what_a_held_grid_gives(monkeypatch, helper, model, lo,
                                                               hi, steps, n_p):
    _search_on(monkeypatch, helper)
    grid = np.linspace(lo, hi, steps)
    fill = FillingSpec(n_p)
    points = list(sweep(model, grid))
    want_curve = ground_state_curve(model, points, fill)
    on_grid = {rot.lam: rot for rot in points}
    want = [cusp_report(model, on_grid.get(lam0, lam0), fill)
            for lam0 in find_crossings(model, points, fill)]
    curve, cusps = ground_state_cusps(model, sweep(model, grid), fill)
    for name in ("lambdas", "energies", "slopes"):
        assert getattr(curve, name).tobytes() == getattr(want_curve, name).tobytes()
    assert curve.branch_tags == want_curve.branch_tags
    assert cusps == want and cusps


@pytest.mark.parametrize("helper", [False, True])
def test_run_fermi_samples_every_point_at_full_filling(monkeypatch, helper):
    # find_crossings reads no point when no frontier is left
    _search_on(monkeypatch, helper)
    lambdas = _count_rotations(monkeypatch)
    config = ScanConfig(model="oscillator", nmax=4, lam_lo=-0.5, lam_hi=0.5, steps=9,
                        n_particles=15)
    table, _ = run_fermi(config)
    assert len(lambdas) == 9
    assert table.column("lambda").tolist() == np.linspace(-0.5, 0.5, 9).tolist()
    assert not table.comments


@pytest.mark.parametrize("helper, in_flight", [(False, 0), (True, 2)])
@pytest.mark.parametrize("model, lo, hi, steps, n_p, on_grid", [
    ("six-site", 0.5, 1.5, 5, 2, 1),
    ("six-site", 0.2, 2.0, 19, 2, 1),
    ("oscillator", 0.1, 0.7, 15, 3, 0),
    ("oscillator", -0.5, 0.5, 11, 2, 1),
])
def test_run_fermi_holds_points_in_hand_in_flight_and_on_cusps(
    monkeypatch, frozen_heap, helper, in_flight, model, lo, hi, steps, n_p, on_grid
):
    _search_on(monkeypatch, helper)
    watch = _Watch()
    monkeypatch.setattr(hftkit.cli, "sweep",
                        lambda model, grid, tol=None: watch(sweep(model, grid, tol)))
    config = ScanConfig(model=model, nmax=6, lam_lo=lo, lam_hi=hi, steps=steps,
                        n_particles=n_p)
    table, _ = run_fermi(config)
    assert sum(c.startswith("# cusp,") for c in table.comments) == 1
    # the point in hand and the one before it, the left points of the
    # intervals on the helper, and the points on a cusp
    assert watch.most <= 2 + in_flight + on_grid
    assert watch.alive() == 0
