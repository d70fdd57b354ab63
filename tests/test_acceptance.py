"""Acceptance suite: one test per criterion, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import itertools
import math
import time
import xml.etree.ElementTree as ET

import numpy as np

from hftkit.cli import ScanConfig, run_fermi
from hftkit.fermi import FillingSpec, cusp_report, find_crossings, ground_energy, ground_slope_hft
from hftkit.hft import (
    continuity_overlap,
    mixed_slope,
    offdiag_identity_residual,
    rotated_spectrum,
    sweep,
)
from hftkit.models import (
    OscillatorAnalytic,
    oscillator_matrix,
    oscillator_model,
    oscillator_product_expectation,
    six_site_model,
    six_site_rep,
)
from hftkit.spectral import eigh
from hftkit.symmetry import c2v_character_table, classify, commutant_residual, verify_group


def _pass(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


def six_site_closed_forms(lam):
    s = math.sqrt(lam * lam + 8.0)
    return np.sort([-(lam + s) / 2, (lam - s) / 2, -lam, lam, (s - lam) / 2, (lam + s) / 2])


def six_site_sorted_slopes(lam):
    """Slopes of the sorted eigenvalue branches, from the closed forms."""
    s = math.sqrt(lam * lam + 8.0)
    t = lam / s
    pairs = [
        (-(lam + s) / 2, -(1 + t) / 2),
        ((lam - s) / 2, (1 - t) / 2),
        (-lam, -1.0),
        (lam, 1.0),
        ((s - lam) / 2, (t - 1) / 2),
        ((lam + s) / 2, (1 + t) / 2),
    ]
    pairs.sort(key=lambda p: p[0])
    return np.array([slope for _, slope in pairs])


def test_criterion_1_six_site_eigenvalue_oracle():
    model = six_site_model()
    start = time.perf_counter()
    worst = 0.0
    for lam in np.linspace(0.2, 2.0, 181):
        got = model.spectrum(float(lam)).eigenvalues
        worst = max(worst, float(np.abs(got - six_site_closed_forms(float(lam))).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    _pass(1, f"181-point eigenvalue scan, max deviation {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_diagonal_identity_away_from_crossings():
    # six-site: all states, 20 points avoiding the crossing
    model = six_site_model()
    worst_six = 0.0
    for lam in np.linspace(0.2, 2.0, 20):
        lam = float(lam)
        assert abs(lam - 1.0) > 1e-3
        rot = rotated_spectrum(model, lam)
        assert all(len(c) == 1 for c in rot.clusters)
        worst_six = max(
            worst_six,
            float(np.abs(rot.cluster_slopes - six_site_sorted_slopes(lam)).max()),
        )
    assert worst_six <= 1e-8

    # oscillator, n_max = 12: the truncation-converged states are the low
    # shells at moderate coupling; check shells nu <= 2 (measured
    # truncation error <= ~3e-9 on this window, see the decisions ledger)
    osc = oscillator_model(1.0, 12)
    exact = OscillatorAnalytic(1.0)
    worst_osc = 0.0
    points = [0.03 * k for k in range(1, 11)]
    points += [-p for p in points]
    assert len(points) == 20
    for lam in points:
        rot = rotated_spectrum(osc, lam)
        ranked = sorted(
            ((exact.energy(lam, m, n), exact.slope(lam, m, n)) for m, n in
             [(m, n) for nu in range(3) for m in range(nu + 1) for n in [nu - m]]),
        )
        for k, (_, slope) in enumerate(ranked):
            worst_osc = max(worst_osc, abs(float(rot.cluster_slopes[k]) - slope))
    assert worst_osc <= 1e-8
    _pass(2, f"slope identity residuals: six-site {worst_six:.2e}, oscillator {worst_osc:.2e}")


def test_criterion_3_degenerate_rotation_at_the_crossing():
    rot = rotated_spectrum(six_site_model(), 1.0)
    cluster = rot.cluster_of(1)
    assert (cluster.start, cluster.stop) == (1, 3)
    got = np.sort(rot.cluster_slopes[1:3])
    dev = float(np.abs(got - np.array([-1.0, 1.0 / 3.0])).max())
    assert dev <= 1e-10
    _pass(3, f"crossing cluster slopes (-1, 1/3), deviation {dev:.2e}")


def test_criterion_4_averaging_artifact():
    rot = rotated_spectrum(six_site_model(), 1.0)
    r = 1.0 / math.sqrt(2.0)
    averaged = mixed_slope(rot.cluster_slopes[1:3], np.array([r, r]))
    assert abs(averaged - (-1.0 / 3.0)) <= 1e-12
    worst = 0.0
    for nu in range(7):
        for i in range(nu + 1):
            worst = max(worst, abs(oscillator_product_expectation(1.0, nu, i)))
    assert worst <= 1e-12
    _pass(4, f"equal mixing averages to -1/3; product-state slopes vanish ({worst:.1e})")


def test_criterion_5_oscillator_shell_slopes():
    rot = rotated_spectrum(oscillator_model(1.0, 12), 0.0)
    worst = 0.0
    for c in rot.clusters:
        nu = len(c) - 1
        if nu > 6:
            continue
        want = np.array(sorted((2 * m - nu) / 2.0 for m in range(nu + 1)))
        got = rot.cluster_slopes[c.start : c.stop]
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-10
    _pass(5, f"shell slope multisets (m - n)/2 for nu <= 6, deviation {worst:.2e}")


def test_criterion_6_variational_convergence():
    lowest = eigh(oscillator_matrix(1.0, 0.5, 40)).eigenvalues[0]
    exact = (math.sqrt(1.5) + math.sqrt(0.5)) / 2.0
    dev = abs(lowest - exact)
    assert dev <= 1e-8
    _pass(6, f"n_max=40 ground energy vs closed form, deviation {dev:.2e}")


def test_criterion_7_continuity_at_the_crossing():
    model = six_site_model()
    overlaps = [continuity_overlap(model, 1.0, d) for d in (1e-3, 1e-4, 1e-5, 1e-6)]
    assert overlaps[0] >= 0.9999
    for a, b in zip(overlaps, overlaps[1:]):
        assert b >= a  # monotone approach to 1 as delta shrinks
    assert overlaps[-1] >= 1.0 - 1e-9
    _pass(7, f"two-sided overlaps {['%.8f' % o for o in overlaps]}")


def test_criterion_8_symmetry_machinery():
    model = six_site_model()
    rep = six_site_rep()
    assert verify_group(rep).passed
    worst = commutant_residual(rep, model.b)
    for lam in (0.3, 1.0, 1.7):
        worst = max(worst, commutant_residual(rep, model.hamiltonian(lam)))
    assert worst <= 1e-12
    rot = rotated_spectrum(model, 0.5)
    labels = [l.label for l in classify(rot, rep, c2v_character_table())]
    assert labels == ["B2", "A1", "A2", "B1", "B2", "A1"]
    _pass(8, f"group verified, invariance residual {worst:.1e}, labels {' '.join(labels)}")


def test_criterion_9_fermi_cusp_and_figures(tmp_path):
    model = six_site_model()
    fill = FillingSpec(2)
    # 36 steps put no grid point on the crossing, so this exercises the
    # tracked-branch refinement rather than the exact-grid shortcut
    found = find_crossings(model, sweep(model, np.linspace(0.2, 2.0, 36)), fill)
    assert len(found) == 1 and abs(found[0] - 1.0) <= 1e-8
    report = cusp_report(model, found[0], fill)
    assert abs(report.slope_left - (-1.0 / 3.0)) <= 1e-8
    assert abs(report.slope_right - (-5.0 / 3.0)) <= 1e-8
    assert abs(ground_energy(model, 1.0, fill) - (-3.0)) <= 1e-9
    assert abs(ground_slope_hft(model, 1.0, FillingSpec(6))) <= 1e-12

    config = ScanConfig(model="six-site", lam_lo=0.2, lam_hi=2.0, steps=19,
                        n_particles=2, svg=str(tmp_path / "fig"))
    _, first = run_fermi(config)
    _, second = run_fermi(config)
    assert first == second and len(first) == 2
    for doc in first.values():
        assert ET.fromstring(doc).attrib["viewBox"] == "0 0 800 600"
    _pass(9, f"crossing at {found[0]:.10f}, cusp slopes ({report.slope_left:.6f}, "
             f"{report.slope_right:.6f}), deterministic SVG pair")


def test_criterion_10_offdiagonal_identity():
    model = six_site_model()
    worst_all = 0.0
    worst_cross = 0.0
    for lam in (0.5, 1.0, 1.5):
        rot = rotated_spectrum(model, lam)
        labels = [l.label for l in classify(rot, model.symmetry, model.character_table)]
        hp = model.b.entries
        v = rot.eigenvectors
        for m, n in itertools.combinations(range(6), 2):
            worst_all = max(worst_all, offdiag_identity_residual(model, lam, m, n))
            if labels[m] != labels[n]:
                worst_cross = max(worst_cross, abs(float(v[:, m] @ hp @ v[:, n])))
    assert worst_all <= 1e-5
    assert worst_cross <= 1e-10
    _pass(10, f"all-pairs residual {worst_all:.2e}, cross-irrep elements {worst_cross:.2e}")
