"""Ground-state energy of non-interacting spinless fermions along a scan.

Filling a fixed number of the lowest single-particle levels makes the total
energy continuous in the parameter but kinks it wherever two levels cross at
the occupation frontier.  The two one-sided slopes at such a cusp are not
arbitrary: they are sums of occupied-state slopes where the frontier
contribution is an eigenvalue of the degenerate cluster's dH/dlambda block,
the largest ones on the left and the smallest on the right.

This module locates frontier crossings along tracked branches.  The gap
between the tracked empty and occupied frontier states changes sign at a
crossing, and its derivative is the difference of their Hellmann-Feynman
slopes, so each sign change is refined by Newton steps on the gap inside the
bracket.  Where a tracked state is degenerate, its branch is followed in the
basis that diagonalizes dH/dlambda in the degenerate subspace, the basis that
continues the branches.

:func:`ground_state_curve` and :func:`find_crossings` read a sweep once, in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .hft import RotatedSpectrum, hft_basis, rotated_spectrum
from .spectral import ParametricModel, TrackingError, track
from .symmetry import _labels

BISECTION_WIDTH = 1e-10


@dataclass(frozen=True)
class FillingSpec:
    """A fixed number of spinless fermions, one per orbital."""

    n_particles: int

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError("need at least one particle")

    def check(self, dim: int) -> None:
        if self.n_particles > dim:
            raise ValueError(f"{self.n_particles} particles exceed {dim} orbitals")


@dataclass(frozen=True)
class CuspReport:
    """Both one-sided ground-energy slopes at a frontier level crossing."""

    lambda0: float
    slope_left: float
    slope_right: float
    cluster_slopes: tuple[float, ...]
    frontier_indices: tuple[int, ...]


@dataclass(frozen=True)
class GroundStateCurve:
    """Grid samples of the filled-fermion ground energy and its slope.

    ``branch_tags[k]`` is the irrep label of the highest occupied state at
    ``lambdas[k]`` when the model carries a symmetry and the state
    classifies cleanly, else the empty string.
    """

    lambdas: np.ndarray
    energies: np.ndarray
    slopes: np.ndarray
    branch_tags: tuple[str, ...]


def ground_energy(model: ParametricModel, lam: float, fill: FillingSpec) -> float:
    """Sum of the n_particles lowest eigenvalues at lam."""
    fill.check(model.dim)
    w = model.spectrum(lam).eigenvalues
    return float(np.sum(w[: fill.n_particles]))


def _frontier_cluster(rot: RotatedSpectrum, n_p: int):
    """The cluster straddling the occupation frontier, or None.  Needs
    1 <= n_p <= rot.dim, as ``FillingSpec.check`` ensures."""
    c = rot.cluster_of(n_p - 1)
    return c if n_p in c else None


def _ground_slopes(rot: RotatedSpectrum, fill: FillingSpec) -> tuple[float, float]:
    """(left, right) derivative of the ground energy at ``rot.lam``.

    Away from a frontier degeneracy both are the sum of the occupied
    rotated-state slopes.  When the frontier sits inside a degenerate
    cluster, the ground energy is the lowest of the branch sums that meet
    there, so it is concave: just left of the crossing the occupied cluster
    states are those with the largest block eigenvalues, just right of it
    those with the smallest.
    """
    n_p = fill.n_particles
    c = _frontier_cluster(rot, n_p)
    if c is None:
        slope = float(np.sum(rot.cluster_slopes[:n_p]))
        return slope, slope
    strict = float(np.sum(rot.cluster_slopes[: c.start]))
    block = np.sort(rot.cluster_slopes[c.start : c.stop])
    k = n_p - c.start
    low = strict + float(np.sum(block[:k]))
    high = strict + float(np.sum(block[len(c) - k :]))
    return high, low


def ground_slope_hft(
    model: ParametricModel, lam: float, fill: FillingSpec, tol: Optional[float] = None
):
    """Derivative of the ground energy via occupied-state slopes.

    Away from a frontier degeneracy this returns one float, the sum of the
    occupied rotated-state slopes.  When the frontier sits inside a
    degenerate cluster the derivative is two-valued and the
    ``(slope_left, slope_right)`` pair is returned instead.
    """
    fill.check(model.dim)
    rot = rotated_spectrum(model, lam, tol)
    slopes = _ground_slopes(rot, fill)
    return slopes[0] if _frontier_cluster(rot, fill.n_particles) is None else slopes


def cusp_report(
    model: ParametricModel,
    point: Union[float, RotatedSpectrum],
    fill: FillingSpec,
    tol: Optional[float] = None,
) -> CuspReport:
    """Resolve the two one-sided ground-energy slopes at a frontier crossing.

    ``point`` is the crossing's lambda, or the model's rotated spectrum
    there (a :func:`sweep` point, say), which is read as it is instead of
    being diagonalized again; ``tol`` applies to a lambda only.
    """
    fill.check(model.dim)
    rot = point if isinstance(point, RotatedSpectrum) else rotated_spectrum(model, point, tol)
    c = _frontier_cluster(rot, fill.n_particles)
    if c is None:
        raise ValueError(
            f"no frontier degeneracy at lambda={rot.lam!r} for "
            f"{fill.n_particles} particles; cusp slopes are undefined there"
        )
    slope_left, slope_right = _ground_slopes(rot, fill)
    return CuspReport(
        lambda0=rot.lam,
        slope_left=slope_left,
        slope_right=slope_right,
        cluster_slopes=tuple(float(s) for s in rot.cluster_slopes[c.start : c.stop]),
        frontier_indices=tuple(c),
    )


def _branch(
    model: ParametricModel, lam: float, column: np.ndarray, tol: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Energy and eigenvector at lam of the branch whose eigenvector
    continues the d x 1 ``column``, and all eigenvalues at lam.

    The branch is tracked in the spectrum at lam.  When that match is
    ambiguous, or lands on a state degenerate within ``tol``, whose raw
    eigenvector is an arbitrary mixture of the branches that meet there,
    the branch is tracked again in the same spectrum rotated by
    :func:`hft_basis`.  Its energy is then the Rayleigh quotient
    of the rotated column: inside a cluster the rotated columns carry
    sorted, not per-branch, eigenvalues.
    """
    spectrum = model.spectrum(lam)
    w = spectrum.eigenvalues
    try:
        tracked = track(column, spectrum)
        energy = float(tracked.eigenvalues[0])
        unresolved = np.count_nonzero(np.abs(w - energy) <= tol) > 1
    except TrackingError:
        unresolved = True
    if unresolved:
        try:
            tracked = track(column, hft_basis(spectrum, model.b, tol))
        except TrackingError as exc:
            raise TrackingError(
                f"cannot tell which branch continues the tracked frontier state at "
                f"lambda={lam!r}, neither in the eigenbasis nor in the "
                f"Hellmann-Feynman basis there"
            ) from exc
        energy = float(np.square(spectrum.eigenvectors.T @ tracked.eigenvectors[:, 0]) @ w)
    return energy, tracked.eigenvectors[:, 0], w


def find_crossings(
    model: ParametricModel, points: Iterable[RotatedSpectrum], fill: FillingSpec
) -> list[float]:
    """Locate frontier level crossings in the span of a grid of rotated
    points (a :func:`sweep`, say), read once in order.

    The frontier gap is followed along tracked branches (sorted order would
    smooth symmetry-allowed crossings over instead of detecting them): the
    states occupied and empty at an interval's left grid point are tracked
    to its right end, and a negative gap there brackets a crossing.  The
    gap's derivative is the difference of the two states' Hellmann-Feynman
    slopes v.Bv, read from the left grid point and from the tracked
    columns elsewhere, so the crossing is refined by Newton steps on the
    gap.  A step that would leave the bracket, or that is not below half
    the step before last, is replaced by bisection.  Refinement stops when
    the Newton correction is at most ``BISECTION_WIDTH / 2`` or the bracket
    is at most ``BISECTION_WIDTH`` wide.  Grid points already sitting on a
    frontier degeneracy are reported directly.  Only the point in hand and
    the one before it are held: an interval is searched once its right end
    has been read, unless either end is such a point.

    Where a probe point is degenerate, its eigenvectors are an arbitrary
    basis of the degenerate subspace, and the branches are followed in the
    basis that diagonalizes dH/dlambda there; the degeneracy tolerance of
    an interval is that of its left grid point.  A frontier pair that this
    basis resolves within the tolerance is a crossing: an avoided crossing
    whose gap is below the tolerance is located where its Hellmann-Feynman
    branches cross, whatever the grid.

    A probe at which both frontier states continue into one state raises
    :class:`TrackingError`: the grid is too coarse to follow them there.  So
    does a refined crossing whose last probe finds more than n_p - 1 levels
    below the tracked pair or d - n_p - 1 above it: a tracked state crossed a
    third level, and the pair that crosses is not the occupation frontier.
    A grid interval that holds two frontier crossings can hide one or both
    of them from the sign test; a finer grid finds them.
    """
    fill.check(model.dim)
    n_p = fill.n_particles
    if n_p >= model.dim:
        return []  # full filling has no frontier

    crossings: list[float] = []
    prev, prev_hit, count = None, False, 0
    for count, rot in enumerate(points, 1):
        lam = float(rot.lam)
        hit = _frontier_cluster(rot, n_p) is not None
        if count == 1:
            first = lam
        elif lam < prev.lam:
            raise ValueError("need an ascending grid")
        elif not (hit or prev_hit):
            crossing = _interval_crossing(model, prev, lam, n_p)
            if crossing is not None:
                crossings.append(crossing)
        if hit:
            crossings.append(lam)
        prev, prev_hit = rot, hit
    if count < 2:
        raise ValueError("need at least 2 grid points")
    if not first < prev.lam:
        raise ValueError("need an ascending grid")
    return sorted(crossings)


def _interval_crossing(
    model: ParametricModel, rot: RotatedSpectrum, hi: float, n_p: int
) -> Optional[float]:
    """The frontier crossing between the grid point ``rot`` and the next
    grid point ``hi``, or None when the tracked gap keeps its sign there."""
    b = model.b.entries
    vectors = rot.eigenvectors
    vec_occ = vectors[:, n_p - 1 : n_p]
    vec_emp = vectors[:, n_p : n_p + 1]
    tol = rot.tol
    last = []  # the latest probe's lambda, tracked levels (ascending), eigenvalues

    def probe(lam: float) -> tuple[float, float]:
        """Tracked frontier gap at lam and its derivative."""
        e_occ, v_occ, w = _branch(model, lam, vec_occ, tol)
        e_emp, v_emp, _ = _branch(model, lam, vec_emp, tol)
        if abs(v_occ @ v_emp) > 0.5:
            raise TrackingError(
                f"both tracked frontier states continue into one state at "
                f"lambda={lam!r}; a finer grid may tell them apart"
            )
        last[:] = lam, *sorted((e_occ, e_emp)), w
        return e_emp - e_occ, float(v_emp @ b @ v_emp - v_occ @ b @ v_occ)

    lo = float(rot.lam)
    g_hi, dg_hi = probe(hi)
    if g_hi >= 0.0:
        return None  # no order swap in this interval
    g_lo = float(rot.eigenvalues[n_p] - rot.eigenvalues[n_p - 1])
    dg_lo = float(rot.cluster_slopes[n_p] - rot.cluster_slopes[n_p - 1])
    crossing = _refine(probe, lo, hi, (g_lo, dg_lo), (g_hi, dg_hi))
    at, e_low, e_high, w = last
    below, above = np.count_nonzero(w < e_low - tol), np.count_nonzero(w > e_high + tol)
    if below >= n_p or above >= len(w) - n_p:
        raise TrackingError(
            f"the frontier states tracked across [{lo!r}, {hi!r}] reach levels "
            f"{e_low!r} and {e_high!r} at lambda={at!r}, which are not the "
            f"occupation frontier there: a tracked state crossed a third level"
        )
    return crossing


def _refine(probe, lo: float, hi: float, at_lo, at_hi) -> float:
    """Zero of the gap in [lo, hi], where it falls from positive to negative.

    ``at_lo`` and ``at_hi`` are the (gap, derivative) pairs at the ends;
    Newton starts from the end with the smaller gap.  Safeguarded Newton
    after Brent (1973): the bracket is kept, and a Newton step that would
    leave it, or that is not below half the step before last, gives way to
    a bisection step.
    """
    x, (g, dg) = (lo, at_lo) if at_lo[0] < -at_hi[0] else (hi, at_hi)
    last = before_last = hi - lo
    while True:
        if dg != 0.0:
            step = g / dg
        else:
            step = 0.0 if g == 0.0 else math.inf
        newton = lo <= x - step <= hi and abs(step) <= 0.5 * before_last
        if newton and abs(step) <= 0.5 * BISECTION_WIDTH:
            return x - step
        if hi - lo <= BISECTION_WIDTH:
            return 0.5 * (lo + hi)
        if newton:
            x -= step
        else:
            step = 0.5 * (hi - lo)
            x = lo + step
        before_last, last = last, abs(step)
        g, dg = probe(x)
        if g >= 0.0:
            lo = x
        else:
            hi = x


def ground_state_curve(
    model: ParametricModel, points: Iterable[RotatedSpectrum], fill: FillingSpec
) -> GroundStateCurve:
    """Sample E0 and its slope at each rotated grid point (a :func:`sweep`,
    say), read once in order.  At a grid point that lands exactly on a cusp
    the left slope is recorded.  Only per-point numbers and a copy of the
    highest occupied state are kept, not the points."""
    fill.check(model.dim)
    n_p = fill.n_particles
    lams, energies, slopes, highest_occupied = [], [], [], []
    for rot in points:
        lams.append(rot.lam)
        energies.append(float(np.sum(rot.eigenvalues[:n_p])))
        slopes.append(_ground_slopes(rot, fill)[0])
        highest_occupied.append(rot.eigenvectors[:, n_p - 1].copy())
    tags = ("",) * len(lams)
    if lams and model.symmetry is not None and model.character_table is not None:
        _, labels = _labels(np.stack(highest_occupied, axis=1), model.symmetry,
                            model.character_table)
        tags = tuple(label or "" for label in labels)
    return GroundStateCurve(lambdas=np.array(lams, dtype=float), energies=np.array(energies),
                            slopes=np.array(slopes), branch_tags=tags)
