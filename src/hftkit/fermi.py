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
bracket.  Every branch is followed into the Hellmann-Feynman basis of the
point it reaches, the basis that diagonalizes dH/dlambda in each degenerate
subspace there and so continues the branches that meet in it; away from
degeneracies it is the eigensolver's basis.

:func:`ground_state_curve` and :func:`find_crossings` read a sweep once, in
order, and :func:`ground_state_cusps` feeds each point to both in one pass.
The curve keeps per-point numbers and a copy of one state per point, not the
points; :func:`ground_state_cusps` also keeps the points on a cusp.  The
crossing search holds the point in hand and the one before it.  On bases of
``_HELPER_MIN_DIM`` states or more, when a second CPU is usable and the BLAS
runs each call on one thread, it hands interval searches to a helper thread,
at most two at a time, and then also holds the left points of those
intervals; the crossings and errors are the same.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .hft import RotatedSpectrum, _follow, expectation, rotated_spectrum
from .spectral import ParametricModel, TrackingError
from .symmetry import _labels

BISECTION_WIDTH = 1e-10
# Least dimension at which find_crossings hands interval searches to a
# helper thread.  Measured on alternating fermi-oscillator rounds (18
# requests) at smaller cutoffs, one BLAS thread, 2-core Xeon VM: inline time
# over helper time was 0.84-0.94 at d = 28, 1.20 at d = 36 (the helper ahead
# on 13 of 18 requests), 1.21 at d = 45 (17 of 18) and 1.35-1.42 at
# d = 55-66.  In spells when the VM ran only one of the two threads at a
# time it was 0.91-0.95 at every d.
_HELPER_MIN_DIM = 45


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


@dataclass(frozen=True, eq=False)
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
    continues the d x 1 ``column``, tracked by :func:`hftkit.hft._follow`
    under ``tol``, and all eigenvalues at lam."""
    spectrum = model.spectrum(lam)
    try:
        tracked = _follow(spectrum, model.b, column, tol)
    except TrackingError as exc:
        raise TrackingError(
            f"cannot tell which branch continues the tracked frontier state at "
            f"lambda={lam!r}: it overlaps two states of the Hellmann-Feynman "
            f"basis there almost equally"
        ) from exc
    return float(tracked.eigenvalues[0]), tracked.eigenvectors[:, 0], spectrum.eigenvalues


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
    frontier degeneracy are reported directly.  An interval is searched
    once its right end has been read, unless either end is such a point.

    The searches of different intervals are independent.  Where a helper
    thread can run them beside the reading of the grid (see
    :func:`_helper_helps`), each one is handed to it, at most two at a time,
    and only the point in hand, the one before it and the left points of
    those two intervals are held.  Elsewhere each is searched on the spot
    and only the point in hand and the one before it are held.  Either way
    the crossings are the same, and after the filling's the first error in
    grid order is raised: a failed search comes right after its interval's
    right end.  (A :func:`sweep` raises a lambda outside the model's
    domain before any point is read.)

    Each branch is followed into the Hellmann-Feynman basis of every probe
    point, formed with the degeneracy tolerance of the interval's left grid
    point.  A frontier pair that this basis resolves within the tolerance
    is a crossing: an avoided crossing whose gap is below the tolerance is
    located where its Hellmann-Feynman branches cross, whatever the grid.

    A probe at which a tracked state overlaps two states of that basis
    almost equally raises :class:`TrackingError`, and so does one at which
    both frontier states continue into one state: the grid is too coarse to
    follow them there.  So does a refined crossing whose last probe finds
    more than n_p - 1 levels below the tracked pair or d - n_p - 1 above
    it: a tracked state crossed a third level, and the pair that crosses is
    not the occupation frontier.
    A grid interval that holds two frontier crossings can hide one or both
    of them from the sign test; a finer grid finds them.
    """
    fill.check(model.dim)
    n_p = fill.n_particles
    if n_p >= model.dim:
        return []  # full filling has no frontier
    if not _helper_helps(model.dim):
        return _search_intervals(model, points, n_p, None)
    # Imported here: it takes about 7 ms, which `import hftkit` does not pay.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as helper:
        return _search_intervals(model, points, n_p, helper)


def _search_intervals(model: ParametricModel, points: Iterable[RotatedSpectrum], n_p: int,
                      helper) -> list[float]:
    """The loop of :func:`find_crossings`.  Each interval's search is handed
    over by :func:`_hand_over`, and its result, or error, is taken in grid
    order, as soon as it and those before it are done."""
    crossings: list[Optional[float]] = []
    pending: deque = deque()  # the searches not yet taken, in grid order
    prev, prev_hit, count = None, False, 0
    try:
        for count, rot in enumerate(points, 1):
            lam = float(rot.lam)
            hit = _frontier_cluster(rot, n_p) is not None
            if prev is not None and lam <= prev.lam:
                raise ValueError("need an ascending grid")
            if prev is not None and not (hit or prev_hit):
                pending.append(_hand_over(helper, pending, model, prev, lam, n_p))
                _take_done(pending, crossings)
            if hit:
                crossings.append(lam)
            prev, prev_hit = rot, hit
    finally:
        # The searches of intervals already read come before an error
        # raised while reading the next point, as they would on the spot.
        while pending:
            crossings.append(pending.popleft().result())
    if count < 2:
        raise ValueError("need at least 2 grid points")
    return sorted(c for c in crossings if c is not None)


def _hand_over(helper, pending: deque, *args):
    """A future of :func:`_interval_crossing` on ``args``: submitted to the
    ``helper`` executor, if any, while fewer than two ``pending`` searches
    run, else finished here, with its error kept for when it is taken."""
    if helper is not None and sum(not search.done() for search in pending) < 2:
        return helper.submit(_interval_crossing, *args)
    from concurrent.futures import Future

    searched = Future()
    try:
        searched.set_result(_interval_crossing(*args))
    except Exception as exc:
        searched.set_exception(exc)
    return searched


def _take_done(pending: deque, crossings: list) -> None:
    """Move the results of the finished searches at the head of ``pending``
    to ``crossings``.  A failed search's error is raised and the searches
    after it are dropped, so that no later error replaces it."""
    try:
        while pending and pending[0].done():
            crossings.append(pending.popleft().result())
    except BaseException:
        pending.clear()
        raise


def _helper_helps(dim: int) -> bool:
    """Whether :func:`find_crossings` on a d = ``dim`` model hands its
    interval searches to a helper thread: only where LAPACK, which runs
    without the interpreter lock, is the larger part of a search
    (d >= ``_HELPER_MIN_DIM``), a second CPU is usable, and the BLAS runs
    each call on one thread.  A BLAS that spreads a call over the CPUs
    leaves none for the helper, and one whose thread count cannot be read
    is taken to do so."""
    return dim >= _HELPER_MIN_DIM and _usable_cpus() >= 2 and _blas_threads() == 1


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads() -> Optional[int]:
    """The thread count of the OpenBLAS that numpy loads, read through its
    C API, or None where no such library or function is found."""
    get = _openblas_get_num_threads()
    return None if get is None else int(get())


@functools.cache
def _openblas_get_num_threads():
    """OpenBLAS's thread-count function from the libraries shipped in a
    numpy wheel (``numpy.libs``), or None."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return get
    return None


def _interval_crossing(
    model: ParametricModel, rot: RotatedSpectrum, hi: float, n_p: int
) -> Optional[float]:
    """The frontier crossing between the grid point ``rot`` and the next
    grid point ``hi``, or None when the tracked gap keeps its sign there."""
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
        return e_emp - e_occ, expectation(model.b, v_emp) - expectation(model.b, v_occ)

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
    samples = _CurveSamples(model, fill)
    for rot in points:
        samples.add(rot)
    return samples.curve()


def ground_state_cusps(
    model: ParametricModel,
    points: Iterable[RotatedSpectrum],
    fill: FillingSpec,
    tol: Optional[float] = None,
) -> tuple[GroundStateCurve, list[CuspReport]]:
    """The ground-state curve over a grid of rotated points (a :func:`sweep`,
    say) and the cusp report of each frontier crossing in its span, with
    the points read once, in order.

    Each point is sampled for the curve and passed on to
    :func:`find_crossings` as it is read.  A cusp on a grid point is
    reported from that point, and only such points are kept; a cusp
    between grid points is rotated at its lambda with the degeneracy
    tolerance ``tol``.  The filling is checked before any point is read,
    and the grid's errors come as in :func:`find_crossings`, in grid order:
    reading stops at the first.
    """
    fill.check(model.dim)
    n_p = fill.n_particles
    samples = _CurveSamples(model, fill)
    on_cusp: dict[float, RotatedSpectrum] = {}

    def read() -> Iterator[RotatedSpectrum]:
        for rot in points:
            samples.add(rot)
            if _frontier_cluster(rot, n_p) is not None:
                on_cusp[rot.lam] = rot
            yield rot

    reader = read()
    found = find_crossings(model, reader, fill)
    for _ in reader:  # at full filling find_crossings reads no point
        pass
    return samples.curve(), [cusp_report(model, on_cusp.get(lam0, lam0), fill, tol)
                             for lam0 in found]


class _CurveSamples:
    """The per-point numbers of a :class:`GroundStateCurve`, taken from one
    rotated point at a time, so that a reader of a grid can sample the
    curve as it passes the points on.  Needs a filling that
    ``FillingSpec.check`` accepts."""

    def __init__(self, model: ParametricModel, fill: FillingSpec) -> None:
        self.model, self.fill = model, fill
        self.lams, self.energies, self.slopes, self.highest_occupied = [], [], [], []

    def add(self, rot: RotatedSpectrum) -> None:
        n_p = self.fill.n_particles
        self.lams.append(rot.lam)
        self.energies.append(float(np.sum(rot.eigenvalues[:n_p])))
        self.slopes.append(_ground_slopes(rot, self.fill)[0])
        self.highest_occupied.append(rot.eigenvectors[:, n_p - 1].copy())

    def curve(self) -> GroundStateCurve:
        model = self.model
        tags = ("",) * len(self.lams)
        if self.lams and model.symmetry is not None and model.character_table is not None:
            _, labels = _labels(np.stack(self.highest_occupied, axis=1), model.symmetry,
                                model.character_table)
            tags = tuple(label or "" for label in labels)
        return GroundStateCurve(lambdas=np.array(self.lams, dtype=float),
                                energies=np.array(self.energies),
                                slopes=np.array(self.slopes), branch_tags=tags)
