"""Ground-state energy of non-interacting spinless fermions along a scan.

Filling a fixed number of the lowest single-particle levels makes the total
energy continuous in the parameter but kinks it wherever two levels cross at
the occupation frontier.  The two one-sided slopes at such a cusp are not
arbitrary: they are sums of occupied-state slopes where the frontier
contribution is an eigenvalue of the degenerate cluster's dH/dlambda block.
This module locates frontier crossings by tracked-branch bisection and
reports both cusp slopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hft import RotatedSpectrum, Sweep, rotated_spectrum
from .spectral import ParametricModel, TrackingError, track
from .symmetry import ClassificationError, classify_vector

BISECTION_WIDTH = 1e-10
SIDE_FD_DELTA = 1e-4


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
    """The cluster straddling the occupation frontier, or None."""
    if n_p >= rot.dim:
        return None
    c = rot.cluster_of(n_p - 1)
    return c if (c.start < n_p < c.stop) else None


def _ground_slopes(
    model: ParametricModel, rot: RotatedSpectrum, fill: FillingSpec, delta: float
) -> tuple[float, float]:
    """(left, right) derivative of the ground energy at ``rot.lam``.

    Away from a frontier degeneracy both are the sum of the occupied
    rotated-state slopes.  When the frontier sits inside a degenerate
    cluster, the smallest and largest sums its block allows are the two
    one-sided slopes; the block eigenvalues carry no side information, so a
    one-sided difference of the ground energy over ``delta`` attributes them
    to the left and right.
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
    high = strict + float(np.sum(block[c.size - k :]))
    lam = rot.lam
    e0 = float(np.sum(rot.eigenvalues[:n_p]))
    fd_left = (e0 - ground_energy(model, lam - delta, fill)) / delta
    fd_right = (ground_energy(model, lam + delta, fill) - e0) / delta
    slope_left = low if abs(low - fd_left) <= abs(high - fd_left) else high
    slope_right = low if abs(low - fd_right) <= abs(high - fd_right) else high
    return slope_left, slope_right


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
    slopes = _ground_slopes(model, rot, fill, SIDE_FD_DELTA)
    return slopes[0] if _frontier_cluster(rot, fill.n_particles) is None else slopes


def cusp_report(
    model: ParametricModel,
    lam0: float,
    fill: FillingSpec,
    tol: Optional[float] = None,
    delta: float = SIDE_FD_DELTA,
) -> CuspReport:
    """Resolve the two one-sided ground-energy slopes at a frontier crossing."""
    fill.check(model.dim)
    rot = rotated_spectrum(model, lam0, tol)
    c = _frontier_cluster(rot, fill.n_particles)
    if c is None:
        raise ValueError(
            f"no frontier degeneracy at lambda={lam0!r} for "
            f"{fill.n_particles} particles; cusp slopes are undefined there"
        )
    slope_left, slope_right = _ground_slopes(model, rot, fill, delta)
    return CuspReport(
        lambda0=lam0,
        slope_left=slope_left,
        slope_right=slope_right,
        cluster_slopes=tuple(float(s) for s in rot.cluster_slopes[c.start : c.stop]),
        frontier_indices=tuple(c.indices),
    )


def _branch_eigenvalue(model: ParametricModel, lam: float, column: np.ndarray) -> float:
    """Eigenvalue of the branch whose eigenvector continues the d x 1 ``column``."""
    try:
        return float(track(column, model.spectrum(lam)).eigenvalues[0])
    except TrackingError as exc:
        raise TrackingError(
            f"cannot tell which branch continues the tracked frontier state at "
            f"lambda={lam!r}: the frontier state is degenerate there"
        ) from exc


def find_crossings(sweep: Sweep, fill: FillingSpec) -> list[float]:
    """Locate frontier level crossings in the span of the sweep's grid.

    The frontier gap is followed along tracked branches (sorted order would
    smooth symmetry-allowed crossings over instead of detecting them); each
    sign change is bisected down to an interval of width ``BISECTION_WIDTH``.
    Grid points already sitting on a frontier degeneracy are reported
    directly.
    """
    model = sweep.model
    fill.check(model.dim)
    grid = sweep.lambdas
    if len(grid) < 2:
        raise ValueError("need at least 2 grid points")
    if not (grid[0] < grid[-1] and np.all(np.diff(grid) >= 0.0)):
        raise ValueError("need an ascending grid")
    n_p = fill.n_particles
    if n_p >= model.dim:
        return []  # full filling has no frontier

    rots = list(sweep)

    crossings: list[float] = []
    exact_hits = set()
    for i, rot in enumerate(rots):
        if _frontier_cluster(rot, n_p) is not None:
            crossings.append(float(grid[i]))
            exact_hits.add(i)

    for i in range(len(grid) - 1):
        if i in exact_hits or (i + 1) in exact_hits:
            continue
        vectors = rots[i].eigenvectors
        vec_occ = vectors[:, n_p - 1 : n_p]
        vec_emp = vectors[:, n_p : n_p + 1]

        def gap(lam: float) -> float:
            return _branch_eigenvalue(model, lam, vec_emp) - _branch_eigenvalue(
                model, lam, vec_occ
            )

        hi_gap = gap(float(grid[i + 1]))
        if hi_gap >= 0.0:
            continue  # no order swap in this interval
        lo, hi = float(grid[i]), float(grid[i + 1])
        while hi - lo > BISECTION_WIDTH:
            mid = 0.5 * (lo + hi)
            if gap(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        crossings.append(0.5 * (lo + hi))

    return sorted(crossings)


def ground_state_curve(sweep: Sweep, fill: FillingSpec) -> GroundStateCurve:
    """Sample E0 and its slope on the sweep's grid.  At a grid point that
    lands exactly on a cusp the left slope is recorded."""
    model = sweep.model
    fill.check(model.dim)
    n_p = fill.n_particles
    lams = sweep.lambdas
    energies = np.empty_like(lams)
    slopes = np.empty_like(lams)
    tags = []
    for k, rot in enumerate(sweep):
        energies[k] = float(np.sum(rot.eigenvalues[:n_p]))
        slopes[k] = _ground_slopes(model, rot, fill, SIDE_FD_DELTA)[0]
        tag = ""
        if model.symmetry is not None and model.character_table is not None:
            try:
                tag = classify_vector(
                    rot.eigenvectors[:, n_p - 1], model.symmetry, model.character_table
                ).label
            except ClassificationError:
                tag = ""
        tags.append(tag)
    return GroundStateCurve(
        lambdas=lams, energies=energies, slopes=slopes, branch_tags=tuple(tags)
    )
