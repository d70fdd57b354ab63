"""Degeneracy clustering and derivative-consistent eigenbases.

The slope of an eigenvalue branch equals the expectation value of dH/dlambda
in the matching eigenstate.  Inside a degenerate subspace every basis is an
eigenbasis, but only the one that diagonalizes the subspace block of
dH/dlambda carries the branch slopes.  This module builds that basis (a
:class:`RotatedSpectrum` keeps it alone), reports per-state slope residuals
against an independent reference, quantifies the averaging error made by any
other degenerate combination, and verifies the off-diagonal companion
identity and two-sided continuity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .spectral import (
    DEFAULT_FD_STEP,
    ParametricModel,
    Spectrum,
    SymmetricMatrix,
    TrackingError,
    _check_step,
    eigh,
    fd_derivative,
    fd_derivative_onesided,
    track,
)

DEGENERACY_REL_TOL = 1e-8
UNIT_NORM_TOL = 1e-10
BOUNDARY_WARNING_FACTOR = 10.0


def default_degeneracy_tol(eigenvalues: np.ndarray) -> float:
    """Absolute-plus-relative tolerance, 1e-8 * (1 + spectral radius)."""
    radius = float(np.abs(eigenvalues).max()) if len(eigenvalues) else 0.0
    return DEGENERACY_REL_TOL * (1.0 + radius)


def _partition(w: np.ndarray, tol: float) -> tuple[list[range], np.ndarray]:
    """The clusters of ascending w, as ranges of state indices, and the gap
    at each boundary between neighbouring clusters, in order, from one diff."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    gaps = w[1:] - w[:-1]  # np.diff(w) bit for bit, without its wrapper
    # fmin ignores nan, so only a gap below zero is a descent; the initial
    # value covers w of length 0 or 1.
    if np.fmin.reduce(gaps, initial=0.0) < 0.0:
        raise ValueError("eigenvalues must be ascending")
    if len(w) == 0:
        return [], gaps
    breaks = (gaps > tol).nonzero()[0]
    bounds = [0, *(breaks + 1).tolist(), len(w)]
    return list(map(range, bounds[:-1], bounds[1:])), gaps[breaks]


def cluster_degeneracies(eigenvalues: np.ndarray, tol: float) -> list[range]:
    """Partition ascending eigenvalues into maximal runs with consecutive
    gaps <= tol, each the range of its state indices.  tol = 0 clusters
    exactly equal values only."""
    return _partition(np.asarray(eigenvalues, dtype=float), tol)[0]


def expectation(hp: SymmetricMatrix, v: np.ndarray) -> float:
    """<v|hp|v> for a unit vector v."""
    v = np.asarray(v, dtype=float)
    # ndarray.dot gives the bits of @ (both reach BLAS gemv and dot) at a
    # lower dispatch cost; tests/test_hft.py compares the two bit for bit.
    if abs(math.sqrt(v.dot(v)) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("expectation requires a unit vector")
    return float(v.dot(hp.entries).dot(v))


def mixed_slope(cluster_slopes: np.ndarray, coeffs: np.ndarray) -> float:
    """Diagonal derivative value produced by an arbitrary unit combination
    of degenerate states: sum_j coeffs_j^2 * slope_j.

    This is the weighted average a symmetry-mixed state reports instead of
    any of the true per-branch slopes.
    """
    slopes = np.asarray(cluster_slopes, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    if slopes.shape != c.shape:
        raise ValueError("slopes and coefficients must have equal length")
    if abs(float(np.sum(c * c)) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("coefficients must have unit norm")
    return float(np.sum(c * c * slopes))


@dataclass(frozen=True)
class RotatedSpectrum:
    """A spectrum with every degenerate cluster rotated to the basis in
    which the cluster block of dH/dlambda is diagonal.

    ``vectors`` holds the rotated eigenvectors of the ascending
    ``eigenvalues``, stored once and read-only: singleton columns are the
    eigensolver's, a cluster's columns diagonalize its dH/dlambda block.  The
    eigensolver's basis is not kept: ``model.spectrum(lam).eigenvectors``
    returns it again, and its transpose times ``vectors`` is the rotation.
    ``clusters`` were formed with the degeneracy tolerance ``tol``.
    ``cluster_slopes[k]`` is the slope carried by rotated state k (a plain
    expectation value for singletons, a block eigenvalue inside clusters,
    ascending within each cluster).
    """

    lam: float
    eigenvalues: np.ndarray
    vectors: np.ndarray
    tol: float
    clusters: tuple[range, ...]
    cluster_slopes: np.ndarray
    warnings: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.vectors

    def cluster_of(self, index: int) -> range:
        for c in self.clusters:
            if index in c:
                return c
        raise IndexError(f"state index {index} out of range")


def _rotate_clusters(
    spectrum: Spectrum, hp: SymmetricMatrix, tol: float
) -> tuple[list[range], np.ndarray, np.ndarray, np.ndarray]:
    """The clusters of the spectrum under tol, the gaps at the boundaries
    between them, the eigenvectors with each cluster of size g > 1 mixed by
    the eigenvector matrix of its g x g block B_ij = <psi_i|hp|psi_j>
    (read-only), and the block eigenvalues (ascending) as the slopes of the
    cluster states.  Slope entries of singleton states are left unset."""
    if spectrum.dim != hp.dim:
        raise ValueError("spectrum and derivative matrix dimensions differ")
    clusters, boundary_gaps = _partition(spectrum.eigenvalues, tol)
    vectors = spectrum.eigenvectors
    rotated = vectors.copy()
    slopes = np.empty(spectrum.dim)
    for c in clusters:
        if len(c) > 1:
            columns = vectors[:, c.start : c.stop]
            sub = eigh(SymmetricMatrix(columns.T @ hp.entries @ columns))
            rotated[:, c.start : c.stop] = columns @ sub.eigenvectors
            slopes[c.start : c.stop] = sub.eigenvalues
    rotated.flags.writeable = False
    return clusters, boundary_gaps, rotated, slopes


def hft_basis(spectrum: Spectrum, hp: SymmetricMatrix, tol: Optional[float] = None) -> Spectrum:
    """The spectrum with each degenerate cluster rotated so the cluster block
    of hp is diagonal: the vectors of :func:`hft_consistent_basis`, without
    its slopes and warnings."""
    if tol is None:
        tol = default_degeneracy_tol(spectrum.eigenvalues)
    rotated = _rotate_clusters(spectrum, hp, tol)[2]
    return Spectrum(lam=spectrum.lam, eigenvalues=spectrum.eigenvalues, eigenvectors=rotated)


def hft_consistent_basis(
    spectrum: Spectrum, hp: SymmetricMatrix, tol: Optional[float] = None
) -> RotatedSpectrum:
    """Rotate each degenerate cluster so the cluster block of hp is diagonal.

    For a cluster of size g > 1 the g x g block B_ij = <psi_i|hp|psi_j> is
    diagonalized and the cluster columns are mixed by its eigenvector
    matrix; the block eigenvalues (ascending) become the per-state slopes.
    Singleton states keep their plain expectation value.  A warning is
    attached when a gap at a cluster boundary is within a factor
    ``BOUNDARY_WARNING_FACTOR`` of the tolerance, where the split between
    "degenerate" and "separate" is numerically ill-conditioned.
    """
    w = spectrum.eigenvalues
    if tol is None:
        tol = default_degeneracy_tol(w)
    clusters, boundary_gaps, rotated, slopes = _rotate_clusters(spectrum, hp, tol)
    vectors = spectrum.eigenvectors
    for c in clusters:
        if len(c) == 1:
            slopes[c.start] = expectation(hp, vectors[:, c.start])

    # Boundary k sits between clusters k and k + 1; its gap is reported
    # once for each of the two, left cluster first.
    warnings = []
    for k in (boundary_gaps <= BOUNDARY_WARNING_FACTOR * tol).nonzero()[0]:
        g = boundary_gaps[k]
        for c in clusters[k : k + 2]:
            warnings.append(
                f"cluster boundary at states {c.start}..{c.stop - 1} has gap {g:.3e}, "
                f"within {BOUNDARY_WARNING_FACTOR:g}x the degeneracy tolerance {tol:.3e}"
            )
    return RotatedSpectrum(
        lam=spectrum.lam,
        eigenvalues=w,
        vectors=rotated,
        tol=tol,
        clusters=tuple(clusters),
        cluster_slopes=slopes,
        warnings=tuple(dict.fromkeys(warnings)),
    )


def rotated_spectrum(
    model: ParametricModel, lam: float, tol: Optional[float] = None
) -> RotatedSpectrum:
    """Diagonalize the model at lam and apply the cluster rotation."""
    return hft_consistent_basis(model.spectrum(lam), model.derivative(lam), tol)


def sweep(
    model: ParametricModel, lambdas: np.ndarray, tol: Optional[float] = None
) -> Iterator[RotatedSpectrum]:
    """The rotated spectrum of every point of a lambda grid, in grid order.

    Each point is computed by :func:`rotated_spectrum` when it is read, and
    none is kept here: a reader that needs a point twice keeps it itself.
    """
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1:
        raise ValueError("the lambda grid must be one-dimensional")
    return (rotated_spectrum(model, lam, tol) for lam in lams.tolist())


@dataclass(frozen=True)
class StateSlopeRecord:
    index: int
    lhs: float
    reference: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.reference)


@dataclass(frozen=True)
class HftReport:
    """Per-state slope identity check at one lambda.

    ``lhs`` is the expectation of dH/dlambda in the rotated basis,
    ``reference`` an independently computed slope (analytic oracle if the
    model has one, otherwise finite differences of tracked eigenvalue
    branches).  Inside a cluster the references are the one-sided branch
    slopes, compared as a sorted multiset.
    """

    lam: float
    records: tuple[StateSlopeRecord, ...]
    worst_residual: float
    warnings: tuple[str, ...] = ()


def _fit_step(model: ParametricModel, lam: float, h: float, reach: float, sides) -> float:
    """h, or a smaller step when a stencil point lam + s * reach * h (s in
    ``sides``) would leave the model's open domain."""
    if all(model.contains(lam + s * reach * h) for s in sides):
        return h
    lo, hi = model.lambda_domain
    room = min(hi - lam if s > 0 else lam - lo for s in sides)
    return room / (reach + 1.0)


def _oracle_references(
    model: ParametricModel, rot: RotatedSpectrum, lam: float, h: float
) -> np.ndarray:
    oracle = model.analytic_eigenvalues_at
    assert oracle is not None
    levels: dict[float, np.ndarray] = {}

    def level(x: float) -> np.ndarray:
        # Every stencil reads all d levels at a handful of points; the oracle
        # is pure, so each point is evaluated once.
        if x not in levels:
            levels[x] = oracle(x)
        return levels[x]

    w = rot.eigenvalues
    d = rot.dim
    refs = np.empty(d)
    singles = np.array([c.start for c in rot.clusters if len(c) == 1], dtype=int)
    # Shrink the step when a neighbor is close so the sorted-index branch
    # stays pure across the difference stencil.
    gaps = w[1:] - w[:-1]
    gap = np.minimum(np.append(math.inf, gaps), np.append(gaps, math.inf))[singles]
    raw_steps = np.maximum(np.minimum(h, gap / 4.0), 1e-8)
    steps = np.empty(len(singles))
    for raw in np.unique(raw_steps):
        steps[raw_steps == raw] = _fit_step(model, lam, float(raw), 1.0, (+1, -1))
    # The Richardson stencil is elementwise, so all states that share a step
    # are differenced as one array.
    for step in np.unique(steps):
        idx = singles[steps == step]
        refs[idx] = fd_derivative(lambda x: level(x)[idx], lam, float(step))
    # Every cluster state shares one side and one step, so all of them are
    # differenced as one array and then sorted within each cluster.
    in_cluster = np.ones(d, dtype=bool)
    in_cluster[singles] = False
    if in_cluster.any():
        side = +1 if model.contains(lam + 2.0 * h) else -1
        step = _fit_step(model, lam, h, 2.0, (side,))
        idx = in_cluster.nonzero()[0]
        refs[idx] = fd_derivative_onesided(lambda x: level(x)[idx], lam, step, side)
        for c in rot.clusters:
            refs[c.start : c.stop].sort()
    return refs


def _track_stencil(model: ParametricModel, basis: np.ndarray, lam: float, x: float) -> Spectrum:
    """The spectrum at the stencil point x, its columns continuing the
    rotated ``basis`` at the centre lam."""
    try:
        return track(basis, model.spectrum(x))
    except TrackingError as exc:
        raise TrackingError(
            f"cannot follow the rotated basis at lambda={lam!r} to the stencil "
            f"point lambda={x!r}: a rotated state overlaps two states there "
            f"almost equally"
        ) from exc


def _tracked_references(
    model: ParametricModel, rot: RotatedSpectrum, lam: float, h: float
) -> np.ndarray:
    """Richardson central difference of eigenvalue branches, each branch
    identified by overlap with the rotated basis at lam."""
    vectors = rot.eigenvectors
    step = _fit_step(model, lam, h, 1.0, (+1, -1))
    return fd_derivative(lambda x: _track_stencil(model, vectors, lam, x).eigenvalues, lam, step)


def hft_report(
    model: ParametricModel,
    lam: float,
    tol: Optional[float] = None,
    h: float = DEFAULT_FD_STEP,
) -> HftReport:
    """Check the diagonal slope identity for every state of the model at lam.

    Difference stencils that would leave the model's open domain are
    shrunk to fit inside it.
    """
    _check_step(h)
    rot = rotated_spectrum(model, lam, tol)
    if model.analytic_eigenvalues_at is not None:
        refs = _oracle_references(model, rot, lam, h)
    else:
        refs = _tracked_references(model, rot, lam, h)
    records = tuple(
        StateSlopeRecord(index=k, lhs=float(rot.cluster_slopes[k]), reference=float(refs[k]))
        for k in range(rot.dim)
    )
    worst = max(r.residual for r in records)
    return HftReport(lam=lam, records=records, worst_residual=worst, warnings=rot.warnings)


def offdiag_identity_residual(
    model: ParametricModel, lam: float, m: int, n: int, h: float = DEFAULT_FD_STEP
) -> float:
    """Residual of the off-diagonal derivative identity for the state pair (m, n).

    For non-degenerate pairs this is
    ``|<psi_m|H'|psi_n> - (E_n - E_m) <psi_m|d psi_n/d lambda>|`` with the
    eigenvector derivative taken by tracked central differences.  For a
    degenerate pair the identity reduces to the matrix element itself, which
    must vanish in the rotated basis, so ``|<psi_m|H'|psi_n>|`` is returned.
    """
    if m == n:
        raise ValueError("state indices must differ")
    rot = rotated_spectrum(model, lam)
    d = rot.dim
    if not (0 <= m < d and 0 <= n < d):
        raise ValueError(f"state indices must lie in 0..{d - 1}")
    hp = model.derivative(lam)
    vectors = rot.eigenvectors
    element = float(vectors[:, m] @ hp.entries @ vectors[:, n])
    if rot.cluster_of(m) is rot.cluster_of(n):
        return abs(element)
    plus, minus = (_track_stencil(model, vectors, lam, x) for x in (lam + h, lam - h))
    dpsi_n = (plus.eigenvectors[:, n] - minus.eigenvectors[:, n]) / (2.0 * h)
    gap = float(rot.eigenvalues[n] - rot.eigenvalues[m])
    return abs(element - gap * float(vectors[:, m] @ dpsi_n))


def continuity_overlap(
    model: ParametricModel, lam0: float, delta: float, tol: Optional[float] = None
) -> float:
    """Worst-case overlap between the rotated basis at lam0 and the spectra
    at lam0 +- delta, after best matching.

    Values near 1 certify that the rotated basis is the two-sided limit of
    the eigenvector branches, i.e. the basis singled out by continuity.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    vectors = rotated_spectrum(model, lam0, tol).eigenvectors
    worst = math.inf
    for x in (lam0 - delta, lam0 + delta):
        tracked = _track_stencil(model, vectors, lam0, x).eigenvectors
        worst = min(worst, float(np.abs(np.sum(vectors * tracked, axis=0)).min()))
    return worst
