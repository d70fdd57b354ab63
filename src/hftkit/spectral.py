"""Dense symmetric eigendecomposition, finite-difference derivative oracles,
and eigenpair tracking along a parameter grid.

Everything here is deterministic: for a fixed input matrix LAPACK returns
the same eigenpairs, eigenvalues come out ascending, and each eigenvector's
sign is fixed so that its largest-magnitude component is positive (ties
broken by lowest index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .symmetry import CharacterTable, GroupRep

DEFAULT_FD_STEP = 1e-4
TRACKING_AMBIGUITY_TOL = 1e-6

_CONSTRUCTION_ASYM_TOL = 1e-12


class TrackingError(RuntimeError):
    """Eigenpair matching between two spectra is ambiguous."""


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")


def _freeze(m: "SymmetricMatrix", entries: np.ndarray) -> None:
    entries.flags.writeable = False
    object.__setattr__(m, "entries", entries)


@dataclass(frozen=True)
class SymmetricMatrix:
    """A finite, exactly symmetric d x d real matrix.

    Inputs symmetric to within a small relative tolerance are symmetrized,
    anything worse is rejected.  Entries that already equal their mirror
    image are kept bit for bit.  The stored array is read-only.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        _require_finite(a)
        scale = max(1.0, float(np.abs(a).max()))
        asym = float(np.abs(a - a.T).max())
        if asym > _CONSTRUCTION_ASYM_TOL * scale:
            raise ValueError(f"matrix is not symmetric: max|A - A^T| = {asym:g}")
        if asym > 0.0:
            # Halve before adding: (a + a.T) / 2 overflows near the largest double.
            a = np.where(a == a.T, a, a / 2.0 + a.T / 2.0)
        _freeze(self, a)

    @classmethod
    def affine(cls, a: "SymmetricMatrix", lam: float, b: "SymmetricMatrix") -> "SymmetricMatrix":
        """A + lam * B, bitwise equal to ``SymmetricMatrix(a.entries + lam * b.entries)``.

        A and B were validated when they were built and the sum of two
        exactly symmetric matrices is exactly symmetric, so only finiteness
        is checked here.
        """
        if a.dim != b.dim:
            raise ValueError(f"cannot add a {a.dim} x {a.dim} and a {b.dim} x {b.dim} matrix")
        # An overflow is reported by the finiteness check, not by numpy.
        with np.errstate(over="ignore", invalid="ignore"):
            m = a.entries + lam * b.entries
        _require_finite(m)
        out = object.__new__(cls)
        _freeze(out, m)
        return out

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def norm_inf(self) -> float:
        return float(np.abs(self.entries).max())


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with a paired orthonormal eigenvector set at one lambda.

    Column k of ``eigenvectors`` belongs to ``eigenvalues[k]``.  Spectra
    produced by :func:`eigh` are ascending; spectra returned by
    :func:`track` keep branch order instead, so there the eigenvalues may
    be out of sorted order on purpose.
    """

    lam: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude component is positive.

    Ties go to the lowest index.  The result is C-contiguous whatever the
    input layout: products such as v @ hp @ v round differently otherwise.
    """
    lead = np.abs(vectors).argmax(axis=0)
    signs = np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return np.multiply(vectors, signs, order="C")


def eigh(m: SymmetricMatrix) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by LAPACK.

    The result follows one convention: eigenvalues ascending (as LAPACK
    returns them) and the sign of every eigenvector fixed by its
    largest-magnitude component.

    The returned Spectrum carries ``lam = nan``; use
    :meth:`ParametricModel.spectrum` to bind a parameter value.
    """
    w, v = np.linalg.eigh(m.entries)
    return Spectrum(lam=math.nan, eigenvalues=w, eigenvectors=_fix_signs(v))


def _check_step(h: float) -> None:
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step h must be positive and finite, got {h!r}")


def fd_derivative(f: Callable[[float], Any], x0: float, h: float = DEFAULT_FD_STEP) -> Any:
    """Richardson-extrapolated central difference, error O(h^4).

    Evaluates f at x0 + h, x0 - h, x0 + h/2 and x0 - h/2, in that order.  f
    may return a float or an array of equal shape at every point; arrays are
    differentiated elementwise.  Non-finite function values are rejected
    rather than propagated.
    """
    _check_step(h)
    vals = [f(x0 + h), f(x0 - h), f(x0 + h / 2.0), f(x0 - h / 2.0)]
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"non-finite function value near x0={x0!r}")
    d_h = (vals[0] - vals[1]) / (2.0 * h)
    d_h2 = (vals[2] - vals[3]) / h
    return (4.0 * d_h2 - d_h) / 3.0


def fd_derivative_onesided(
    f: Callable[[float], Any], x0: float, h: float = DEFAULT_FD_STEP, side: int = +1
) -> Any:
    """One-sided derivative at x0 using points on a single side only.

    Three-point formula with one Richardson level, error O(h^3).  ``side``
    is +1 (use x0..x0+2h) or -1 (use x0-2h..x0).  Evaluates f at x0 and at
    x0 + side*h/2, side*h, 2*side*h, in that order; f may return a float or
    an array, and non-finite values are rejected, as in :func:`fd_derivative`.
    """
    _check_step(h)
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    s = float(side)
    vals = [f(x0), f(x0 + s * (h / 2.0)), f(x0 + s * h), f(x0 + 2.0 * s * h)]
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"non-finite function value near x0={x0!r}")
    # The three-point formula at steps h/2 (its 2 * step is h) and h.
    d_h2 = s * (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / h
    d_h = s * (-3.0 * vals[0] + 4.0 * vals[2] - vals[3]) / (2.0 * h)
    return (4.0 * d_h2 - d_h) / 3.0


@dataclass(frozen=True)
class ParametricModel:
    """An affine family of symmetric operators, H(lambda) = A + lambda * B.

    ``b`` is dH/dlambda, the same matrix at every lambda.
    ``analytic_eigenvalues_at`` is an optional oracle returning the exact
    eigenvalues in ascending order, used by report generators as an
    independent reference.  ``lambda_domain`` is an open interval.
    """

    a: SymmetricMatrix
    b: SymmetricMatrix
    analytic_eigenvalues_at: Optional[Callable[[float], np.ndarray]] = None
    symmetry: Optional["GroupRep"] = None
    character_table: Optional["CharacterTable"] = None
    lambda_domain: tuple[float, float] = (-math.inf, math.inf)
    name: str = ""

    def __post_init__(self) -> None:
        if self.a.dim != self.b.dim:
            raise ValueError(
                f"A is {self.a.dim} x {self.a.dim} but B is {self.b.dim} x {self.b.dim}"
            )

    @property
    def dim(self) -> int:
        return self.a.dim

    def contains(self, lam: float) -> bool:
        lo, hi = self.lambda_domain
        return lo < lam < hi

    def _require_domain(self, lam: float) -> None:
        if not self.contains(lam):
            raise ValueError(
                f"lambda={lam!r} outside the open domain {self.lambda_domain} "
                f"of model {self.name!r}"
            )

    def hamiltonian(self, lam: float) -> SymmetricMatrix:
        self._require_domain(lam)
        return SymmetricMatrix.affine(self.a, lam, self.b)

    def derivative(self, lam: float) -> SymmetricMatrix:
        """dH/dlambda at lam, which is B."""
        self._require_domain(lam)
        return self.b

    def spectrum(self, lam: float) -> Spectrum:
        s = eigh(self.hamiltonian(lam))
        return Spectrum(lam=lam, eigenvalues=s.eigenvalues, eigenvectors=s.eigenvectors)


def match_columns(
    reference: np.ndarray,
    candidate: np.ndarray,
    ambiguity_tol: float = TRACKING_AMBIGUITY_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy best-overlap assignment of candidate columns to reference columns.

    ``reference`` holds k <= d columns of the same length as the d columns
    of ``candidate``.  Returns ``(perm, signs)``, each of length k, such that
    ``candidate[:, perm] * signs`` is the selection of ``candidate`` aligned
    with ``reference`` (each matched overlap positive).  Raises
    :class:`TrackingError` when, for some reference column, the two best
    remaining |overlaps| differ by less than ``ambiguity_tol``.
    """
    rows, k = reference.shape
    if rows != candidate.shape[0] or k > candidate.shape[1]:
        raise ValueError(
            f"cannot match a {rows} x {k} reference against candidates of shape {candidate.shape}"
        )
    overlaps = reference.T @ candidate
    mags = np.abs(overlaps)
    if k > 1:
        # When the rows' best columns are distinct and each beats its row's
        # runner-up by more than the tolerance, the greedy loop below picks
        # exactly those columns and its ambiguity check cannot fire.
        cols = mags.argmax(axis=1)
        if len(set(cols.tolist())) == k:
            top_two = np.partition(mags, -2, axis=1)
            if (top_two[:, -1] - top_two[:, -2] > ambiguity_tol).all():
                return cols, np.where(overlaps[np.arange(k), cols] >= 0.0, 1.0, -1.0)
    # Greedy, one reference column at a time.  A taken candidate column is
    # masked with -1, below every real magnitude, so argmax (first maximum,
    # i.e. the lowest index among ties) only sees the unassigned columns.
    perm = np.empty(k, dtype=int)
    signs = np.empty(k)
    for j in range(k):
        row = mags[j]
        best = int(row.argmax())
        top = float(row[best])
        if j + 1 < candidate.shape[1]:
            row[best] = -1.0
            second = float(row.max())
            if top - second <= ambiguity_tol:
                raise TrackingError(
                    f"ambiguous match for state {j}: best two overlaps "
                    f"{top:.6g} and {second:.6g} are within "
                    f"{ambiguity_tol:g}; refine the lambda step"
                )
        perm[j] = best
        signs[j] = 1.0 if overlaps[j, best] >= 0.0 else -1.0
        mags[j + 1 :, best] = -1.0
    return perm, signs


def track(prev, next: Spectrum) -> Spectrum:
    """Select and reorder ``next`` so each column continues a column of ``prev``.

    ``prev`` is anything with an ``eigenvectors`` attribute (a
    :class:`Spectrum` or a rotated spectrum) or a d x k array of reference
    columns, k <= d.  Columns are chosen to maximize |<prev_j|next_sigma(j)>|
    greedily and signs flipped so every matched overlap is positive; the
    eigenvalues are permuted consistently, so the result has k branch-ordered
    columns, not sorted ones.
    """
    reference = getattr(prev, "eigenvectors", prev)
    perm, signs = match_columns(reference, next.eigenvectors)
    return Spectrum(
        lam=next.lam,
        eigenvalues=next.eigenvalues[perm].copy(),
        eigenvectors=next.eigenvectors[:, perm] * signs,
    )
