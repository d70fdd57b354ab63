"""Finite abelian point-group machinery.

A :class:`GroupRep` is an ordered set of orthogonal matrices realizing a
finite group on the model's vector space; a :class:`CharacterTable` holds
the +-1 characters of its one-dimensional irreps.  Eigenvectors of an
invariant Hamiltonian are classified by measuring <v|U(g)|v> against the
table rows, and symmetry-adapted components are extracted with the usual
projection operator P = (1/|G|) sum_g chi(g) U(g).

Only abelian groups (all irreps one-dimensional, real characters) are in
scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .spectral import Spectrum, SymmetricMatrix

ORTHOGONALITY_TOL = 1e-12
CLOSURE_TOL = 1e-10
IDENTITY_TOL = 1e-12
CLASSIFY_TOL = 1e-6
_UNIT_TOL = 1e-8


class ClassificationError(ValueError):
    """A vector matches no irrep row: it mixes different symmetries."""


@dataclass(frozen=True)
class GroupRep:
    """Ordered list of (label, orthogonal matrix) realizing a finite group.

    The first element is expected to be the identity; use
    :func:`verify_group` for the full orthogonality/closure check.
    """

    name: str
    labels: tuple[str, ...]
    matrices: np.ndarray  # shape (order, dim, dim)

    def __post_init__(self) -> None:
        mats = np.array(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("matrices must be a stack of square arrays")
        if mats.shape[0] != len(self.labels) or mats.shape[0] < 1:
            raise ValueError("need one label per matrix, at least one element")
        mats.flags.writeable = False
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def order(self) -> int:
        return self.matrices.shape[0]

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def elements(self) -> Iterator[tuple[str, np.ndarray]]:
        return zip(self.labels, self.matrices)


@dataclass(frozen=True)
class GroupVerification:
    passed: bool
    identity_ok: bool
    orthogonality_ok: bool
    closure_ok: bool
    max_orthogonality_residual: float
    max_closure_residual: float
    multiplication_table: np.ndarray  # table[i, j] = index of U_i @ U_j, -1 if unmatched
    failures: tuple[str, ...]


def verify_group(rep: GroupRep) -> GroupVerification:
    """Check identity, orthogonality of every element, and closure under
    multiplication.  Failures are reported, not raised."""
    failures: list[str] = []
    dim = rep.dim
    eye = np.eye(dim)

    identity_ok = bool(np.abs(rep.matrices[0] - eye).max() <= IDENTITY_TOL)
    if not identity_ok:
        failures.append(f"first element {rep.labels[0]!r} is not the identity")

    worst_orth = 0.0
    for label, u in rep.elements():
        r = float(np.abs(u.T @ u - eye).max())
        worst_orth = max(worst_orth, r)
        if r > ORTHOGONALITY_TOL:
            failures.append(f"element {label!r} is not orthogonal (residual {r:.3e})")
    orthogonality_ok = worst_orth <= ORTHOGONALITY_TOL

    table = np.full((rep.order, rep.order), -1, dtype=int)
    worst_closure = 0.0
    for i in range(rep.order):
        for j in range(rep.order):
            prod = rep.matrices[i] @ rep.matrices[j]
            residuals = np.abs(rep.matrices - prod).max(axis=(1, 2))
            k = int(np.argmin(residuals))
            if residuals[k] <= CLOSURE_TOL:
                table[i, j] = k
                worst_closure = max(worst_closure, float(residuals[k]))
            else:
                failures.append(
                    f"product {rep.labels[i]!r} * {rep.labels[j]!r} matches no element "
                    f"(best residual {residuals[k]:.3e})"
                )
    closure_ok = bool(np.all(table >= 0))

    return GroupVerification(
        passed=identity_ok and orthogonality_ok and closure_ok,
        identity_ok=identity_ok,
        orthogonality_ok=orthogonality_ok,
        closure_ok=closure_ok,
        max_orthogonality_residual=worst_orth,
        max_closure_residual=worst_closure,
        multiplication_table=table,
        failures=tuple(failures),
    )


def commutant_residual(rep: GroupRep, m: SymmetricMatrix) -> float:
    """max over elements of |U^T m U - m|_max; zero iff m commutes with the rep."""
    if rep.dim != m.dim:
        raise ValueError("representation and matrix dimensions differ")
    worst = 0.0
    for _, u in rep.elements():
        worst = max(worst, float(np.abs(u.T @ m.entries @ u - m.entries).max()))
    return worst


@dataclass(frozen=True)
class CharacterTable:
    """Per-irrep characters of an abelian group, one row per irrep.

    Rows must consist of +-1 entries and be orthogonal under the
    group-size-normalized inner product.
    """

    group_name: str
    element_order: tuple[str, ...]
    rows: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "element_order", tuple(self.element_order))
        rows = {label: tuple(float(c) for c in chars) for label, chars in self.rows.items()}
        order = len(self.element_order)
        for label, chars in rows.items():
            if len(chars) != order:
                raise ValueError(f"irrep {label!r} has {len(chars)} characters, expected {order}")
            if any(c not in (-1.0, 1.0) for c in chars):
                raise ValueError(f"irrep {label!r} has non +-1 characters (abelian scope only)")
        labels = list(rows)
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                inner = sum(x * y for x, y in zip(rows[a], rows[b])) / order
                if abs(inner) > 1e-12:
                    raise ValueError(f"character rows {a!r} and {b!r} are not orthogonal")
        object.__setattr__(self, "rows", rows)

    @property
    def irrep_labels(self) -> tuple[str, ...]:
        return tuple(self.rows)


@dataclass(frozen=True)
class IrrepLabel:
    label: str
    characters: tuple[float, ...]


def _measured_characters(columns: np.ndarray, rep: GroupRep) -> np.ndarray:
    """<v|U(g)|v> for every unit column v of a d x k array, as an |G| x k
    array, with one matrix product per group element."""
    if np.any(np.abs(np.linalg.norm(columns, axis=0) - 1.0) > _UNIT_TOL):
        raise ValueError("classification requires a unit vector")
    return np.array([np.sum(columns * (u @ columns), axis=0) for u in rep.matrices])


def _check_compatible(rep: GroupRep, table: CharacterTable) -> None:
    if tuple(rep.labels) != tuple(table.element_order):
        raise ValueError(
            f"element order mismatch: rep has {rep.labels}, table expects {table.element_order}"
        )


def _labels(
    columns: np.ndarray, rep: GroupRep, table: CharacterTable, tol: float = CLASSIFY_TOL
) -> tuple[np.ndarray, list[Optional[str]]]:
    """Measured characters of every column and the irrep each matches
    within tol, None where a column matches no row."""
    _check_compatible(rep, table)
    chi = _measured_characters(columns, rep)
    labels: list[Optional[str]] = [None] * chi.shape[1]
    for label, row in table.rows.items():
        fits = np.abs(chi - np.asarray(row)[:, None]).max(axis=0) <= tol
        for k in np.flatnonzero(fits):
            if labels[k] is None:
                labels[k] = label
    return chi, labels


def classify_vector(
    v: np.ndarray, rep: GroupRep, table: CharacterTable, tol: float = CLASSIFY_TOL
) -> IrrepLabel:
    """Assign an irrep to one unit vector by matching <v|U(g)|v> against the
    table rows.  Raises :class:`ClassificationError` when nothing matches,
    which is the signature of a symmetry-mixed vector."""
    return classify(np.asarray(v, dtype=float)[:, None], rep, table, tol)[0]


VectorSet = Union[Spectrum, np.ndarray, Sequence[np.ndarray]]


def _columns_of(states: VectorSet) -> np.ndarray:
    if isinstance(states, Spectrum):
        return states.eigenvectors
    if hasattr(states, "eigenvectors"):  # RotatedSpectrum quacks the same way
        return states.eigenvectors
    arr = np.asarray(states, dtype=float)
    if arr.ndim == 1:
        return arr[:, None]
    return arr


def classify(
    states: VectorSet, rep: GroupRep, table: CharacterTable, tol: float = CLASSIFY_TOL
) -> list[IrrepLabel]:
    """Classify each eigenvector column.  For degenerate clusters the
    supplied basis must already be the derivative-consistent (or
    irrep-projected) one, otherwise mixed states will fail to classify."""
    chi, labels = _labels(_columns_of(states), rep, table, tol)
    for k, label in enumerate(labels):
        if label is None:
            pretty = ", ".join(f"{c:+.4f}" for c in chi[:, k])
            raise ClassificationError(
                f"characters ({pretty}) match no {table.group_name} irrep within {tol:g}; "
                f"the vector mixes different symmetries"
            )
    return [IrrepLabel(label=label, characters=table.rows[label]) for label in labels]


def project(
    v: np.ndarray,
    irrep: Union[IrrepLabel, str],
    rep: GroupRep,
    table: CharacterTable,
) -> np.ndarray:
    """Apply the projector onto one irrep: P v with
    P = (1/|G|) sum_g chi(g) U(g).  The result is not normalized and is the
    zero vector when v has no component in that irrep."""
    _check_compatible(rep, table)
    label = irrep.label if isinstance(irrep, IrrepLabel) else irrep
    if label not in table.rows:
        raise ValueError(f"unknown irrep {label!r} for group {table.group_name!r}")
    chars = table.rows[label]
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    for chi, u in zip(chars, rep.matrices):
        out += chi * (u @ v)
    return out / rep.order


def c2v_character_table() -> CharacterTable:
    """The order-4 abelian group {E, C2, sigma_v1, sigma_v2}.

    Which reflection is B1-positive depends on the listing order of the two
    reflections; the convention here is calibrated so the six-site model's
    states come out (B2, A1, A2, B1, B2, A1) in ascending energy order.
    """
    return CharacterTable(
        group_name="C2v",
        element_order=("E", "C2", "sigma_v1", "sigma_v2"),
        rows={
            "A1": (1, 1, 1, 1),
            "A2": (1, 1, -1, -1),
            "B1": (1, -1, 1, -1),
            "B2": (1, -1, -1, 1),
        },
    )


def load_group_rep(path) -> GroupRep:
    """Read a representation from a plain-text file.

    Format: a ``group NAME`` line, then one block per element starting with
    ``element LABEL`` followed by the matrix rows as whitespace-separated
    reals.  Blank lines and ``#`` comments are ignored.
    """
    name = ""
    labels: list[str] = []
    blocks: list[list[list[float]]] = []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if fields[0] == "group":
                name = " ".join(fields[1:])
            elif fields[0] == "element":
                if len(fields) != 2:
                    raise ValueError(f"malformed element line: {line!r}")
                labels.append(fields[1])
                blocks.append([])
            else:
                if not blocks:
                    raise ValueError("matrix row before any 'element' line")
                blocks[-1].append([float(x) for x in fields])
    if not blocks:
        raise ValueError(f"no elements found in {path}")
    mats = [np.array(b, dtype=float) for b in blocks]
    dim = mats[0].shape[0] if mats[0].ndim == 2 else 0
    for label, m in zip(labels, mats):
        if m.shape != (dim, dim):
            raise ValueError(f"element {label!r} has shape {m.shape}, expected ({dim}, {dim})")
    return GroupRep(name=name, labels=tuple(labels), matrices=np.stack(mats))


def load_character_table(path) -> CharacterTable:
    """Read a character table: a ``group NAME`` line, an ``elements ...``
    line fixing the column order, then one ``LABEL chi chi ...`` row per
    irrep."""
    name = ""
    element_order: tuple[str, ...] = ()
    rows: dict[str, tuple[float, ...]] = {}
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if fields[0] == "group":
                name = " ".join(fields[1:])
            elif fields[0] == "elements":
                element_order = tuple(fields[1:])
            else:
                rows[fields[0]] = tuple(float(x) for x in fields[1:])
    if not element_order or not rows:
        raise ValueError(f"no usable table found in {path}")
    return CharacterTable(group_name=name, element_order=element_order, rows=rows)
