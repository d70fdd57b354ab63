"""Finite abelian point-group machinery.

A :class:`GroupRep` is an ordered set of orthogonal matrices realizing a
finite group on the model's vector space; a :class:`CharacterTable` holds
the +-1 characters of its one-dimensional irreps.  Eigenvectors of an
invariant Hamiltonian are classified by measuring <v|U(g)|v> against the
table rows, and symmetry-adapted components are extracted with the usual
projection operator P = (1/|G|) sum_g chi(g) U(g).

An element with at most one nonzero per row, such as a signed permutation,
is stored as its row action (the column and value of that entry in each
row) and applied by index; only other elements are stored as d x d
matrices, and the dense stack is built only when ``GroupRep.matrices`` is
read.

Only abelian groups (all irreps one-dimensional, real characters) are in
scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .spectral import Spectrum, SymmetricMatrix

ORTHOGONALITY_TOL = 1e-12
CLOSURE_TOL = 1e-10
IDENTITY_TOL = 1e-12
CLASSIFY_TOL = 1e-6
_UNIT_TOL = 1e-8


class ClassificationError(ValueError):
    """A vector matches no irrep row: it mixes different symmetries."""


class RowAction(NamedTuple):
    """An element with at most one nonzero per row, such as a signed
    permutation: the column and value of that entry in each row (column 0
    for a zero row), and the value, +0.0 or -0.0, of the row's other
    entries."""

    cols: np.ndarray
    vals: np.ndarray
    zeros: np.ndarray

    def dense(self) -> np.ndarray:
        d = len(self.cols)
        u = np.repeat(self.zeros[:, None], d, axis=1)
        u[np.arange(d), self.cols] = self.vals
        return u


Element = Union[RowAction, np.ndarray]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _element(u: np.ndarray) -> Element:
    """u as a :class:`RowAction` when that form rebuilds it bit for bit,
    else a read-only copy of u."""
    nonzero = u != 0.0
    if np.count_nonzero(nonzero, axis=1).max(initial=0) <= 1:
        rows = np.arange(u.shape[0])
        cols = nonzero.argmax(axis=1)
        zeros = np.copysign(0.0, u[rows, (cols + 1) % u.shape[0]])
        action = RowAction(*map(_read_only, (cols, u[rows, cols], zeros)))
        if action.dense().tobytes() == u.tobytes():
            return action
    return _read_only(u.copy())


def _dense(element: Element) -> np.ndarray:
    return element if isinstance(element, np.ndarray) else element.dense()


@dataclass(frozen=True, eq=False, init=False)
class GroupRep:
    """Ordered list of (label, orthogonal matrix) realizing a finite group.

    Each element with at most one nonzero per row, such as a signed
    permutation, is kept as its :class:`RowAction` only, so a rep of
    signed permutations holds O(order * d) numbers, not the (order, d, d)
    stack; any other element is kept as its d x d matrix.
    ``GroupRep(name, labels, matrices)`` takes a stack and
    :meth:`from_row_actions` takes the row actions.  ``matrices`` builds
    the stack anew on every read.

    The first element is expected to be the identity; use
    :func:`verify_group` for the full orthogonality/closure check.
    """

    name: str
    labels: tuple[str, ...]
    dim: int
    _elements: tuple[Element, ...] = field(repr=False)

    def __init__(self, name: str, labels: Sequence[str], matrices: np.ndarray) -> None:
        mats = np.asarray(matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("matrices must be a stack of square arrays")
        self._set(name, labels, mats.shape[1], [_element(u) for u in mats])

    @classmethod
    def from_row_actions(
        cls,
        name: str,
        labels: Sequence[str],
        cols: np.ndarray,
        vals: np.ndarray,
        zeros: Optional[np.ndarray] = None,
    ) -> "GroupRep":
        """The rep whose element k has, in row i, the value ``vals[k, i]``
        in column ``cols[k, i]`` and ``zeros[k, i]`` (+0.0 or -0.0, +0.0 by
        default) everywhere else."""
        cols = _read_only(np.array(cols, dtype=np.intp))
        vals = _read_only(np.array(vals, dtype=float))
        zeros = _read_only(np.zeros(vals.shape) if zeros is None else np.array(zeros, dtype=float))
        if cols.ndim != 2 or vals.shape != cols.shape or zeros.shape != cols.shape:
            raise ValueError("cols, vals and zeros must be (order, dim) arrays of one shape")
        dim = cols.shape[1]
        if cols.size and (cols.min() < 0 or cols.max() >= dim):
            raise ValueError(f"columns must lie in [0, {dim})")
        rep = object.__new__(cls)
        rep._set(name, labels, dim, [RowAction(*rows) for rows in zip(cols, vals, zeros)])
        return rep

    def _set(self, name: str, labels: Sequence[str], dim: int, elements: list[Element]) -> None:
        if len(elements) != len(labels) or not elements:
            raise ValueError("need one label per matrix, at least one element")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_elements", tuple(elements))

    @property
    def order(self) -> int:
        return len(self._elements)

    @property
    def matrices(self) -> np.ndarray:
        """The (order, d, d) stack of element matrices, built on each read."""
        return np.stack([_dense(e) for e in self._elements])

    def elements(self) -> Iterator[tuple[str, np.ndarray]]:
        """(label, d x d matrix) per element, each matrix built as it is read."""
        return ((label, _dense(e)) for label, e in zip(self.labels, self._elements))

    def act(self, k: int, v: np.ndarray) -> np.ndarray:
        """U(g_k) @ v for a vector or a d x n array v.  A row action is
        applied as a gather and a scale.  Each output entry of the product is
        then a single term, so both give the same bits, up to the sign of a
        zero."""
        element = self._elements[k]
        if isinstance(element, np.ndarray):
            return element @ v
        return v[element.cols] * element.vals.reshape((-1,) + (1,) * (v.ndim - 1))


@dataclass(frozen=True, eq=False)
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
    mats = rep.matrices

    identity_ok = bool(np.abs(mats[0] - eye).max() <= IDENTITY_TOL)
    if not identity_ok:
        failures.append(f"first element {rep.labels[0]!r} is not the identity")

    worst_orth = 0.0
    for label, u in zip(rep.labels, mats):
        r = float(np.abs(u.T @ u - eye).max())
        worst_orth = max(worst_orth, r)
        if r > ORTHOGONALITY_TOL:
            failures.append(f"element {label!r} is not orthogonal (residual {r:.3e})")
    orthogonality_ok = worst_orth <= ORTHOGONALITY_TOL

    table = np.full((rep.order, rep.order), -1, dtype=int)
    worst_closure = 0.0
    for i in range(rep.order):
        for j in range(rep.order):
            prod = mats[i] @ mats[j]
            residuals = np.abs(mats - prod).max(axis=(1, 2))
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
        worst = max(worst, float(np.abs(m.vecmat(u.T) @ u - m.entries).max()))
    return worst


@dataclass(frozen=True, eq=False)
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
    array, with one application of each group element."""
    if np.any(np.abs(np.linalg.norm(columns, axis=0) - 1.0) > _UNIT_TOL):
        raise ValueError("classification requires a unit vector")
    return np.array([np.sum(columns * rep.act(k, columns), axis=0) for k in range(rep.order)])


def _check_compatible(rep: GroupRep, table: CharacterTable) -> None:
    if tuple(rep.labels) != tuple(table.element_order):
        raise ValueError(
            f"element order mismatch: rep has {rep.labels}, table expects {table.element_order}"
        )


def _labels(
    columns: np.ndarray, rep: GroupRep, table: CharacterTable
) -> tuple[np.ndarray, list[Optional[str]]]:
    """Measured characters of every column and the irrep each matches
    within ``CLASSIFY_TOL``, None where a column matches no row."""
    _check_compatible(rep, table)
    chi = _measured_characters(columns, rep)
    labels: list[Optional[str]] = [None] * chi.shape[1]
    for label, row in table.rows.items():
        fits = np.abs(chi - np.asarray(row)[:, None]).max(axis=0) <= CLASSIFY_TOL
        for k in np.flatnonzero(fits):
            if labels[k] is None:
                labels[k] = label
    return chi, labels


def classify_vector(v: np.ndarray, rep: GroupRep, table: CharacterTable) -> IrrepLabel:
    """Assign an irrep to one unit vector by matching <v|U(g)|v> against the
    table rows.  Raises :class:`ClassificationError` when nothing matches,
    which is the signature of a symmetry-mixed vector."""
    return classify(np.asarray(v, dtype=float)[:, None], rep, table)[0]


VectorSet = Union[Spectrum, np.ndarray, Sequence[np.ndarray]]


def _columns_of(states: VectorSet) -> np.ndarray:
    if hasattr(states, "eigenvectors"):  # a Spectrum or a RotatedSpectrum
        return states.eigenvectors
    arr = np.asarray(states, dtype=float)
    if arr.ndim == 1:
        return arr[:, None]
    return arr


def classify(states: VectorSet, rep: GroupRep, table: CharacterTable) -> list[IrrepLabel]:
    """Classify each eigenvector column.  For degenerate clusters the
    supplied basis must already be the derivative-consistent (or
    irrep-projected) one, otherwise mixed states will fail to classify."""
    chi, labels = _labels(_columns_of(states), rep, table)
    for k, label in enumerate(labels):
        if label is None:
            pretty = ", ".join(f"{c:+.4f}" for c in chi[:, k])
            raise ClassificationError(
                f"characters ({pretty}) match no {table.group_name} irrep within "
                f"{CLASSIFY_TOL:g}; the vector mixes different symmetries"
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
    for k, chi in enumerate(chars):
        out += chi * rep.act(k, v)
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
                block = blocks[-1]
                if block and len(fields) != len(block[0]):
                    raise ValueError(
                        f"element {labels[-1]!r} row {len(block) + 1} has {len(fields)} "
                        f"entries, row 1 has {len(block[0])}"
                    )
                block.append([float(x) for x in fields])
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
