"""Group verification, invariance residuals, classification, projection."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hftkit.hft import hft_basis, rotated_spectrum
from hftkit.models import oscillator_model, oscillator_rep, six_site_model, six_site_rep
from hftkit.spectral import ParametricModel, SymmetricMatrix
from hftkit.symmetry import (
    _measured_characters,
    CharacterTable,
    ClassificationError,
    GroupRep,
    RowAction,
    c2v_character_table,
    classify,
    classify_vector,
    commutant_residual,
    load_character_table,
    load_group_rep,
    project,
    verify_group,
)

V3 = np.array([1.0, 0.0, -1.0, 1.0, 0.0, -1.0]) / 2.0
V2_AT_CROSSING = np.array([1.0, -2.0, 1.0, 1.0, -2.0, 1.0]) / math.sqrt(12.0)


# --- verification ---


def test_six_site_rep_verifies():
    result = verify_group(six_site_rep())
    assert result.passed
    # every element of this realization is an involution
    assert np.array_equal(np.diag(result.multiplication_table), np.zeros(4, dtype=int))


def test_identity_only_rep_verifies():
    rep = GroupRep(name="trivial", labels=("E",), matrices=np.eye(3)[None, :, :])
    assert verify_group(rep).passed


def test_non_orthogonal_element_fails():
    bad = np.stack([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])])
    result = verify_group(GroupRep(name="bad", labels=("E", "X"), matrices=bad))
    assert not result.passed
    assert not result.orthogonality_ok
    assert any("orthogonal" in f for f in result.failures)


def test_closure_failure_detected():
    angle = 1.0  # one radian: R @ R matches neither E nor R
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    result = verify_group(GroupRep(name="open", labels=("E", "R"), matrices=np.stack([np.eye(2), rot])))
    assert not result.closure_ok


def test_identity_must_come_first():
    rep = six_site_rep()
    swapped = GroupRep(name="C2v", labels=rep.labels, matrices=rep.matrices[::-1].copy())
    assert not verify_group(swapped).identity_ok


# --- invariance ---


@pytest.mark.parametrize("lam", [0.3, 1.0, 1.7])
def test_six_site_hamiltonian_commutes(lam):
    model = six_site_model()
    assert commutant_residual(six_site_rep(), model.hamiltonian(lam)) <= 1e-12


def test_six_site_derivative_commutes():
    model = six_site_model()
    assert commutant_residual(six_site_rep(), model.b) <= 1e-12


def test_broken_symmetry_is_visible():
    m = SymmetricMatrix(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    assert commutant_residual(six_site_rep(), m) > 0.9


def test_commutant_dimension_mismatch():
    with pytest.raises(ValueError):
        commutant_residual(six_site_rep(), SymmetricMatrix(np.eye(3)))


# --- character table hygiene ---


def test_character_table_rejects_non_unit_characters():
    with pytest.raises(ValueError, match="abelian"):
        CharacterTable(group_name="x", element_order=("E", "C2"), rows={"A": (1, 2)})


def test_character_table_rejects_non_orthogonal_rows():
    with pytest.raises(ValueError, match="orthogonal"):
        CharacterTable(
            group_name="x",
            element_order=("E", "C2"),
            rows={"A": (1, 1), "B": (1, 1)},
        )


def test_character_table_row_length_checked():
    with pytest.raises(ValueError):
        CharacterTable(group_name="x", element_order=("E", "C2"), rows={"A": (1,)})


# --- classification ---


def test_six_site_classification_ascending():
    model = six_site_model()
    rot = rotated_spectrum(model, 0.5)
    labels = [l.label for l in classify(rot, model.symmetry, model.character_table)]
    assert labels == ["B2", "A1", "A2", "B1", "B2", "A1"]


def test_explicit_a2_eigenvector():
    got = classify_vector(V3, six_site_rep(), c2v_character_table())
    assert got.label == "A2"
    assert got.characters == (1.0, 1.0, -1.0, -1.0)


def test_mixed_combination_fails_to_classify():
    mixed = (V2_AT_CROSSING + V3) / math.sqrt(2.0)
    with pytest.raises(ClassificationError, match="mixes"):
        classify_vector(mixed, six_site_rep(), c2v_character_table())


def test_classification_sign_invariant():
    rep, table = six_site_rep(), c2v_character_table()
    rot = rotated_spectrum(six_site_model(), 0.8)
    for k in range(6):
        v = rot.eigenvectors[:, k]
        assert classify_vector(v, rep, table).label == classify_vector(-v, rep, table).label


def test_crossing_partners_carry_different_labels():
    # same-symmetry levels do not cross; these two do cross, so their
    # labels must differ on both sides and at the crossing itself
    model = six_site_model()
    for lam in (0.96, 0.99, 1.0, 1.01, 1.04):
        rot = rotated_spectrum(model, lam)
        labels = [l.label for l in classify(rot, model.symmetry, model.character_table)]
        assert {labels[1], labels[2]} == {"A1", "A2"}


def test_oscillator_ground_state_is_symmetric():
    model = oscillator_model(1.0, 8)
    rot = rotated_spectrum(model, 0.3)
    got = classify_vector(rot.eigenvectors[:, 0], model.symmetry, model.character_table)
    assert got.label == "A1"


def test_classify_requires_matching_element_order():
    table = CharacterTable(
        group_name="C2v",
        element_order=("E", "sigma_v1", "C2", "sigma_v2"),
        rows={"A1": (1, 1, 1, 1)},
    )
    with pytest.raises(ValueError, match="element order"):
        classify_vector(V3, six_site_rep(), table)


def test_classify_requires_unit_vector():
    with pytest.raises(ValueError, match="unit"):
        classify_vector(2.0 * V3, six_site_rep(), c2v_character_table())



def test_batched_labels_equal_column_by_column_classification():
    model = oscillator_model(1.0, 8)
    rep, table = model.symmetry, model.character_table
    for lam in (0.0, 0.37):
        vectors = rotated_spectrum(model, lam).eigenvectors
        batched = [l.label for l in classify(vectors, rep, table)]
        one_by_one = [classify_vector(vectors[:, k], rep, table).label
                      for k in range(vectors.shape[1])]
        assert batched == one_by_one
        # characters as the per-vector loop measured them, <v|U|v> one at a time
        for k, label in enumerate(batched):
            v = vectors[:, k]
            chi = np.array([float(v @ u @ v) for u in rep.matrices])
            assert np.abs(chi - np.asarray(table.rows[label])).max() <= 1e-6


def test_classify_reports_the_first_mixed_column():
    rep, table = six_site_rep(), c2v_character_table()
    mixed = (V2_AT_CROSSING + V3) / math.sqrt(2.0)
    with pytest.raises(ClassificationError) as one:
        classify_vector(mixed, rep, table)
    with pytest.raises(ClassificationError) as batch:
        classify(np.stack([V3, mixed, V2_AT_CROSSING], axis=1), rep, table)
    assert str(batch.value) == str(one.value)


# --- projection ---


def test_project_is_idempotent_on_own_irrep():
    out = project(V3, "A2", six_site_rep(), c2v_character_table())
    assert np.abs(out - V3).max() <= 1e-14


def test_project_annihilates_other_irreps():
    out = project(V3, "A1", six_site_rep(), c2v_character_table())
    assert np.abs(out).max() <= 1e-14


def test_project_extracts_component_of_mixture():
    mixed = (V2_AT_CROSSING + V3) / math.sqrt(2.0)
    out = project(mixed, "A1", six_site_rep(), c2v_character_table())
    assert abs(np.linalg.norm(out) - 1.0 / math.sqrt(2.0)) <= 1e-8
    cosine = out @ V2_AT_CROSSING / np.linalg.norm(out)
    assert abs(abs(cosine) - 1.0) <= 1e-12


def test_project_unknown_irrep():
    with pytest.raises(ValueError, match="unknown irrep"):
        project(V3, "E1", six_site_rep(), c2v_character_table())


@pytest.mark.parametrize("rep", [six_site_rep(), oscillator_rep(6)])
def test_projector_resolution_of_identity(rep):
    table = c2v_character_table()
    d = rep.dim
    projectors = []
    for label in table.irrep_labels:
        p = np.zeros((d, d))
        for chi, u in zip(table.rows[label], rep.matrices):
            p += chi * u
        p /= rep.order
        projectors.append(p)
        assert np.abs(p @ p - p).max() <= 1e-10
    assert np.abs(sum(projectors) - np.eye(d)).max() <= 1e-10


def test_cross_irrep_derivative_elements_vanish():
    model = six_site_model()
    hp = model.b.entries
    rot = rotated_spectrum(model, 1.0)
    labels = [l.label for l in classify(rot, model.symmetry, model.character_table)]
    v = rot.eigenvectors
    for a in range(6):
        for b in range(a + 1, 6):
            if labels[a] != labels[b]:
                assert abs(v[:, a] @ hp @ v[:, b]) <= 1e-10


# --- group action: index path against the matrix product ---


def _product_characters(columns, rep):
    """<v|U(g)|v> by one dense matrix product per element."""
    return np.array([np.sum(columns * (u @ columns), axis=0) for u in rep.matrices])


def _assert_same_bits(got, want):
    # Bit for bit, except that a zero may carry either sign.
    assert got.shape == want.shape
    assert ((got.view(np.int64) == want.view(np.int64)) | ((got == 0.0) & (want == 0.0))).all()


def _assert_characters_match(columns, rep):
    _assert_same_bits(_measured_characters(columns, rep), _product_characters(columns, rep))


def _unit_columns(rng, d, k):
    cols = rng.normal(size=(d, k))
    return cols / np.linalg.norm(cols, axis=0)


@pytest.mark.parametrize("rep, model", [(six_site_rep(), six_site_model()),
                                        (oscillator_rep(8), oscillator_model(n_max=8))])
def test_built_in_elements_act_by_index_with_the_product_bits(rep, model):
    assert all(isinstance(e, RowAction) for e in rep._elements)
    rng = np.random.default_rng(5)
    lam = 0.5 if model.name == "six-site" else 0.0
    columns = np.hstack([rotated_spectrum(model, lam).eigenvectors,
                         _unit_columns(rng, rep.dim, 7)])
    _assert_characters_match(columns, rep)
    for k in range(rep.order):
        for v in (columns, columns[:, 3]):
            _assert_same_bits(rep.act(k, v), rep.matrices[k] @ v)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 9), zero_rows=st.integers(0, 3))
def test_sparse_row_elements_act_by_index_with_the_product_bits(seed, dim, zero_rows):
    rng = np.random.default_rng(seed)
    u = np.zeros((dim, dim))
    u[np.arange(dim), rng.integers(0, dim, dim)] = rng.normal(size=dim)
    u[rng.integers(0, dim, zero_rows)] = 0.0
    rep = GroupRep(name="G", labels=("E", "U"), matrices=np.stack([np.eye(dim), u]))
    assert isinstance(rep._elements[1], RowAction)
    _assert_characters_match(_unit_columns(rng, dim, 4), rep)


def test_row_action_reps_rebuild_their_stack_bit_for_bit():
    rep = oscillator_rep(5)
    stack = rep.matrices
    assert stack is not rep.matrices  # built on every read, not kept
    stack[1] = 7.0
    again = GroupRep(name=rep.name, labels=rep.labels, matrices=rep.matrices)
    assert all(isinstance(e, RowAction) for e in again._elements)
    assert again.matrices.tobytes() == rep.matrices.tobytes()
    assert [u.tobytes() for _, u in again.elements()] == [u.tobytes() for u in rep.matrices]


def test_an_element_whose_row_action_would_change_its_bits_stays_dense():
    mixed = np.eye(3)
    mixed[0, 2] = -0.0  # its row's other zero is +0.0
    rep = GroupRep(name="G", labels=("E", "M"), matrices=np.stack([np.eye(3), mixed]))
    assert isinstance(rep._elements[0], RowAction)
    assert not isinstance(rep._elements[1], RowAction)
    assert rep.matrices.tobytes() == np.stack([np.eye(3), mixed]).tobytes()


def test_from_row_actions_rejects_malformed_actions():
    labels = ("E", "P")
    cols = np.array([[0, 1], [1, 0]])
    GroupRep.from_row_actions("Z2", labels, cols, np.ones((2, 2)))
    with pytest.raises(ValueError, match="one shape"):
        GroupRep.from_row_actions("Z2", labels, cols, np.ones((2, 3)))
    with pytest.raises(ValueError, match="one shape"):
        GroupRep.from_row_actions("Z2", labels, cols, np.ones((2, 2)), zeros=np.zeros(2))
    with pytest.raises(ValueError, match=r"columns must lie in \[0, 2\)"):
        GroupRep.from_row_actions("Z2", labels, [[0, 1], [2, 0]], np.ones((2, 2)))
    with pytest.raises(ValueError, match="one label per matrix"):
        GroupRep.from_row_actions("Z2", ("E",), cols, np.ones((2, 2)))


def _random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
def test_conjugated_rep_takes_the_product_and_keeps_the_six_site_labels(lam):
    q = _random_orthogonal(np.random.default_rng(11), 6)
    base = six_site_rep()
    rep = GroupRep(name="C2v", labels=base.labels, matrices=q @ base.matrices @ q.T)
    assert verify_group(rep).passed
    assert not any(isinstance(e, RowAction) for e in rep._elements[1:])
    six = six_site_model()
    model = ParametricModel(
        a=SymmetricMatrix(q @ six.a.entries @ q.T), b=SymmetricMatrix(q @ six.b.entries @ q.T)
    )
    table = c2v_character_table()
    conjugated = [lab.label for lab in classify(
        hft_basis(model.spectrum(lam), model.b), rep, table)]
    plain = [lab.label for lab in classify(
        hft_basis(six.spectrum(lam), six.b), base, table)]
    assert conjugated == plain
    assert project(q @ V3, "A2", rep, table) == pytest.approx(q @ V3, abs=1e-12)


# --- file loaders ---


def _write_rep_file(path, rep):
    lines = [f"group {rep.name}"]
    for label, u in rep.elements():
        lines.append(f"element {label}")
        lines.extend(" ".join(f"{x:g}" for x in row) for row in u)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def test_group_rep_round_trips_through_file(tmp_path):
    rep = six_site_rep()
    path = tmp_path / "c2v_sites.grp"
    _write_rep_file(path, rep)
    loaded = load_group_rep(path)
    assert loaded.name == rep.name
    assert loaded.labels == rep.labels
    assert np.array_equal(loaded.matrices, rep.matrices)
    assert verify_group(loaded).passed


def test_character_table_round_trips_through_file(tmp_path):
    path = tmp_path / "c2v.tbl"
    path.write_text(
        "# four one-dimensional irreps\n"
        "group C2v\n"
        "elements E C2 sigma_v1 sigma_v2\n"
        "A1 1 1 1 1\n"
        "A2 1 1 -1 -1\n"
        "B1 1 -1 1 -1\n"
        "B2 1 -1 -1 1\n",
        encoding="ascii",
    )
    loaded = load_character_table(path)
    assert loaded.rows == c2v_character_table().rows
    assert loaded.element_order == c2v_character_table().element_order


def test_loaders_reject_garbage(tmp_path):
    empty = tmp_path / "empty.grp"
    empty.write_text("# nothing here\n", encoding="ascii")
    with pytest.raises(ValueError):
        load_group_rep(empty)
    with pytest.raises(ValueError):
        load_character_table(empty)
    ragged = tmp_path / "ragged.grp"
    ragged.write_text("group x\nelement E\n1 0\n0 1 0\n", encoding="ascii")
    with pytest.raises(ValueError):
        load_group_rep(ragged)


@pytest.mark.parametrize("text, message", [
    ("group x\nelement\n1\n", "malformed element line: 'element'"),
    ("group x\nelement E extra\n1\n", "malformed element line: 'element E extra'"),
    ("group x\n1 0\n0 1\n", "matrix row before any 'element' line"),
    ("group x\nelement E\n1 0\n0 1\nelement P\n0 1 0\n1 0 0\n",
     r"element 'P' has shape \(2, 3\), expected \(2, 2\)"),
    ("group x\nelement E\n1 0 0\n0 1 0\n", r"element 'E' has shape \(2, 3\), expected \(2, 2\)"),
    ("group x\nelement E\n1 0\n0 1 0\n", "element 'E' row 2 has 3 entries, row 1 has 2"),
])
def test_load_group_rep_names_what_is_wrong(tmp_path, text, message):
    path = tmp_path / "bad.grp"
    path.write_text(text, encoding="ascii")
    with pytest.raises(ValueError, match=message):
        load_group_rep(path)


def test_group_rep_rejects_a_stack_of_non_square_matrices():
    for stack in (np.zeros((1, 2, 3)), np.eye(2)):
        with pytest.raises(ValueError, match="matrices must be a stack of square arrays"):
            GroupRep("x", ("E",), stack)
