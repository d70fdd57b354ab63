"""The package keeps one path for each step of its loop: one eigensolver
call site, one column matcher, one branch-tracking rule and one owner of
the sparse form of a matrix and of every product with it.  These tests read
the source of ``hftkit`` and fail when a second path appears."""

import ast
from pathlib import Path

import hftkit

SOURCES = sorted(Path(hftkit.__file__).parent.glob("*.py"))
EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def _dotted(node):
    """'np.linalg.eigh' for the callee np.linalg.eigh, None for a callee
    that is not a plain name or attribute chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _Calls(ast.NodeVisitor):
    """Every call in a module as (innermost enclosing function, callee),
    with each imported name that heads a callee spelled out in full."""

    def __init__(self):
        self.calls = []
        self.scope = ["<module>"]
        self.aliases = {}

    def visit_Import(self, node):
        for alias in node.names:
            if alias.asname is not None:
                self.aliases[alias.asname] = alias.name

    def visit_ImportFrom(self, node):
        for alias in node.names:
            full = f"{node.module}.{alias.name}" if node.module else alias.name
            self.aliases[alias.asname or alias.name] = full

    def _visit_function(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node):
        name = _dotted(node.func)
        if name is not None:
            head, _, rest = name.partition(".")
            head = self.aliases.get(head, head)
            self.calls.append((self.scope[-1], f"{head}.{rest}" if rest else head))
        self.generic_visit(node)


def _callers(matches):
    """(module, function) of every call in the package whose callee, split
    at its dots, satisfies ``matches``."""
    sites = set()
    for path in SOURCES:
        visitor = _Calls()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        sites.update((path.stem, function) for function, callee in visitor.calls
                     if matches(callee.split(".")))
    return sites


def test_numpy_eigensolvers_are_called_in_spectral_only():
    in_linalg = lambda parts: parts[-1] in EIGENSOLVERS and "linalg" in parts[:-1]
    assert _callers(in_linalg) == {("spectral", "eigh")}


def test_columns_are_matched_in_track_and_run_scan_only():
    matched = _callers(lambda parts: parts[-1] == "match_columns")
    assert matched == {("spectral", "track"), ("cli", "run_scan")}


def test_branches_are_tracked_through_the_one_hf_basis_rule_only():
    assert _callers(lambda parts: parts[-1] == "track") == {("hft", "_follow")}


def test_the_row_form_of_a_matrix_is_read_in_spectral_only():
    # SymmetricMatrix.vecmat picks dense or row form; a reader elsewhere
    # would make that choice a second time.
    readers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name == "_row_form" or (isinstance(node, ast.Constant) and node.value == "_row_form"):
                readers.add(path.stem)
    assert readers == {"spectral"}


def test_matrix_entries_are_multiplied_in_spectral_only():
    # SymmetricMatrix.vecmat chooses how a product reads a matrix; a product
    # with .entries elsewhere would stream it dense whatever that choice is.
    products = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                operands = [node.left, node.right]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dot":
                operands = [node.func.value, *node.args]
            else:
                continue
            if any(getattr(o, "attr", None) == "entries" for o in operands):
                products.append((path.stem, node.lineno))
    assert [p for p in products if p[0] != "spectral"] == []
