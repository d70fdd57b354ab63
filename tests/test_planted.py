"""Properties that hold on every planted-crossing family (see planted.py).

The crossing search is not asserted to be complete: a 17-point grid can
hide a crossing from the sign test, and a few families raise
``TrackingError`` where the grid is too coarse to follow their branches.
"""

import numpy as np
from hypothesis import given, strategies as st

from hftkit.fermi import FillingSpec, find_crossings, ground_state_curve
from hftkit.hft import sweep
from hftkit.spectral import ParametricModel, SymmetricMatrix, TrackingError
from planted import FAMILIES, GRID, planted_crossings, planted_families

families = st.integers(0, FAMILIES - 1).map(lambda k: planted_families()[k])


@given(family=families)
def test_ground_state_slope_never_increases_along_the_grid(family):
    # Ky Fan: the sum of the n_p lowest levels of A + lambda B is the least
    # trace of H over n_p-dimensional subspaces, so it is concave in lambda
    curve = ground_state_curve(family.model, sweep(family.model, GRID), FillingSpec(family.n_p))
    s = curve.slopes
    assert np.all(s[1:] - s[:-1] <= 1e-9 * (1.0 + np.abs(s[:-1])))


@given(family=families)
def test_each_crossing_found_is_a_frontier_crossing_of_two_sectors(family):
    n_p = family.n_p
    try:
        found = find_crossings(family.model, sweep(family.model, GRID), FillingSpec(n_p))
    except TrackingError:
        return
    for lam in found:
        w, sector = family.levels(lam)
        assert sector[n_p - 1] != sector[n_p]
        assert abs(w[n_p] - w[n_p - 1]) <= 1e-8


@given(family=families, seed=st.integers(0, 2**32 - 1))
def test_a_basis_permutation_leaves_levels_and_slopes_unchanged(family, seed):
    model = family.model
    perm = np.ix_(*[np.random.default_rng(seed).permutation(model.dim)] * 2)
    permuted = ParametricModel(a=SymmetricMatrix(model.a.entries[perm]),
                               b=SymmetricMatrix(model.b.entries[perm]))
    for rot, moved in zip(sweep(model, GRID), sweep(permuted, GRID)):
        assert np.abs(moved.eigenvalues - rot.eigenvalues).max() <= 1e-12
        assert np.abs(np.sort(moved.cluster_slopes) - np.sort(rot.cluster_slopes)).max() <= 1e-9


def test_planted_crossings_are_where_two_sectors_trade_the_frontier():
    # the truth itself, on the first family with a crossing: per-sector
    # levels meet at the frontier there, one from each sector
    family = next(f for f in planted_families() if planted_crossings(f, samples=401))
    n_p = family.n_p
    for lam in planted_crossings(family, samples=401):
        w, sector = family.levels(lam)
        assert sector[n_p - 1] != sector[n_p]
        assert abs(w[n_p] - w[n_p - 1]) <= 1e-12
