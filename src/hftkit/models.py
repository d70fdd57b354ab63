"""Built-in parametric models with analytic oracles.

Two systems are provided.  The six-site chain pair is a 6x6 tight-binding
matrix with unit bonds on two three-site chains and two lambda bonds tying
them into a ring; its eigenvalues are known in closed form and two of them
cross at lambda = 1.  The coupled oscillator is a pair of unit-mass harmonic
oscillators with an x*y coupling, expanded in the product basis |m, n> and
truncated by total shell m + n <= n_max; a rotation of coordinates separates
it exactly, so energies and slopes have closed forms on |lambda| < omega^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import ParametricModel, SymmetricMatrix
from .symmetry import GroupRep, c2v_character_table

SIX_SITE_UNIT_BONDS = ((0, 1), (1, 2), (3, 4), (4, 5))
SIX_SITE_LAMBDA_BONDS = ((0, 5), (2, 3))

DEFAULT_OSC_OMEGA = 1.0
DEFAULT_OSC_NMAX = 12


# --- six-site chain pair -------------------------------------------------


def six_site_hamiltonian(lam: float) -> SymmetricMatrix:
    h = np.zeros((6, 6))
    for i, j in SIX_SITE_UNIT_BONDS:
        h[i, j] = h[j, i] = 1.0
    for i, j in SIX_SITE_LAMBDA_BONDS:
        h[i, j] = h[j, i] = lam
    return SymmetricMatrix._adopt(h)


def six_site_derivative() -> SymmetricMatrix:
    hp = np.zeros((6, 6))
    for i, j in SIX_SITE_LAMBDA_BONDS:
        hp[i, j] = hp[j, i] = 1.0
    return SymmetricMatrix._adopt(hp)


def six_site_analytic_eigenvalues(lam: float) -> np.ndarray:
    """Closed-form eigenvalues, ascending.  Defined for lambda > 0.

    With s = sqrt(lambda^2 + 8) the six branches are -(lam+s)/2, (lam-s)/2,
    -lam, lam, (s-lam)/2, (lam+s)/2; the middle four swap sorted positions
    pairwise at lambda = 1.
    """
    if lam <= 0.0:
        raise ValueError("the six-site closed forms hold for lambda > 0")
    s = math.sqrt(lam * lam + 8.0)
    return np.sort(
        [-(lam + s) / 2.0, (lam - s) / 2.0, -lam, lam, (s - lam) / 2.0, (lam + s) / 2.0]
    )


def six_site_rep() -> GroupRep:
    """C2v realized by site permutations: the half-turn of the ring and the
    two reflections (one reversing site order, one fixing sites 1 and 4).
    Row i of each element has its 1 in the column listed at position i."""
    return GroupRep.from_row_actions(
        name="C2v",
        labels=("E", "C2", "sigma_v1", "sigma_v2"),
        cols=[[0, 1, 2, 3, 4, 5], [3, 4, 5, 0, 1, 2], [5, 4, 3, 2, 1, 0], [2, 1, 0, 5, 4, 3]],
        vals=np.ones((4, 6)),
    )


def six_site_model() -> ParametricModel:
    """H = A + lambda * B with A = H(0) and B = dH/dlambda."""
    return ParametricModel(
        a=six_site_hamiltonian(0.0),
        b=six_site_derivative(),
        analytic_eigenvalues_at=six_site_analytic_eigenvalues,
        symmetry=six_site_rep(),
        character_table=c2v_character_table(),
        lambda_domain=(0.0, math.inf),
        name="six-site",
    )


# --- coupled oscillator in a truncated product basis ---------------------


def oscillator_basis(n_max: int) -> list[tuple[int, int]]:
    """(m, n) pairs ordered by ascending shell m + n, ascending m inside."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    return [(m, nu - m) for nu in range(n_max + 1) for m in range(nu + 1)]


def oscillator_dim(n_max: int) -> int:
    return (n_max + 1) * (n_max + 2) // 2


def _shell_indices(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """m and n of every basis state, in the order of :func:`oscillator_basis`:
    state (m, n) sits at index nu (nu + 1) / 2 + m with nu = m + n."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    nu = np.repeat(np.arange(n_max + 1), np.arange(1, n_max + 2))
    m = np.arange(len(nu)) - nu * (nu + 1) // 2
    return m, nu - m


def oscillator_xy_matrix(omega: float, n_max: int) -> SymmetricMatrix:
    """The x*y coupling in the truncated product basis.  It connects |m, n>
    to |m+-1, n+-1> only, so its diagonal vanishes identically.  The
    element is <m|x|m'> <n|y|n'>, where <a|x|a+-1> = sqrt(max(a, a+-1) / (2 omega))."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    m, n = _shell_indices(n_max)
    d = len(m)
    xy = np.zeros((d, d))
    rows = np.arange(d)
    for dm in (-1, 1):
        for dn in (-1, 1):
            m2, n2 = m + dm, n + dn
            inside = (m2 >= 0) & (n2 >= 0) & (m2 + n2 <= n_max)
            nu2 = m2 + n2
            cols = nu2 * (nu2 + 1) // 2 + m2
            x = np.sqrt(np.maximum(m, m2) / (2.0 * omega))
            y = np.sqrt(np.maximum(n, n2) / (2.0 * omega))
            xy[rows[inside], cols[inside]] = (x * y)[inside]
    return SymmetricMatrix._adopt(xy)


def _oscillator_diagonal(omega: float, n_max: int) -> np.ndarray:
    m, n = _shell_indices(n_max)
    return np.diag((m + n + 1) * omega)


def oscillator_matrix(omega: float, lam: float, n_max: int) -> SymmetricMatrix:
    """H0 + lambda * XY with H0 diagonal, (m + n + 1) * omega per state."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    return SymmetricMatrix._adopt(
        _oscillator_diagonal(omega, n_max) + lam * oscillator_xy_matrix(omega, n_max).entries
    )


@dataclass(frozen=True)
class OscillatorAnalytic:
    """Closed-form energies and slopes of the coupled oscillator.

    E_mn = (m + 1/2) sqrt(omega^2 + lambda) + (n + 1/2) sqrt(omega^2 - lambda),
    valid on |lambda| < omega^2 where both rotated frequencies stay real.
    """

    omega: float

    def _stiffnesses(self, lam: float) -> tuple[float, float]:
        k1 = self.omega**2 + lam
        k2 = self.omega**2 - lam
        if k1 <= 0.0 or k2 <= 0.0:
            raise ValueError(
                f"lambda={lam!r} outside |lambda| < omega^2 = {self.omega ** 2!r}"
            )
        return k1, k2

    def energy(self, lam: float, m: int, n: int) -> float:
        k1, k2 = self._stiffnesses(lam)
        return (m + 0.5) * math.sqrt(k1) + (n + 0.5) * math.sqrt(k2)

    def slope(self, lam: float, m: int, n: int) -> float:
        k1, k2 = self._stiffnesses(lam)
        return (2 * m + 1) / (4.0 * math.sqrt(k1)) - (2 * n + 1) / (4.0 * math.sqrt(k2))

    def sorted_eigenvalues(self, lam: float, n_max: int) -> np.ndarray:
        m, n = _shell_indices(n_max)
        k1, k2 = self._stiffnesses(lam)
        return np.sort((m + 0.5) * math.sqrt(k1) + (n + 0.5) * math.sqrt(k2))


def oscillator_analytic(omega: float, lam: float, m: int, n: int) -> tuple[float, float]:
    """(energy, slope) of state (m, n) from the closed forms."""
    if m < 0 or n < 0:
        raise ValueError("quantum numbers must be non-negative")
    exact = OscillatorAnalytic(omega=omega)
    return exact.energy(lam, m, n), exact.slope(lam, m, n)


def oscillator_product_expectation(omega: float, nu: int, i: int) -> float:
    """Diagonal x*y element of the shell-nu product state |nu - i, i>.

    These are the "wrong" degenerate combinations at lambda = 0: every one
    of them reports a zero slope because x has no diagonal elements.
    Computed honestly from the truncated coupling matrix.
    """
    if not 0 <= i <= nu:
        raise ValueError("need 0 <= i <= nu")
    xy = oscillator_xy_matrix(omega, nu)
    index = oscillator_basis(nu).index((nu - i, i))
    return float(xy.entries[index, index])


def oscillator_rep(n_max: int) -> GroupRep:
    """C2v acting on the product basis: parity (-1)^(m+n) for the half-turn,
    the |m, n> -> |n, m> swap and their product for the two reflections."""
    m, n = _shell_indices(n_max)
    nu = m + n
    parity = np.where(nu % 2 == 0, 1.0, -1.0)
    ones = np.ones_like(parity)
    i = np.arange(len(nu))
    swap = nu * (nu + 1) // 2 + n  # the index of |n, m>
    # sigma_v2 = C2 @ sigma_v1 scales whole rows of the swap by the parity,
    # its zeros included; the other three elements have +0.0 zeros.
    zeros = np.zeros((4, len(nu)))
    zeros[3] = 0.0 * parity
    return GroupRep.from_row_actions(
        name="C2v",
        labels=("E", "C2", "sigma_v1", "sigma_v2"),
        cols=np.stack([i, i, swap, swap]),
        vals=np.stack([ones, parity, ones, parity]),
        zeros=zeros,
    )


def oscillator_model(
    omega: float = DEFAULT_OSC_OMEGA, n_max: int = DEFAULT_OSC_NMAX
) -> ParametricModel:
    """Truncated-basis model.  The analytic oracle is exact for the
    untruncated problem; the lowest truncated eigenvalues converge to it
    from above as n_max grows (the truncation is variational).  A is the
    diagonal H0 and B the x*y coupling."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    exact = OscillatorAnalytic(omega=omega)
    return ParametricModel(
        a=SymmetricMatrix._adopt(_oscillator_diagonal(omega, n_max)),
        b=oscillator_xy_matrix(omega, n_max),
        analytic_eigenvalues_at=lambda lam: exact.sorted_eigenvalues(lam, n_max),
        symmetry=oscillator_rep(n_max),
        character_table=c2v_character_table(),
        lambda_domain=(-(omega**2), omega**2),
        name="oscillator",
    )


# --- registry -------------------------------------------------------------

MODEL_NAMES = ("six-site", "oscillator")

MODEL_SUMMARIES = {
    "six-site": "6x6 two-chain ring, unit bonds plus two lambda bonds; domain lambda > 0",
    "oscillator": "coupled 2D oscillator, shell-truncated product basis; "
    "parameters omega, nmax; domain |lambda| < omega^2",
}


def build_model(name: str, omega: float = DEFAULT_OSC_OMEGA, nmax: int = DEFAULT_OSC_NMAX):
    if name == "six-site":
        return six_site_model()
    if name == "oscillator":
        return oscillator_model(omega=omega, n_max=nmax)
    raise ValueError(f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}")
