"""Planted-crossing families: models whose level crossings are known from
outside the program.

Each family is H(lambda) = Q (A_1 + lambda B_1 (+) ... (+) A_k + lambda B_k) Q^T,
a direct sum of k = 2-3 random symmetric sectors of 1-3 states each, hidden
by a random orthogonal Q.  Levels of one sector repel; levels of different
sectors cross freely, and a crossing at the occupation frontier of n_p
fermions is a cusp of the ground energy.  The truth is taken from the
per-sector spectra, never from the program's own grid:
:func:`planted_crossings` finds where the number of occupied states of each
sector changes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from hftkit.spectral import ParametricModel, SymmetricMatrix

FAMILIES = 150
GRID = np.linspace(-2.0, 2.0, 17)


@dataclass(frozen=True, eq=False)
class PlantedFamily:
    """A hidden direct sum: ``model`` is Q (+)_s (A_s + lambda B_s) Q^T."""

    model: ParametricModel
    sectors: tuple[tuple[np.ndarray, np.ndarray], ...]  # (A_s, B_s)
    n_p: int

    def levels(self, lams) -> tuple[np.ndarray, np.ndarray]:
        """All eigenvalues at each of the lambdas ``lams``, ascending along
        the last axis, and the sector of each, from the per-sector spectra."""
        lams = np.asarray(lams, dtype=float)[..., None, None]
        w = [np.linalg.eigvalsh(a + lams * b) for a, b in self.sectors]
        sector = np.concatenate([np.full(ws.shape[-1], s) for s, ws in enumerate(w)])
        w = np.concatenate(w, axis=-1)
        order = np.argsort(w, axis=-1, kind="stable")
        return np.take_along_axis(w, order, axis=-1), sector[order]

    def occupation(self, lams) -> np.ndarray:
        """How many of the n_p lowest states each sector holds at each of
        the lambdas ``lams`` (the last axis runs over sectors)."""
        _, sector = self.levels(lams)
        occupied = sector[..., : self.n_p, None] == np.arange(len(self.sectors))
        return occupied.sum(axis=-2)


def _symmetric(rng: np.random.Generator, d: int) -> np.ndarray:
    x = rng.standard_normal((d, d))
    return (x + x.T) / 2.0


def _hidden(q: np.ndarray, blocks: list[np.ndarray]) -> SymmetricMatrix:
    d = q.shape[0]
    m = np.zeros((d, d))
    start = 0
    for block in blocks:
        stop = start + len(block)
        m[start:stop, start:stop] = block
        start = stop
    return SymmetricMatrix(q @ m @ q.T)  # symmetrized by the constructor


@functools.cache
def planted_families(count: int = FAMILIES, seed: int = 0) -> tuple[PlantedFamily, ...]:
    """``count`` families drawn from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    families = []
    for _ in range(count):
        sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 4)))]
        sectors = tuple((_symmetric(rng, g), _symmetric(rng, g)) for g in sizes)
        d = sum(sizes)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        model = ParametricModel(
            a=_hidden(q, [a for a, _ in sectors]),
            b=_hidden(q, [b for _, b in sectors]),
            name="planted",
        )
        families.append(PlantedFamily(model, sectors, int(rng.integers(1, d))))
    return tuple(families)


def planted_crossings(family: PlantedFamily, lo: float = GRID[0], hi: float = GRID[-1],
                      samples: int = 8001, bisections: int = 60) -> list[float]:
    """The lambdas in [lo, hi] where a sector's occupation changes: each
    change between neighbouring points of a ``samples``-point sample,
    refined by ``bisections`` bisections.  Two changes between the same
    two sample points, or changes that cancel there, are missed."""
    xs = np.linspace(lo, hi, samples)
    occupied = family.occupation(xs)
    found = []
    for k in (occupied[1:] != occupied[:-1]).any(axis=1).nonzero()[0]:
        left, right = float(xs[k]), float(xs[k + 1])
        for _ in range(bisections):
            mid = 0.5 * (left + right)
            if (family.occupation(mid) == occupied[k]).all():
                left = mid
            else:
                right = mid
        found.append(0.5 * (left + right))
    return found
