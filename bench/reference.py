"""Independent references and output checks for benchmark requests.

Nothing here imports hftkit.  The references are

- six-site: the closed-form branches and their derivatives;
- oscillator: ``numpy.linalg.eigh`` of H = H0 + lambda * XY assembled from
  the documented matrix elements, with Hellmann-Feynman slopes (each
  degenerate cluster rotated to diagonalize its XY block);
- classify: the same H block-diagonalized by parity and the m <-> n swap;
- check: the closed-form energies and slopes of the untruncated oscillator.

A request whose output disagrees with its reference beyond the tolerances
below is a failed request of kind ``mismatch``.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Optional

import numpy as np

from workloads import Request

# Eigenvalues and energies: absolute, scaled by 1 + the spectral radius.
TOL_E = 1e-9
# Slopes (HF expectation values, cluster-block eigenvalues, dE0): absolute,
# scaled by 1 + the largest reference slope of the row.
TOL_SLOPE = 1e-7
# Cusp slopes and the oracle-derived check references, which hftkit computes
# by finite differences.
TOL_FD = 1e-6
# Grid points must reproduce numpy.linspace to this relative precision.
TOL_GRID = 1e-12
# Degeneracy clustering: the documented default, 1e-8 * (1 + spectral radius).
DEG_REL_TOL = 1e-8
# hftkit's finite-difference step for the check references; an oracle state
# is compared only if no other state can cross it within a few steps.
FD_STEP = 1e-4

CHUNK_BYTES = 2 << 20

C2V_LABELS = {(1, 1): "A1", (1, -1): "A2", (-1, 1): "B1", (-1, -1): "B2"}


class Mismatch(Exception):
    """The output of a request disagrees with its reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _close(got: np.ndarray, want: np.ndarray, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    excess = err - tol
    worst = int(np.argmax(excess)) if excess.size else 0
    _require(bool(np.all(excess <= 0)),
             f"{what}: off by {err.flat[worst]:.3e} "
             f"(tolerance {np.broadcast_to(tol, err.shape).flat[worst]:.1e})")


def clusters(w: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Maximal runs of ascending eigenvalues with consecutive gaps <= tol."""
    cuts = [0] + [i for i in range(1, len(w)) if w[i] - w[i - 1] > tol] + [len(w)]
    return list(zip(cuts[:-1], cuts[1:]))


def degeneracy_tol(w: np.ndarray) -> float:
    return DEG_REL_TOL * (1.0 + float(np.abs(w).max()))


def hf_slopes(w: np.ndarray, v: np.ndarray, b: np.ndarray):
    """Slopes <v|B|v>, with every degenerate cluster rotated to diagonalize
    its B block (block eigenvalues ascending).  Returns (slopes, clusters)."""
    bv = b @ v
    slopes = np.einsum("ij,ij->j", v, bv)
    groups = clusters(w, degeneracy_tol(w))
    for a, z in groups:
        if z - a > 1:
            block = v[:, a:z].T @ bv[:, a:z]
            slopes[a:z] = np.linalg.eigvalsh((block + block.T) / 2.0)
    return slopes, groups


# --- six-site ----------------------------------------------------------------


def six_site(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form branches and slopes, shape (n, 6) each, in branch order."""
    lam = np.asarray(lams, dtype=float)[:, None]
    s = np.sqrt(lam * lam + 8.0)
    values = np.hstack([-(lam + s) / 2, (lam - s) / 2, -lam, lam, (s - lam) / 2, (lam + s) / 2])
    r = lam / s
    one = np.ones_like(lam)
    slopes = np.hstack([-(1 + r) / 2, (1 - r) / 2, -one, one, (r - 1) / 2, (1 + r) / 2])
    return values, slopes


# --- oscillator --------------------------------------------------------------


class Oscillator:
    """Coupled oscillator in the product basis |m, n>, m + n <= nmax.

    H0 is diagonal with (m + n + 1) * omega; XY couples |m, n> to
    |m +- 1, n +- 1> with <a|x|b> = sqrt(max(a, b) / (2 omega)).
    """

    def __init__(self, nmax: int, omega: float = 1.0):
        self.nmax = nmax
        self.omega = omega
        self.basis = [(m, nu - m) for nu in range(nmax + 1) for m in range(nu + 1)]
        self.index = {state: i for i, state in enumerate(self.basis)}
        d = len(self.basis)
        self.dim = d
        self.h0 = np.diag([(m + n + 1) * omega for m, n in self.basis])
        xy = np.zeros((d, d))
        for i, (m, n) in enumerate(self.basis):
            for dm in (-1, 1):
                for dn in (-1, 1):
                    j = self.index.get((m + dm, n + dn))
                    if j is not None:
                        xy[i, j] = math.sqrt(max(m, m + dm) / (2 * omega)) * math.sqrt(
                            max(n, n + dn) / (2 * omega))
        self.xy = xy
        self._sectors: Optional[list[tuple[str, np.ndarray]]] = None

    def hamiltonians(self, lams: np.ndarray) -> np.ndarray:
        lams = np.asarray(lams, dtype=float)
        return self.h0[None, :, :] + lams[:, None, None] * self.xy[None, :, :]

    def spectra(self, lams: np.ndarray):
        """Eigenvalues and eigenvectors at each grid point.  The grid is
        diagonalized in stacks of at most CHUNK_BYTES, so the reference never
        holds enough memory to set the process's peak resident size."""
        lams = np.asarray(lams, dtype=float)
        chunk = max(1, CHUNK_BYTES // (8 * self.dim * self.dim))
        for start in range(0, len(lams), chunk):
            w, v = np.linalg.eigh(self.hamiltonians(lams[start:start + chunk]))
            yield from zip(w, v)

    def sectors(self) -> list[tuple[str, np.ndarray]]:
        """Orthonormal basis of each C2v irrep: C2 is the parity (-1)^(m+n),
        sigma_v1 the swap |m, n> -> |n, m>."""
        if self._sectors is None:
            cols: dict[str, list[np.ndarray]] = {label: [] for label in C2V_LABELS.values()}
            for (m, n), i in self.index.items():
                if m > n:
                    continue
                parity = 1 if (m + n) % 2 == 0 else -1
                for swap in ((1,) if m == n else (1, -1)):
                    col = np.zeros(self.dim)
                    col[i] = 1.0
                    if m != n:
                        col[self.index[(n, m)]] = float(swap)
                        col /= math.sqrt(2.0)
                    cols[C2V_LABELS[(parity, swap)]].append(col)
            self._sectors = [(label, np.array(c).T) for label, c in cols.items() if c]
        return self._sectors

    def labelled_levels(self, lam: float) -> tuple[np.ndarray, list[str]]:
        """All eigenvalues at lam, ascending, each with its irrep label."""
        h = self.h0 + lam * self.xy
        levels = []
        for label, q in self.sectors():
            levels += [(e, label) for e in np.linalg.eigvalsh(q.T @ h @ q)]
        levels.sort(key=lambda item: item[0])
        return np.array([e for e, _ in levels]), [label for _, label in levels]

    def exact(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form energies and slopes of the untruncated problem for the
        basis states, sorted by energy."""
        m = np.array([s[0] for s in self.basis], dtype=float)
        n = np.array([s[1] for s in self.basis], dtype=float)
        k1 = math.sqrt(self.omega ** 2 + lam)
        k2 = math.sqrt(self.omega ** 2 - lam)
        energy = (m + 0.5) * k1 + (n + 0.5) * k2
        slope = (2 * m + 1) / (4 * k1) - (2 * n + 1) / (4 * k2)
        order = np.argsort(energy, kind="stable")
        return energy[order], slope[order]


class References:
    """Caches the oscillator operators per cutoff."""

    def __init__(self) -> None:
        self._osc: dict[int, Oscillator] = {}

    def oscillator(self, nmax: int) -> Oscillator:
        if nmax not in self._osc:
            self._osc[nmax] = Oscillator(nmax)
        return self._osc[nmax]

    def levels(self, req: Request, lams: np.ndarray):
        """Per grid point: (sorted eigenvalues, HF slopes, clusters)."""
        if req.model == "six-site":
            values, slopes = six_site(lams)
            out = []
            for e, s in zip(values, slopes):
                order = np.argsort(e, kind="stable")
                out.append((e[order], s[order], clusters(e[order], degeneracy_tol(e))))
            return out
        osc = self.oscillator(req.nmax)
        out = []
        for w, v in osc.spectra(lams):
            s, groups = hf_slopes(w, v, osc.xy)
            out.append((w, s, groups))
        return out

    # --- per-command checks -------------------------------------------------

    def check(self, req: Request, code: int, stdout: str) -> None:
        """Raise Mismatch unless the output of a finished request is right."""
        try:
            if req.kind == "check":
                self._check_check(req, code, stdout)
                return
            _require(code == 0, f"exit code {code}")
            getattr(self, f"_check_{req.kind}")(req, stdout)
        except (ValueError, IndexError) as exc:
            raise Mismatch(f"unparsable output: {exc}") from exc

    def _grid(self, req: Request, lams: np.ndarray) -> np.ndarray:
        grid = req.grid()
        _require(len(lams) == len(grid), f"{len(lams)} rows for {len(grid)} grid points")
        _close(lams, grid, TOL_GRID * (1 + float(np.abs(grid).max())), "lambda column")
        return grid

    def _check_scan(self, req: Request, text: str) -> None:
        header, rows, _ = parse_csv(text)
        d = req.dim
        want = ["lambda"] + [f"e{k}" for k in range(d)] + [f"slope{k}" for k in range(d)]
        _require(header == want, "scan header")
        data = np.array(rows, dtype=float).reshape(len(rows), 1 + 2 * d)
        grid = self._grid(req, data[:, 0])
        levels = self.levels(req, grid)
        w = np.array([lv[0] for lv in levels])
        s = np.sort(np.array([lv[1] for lv in levels]), axis=1)
        e_rows, s_rows = data[:, 1:1 + d], data[:, 1 + d:]
        if req.sorted_output:
            _require(bool(np.all(np.diff(e_rows, axis=1) >= 0)), "--sorted rows not ascending")
        _close(np.sort(e_rows, axis=1), w, TOL_E * (1 + np.abs(w).max(axis=1, keepdims=True)),
               "eigenvalues")
        _close(np.sort(s_rows, axis=1), s, TOL_SLOPE * (1 + np.abs(s).max(axis=1, keepdims=True)),
               "slopes")

    def _check_fermi(self, req: Request, text: str) -> None:
        header, rows, comments = parse_csv(text)
        _require(header == ["lambda", "E0", "dE0"], "fermi header")
        data = np.array(rows, dtype=float).reshape(len(rows), 3)
        grid = self._grid(req, data[:, 0])
        p = req.n_particles
        exact_hits = []
        for k, (w, s, groups) in enumerate(self.levels(req, grid)):
            e0 = float(np.sum(w[:p]))
            _close(data[k, 1], e0, TOL_E * (1 + p * np.abs(w).max()), f"E0 at row {k}")
            front = frontier_cluster(groups, p)
            if front is None:
                de0 = float(np.sum(s[:p]))
            else:
                de0 = cusp_slopes(s, front, p)[0]
                exact_hits.append(float(grid[k]))
            _close(data[k, 2], de0, TOL_SLOPE * (1 + np.abs(s).max() * p), f"dE0 at row {k}")

        cusps = [tuple(float(x) for x in c.split(",")[1:]) for c in comments
                 if c.startswith("# cusp,")]
        for lam0, left, right in cusps:
            _require(req.lam_lo <= lam0 <= req.lam_hi, f"cusp at {lam0!r} outside window")
            (w, s, groups), = self.levels(req, np.array([lam0]))
            front = frontier_cluster(groups, p)
            _require(front is not None,
                     f"cusp at lambda={lam0!r} has no frontier degeneracy "
                     f"(gap {w[p] - w[p - 1]:.3e})")
            want_left, want_right = cusp_slopes(s, front, p)
            tol = TOL_FD * (1 + abs(want_left) + abs(want_right))
            _close(left, want_left, tol, f"left cusp slope at {lam0!r}")
            _close(right, want_right, tol, f"right cusp slope at {lam0!r}")
        for lam in exact_hits:
            _require(any(abs(c[0] - lam) <= TOL_GRID for c in cusps),
                     f"grid point {lam!r} sits on a frontier degeneracy but has no cusp row")
        if req.svg_prefix is not None:
            check_svgs(req.svg_prefix, len(grid), len(cusps))

    def _check_check(self, req: Request, code: int, text: str) -> None:
        lines = text.splitlines()
        _require(bool(lines) and lines[0].startswith(f"model {req.model} at lambda="),
                 "check header line")
        states = [STATE_LINE.match(line) for line in lines[1:]]
        states = [m for m in states if m]
        verdict = VERDICT_LINE.match(lines[-1])
        d = req.dim
        _require(verdict is not None, "check report has no verdict line")
        _require([int(m.group(1)) for m in states] == list(range(d)),
                 f"check report lists {len(states)} states, expected {d}")
        lhs = np.array([float(m.group(2)) for m in states])
        ref = np.array([float(m.group(3)) for m in states])
        res = np.array([float(m.group(4)) for m in states])
        worst, relation, threshold, word = verdict.groups()
        worst, threshold = float(worst), float(threshold)
        passed = worst <= threshold
        _require(word == ("PASS" if passed else "FAIL") and relation == ("<=" if passed else ">"),
                 "verdict contradicts the worst residual")
        _require(code == (0 if passed else 1), f"exit code {code} for a {word} verdict")
        _close(res, np.abs(lhs - ref), 1e-3 * res + 1e-10 * (1 + np.abs(lhs)), "residual column")
        _close(worst, res.max(), 1e-3 * worst + 1e-12, "worst residual")

        # lhs: HF slopes of the truncated model, compared per cluster as multisets.
        (w, s, groups), = self.levels(req, np.array([req.lam]))
        tol = TOL_SLOPE * (1 + np.abs(s).max())
        for a, z in groups:
            _close(np.sort(lhs[a:z]), np.sort(s[a:z]), tol, f"lhs of states {a}..{z - 1}")

        # reference: closed-form slopes of the untruncated oscillator at the
        # same sorted index, where no other state can cross within the
        # finite-difference stencil.
        if req.model == "six-site":
            energy, slope = w, s
        else:
            energy, slope = self.oscillator(req.nmax).exact(req.lam)
        reach = 4 * FD_STEP * np.abs(slope[:, None] - slope[None, :]) + 1e-9
        near = np.abs(energy[:, None] - energy[None, :]) <= reach
        np.fill_diagonal(near, False)
        tol = TOL_FD * (1 + np.abs(slope).max())
        for a, z in groups:
            if z - a == 1:
                if not near[a].any():
                    _close(ref[a], slope[a], tol, f"reference of state {a}")
            elif not near[a:z, :a].any() and not near[a:z, z:].any():
                _close(np.sort(ref[a:z]), np.sort(slope[a:z]), tol,
                       f"reference of states {a}..{z - 1}")

    def _check_classify(self, req: Request, text: str) -> None:
        lines = text.splitlines()
        d = req.dim
        _require(len(lines) == d, f"{len(lines)} classify lines, expected {d}")
        fields = [line.split() for line in lines]
        _require(all(len(f) == 3 for f in fields), "classify line format")
        _require([int(f[0]) for f in fields] == list(range(d)), "classify state indices")
        energies = np.array([float(f[1]) for f in fields])
        labels = [f[2] for f in fields]
        want_e, want_labels = self.oscillator(req.nmax).labelled_levels(req.lam)
        _close(energies, want_e, TOL_E * (1 + np.abs(want_e).max()), "classify energies")
        for a, z in clusters(want_e, degeneracy_tol(want_e)):
            _require(sorted(labels[a:z]) == sorted(want_labels[a:z]),
                     f"labels of states {a}..{z - 1}: {labels[a:z]} != {want_labels[a:z]}")

    def _check_crossings(self, req: Request, text: str) -> None:
        found = [float(x) for x in text.split()]
        _require(req.model == "six-site", "crossings reference covers six-site only")
        # The only six-site level crossing is at lambda = 1, where the
        # branches -lambda / (lambda - s)/2 and lambda / (s - lambda)/2 meet.
        w1 = np.sort(six_site(np.array([1.0]))[0][0])
        p = req.n_particles
        want = [1.0] if (w1[p] - w1[p - 1] == 0.0 and req.lam_lo <= 1.0 <= req.lam_hi) else []
        _require(len(found) == len(want), f"crossings {found} != {want}")
        _close(found, want, 1e-9, "crossing location")

    def check_rotation(self, nmax: int, lam: float, rot) -> None:
        """Compare a library RotatedSpectrum with the reference."""
        req = Request((), "rotate", "oscillator", nmax, 1)
        (w, s, groups), = self.levels(req, np.array([lam]))
        _close(np.asarray(rot.eigenvalues), w, TOL_E * (1 + np.abs(w).max()), "eigenvalues")
        got = np.asarray(rot.cluster_slopes)
        for a, z in groups:
            _close(np.sort(got[a:z]), np.sort(s[a:z]), TOL_SLOPE * (1 + np.abs(s).max()),
                   f"slopes of states {a}..{z - 1}")


STATE_LINE = re.compile(r"state\s+(\d+): lhs=\s*(\S+) reference=\s*(\S+) residual=(\S+)$")
VERDICT_LINE = re.compile(r"worst residual (\S+) (<=|>) threshold (\S+): (PASS|FAIL)$")


def frontier_cluster(groups, p: int) -> Optional[tuple[int, int]]:
    """The degenerate cluster the occupation frontier cuts through, if any."""
    for a, z in groups:
        if a < p < z:
            return a, z
    return None


def cusp_slopes(s: np.ndarray, front: tuple[int, int], p: int) -> tuple[float, float]:
    """(left, right) ground-energy slopes with the frontier inside ``front``.

    Just left of the crossing the occupied frontier states are those with the
    largest slopes, just right of it those with the smallest.
    """
    a, z = front
    strict = float(np.sum(s[:a]))
    block = np.sort(s[a:z])
    k = p - a
    return strict + float(np.sum(block[z - a - k:])), strict + float(np.sum(block[:k]))


def parse_csv(text: str):
    header: Optional[list[str]] = None
    rows: list[list[float]] = []
    comments: list[str] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    _require(header is not None, "no CSV header")
    return header, rows, comments


def check_svgs(prefix: str, n_points: int, n_cusps: int) -> None:
    """The energy/slope SVG pair exists, parses, plots every grid point, and
    marks both slopes of every cusp.  The files are removed afterwards."""
    ns = "{http://www.w3.org/2000/svg}"
    for suffix, markers in (("_energy.svg", 0), ("_slope.svg", 2 * n_cusps)):
        path = Path(prefix + suffix)
        _require(path.is_file(), f"{path.name} was not written")
        try:
            root = ET.parse(path).getroot()
        except ET.ParseError as exc:
            raise Mismatch(f"{path.name} is not well-formed: {exc}") from exc
        finally:
            path.unlink(missing_ok=True)
        lines = root.findall(f"{ns}polyline")
        _require(len(lines) == 1, f"{path.name} has {len(lines)} polylines")
        _require(len(lines[0].get("points", "").split()) == n_points,
                 f"{path.name} polyline does not have {n_points} points")
        _require(len(root.findall(f"{ns}circle")) == markers,
                 f"{path.name} does not mark {markers} cusp slopes")
