"""Seeded request streams for the benchmark workloads.

A workload is an endless sequence of rounds.  A round holds every stratum of
the workload once (for example each particle number with a symmetric and an
asymmetric window), in a seeded order, with the continuous parameters drawn
inside each stratum.  A run is a whole number of rounds, so the request mix is
the same for every seed and the seed moves only the parameters and the order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

WORKLOADS = ("scan-six-site", "fermi-oscillator", "large-basis")

SIX_SITE_WINDOW = (0.05, 3.0)
FERMI_NMAX = 12
LARGE_NMAX = (20, 24, 28, 32)
# Scan length per cutoff in large-basis: at most 41 steps, fewer for larger
# bases so that one scan takes about as long as one classify.  The grid
# spacing stays below 0.01 so that tracking between neighbours is well posed.
LARGE_SCAN_STEPS = {20: 41, 24: 21, 28: 11, 32: 7}
LARGE_SCAN_SPACING = (0.002, 0.01)
# Grids that land exactly on the six-site crossing at lambda = 1 use a dyadic
# step, so every grid point, 1.0 included, is exactly representable.
ON_CROSSING_STEP = 1.0 / 512.0
# Grid steps of the symmetric fermi windows; with 41-101 steps the windows
# reach 0.23-0.78.
SYMMETRIC_STEPS = (1.0 / 64.0, 3.0 / 256.0)


def oscillator_dim(nmax: int) -> int:
    return (nmax + 1) * (nmax + 2) // 2


def fmt(x: float) -> str:
    """Shortest text that parses back to the same double."""
    return repr(float(x))


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what the checker needs to know about it."""

    argv: tuple[str, ...]
    kind: str  # scan | fermi | check | classify | crossings
    model: str  # six-site | oscillator
    nmax: int
    n_lambda: int
    lam_lo: float = 0.0
    lam_hi: float = 0.0
    lam: float = 0.0
    n_particles: int = 0
    sorted_output: bool = False
    svg_prefix: Optional[str] = None

    @property
    def dim(self) -> int:
        return 6 if self.model == "six-site" else oscillator_dim(self.nmax)

    @property
    def work(self) -> int:
        """State-lambda pairs the request asks for."""
        return self.dim * self.n_lambda

    def grid(self) -> np.ndarray:
        return np.linspace(self.lam_lo, self.lam_hi, self.n_lambda)


def scan_request(model: str, lo: float, hi: float, steps: int, nmax: int = 12,
                 sorted_output: bool = False) -> Request:
    argv = ["scan", "--model", model]
    if model == "oscillator":
        argv += ["--nmax", str(nmax)]
    argv += ["--lmin", fmt(lo), "--lmax", fmt(hi), "--steps", str(steps), "--slopes"]
    if sorted_output:
        argv.append("--sorted")
    return Request(tuple(argv), "scan", model, nmax, steps, lam_lo=lo, lam_hi=hi,
                   sorted_output=sorted_output)


def fermi_request(model: str, n_particles: int, lo: float, hi: float, steps: int,
                  nmax: int = FERMI_NMAX, svg_prefix: Optional[str] = None) -> Request:
    argv = ["fermi", "--model", model]
    if model == "oscillator":
        argv += ["--nmax", str(nmax)]
    argv += ["--np", str(n_particles), "--lmin", fmt(lo), "--lmax", fmt(hi),
             "--steps", str(steps)]
    if svg_prefix is not None:
        argv += ["--svg", svg_prefix]
    return Request(tuple(argv), "fermi", model, nmax, steps, lam_lo=lo, lam_hi=hi,
                   n_particles=n_particles, svg_prefix=svg_prefix)


def point_request(kind: str, model: str, lam: float, nmax: int = 12) -> Request:
    argv = [kind, "--model", model]
    if model == "oscillator":
        argv += ["--nmax", str(nmax)]
    argv += ["--lambda", fmt(lam)]
    return Request(tuple(argv), kind, model, nmax, 1, lam=lam)


def crossings_request(model: str, n_particles: int, lo: float, hi: float,
                      steps: int) -> Request:
    argv = ("crossings", "--model", model, "--np", str(n_particles),
            "--lmin", fmt(lo), "--lmax", fmt(hi), "--steps", str(steps))
    return Request(argv, "crossings", model, 12, steps, lam_lo=lo, lam_hi=hi,
                   n_particles=n_particles)


def _stratified_ints(rng: np.random.Generator, lo: int, hi: int, n: int) -> list[int]:
    """n integers in [lo, hi], one from each of n equal-width bins, shuffled."""
    width = (hi - lo + 1) / n
    picks = [lo + int((j + rng.random()) * width) for j in range(n)]
    return [min(hi, int(p)) for p in rng.permutation(picks)]


def _scan_six_site_round(rng: np.random.Generator) -> list[Request]:
    n = 8
    steps = _stratified_ints(rng, 300, 1001, n)
    on_crossing = set(rng.permutation(n)[:2])
    sorted_out = set(rng.permutation(n)[:2])
    out = []
    for j in range(n):
        s = steps[j]
        if j in on_crossing:
            below_max = int((1.0 - SIX_SITE_WINDOW[0]) / ON_CROSSING_STEP) - 1
            above_max = int((SIX_SITE_WINDOW[1] - 1.0) / ON_CROSSING_STEP) - 1
            i = int(rng.integers(max(1, s - 1 - above_max), min(below_max, s - 2) + 1))
            lo = 1.0 - i * ON_CROSSING_STEP
            hi = 1.0 + (s - 1 - i) * ON_CROSSING_STEP
        else:
            lo = float(rng.uniform(0.06, 1.5))
            hi = float(rng.uniform(lo + 0.5, 2.99))
        out.append(scan_request("six-site", lo, hi, s, sorted_output=j in sorted_out))
    return out


def _fermi_round(rng: np.random.Generator, round_index: int, svg_dir: str) -> list[Request]:
    # Every particle number once with an asymmetric window and twice with a
    # window symmetric about 0: once with an odd step count, which puts
    # lambda = 0 on the grid, and once with an even one, which makes it the
    # midpoint of the middle interval.  Symmetric windows use a dyadic grid
    # step, so those points are exactly 0.  Both kinds fail on some particle
    # numbers (ROADMAP item 4b) and are kept on purpose.
    # Step counts are stratified within each kind of window, so every kind
    # covers 41-101 evenly in every round.
    kinds = ("odd", "even", "asym")
    strata = [(p, kind) for kind in kinds for p in range(1, 7)]
    steps = [s for _ in kinds for s in _stratified_ints(rng, 41, 101, 6)]
    svg = set(rng.permutation(len(strata))[:3])
    out = []
    for j, (p, kind) in enumerate(strata):
        s = steps[j]
        if kind == "asym":
            lo = float(rng.uniform(-0.94, 0.6))
            hi = float(rng.uniform(lo + 0.3, 0.94))
        else:
            if (s % 2 == 1) != (kind == "odd"):
                s = s + 1 if s < 101 else s - 1
            hi = (s - 1) * SYMMETRIC_STEPS[int(rng.integers(len(SYMMETRIC_STEPS)))] / 2
            lo = -hi
        prefix = os.path.join(svg_dir, f"r{round_index}-{j}") if j in svg else None
        out.append(fermi_request("oscillator", p, lo, hi, s, svg_prefix=prefix))
    return [out[k] for k in rng.permutation(len(out))]


def _large_basis_round(rng: np.random.Generator) -> list[Request]:
    out = []
    for nmax in LARGE_NMAX:
        out.append(point_request("check", "oscillator", 0.0, nmax))
        out.append(point_request("check", "oscillator", float(rng.uniform(-0.9, 0.9)), nmax))
        out.append(point_request("classify", "oscillator", float(rng.uniform(-0.9, 0.9)), nmax))
        steps = LARGE_SCAN_STEPS[nmax]
        width = (steps - 1) * float(rng.uniform(*LARGE_SCAN_SPACING))
        lo = float(rng.uniform(-0.9, 0.9 - width))
        out.append(scan_request("oscillator", lo, lo + width, steps, nmax=nmax))
    return [out[k] for k in rng.permutation(len(out))]


def rounds(workload: str, seed: int, svg_dir: str) -> Iterator[list[Request]]:
    """Endless seeded rounds of requests for one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    r = 0
    while True:
        if workload == "scan-six-site":
            yield _scan_six_site_round(rng)
        elif workload == "fermi-oscillator":
            yield _fermi_round(rng, r, svg_dir)
        else:
            yield _large_basis_round(rng)
        r += 1


def warmup_request(workload: str) -> Request:
    """A small request of the workload's kind, run before timing starts."""
    if workload == "scan-six-site":
        return scan_request("six-site", 0.3, 1.7, 200)
    if workload == "fermi-oscillator":
        return fermi_request("oscillator", 2, 0.1, 0.7, 21)
    return point_request("check", "oscillator", 0.1, 16)


# The probe suite: fixed requests appended to every traced run.  Together they
# touch every layer, and they reproduce the figures quoted in ROADMAP.md.
ROTATE40_NMAX = 40
ROTATE40_LAMBDA = 0.3


def probe_requests(svg_dir: str) -> dict[str, Request]:
    return {
        "scan1001": scan_request("six-site", 0.2, 2.0, 1001),
        "fermi101": fermi_request("oscillator", 3, -0.9, 0.9, 101,
                                  svg_prefix=os.path.join(svg_dir, "probe")),
        "crossings37": crossings_request("six-site", 2, 0.2, 2.0, 37),
        "check1": point_request("check", "six-site", 1.0),
    }
