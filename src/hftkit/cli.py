"""Command-line front end: lambda scans, slope-identity checks, fermionic
ground-state curves with cusp resolution, symmetry classification, and
crossing search, emitted as full-precision CSV and deterministic SVG.

Exit codes: 0 success, 1 numeric or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .fermi import FillingSpec, cusp_report, find_crossings, ground_state_curve
from .hft import hft_basis, hft_report, sweep
from .models import (
    DEFAULT_OSC_NMAX,
    DEFAULT_OSC_OMEGA,
    MODEL_NAMES,
    MODEL_SUMMARIES,
    build_model,
)
from .spectral import DEFAULT_FD_STEP, TrackingError, match_columns
from .svgplot import line_plot
from .symmetry import _labels

CHECK_THRESHOLD = 1e-6


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@dataclass
class CsvTable:
    """Rectangular numeric table with full-precision rendering.

    Values are written with 17 significant digits (lossless for doubles),
    '.' decimal separator, comma-separated, newline-terminated.  Comment
    lines (leading '#') ride along after the data rows.
    """

    header: tuple[str, ...]
    rows: list[tuple[float, ...]] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.header = tuple(self.header)
        rows, self.rows = self.rows, []
        for row in rows:
            self.append(row)

    def append(self, row) -> None:
        row = tuple(map(float, row))
        if len(row) != len(self.header):
            raise ValueError("ragged row: every row must match the header width")
        self.rows.append(row)

    def render(self) -> str:
        # "%.17g" is the formatter of _fmt, applied to a whole row at once.
        row_format = ",".join(["%.17g"] * len(self.header))
        lines = [",".join(self.header)]
        lines.extend(row_format % row for row in self.rows)
        lines.extend(self.comments)
        return "\n".join(lines) + "\n"

    def column(self, name: str) -> np.ndarray:
        idx = self.header.index(name)
        return np.array([row[idx] for row in self.rows])

    @classmethod
    def parse(cls, text: str) -> "CsvTable":
        header: Optional[tuple[str, ...]] = None
        rows: list[tuple[float, ...]] = []
        comments: list[str] = []
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = tuple(line.split(","))
            else:
                rows.append(tuple(float(v) for v in line.split(",")))
        if header is None:
            raise ValueError("no header line found")
        return cls(header=header, rows=rows, comments=comments)


@dataclass
class ScanConfig:
    """Everything a grid run needs; built from parsed CLI flags, and the one
    home of their defaults (the parser sets none)."""

    model: str
    omega: float = DEFAULT_OSC_OMEGA
    nmax: int = DEFAULT_OSC_NMAX
    lam_lo: float = 0.0
    lam_hi: float = 1.0
    steps: int = 101
    slopes: bool = False
    sorted_output: bool = False
    tol_deg: Optional[float] = None
    fd_step: float = DEFAULT_FD_STEP
    n_particles: Optional[int] = None
    out: Optional[str] = None
    svg: Optional[str] = None

    def grid(self) -> np.ndarray:
        if self.steps < 2:
            raise ValueError("need --steps >= 2")
        if not (self.lam_lo < self.lam_hi):
            raise ValueError("need --lmin < --lmax")
        return np.linspace(self.lam_lo, self.lam_hi, self.steps)

    def build(self):
        return build_model(self.model, omega=self.omega, nmax=self.nmax)


def run_scan(config: ScanConfig) -> CsvTable:
    """Eigenvalues (and optionally slopes) over a lambda grid.

    Columns follow tracked branches through crossings by default, so a
    crossing shows up as two columns exchanging sorted positions rather
    than being smoothed over; --sorted restores plain ascending output.
    """
    model = config.build()
    grid = config.grid()
    header = ["lambda"] + [f"e{k}" for k in range(model.dim)]
    if config.slopes:
        header += [f"slope{k}" for k in range(model.dim)]
    table = CsvTable(header=tuple(header))

    branch_vectors: Optional[np.ndarray] = None
    prev_lam: Optional[float] = None
    # Identity order for --sorted and for the first tracked point.
    perm = np.arange(model.dim)
    signs = np.ones(model.dim)
    for rot in sweep(model, grid, config.tol_deg):
        lam = rot.lam
        if not config.sorted_output:
            vectors = rot.eigenvectors
            if branch_vectors is not None:
                try:
                    perm, signs = match_columns(branch_vectors, vectors)
                except TrackingError as exc:
                    raise TrackingError(
                        f"eigenpair tracking is ambiguous in [{prev_lam:.12g}, {lam:.12g}]; "
                        f"rerun with more --steps"
                    ) from exc
            branch_vectors = vectors[:, perm] * signs
            prev_lam = lam
        row = [lam, *rot.eigenvalues[perm].tolist()]
        if config.slopes:
            row += rot.cluster_slopes[perm].tolist()
        table.append(row)
    return table


def run_fermi(config: ScanConfig) -> tuple[CsvTable, dict[str, str]]:
    """Ground-energy curve, cusp metadata, and the optional SVG pair."""
    if config.n_particles is None:
        raise ValueError("fermi requires --np")
    model = config.build()
    fill = FillingSpec(config.n_particles)
    # Kept whole: a cusp on a grid point is read from that point, not rotated again.
    points = list(sweep(model, config.grid(), config.tol_deg))
    curve = ground_state_curve(model, points, fill)

    table = CsvTable(header=("lambda", "E0", "dE0"))
    for lam, e0, de0 in zip(curve.lambdas, curve.energies, curve.slopes):
        table.append((lam, e0, de0))

    on_grid = {rot.lam: rot for rot in points}
    cusps = [
        cusp_report(model, on_grid.get(lam0, lam0), fill, config.tol_deg)
        for lam0 in find_crossings(model, points, fill)
    ]
    for c in cusps:
        table.comments.append(
            f"# cusp,{_fmt(c.lambda0)},{_fmt(c.slope_left)},{_fmt(c.slope_right)}"
        )

    svgs: dict[str, str] = {}
    if config.svg is not None:
        xs = list(curve.lambdas)
        svgs[f"{config.svg}_energy.svg"] = line_plot(
            xs, list(curve.energies), title="ground-state energy",
            xlabel="lambda", ylabel="E0",
        )
        markers = [(c.lambda0, c.slope_left) for c in cusps]
        markers += [(c.lambda0, c.slope_right) for c in cusps]
        svgs[f"{config.svg}_slope.svg"] = line_plot(
            xs, list(curve.slopes), title="ground-state energy slope",
            xlabel="lambda", ylabel="dE0", markers=markers,
        )
    return table, svgs


def run_check(config: ScanConfig, lam: float) -> tuple[int, str]:
    """Slope-identity report at one lambda; exit 0 iff the worst residual
    stays under the threshold."""
    model = config.build()
    report = hft_report(model, lam, tol=config.tol_deg, h=config.fd_step)
    lines = [f"model {model.name} at lambda={lam:.12g}"]
    for r in report.records:
        lines.append(
            f"state {r.index:3d}: lhs={r.lhs: .12e} reference={r.reference: .12e} "
            f"residual={r.residual:.3e}"
        )
    for w in report.warnings:
        lines.append(f"warning: {w}")
    ok = report.worst_residual <= CHECK_THRESHOLD
    lines.append(
        f"worst residual {report.worst_residual:.3e} "
        f"{'<=' if ok else '>'} threshold {CHECK_THRESHOLD:g}: {'PASS' if ok else 'FAIL'}"
    )
    return (0 if ok else 1), "\n".join(lines) + "\n"


def run_classify(config: ScanConfig, lam: float) -> str:
    """Irrep label per state, ascending in eigenvalue; MIXED where the
    state matches no irrep row."""
    model = config.build()
    if model.symmetry is None or model.character_table is None:
        raise ValueError(f"model {model.name!r} carries no symmetry representation")
    basis = hft_basis(model.spectrum(lam), model.derivative(lam), config.tol_deg)
    _, labels = _labels(basis.eigenvectors, model.symmetry, model.character_table)
    lines = [
        f"{k} {_fmt(e)} {label or 'MIXED'}"
        for k, (e, label) in enumerate(zip(basis.eigenvalues, labels))
    ]
    return "\n".join(lines) + "\n"


def run_crossings(config: ScanConfig) -> str:
    if config.n_particles is None:
        raise ValueError("crossings requires --np")
    model = config.build()
    fill = FillingSpec(config.n_particles)
    found = find_crossings(model, sweep(model, config.grid(), config.tol_deg), fill)
    return "".join(f"{_fmt(lam0)}\n" for lam0 in found)


def run_models() -> str:
    lines = [f"{name}: {MODEL_SUMMARIES[name]}" for name in MODEL_NAMES]
    return "\n".join(lines) + "\n"


def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--model", required=True, choices=MODEL_NAMES)
    sp.add_argument("--omega", type=float, help="oscillator frequency")
    sp.add_argument("--nmax", type=int, help="oscillator shell cutoff")
    sp.add_argument("--tol-deg", type=float, dest="tol_deg",
                    help="degeneracy clustering tolerance (default: adaptive)")


def _add_grid_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--lmin", type=float, required=True, dest="lam_lo")
    sp.add_argument("--lmax", type=float, required=True, dest="lam_hi")
    sp.add_argument("--steps", type=int)


class _FloatLiteral:
    """Tells argparse which dash-led arguments are numbers, not options:
    every string float() reads.  argparse's own pattern knows only -\\d+ and
    -\\d*.\\d+, so it took -1e-3 or -inf for an unknown option."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the parser class of its subcommands, that
    reads any negative float, exponent form included, as an option value.
    An option left out is left out of the namespace too, so its default
    comes from ``ScanConfig``."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("argument_default", argparse.SUPPRESS)
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _FloatLiteral()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hftkit",
        description="spectra, slope identities, symmetry labels, and fermionic "
        "ground-state cusps of parameter-dependent symmetric operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="tracked eigenvalue branches over a lambda grid")
    _add_model_flags(scan)
    _add_grid_flags(scan)
    scan.add_argument("--slopes", action="store_true", help="append per-branch slope columns")
    scan.add_argument("--sorted", action="store_true", dest="sorted_output",
                      help="plain ascending columns instead of tracked branches")
    scan.add_argument("--out", help="CSV output path (default stdout)")

    fermi = sub.add_parser("fermi", help="filled-fermion ground energy and cusp slopes")
    _add_model_flags(fermi)
    _add_grid_flags(fermi)
    fermi.add_argument("--np", type=int, required=True, dest="n_particles")
    fermi.add_argument("--out")
    fermi.add_argument("--svg",
                       help="prefix for the <prefix>_energy.svg / <prefix>_slope.svg pair")

    check = sub.add_parser("check", help="slope-identity residual report at one lambda")
    _add_model_flags(check)
    check.add_argument("--fd-step", type=float, dest="fd_step")
    check.add_argument("--lambda", type=float, required=True, dest="lam")

    classify = sub.add_parser("classify", help="irrep label per state at one lambda")
    _add_model_flags(classify)
    classify.add_argument("--lambda", type=float, required=True, dest="lam")

    crossings = sub.add_parser("crossings", help="frontier level crossings in a window")
    _add_model_flags(crossings)
    _add_grid_flags(crossings)
    crossings.add_argument("--np", type=int, required=True, dest="n_particles")

    sub.add_parser("models", help="list the built-in model registry")
    return parser


def _config_from(args: argparse.Namespace) -> ScanConfig:
    given = vars(args)
    return ScanConfig(**{f.name: given[f.name] for f in fields(ScanConfig) if f.name in given})


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "models":
        sys.stdout.write(run_models())
        return 0
    config = _config_from(args)
    if args.command == "scan":
        _emit(run_scan(config).render(), config.out)
        return 0
    if args.command == "fermi":
        table, svgs = run_fermi(config)
        _emit(table.render(), config.out)
        for path, doc in svgs.items():
            Path(path).write_text(doc, encoding="ascii")
        return 0
    if args.command == "check":
        code, text = run_check(config, args.lam)
        sys.stdout.write(text)
        return code
    if args.command == "classify":
        sys.stdout.write(run_classify(config, args.lam))
        return 0
    if args.command == "crossings":
        sys.stdout.write(run_crossings(config))
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _dispatch(args)
    except TrackingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
