"""Tests of the benchmark itself: tracer completeness, references, generators.

Run from the repository root with ``python3 -m pytest bench -q``.  The probe
counts (107 eigendecompositions, 861 expectation values) are those of the
current crossing search and rotation; a change that alters either algorithm
changes them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hftkit  # noqa: E402
import hftkit.cli  # noqa: E402

import run as bench  # noqa: E402
from reference import Mismatch, References  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import (  # noqa: E402
    ON_CROSSING_STEP,
    WORKLOADS,
    point_request,
    probe_requests,
    rounds,
    scan_request,
    fermi_request,
)


@pytest.fixture
def traced():
    tracer = Tracer()
    installation = install(tracer)
    try:
        yield bench.Runner(hftkit.cli, References(), tracer)
    finally:
        installation.uninstall()


@pytest.fixture
def runner():
    return bench.Runner(hftkit.cli, References())


def test_crossing_probe_counts_every_eigendecomposition(traced, tmp_path):
    rec = traced.run(probe_requests(str(tmp_path))["crossings37"])
    assert rec.failure is None
    s = traced.tracer.summary({rec.request_id})
    assert s["spectral.eigh"]["calls"] == 107
    assert s["counts"]["fermi.find_crossings.eigh_calls"] == 107
    assert s["counts"]["spectral.lapack.matrices"] == 107


def test_rotation_probe_counts_every_expectation(traced):
    traced.tracer.request = 0
    model = hftkit.models.build_model("oscillator", nmax=40)
    rot = hftkit.hft.rotated_spectrum(model, 0.3)
    traced.tracer.request = -1
    s = traced.tracer.summary({0})
    assert s["counts"]["hft.expectation.calls"] == 861
    assert s["counts"]["spectral.lapack.matrices"] == s["spectral.eigh"]["calls"] == 1
    traced.refs.check_rotation(40, 0.3, rot)


def test_lapack_matrices_equal_eigh_calls_on_every_workload(traced, tmp_path):
    ids = set()
    for workload in WORKLOADS:
        first = next(rounds(workload, 7, str(tmp_path)))
        small = sorted(first, key=lambda r: r.work)[:3]
        ids |= {traced.run(req).request_id for req in small}
    s = traced.tracer.summary(ids)
    assert s["spectral.eigh"]["calls"] > 0
    assert s["counts"]["spectral.lapack.matrices"] == s["spectral.eigh"]["calls"]


def _bindings():
    mods = [m for n, m in sys.modules.items() if n == "hftkit" or n.startswith("hftkit.")]
    out = {(id(m), k): v for m in mods for k, v in vars(m).items()}
    for cls in (hftkit.spectral.ParametricModel, hftkit.cli.CsvTable,
                hftkit.hft.RotatedSpectrum, hftkit.models.OscillatorAnalytic):
        out.update({(id(cls), k): v for k, v in vars(cls).items()})
    out[("numpy.linalg", "eigh")] = np.linalg.eigh
    return out


def test_uninstall_restores_every_binding():
    before = _bindings()
    installation = install(Tracer())
    assert not installation.missing
    assert np.linalg.eigh is not before[("numpy.linalg", "eigh")]
    installation.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracing_leaves_output_unchanged(runner, traced, tmp_path):
    for req in (scan_request("six-site", 0.5, 1.5, 41),
                fermi_request("oscillator", 2, 0.1, 0.7, 15),
                point_request("classify", "oscillator", 0.4, 6)):
        plain = runner.execute(req)[1]
        assert traced.execute(req)[1] == plain


def test_rounds_are_seeded(tmp_path):
    for workload in WORKLOADS:
        a, b = rounds(workload, 3, str(tmp_path)), rounds(workload, 3, str(tmp_path))
        first = [r.argv for _ in range(2) for r in next(a)]
        assert first == [r.argv for _ in range(2) for r in next(b)]
        other = next(rounds(workload, 4, str(tmp_path)))
        assert [r.argv for r in other] != first[:len(other)]


def test_scan_rounds_cover_their_strata(tmp_path):
    stream = rounds("scan-six-site", 5, str(tmp_path))
    for _ in range(3):
        batch = next(stream)
        assert all(300 <= r.n_lambda <= 1001 and 0.05 < r.lam_lo < r.lam_hi < 3 for r in batch)
        on_crossing = [r for r in batch if np.any(r.grid() == 1.0)]
        assert len(on_crossing) >= 2
        assert sum(r.sorted_output for r in batch) == 2
    assert ON_CROSSING_STEP == 2.0 ** -9


def test_fermi_rounds_keep_exactly_symmetric_windows(tmp_path):
    batch = next(rounds("fermi-oscillator", 5, str(tmp_path)))
    assert sorted(r.n_particles for r in batch) == sorted(list(range(1, 7)) * 3)
    assert all(-0.95 < r.lam_lo < r.lam_hi < 0.95 and 41 <= r.n_lambda <= 101 for r in batch)
    assert sum(r.svg_prefix is not None for r in batch) == 3
    symmetric = [r for r in batch if r.lam_lo == -r.lam_hi]
    assert {(r.n_particles, r.n_lambda % 2) for r in symmetric} == {
        (p, parity) for p in range(1, 7) for parity in (0, 1)}
    for r in symmetric:
        grid = r.grid()
        assert np.array_equal(grid, -grid[::-1])
        assert (0.0 in grid) == (r.n_lambda % 2 == 1)


def _corrupt(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


def test_references_accept_right_and_reject_wrong_outputs(runner, tmp_path):
    refs = References()
    cases = [
        (scan_request("six-site", 0.5, 1.5, 41), lambda t: _corrupt(t, ",-1,", ",-1.000001,")),
        (scan_request("six-site", 0.5, 1.5, 41), lambda t: t + "1,x\n"),
        (scan_request("oscillator", -0.2, 0.3, 5, nmax=8),
         lambda t: t.replace(t.splitlines()[2].split(",")[-1], "0.5", 1)),
        (fermi_request("oscillator", 2, -0.5, 0.5, 11),
         lambda t: _corrupt(t, t.splitlines()[6].split(",")[2], "0.125")),
        (point_request("classify", "oscillator", 0.4, 6),
         lambda t: _corrupt(t, " A1\n", " B2\n")),
        (point_request("check", "oscillator", 0.0, 10),
         lambda t: _corrupt(t, "PASS", "FAIL")),
        (point_request("check", "oscillator", 0.35, 10),
         lambda t: "\n".join(t.splitlines()[:-5] + t.splitlines()[-1:]) + "\n"),
    ]
    for req, corrupt in cases:
        rec, out, _ = runner.execute(req)
        assert rec.failure is None
        refs.check(req, rec.code, out)
        with pytest.raises(Mismatch):
            refs.check(req, rec.code, corrupt(out))


def test_check_verdict_is_not_a_failure(runner):
    rec = runner.run(point_request("check", "oscillator", 0.5, 20))
    assert rec.code == 1 and rec.failure is None


def test_failures_are_named(runner):
    rec = runner.run(point_request("check", "oscillator", 2.0, 8))
    assert rec.code == 2
    kind, exc, message = rec.failure
    assert (kind, exc) == ("error", "ValueError") and "outside" in message
    (group,) = bench.failure_summary([rec])
    assert group.startswith("error ValueError: lambda=# outside")


def test_end_to_end_reports_reference_seconds():
    req = scan_request("six-site", 0.5, 1.5, 11)
    times = [0.1 * (i + 1) for i in range(30)]
    records = [bench.Record(req, i, t, 0, kernel_s=0.02) for i, t in enumerate(times)]
    values, info = bench.end_to_end(records, [0.3] * 5)
    assert info["reference_s_per_s"] == 0.5
    assert info["latency_tail_percentile"] == pytest.approx(100 * 20 / 30)
    assert values["setup_s"] == pytest.approx(0.15)
    assert values["latency_p50_ms"] == pytest.approx(0.5 * 1550.0)
    assert values["latency_tail_ms"] == pytest.approx(0.5 * 2000.0)
    assert values["work_per_s"] == pytest.approx(6 * 11 * 30 / (0.5 * sum(times)))
    assert values["success_frac"] == 1.0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in bench.PER_LAYER.items()]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan-six-site",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
