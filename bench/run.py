#!/usr/bin/env python3
"""hftkit benchmark: closed-loop CLI workloads with checked outputs.

One client in one process calls ``hftkit.cli.main(argv)`` in-process, sends
the next request only after the previous one returns, and checks every
output against references that do not use hftkit.  Run from the repository
root:

    python3 bench/run.py --workload scan-six-site --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

With ``--trace 0`` the last stdout line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced replay.  ``all`` runs every
workload in its own process, prints each metric with its unit, and exits
non-zero if any run was incorrect.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 15
# Reference time of the calibration kernel: times are reported in seconds of
# a machine on which the kernel takes this long.
CALIBRATION_REF_S = 0.010
CALIBRATION_WINDOW = 4

END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("success_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _span(name, field):
    return lambda s: s.get(name, {}).get(field, 0)


def _count(key):
    return lambda s: s["counts"].get(key, 0)


def _ratio(num, den):
    return lambda s: num(s) / max(1, den(s))


# name -> (unit, better, extractor over the traced summary).  Probe metrics
# are filled in from the probe requests' own summaries.
PER_LAYER = {
    "cli.request.calls": ("count", "lower", _span("cli.request", "calls")),
    "cli.request.self_s": ("s", "lower", _span("cli.request", "self_s")),
    "cli.render.calls": ("count", "lower", _span("cli.render", "calls")),
    "cli.render.self_s": ("s", "lower", _span("cli.render", "self_s")),
    "svgplot.line_plot.calls": ("count", "lower", _span("svgplot.line_plot", "calls")),
    "svgplot.line_plot.self_s": ("s", "lower", _span("svgplot.line_plot", "self_s")),
    "models.build.calls": ("count", "lower", _span("models.build", "calls")),
    "models.build.self_s": ("s", "lower", _span("models.build", "self_s")),
    "models.hamiltonian.calls": ("count", "lower", _span("models.hamiltonian", "calls")),
    "models.hamiltonian.self_s": ("s", "lower", _span("models.hamiltonian", "self_s")),
    "models.hamiltonian.per_lambda": (
        "calls/lambda", "lower", _ratio(_span("models.hamiltonian", "calls"), _count("lambdas"))),
    "models.oracle.calls": ("count", "lower", _span("models.oracle", "calls")),
    "models.oracle.self_s": ("s", "lower", _span("models.oracle", "self_s")),
    "spectral.spectrum.calls": ("count", "lower", _span("spectral.spectrum", "calls")),
    "spectral.spectrum.distinct_frac": (
        "ratio", "higher",
        _ratio(lambda s: s["distinct_spectrum_lambdas"], _span("spectral.spectrum", "calls"))),
    "spectral.eigh.calls": ("count", "lower", _span("spectral.eigh", "calls")),
    "spectral.eigh.self_s": ("s", "lower", _span("spectral.eigh", "self_s")),
    "spectral.eigh.per_lambda": (
        "calls/lambda", "lower", _ratio(_span("spectral.eigh", "calls"), _count("lambdas"))),
    "spectral.lapack.matrices": ("count", "lower", _count("spectral.lapack.matrices")),
    "spectral.lapack.self_s": ("s", "lower", _span("spectral.lapack", "self_s")),
    "spectral.lapack.work_d3": ("count", "lower", _count("spectral.lapack.work_d3")),
    "spectral.match_columns.calls": ("count", "lower", _span("spectral.match_columns", "calls")),
    "spectral.match_columns.self_s": ("s", "lower", _span("spectral.match_columns", "self_s")),
    "hft.rotate.calls": ("count", "lower", _span("hft.rotate", "calls")),
    "hft.rotate.self_s": ("s", "lower", _span("hft.rotate", "self_s")),
    "hft.expectation.calls": ("count", "lower", _count("hft.expectation.calls")),
    "hft.rotated_eigenvectors.calls": (
        "count", "lower", _span("hft.rotated_eigenvectors", "calls")),
    "hft.rotated_eigenvectors.self_s": ("s", "lower", _span("hft.rotated_eigenvectors", "self_s")),
    "hft.report.calls": ("count", "lower", _span("hft.report", "calls")),
    "hft.report.self_s": ("s", "lower", _span("hft.report", "self_s")),
    "fermi.ground_state_curve.calls": (
        "count", "lower", _span("fermi.ground_state_curve", "calls")),
    "fermi.ground_state_curve.self_s": ("s", "lower", _span("fermi.ground_state_curve", "self_s")),
    "fermi.find_crossings.calls": ("count", "lower", _span("fermi.find_crossings", "calls")),
    "fermi.find_crossings.self_s": ("s", "lower", _span("fermi.find_crossings", "self_s")),
    "fermi.find_crossings.eigh_calls": (
        "count", "lower", _count("fermi.find_crossings.eigh_calls")),
    "fermi.find_crossings.eigh_per_crossing": (
        "calls/crossing", "lower",
        _ratio(_count("fermi.find_crossings.eigh_calls"),
               _count("fermi.find_crossings.crossings"))),
    "fermi.cusp_report.calls": ("count", "lower", _span("fermi.cusp_report", "calls")),
    "fermi.cusp_report.self_s": ("s", "lower", _span("fermi.cusp_report", "self_s")),
    "fermi.ground_energy.calls": ("count", "lower", _count("fermi.ground_energy.calls")),
    "symmetry.classify_vector.calls": (
        "count", "lower", _span("symmetry.classify_vector", "calls")),
    "symmetry.classify_vector.self_s": ("s", "lower", _span("symmetry.classify_vector", "self_s")),
    "trace.overhead_frac": ("ratio", "lower", None),
    # The ROADMAP figures, each from one fixed probe request.
    "probe.scan1001.rotated_spectrum_s": ("s", "lower", _span("hft.rotated_spectrum", "total_s")),
    "probe.fermi101.request_s": ("s", "lower", _span("cli.request", "total_s")),
    "probe.fermi101.spectrum_calls": ("count", "lower", _span("spectral.spectrum", "calls")),
    "probe.fermi101.distinct_lambdas": ("count", "lower", lambda s: s["distinct_spectrum_lambdas"]),
    "probe.crossings37.eigh_calls": ("count", "lower", _span("spectral.eigh", "calls")),
    "probe.rotate40.rotated_spectrum_s": ("s", "lower", _span("hft.rotated_spectrum", "total_s")),
    "probe.rotate40.lapack_s": ("s", "lower", _span("spectral.lapack", "total_s")),
    "probe.rotate40.expectation_calls": ("count", "lower", _count("hft.expectation.calls")),
}


@dataclass
class Record:
    """One executed request."""

    request: object
    request_id: int
    seconds: float
    code: Optional[int]
    failure: Optional[tuple[str, str, str]] = None  # (kind, exception class, message)
    kernel_s: Optional[float] = None  # calibration kernel time just before the request


def blas_threads() -> Optional[int]:
    """OpenBLAS's thread count, read through its C API when it is loadable."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(nproc: int) -> dict:
    import importlib.util
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "nproc": nproc,
        "blas_threads_exceed_nproc": threads is not None and threads > nproc,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
    }


def measure_setup() -> list[float]:
    """Seconds to import numpy and hftkit in fresh interpreters; the first
    child only warms the file cache."""
    code = ("import sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "t = time.perf_counter()\n"
            "import numpy, hftkit\n"
            "print(time.perf_counter() - t)\n"
            "print(hftkit.__file__)\n")
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        seconds, where = done.stdout.split("\n")[:2]
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"setup child imported hftkit from {where}")
        times.append(float(seconds))
    return times[1:]


class Calibration:
    """A fixed piece of interpreter and LAPACK work that does not use hftkit,
    timed before every request and off the clock.  The shared machine's speed
    drifts by up to 2x within minutes; the kernel times around a request
    measure the speed it ran at."""

    def __init__(self) -> None:
        import numpy as np

        a = np.random.default_rng(0).standard_normal((48, 48))
        self.matrix = a + a.T
        self.eigh = np.linalg.eigh

    def measure(self) -> float:
        t0 = time.perf_counter()
        table: dict[int, float] = {}
        for i in range(20000):
            table[i % 97] = table.get(i % 97, 0.0) + 0.5 * i
        for _ in range(20):
            self.eigh(self.matrix)
        return time.perf_counter() - t0


def reference_factors(records: list[Record]) -> list[float]:
    """Reference seconds per measured second for each request: the reference
    kernel time over the median kernel time of the request and its
    CALIBRATION_WINDOW neighbours on each side."""
    kernel = [r.kernel_s for r in records]
    w = CALIBRATION_WINDOW
    return [CALIBRATION_REF_S / statistics.median(kernel[max(0, i - w):i + w + 1])
            for i in range(len(kernel))]


def _first_line(text: str) -> str:
    lines = str(text).strip().splitlines()
    return lines[0] if lines else ""


class Runner:
    """Executes requests in-process and checks their outputs."""

    def __init__(self, cli, refs, tracer=None, calibration=None):
        self.cli = cli
        self.refs = refs
        self.tracer = tracer
        self.calibration = calibration
        self.next_id = 0
        self.diagnosed: dict[str, str] = {}  # masked message -> exception class

    def execute(self, req) -> tuple[Record, str, str]:
        rid = self.next_id
        self.next_id += 1
        out, err = io.StringIO(), io.StringIO()
        crash = None
        code = None
        if self.tracer is not None:
            self.tracer.request = rid
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(req.argv))
        except Exception as exc:  # escaped the CLI's own handlers: a failed request
            crash = exc
        seconds = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.request = -1
        rec = Record(req, rid, seconds, code)
        if crash is not None:
            rec.failure = ("crash", type(crash).__name__, _first_line(crash))
        return rec, out.getvalue(), err.getvalue()

    def diagnose(self, req, stderr: str) -> tuple[str, str, str]:
        """Name the exception behind an ``error:`` exit by replaying the
        request below the CLI's handlers, off the clock.  Messages that differ
        only in their numbers come from the same raise, so each is replayed
        once."""
        message = _first_line(stderr).removeprefix("error: ")
        key = mask_numbers(message)
        if key not in self.diagnosed:
            self.diagnosed[key] = "unknown"
            dispatch = getattr(self.cli, "_dispatch", None)
            parser = getattr(self.cli, "build_parser", None)
            if dispatch is not None and parser is not None:
                try:
                    args = parser().parse_args(list(req.argv))
                    with contextlib.redirect_stdout(io.StringIO()):
                        dispatch(args)
                except Exception as exc:
                    self.diagnosed[key] = type(exc).__name__
        return "error", self.diagnosed[key], message

    def run(self, req) -> Record:
        from reference import Mismatch

        kernel_s = self.calibration.measure() if self.calibration is not None else None
        rec, stdout, stderr = self.execute(req)
        rec.kernel_s = kernel_s
        if rec.failure is None:
            is_verdict = req.kind == "check" and rec.code == 1 and "error:" not in stderr
            if rec.code != 0 and not is_verdict:
                rec.failure = self.diagnose(req, stderr)
            else:
                try:
                    self.refs.check(req, rec.code, stdout)
                except Mismatch as exc:
                    rec.failure = ("mismatch", "Mismatch", str(exc))
        return rec

    def closed_loop(self, stream, seconds: float, min_rounds: int = 2) -> list[Record]:
        """Whole rounds, at least ``min_rounds``, until the round boundary
        nearest the time budget."""
        records: list[Record] = []
        elapsed = 0.0
        round_times = []
        while True:
            batch = [self.run(req) for req in next(stream)]
            records += batch
            round_times.append(sum(r.seconds for r in batch))
            elapsed += round_times[-1]
            if (len(round_times) >= min_rounds
                    and elapsed + statistics.fmean(round_times) / 2 >= seconds):
                return records


def mask_numbers(message: str) -> str:
    return re.sub(r"[-+]?\d[\d.eE+-]*", "#", message)


def failure_summary(records: list[Record]) -> dict[str, int]:
    """Failures grouped by kind, exception class and message with numbers masked."""
    groups: Counter = Counter()
    for r in records:
        if r.failure is not None:
            kind, exc, message = r.failure
            groups[f"{kind} {exc}: {mask_numbers(message)}"] += 1
    return dict(groups)


def end_to_end(records: list[Record], setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, with times in reference seconds, and the
    uncalibrated figures behind them."""
    factors = reference_factors(records)
    run_factor = statistics.median(factors)
    ok = [(r.seconds, f * r.seconds, r.request.work) for r, f in zip(records, factors)
          if r.failure is None]
    n = len(ok)
    # The highest rank with at least ten samples above it, but not below the
    # median when a run has fewer than 21 samples.
    tail_rank = max(n - 11, n // 2)
    work = sum(w for _, _, w in ok)

    def figures(times, total, setup_s):
        times = sorted(times)
        return {"setup_s": setup_s, "work_per_s": work / total,
                "latency_p50_ms": 1000.0 * statistics.median(times),
                "latency_tail_ms": 1000.0 * times[tail_rank]}

    values = figures([t for _, t, _ in ok], sum(f * r.seconds for r, f in zip(records, factors)),
                     run_factor * statistics.median(setup))
    values["success_frac"] = n / len(records)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        "latency_samples": n,
        "latency_tail_percentile": 100.0 * (tail_rank + 1) / n,
        "setup_samples": len(setup),
        "measured_s": sum(r.seconds for r in records),
        "reference_s_per_s": run_factor,
        "uncalibrated": figures([t for t, _, _ in ok], sum(r.seconds for r in records),
                                statistics.median(setup)),
    }
    return values, info


def run_probes(runner: Runner, tmp: str) -> tuple[list[Record], dict[str, int], int]:
    """Run the fixed probe suite under the tracer.  Returns the records,
    probe -> request id, and the number of lambda values the probes ask for."""
    from reference import Mismatch
    from workloads import ROTATE40_LAMBDA, ROTATE40_NMAX, Request, probe_requests

    records, ids = [], {}
    for name, req in probe_requests(tmp).items():
        records.append(runner.run(req))
        ids[name] = records[-1].request_id
    # One library rotation at nmax=40, outside the CLI.
    hftkit = sys.modules["hftkit"]
    req = Request(("rotated_spectrum", f"nmax={ROTATE40_NMAX}", f"lambda={ROTATE40_LAMBDA}"),
                  "rotate", "oscillator", ROTATE40_NMAX, 1)
    rec = Record(req, runner.next_id, 0.0, 0)
    runner.next_id += 1
    runner.tracer.request = rec.request_id
    t0 = time.perf_counter()
    try:
        model = hftkit.models.build_model("oscillator", nmax=ROTATE40_NMAX)
        rot = hftkit.hft.rotated_spectrum(model, ROTATE40_LAMBDA)
        rec.seconds = time.perf_counter() - t0
        runner.tracer.request = -1
        runner.refs.check_rotation(ROTATE40_NMAX, ROTATE40_LAMBDA, rot)
    except Mismatch as exc:
        rec.failure = ("mismatch", "Mismatch", str(exc))
    except Exception as exc:  # the library call itself failed
        rec.failure = ("crash", type(exc).__name__, _first_line(exc))
    finally:
        runner.tracer.request = -1
    records.append(rec)
    ids["rotate40"] = rec.request_id
    return records, ids, sum(r.request.n_lambda for r in records)


def per_layer(tracer, lambdas: int, overhead: float, probe_ids: dict[str, int]) -> dict:
    summary = tracer.summary()
    summary["counts"]["lambdas"] = lambdas
    probes = {name: tracer.summary({rid}) for name, rid in probe_ids.items()}
    values = {}
    for name, (_, _, extract) in PER_LAYER.items():
        if name == "trace.overhead_frac":
            values[name] = overhead
        elif name.startswith("probe."):
            values[name] = extract(probes[name.split(".")[1]])
        else:
            values[name] = extract(summary)
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool, nproc: int) -> dict:
    sys.path.insert(0, str(SRC))
    import hftkit
    import hftkit.cli

    if not Path(hftkit.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"hftkit imported from {hftkit.__file__}, not from {SRC}")
    from reference import References
    from tracer import Tracer, install
    from workloads import rounds, warmup_request

    env = environment(nproc)
    RESULTS.mkdir(exist_ok=True)
    result: dict = {"workload": workload, "seed": seed, "trace": int(trace), "env": env}
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        stream = rounds(workload, seed, tmp)
        runner = Runner(hftkit.cli, References())
        runner.run(warmup_request(workload))
        if not trace:
            setup = measure_setup()
            runner.calibration = Calibration()
            records = runner.closed_loop(stream, seconds)
            values, info = end_to_end(records, setup)
            units = dict(END_TO_END)
        else:
            # The untraced half fixes the request list and its wall time; the
            # traced replay of the same list gives spans and the overhead.
            untraced = runner.closed_loop(stream, seconds / 2, min_rounds=1)
            tracer = Tracer()
            runner.tracer = tracer
            installation = install(tracer)
            try:
                traced = [runner.run(r.request) for r in untraced]
                probes, probe_ids, probe_lambdas = run_probes(runner, tmp)
            finally:
                installation.uninstall()
            overhead = (sum(r.seconds for r in traced) / sum(r.seconds for r in untraced)) - 1.0
            lambdas = sum(r.request.n_lambda for r in traced) + probe_lambdas
            values = per_layer(tracer, lambdas, overhead, probe_ids)
            units = {name: spec[0] for name, spec in PER_LAYER.items()}
            info = {"unwrapped": installation.missing, "spans": len(tracer.start)}
            records = untraced + traced + probes
            tracer.save(RESULTS / f"spans-{workload}.npz")
    failures = [r for r in records if r.failure is not None]
    result.update({
        "correct": not any(r.failure[0] == "mismatch" for r in failures),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "info": info,
        "failure_kinds": failure_summary(records),
        "failures": [{"argv": list(r.request.argv), "kind": r.failure[0],
                      "exception": r.failure[1], "message": r.failure[2]} for r in failures],
        "requests": [[" ".join(r.request.argv), r.seconds, r.kernel_s, r.failure is None]
                     for r in records],
    })
    with open(RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict) -> None:
    env = result["env"]
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if env["blas_threads_exceed_nproc"]:
        print(f"# warning: BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs")
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"{json.dumps(result['info'])}")
    for kind, n in sorted(result["failure_kinds"].items()):
        print(f"# failure x{n}: {kind}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload in its own process; exit 1 if any run is incorrect."""
    from workloads import WORKLOADS

    status = 0
    combined = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(line + "\n" for line in done.stdout.splitlines()[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            print(f"{workload}: run failed with exit code {done.returncode}")
            status = 1
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        combined[workload] = result
        if not result["correct"]:
            status = 1
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(combined))
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="scan-six-site, fermi-oscillator, large-basis, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hftkit" / "__init__.py").is_file():
        print(f"error: no hftkit sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # One BLAS thread unless the caller chose otherwise; set before numpy is
    # first imported.  A second thread makes large-basis timings several times
    # less repeatable on a shared two-core machine.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(BENCH))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), nproc)
    report(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
