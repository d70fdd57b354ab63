"""Per-layer tracing of hftkit from outside the package.

``install`` replaces every public function of the layer modules (cli,
models, spectral, hft, fermi, symmetry, svgplot) in every hftkit namespace
that binds it, so a by-name import such as ``from .spectral import eigh`` in
``hft`` is wrapped too.  It also wraps ``ParametricModel.spectrum`` and
``.hamiltonian``, ``CsvTable.render``, the ``RotatedSpectrum.eigenvectors``
property, the oscillator oracle and ``numpy.linalg.eigh``.

A wrapper records a span (name, start, end, parent, request id) only while a
request is open.  Functions named in ``SPANS`` always open a span; other
public functions open one only when entered from a different layer, so a
layer's helpers count toward its own self time.  Functions named in
``COUNTED`` are counted, not timed.  Spans stay in memory in flat arrays and
are written out by ``save``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Optional

import numpy as np

LAYERS = ("cli", "models", "spectral", "hft", "fermi", "symmetry", "svgplot")

# (module, function) -> span name
SPANS = {
    ("cli", "main"): "cli.request",
    ("svgplot", "line_plot"): "svgplot.line_plot",
    ("models", "build_model"): "models.build",
    ("models", "six_site_analytic_eigenvalues"): "models.oracle",
    ("spectral", "eigh"): "spectral.eigh",
    ("spectral", "match_columns"): "spectral.match_columns",
    ("hft", "hft_consistent_basis"): "hft.rotate",
    ("hft", "hft_report"): "hft.report",
    ("fermi", "ground_state_curve"): "fermi.ground_state_curve",
    ("fermi", "find_crossings"): "fermi.find_crossings",
    ("fermi", "cusp_report"): "fermi.cusp_report",
    ("symmetry", "classify_vector"): "symmetry.classify_vector",
}
# (module, class, attribute) -> span name; the layer is the name's prefix.
METHOD_SPANS = {
    ("spectral", "ParametricModel", "hamiltonian"): "models.hamiltonian",
    ("spectral", "ParametricModel", "spectrum"): "spectral.spectrum",
    ("cli", "CsvTable", "render"): "cli.render",
    ("hft", "RotatedSpectrum", "eigenvectors"): "hft.rotated_eigenvectors",
    ("models", "OscillatorAnalytic", "sorted_eigenvalues"): "models.oracle",
}
COUNTED = {
    ("hft", "expectation"): "hft.expectation",
    ("fermi", "ground_energy"): "fermi.ground_energy",
}
LAPACK = "spectral.lapack"


class Tracer:
    """Spans and counters of the requests run while it is installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request_counts: dict[int, Counter] = defaultdict(Counter)
        self.spectrum_lambdas: dict[int, set] = defaultdict(set)
        self.request = -1  # id of the open request; -1 records nothing
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._open = Counter()

    # --- recording ---------------------------------------------------------

    def _open_span(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request_of.append(self.request)
        self.end.append(0.0)
        self._stack.append(idx)
        self._layers.append(layer)
        self._open[name] += 1
        self.start.append(time.perf_counter())
        return idx

    def _close_span(self, idx: int, name: str) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._layers.pop()
        self._open[name] -= 1

    def count(self, key: str, n: int = 1) -> None:
        self.request_counts[self.request][key] += n

    def span_wrapper(self, fn: Callable, name: str, always: bool,
                     before: Optional[Callable] = None,
                     after: Optional[Callable] = None) -> Callable:
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request < 0 or (not always and self._layers and self._layers[-1] == layer):
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = self._open_span(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close_span(idx, name)
            if after is not None:
                after(result)
            return result

        return wrapper

    def count_wrapper(self, fn: Callable, name: str) -> Callable:
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request >= 0:
                self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    # --- hooks ---------------------------------------------------------------

    def _before_eigh(self, args, kwargs) -> None:
        if self._open["fermi.find_crossings"]:
            self.count("fermi.find_crossings.eigh_calls")

    def _before_lapack(self, args, kwargs) -> None:
        a = args[0] if args else kwargs["a"]
        shape = np.shape(a)
        batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
        self.count(LAPACK + ".matrices", batch)
        self.count(LAPACK + ".work_d3", batch * int(shape[-1]) ** 3)

    def _before_spectrum(self, args, kwargs) -> None:
        lam = args[1] if len(args) > 1 else kwargs["lam"]
        self.spectrum_lambdas[self.request].add(float(lam))

    def _after_find_crossings(self, result) -> None:
        self.count("fermi.find_crossings.crossings", len(result))

    # --- summaries -----------------------------------------------------------

    def summary(self, requests: Optional[set] = None) -> dict:
        """Per-name calls, inclusive and self seconds, and counters, over the
        given request ids (all when None)."""
        n = len(self.start)
        names = np.frombuffer(self.name_id, dtype=np.int32)[:n] if n else np.zeros(0, int)
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n] if n else np.zeros(0, int)
        req = np.frombuffer(self.request_of, dtype=np.int32)[:n] if n else np.zeros(0, int)
        dur = (np.frombuffer(self.end)[:n] - np.frombuffer(self.start)[:n]) if n else np.zeros(0)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        keep = np.ones(n, bool) if requests is None else np.isin(req, list(requests))
        k = len(self.names)
        calls = np.bincount(names[keep], minlength=k)
        total = np.bincount(names[keep], weights=dur[keep], minlength=k)
        own = np.bincount(names[keep], weights=self_time[keep], minlength=k)
        out: dict = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "total_s": float(total[i]),
                         "self_s": float(own[i])}
        counts = Counter()
        for rid, c in self.request_counts.items():
            if requests is None or rid in requests:
                counts.update(c)
        lambdas = sum(len(s) for rid, s in self.spectrum_lambdas.items()
                      if requests is None or rid in requests)
        out["counts"] = dict(counts)
        out["distinct_spectrum_lambdas"] = lambdas
        return out

    def save(self, path) -> None:
        n = len(self.start)
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32)[:n],
                 parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
                 request=np.frombuffer(self.request_of, dtype=np.int32)[:n],
                 start=np.frombuffer(self.start)[:n], end=np.frombuffer(self.end)[:n])


class Installation:
    """The replaced attributes, restorable with ``uninstall``."""

    def __init__(self) -> None:
        self.replaced: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def set(self, owner, attr: str, value) -> None:
        self.replaced.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self.replaced:
            owner, attr, original = self.replaced.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installation:
    """Wrap hftkit for ``tracer``; hftkit and its layer modules must be imported."""
    inst = Installation()
    modules = {name: mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "hftkit" or name.startswith("hftkit."))}
    hooks_before = {"spectral.eigh": tracer._before_eigh,
                    "spectral.spectrum": tracer._before_spectrum}
    hooks_after = {"fermi.find_crossings": tracer._after_find_crossings}

    wrappers: dict[int, tuple[Callable, Callable]] = {}  # id -> (original, wrapper)
    for layer in LAYERS:
        mod = modules.get(f"hftkit.{layer}")
        if mod is None:
            inst.missing.append(f"hftkit.{layer}")
            continue
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if (layer, attr) in COUNTED:
                wrappers[id(fn)] = (fn, tracer.count_wrapper(fn, COUNTED[(layer, attr)]))
                continue
            name = SPANS.get((layer, attr), f"{layer}.{attr}")
            wrappers[id(fn)] = (fn, tracer.span_wrapper(
                fn, name, always=(layer, attr) in SPANS,
                before=hooks_before.get(name), after=hooks_after.get(name)))
        for key in list(SPANS) + list(COUNTED):
            if key[0] == layer and not inspect.isfunction(getattr(mod, key[1], None)):
                inst.missing.append(".".join(key))

    lapack = np.linalg.eigh
    wrappers[id(lapack)] = (lapack, tracer.span_wrapper(lapack, LAPACK, always=True,
                                                        before=tracer._before_lapack))
    for mod in list(modules.values()) + [np.linalg]:
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                inst.set(mod, attr, entry[1])
    for (layer, cls_name, attr), name in METHOD_SPANS.items():
        cls = getattr(modules.get(f"hftkit.{layer}"), cls_name, None)
        member = cls.__dict__.get(attr) if cls is not None else None
        if isinstance(member, property):
            getter = tracer.span_wrapper(member.fget, name, always=True)
            inst.set(cls, attr, property(getter, member.fset, member.fdel, member.__doc__))
        elif inspect.isfunction(member):
            inst.set(cls, attr, tracer.span_wrapper(member, name, always=True,
                                                    before=hooks_before.get(name)))
        else:
            inst.missing.append(f"{layer}.{cls_name}.{attr}")
    return inst
