"""In-memory span tracing around bdscore's public functions.

``Tracer.install()`` replaces every public function of the traced
modules, in every ``bdscore`` namespace that binds it, with a wrapper
that records a span: name, parent span, start and end.  Spans stay in
memory until ``write`` dumps them as JSON lines.  ``uninstall`` puts the
original functions back, so traced and untraced passes can alternate in
one process.

Functions named in ``FOLDED`` are leaves called millions of times
(``log_gamma_ratio`` once per observed cell).  Their calls under one
parent span are folded into a single record that keeps the call count,
the summed duration and the per-path counters, which bounds memory by
the number of parent spans rather than by the number of cells.

Self time of a span is its duration minus the part of it that its child
spans cover.  A folded record's own time is the summed duration of its
calls; it covers that plus its bookkeeping in the parent, so the
tracer's work on a million leaf calls does not read as the parent's.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable

TRACED_MODULES = ("dataset", "numerics", "scores", "citest", "regularity", "search", "cli")
FOLDED = frozenset({"numerics.log_gamma_ratio"})
SHORT_PATH_MAX = 64  # log_gamma_ratio sums in pure Python up to this count


@dataclass
class Span:
    id: int
    parent: int  # 0 for a top-level span
    name: str
    start: float
    end: float = math.nan
    calls: int = 1
    busy: float = 0.0  # summed duration of the calls; end - start unless folded
    covers: float = 0.0  # folded only: busy plus the bookkeeping around each call
    attrs: dict = field(default_factory=dict)

    @property
    def folded(self) -> bool:
        return self.name in FOLDED

    def to_json(self) -> dict:
        out = {"id": self.id, "parent": self.parent, "name": self.name,
               "start": self.start, "end": self.end}
        if self.folded:
            out.update(calls=self.calls, busy=self.busy, covers=self.covers)
        if self.attrs:
            out["attrs"] = self.attrs
        return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus what its children cover.

    Unfolded children cover the union of their intervals, clipped to the
    parent; folded children cover their ``covers`` time (their calls are
    sequential leaves, so they overlap neither each other nor siblings).
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        if s.folded:
            out[s.id] = s.busy
            continue
        covered = 0.0
        cursor = s.start
        kids = children.get(s.id, [])
        for kid in sorted((k for k in kids if not k.folded), key=lambda k: k.start):
            lo, hi = max(kid.start, cursor), min(kid.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        covered += sum(k.covers for k in kids if k.folded)
        out[s.id] = (s.end - s.start) - covered
    return out


def _ratio_path(args, kwargs, default_threshold: int) -> tuple[str, int]:
    """Which log_gamma_ratio path a call takes, and its count argument."""
    n = int(args[0] if args else kwargs["n"])
    threshold = kwargs.get("exact_threshold", default_threshold)
    if n > threshold:
        return "lgamma_calls", n
    if n <= SHORT_PATH_MAX:
        return "short_calls", n
    return "exact_calls", n


class Tracer:
    """Records spans around bdscore's public functions while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._folded: dict[tuple[int, str], Span] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._dataset_ids: dict[int, tuple[weakref.ref, int]] = {}
        self._exact_threshold = 0  # read from bdscore.numerics at install
        self._next_id = 1

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else 0
        span = Span(self._next_id, parent, name, self.clock())
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        span.busy = span.end - span.start
        self._stack.pop()

    def _fold(self, name: str, start: float, end: float, args, kwargs) -> None:
        parent = self._stack[-1].id if self._stack else 0
        key = (parent, name)
        rec = self._folded.get(key)
        if rec is None:
            rec = Span(self._next_id, parent, name, start, end, calls=0)
            self._next_id += 1
            self._folded[key] = rec
            self.spans.append(rec)
        rec.calls += 1
        rec.end = end
        rec.busy += end - start
        path, n = _ratio_path(args, kwargs, self._exact_threshold)
        rec.attrs[path] = rec.attrs.get(path, 0) + 1
        if path == "exact_calls":
            rec.attrs["exact_terms"] = rec.attrs.get("exact_terms", 0) + n
        rec.covers += self.clock() - start

    def dataset_serial(self, ds) -> int:
        """A number that tells datasets apart even after one is freed."""
        entry = self._dataset_ids.get(id(ds))
        if entry is not None and entry[0]() is ds:
            return entry[1]
        serial = len(self._dataset_ids) + 1
        self._dataset_ids[id(ds)] = (weakref.ref(ds), serial)
        return serial

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        tracer = self
        if name in FOLDED:
            def folded(*args, **kwargs):
                t0 = tracer.clock()
                result = fn(*args, **kwargs)
                tracer._fold(name, t0, tracer.clock(), args, kwargs)
                return result
            folded.__wrapped__ = fn
            return folded

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span.attrs.update(attrs(tracer, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules everywhere it is bound."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        from bdscore import dataset, numerics

        self._exact_threshold = numerics.EXACT_RATIO_THRESHOLD
        originals: dict[int, tuple[str, Callable]] = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"bdscore.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = (f"{short}.{attr}", fn)
        wrappers = {key: self.wrap(name, fn, ATTRS.get(name)) for key, (name, fn) in originals.items()}

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "bdscore" or n.startswith("bdscore."))]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and value is originals[id(value)][1]:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

        # Dataset.from_columns is a classmethod: wrap the function inside it.
        raw = dataset.Dataset.__dict__["from_columns"]
        self._patched.append((dataset.Dataset, "from_columns", raw))
        dataset.Dataset.from_columns = classmethod(self.wrap("dataset.from_columns", raw.__func__))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ---------------------------------------------------------

    def write(self, path, label: str) -> None:
        """Append this tracer's spans as JSON lines tagged with ``label``."""
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"pass": label, **span.to_json()}) + "\n")


# -- per-function counters, computed after the call returns -------------


def _load_csv_attrs(tracer, args, kwargs, result):
    return {"rows": result.n}


def _counts_attrs(tracer, args, kwargs, result):
    ds = args[0]
    return {"rows_scanned": ds.n if len(result.subset) else 0, "cells": result.num_nonzero}


def _marginal_attrs(tracer, args, kwargs, result):
    ds, subset, prior = args[:3]
    return {"key": [tracer.dataset_serial(ds), list(ds.subset(subset).indices), repr(prior)]}


def _audit_attrs(tracer, args, kwargs, result):
    ds, _x, _prior, candidates = args[:4]
    size = kwargs.get("max_parent_size", args[4] if len(args) > 4 else 3)
    pool = len(ds.subset(candidates))
    pairs = sum(math.comb(pool, k) * (2**k - 1) for k in range(1, size + 1))
    return {"pairs": pairs, "violations": len(result)}


def _main_attrs(tracer, args, kwargs, result):
    import os

    argv = list(args[0]) if args else []
    if "-o" in argv:
        return {"report_bytes": os.path.getsize(argv[argv.index("-o") + 1])}
    return {}


ATTRS = {
    "dataset.load_csv": _load_csv_attrs,
    "dataset.counts": _counts_attrs,
    "scores.marginal_score": _marginal_attrs,
    "regularity.audit": _audit_attrs,
    "cli.main": _main_attrs,
}


# -- per-layer metrics --------------------------------------------------


def _calls_self(prefix: str, spans: list[Span], selfs: dict[int, float]) -> dict[str, float]:
    return {f"{prefix}.calls": sum(s.calls for s in spans),
            f"{prefix}.self_s": math.fsum(selfs[s.id] for s in spans)}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from its spans."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in named(name))

    out: dict[str, float] = {}
    for name in ("dataset.load_csv", "dataset.counts", "dataset.from_columns",
                 "dataset.empirical_cond_entropy", "numerics.log_gamma_ratio",
                 "scores.marginal_score", "scores.network_score",
                 "citest.ci_decide_cond", "citest.ci_statistics", "citest.bdeu_correction",
                 "citest.asymptotic_residuals", "regularity.j_statistic_profile"):
        out.update(_calls_self(name, named(name), selfs))
    out["dataset.load_csv.rows"] = total("dataset.load_csv", "rows")
    out["dataset.counts.rows_scanned"] = total("dataset.counts", "rows_scanned")
    out["dataset.counts.cells"] = total("dataset.counts", "cells")
    for path in ("short_calls", "exact_calls", "exact_terms", "lgamma_calls"):
        out[f"numerics.log_gamma_ratio.{path}"] = total("numerics.log_gamma_ratio", path)

    marginals = named("scores.marginal_score")
    distinct = len({json.dumps(s.attrs["key"]) for s in marginals})
    out["scores.marginal_score.distinct"] = distinct
    out["scores.marginal_score.useful_ratio"] = distinct / len(marginals) if marginals else 0.0

    audits = named("regularity.audit")
    out["regularity.audit.self_s"] = math.fsum(selfs[s.id] for s in audits)
    out["regularity.audit.pairs"] = total("regularity.audit", "pairs")
    out["regularity.audit.violations"] = total("regularity.audit", "violations")

    learn_ids = {s.id for s in named("search.learn_exact")}
    out["search.learn_exact.self_s"] = math.fsum(selfs[i] for i in learn_ids)
    out["search.learn_exact.marginals"] = sum(1 for s in marginals if s.parent in learn_ids)

    out["cli.main.self_s"] = math.fsum(selfs[s.id] for s in named("cli.main"))
    out["cli.main.report_bytes"] = total("cli.main", "report_bytes")
    return out
