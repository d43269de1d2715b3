"""Spans recorded around calls into ctrec, from outside the package.

A span is ``(id, parent, name, start, end, attrs)``.  Names are
``<module>.<function>`` with the ``ctrec.`` prefix dropped, so the layer of
a span is the text before the first dot (``covariance``, ``io``, ...);
spans the benchmark opens itself are named ``bench.*``.  Spans stay in
memory and are written out once, when the run ends.

One stack serves every thread.  That is exact here because traced code
runs on one thread at a time: ``evaluate --jobs 1`` reads its files on a
single worker thread while the calling thread waits for it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


def _kind_arg(pos):
    def attrs(args, kwargs, result):
        if len(args) > pos:
            return {"kind": args[pos]}
        return {"kind": kwargs.get("kind")}

    return attrs


def _recon_attrs(args, kwargs, result):
    W = kwargs.get("W")
    kind = W.kind if W is not None else (args[2] if len(args) > 2 else kwargs.get("kind", "oct-ols"))
    return {"kind": kind, "resid": result.diagnostics.get("constraint_residual")}


def _iterative_attrs(args, kwargs, result):
    return {"iterations": result[0].diagnostics["iterations"]}


def _rows_of(get):
    def attrs(args, kwargs, result):
        return {"rows": int(get(args, result).size)}

    return attrs


# Attributes recorded per wrapped function, by span name.
ATTRS = {
    "covariance.cross_temporal_cov": _kind_arg(0),
    "covariance.temporal_cov": _kind_arg(0),
    "covariance.cross_sectional_cov": _kind_arg(0),
    "reconcile.reconcile_cross_temporal": _recon_attrs,
    "reconcile.reconcile_temporal": _kind_arg(1),
    "heuristics.iterative": _iterative_attrs,
    "io.read_values": _rows_of(lambda a, r: r[0]),
    "io.read_residuals": _rows_of(lambda a, r: r.values),
    "io.write_values": _rows_of(lambda a, r: a[1]),
    "io.write_residuals": _rows_of(lambda a, r: a[1].values),
}


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('ctrec.')}.{fn.__name__}"


class Tracer:
    """In-memory span recorder.

    A tracer made disabled wraps nothing.  One made enabled can be
    switched off for a while (``enabled = False``); its wrappers then call
    straight through.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = [None]
        self._patched = []

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = [sid, self._stack[-1], name, time.perf_counter(), None,
               {} if attrs is None else attrs]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn):
        """``fn`` itself when disabled, else ``fn`` recording one span per call."""
        if not self.enabled:
            return fn
        name = span_name(fn)
        get_attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            attrs = {}
            with self.span(name, attrs):
                result = fn(*args, **kwargs)
            if get_attrs is not None:
                attrs.update(get_attrs(args, kwargs, result))
            return result

        return traced

    def patch(self, module, names):
        """Replace ``module.<name>`` by its traced wrapper until :meth:`restore`."""
        for name in names:
            original = getattr(module, name)
            self._patched.append((module, name, original))
            setattr(module, name, self.wrap(original))

    def restore(self):
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def take(self):
        """Return the spans recorded since the last call and start afresh."""
        spans, self.spans = self.spans, []
        self._stack = [None]
        return spans


def self_times(spans):
    """Per-span self time: duration minus the time covered by child spans."""
    child = defaultdict(float)
    for sid, parent, _, t0, t1, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    return {sid: (t1 - t0) - child[sid] for sid, _, _, t0, t1, _ in spans}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def write_spans(path, passes):
    """One JSON line per span; ``pass`` numbers the traced pass it belongs to."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, spans in enumerate(passes):
            for sid, parent, name, t0, t1, attrs in spans:
                fh.write(json.dumps({
                    "pass": i, "id": sid, "parent": parent, "name": name,
                    "start": t0, "end": t1, "attrs": attrs,
                }) + "\n")
