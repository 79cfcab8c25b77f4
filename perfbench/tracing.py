"""Span tracing of ppkit's public functions from outside the package.

`Tracer.install()` replaces each function in `TARGETS` with a wrapper that
records one span (name, start, end, parent) per call, in every ppkit module
that holds a reference to it, and `restore()` puts the originals back.
Spans live in flat arrays until `save()` writes them out; `summary()` turns
them into per-layer totals, self times and call counts.
"""

from __future__ import annotations

import functools
import os
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

# (module, attribute or Class.method, span name).  A target the program no
# longer has is skipped, so its metrics read 0 instead of the run failing.
TARGETS = [
    ("ppkit.cli", "main", "cli.main"),
    ("ppkit.sweep", "sweep_theorem", "sweep.run"),
    ("ppkit.sweep", "check_single", "sweep.check_single"),
    ("ppkit.sweep", "write_records", "sweep.write_records"),
    ("ppkit.criteria", "predict", "criteria.predict"),
    ("ppkit.families", "closed_form_components", "families.closed_form_components"),
    ("ppkit.families", "eval_family", "families.eval_family"),
    ("ppkit.oracle", "images_permute", "oracle.images_permute"),
    ("ppkit.tower", "TowerCtx.tables", "tower.tables"),
    ("ppkit.tower", "TowerCtx.pow_vec", "tower.pow_vec"),
    ("ppkit.gf", "FieldCtx.tables", "gf.tables"),
    ("ppkit.decompose", "lemma31_extract", "decompose.lemma31_extract"),
    ("ppkit.directions", "direction_set", "directions.direction_set"),
    ("ppkit.directions", "permuting_translate_set", "directions.permuting_translate_set"),
]

SPAN_NAMES = [name for _, _, name in TARGETS]

# counters kept beside the spans, filled by the hooks below
COUNTERS = {
    "tower.tables_builds": "count",
    "tower.table_bytes": "bytes",  # nbytes of one build's arrays, mean over builds
    "gf.tables_builds": "count",
    "sweep.records": "count",
    "sweep.bytes_written": "bytes",
}

# every per-layer metric a traced run reports, with its unit
LAYER_UNITS = {
    **{f"{span}{suffix}": unit for span in SPAN_NAMES
       for suffix, unit in (("_s", "s"), ("_self_s", "s"), ("_calls", "count"))},
    **COUNTERS,
    "criteria.predict_calls_per_class": "ratio",
    "oracle.checks_per_class": "ratio",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._built: dict[str, weakref.WeakSet] = {}

    # -- hooks: counts taken at the layer boundary ---------------------------

    def _count_build(self, layer: str, ctx, result):
        seen = self._built.setdefault(layer, weakref.WeakSet())
        if ctx in seen:
            return
        seen.add(ctx)
        self.counters[f"{layer}_builds"] += 1
        if layer == "tower.tables":
            self.counters["tower.table_bytes"] += sum(int(a.nbytes) for a in result)

    def _hook(self, span: str, args, kwargs, result):
        if span in ("tower.tables", "gf.tables"):
            self._count_build(span, args[0], result)
        elif span == "sweep.run":
            self.counters["sweep.records"] += len(result)
        elif span == "sweep.write_records":
            out = args[1] if len(args) > 1 else kwargs.get("out")
            if isinstance(out, (str, os.PathLike)):
                self.counters["sweep.bytes_written"] += os.path.getsize(out)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, span: str):
        sid = SPAN_NAMES.index(span)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )
        hook = self._hook

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            hook(span, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target wherever a ppkit module refers to it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ppkit"]
        for modname, attr, span in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = cls.__dict__.get(meth) if cls is not None else None
                if orig is None:
                    continue
                self._patch(cls, meth, orig, self._wrap(orig, span))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(orig, span)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapped)

    def _patch(self, owner, key, orig, wrapped):
        self._patches.append((owner, key, orig))
        setattr(owner, key, wrapped)

    def restore(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results -------------------------------------------------------------

    def _arrays(self):
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        return name, parent, dur

    def summary(self) -> dict:
        """Per span name: total seconds, self seconds and calls; plus counters."""
        name, parent, dur = self._arrays()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_dur = dur - child[: len(dur)]
        k = len(SPAN_NAMES)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_dur, minlength=k)
        calls = np.bincount(name, minlength=k)
        out = {}
        for sid, span in enumerate(SPAN_NAMES):
            out[f"{span}_s"] = float(total[sid])
            out[f"{span}_self_s"] = float(own[sid])
            out[f"{span}_calls"] = int(calls[sid])
        out.update(self.counters)
        builds = self.counters["tower.tables_builds"]
        out["tower.table_bytes"] = self.counters["tower.table_bytes"] / builds if builds else 0
        out["trace.spans"] = len(dur)
        return out

    def save(self, path):
        """Write every span out: names, parent index, start and end times."""
        name, parent, _ = self._arrays()
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name=name,
            parent=parent,
            start=np.array(self.start),
            end=np.array(self.end),
        )
