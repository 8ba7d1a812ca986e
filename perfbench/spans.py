"""In-memory span tracer for the traced run.

Spans wrap calls into xsgowl's public functions from the outside; no file
of the program changes. Each span records its name, start, end, parent
and source id in flat arrays, which the garbage collector does not scan,
so keeping hundreds of thousands of lookup spans does not lengthen the
GC pauses being measured. Garbage-collector pauses are spans too
(via `gc.callbacks`), children of whatever span they interrupted.
"""

from __future__ import annotations

import gc
import gzip
import importlib
import time
from array import array
from collections import defaultdict

import spec


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.source = array("l")
        self.stack: list[int] = []
        self.source_id = -1  # -1: outside any measured source
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._gc_span = -1
        self._gc_nid = self.intern(spec.GC_SPAN)

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.source.append(self.source_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int):
        self.end[index] = self.clock()
        self.stack.pop()

    def count(self, name: str, value: int):
        self.counts[(self.source_id, name)] += value

    def on_gc(self, phase: str, info: dict):
        if phase == "start":
            self._gc_span = self.open(self._gc_nid)
        elif self._gc_span >= 0:
            self.close(self._gc_span)
            self._gc_span = -1

    def write_tsv(self, path):
        """All spans as gzipped TSV; parent is a row index, -1 for none."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("index\tname\tstart\tend\tparent\tsource\n")
            rows = zip(self.name_id, self.start, self.end, self.parent, self.source)
            for i, (nid, s, e, p, src) in enumerate(rows):
                f.write(f"{i}\t{names[nid]}\t{s!r}\t{e!r}\t{p}\t{src}\n")


def self_times(start, end, parent) -> array:
    """Per span: its duration minus the durations of its direct children.
    Spans nest strictly (one thread, call-based), so the children's
    intervals never overlap and this is the time no child covered."""
    own = array("d", (e - s for s, e in zip(start, end)))
    for s, e, p in zip(start, end, parent):
        if p >= 0:
            own[p] -= e - s
    return own


def per_source(tracer: Tracer) -> dict[int, dict[str, dict[str, float]]]:
    """source -> span name -> {"self_s", "total_s", "calls"}, for measured
    sources only (source >= 0)."""
    out: dict[int, dict[str, dict[str, float]]] = defaultdict(dict)
    own = self_times(tracer.start, tracer.end, tracer.parent)
    rows = zip(tracer.name_id, tracer.start, tracer.end, tracer.source, own)
    for nid, s, e, source, self_s in rows:
        if source < 0:
            continue
        name = tracer.names[nid]
        row = out[source].get(name)
        if row is None:
            row = out[source][name] = {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        row["self_s"] += self_s
        row["total_s"] += e - s
        row["calls"] += 1
    return dict(out)


def _xml_elements(doc) -> dict[str, int]:
    return {"xmldoc.elements": sum(1 for _ in doc.iter_elements())}


def _graph_size(graph) -> dict[str, int]:
    return {"xsg.vertices": len(graph.vertices), "xsg.edges": len(graph.edges),
            "xsg.back_edges": len(graph.back_edges)}


def _bridges(result) -> dict[str, int]:
    return {"owlgen.bridges": len(result[1].bridges)}


def _out_bytes(text) -> dict[str, int]:
    return {"owlmodel.out_bytes": len(text.encode("utf-8"))}


def _individuals(model) -> dict[str, int]:
    return {"abox.individuals": len(model.individuals)}


# span name -> counters read off the wrapped function's result
_COUNTS_OF = {
    "xmldoc.parse_xml": _xml_elements,
    "xsg.build_xsg": _graph_size,
    "owlgen.generate_tbox": _bridges,
    "owlmodel.serialize_turtle": _out_bytes,
    "owlmodel.serialize_rdfxml": _out_bytes,
    "abox.populate": _individuals,
}


def _wrap(tracer: Tracer, fn, name: str):
    nid = tracer.intern(name)
    counts_of = _COUNTS_OF.get(name)
    count_nid = tracer.intern(spec.COUNT_SPAN)

    def wrapper(*args, **kwargs):
        index = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counts_of is not None:
            # a span of its own, so counting is charged to no layer
            index = tracer.open(count_nid)
            for counter, value in counts_of(result).items():
                tracer.count(counter, value)
            tracer.close(index)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every traced function and method, and hook the collector.
    Returns (undo list for `uninstall`, names that were not found)."""
    undo, missing = [], []
    for module_name, attr, span in spec.WRAPPED_FUNCTIONS:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            missing.append(f"{module_name}.{attr}")
            continue
        undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, _wrap(tracer, getattr(module, attr), span))
    for module_name, cls_name, attr, span in spec.WRAPPED_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{module_name}.{cls_name}.{attr}")
            continue
        undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, _wrap(tracer, vars(cls)[attr], span))
    gc.callbacks.append(tracer.on_gc)
    return undo, missing


def uninstall(tracer: Tracer, undo: list):
    gc.callbacks.remove(tracer.on_gc)
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
