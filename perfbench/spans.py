"""In-memory span tracing of projarr's layers, installed from outside.

`Tracer.install()` replaces every public function of every projarr module
with a timing wrapper, at each name it is looked up under (a function
imported with `from .linalg import snf` is wrapped in `chains` as well as
in `linalg`), plus the methods in `METHODS`.  A span records its name,
start, end, parent span and job id; spans live in compact arrays until
`write()` dumps them at the end of the run.  Nothing in projarr changes.

A span's self time is its duration minus the durations of its children.
Calls are strictly nested in one thread, so children never overlap and
the self times of one job's spans sum to the job's root span duration.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("arrangement", "linalg", "poset", "chains", "ring", "oracles", "presentation", "cli")
METHODS = (("linalg", "Subspace", "contains"), ("chains", "HomologySummary", "class_of"))


def _cells(cx) -> int:
    return sum(len(b) for b in cx.bases)


def _table_counts(table) -> dict:
    return {
        "basis_size": len(table.basis),
        "product_pairs": len(table.products),
        "nonzero_products": sum(1 for e in table.products.values() if e),
    }


# Work counts taken at layer boundaries: span name -> (args, result) -> counts.
COUNTERS = {
    "arrangement.intersection_closure": lambda a, r: {"closure_elements": len(r)},
    "linalg.snf": lambda a, r: {"snf_entries": len(a[0]) * (len(a[0][0]) if a[0] else 0)},
    "poset.build_poset": lambda a, r: {"poset_elements": len(r.elements)},
    "chains.build_relative_complex": lambda a, r: {"cells": _cells(r)},
    "chains.build_local_complex": lambda a, r: {"cells": _cells(r)},
    "ring.ring_table": lambda a, r: _table_counts(r),
    "ring.affine_decompose": lambda a, r: _table_counts(r),
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.job_id = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)  # job id -> counts
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        names, starts, ends, parents, jobs = self.name, self.start, self.end, self.parent, self.job
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                self.counts[self.job_id].update(counter(args, result))
            return result

        return traced

    def install(self, package: str = "projarr") -> None:
        """Wrap public functions at every lookup site, and `METHODS`."""
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrappers: dict[object, object] = {}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(val):
                    continue
                if not val.__module__.startswith(package + "."):
                    continue
                if val not in wrappers:
                    wrappers[val] = self.wrap(span_name(val), val)
                self._patch(mod, attr, wrappers[val])
        for modname, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{package}.{modname}"), cls_name)
            fn = vars(cls)[meth]
            self._patch(cls, meth, self.wrap(span_name(fn), fn))

    def _patch(self, obj, attr, new):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, old = self._patched.pop()
            setattr(obj, attr, old)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def write(self, path, jobs_meta) -> None:
        doc = {
            "names": self.names,
            "jobs": jobs_meta,
            "columns": ["name", "start", "end", "parent", "job"],
            "spans": [list(self.name), list(self.start), list(self.end), list(self.parent), list(self.job)],
            "counts": {str(j): dict(c) for j, c in self.counts.items()},
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


# rref called by these two is how they solve; its time and calls count as
# theirs, so the rref metrics describe subspace work (closure, containment,
# sections) and the solve/inverse metrics the homology kernel's solves.
ATTRIBUTE_TO_CALLER = {"linalg.rref": {"linalg.solve_rational", "linalg.int_inverse_unimodular"}}


def aggregate(names, name_ids, parents, self_t, job_ids, wanted_jobs):
    """Per span name: (calls, self seconds), over spans of `wanted_jobs`,
    after moving spans named in ATTRIBUTE_TO_CALLER to their caller."""
    calls: Counter = Counter()
    secs: defaultdict = defaultdict(float)
    for nid, p, st, job in zip(name_ids, parents, self_t, job_ids):
        if job not in wanted_jobs:
            continue
        name = names[nid]
        if p >= 0 and names[name_ids[p]] in ATTRIBUTE_TO_CALLER.get(name, ()):
            name = names[name_ids[p]]
        else:
            calls[name] += 1
        secs[name] += st
    return calls, secs
