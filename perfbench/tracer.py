"""Span tracing installed from outside the absplit package.

``install()`` wraps every public function of the seven absplit modules, plus
``SeededHnf.canonical``, ``GroupAnalysis.subgroup_props`` and the check
table ``harness.CHECKS``.  Each name is patched in every absplit module that
bound it with ``from ... import``, so calls between modules are seen too.
Nothing under ``src/`` changes.

Two kinds of record are kept in memory and written out by ``dump()``, in one
file per request that names the request:

* a span (id, name, start, end, parent span id, self time, note) for the
  coarse layers: everything in ``cli`` and ``harness`` and the deciding
  entry points of ``splitness`` listed in ``_SPAN_NAMES``;
* for every other function, which may run once per Hom element or per
  witness candidate, one aggregate per (parent span, name, calling
  function): calls, total time, self time and a summed note.

Self time is a call's duration minus the time its traced callees took.
Generator functions get generator wrappers that time each ``next()``, so
an aggregate of ``groups.iter_hom_rows`` counts Hom elements, not calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("cli", "harness", "splitness", "subgroups", "groups", "preradicals", "intmat")

# functions recorded under a layer name other than <module>.<function>
_RENAMES = {
    "splitness.self_split_profile": "splitness.sweep",
    "splitness.is_M_F_split": "splitness.sweep",
    "splitness.is_dual_M_F_split": "splitness.sweep",
    "splitness.is_self_F_split_theorem": "splitness.theorem",
    "splitness.is_dual_self_F_split_theorem": "splitness.theorem",
    "splitness.strongly_no_witness_search": "splitness.witness_search",
    "splitness.has_sip_summands_containing": "splitness.sip",
    "splitness.has_ssp_summands_contained_in": "splitness.sip",
}

# splitness layers recorded as individual spans (cli.* and harness.* always are)
_SPAN_NAMES = {
    "splitness.sweep",
    "splitness.theorem",
    "splitness.end_ring",
    "splitness.witness_search",
    "splitness.sip",
    "splitness.decide_self_profile",
    "splitness.self_split_profile_theorem",
    "splitness.reverify",
}

# per-call note summed into the record: a count the layer metrics need
_NOTES = {
    "splitness.witness_search": lambda r: int(r is not None),
    "subgroups.summand_witness": lambda r: int(r is not None),
    "subgroups.all_subgroups": len,
}


class Tracer:
    def __init__(self):
        # frames: [name, traced child time, span id that children attach to]
        self.stack: list[list] = []
        self.next_id = 1
        self.spans: list[tuple] = []
        self.aggs: dict[tuple, list] = {}

    def wrap(self, name: str, fn):
        is_span = name in _SPAN_NAMES or name.startswith(("cli.", "harness."))
        note = _NOTES.get(name)
        stack = self.stack
        clock = time.perf_counter

        def finish(frame, parent, t0, t1, result):
            dur = t1 - t0
            if parent is not None:
                parent[1] += dur
            value = note(result) if note is not None and result is not None else 0
            if is_span:
                self.spans.append((frame[2], name, t0, t1, parent[2] if parent else 0,
                                   dur - frame[1], value))
            else:
                key = (frame[2], name, parent[0] if parent else "")
                rec = self.aggs.get(key)
                if rec is None:
                    self.aggs[key] = [1, dur, dur - frame[1], value]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]
                    rec[3] += value

        def open_frame():
            parent = stack[-1] if stack else None
            if is_span:
                sid = self.next_id
                self.next_id += 1
            else:
                sid = parent[2] if parent else 0
            frame = [name, 0.0, sid]
            stack.append(frame)
            return frame, parent

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame, parent = open_frame()
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        stack.pop()
                        return
                    except BaseException:
                        stack.pop()
                        raise
                    t1 = clock()
                    stack.pop()
                    finish(frame, parent, t0, t1, None)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent = open_frame()
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                finish(frame, parent, t0, t1, result)

        return wrapper

    def dump(self, path: str, request: str) -> None:
        doc = {
            "request": request,
            "spans": self.spans,
            "aggs": [[*key, *rec] for key, rec in self.aggs.items()],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def install() -> Tracer:
    """Patch the absplit package in this process; returns the tracer."""
    import absplit

    tracer = Tracer()
    mods = {short: importlib.import_module(f"absplit.{short}") for short in MODULES}
    wrapped: dict = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            full = f"{short}.{attr}"
            wrapped[obj] = tracer.wrap(_RENAMES.get(full, full), obj)
    for mod in (absplit, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    checks = mods["harness"].CHECKS
    for check_id, fn in list(checks.items()):
        checks[check_id] = tracer.wrap(f"harness.check.{check_id}", fn)

    seeded = mods["intmat"].SeededHnf
    seeded.canonical = tracer.wrap("intmat.seeded_hnf", seeded.canonical)
    analysis = mods["splitness"].GroupAnalysis
    analysis.subgroup_props = tracer.wrap("splitness.subgroup_props", analysis.subgroup_props)
    return tracer
