"""Span tracer installed from outside the package, for the traced run only.

install() replaces the public functions of each layer module with wrappers
on every module attribute that holds them, because callers look functions
up by name in their own module (`from finsite.homology import ...`).  The
package source is never touched.  Spans and counters stay in memory and are
written once, by dump(), when the job ends.

A span is [name, parent index, start, end].  Counters are computed after the
wrapped call returns, inside a `trace.count` span, so their cost is charged
to tracing and not to the layer that called the function.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("catsite", "presheaf", "sset", "realization", "homology", "canon", "cli")

# Called once per element or identifier; a span each would cost more than the
# work it measures.
HOT = {"canon.ckey", "canon.cstr", "catsite.open_id"}

# Private functions that mark a layer boundary: reading input files.
EXTRA = ("cli._load_json",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._seen_levels: set[tuple[int, int]] = set()

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if after is not None:
                start = perf_counter()
                after(self, args, result)
                spans.append(["trace.count", parent, start, perf_counter()])
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


# -- counters, one hook per function that has sizes worth recording -------------


def _saturation(tr: Tracer, args, site) -> None:
    space = args[0]
    for u in space.opens:
        tr.counters["catsite.masks_tried"] += 1 << sum(1 for v in space.opens if v <= u)
    tr.counters["catsite.coverings_kept"] += sum(len(s) for s in site.coverings.values())


def _sections(tr: Tracer, args, sections) -> None:
    tr.counters["presheaf.sections_found"] += len(sections)


def _tabulated(tr: Tracer, args, s) -> None:
    tr.counters["sset.simplices"] += sum(len(level) for level in s.levels)
    tr.counters["sset.table_entries"] += len(s._faces) + len(s._degeneracies)


def _nondegenerate(tr: Tracer, args, result) -> None:
    s, k = args[0], args[1]
    if (id(s), k) not in tr._seen_levels:
        tr._seen_levels.add((id(s), k))
        tr.counters["sset.nondeg_scanned"] += len(s.levels[k])
        tr.counters["sset.nondeg_found"] += len(result)


def _snf(tr: Tracer, args, res) -> None:
    a = args[0]
    from finsite import homology

    tr.counters["homology.snf_cells"] += a.rows * a.cols
    tr.counters["homology.snf_nnz"] += sum(1 for row in a.data for v in row if v)
    tr.counters["homology.unit_pivots"] += sum(1 for v in res.diag if v == 1)
    tr.counters["homology.nonunit_pivots"] += sum(1 for v in res.diag if v > 1)
    verified = max(a.rows, a.cols) <= homology._VERIFY_SIZE
    tr.counters["homology.snf_verified" if verified else "homology.snf_unverified"] += 1


def _rendered(tr: Tracer, args, text) -> None:
    tr.counters["canon.output_bytes"] += len(text.encode())


AFTER = {
    "catsite.site_from_finite_space": _saturation,
    "presheaf.sections_set": _sections,
    "sset.tabulate": _tabulated,
    "sset.SimplicialSet.nondegenerate": _nondegenerate,
    "homology.smith_normal_form": _snf,
    "canon.cjson": _rendered,
}


def _targets(modules: dict) -> dict[str, object]:
    """Span name -> function, for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in HOT
            ):
                found[name] = obj
    for name in EXTRA:
        layer, attr = name.split(".")
        found[name] = getattr(modules[layer], attr)
    return found


def install(tracer: Tracer) -> None:
    """Wrap every layer function at each of its import sites."""
    import finsite.cli  # noqa: F401  imports every layer

    modules = {layer: sys.modules[f"finsite.{layer}"] for layer in LAYERS}
    wrappers = {}
    for name, fn in _targets(modules).items():
        wrappers[id(fn)] = tracer.wrap(name, fn, AFTER.get(name))
    for mod in (m for n, m in sys.modules.items() if n.startswith("finsite")):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(mod, attr, wrappers[id(obj)])
    cls = modules["sset"].SimplicialSet
    name = "sset.SimplicialSet.nondegenerate"
    cls.nondegenerate = tracer.wrap(name, cls.nondegenerate, AFTER[name])


# -- analysis of a dumped trace ---------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
