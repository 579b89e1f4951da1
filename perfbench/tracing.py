"""Outside-in layer tracing: wrap qmetro's public functions and the
numpy.linalg kernels they call, record one span per call, and turn the
spans of a pass into per-layer counts and times.

Nothing under src/qmetro is changed.  `Tracer.install` replaces each
wrapped object wherever a qmetro module has bound it (the modules import
each other's functions by name) and `Tracer.remove` puts every original
back.  Spans stay in memory until `Tracer.dump`.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

PACKAGE = "qmetro"
LAYER_MODULES = ("spinops", "statelib", "interferom", "estimate", "squeeze", "_search", "cli")
LINALG_KERNELS = ("eigh", "eigvalsh", "norm")


def _cube_of_dim(args, kwargs):
    return args[0].shape[-1] ** 3


def _povm_dense_bytes(args, kwargs):
    povm = args[0]
    return len(povm.elements) * povm.basis_tag.dim ** 2 * 16


# computed work recorded with each span of these names
WORK = {
    "linalg.eigh": _cube_of_dim,
    "linalg.eigvalsh": _cube_of_dim,
    "estimate.Povm.__post_init__": _povm_dense_bytes,
}


def _layer_name(module_name: str) -> str:
    # metric names must start with a letter: qmetro._search -> search
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def wrap_targets():
    """(owner, attribute, span name) for every object the tracer wraps.

    Module-level public functions of each layer module, the public
    methods and __post_init__ of its public classes (cli excepted, so
    that rendering stays in run_sweep's self time), and LINALG_KERNELS.
    """
    import numpy

    targets = [(numpy.linalg, k, f"linalg.{k}") for k in LINALG_KERNELS]
    for short in LAYER_MODULES:
        module = sys.modules[f"{PACKAGE}.{short}"]
        layer = _layer_name(module.__name__)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                targets.append((module, attr, f"{layer}.{attr}"))
            elif inspect.isclass(obj) and short != "cli":
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (meth == "__post_init__" or not meth.startswith("_")):
                        targets.append((obj, meth, f"{layer}.{attr}.{meth}"))
    return targets


class Tracer:
    """Span recorder.  A span is (pass id, parent span id, name, start, end, work)."""

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name):
        work_of = WORK.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            work = work_of(args, kwargs) if work_of else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.pass_id, parent, name, start, end, work)

        return traced

    def install(self):
        """Wrap every target wherever a qmetro module or numpy.linalg binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for owner, attr, name in wrap_targets():
            original = vars(owner)[attr]
            wrapped = self._wrap(original, name)
            holders = [owner] if inspect.isclass(owner) else [owner, *modules]
            for holder in holders:
                if vars(holder).get(attr) is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapped)

    def remove(self):
        """Restore every original, in reverse order of patching."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def dump(self, path: str):
        """Write all spans, gzip-compressed JSON, one row per span."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[p, parent, index[n], start, end, work]
                for p, parent, n, start, end, work in self.spans]
        payload = {"fields": ["pass", "parent", "name", "start", "end", "work"],
                   "names": names, "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh)


def layer_stats(spans, pass_id) -> dict:
    """Per span name: calls, total_s, self_s and summed work for one pass.

    Self time is span time minus the time of its direct wrapped children.
    Also counts `in_search_calls`: calls made inside a
    _search.grid_then_golden span (the MLE's likelihood evaluations).
    """
    own = [(i, s) for i, s in enumerate(spans) if s[0] == pass_id]
    child_time = {}
    in_search = {}
    for i, (_, parent, name, start, end, _) in own:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        in_search[i] = name == "search.grid_then_golden" or in_search.get(parent, False)
    stats = {}
    for i, (_, parent, name, start, end, work) in own:
        entry = stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "in_search_calls": 0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time.get(i, 0.0)
        entry["work"] += work
        entry["in_search_calls"] += in_search.get(parent, False)
    return stats
