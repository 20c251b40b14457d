"""Span tracing of commlab from outside the package.

The tracer swaps module attributes for timing wrappers inside a ``with``
block and puts the originals back when the block ends; nothing under
src/commlab is edited. A function imported
by name into another module (``from .core import selector_labels``) is bound
in several places, so every binding of the original object in every commlab
module is replaced.

Each span records (name, parent span, start ns, end ns). Spans stay in memory
as a flat int64 array and are written to disk once, at exit. A layer's self
time is the duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name); the layer is the span name's prefix.
SPANS = (
    ("verify", "_random_instance", "functions.generate"),
    ("functions", "random_bounded_cover", "functions.random_bounded_cover"),
    ("functions", "random_tree", "functions.random_tree"),
    ("functions", "random_function", "functions.random_function"),
    ("functions", "eq_function", "functions.eq_function"),
    ("functions", "xor_function", "functions.xor_function"),
    ("core", "selector_labels", "core.selector_labels"),
    ("core", "thickness_table", "core.thickness_table"),
    ("core", "box_thickness_table", "core.box_thickness_table"),
    ("core", "compile_tree", "core.compile_tree"),
    ("core", "Box.indicator", "core.indicator"),
    ("info", "build_profile", "info.build_profile"),
    ("info", "triple_information", "info.triple_information"),
    ("verify", "batch_experiment", "verify.batch_experiment"),
    ("verify", "run_suite_row", "verify.run_suite_row"),
    ("verify", "check_main_inequality", "verify.check_main_inequality"),
    ("verify", "check_ic", "verify.check_ic"),
    ("verify", "check_transcript_bound", "verify.check_transcript_bound"),
    ("verify", "check_multiparty", "verify.check_multiparty"),
    ("reports", "emit_report", "reports.emit_report"),
    ("bounds", "bound_summary", "bounds.bound_summary"),
    ("bounds", "enumerate_maximal_monochromatic", "bounds.catalog"),
    ("bounds", "cover_number", None),  # bounds.greedy or bounds.exact, by mode
    ("bounds", "fooling_set", "bounds.fooling"),
    ("bounds", "comm_matrix_rank", "bounds.rank"),
)

# (module, attribute, counter): hot calls that are counted, never spanned.
COUNTS = (
    ("functions", "_random_box", "box_draws"),
    ("info", "InfoEngine.__init__", "engines"),
    ("info", "InfoEngine.entropy", "entropy_calls"),
    ("info", "InfoEngine._group_labels", "entropy_misses"),
    ("bounds", "_independent_lower_bound", "search_nodes"),
)

LAYERS = ("functions", "core", "info", "verify", "reports", "bounds")


def _bounded_cover_done(counts, before, args, kwargs, result):
    # draws per accepted box counts successful generations only: a failed one
    # draws its whole budget and would swamp the ratio
    counts["accepted_draws"] += counts["box_draws"] - before["box_draws"]
    counts["accepted_boxes"] += kwargs["extra"] if "extra" in kwargs else args[2]


def _catalog_done(counts, before, args, kwargs, result):
    counts["catalog_boxes"] += result.num_boxes


def _exact_done(counts, before, args, kwargs, result):
    # a search that times out raises, so only solved searches land here
    counts["solved_search_nodes"] += counts["search_nodes"] - before["search_nodes"]


# span name -> hook run on a normal return, for counts read off the result
ON_RETURN = {
    "functions.random_bounded_cover": _bounded_cover_done,
    "bounds.catalog": _catalog_done,
    "bounds.exact": _exact_done,
}

_FIELDS = 4  # name index, parent span, start ns, end ns


def _resolve(modules: dict, module: str, attr: str):
    owner = modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def _cover_mode(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "exact")
    return "bounds.greedy" if mode == "greedy" else "bounds.exact"


class Tracer:
    """Spans and counters for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.wall_ns = 0  # time spent in traced work, summed by the caller
        self._patches = None

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        """Start a span under the innermost open span; returns its id."""
        sid = len(self.spans) // _FIELDS
        parent = self._stack[-1] if self._stack else -1
        self.spans.extend((self._name_id(name), parent, time.perf_counter_ns(), 0))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid * _FIELDS + 3] = time.perf_counter_ns()
        self._stack.pop()

    def _span_wrapper(self, fn, name):
        tracer = self
        counts = self.counts

        def traced(*args, **kwargs):
            span = name or _cover_mode(args, kwargs)
            hook = ON_RETURN.get(span)
            before = counts.copy() if hook else None
            sid = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook:
                hook(counts, before, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, counter):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching --------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to swap."""
        import commlab  # noqa: F401  (loads every submodule)

        modules = {
            name: sys.modules[f"commlab.{name}"]
            for name in ("core", "functions", "info", "verify", "reports", "bounds")
        }
        every = [m for key, m in sys.modules.items() if key.startswith("commlab")]
        targets = [(m, a, self._span_wrapper, n) for m, a, n in SPANS]
        targets += [(m, a, self._count_wrapper, c) for m, a, c in COUNTS]
        plan = []
        for module, attr, make, arg in targets:
            owner, name = _resolve(modules, module, attr)
            original = owner.__dict__[name]
            wrapper = make(original, arg)
            if isinstance(owner, type):
                plan.append((owner, name, original, wrapper))
                continue
            # rebind the function wherever a commlab module imported it
            for mod in every:
                for key, value in vars(mod).items():
                    if value is original:
                        plan.append((mod, key, original, wrapper))
        return plan

    def __enter__(self) -> "Tracer":
        """Swap in the wrappers; leaving the block puts the originals back."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # -- analysis --------------------------------------------------------

    def self_times_ns(self) -> dict[str, int]:
        """Self time per span name: duration minus child-span time."""
        n = len(self.spans) // _FIELDS
        child = [0] * n
        spans = self.spans
        for sid in range(n):
            base = sid * _FIELDS
            parent = spans[base + 1]
            if parent >= 0:
                child[parent] += spans[base + 3] - spans[base + 2]
        out: Counter = Counter()
        for sid in range(n):
            base = sid * _FIELDS
            out[self.names[spans[base]]] += spans[base + 3] - spans[base + 2] - child[sid]
        return dict(out)

    def _bases(self, name: str):
        idx = self._name_index.get(name)
        spans = self.spans
        return [b for b in range(0, len(spans), _FIELDS) if spans[b] == idx]

    def total_ns(self, name: str) -> int:
        """Summed duration of every span with this name."""
        spans = self.spans
        return sum(spans[b + 3] - spans[b + 2] for b in self._bases(name))

    def span_count(self, name: str) -> int:
        return len(self._bases(name))

    def layer_self_ns(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for name, ns in self.self_times_ns().items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += ns
        return out

    def write(self, stem: str) -> None:
        """Spans as raw little-endian int64 records plus a JSON header."""
        with open(stem + ".spans", "wb") as fh:
            spans = array("q", self.spans)
            if sys.byteorder != "little":
                spans.byteswap()
            spans.tofile(fh)
        header = {
            "fields": ["name", "parent", "start_ns", "end_ns"],
            "dtype": "<i8",
            "names": self.names,
            "num_spans": len(self.spans) // _FIELDS,
            "counts": dict(self.counts),
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)
