"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of every ``mdimlab`` layer at each
name a caller binds them to (``from .pwa import eval_map`` in
``separation`` binds its own name), plus two class-level entry points:
``PwaMap.from_nodes`` and ``MarkovView.__post_init__`` (every view
construction, which is where the branch-against-map check runs).  The
library itself is not modified: ``install`` swaps the wrappers in and
``uninstall`` puts the originals back, so untraced passes run the plain
code.

Each call records one span: name, start, end, parent span and pass id.
Self time is the span's duration minus the time covered by its direct
children.  Aggregates (calls, self seconds, counters, errors) are kept
for every span; full span records are kept for the first ``SPAN_CAP``
spans of each pass and the rest of that pass's spans are counted as
dropped, so every traced pass is written out and memory stays bounded.
"""
from __future__ import annotations

import csv
import inspect
import sys
import time
from collections import defaultdict

# one layer per module; "cli" comes last
LAYERS = ("rational", "pwa", "separation", "fbeta", "horseshoe", "surgery", "cli")
# span records kept per traced pass; a grid pass makes about 110,000 spans,
# nearly all of them eval_map, a density pass about 20,000, and a run holds
# several traced passes
SPAN_CAP = 100_000


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _count_iterate(c, args, kwargs, result):
    c["pwa.iterate.nodes"] += result.node_count


def _count_from_nodes(c, args, kwargs, result):
    c["pwa.from_nodes.nodes"] += result.node_count


def _count_cylinder_certificate(c, args, kwargs, result):
    view, n = args[0], args[1]
    reps = view.branch_count**n
    c["separation.verify_cylinder_separation.reps"] += reps
    c["separation.verify_cylinder_separation.pairs"] += _pairs(reps)


def _count_greedy(c, args, kwargs, result):
    grid = args[3]
    c["separation.count_separated_greedy.grid_points"] += int(1 / grid) + 1
    c["separation.count_separated_greedy.selected"] += result.count


def _count_build(c, args, kwargs, result):
    c["fbeta.build_fbeta.nodes"] += result.map.node_count


def _count_certificate_2d(c, args, kwargs, result):
    c["horseshoe.separated_bound_2d.reps"] += result.count
    c["horseshoe.separated_bound_2d.pairs"] += _pairs(result.count)


def _count_blend(c, args, kwargs, result):
    c["surgery.blend_with_profile.nodes"] += result.node_count


COUNTERS = {
    "pwa.iterate": _count_iterate,
    "pwa.from_nodes": _count_from_nodes,
    "separation.verify_cylinder_separation": _count_cylinder_certificate,
    "separation.count_separated_greedy": _count_greedy,
    "fbeta.build_fbeta": _count_build,
    "horseshoe.separated_bound_2d": _count_certificate_2d,
    "surgery.blend_with_profile": _count_blend,
}


class PassStats:
    """Aggregates of one traced pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.spans = 0         # span records kept
        self.dropped = 0       # spans over SPAN_CAP, counted only


class Tracer:
    def __init__(self, error_type: type[BaseException]) -> None:
        self.error_type = error_type
        # (id, parent id or -1, pass id, name, start, end)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.next_id = 0
        self.stack: list[list] = []
        self.pass_id = -1
        self.stats = PassStats()
        self.passes: list[PassStats] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- passes -------------------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.stats = PassStats()

    def end_pass(self) -> PassStats:
        self.passes.append(self.stats)
        return self.stats

    # --- spans --------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        """Return `fn` wrapped so each call records one span called `name`."""
        tracer = self
        count = COUNTERS.get(name)
        error_type = self.error_type
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            frame = [span_id, 0.0, layer]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                if parent is None or parent[2] != layer:
                    tracer.stats.errors[layer] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer._record(name, span_id, -1 if parent is None else parent[0],
                               start, end, duration, frame[1])
            if count is not None:
                count(tracer.stats.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _record(self, name, span_id, parent_id, start, end, duration, children) -> None:
        stats = self.stats
        stats.calls[name] = stats.calls.get(name, 0) + 1
        stats.self_s[name] = stats.self_s.get(name, 0.0) + duration - children
        if stats.spans >= SPAN_CAP:
            stats.dropped += 1
            return
        stats.spans += 1
        self.spans.append((span_id, parent_id, self.pass_id, name, start, end))

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn(*args) as one span; used for the benchmark's own CLI steps."""
        return self.wrap(fn, name, layer)(*args, **kwargs)

    # --- installing wrappers -------------------------------------------------

    def install(self) -> None:
        """Swap wrappers in at every module-level name that binds a public
        function of a layer module, and at the two class-level entry points."""
        if self._patches:
            return
        import mdimlab
        from mdimlab.pwa import PwaMap
        from mdimlab.separation import MarkovView

        modules = [mdimlab] + [sys.modules[f"mdimlab.{layer}"] for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer in LAYERS[:-1]:          # the benchmark wraps its own CLI calls
            module = sys.modules[f"mdimlab.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(value)] = self.wrap(value, f"{layer}.{attr}", layer)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])

        from_nodes = vars(PwaMap)["from_nodes"].__func__
        self._patch(PwaMap, "from_nodes", staticmethod(self.wrap(from_nodes, "pwa.from_nodes", "pwa")))
        post_init = vars(MarkovView)["__post_init__"]
        self._patch(MarkovView, "__post_init__",
                    self.wrap(post_init, "separation.MarkovView", "separation"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- output -------------------------------------------------------------

    def write_spans(self, path) -> int:
        """CSV: span id, parent id (-1 for a root), pass id, name, start, end."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "pass", "name", "start_s", "end_s"])
            for span_id, parent, pass_id, name, start, end in self.spans:
                out.writerow([span_id, parent, pass_id, name, f"{start:.9f}", f"{end:.9f}"])
        return len(self.spans)
