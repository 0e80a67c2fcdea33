"""Spans around the calls into each discocirc layer, from outside.

``Tracer.install`` replaces each traced public function, in every
discocirc module that binds it, with a wrapper that records a span: its
name, start, end and parent.  Spans stay in memory until the run ends.
A span that starts in a worker thread of ``train`` takes the innermost
open span of the main thread as its parent.

After a call returns, the wrapper measures the sizes of its output.  That
time is the tracer's own: it is recorded as ``done`` and the parent's
self time does not count it.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time

from discocirc.frames import Box, Frame, Identity, Par, Perm, Spider

from workloads import walk

# (layer, module, function) for every traced public function
TRACED = [
    ("ingest", "discocirc.ingest", "parse_text"),
    ("trees", "discocirc.trees", "build_trees"),
    ("rewrite", "discocirc.rewrite", "rewrite_tree"),
    ("frames", "discocirc.frames", "sentence_diagram"),
    ("compose", "discocirc.compose", "compose_document"),
    ("sandwich", "discocirc.sandwich", "expand_frames"),
    ("ansatz", "discocirc.ansatz", "append_merge_box"),
    ("ansatz", "discocirc.ansatz", "compile"),
    ("sim", "discocirc.sim", "simulate"),
    ("sim", "discocirc.sim", "gradient"),
    ("sim", "discocirc.sim", "train"),
    ("pipeline", "discocirc.pipeline", "treeize"),
    ("pipeline", "discocirc.pipeline", "diagrams"),
]


def _count(layers, kind) -> int:
    return sum(isinstance(el, kind) for layer in layers for el in walk(layer))


# output sizes per traced function: (args, result) -> {name: number}
def _parse_sizes(args, doc):
    pronouns = args[1].pronouns
    unresolved = 0
    for chain in doc.corefs.chains:
        words = [doc.sentences[si].words[ti] for si, ti in chain]
        if all(w in pronouns for w in words):
            unresolved += len(words)
    return {"unresolved_pronouns": unresolved}


def _sentence_sizes(args, sd):
    return {"boxes": _count([sd.body], Box), "frames": _count([sd.body], Frame)}


def _compose_sizes(args, td):
    pad = sum(len(el.wires) for layer in td.layers if isinstance(layer, Par)
              for el in layer.elements if isinstance(el, Identity))
    return {"layers": len(td.layers),
            "perm_layers": sum(isinstance(l, Perm) for l in td.layers),
            "spider_layers": sum(isinstance(l, Spider) for l in td.layers),
            "pad_wires": pad}


def _expand_sizes(args, td):
    return {"frames_in": _count(args[0].layers, Frame),
            "layers_out": len(td.layers),
            "perm_layers_out": sum(isinstance(l, Perm) for l in td.layers)}


def _compile_sizes(args, c):
    names = [g.name for g in c.gates]
    return {"qubits_max": c.n_qubits, "gates": len(names),
            "gates_swap": names.count("SWAP"), "gates_cx": names.count("CX"),
            "symbols": len(c.symbols), "postselected": len(c.postselect)}


SIZES = {
    "parse_text": _parse_sizes,
    "build_trees": lambda args, r: {"removed_cups": len(r.removed_cups)},
    "rewrite_tree": lambda args, r: {"merges": r.merges},
    "sentence_diagram": _sentence_sizes,
    "compose_document": _compose_sizes,
    "expand_frames": _expand_sizes,
    "compile": _compile_sizes,
    "simulate": lambda args, r: {"success": r[1]},
}


class Span:
    __slots__ = ("name", "start", "end", "done", "parent", "sizes")

    def __init__(self, name, start, parent):
        self.name, self.start, self.parent = name, start, parent
        self.end = self.done = start
        self.sizes = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.rounds: list[int] = []  # index of the first span of each round
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patched = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, func: str, fn):
        name = f"{layer}.{func}"
        sizes = SIZES.get(func)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = Span(name, time.perf_counter(), parent)
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = span.done = time.perf_counter()
                stack.pop()
            if sizes is not None:
                span.sizes = sizes(args, result)
            span.done = time.perf_counter()
            return result

        return traced

    def install(self) -> None:
        for layer, module, func in TRACED:
            original = getattr(sys.modules[module], func)
            wrapper = self._wrap(layer, func, original)
            # rebind the name wherever a caller looks it up
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "discocirc":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def start_round(self) -> None:
        self.rounds.append(len(self.spans))

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent, sizes."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps({"name": span.name, "start": span.start,
                                    "end": span.end, "parent": span.parent,
                                    "sizes": span.sizes}) + "\n")

    # --- per-layer metrics -------------------------------------------------

    def _self_times(self) -> list[float]:
        """Wall time during which each span runs none of its children.

        A child covers its parent from its start until its sizes were
        measured.  Where spans of several threads run at once, which with
        the interpreter lock means in turn, the time is split evenly
        between them, so the self times add up to wall time.
        """
        events = []  # (time, order, kind, span); starts sort last on ties
        for i, span in enumerate(self.spans):
            events += [(span.start, 2, "start", i), (span.end, 0, "end", i),
                       (span.done, 1, "done", i)]
        events.sort()
        out = [0.0] * len(self.spans)
        busy_children = [0] * len(self.spans)
        open_spans: set[int] = set()
        running: set[int] = set()
        now = events[0][0] if events else 0.0
        for t, _, kind, i in events:
            if running:
                share = (t - now) / len(running)
                for j in running:
                    out[j] += share
            now = t
            parent = self.spans[i].parent
            if kind == "start":
                open_spans.add(i)
                running.add(i)
                if parent is not None:
                    busy_children[parent] += 1
                    running.discard(parent)
            elif kind == "end":
                open_spans.discard(i)
                running.discard(i)
            elif parent is not None:
                busy_children[parent] -= 1
                if busy_children[parent] == 0 and parent in open_spans:
                    running.add(parent)
        return out

    def round_metrics(self) -> list[dict[str, float]]:
        self_s = self._self_times()
        bounds = self.rounds + [len(self.spans)]
        rounds = []
        for lo, hi in zip(bounds, bounds[1:]):
            m = {name: 0.0 for name in PER_LAYER}
            successes = []
            for i in range(lo, hi):
                span = self.spans[i]
                layer = span.name.split(".")[0]
                key = span.name if layer == "sim" else layer
                if f"{key}.calls" in m:
                    m[f"{key}.calls"] += 1
                if f"{key}.self_s" in m:
                    m[f"{key}.self_s"] += self_s[i]
                for size, value in (span.sizes or {}).items():
                    if size == "success":
                        successes.append(value)
                    elif size == "qubits_max":
                        m["ansatz.qubits_max"] = max(
                            m["ansatz.qubits_max"], value)
                    else:
                        m[f"{layer}.{size}"] += value
            if successes:
                m["sim.success_min"] = min(successes)
                m["sim.success_p50"] = statistics.median(successes)
            rounds.append(m)
        return rounds


# metric -> unit, in the order they are reported
PER_LAYER = {
    "ingest.calls": "count", "ingest.self_s": "s",
    "ingest.unresolved_pronouns": "count",
    "trees.calls": "count", "trees.self_s": "s",
    "trees.removed_cups": "count",
    "rewrite.calls": "count", "rewrite.self_s": "s", "rewrite.merges": "count",
    "frames.calls": "count", "frames.self_s": "s", "frames.boxes": "count",
    "frames.frames": "count",
    "compose.calls": "count", "compose.self_s": "s", "compose.layers": "count",
    "compose.perm_layers": "count", "compose.spider_layers": "count",
    "compose.pad_wires": "count",
    "sandwich.calls": "count", "sandwich.self_s": "s",
    "sandwich.frames_in": "count", "sandwich.layers_out": "count",
    "sandwich.perm_layers_out": "count",
    "ansatz.calls": "count", "ansatz.self_s": "s",
    "ansatz.qubits_max": "qubits", "ansatz.gates": "count",
    "ansatz.gates_swap": "count", "ansatz.gates_cx": "count",
    "ansatz.symbols": "count", "ansatz.postselected": "count",
    "sim.simulate.calls": "count", "sim.simulate.self_s": "s",
    "sim.gradient.calls": "count", "sim.gradient.self_s": "s",
    "sim.train.self_s": "s",
    "sim.success_min": "prob", "sim.success_p50": "prob",
    "pipeline.self_s": "s",
}
