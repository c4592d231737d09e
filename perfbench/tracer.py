"""Span tracer that wraps the package's public layer functions from outside.

``Tracer.install`` replaces each traced function in every loaded ``xmlir``
module that holds it, so both ``xmlir.pipeline.match_elements`` and
``xmlir.matcher.match_elements`` (and any other alias) reach the wrapper.
``uninstall`` puts the originals back. A function that no longer exists is
recorded as absent rather than failing the run.

Spans live in flat arrays (name, start, end, parent, topic id) until
``write_spans``; self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

# (layer name, module, attribute). The layer name prefixes the metrics.
TRACED = (
    ("corpus.ingest", "xmlir.corpus", "ingest_corpus"),
    ("ranker.build_index", "xmlir.ranker", "build_index"),
    ("ranker.rank", "xmlir.ranker", "rank_articles"),
    ("matcher.match", "xmlir.matcher", "match_elements"),
    ("matcher.collection", "xmlir.matcher", "collection_match"),
    ("cre.identify", "xmlir.cre", "identify_cres"),
    ("cre.rank", "xmlir.cre", "rank_cres"),
    ("pipeline.execute", "xmlir.pipeline", "execute"),
    ("assessments.load", "xmlir.assessments", "load_assessments"),
    ("assessments.derive_view", "xmlir.assessments", "derive_view"),
    ("assessments.categorize", "xmlir.assessments", "categorize_topic"),
    ("evaluation.quantize", "xmlir.evaluation", "quantize"),
    ("evaluation.size_map", "xmlir.evaluation", "build_size_map"),
    ("evaluation.strict", "xmlir.evaluation", "inex_eval_strict"),
    ("evaluation.ng", "xmlir.evaluation", "inex_eval_ng"),
    ("cli.report", "xmlir.cli", "cmd_report"),
    ("cli.score_runs", "xmlir.cli", "_score_runs"),
)

NO_TOPIC = -1


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


def _count(layer: str, args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    """Work counters read from one call's arguments and result."""
    if layer == "corpus.ingest":
        trees = list(result.trees())
        return {
            "docs": len(trees),
            "nodes": sum(len(t.nodes) for t in trees),
            "tokens": sum(t.root.subtree_size for t in trees),
        }
    if layer == "ranker.rank":
        index = _arg(args, kwargs, 0, "index")
        terms = set(_arg(args, kwargs, 1, "query"))
        return {"postings_touched": sum(len(index.postings.get(t, ())) for t in terms)}
    if layer == "matcher.match":
        tree = _arg(args, kwargs, 0, "tree")
        return {"nodes_visited": len(tree.nodes), "matches": len(result), "useful": bool(result)}
    if layer == "cre.identify":
        return {"items_in": len(_arg(args, kwargs, 1, "matching")), "cres_out": len(result)}
    if layer == "pipeline.execute":
        config = _arg(args, kwargs, 3, "config")
        return {"entries_out": len(result.entries), "capped": len(result.entries) >= config.max_results}
    if layer == "evaluation.size_map":
        return {"pairs": len(_arg(args, kwargs, 1, "needed"))}
    if layer == "evaluation.ng":
        return {"entries": len(_arg(args, kwargs, 0, "entries"))}
    return {}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.topic = array("i")
        self.stack: list[int] = []
        self.current_topic = NO_TOPIC
        self.counters: dict[str, float] = defaultdict(float)
        # [matches, coherent elements] produced inside each open execute span
        self.produced: list[list[int]] = []
        self.counter_errors: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._patched: list[tuple[Any, str, Callable]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        for layer, module_name, attr in TRACED:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for name, mod in list(sys.modules.items()):
                if (name == "xmlir" or name.startswith("xmlir.")) and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        name_id = self.name_ids[layer] = len(self.names)
        self.names.append(layer)
        clock = time.perf_counter
        is_execute = layer == "pipeline.execute"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            outer_topic = self.current_topic
            if is_execute:
                topic = _arg(args, kwargs, 0, "topic")
                self.current_topic = getattr(topic, "id", NO_TOPIC)
                self.produced.append([0, 0])
            self.topic.append(self.current_topic)
            self.stack.append(index)
            self.end.append(0.0)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self.stack.pop()
                self.current_topic = outer_topic
                produced = self.produced.pop() if is_execute else None
            self._record(layer, args, kwargs, result, produced)
            return result

        return wrapper

    def _record(self, layer: str, args: tuple, kwargs: dict, result: Any, produced: list[int] | None) -> None:
        try:
            counts = _count(layer, args, kwargs, result)
            if produced is not None:
                config = _arg(args, kwargs, 3, "config")
                if config.system != "fulltext":
                    counts["element_entries"] = len(result.entries)
                    counts["produced"] = produced[1] if config.cre else produced[0]
        except (AttributeError, KeyError, TypeError):  # a changed signature or result type
            self.counter_errors[layer] += 1
            return
        for key, value in counts.items():
            self.counters[f"{layer}.{key}"] += value
        if self.produced and layer == "matcher.match":
            self.produced[-1][0] += counts["matches"]
        elif self.produced and layer == "cre.identify":
            self.produced[-1][1] += counts["cres_out"]

    # -- results ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def layer_stats(self) -> dict[str, LayerStats]:
        """Calls, total time and self time per layer; absent layers are zero."""
        child_time = [0.0] * len(self)
        for i in range(len(self)):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        stats = {layer: LayerStats() for layer, _, _ in TRACED}
        for i in range(len(self)):
            s = stats[self.names[self.name_of[i]]]
            duration = self.end[i] - self.start[i]
            s.calls += 1
            s.total_s += duration
            s.self_s += duration - child_time[i]
        return stats

    def calls_under(self, layer: str, ancestor: str) -> int:
        """Spans of ``layer`` with a span of ``ancestor`` somewhere above."""
        target = self.name_ids.get(layer)
        outer = self.name_ids.get(ancestor)
        count = 0
        for i in range(len(self)):
            if self.name_of[i] != target:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != outer:
                p = self.parent[p]
            count += p >= 0
        return count

    def write_spans(self, path) -> None:
        """Tab-separated spans: index, name, start, end, parent, topic id."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\ttopic\n")
            for i in range(len(self)):
                out.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.topic[i]}\n"
                )
