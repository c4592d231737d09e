"""Retrieval metrics: strict and size-weighted average precision on one curve.

Every metric takes ranked entries and the relevant set, its recall base.
Strict scoring takes (doc, path) pairs, as ``quantize`` makes the set from
an assessment view; the size-aware variants take the corpus nodes that
``build_size_map`` resolves those pairs to.

All three metrics build the same curve from what each rank earns and
consumes: recall is the credit so far over the recall base, precision the
credit so far over the size so far, and the score averages interpolated
precision over the 100 recall levels 0.01..1.00, where interpolated precision
at level r is the best precision at or after the first rank whose recall
reaches r (0 when none does). Only the ranks that earn credit enter the
curve, and that is exact: a rank that earns nothing keeps the credit and
adds size, so its precision never beats the earning rank before it, and the
first rank to reach a recall level earns. The metrics differ only in what a
rank earns and consumes:

* ``inex-eval``: every rank has size 1; a relevant pair earns 1 the first
  time it is listed; the base is the number of relevant pairs.
* ``ng-s`` (reported as ``ng-s-reconstructed``): a rank has its node's
  subtree token count as size, and a relevant node earns its full size.
* ``ng-o`` (``ng-o-reconstructed``): sizes as in ng-s, but a relevant node
  earns only how much the text under the entries so far grows at its rank,
  so nested re-retrieval earns nothing while still consuming rank positions
  and text.

The size-aware bases are the relevant nodes' total size, and an entry that
did not resolve in the corpus has size 0. Consequently ng-o never scores
above ng-s and the two agree on overlap-free runs.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, compress, count
from typing import AbstractSet, Iterable, Mapping, Sequence

from .assessments import AssessmentSet, derive_view
from .corpus import Corpus, one_line
from .paths import ElementPath

RECALL_LEVELS = tuple(i / 100 for i in range(1, 101))

METRIC_STRICT = "inex-eval"
METRIC_NG_SIZE = "ng-s"
METRIC_NG_OVERLAP = "ng-o"
METRICS = (METRIC_STRICT, METRIC_NG_SIZE, METRIC_NG_OVERLAP)

METRIC_LABELS = {
    METRIC_STRICT: "inex-eval",
    METRIC_NG_SIZE: "ng-s-reconstructed",
    METRIC_NG_OVERLAP: "ng-o-reconstructed",
}


def quantize(assessment: AssessmentSet, case: str) -> frozenset[tuple[str, ElementPath]]:
    """The chosen view as binary judgments: the relevant set."""
    return derive_view(assessment, case)


def _average_precision(points: Sequence[tuple[int, int]], total: int) -> float:
    """Mean interpolated precision over the 100 recall levels, from the
    ``(credit so far, size so far)`` pair at each rank that earns credit, in
    rank order, and the recall base ``total``."""
    recalls = [credit / total for credit, _ in points]
    precisions = [credit / consumed for credit, consumed in points]  # an earning rank has consumed size
    for i in range(len(precisions) - 2, -1, -1):  # best precision at or after each earning rank
        precisions[i] = max(precisions[i], precisions[i + 1])
    found = (bisect_left(recalls, level) for level in RECALL_LEVELS)
    return sum(precisions[i] for i in found if i < len(precisions)) / len(RECALL_LEVELS)


def inex_eval_strict(
    entries: Sequence[tuple[str, ElementPath]],
    relevant: AbstractSet[tuple[str, ElementPath]],
) -> float:
    """Average precision with exact (doc, path) matching against the relevant set.

    ``entries`` is a sequence, best first. Raises ValueError when the recall
    base is empty.
    """
    if not relevant:
        raise ValueError("empty recall base")
    first = dict(zip(reversed(entries), range(len(entries) - 1, -1, -1)))  # each entry's first rank
    ranks = sorted(rank for entry, rank in first.items() if entry in relevant)
    return _average_precision([(i, rank + 1) for i, rank in enumerate(ranks, 1)], len(relevant))


def inex_eval_ng(
    entries: Sequence[int | None],
    relevant: AbstractSet[int],
    corpus: Corpus,
    overlap_mode: str,
) -> float:
    """Size-weighted average precision over corpus node numbers.

    ``entries`` is a sequence, best first. ``overlap_mode`` is ``"s"`` (full
    sizes) or ``"o"`` (overlap deducted from the relevant credit). A ``None``
    entry, one that did not resolve in the corpus, keeps its rank with size 0.
    """
    if overlap_mode not in ("s", "o"):
        raise ValueError(f"unknown overlap mode: {overlap_mode!r}")
    sizes, ends = corpus.sizes, corpus.ends
    total_relevant = sum(sizes[node] for node in relevant)
    if total_relevant <= 0:
        raise ValueError("empty size-weighted recall base")
    consumed = list(accumulate((0 if node is None else sizes[node] for node in entries), initial=0))
    covered = consumed  # ng-s: a relevant rank earns its full size, covered before or not
    if overlap_mode == "o":  # covered[k]: the text under entries[:k]
        first = dict(zip(reversed(entries), range(len(entries) - 1, -1, -1)))  # each entry's first rank
        first.pop(None, None)
        change = [0] * (len(entries) + 2)
        stack: list[tuple[int, int]] = []  # (end, first rank of it or any ancestor) per enclosing node
        for node in sorted(first):
            while stack and stack[-1][0] <= node:
                stack.pop()
            above = stack[-1][1] if stack else len(entries)
            if first[node] < above:  # its size counts from its first rank up to a listed ancestor's
                change[first[node] + 1] += sizes[node]
                change[above + 1] -= sizes[node]
            stack.append((ends[node], min(above, first[node])))
        covered = list(accumulate(change))
    ranks = [k for k in compress(count(), map(relevant.__contains__, entries)) if covered[k + 1] > covered[k]]
    credits = accumulate(covered[k + 1] - covered[k] for k in ranks)
    return _average_precision(list(zip(credits, (consumed[k + 1] for k in ranks))), total_relevant)


def mean_average_precision(per_topic: Mapping[int, float]) -> float:
    if not per_topic:
        raise ValueError("no scoreable topics")
    return sum(per_topic.values()) / len(per_topic)


def build_size_map(
    corpus: Corpus,
    needed: Iterable[tuple[str, ElementPath]],
) -> tuple[dict[tuple[str, ElementPath], int | None], list[str]]:
    """Each needed (doc, path) pair's corpus node, whose size is ``corpus.sizes[node]``.

    Pairs that do not resolve against the corpus map to None, with one
    diagnostic line each (``one_line``), sorted by doc and then by path steps
    (``sec[9]`` before ``sec[10]``); evaluation proceeds regardless, counting
    them as size 0.
    """
    numbers = dict(zip(corpus.docs, range(len(corpus))))
    nodes: dict[tuple[str, ElementPath], int | None] = {}
    for doc, path in needed:
        number = numbers.get(doc)
        nodes[doc, path] = None if number is None else corpus.find(number, path)
    missing = sorted((pair for pair, node in nodes.items() if node is None), key=lambda p: (p[0], p[1].steps))
    return nodes, [one_line(f"size unavailable, using 0: {doc} {path}") for doc, path in missing]
