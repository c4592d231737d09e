"""Retrieval metrics: strict average precision and size-aware variants.

Every metric takes a ranked list of (doc, path) entries and the relevant
set: ``quantize`` makes it, binary, from an assessment view, and it is the
recall base. Strict scoring averages interpolated precision over the 100
recall levels 0.01..1.00, where interpolated precision at level r is the
maximum precision among ranks whose recall reaches r (0 when none does).

The size-aware variants (reported as ``ng-s-reconstructed`` and
``ng-o-reconstructed``) weigh the curve by subtree token counts. Mode ``s``
credits every relevant entry with its full size; mode ``o`` credits only
text units not already covered by earlier entries' subtrees, so nested
re-retrieval earns nothing while still consuming rank positions and text.
Consequently mode ``o`` never scores above mode ``s`` and the two agree on
overlap-free runs.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import AbstractSet, Mapping, Sequence

from .assessments import AssessmentSet, derive_view
from .corpus import Corpus
from .paths import ElementPath, PathStep

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

SizeMap = Mapping[tuple[str, ElementPath], int]


def quantize(assessment: AssessmentSet, case: str) -> frozenset[tuple[str, ElementPath]]:
    """The chosen view as binary judgments: the relevant set."""
    return frozenset(derive_view(assessment, case))


def interpolated_average_precision(points: Sequence[tuple[float, float]]) -> float:
    """Mean of interpolated precision over the 100 recall levels.

    ``points`` are (recall, precision) after each rank, recall non-decreasing.
    """
    if not points:
        return 0.0
    recalls = [r for r, _ in points]
    best_at_or_after = [0.0] * len(points)
    running = 0.0
    for i in range(len(points) - 1, -1, -1):
        running = max(running, points[i][1])
        best_at_or_after[i] = running
    total = 0.0
    for level in RECALL_LEVELS:
        i = bisect_left(recalls, level)
        if i < len(points):
            total += best_at_or_after[i]
    return total / len(RECALL_LEVELS)


def inex_eval_strict(
    entries: Sequence[tuple[str, ElementPath]],
    relevant: AbstractSet[tuple[str, ElementPath]],
) -> float:
    """Average precision with exact (doc, path) matching against the relevant set.

    Raises ValueError when the recall base is empty.
    """
    base = len(relevant)
    if base == 0:
        raise ValueError("empty recall base")
    points = []
    hits = 0
    seen: set[tuple[str, ElementPath]] = set()
    for rank, entry in enumerate(entries, start=1):
        if entry in relevant and entry not in seen:
            hits += 1
            seen.add(entry)
        points.append((hits / base, hits / rank))
    return interpolated_average_precision(points)


def _cover(roots: dict[tuple[PathStep, ...], int], path: ElementPath, size: int) -> int:
    """Cover an entry of ``size`` in one document's covered roots (an antichain
    of steps, each with its size) and return its part not covered before:
    subtrees are nested or disjoint, so that is its size minus the covered
    roots below it, or zero when a covered root encloses it."""
    steps = path.steps
    depth = len(steps)
    if any(len(r) <= depth and steps[: len(r)] == r for r in roots):
        return 0
    inner = [r for r in roots if len(r) > depth and r[:depth] == steps]
    uncovered = size - sum(map(roots.pop, inner))
    roots[steps] = size
    return max(0, uncovered)


def inex_eval_ng(
    entries: Sequence[tuple[str, ElementPath]],
    relevant: AbstractSet[tuple[str, ElementPath]],
    sizes: SizeMap,
    overlap_mode: str,
) -> float:
    """Size-weighted average precision.

    ``overlap_mode`` is ``"s"`` (full sizes) or ``"o"`` (overlap deducted
    from the relevant credit). Elements missing from ``sizes`` count as
    size 0.
    """
    if overlap_mode not in ("s", "o"):
        raise ValueError(f"unknown overlap mode: {overlap_mode!r}")
    total_relevant = sum(sizes.get(entry, 0) for entry in relevant)
    if total_relevant <= 0:
        raise ValueError("empty size-weighted recall base")
    covered_roots: dict[str, dict[tuple[PathStep, ...], int]] = {}
    covered = 0
    consumed = 0
    points = []
    for entry in entries:
        doc, path = entry
        size = sizes.get(entry, 0)
        credit = size if overlap_mode == "s" else _cover(covered_roots.setdefault(doc, {}), path, size)
        if entry in relevant:
            covered += credit
        consumed += size
        recall = covered / total_relevant
        precision = covered / consumed if consumed > 0 else 0.0
        points.append((recall, precision))
    return interpolated_average_precision(points)


def mean_average_precision(per_topic: Mapping[int, float]) -> float:
    if not per_topic:
        raise ValueError("no scoreable topics")
    return sum(per_topic.values()) / len(per_topic)


def build_size_map(
    corpus: Corpus,
    needed: set[tuple[str, ElementPath]],
) -> tuple[dict[tuple[str, ElementPath], int], list[str]]:
    """Subtree token counts for the needed (doc, path) pairs.

    Pairs that do not resolve against the corpus get size 0 and a
    diagnostic; evaluation proceeds regardless.
    """
    numbers = dict(zip(corpus.docs, range(len(corpus))))
    sizes: dict[tuple[str, ElementPath], int] = {}
    diagnostics: list[str] = []
    for doc, path in sorted(needed, key=lambda p: (p[0], p[1].steps)):
        number = numbers.get(doc)
        node = corpus.tree(number).find(path) if number is not None else None
        sizes[(doc, path)] = 0 if node is None else corpus.sizes[node]
        if node is None:
            diagnostics.append(f"size unavailable, using 0: {doc} {path}")
    return sizes, diagnostics
