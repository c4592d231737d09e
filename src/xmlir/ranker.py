"""Whole-document ranking over an inverted index.

Scoring is log tf-idf with pivoted length normalization:

    score(d) = sum over query occurrences t present in d of
               ln(1 + N/df_t) * (1 + ln(tf_td))  /  norm(d)
    norm(d)  = (1 - slope) + slope * len(d)/avg_len

Documents scoring zero are omitted; ties break by ingestion order.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

from .corpus import Corpus


@dataclass(frozen=True)
class RankParams:
    slope: float = 0.55
    max_results: int = 1500

    def __post_init__(self) -> None:
        if not 0.0 <= self.slope <= 1.0:
            raise ValueError(f"slope must lie in [0, 1]: {self.slope}")
        if self.max_results < 1:
            raise ValueError("max_results must be positive")


@dataclass(frozen=True)
class ScoredArticle:
    doc: str
    score: float


@dataclass(eq=False)
class InvertedIndex:
    postings: dict[str, list[tuple[str, int]]]  # term -> [(doc, tf)] in ingestion order
    doc_lengths: dict[str, int]  # insertion order == ingestion order
    doc_order: dict[str, int]
    avg_doc_length: float

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)


def build_index(corpus: Corpus) -> InvertedIndex:
    """Index whole-document token multisets; deterministic for a fixed corpus."""
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    postings: dict[str, list[tuple[str, int]]] = defaultdict(list)
    doc_lengths: dict[str, int] = {}
    doc_order: dict[str, int] = {}
    for seq, tree in enumerate(corpus.trees()):
        for term in sorted(tree.postings):
            postings[term].append((tree.doc, len(tree.postings[term])))
        doc_lengths[tree.doc] = tree.root.subtree_size
        doc_order[tree.doc] = seq
    avg = sum(doc_lengths.values()) / len(doc_lengths)
    return InvertedIndex(
        postings=dict(postings),
        doc_lengths=doc_lengths,
        doc_order=doc_order,
        avg_doc_length=avg,
    )


def rank_articles(
    index: InvertedIndex,
    query: Iterable[str],
    params: RankParams = RankParams(),
) -> list[ScoredArticle]:
    """Rank documents for a term bag; repeated terms contribute per occurrence."""
    weights = Counter(query)
    if not weights:
        return []
    n = index.doc_count
    accum: dict[str, float] = defaultdict(float)
    for term, qtf in weights.items():
        plist = index.postings.get(term)
        if not plist:
            continue
        w_q = math.log(1.0 + n / len(plist))
        for doc, tf in plist:
            accum[doc] += qtf * w_q * (1.0 + math.log(tf))
    if not accum:
        return []
    slope = params.slope
    avg = index.avg_doc_length
    scored = []
    for doc, raw in accum.items():
        norm = (1.0 - slope) + slope * (index.doc_lengths[doc] / avg)
        scored.append((doc, raw / norm))
    scored.sort(key=lambda item: (-item[1], index.doc_order[item[0]]))
    del scored[params.max_results :]
    return [ScoredArticle(doc=doc, score=score) for doc, score in scored]
