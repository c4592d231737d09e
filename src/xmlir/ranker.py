"""Whole-document ranking over an inverted index.

Scoring is log tf-idf with pivoted length normalization:

    score(d) = sum over query occurrences t present in d of
               ln(1 + N/df_t) * (1 + ln(tf_td))  /  norm(d)
    norm(d)  = (1 - slope) + slope * len(d)/avg_len

Building the index computes only the document lengths. A term's
``(document number, 1 + ln tf)`` list is derived from the corpus's node
postings the first time the term is read, and kept; each document's norm is
derived once per slope, on first use, from the lengths and their mean. So a
command pays only for the terms its topics hold, and a query then pays only
one multiply-add per posting. Documents scoring zero are omitted; ties break
by document number, which is ingestion order.
"""

from __future__ import annotations

import heapq
import math
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul, truediv
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
        if self.max_results > sys.maxsize:  # the largest cap ``islice`` takes
            raise ValueError(f"max_results must be at most {sys.maxsize}: {self.max_results}")


class Postings(dict):
    """term -> [(document number, 1 + ln tf)] in ascending numbers, derived
    from the corpus's node postings on a term's first read (by ``[]`` or
    ``get``) and kept; pairs of equal document and tf are one tuple, shared
    across terms. Only the nodes the corpus held when it was indexed are read,
    so a later ``Corpus.add`` leaves the index as it was. A term absent from
    them reads as ``()``, kept too, so every later read is one dict lookup."""

    __slots__ = ("_nodes", "_doc_of", "_limit", "_shared")

    def __init__(self, corpus: Corpus) -> None:
        super().__init__()
        self._nodes, self._doc_of, self._limit = corpus.postings, corpus.doc_of, len(corpus.doc_of)
        self._shared: dict[tuple[int, int], tuple[int, float]] = {}  # (document number, tf) -> its pair

    def __missing__(self, term: str) -> list[tuple[int, float]] | tuple[()]:
        nodes = self._nodes.get(term, ())
        if nodes and nodes[-1] >= self._limit:  # nodes added after indexing
            nodes = nodes[: bisect_left(nodes, self._limit)]
        counts = Counter(map(self._doc_of.__getitem__, nodes)).items()
        for number, tf in counts - self._shared.keys():
            self._shared[number, tf] = number, 1.0 + math.log(tf)
        plist = self[term] = list(map(self._shared.__getitem__, counts)) or ()
        return plist

    def get(self, term: str, default=None):
        """``term``'s list, derived on first read; ``default`` when no indexed document holds it."""
        return self[term] or default


@dataclass(eq=False)
class InvertedIndex:
    postings: Postings  # term -> [(document number, 1 + ln tf)], ascending numbers, derived on first read
    doc_lengths: array  # document number -> token count
    _norms: dict[float, list[float]] = field(default_factory=dict, init=False, repr=False)  # slope -> norms

    def norms(self, slope: float) -> list[float]:
        """Each document's norm at ``slope``, memoized; raises ZeroDivisionError when no document has a token."""
        norms = self._norms.get(slope)
        if norms is None:
            ratios = map(truediv, self.doc_lengths, repeat(sum(self.doc_lengths) / len(self.doc_lengths)))
            norms = self._norms[slope] = list(map(add, repeat(1.0 - slope), map(mul, repeat(slope), ratios)))
        return norms


def build_index(corpus: Corpus) -> InvertedIndex:
    """The corpus's document lengths; each term's list is counted from its
    node postings, per ``corpus.doc_of`` entry, on first read."""
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    doc_lengths = array("i", map(corpus.sizes.__getitem__, corpus.starts[:-1]))
    return InvertedIndex(postings=Postings(corpus), doc_lengths=doc_lengths)


def rank_articles(
    index: InvertedIndex,
    query: Iterable[str],
    params: RankParams = RankParams(),
) -> tuple[list[int], list[float]]:
    """The capped document numbers for a term bag, in score order, and their scores;
    repeated terms contribute per occurrence."""
    weights = Counter(query)
    n = len(index.doc_lengths)
    accum: dict[int, float] = {}
    for term, qtf in weights.items():
        plist = index.postings[term]
        if not plist:
            continue
        w_q = qtf * math.log(1.0 + n / len(plist))
        for number, weight in plist:
            accum[number] = accum.get(number, 0.0) + w_q * weight
    if not accum:
        return [], []
    norms = index.norms(params.slope)
    scores = dict(zip(accum, map(truediv, accum.values(), map(norms.__getitem__, accum))))
    # nlargest is sorted(..., reverse=True)[:n], a stable sort: equal scores keep ascending numbers
    numbers = heapq.nlargest(params.max_results, sorted(scores), key=scores.__getitem__)
    return numbers, list(map(scores.__getitem__, numbers))
