"""Whole-document ranking over an inverted index.

Scoring is log tf-idf with pivoted length normalization:

    score(d) = sum over query occurrences t present in d of
               ln(1 + N/df_t) * (1 + ln(tf_td))  /  norm(d)
    norm(d)  = (1 - slope) + slope * len(d)/avg_len

The index derives ``1 + ln tf`` once per distinct tf, and each document's
norm once per slope, on first use, so a query pays only per posting.
Documents scoring zero are omitted; ties break by document number, which is
ingestion order.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, itemgetter, mul, truediv
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


@dataclass(eq=False)
class InvertedIndex:
    postings: dict[str, list[tuple[int, int]]]  # term -> [(document number, tf)], ascending numbers
    doc_lengths: array  # document number -> token count
    avg_doc_length: float
    tf_weights: dict[int, float]  # tf -> 1 + ln tf, for each tf in the postings
    _norms: dict[float, list[float]] = field(default_factory=dict, init=False, repr=False)  # slope -> norms

    def norms(self, slope: float) -> list[float]:
        """Each document's norm at ``slope``, memoized; raises ZeroDivisionError when no document has a token."""
        norms = self._norms.get(slope)
        if norms is None:
            ratios = map(truediv, self.doc_lengths, repeat(self.avg_doc_length))
            norms = self._norms[slope] = list(map(add, repeat(1.0 - slope), map(mul, repeat(slope), ratios)))
        return norms


def build_index(corpus: Corpus) -> InvertedIndex:
    """Count each term's node postings per document, reading each node's
    document number from ``corpus.doc_of``; equal ``(document number, tf)``
    pairs are one tuple, shared across terms."""
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    starts, doc_of = corpus.starts, corpus.doc_of
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    postings = {
        term: [shared.setdefault(pair, pair) for pair in Counter(map(doc_of.__getitem__, nodes)).items()]
        for term, nodes in corpus.postings.items()
    }
    doc_lengths = array("i", map(corpus.sizes.__getitem__, starts[:-1]))
    return InvertedIndex(
        postings=postings,
        doc_lengths=doc_lengths,
        avg_doc_length=sum(doc_lengths) / len(doc_lengths),
        tf_weights={tf: 1.0 + math.log(tf) for tf in set(map(itemgetter(1), shared))},
    )


def rank_articles(
    index: InvertedIndex,
    query: Iterable[str],
    params: RankParams = RankParams(),
) -> tuple[list[int], list[float]]:
    """The capped document numbers for a term bag, in score order, and their scores;
    repeated terms contribute per occurrence."""
    weights = Counter(query)
    n = len(index.doc_lengths)
    tf_weights = index.tf_weights
    accum: dict[int, float] = {}
    for term, qtf in weights.items():
        plist = index.postings.get(term)
        if not plist:
            continue
        w_q = qtf * math.log(1.0 + n / len(plist))
        for number, tf in plist:
            accum[number] = accum.get(number, 0.0) + w_q * tf_weights[tf]
    if not accum:
        return [], []
    norms = index.norms(params.slope)
    scores = dict(zip(accum, map(truediv, accum.values(), map(norms.__getitem__, accum))))
    numbers = sorted(scores)
    numbers.sort(key=scores.__getitem__, reverse=True)  # stable: equal scores keep ascending numbers
    del numbers[params.max_results :]
    return numbers, list(map(scores.__getitem__, numbers))
