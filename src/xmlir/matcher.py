"""Element-level AND/OR keyword search.

Returns the most specific elements whose subtree satisfies the term
predicate: an element matches when its subtree holds the required terms and
no proper descendant's subtree does likewise. A query is a non-empty term
set and a mode, ``AND`` or ``OR``. The matches form an antichain, returned
as ascending node numbers, which is document order; ``corpus.path(i)``
gives a match's path. No ranking happens here.

Matching reads the query terms' whole postings arrays, not the tree. Node
``i``'s subtree is ``[i, ends[i])``, so in a sorted list of node numbers a
member has no member below it exactly when the next one (or, after the last,
the node count) is not below its ``ends``: that test finds the most specific
nodes in both modes. The test holds across document boundaries, as each
document is a range of the corpus-wide numbering (the interval encoding of
Tatarinov et al., SIGMOD 2002), so one document's matches are the ``bisect``
slice of the corpus's on its range (``match_elements``).

* OR: the satisfying nodes with no satisfying descendant are the
  term-bearing nodes with no term-bearing descendant, so the postings are
  merged into one sorted list and tested directly: a node listed more than
  once, per occurrence or per term, fails the test on all but its last copy.
* AND: a corpus lacking any query term has no match, found before anything
  is derived. Otherwise each term's holder list (``Corpus.holders``: the
  ascending nodes whose subtree holds it, its element-level postings as in
  XRANK, Guo et al., SIGMOD 2003) is intersected with the next, shortest
  first, which keeps the order. The intersection is every node whose
  subtree holds every term, and the same ``ends`` test keeps its members
  with no member below: the smallest lowest common ancestors (Xu &
  Papakonstantinou, SIGMOD 2005). A term's holder list is derived on its
  first AND query and kept until the corpus grows.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Iterable

from .corpus import Corpus, DocumentTree

AND = "and"
OR = "or"


def collection_match(corpus: Corpus, terms: Iterable[str], mode: str) -> list[int]:
    """Ascending node numbers of the most specific elements holding all
    (``AND``) or any (``OR``) of ``terms``, in the whole corpus."""
    if mode not in (AND, OR):
        raise ValueError(f"unknown query mode: {mode!r}")
    terms = list(terms)
    if not terms:
        raise ValueError("element query needs at least one term")
    postings = corpus.postings
    if mode == OR:
        satisfied = sorted(chain.from_iterable(postings.get(term, ()) for term in terms))
    elif all(postings.get(term) for term in terms):
        satisfied, *others = sorted(map(corpus.holders, terms), key=len)
        for holders in others:
            satisfied = list(filter(set(satisfied).__contains__, holders))
    else:
        return []
    ends = corpus.ends
    following = [*satisfied[1:], len(ends)]
    return [i for i, after in zip(satisfied, following) if after >= ends[i]]


def match_elements(tree: DocumentTree, terms: Iterable[str], mode: str) -> list[int]:
    """``collection_match`` within one document; kept only for ``perfbench``'s tracer
    and read by the pin test ``test_collection_match_equals_brute_force_per_document``."""
    matches = collection_match(tree.corpus, terms, mode)
    return matches[bisect_left(matches, tree.start) : bisect_left(matches, tree.end)]
