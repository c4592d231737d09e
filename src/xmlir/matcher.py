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
Tatarinov et al., SIGMOD 2002). So one document's matches are the ``bisect``
slice of the corpus's on its range (``match_elements``), and matching in
listed documents only cuts each term's postings to their ranges first.

* OR: the satisfying nodes with no satisfying descendant are the
  term-bearing nodes with no term-bearing descendant, so the postings are
  merged into one sorted list and tested directly: a node listed more than
  once, per occurrence or per term, fails the test on all but its last copy.
* AND: a corpus lacking any query term has no match. Otherwise only the
  shortest postings list is closed upwards through ``parents`` (stopping at
  nodes already marked, or past a root): the marked nodes are those whose
  subtree holds that term. Each other term's nodes then walk up only to
  their lowest marked ancestor-or-self, which is kept, and a walk stops
  early at a node an earlier walk of that term passed. Every kept node holds
  both terms, and every smallest node holding both is kept, since no marked
  node lies between it and the term's node below it; so the same ``ends``
  test picks the smallest lowest common ancestors (Xu & Papakonstantinou,
  SIGMOD 2005). With a third term or more, the kept nodes are closed again,
  which marks exactly the nodes holding every term so far, before the next
  term walks. A one-term query tests its postings as they are: a node listed
  once per occurrence fails the ``ends`` test on all but its last copy.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Iterable, Sequence

from .corpus import Corpus, DocumentTree

AND = "and"
OR = "or"


def collection_match(corpus: Corpus, terms: Iterable[str], mode: str, docs: Sequence[int] | None = None) -> list[int]:
    """Ascending node numbers of the most specific elements holding all
    (``AND``) or any (``OR``) of ``terms``, in the whole corpus or, given
    ascending document numbers ``docs``, in those documents only."""
    if mode not in (AND, OR):
        raise ValueError(f"unknown query mode: {mode!r}")
    found = [corpus.postings.get(term, ()) for term in terms]
    if not found:
        raise ValueError("element query needs at least one term")
    if docs is not None:  # each term's nodes in the ranges [starts[d], starts[d + 1]) of the listed documents
        bounds = [(corpus.starts[d], corpus.starts[d + 1]) for d in docs]
        found = [list(chain.from_iterable(p[bisect_left(p, a) : bisect_left(p, b)] for a, b in bounds)) for p in found]
    if mode == OR:
        satisfied = sorted(chain.from_iterable(found))
    elif all(found):
        hits, *others = sorted(found, key=len)
        for nodes in others:
            hits = _lowest_marked(nodes, _ancestor_closure(hits, corpus.parents), corpus.parents)
        satisfied = sorted(hits)
    else:
        return []
    ends = corpus.ends
    following = satisfied[1:] + [len(ends)]
    return [i for i, after in zip(satisfied, following) if after >= ends[i]]


def match_elements(tree: DocumentTree, terms: Iterable[str], mode: str) -> list[int]:
    """``collection_match`` within one document; kept only for ``perfbench``'s tracer
    and read by the pin test ``test_collection_match_equals_brute_force_per_document``."""
    matches = collection_match(tree.corpus, terms, mode)
    return matches[bisect_left(matches, tree.start) : bisect_left(matches, tree.end)]


def _ancestor_closure(nodes: Iterable[int], parents: Sequence[int]) -> set[int]:
    """The given nodes and all their ancestors, stopping at nodes already marked."""
    marked: set[int] = set()
    mark = marked.add
    for i in nodes:
        while i >= 0 and i not in marked:
            mark(i)
            i = parents[i]
    return marked


def _lowest_marked(nodes: Sequence[int], marked: set[int], parents: Sequence[int]) -> set[int]:
    """Each node's lowest ancestor-or-self in ``marked``, where it has one. A
    walk stops at a node an earlier walk passed, whose own walk went on to the
    same ancestor."""
    lowest: set[int] = set()
    passed: set[int] = set()
    for i in nodes:
        while i >= 0 and i not in marked and i not in passed:
            passed.add(i)
            i = parents[i]
        if i in marked:
            lowest.add(i)
    return lowest
