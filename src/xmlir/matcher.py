"""Element-level AND/OR keyword search.

Returns the most specific elements whose subtree satisfies the term
predicate: an element matches when its subtree holds the required terms and
no proper descendant's subtree does likewise. A query is a non-empty term
set and a mode, ``AND`` or ``OR``. The matches form an antichain, returned
as ascending node numbers, which is document order; ``corpus.paths[i]``
gives a match's path. No ranking happens here.

Matching reads the query terms' postings, not the tree: the whole arrays
for the corpus (``collection_match``), or their ``bisect`` slices within one
document's range (``match_elements``). Node ``i``'s subtree is ``[i,
ends[i])``, so in a sorted list of node numbers a member has no member below
it exactly when the next one (or, after the last, the range's end) is not
below its ``ends``: that test finds the most specific nodes in both modes.
Each document is a range of the corpus-wide numbering (the interval encoding
of Tatarinov et al., SIGMOD 2002), so the test holds across document
boundaries: the next satisfying node after a document's last lies in a later
document, past that node's ``ends``.

* OR: the satisfying nodes with no satisfying descendant are the
  term-bearing nodes with no term-bearing descendant, so the sorted union of
  the postings is tested directly.
* AND: a range lacking any query term has no match. Otherwise each term's
  nodes are closed upwards through ``parents`` (stopping at nodes already
  marked for that term, or past a root); the nodes marked by every term are
  exactly those whose subtree holds all terms, and the same ``ends`` test
  picks the smallest of them (the smallest lowest common ancestors of Xu &
  Papakonstantinou, SIGMOD 2005).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from .corpus import Corpus, DocumentTree

AND = "and"
OR = "or"


def collection_match(corpus: Corpus, terms: Iterable[str], mode: str) -> list[int]:
    """Ascending node numbers of the most specific elements of the whole
    corpus holding all (``AND``) or any (``OR``) of ``terms``."""
    return _match(corpus, terms, mode, 0, len(corpus.paths))


def match_elements(tree: DocumentTree, terms: Iterable[str], mode: str) -> list[int]:
    """``collection_match`` within one document: its ascending node numbers."""
    return _match(tree.corpus, terms, mode, tree.start, tree.end)


def _match(corpus: Corpus, terms: Iterable[str], mode: str, start: int, end: int) -> list[int]:
    if mode not in (AND, OR):
        raise ValueError(f"unknown query mode: {mode!r}")
    found = []
    for term in terms:
        nodes = corpus.postings.get(term, ())
        first = bisect_left(nodes, start)
        found.append(nodes[first : bisect_left(nodes, end, first)])
    if not found:
        raise ValueError("element query needs at least one term")
    if mode == OR:
        hits = set().union(*found)
    elif all(found):
        hits = set.intersection(*[_ancestor_closure(nodes, corpus.parents) for nodes in found])
    else:
        return []
    satisfied = sorted(hits)
    following = satisfied[1:] + [end]
    ends = corpus.ends
    return [i for i, after in zip(satisfied, following) if after >= ends[i]]


def _ancestor_closure(nodes: Sequence[int], parents: Sequence[int]) -> set[int]:
    """The given nodes and all their ancestors, stopping at nodes already marked."""
    marked: set[int] = set()
    mark = marked.add
    for i in nodes:
        while i >= 0 and i not in marked:
            mark(i)
            i = parents[i]
    return marked
