"""Element-level AND/OR keyword search.

Returns the most specific elements whose subtree satisfies the term
predicate: an element matches when its subtree holds the required terms and
no proper descendant's subtree does likewise. Per document the matches form
an antichain, returned as ascending pre-order node indices (document order);
``tree.nodes[i].path`` gives a match's path. No ranking happens here.

Matching reads the document's term postings instead of walking its tree.
Nodes are numbered in pre-order, so node ``i``'s subtree is the index range
``[i, ends[i])``. In a sorted list of node indices, a member has no other
member below it exactly when the next member's index is not below its
``ends``; that one test finds the most specific nodes for both modes.

* OR: the satisfying nodes with no satisfying descendant are the
  term-bearing nodes with no term-bearing descendant, so the sorted union of
  the query terms' postings is tested directly.
* AND: a document lacking any query term has no match. Otherwise each
  term's postings are closed upwards through ``parents`` (stopping at nodes
  already marked for that term); the nodes marked by every term are exactly
  those whose subtree holds all terms, and the same ``ends`` test picks the
  smallest of them (the smallest lowest common ancestors of Xu &
  Papakonstantinou, SIGMOD 2005).

A document holding none of the query terms costs one lookup per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .corpus import DocumentTree

AND = "and"
OR = "or"


@dataclass(frozen=True)
class ElementQuery:
    terms: frozenset[str]
    mode: str  # AND or OR

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("element query needs at least one term")
        if self.mode not in (AND, OR):
            raise ValueError(f"unknown query mode: {self.mode!r}")


def match_elements(tree: DocumentTree, query: ElementQuery) -> list[int]:
    """Ascending pre-order indices of the most specific satisfying elements of one document."""
    postings = tree.postings
    if query.mode == OR:
        found = [postings[term] for term in query.terms if term in postings]
        if not found:
            return []
        hits = set().union(*found)
    else:
        closures = []
        for term in query.terms:
            nodes = postings.get(term)
            if nodes is None:
                return []
            closures.append(_ancestor_closure(nodes, tree.parents))
        hits = set.intersection(*closures)
    satisfied = sorted(hits)
    following = satisfied[1:] + [len(tree.ends)]
    return [i for i, after in zip(satisfied, following) if after >= tree.ends[i]]


def _ancestor_closure(nodes: tuple[int, ...], parents: tuple[int, ...]) -> set[int]:
    """The given nodes and all their ancestors, stopping at nodes already marked."""
    marked: set[int] = set()
    for i in nodes:
        while i >= 0 and i not in marked:
            marked.add(i)
            i = parents[i]
    return marked


def collection_match(
    trees: Iterable[DocumentTree], query: ElementQuery
) -> Iterator[tuple[DocumentTree, int]]:
    """``(tree, node index)`` matches of the given documents in the order given, produced lazily."""
    for tree in trees:
        for i in match_elements(tree, query):
            yield tree, i
