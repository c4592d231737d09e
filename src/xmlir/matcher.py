"""Element-level AND/OR keyword search.

Returns the most specific elements whose subtree satisfies the term
predicate: an element matches when its subtree holds the required terms and
no proper descendant's subtree does likewise. A query is a non-empty term
set and a mode, ``AND`` or ``OR``. Per document the matches form an
antichain, returned as ascending node numbers; ``corpus.paths[i]`` gives a
match's path. No ranking happens here.

Matching reads the document's runs of the query terms (``DocumentTree.hits``),
not its tree. Node ``i``'s subtree is ``[i, ends[i])``, so in a sorted list
of node numbers a member has no member below it exactly when the next one
(or, after the last, the document's end) is not below its ``ends``: that
test finds the most specific nodes in both modes.

* OR: the satisfying nodes with no satisfying descendant are the
  term-bearing nodes with no term-bearing descendant, so the sorted union of
  the runs is tested directly.
* AND: a document lacking any query term has no match. Otherwise each run
  is closed upwards through ``parents`` (stopping at nodes already marked
  for that term, or past the root); the nodes marked by every term are
  exactly those whose subtree holds all terms, and the same ``ends`` test
  picks the smallest of them (the smallest lowest common ancestors of Xu &
  Papakonstantinou, SIGMOD 2005).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .corpus import DocumentTree

AND = "and"
OR = "or"


def match_elements(tree: DocumentTree, terms: Iterable[str], mode: str) -> list[int]:
    """Ascending node numbers of the most specific elements of one document
    holding all (``AND``) or any (``OR``) of ``terms``."""
    if mode not in (AND, OR):
        raise ValueError(f"unknown query mode: {mode!r}")
    found = tree.hits(terms)
    if not found:
        raise ValueError("element query needs at least one term")
    corpus = tree.corpus
    if mode == OR:
        hits = set().union(*found)
    elif all(found):
        hits = set.intersection(*[_ancestor_closure(nodes, corpus.parents) for nodes in found])
    else:
        return []
    satisfied = sorted(hits)
    following = satisfied[1:] + [tree.end]
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


def collection_match(
    trees: Iterable[DocumentTree], terms: Iterable[str], mode: str
) -> Iterator[tuple[DocumentTree, int]]:
    """``(tree, node index)`` matches of the given documents in the order given, produced lazily."""
    for tree in trees:
        for i in match_elements(tree, terms, mode):
            yield tree, i
