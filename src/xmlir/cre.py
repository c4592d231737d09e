"""Coherent retrieval elements: identification and heuristic ranking.

Given one article's matching elements, a coherent element is an ancestor
that contains at least two items (matching elements or other coherent
elements) spread across at least two distinct immediate children. The
definition is self-referential, but a coherent element below a candidate
always has a matching element below it through the same child, so counting
coherent elements as items adds no child. The set is therefore the branching
nodes of the match set: the non-matching nodes with matches below at least
two distinct children.

Matches arrive as ascending pre-order node numbers. The branching nodes are
then exactly the lowest common ancestors (LCAs) of adjacent matches that are
not matches themselves (the adjacent-neighbour argument of Xu &
Papakonstantinou, SIGMOD 2005): a branching node with matches below children
``c1`` before ``c2`` is the LCA of the last match below ``c1`` and the match
after it, and the LCA of adjacent ``a < b``, unless it is ``a``, holds them
below two distinct children. One walk up from each ``a`` finds its LCA.
Each document is a range of the corpus-wide numbering, so one pass serves
the whole corpus (``coherent_nodes``): a walk that leaves ``a``'s root
finds two documents, and that pair adds nothing.

A document with one match is the special case: the sole matching element is
returned as-is, since nothing supports promoting any of its ancestors.

Ranking uses a heuristic combination, a three-letter code such as ``MpE``:

* ``M``/``m``: more/fewer containing matches first;
* ``P``/``p``: longer/shorter path first;
* ``B``/``E``: sibling-index sequence nearer the beginning/end of the
  article first (lexicographic on the index projection of the path).

The first two letters are the primary and secondary keys in either order
(one from each pair), the third letter always resolves remaining ties,
giving the 16 ``COMBO_CODES``. ``combo_key`` turns a code into that order.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from typing import Callable, NamedTuple, Sequence

from .corpus import Corpus, DocumentTree
from .paths import ElementPath

COMBO_CODES = tuple(a + b + t for x, y in (("Mm", "Pp"), ("Pp", "Mm")) for a in x for b in y for t in "BE")
DEFAULT_COMBO = "MpE"


class CoherentElement(NamedTuple):  # a tuple: cheap to make by the thousand per topic
    doc: str
    path: ElementPath
    matches: int  # matching elements lying strictly below this path


def coherent_nodes(corpus: Corpus, matching: Sequence[int]) -> list[tuple[int, int]]:
    """``(node, matches below)`` for the coherent elements of every document
    holding some of the ascending node numbers ``matching``, in node order."""
    ends, parents = corpus.ends, corpus.parents
    lcas, found, alone = set(), [], True  # alone: no match before a in its document
    for a, b in zip(matching, [*matching[1:], len(ends)]):  # the last walk leaves the corpus
        x = a
        while x >= 0 and ends[x] <= b:
            x = parents[x]
        if x >= 0:
            lcas.add(x)
        elif alone:  # the walk left a's root: a is its document's only match
            found.append((a, 1))
        alone = x < 0
    for x in lcas:
        first = bisect_left(matching, x)
        if matching[first] != x:  # a match is never its own coherent element
            found.append((x, bisect_left(matching, ends[x], first) - first))
    found.sort()
    return found


def identify_cres(tree: DocumentTree, matching: Sequence[int]) -> list[CoherentElement]:
    """Coherent elements for one article's matching nodes.

    ``matching`` holds node numbers of ``tree`` in strictly increasing
    order; members may be nested. Returns records in document order;
    callers treat the result as a set.
    """
    if not matching:
        raise ValueError("matching element list is empty")
    if any(b <= a for a, b in zip(matching, matching[1:])):
        raise ValueError("matching node indices must be strictly increasing")
    if matching[0] < tree.start or matching[-1] >= tree.end:
        raise ValueError(f"matching node index outside [{tree.start}, {tree.end})")
    return [CoherentElement(tree.doc, tree.corpus.paths[x], n) for x, n in coherent_nodes(tree.corpus, matching)]


def combo_key(combo: str) -> Callable[[int, ElementPath], tuple]:
    """A coherent element's sort key under a combination code, from its
    matches below and its path: the code's two keys, then the sequence."""
    if combo not in COMBO_CODES:
        raise ValueError(f"invalid heuristic combination {combo!r}")
    match_sign = -1 if "M" in combo else 1
    path_sign = -1 if "P" in combo else 1
    sequence_sign = -1 if combo[2] == "E" else 1
    matches_first = combo[0] in "Mm"

    @cache  # a corpus has few distinct paths
    def shape(path: ElementPath) -> tuple[int, tuple[int, ...]]:
        return path_sign * len(path.steps), tuple(sequence_sign * index for _, index in path.steps)

    def key(matches: int, path: ElementPath) -> tuple:
        length, sequence = shape(path)
        return (match_sign * matches, length, sequence) if matches_first else (length, match_sign * matches, sequence)

    return key


def rank_cres(cres: Sequence[CoherentElement], combo: str = DEFAULT_COMBO) -> list[CoherentElement]:
    """Total order over coherent elements under a heuristic combination code.

    Ties left by the code fall to the document and then the full path, since
    sibling-index sequences can repeat (``/article[1]/bdy[1]`` and
    ``/article[1]/bm[1]``). The per-article cap is applied by the pipeline,
    not here.
    """
    key = combo_key(combo)
    return sorted(cres, key=lambda record: (*key(record.matches, record.path), record.doc, record.path.steps))
