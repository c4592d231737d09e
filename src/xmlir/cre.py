"""Coherent retrieval elements: identification and heuristic ranking.

A coherent element of an article's matching elements is an ancestor that
contains at least two items (matching elements or other coherent
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
the whole corpus (``identify_cres``): when ``b`` lies past the end of
``a``'s document the pair has no LCA and no walk is taken, and otherwise
the walk stops inside the document, at its root at the latest.

A document with one match is the special case: the sole matching element is
returned as-is, since nothing supports promoting any of its ancestors.

Ranking uses a heuristic combination, a three-letter code such as ``MpE``:

* ``M``/``m``: more/fewer containing matches first;
* ``P``/``p``: longer/shorter path first;
* ``B``/``E``: sibling-index sequence nearer the beginning/end of the
  article first (lexicographic on the index projection of the path).

The first two letters are the primary and secondary keys in either order
(one from each pair), the third letter always resolves remaining ties,
giving the 16 ``COMBO_CODES``. ``rank_cres`` sorts each article's coherent
elements in that order. A path's part of each key is one integer, its place
in the corpus's order of all its distinct paths (``Corpus.path_order``), so
no sequence or step tuple is built per call.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from .corpus import Corpus

COMBO_CODES = tuple(a + b + t for x, y in (("Mm", "Pp"), ("Pp", "Mm")) for a in x for b in y for t in "BE")
DEFAULT_COMBO = "MpE"


def identify_cres(corpus: Corpus, matching: Sequence[int]) -> list[tuple[int, int]]:
    """``(node, matches below)`` for the coherent elements of every document
    holding some of the ascending node numbers ``matching``, in node order."""
    ends, parents, doc_of, starts = corpus.ends, corpus.parents, corpus.doc_of, corpus.starts
    lcas, found, alone = set(), [], True  # alone: no match before a in its document
    for a, b in zip(matching, [*matching[1:], len(ends)]):  # past the last match: the corpus's end
        if starts[doc_of[a] + 1] <= b:  # b lies past a's document, so the pair has no LCA
            if alone:  # a is its document's only match
                found.append((a, 1))
            alone = True
            continue
        x = a
        while ends[x] <= b:  # stops at a's root at the latest, whose subtree holds b
            x = parents[x]
        lcas.add(x)
        alone = False
    for x in lcas:
        first = bisect_left(matching, x)
        if matching[first] != x:  # a match is never its own coherent element
            found.append((x, bisect_left(matching, ends[x], first) - first))
    found.sort()
    return found


def rank_cres(
    corpus: Corpus, cres: Iterable[tuple[int, int]], combo: str = DEFAULT_COMBO, order: Sequence[int] | None = None
) -> list[int]:
    """The nodes of ``(node, matches below)`` pairs, article by article in
    ``order`` (document numbers; document order when None, and an article
    not listed is dropped), each article's ranked by ``combo``.

    Ties left by the code fall to the full path, since sibling-index
    sequences can repeat (``/article[1]/bdy[1]`` and ``/article[1]/bm[1]``).
    Length, sequence and path are one integer per path id, its place in
    ``corpus.path_order``; a path-first code keeps the signed length ahead of
    the match count. The per-article cap is applied by the pipeline, not here.
    """
    if combo not in COMBO_CODES:
        raise ValueError(f"invalid heuristic combination {combo!r}")
    match_sign = -1 if "M" in combo else 1
    matches_first = combo[0] in "Mm"
    path_places, lengths = corpus.path_order(-1 if "P" in combo else 1, -1 if combo[2] == "E" else 1)

    places = None if order is None else dict(zip(order, range(len(order))))
    doc_of, path_ids = corpus.doc_of, corpus.path_ids
    keyed = []
    for node, below in cres:
        number = doc_of[node]
        place = number if places is None else places.get(number)
        if place is not None:
            pid = path_ids[node]
            if matches_first:
                keyed.append((place, match_sign * below, path_places[pid], node))
            else:
                keyed.append((place, lengths[pid], match_sign * below, path_places[pid], node))
    keyed.sort()
    return [key[-1] for key in keyed]
