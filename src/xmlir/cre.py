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
the whole corpus (``identify_cres``): a walk that leaves ``a``'s root
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
giving the 16 ``COMBO_CODES``. ``rank_cres`` sorts each article's coherent
elements in that order.
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


def rank_cres(
    corpus: Corpus, cres: Iterable[tuple[int, int]], combo: str = DEFAULT_COMBO, order: Sequence[int] | None = None
) -> list[int]:
    """The nodes of ``(node, matches below)`` pairs, article by article in
    ``order`` (document numbers; document order when None, and an article
    not listed is dropped), each article's ranked by ``combo``.

    Ties left by the code fall to the full path, since sibling-index
    sequences can repeat (``/article[1]/bdy[1]`` and ``/article[1]/bm[1]``).
    The per-article cap is applied by the pipeline, not here.
    """
    if combo not in COMBO_CODES:
        raise ValueError(f"invalid heuristic combination {combo!r}")
    match_sign = -1 if "M" in combo else 1
    path_sign = -1 if "P" in combo else 1
    sequence_sign = -1 if combo[2] == "E" else 1
    matches_first = combo[0] in "Mm"

    places = None if order is None else dict(zip(order, range(len(order))))
    doc_of, path_ids = corpus.doc_of, corpus.path_ids
    shapes: dict[int, tuple[int, tuple[int, ...], tuple]] = {}  # path id -> its key parts; a corpus has few paths
    keyed = []
    for node, below in cres:
        number = doc_of[node]
        place = number if places is None else places.get(number)
        if place is not None:
            pid = path_ids[node]
            if pid not in shapes:
                steps = corpus.path(node).steps
                shapes[pid] = path_sign * len(steps), tuple(sequence_sign * index for _, index in steps), steps
            length, sequence, steps = shapes[pid]
            matches = match_sign * below
            key = (place, matches, length) if matches_first else (place, length, matches)
            keyed.append(((*key, sequence, steps), node))
    keyed.sort()
    return [node for _, node in keyed]
