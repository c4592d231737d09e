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

A single-item input is the special case: the sole matching element is
returned as-is, since nothing supports promoting any of its ancestors.

Ranking uses a heuristic combination, a three-letter code such as ``MpE``:

* ``M``/``m``: more/fewer containing matches first;
* ``P``/``p``: longer/shorter path first;
* ``B``/``E``: sibling-index sequence nearer the beginning/end of the
  article first (lexicographic on the index projection of the path).

The first two letters are the primary and secondary keys in either order
(one from each pair), the third letter always resolves remaining ties,
giving the 16 ``COMBO_CODES``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Sequence

from .corpus import DocumentTree
from .paths import ElementPath

COMBO_CODES = tuple(a + b + t for x, y in (("Mm", "Pp"), ("Pp", "Mm")) for a in x for b in y for t in "BE")
DEFAULT_COMBO = "MpE"


class CoherentElement(NamedTuple):  # a tuple: cheap to make by the thousand per topic
    doc: str
    path: ElementPath
    matches: int  # matching elements lying strictly below this path


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
    paths, ends, parents = tree.corpus.paths, tree.corpus.ends, tree.corpus.parents
    if len(matching) == 1:
        return [CoherentElement(tree.doc, paths[matching[0]], matches=1)]
    lcas = set()
    for a, b in zip(matching, matching[1:]):
        x = a
        while ends[x] <= b:
            x = parents[x]
        lcas.add(x)
    cres = []
    for x in sorted(lcas):
        first = bisect_left(matching, x)
        if matching[first] != x:  # a match is never its own coherent element
            below = bisect_left(matching, ends[x], first) - first
            cres.append(CoherentElement(tree.doc, paths[x], below))
    return cres


def rank_cres(cres: Sequence[CoherentElement], combo: str = DEFAULT_COMBO) -> list[CoherentElement]:
    """Total order over coherent elements under a heuristic combination code.

    Ties left by the code fall to the document and then the full path, since
    sibling-index sequences can repeat (``/article[1]/bdy[1]`` and
    ``/article[1]/bm[1]``). The per-article cap is applied by the pipeline,
    not here.
    """
    if combo not in COMBO_CODES:
        raise ValueError(f"invalid heuristic combination {combo!r}")
    match_sign = -1 if "M" in combo else 1
    path_sign = -1 if "P" in combo else 1
    sequence_sign = -1 if combo[2] == "E" else 1
    matches_first = combo[0] in "Mm"

    def key(record: CoherentElement):
        steps = record.path.steps
        matches, length = match_sign * record.matches, path_sign * len(steps)
        sequence = tuple(sequence_sign * index for _, index in steps)
        if matches_first:
            return matches, length, sequence, record.doc, steps
        return length, matches, sequence, record.doc, steps

    return sorted(cres, key=key)
