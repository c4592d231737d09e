"""Coherent retrieval elements: identification and heuristic ranking.

Given one article's list of matching-element paths, a coherent element is an
ancestor that contains at least two items (matching elements or other
coherent elements) spread across at least two distinct immediate children.
The definition is self-referential, but a coherent element below a
candidate always has a matching element below it through the same child,
so counting coherent elements as items adds no child. The set is therefore
the branching nodes of the match set: the non-matching proper ancestors of
matching elements with matches below at least two distinct children, found
in one pass over the paths' prefixes.

A single-item input is the special case: the sole matching element is
returned as-is, since nothing supports promoting any of its ancestors.

Ranking uses a three-key heuristic code such as ``MpE``:

* ``M``/``m``: more/fewer containing matches first;
* ``P``/``p``: longer/shorter path first;
* ``B``/``E``: sibling-index sequence nearer the beginning/end of the
  article first (lexicographic on the index projection of the path).

The first two letters are the primary and secondary keys in either order
(one from each pair), the third letter always resolves remaining ties,
giving 16 valid codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .paths import ElementPath, PathStep, SequenceKey

_MATCH_KEYS = ("M", "m")
_PATH_KEYS = ("P", "p")
_TIEBREAKS = ("B", "E")

_KEY_PAIRS = [(a, b) for a in _MATCH_KEYS for b in _PATH_KEYS] + [
    (a, b) for a in _PATH_KEYS for b in _MATCH_KEYS
]
COMBO_CODES: tuple[str, ...] = tuple(a + b + t for a, b in _KEY_PAIRS for t in _TIEBREAKS)


@dataclass(frozen=True)
class HeuristicCombo:
    primary: str
    secondary: str
    tiebreak: str

    def __post_init__(self) -> None:
        code = self.primary + self.secondary + self.tiebreak
        if code not in COMBO_CODES:
            raise ValueError(f"invalid heuristic combination {code!r}")

    @classmethod
    def from_string(cls, code: str) -> "HeuristicCombo":
        if len(code) != 3:
            raise ValueError(f"invalid heuristic combination {code!r}")
        return cls(code[0], code[1], code[2])

    def __str__(self) -> str:
        return self.primary + self.secondary + self.tiebreak


DEFAULT_COMBO = HeuristicCombo.from_string("MpE")


@dataclass(frozen=True)
class CoherentElement:
    doc: str
    path: ElementPath
    matches: int  # matching elements lying strictly below this path

    @property
    def length(self) -> int:
        """Number of path steps."""
        return self.path.depth

    @property
    def sequence(self) -> SequenceKey:
        """Sibling-index projection of the path."""
        return self.path.sequence()


def identify_cres(doc: str, matching: Sequence[ElementPath]) -> list[CoherentElement]:
    """Coherent elements for one article's matching-element paths.

    Input paths must be unique and share the root step (one document).
    Returns records ordered by path; callers treat the result as a set.
    """
    paths = list(matching)
    if not paths:
        raise ValueError("matching element list is empty")
    steps_list = [p.steps for p in paths]
    matching_steps = set(steps_list)
    if len(matching_steps) != len(steps_list):
        raise ValueError("duplicate matching paths")
    root_step = steps_list[0][0]
    if any(s[0] != root_step for s in steps_list):
        raise ValueError("matching paths span more than one document root")

    if len(paths) == 1:
        return [CoherentElement(doc, paths[0], matches=1)]

    below: dict[tuple[PathStep, ...], int] = {}
    children: dict[tuple[PathStep, ...], set[PathStep]] = {}
    for steps in steps_list:
        for depth in range(1, len(steps)):
            prefix = steps[:depth]
            below[prefix] = below.get(prefix, 0) + 1
            children.setdefault(prefix, set()).add(steps[depth])
    return [
        CoherentElement(doc, ElementPath(prefix), below[prefix])
        for prefix in sorted(children)
        if len(children[prefix]) >= 2 and prefix not in matching_steps
    ]


def _sort_key(record: CoherentElement, combo: HeuristicCombo):
    def component(letter: str):
        if letter == "M":
            return -record.matches
        if letter == "m":
            return record.matches
        if letter == "P":
            return -record.length
        return record.length

    if combo.tiebreak == "B":
        seq = record.sequence
    else:
        seq = tuple(-i for i in record.sequence)
    # doc + full path make the order total: distinct sibling-index sequences
    # are not guaranteed (e.g. /article[1]/bdy[1] vs /article[1]/bm[1]).
    return (
        component(combo.primary),
        component(combo.secondary),
        seq,
        record.doc,
        record.path.steps,
    )


def rank_cres(
    cres: Sequence[CoherentElement],
    combo: HeuristicCombo = DEFAULT_COMBO,
) -> list[CoherentElement]:
    """Total order over coherent elements under a heuristic combination.

    The per-article cap is applied by the pipeline, not here.
    """
    return sorted(cres, key=lambda r: _sort_key(r, combo))
