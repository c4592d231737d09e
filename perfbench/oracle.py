"""Brute-force reference answers, independent of the ``xmlir`` package.

Documents are parsed here with ``xml.etree`` directly; element paths are the
``/tag[i]`` strings that run files print. Every answer follows the
definitions in the package docstrings, checked element by element.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

_TOKEN = re.compile(r"[0-9a-z]+")

SYSTEM_TAGS = ("fulltext", "xmldb", "xmldb-cre", "hybrid", "hybrid-cre")
GRID_NS = ("1", "10", "all")
GRID_CASES = ("original", "general", "specific")
GRID_CATEGORIES = ("all", "broad", "narrow")


@dataclass
class Element:
    path: str
    steps: tuple[tuple[str, int], ...]
    terms: set[str]  # terms anywhere in the subtree


def elements(xml_text: str) -> list[Element]:
    """Every element in document order with its subtree's term set."""
    root = ET.fromstring(xml_text)
    out: list[Element] = []

    def visit(node: ET.Element, steps: tuple[tuple[str, int], ...]) -> set[str]:
        me = Element("".join(f"/{t}[{i}]" for t, i in steps), steps, set())
        out.append(me)
        text = (node.text or "") + " " + " ".join(c.tail or "" for c in node)
        terms = set(_TOKEN.findall(text.lower()))
        seen: dict[str, int] = {}
        for child in node:
            seen[child.tag] = seen.get(child.tag, 0) + 1
            terms |= visit(child, steps + ((child.tag, seen[child.tag]),))
        me.terms = terms
        return terms

    visit(root, ((root.tag, 1),))
    return out


def _below(ancestor: tuple, other: tuple) -> bool:
    return len(ancestor) < len(other) and other[: len(ancestor)] == ancestor


def most_specific(elems: list[Element], terms: set[str], mode: str) -> list[Element]:
    """Satisfying elements with no satisfying proper descendant."""
    if mode == "and":
        sat = [e for e in elems if terms <= e.terms]
    else:
        sat = [e for e in elems if terms & e.terms]
    return [e for e in sat if not any(_below(e.steps, o.steps) for o in sat)]


def combined_matches(elems: list[Element], terms: set[str]) -> list[Element]:
    """AND matches, then OR matches not among them, each in document order."""
    and_list = most_specific(elems, terms, "and")
    and_paths = {e.path for e in and_list}
    return and_list + [e for e in most_specific(elems, terms, "or") if e.path not in and_paths]


def coherent_elements(elems: list[Element], matching: list[Element]) -> list[tuple[Element, int]]:
    """Fixpoint of the coherent-element definition, ranked under ``MpE``.

    An ancestor qualifies when items (matches or qualified ancestors) lie
    below it through at least two distinct children; a single match stands
    for itself. Returns (element, matches strictly below) pairs in rank
    order: more matches, then shorter path, then sibling indices nearer the
    end, then path.
    """
    if len(matching) == 1:
        return [(matching[0], 1)]
    match_steps = {e.steps for e in matching}
    items = set(match_steps)
    qualified: list[Element] = []
    changed = True
    while changed:
        changed = False
        for cand in elems:
            if cand.steps in items or not any(_below(cand.steps, m) for m in match_steps):
                continue
            depth = len(cand.steps)
            children = {it[depth] for it in items if _below(cand.steps, it)}
            if len(children) >= 2:
                items.add(cand.steps)
                qualified.append(cand)
                changed = True
    scored = [(e, sum(1 for m in match_steps if _below(e.steps, m))) for e in qualified]
    scored.sort(key=lambda p: (-p[1], len(p[0].steps), tuple(-i for _, i in p[0].steps), p[0].steps))
    return scored


def grid_problems(text: str, label: str) -> tuple[int, list[str]]:
    """Check a ``report`` grid: the header, then one well-formed row per cell.

    Returns the number of rows checked and one message per malformed or
    missing row. MAP must lie in [0, 1] or be ``-``.
    """
    lines = text.splitlines()
    problems: list[str] = []
    if not lines or lines[0] != "system\tn\tcase\tcategory\tmetric\ttopics\tmap":
        problems.append("missing grid header")
    expected = [("fulltext", "-")] + [
        (tag, n) for tag in SYSTEM_TAGS[1:] for n in GRID_NS
    ]
    expected_cells = [
        (tag, n, case, cat) for tag, n in expected for case in GRID_CASES for cat in GRID_CATEGORIES
    ]
    rows = lines[1:]
    for number, row in enumerate(rows, start=2):
        fields = row.split("\t")
        if len(fields) != 7:
            problems.append(f"grid line {number}: {len(fields)} fields")
            continue
        tag, n, case, cat, metric, topics, value = fields
        if (tag, n, case, cat) not in expected_cells:
            problems.append(f"grid line {number}: unexpected cell {tag} {n} {case} {cat}")
        if metric != label or not topics.isdigit():
            problems.append(f"grid line {number}: bad metric or topic count")
        if value != "-":
            try:
                ok = 0.0 <= float(value) <= 1.0
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"grid line {number}: MAP {value!r} outside [0, 1]")
    cells = [tuple(r.split("\t")[:4]) for r in rows]
    if sorted(cells) != sorted(expected_cells):
        problems.append(f"grid holds {len(cells)} rows, not the {len(expected_cells)} expected cells")
    return max(len(rows), len(expected_cells)), problems
