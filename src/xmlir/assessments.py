"""Graded relevance assessments and their derived views.

Input format, one XML file per topic: a root element carrying a
``topic_id`` attribute wraps one ``<file file="doc-id">`` element per
assessed document, each holding ``<path E=".." S=".." path="/article[1]/..."/>``
entries. E grades exhaustivity and S specificity, both 0..3 in ASCII
digits; an element is highly relevant when both are 3. That decision is
made once, as a file is read: an ``AssessmentSet`` is its topic id and its
highly relevant (doc, path) pairs, and every other grade is checked to lie
in 0..3 and then dropped.

Three views of the highly relevant set exist per topic:

* original - every highly relevant element;
* general  - per document, those with no highly relevant proper ancestor;
* specific - per document, those with no highly relevant proper descendant.

A document's only highly relevant element belongs to both reduced views.
Both reduced views come from one scan of the pairs in ``(doc, path.steps)``
order, where an element's relevant descendants follow it straight away:
General skips a pair inside the last one kept; Specific puts it in its place.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import AbstractSet, NamedTuple

from .corpus import one_line, read_xml, whole_number
from .paths import ElementPath

ORIGINAL = "original"
GENERAL = "general"
SPECIFIC = "specific"
RELEVANCE_CASES = (ORIGINAL, GENERAL, SPECIFIC)

BROAD = "broad"
NARROW = "narrow"
NEUTRAL = "neutral"


class AssessmentSet(NamedTuple):
    topic_id: int
    relevant: frozenset[tuple[str, ElementPath]]  # the (doc, path) pairs graded 3/3


def parse_assessment_file(path: str | Path) -> AssessmentSet:
    """Parse one topic's assessment file and keep its highly relevant pairs;
    raises ValueError on bad content: XML that is not well-formed in its
    declared encoding, a grade outside 0..3 or not in ASCII digits, or a
    (doc, path) pair graded twice."""
    source = Path(path)
    try:
        root = read_xml(source.read_bytes())
    except (ET.ParseError, LookupError, ValueError) as exc:  # LookupError: unknown declared encoding
        raise ValueError(f"malformed assessment file {source}: {exc}") from exc
    topic_attr = root.get("topic_id")
    if topic_attr is not None:
        topic_id = whole_number(topic_attr, f"<{root.tag}> topic_id")
    else:  # the file name's one run of ASCII digits: topic-42.xml is topic 42
        digits = re.findall(r"[0-9]+", source.stem)
        if len(digits) != 1:
            raise ValueError(f"cannot determine topic id for {source}")
        topic_id = whole_number(digits[0], "file name's topic id")
    graded = set()
    relevant = set()
    for file_el in root.iter("file"):
        doc = file_el.get("file")
        if not doc:
            raise ValueError(f"{source}: <file> without a file attribute")
        for path_el in file_el.iter("path"):
            raw = path_el.get("path")
            if raw is None:
                raise ValueError(f"{source}: <path> without a path attribute")
            element = ElementPath.from_string(raw)
            exhaustivity = whole_number(path_el.get("E", "0"), f"E of {doc} {element}")
            specificity = whole_number(path_el.get("S", "0"), f"S of {doc} {element}")
            if exhaustivity > 3:
                raise ValueError(f"exhaustivity out of range: {exhaustivity}")
            if specificity > 3:
                raise ValueError(f"specificity out of range: {specificity}")
            if (doc, element) in graded:
                raise ValueError(f"duplicate assessment for topic {topic_id}: {doc} {element}")
            graded.add((doc, element))
            if exhaustivity == specificity == 3:
                relevant.add((doc, element))
    return AssessmentSet(topic_id, frozenset(relevant))


def load_assessments(directory: str | Path) -> tuple[list[AssessmentSet], list[str]]:
    """Parse every ``*.xml`` file in a directory, in file-name order.

    A malformed or unreadable file (a directory named ``*.xml``, say), or a
    later one repeating an earlier file's ``topic_id``, is skipped with a
    diagnostic. Sets come back ordered by topic id.
    """
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"assessments directory not found: {root}")
    by_topic: dict[int, AssessmentSet] = {}
    diagnostics: list[str] = []
    for path in sorted(root.glob("*.xml")):
        try:
            aset = parse_assessment_file(path)
        except (OSError, ValueError) as exc:
            diagnostics.append(one_line(f"{path.name}: skipped ({exc})"))
            continue
        if aset.topic_id in by_topic:
            diagnostics.append(one_line(f"{path.name}: duplicate topic_id {aset.topic_id}; skipped"))
        else:
            by_topic[aset.topic_id] = aset
    return sorted(by_topic.values(), key=lambda s: s.topic_id), diagnostics


def derive_view(assessment: AssessmentSet, case: str) -> frozenset[tuple[str, ElementPath]]:
    """The chosen view of the highly relevant set, the elements graded 3 on both dimensions."""
    if case not in RELEVANCE_CASES:
        raise ValueError(f"unknown relevance case: {case!r}")
    relevant = assessment.relevant
    if case == ORIGINAL:
        return relevant
    kept: list[tuple[str, ElementPath]] = []
    for doc, path in sorted(relevant, key=lambda pair: (pair[0], pair[1].steps)):
        last = kept[-1] if kept else None
        if last is None or last[0] != doc or path.steps[: last[1].depth] != last[1].steps:
            kept.append((doc, path))
        elif case == SPECIFIC:  # the last one kept is this pair's ancestor, so not specific
            kept[-1] = (doc, path)
    return frozenset(kept)


def composition(general: AbstractSet[tuple[str, ElementPath]]) -> tuple[int, int]:
    """A General view's whole-article elements (one-step paths) and its deeper ones."""
    articles = sum(1 for _, path in general if path.depth == 1)
    return articles, len(general) - articles


def categorize_topic(general: AbstractSet[tuple[str, ElementPath]]) -> str:
    """Broad, narrow or neutral, from the composition of a topic's General
    view; an empty view, a topic with no highly relevant element, raises."""
    if not general:
        raise ValueError("no highly relevant elements")
    articles, others = composition(general)
    if articles > others:
        return BROAD
    if articles < others:
        return NARROW
    return NEUTRAL
