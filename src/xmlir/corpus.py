"""XML corpus ingestion: immutable, path-addressable document trees.

Document identifiers are relative file paths with the ``.xml`` suffix
stripped (``ic/1999/w4095``); ingestion order is the sorted order of those
relative paths and defines the total order used for tie-breaking everywhere
downstream.

Each document is held as flat pre-order arrays: one ``ElementNode`` record
``(path, subtree_size)`` per element, plus per-term postings, subtree ends
and parent indices; node ``i``'s subtree is the index range ``[i, ends[i])``
and its parent is ``parents[i]``. ``by_path`` finds a node by its path.
A node's own tokens are not kept: the postings hold every occurrence.

Terms and tags are interned with ``sys.intern``, so a term or tag that
recurs across documents is one string; within one ``ingest_corpus`` call,
equal paths are also one ``ElementPath``.

Terms are the maximal runs of ASCII letters and digits in the lowercased
text: no stemming, no stopword removal, and attributes and markup never
contribute terms.
"""

from __future__ import annotations

import re
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .paths import ElementPath, PathStep

_TOKEN = re.compile(r"[0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """The terms of a text, in order, repeats kept."""
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True, eq=False, slots=True)
class ElementNode:
    path: ElementPath
    subtree_size: int  # token count of this node plus all descendants


@dataclass(eq=False)
class DocumentTree:
    """One parsed document; nodes are addressed by their pre-order index."""

    doc: str
    nodes: tuple[ElementNode, ...]  # document (pre-order) order; nodes[0] is the root
    by_path: dict[ElementPath, ElementNode]
    # term -> pre-order indices of the nodes holding it directly, one entry per
    # token occurrence (so len() is the term's frequency in the document)
    postings: dict[str, tuple[int, ...]]
    ends: tuple[int, ...]  # ends[i]: index just past node i's subtree
    parents: tuple[int, ...]  # parents[i]: index of node i's parent, -1 for the root

    @property
    def root(self) -> ElementNode:
        return self.nodes[0]


def parse_document(text: str, doc: str) -> DocumentTree:
    """Parse one XML document into an immutable tree; raises ET.ParseError.

    One iterative pre-order pass numbers the nodes and collects their paths,
    own token counts, parents and postings; a reverse pass over ``parents``
    then sums subtree sizes and ends, so nesting depth is bounded by memory,
    not by recursion.
    """
    return _parse(text, doc, {})


def _parse(text: str, doc: str, shared: dict[tuple[PathStep, ...], ElementPath]) -> DocumentTree:
    """``parse_document``, sharing equal paths through ``shared`` (keyed by steps)."""
    intern = sys.intern
    top = ET.fromstring(text)
    paths: list[ElementPath] = []
    sizes: list[int] = []
    parents: list[int] = []
    postings: dict[str, list[int]] = {}
    stack = [(top, ((intern(top.tag), 1),), -1)]
    while stack:
        elem, steps, parent = stack.pop()
        path = shared.get(steps)
        if path is None:
            path = shared[steps] = ElementPath(steps)
        i = len(paths)
        own = tokenize(elem.text or "")
        if len(elem):
            seen: dict[str, int] = {}
            pending = []
            for child in elem:
                # a child's tail text sits directly inside this node
                if child.tail:
                    own.extend(tokenize(child.tail))
                tag = intern(child.tag)
                n = seen[tag] = seen.get(tag, 0) + 1
                pending.append((child, path.steps + ((tag, n),), i))
            stack.extend(reversed(pending))
        for term in own:
            hits = postings.get(term)
            if hits is None:
                postings[intern(term)] = [i]
            else:
                hits.append(i)
        paths.append(path)
        sizes.append(len(own))
        parents.append(parent)

    count = len(paths)
    ends = list(range(1, count + 1))
    for i in range(count - 1, 0, -1):  # every descendant of a node comes after it
        parent = parents[i]
        sizes[parent] += sizes[i]
        if ends[i] > ends[parent]:
            ends[parent] = ends[i]
    nodes = tuple(map(ElementNode, paths, sizes))
    return DocumentTree(
        doc=doc,
        nodes=nodes,
        by_path=dict(zip(paths, nodes)),
        postings={term: tuple(hits) for term, hits in postings.items()},
        ends=tuple(ends),
        parents=tuple(parents),
    )


@dataclass(eq=False)
class Corpus:
    docs: dict[str, DocumentTree]  # insertion order == ingestion order
    diagnostics: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.docs)

    def trees(self) -> Iterator[DocumentTree]:
        return iter(self.docs.values())


def ingest_corpus(root_directory: str | Path) -> Corpus:
    """Ingest every ``*.xml`` file under a directory.

    Malformed or unreadable files, including directories named ``*.xml``,
    are skipped with one diagnostic each; a missing corpus directory raises.
    Re-ingesting an unchanged directory yields identical document
    identifiers, order and trees.
    """
    root = Path(root_directory)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    docs: dict[str, DocumentTree] = {}
    diagnostics: list[str] = []
    shared: dict[tuple[PathStep, ...], ElementPath] = {}
    files = sorted(root.rglob("*.xml"), key=lambda p: p.relative_to(root).as_posix())
    for path in files:
        rel = path.relative_to(root).as_posix()
        doc = rel[: -len(".xml")]
        try:
            text = path.read_text(encoding="utf-8")
            docs[doc] = _parse(text, doc, shared)
        except (OSError, ET.ParseError, UnicodeDecodeError) as exc:
            diagnostics.append(f"{rel}: skipped ({exc})")
    return Corpus(docs=docs, diagnostics=diagnostics)
