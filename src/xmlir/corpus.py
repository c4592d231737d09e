"""XML corpus ingestion: one corpus-wide index of pre-order numbered nodes.

A document's identifier is its file's relative path without ``.xml``
(``ic/1999/w4095``); its number, its place in the sorted order of those
paths, breaks ties everywhere downstream. Nodes are numbered in pre-order
across the corpus: document ``d`` is the range ``[starts[d], starts[d +
1])`` and node ``i``'s subtree is ``[i, ends[i])``. Node facts are columns:
``paths`` (one ``ElementPath`` per distinct path), ``sizes`` (subtree token
counts), ``ends`` and ``parents`` (-1 for a root). Each term has one
ascending ``array('i')`` of the nodes holding it directly, one entry per
occurrence: a document's run of it is the ``bisect`` slice within the
document's range, whose length is the term's frequency there, and a node
list in this order is in document order across the whole corpus.
``Corpus.find`` resolves a (document, path) pair to its node. Terms and tags
are interned. Terms are the maximal runs of ASCII letters and digits in the
lowercased text; attributes and markup never contribute terms.
"""

from __future__ import annotations

import codecs
import html.entities
import re
import sys
import xml.etree.ElementTree as ET
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

from .paths import ElementPath, PathStep

_TOKEN = re.compile(r"[0-9a-z]+")
# the HTML named entities, for documents whose external DTD (not read) declares them
_ENTITIES = {name: chr(code) for name, code in html.entities.name2codepoint.items()}
# a reference expat cannot resolve without a DTD: not predefined, not a character reference
_REFERENCE = re.compile(r"&(?!#|(?:amp|lt|gt|quot|apos);)[\w.:-]+;")
# a byte-order mark names the byte order of a UTF-16 source
_BOM_CODECS = {codecs.BOM_UTF16_LE: "utf-16-le", codecs.BOM_UTF16_BE: "utf-16-be"}
_ESCAPES = str.maketrans({"\t": "\\t", "\r": "\\r", "\n": "\\n"})


def one_line(text: str) -> str:
    """``text`` with each tab, CR and LF written as ``\\t``, ``\\r`` and
    ``\\n``, so a diagnostic naming a file stays one line."""
    return text.translate(_ESCAPES)


def whole_number(text: str | None, what: str) -> int:
    """``text`` read as a whole number written in ASCII digits only, as a path
    step's index is; anything else (a sign, a space, ``1_0``, ``٣`` or no
    text at all) raises ValueError naming ``what`` and the text."""
    if text is None or not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} must be ASCII digits, not {text!r}")
    return int(text)


def tokenize(text: str) -> list[str]:
    """The terms of a text, in order, repeats kept."""
    return _TOKEN.findall(text.lower())


class Node(NamedTuple):
    path: ElementPath
    subtree_size: int  # token count of this node plus all descendants


@dataclass(eq=False)
class Corpus:
    docs: list[str] = field(default_factory=list)  # document number -> identifier
    starts: array = field(default_factory=lambda: array("i", [0]))  # one past the last document too
    paths: list[ElementPath] = field(default_factory=list)
    sizes: array = field(default_factory=lambda: array("i"))
    ends: array = field(default_factory=lambda: array("i"))  # ends[i]: just past node i's subtree
    parents: array = field(default_factory=lambda: array("i"))
    postings: dict[str, array] = field(default_factory=dict)  # term -> ascending node numbers
    diagnostics: list[str] = field(default_factory=list)
    _shared: dict[tuple[PathStep, ...], ElementPath] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.docs)

    def tree(self, number: int) -> DocumentTree:
        return DocumentTree(self, self.docs[number], self.starts[number], self.starts[number + 1])

    def trees(self) -> Iterator[DocumentTree]:
        return map(self.tree, range(len(self.docs)))

    def find(self, number: int, path: ElementPath) -> int | None:
        """The node at ``path`` in document ``number``, found by walking down
        its steps; None when absent."""
        paths, ends = self.paths, self.ends
        i, stop = self.starts[number], self.starts[number + 1]  # the candidates at depth 0: the root alone
        for depth, step in enumerate(path.steps):
            while i < stop and paths[i].steps[depth] != step:
                i = ends[i]  # the next sibling
            if i == stop:
                return None
            i, stop = i + 1, ends[i]  # on to the first child
        return i - 1

    def add(self, doc: str, source: str | bytes) -> None:
        """Parse one XML document into the next document number; a parse error
        or an identifier with a tab or line break (which no run file holds)
        raises before any change. One iterative pre-order pass collects paths,
        own token counts, parents and postings, and a reverse pass over
        ``parents`` sums subtree sizes and ends: no recursion limits depth."""
        if any(c in doc for c in "\t\r\n"):
            raise ValueError(f"document identifier {doc!r} holds a tab or line break")
        intern = sys.intern
        top = read_xml(source)
        shared, paths, sizes, parents, postings = self._shared, self.paths, self.sizes, self.parents, self.postings
        start = len(paths)
        stack = [(top, ((intern(top.tag), 1),), -1)]
        while stack:
            elem, steps, parent = stack.pop()
            path = shared.get(steps) or shared.setdefault(steps, ElementPath(steps))
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
                    postings[intern(term)] = array("i", (i,))
                else:
                    hits.append(i)
            paths.append(path)
            sizes.append(len(own))
            parents.append(parent)

        end, ends = len(paths), self.ends
        ends.extend(range(start + 1, end + 1))
        for i in range(end - 1, start, -1):  # every descendant of a node comes after it
            parent = parents[i]
            sizes[parent] += sizes[i]
            if ends[i] > ends[parent]:
                ends[parent] = ends[i]
        self.docs.append(doc)
        self.starts.append(end)


def read_xml(source: str | bytes) -> ET.Element:
    """Parse one XML document, bytes in their declared encoding, with the HTML
    named entities resolved as if its external DTD (not read) declared them.
    Raises ET.ParseError, naming an undefined entity, LookupError for an
    unknown declared encoding, or ValueError."""
    parser = ET.XMLParser()
    parser.entity.update(_ENTITIES)
    try:
        return ET.fromstring(source, parser)
    except ET.ParseError as exc:
        raise (_named_entity(exc, source) if exc.code == 11 else exc) from None  # 11: an undefined entity


def _named_entity(exc: ET.ParseError, source: str | bytes) -> ET.ParseError:
    """Expat's own undefined-entity error, in a document without a DTD, names
    no entity: name the first unresolvable reference from its line and
    character column on, as a document with a DTD does."""
    line, column = exc.position
    # a byte-order mark stays a character, as expat counts it in line 1's columns
    text = source if isinstance(source, str) else source.decode(_BOM_CODECS.get(source[:2], "utf-8"), "replace")
    start = re.match(r"(?:[^\r\n]*(?:\r\n?|\n)){%d}" % (line - 1), text)
    found = start and _REFERENCE.search(text, start.end() + column)
    if not found:  # e.g. a source in a multi-byte encoding other than UTF-8 or UTF-16
        return exc
    named = ET.ParseError(f"undefined entity {found.group()}: line {line}, column {column}")
    named.code, named.position = exc.code, exc.position
    return named


@dataclass(eq=False, slots=True)
class DocumentTree:
    """One document of a corpus, as ``Corpus.tree`` returns it; kept only for ``perfbench``
    and read by the pin test ``test_node_record_holds_only_path_and_size``."""

    corpus: Corpus
    doc: str
    start: int
    end: int

    @property
    def nodes(self) -> range:
        return range(self.start, self.end)

    @property
    def root(self) -> Node:
        return Node(self.corpus.paths[self.start], self.corpus.sizes[self.start])

def ingest_corpus(root_directory: str | Path) -> Corpus:
    """Ingest every ``*.xml`` file under a directory, each file's bytes parsed
    in its declared encoding; re-ingesting an unchanged directory yields the
    same corpus. Malformed or unreadable files, directories named ``*.xml``
    and false or unknown declared encodings included, are skipped with one
    diagnostic each; a missing corpus directory raises."""
    root = Path(root_directory)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    corpus = Corpus()
    for rel in sorted(path.relative_to(root).as_posix() for path in root.rglob("*.xml")):
        try:
            corpus.add(rel[: -len(".xml")], (root / rel).read_bytes())
        except (OSError, ET.ParseError, LookupError, ValueError) as exc:
            corpus.diagnostics.append(one_line(f"{rel}: skipped ({exc})"))
    return corpus
