"""XML corpus ingestion: one corpus-wide index of pre-order numbered nodes.

A document's identifier is its file's relative path without ``.xml``
(``ic/1999/w4095``); its number, its place in the sorted order of those
paths, breaks ties everywhere downstream. Nodes are numbered in pre-order
across the corpus: document ``d`` is the range ``[starts[d], starts[d +
1])`` and node ``i``'s subtree is ``[i, ends[i])``. Node facts are integer
columns: ``path_ids``, ``sizes`` (subtree token counts), ``ends``,
``parents`` (-1 for a root) and ``doc_of`` (the node's document number).
Each distinct path is one ``(parent path id, tag, index)`` row of a table
private to this module (a DataGuide with sibling indexes, Goldman & Widom,
VLDB 1997): ``corpus.path(i)`` builds node ``i``'s ``ElementPath`` from it,
and ``Corpus.find`` resolves a (document, path) pair to its node through it;
``Corpus.path_order`` ranks all its paths, once per sign pair, for ``rank_cres``.
Each term has one ascending ``array('i')`` of the nodes holding it directly,
one entry per occurrence: a document's run of it is the ``bisect`` slice
within the document's range, whose length is the term's frequency there,
and a node list in this order is in document order across the whole corpus.
The article index (``ranker.build_index``) reads a term's array only when the
term is first read, to count its ``(document number, tf)`` pairs, and
``Corpus.holders`` closes it upwards through ``parents`` on its first read,
for the AND matcher, keeping the result until the next ``add``.
Terms and tags are interned. Terms are the maximal runs of ASCII letters and
digits in the lowercased text; attributes and markup never contribute terms.
"""

from __future__ import annotations

import codecs
import html.entities
import os
import re
import sys
import xml.etree.ElementTree as ET
from array import array
from dataclasses import dataclass, field
from itertools import count, groupby, islice, repeat
from operator import add
from pathlib import Path
from typing import Iterator, NamedTuple

from .paths import ElementPath

_TOKEN = re.compile(r"[0-9a-z]+")
# the HTML named entities, for documents whose external DTD (not read) declares them
_ENTITIES = {name: chr(code) for name, code in html.entities.name2codepoint.items()}
# a reference expat cannot resolve without a DTD: not predefined, not a character reference
_REFERENCE = re.compile(r"&(?!#|(?:amp|lt|gt|quot|apos);)[\w.:-]+;")
# a byte-order mark names the byte order of a UTF-16 source
_BOM_CODECS = {codecs.BOM_UTF16_LE: "utf-16-le", codecs.BOM_UTF16_BE: "utf-16-be"}
_ESCAPES = str.maketrans({"\t": "\\t", "\r": "\\r", "\n": "\\n"})
_SURROGATE = re.compile("[\ud800-\udfff]")  # what a file name's undecodable bytes become, and UTF-8 cannot encode


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
    path_ids: array = field(default_factory=lambda: array("i"))  # node -> its path's row in the path table
    sizes: array = field(default_factory=lambda: array("i"))
    ends: array = field(default_factory=lambda: array("i"))  # ends[i]: just past node i's subtree
    parents: array = field(default_factory=lambda: array("i"))
    doc_of: array = field(default_factory=lambda: array("i"))  # node -> document number
    postings: dict[str, array] = field(default_factory=dict)  # term -> ascending node numbers
    diagnostics: list[str] = field(default_factory=list)
    _rows: list[tuple[int, str, int]] = field(default_factory=list, repr=False)  # (parent path id, tag, index)
    _row_ids: dict[tuple[int, str, int], int] = field(default_factory=dict, repr=False)  # row -> path id
    _built: dict[int, ElementPath] = field(default_factory=dict, repr=False)  # path id -> its ElementPath
    _orders: dict = field(default_factory=dict, repr=False)  # sign pair -> (places, signed lengths), until ``add``
    _holders: dict[str, array] = field(default_factory=dict, repr=False)  # term -> holders, until the next ``add``

    def __len__(self) -> int:
        return len(self.docs)

    def tree(self, number: int) -> DocumentTree:
        return DocumentTree(self, self.docs[number], self.starts[number], self.starts[number + 1])

    def trees(self) -> Iterator[DocumentTree]:
        return map(self.tree, range(len(self.docs)))

    def path(self, i: int) -> ElementPath:
        """Node ``i``'s path, built from the path table once per distinct path."""
        pid = self.path_ids[i]
        built = self._built.get(pid)
        if built is None:
            steps, row = [], pid
            while row >= 0:
                row, tag, index = self._rows[row]
                steps.append((tag, index))
            built = self._built[pid] = ElementPath(tuple(reversed(steps)))
        return built

    def path_order(self, length_sign: int, sequence_sign: int) -> tuple[list[int], list[int]]:
        """For every path id, its place among all distinct paths sorted by
        ``length_sign`` times their length, then their sibling-index sequence
        times ``sequence_sign``, then their steps, and its signed length.
        Sequences and steps only meet at equal lengths, so each depth is ranked
        alone from its rows' parents (a row's parent comes before it) and no
        path is spelled out. Memoized per sign pair until the next ``add``."""
        rows, memo = self._rows, self._orders.get((length_sign, sequence_sign))
        if memo is None:
            n = len(rows)
            # per path id, plus one 0 past the end that a root's parent, -1, reads
            depths, sequences, steps = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
            for pid, (parent, _, _) in enumerate(rows):
                depths[pid] = depths[parent] + 1
            for _, level in groupby(sorted(range(n), key=depths.__getitem__), depths.__getitem__):
                level = list(level)
                keys = [(sequences[rows[pid][0]], sequence_sign * rows[pid][2]) for pid in level]
                dense = dict(zip(sorted(set(keys)), count()))  # equal sequences share a rank
                for pid, key in zip(level, keys):
                    sequences[pid] = dense[key]
                # rows under one parent rank compare by (tag, index), as their steps do
                level.sort(key=lambda pid: (steps[rows[pid][0]], rows[pid]))
                for rank, pid in enumerate(level):
                    steps[pid] = rank
            lengths = [length_sign * depth for depth in depths[:n]]
            places = [0] * n
            for place, pid in enumerate(sorted(range(n), key=lambda pid: (lengths[pid], sequences[pid], steps[pid]))):
                places[pid] = place
            memo = self._orders[length_sign, sequence_sign] = places, lengths
        return memo

    def holders(self, term: str) -> array:
        """The ascending nodes whose subtree holds ``term``: its postings and
        all their ancestors, each walk up ``parents`` stopping at a node an
        earlier one marked. Derived on first read and kept until the next ``add``."""
        found = self._holders.get(term)
        if found is None:
            marked: set[int] = set()
            mark, parents = marked.add, self.parents
            for i in self.postings.get(term, ()):
                while i >= 0 and i not in marked:
                    mark(i)
                    i = parents[i]
            found = self._holders[term] = array("i", sorted(marked))
        return found

    def find(self, number: int, path: ElementPath) -> int | None:
        """The node at ``path`` in document ``number``: its steps name one row
        of the path table, and the document holds at most one node of it;
        None when absent."""
        pid = -1
        for tag, index in path.steps:
            pid = self._row_ids.get((pid, tag, index))  # past a missing row, None keys no row
        try:
            return None if pid is None else self.path_ids.index(pid, self.starts[number], self.starts[number + 1])
        except ValueError:
            return None

    def add(self, doc: str, source: str | bytes) -> None:
        """Parse one XML document into the next document number; a parse error
        or an identifier with a tab, a line break or a surrogate (which no run
        file holds) raises before any change. One iterative pre-order pass
        collects path ids (one table lookup each), own token counts, parents
        and postings in the document's own lists, a reverse pass over its
        parents sums subtree sizes and ends there, and each column is then
        extended once: no recursion limits depth, and no step grows with it."""
        if any(c in doc for c in "\t\r\n"):
            raise ValueError(f"document identifier {doc!r} holds a tab or line break")
        if _SURROGATE.search(doc):
            raise ValueError(f"document identifier {doc!r} is not UTF-8 text")
        intern = sys.intern
        top = read_xml(source)
        self._holders.clear()
        self._orders.clear()
        rows, row_ids, postings = self._rows, self._row_ids, self.postings
        start = len(self.path_ids)
        path_ids: list[int] = []  # per node of this document, numbered from 0
        sizes: list[int] = []
        parents: list[int] = []  # the parent's number in this document, -1 for the root
        stack = [(top, (-1, intern(top.tag), 1), -1)]
        while stack:
            elem, row, parent = stack.pop()
            pid = row_ids.setdefault(row, len(rows))
            if pid == len(rows):
                rows.append(row)
            i = len(path_ids)
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
                    pending.append((child, (pid, tag, n), i))
                stack.extend(reversed(pending))
            node = start + i
            for term in own:
                hits = postings.get(term)
                if hits is None:
                    postings[intern(term)] = array("i", (node,))
                else:
                    hits.append(node)
            path_ids.append(pid)
            sizes.append(len(own))
            parents.append(parent)

        n = len(path_ids)
        ends = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):  # every descendant of a node comes after it
            parent = parents[i]
            sizes[parent] += sizes[i]
            if ends[i] > ends[parent]:
                ends[parent] = ends[i]
        self.path_ids.extend(path_ids)
        self.sizes.extend(sizes)
        self.ends.extend(map(add, ends, repeat(start)))
        self.parents.append(-1)
        self.parents.extend(map(add, islice(parents, 1, None), repeat(start)))
        self.doc_of.extend(repeat(len(self.docs), n))
        self.docs.append(doc)
        self.starts.append(start + n)


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
        return Node(self.corpus.path(self.start), self.corpus.sizes[self.start])


def ingest_corpus(root_directory: str | Path) -> Corpus:
    """Ingest every ``*.xml`` file under a directory, each file's bytes parsed
    in its declared encoding; re-ingesting an unchanged directory yields the
    same corpus. Malformed or unreadable files, directories named ``*.xml``
    and false or unknown declared encodings included, are skipped with one
    diagnostic each; a missing corpus directory raises. The files are those
    ``Path.rglob("*.xml")`` lists, found by one ``os.walk``: hidden names and
    broken symbolic links included, symbolic links to directories not walked."""
    root = Path(root_directory)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    top = os.path.join(root, "")
    base = "" if root == Path() else top  # as ``root / rel`` spells a file's path
    found = []
    for directory, dirs, files in os.walk(top):
        prefix = os.path.join(directory, "")[len(top) :]
        found += [prefix + name for names in (dirs, files) for name in names if name.endswith(".xml")]
    corpus = Corpus()
    for rel in sorted(found):
        try:
            with open(base + rel, "rb") as file:
                source = file.read()
            corpus.add(rel[: -len(".xml")], source)
        except (OSError, ET.ParseError, LookupError, ValueError) as exc:
            corpus.diagnostics.append(one_line(f"{rel}: skipped ({exc})"))
    return corpus
